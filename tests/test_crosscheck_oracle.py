"""classical_crosscheck against the dense two-way comparison.

The reference builds the classical side as
``from_classical(classical_product(g, h, kind))``, a stack of matrix units
with the diagonal algebra, and compares each side with the other by
``max_residual`` in both directions. ``classical_crosscheck`` holds the
classical side as boolean masks over the flat positions and reads the same
residuals off supports, so on classical pairs (every kind, ambient up to
36, edgeless factors included, the quantum side of any kind) every
residual must equal the reference's bitwise. A classical side that is a
proper subgraph of the quantum one is seen only in the direction quantum
in C^U. A quantum side mixed by a random unitary within its span and then
turned by a unitary within about 1e-11 of the identity is no longer
coordinate, so the units direction projects the unit stack; it must pass
within 1e-12 of the reference, and a product of another kind must fail.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs import products, qgraph
from quantumgraphs.products import classical_crosscheck, product

FIXED = settings(max_examples=80, derandomize=True, database=None, deadline=None)

CHECKS = ["edge_space_match", "algebra_match", "edge_space_dimension"]


def reference(g, h, kind, quantum):
    """The residuals of the cross-check by dense mutual containment."""
    classical = qg.from_classical(qg.classical_product(g, h, kind))
    out = [np.max([a.max_residual(b.basis), b.max_residual(a.basis)])
           for a, b in ((quantum.S, classical.S),
                        (quantum.M.basis(), classical.M.basis()))]
    return out + [float(classical.S.dim != quantum.S.dim)]


def refused_basis(self):
    raise AssertionError("BlockAlgebra.basis called")


def residuals(rep):
    assert [c.name for c in rep.checks] == CHECKS
    return [c.residual for c in rep.checks]


@st.composite
def graphs(draw, n):
    """A graph on n vertices with any edge set, the empty one included."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return qg.ClassicalGraph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def classical_pairs(draw):
    ng = draw(st.integers(1, 6))
    nh = draw(st.integers(1, 36 // ng))
    return draw(graphs(ng)), draw(graphs(nh))


@FIXED
@given(classical_pairs(), st.sampled_from(qg.PRODUCT_KINDS),
       st.sampled_from(qg.PRODUCT_KINDS))
def test_classical_pairs_match_the_reference_bitwise(pair, kind, built):
    """The quantum side is the product of kind ``built``, checked against
    the classical product of kind ``kind``: equal kinds pass, and unequal
    ones fail in whichever direction their edge sets differ. The quantum
    algebra is D_N with no conjugator, so the cross-check forms no basis
    of it."""
    g, h = pair
    quantum = product(qg.from_classical(g), qg.from_classical(h), built)
    want = reference(g, h, kind, quantum)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qg.BlockAlgebra, "basis", refused_basis)
        got = residuals(classical_crosscheck(g, h, kind, quantum=quantum))
    assert got == want, (g, h, kind, built)
    if built == kind:
        assert got == [0.0, 0.0, 0.0]


def test_edgeless_factors_match_the_reference_bitwise():
    e1, e3, c5 = qg.ClassicalGraph(1, []), qg.ClassicalGraph(3, []), qg.cycle(5)
    for g, h in ((e1, e1), (e3, e3), (e3, c5), (c5, e3), (e1, c5)):
        for kind in qg.PRODUCT_KINDS:
            quantum = product(qg.from_classical(g), qg.from_classical(h), kind)
            rep = classical_crosscheck(g, h, kind, quantum=quantum)
            assert residuals(rep) == reference(g, h, kind, quantum) == [0.0] * 3


@pytest.mark.parametrize("g, h", [(qg.cycle(5), qg.path(3)), (qg.path(3), qg.cycle(4)),
                                  (qg.random_graph(6, 0.5, 7), qg.random_graph(6, 0.5, 8))])
def test_a_proper_subgraph_on_the_classical_side_fails(monkeypatch, g, h):
    """Quantum strong against classical cartesian: every classical edge
    unit lies in the quantum edge space, so only the direction quantum in
    C^U sees the strong edges that the cartesian product lacks."""
    quantum = product(qg.from_classical(g), qg.from_classical(h), "strong")
    cartesian = qg.from_classical(qg.classical_product(g, h, "cartesian"))
    assert quantum.S.max_residual(cartesian.S.basis) == 0.0
    assert cartesian.S.max_residual(quantum.S.basis) == 1.0
    real = products.classical_product
    monkeypatch.setattr(products, "classical_product",
                        lambda g, h, kind: real(g, h, "cartesian"))
    rep = classical_crosscheck(g, h, "strong", quantum=quantum)
    assert residuals(rep) == [1.0, 0.0, 1.0]
    assert [c.name for c in rep.failures()] == ["edge_space_match", "edge_space_dimension"]


def turned(graph, seed, eps=1e-11):
    """``graph`` with its edge basis mixed by a random unitary within its
    span, then conjugated, algebra included, by the Cayley transform of
    eps H, H a random Hermitian matrix: a unitary within about eps ||H||
    of the identity, which spreads every basis element over all cells."""
    rng = np.random.default_rng(seed)
    k, n = graph.S.dim, graph.n
    mix = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    mixed = qg.QuantumGraph(
        qg.OperatorSubspace(n, (mix @ graph.S._flat).reshape(k, n, n)), graph.M)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = eps * (a + a.conj().T)
    eye = np.eye(n)
    return qg.conjugate_graph(mixed, np.linalg.solve(eye - 1j * h, eye + 1j * h))


@pytest.mark.parametrize("seed", range(4))
def test_a_turned_quantum_side_takes_the_projection_route(seed):
    g, h = qg.cycle(5), qg.path(3)
    for kind in qg.PRODUCT_KINDS:
        quantum = turned(product(qg.from_classical(g), qg.from_classical(h), kind), seed)
        assert not quantum.S._coordinate and not quantum.M.basis()._coordinate
        got = residuals(classical_crosscheck(g, h, kind, quantum=quantum))
        want = reference(g, h, kind, quantum)
        assert np.allclose(got, want, rtol=0, atol=1e-12), (kind, got, want)
        assert 0 < max(got) <= 1e-9, (kind, got)
        for other in qg.PRODUCT_KINDS:
            if other == kind:
                continue
            rep = classical_crosscheck(g, h, other, quantum=quantum)
            assert np.allclose(residuals(rep), reference(g, h, other, quantum),
                               rtol=0, atol=1e-12), (kind, other)
            assert "edge_space_match" in [c.name for c in rep.failures()], (kind, other)


def test_the_unit_stack_of_the_projection_route_is_guarded(monkeypatch):
    """A quantum side that is not coordinate gets the stack of the 2m edge
    units of the classical side, 16 * 2m * N^2 bytes, after its guard."""
    g, h = qg.cycle(5), qg.path(3)
    quantum = turned(product(qg.from_classical(g), qg.from_classical(h), "strong"), 0)
    units = 2 * qg.classical_product(g, h, "strong").edge_count
    monkeypatch.setattr(qgraph, "DENSE_BYTES_LIMIT", 16 * units * 15 ** 2 - 1)
    with pytest.raises(qg.SizeGuardError, match="the %d matrix units" % units):
        classical_crosscheck(g, h, "strong", quantum=quantum)
    monkeypatch.setattr(qgraph, "DENSE_BYTES_LIMIT", 16 * units * 15 ** 2)
    assert classical_crosscheck(g, h, "strong", quantum=quantum).passed


def test_a_quantum_side_on_another_dimension_is_refused():
    g, h = qg.cycle(5), qg.path(3)
    quantum = product(qg.from_classical(g), qg.from_classical(g), "strong")
    with pytest.raises(ValueError, match="dimension 25, classical on 15"):
        classical_crosscheck(g, h, "strong", quantum=quantum)
