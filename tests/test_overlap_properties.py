"""The orthogonality check against the dense Gram with the commutant's basis.

``verify_quantum_graph`` reads orthogonal_to_commutant off T = W* S W in
the commutant's frame: the overlap of t_j with the unit (p, q) of a block
(m, d) at offset o is (1/sqrt m) sum_i t_j[o+id+p, o+id+q], and no basis of
the commutant is formed. The reference is max |Gram| of S's basis with that
basis. On generated algebras (1 to 3 blocks, with or without a Haar
conjugator) and edge spaces (random orthonormal families, matrix units,
the zero space) the two agree within 1e-12; when every commutant block has
one copy and there is no conjugator, as for D_n, each overlap is one entry
of T and they agree bitwise. A NaN or Inf anywhere in S gives NaN, as the
products with 0 in the Gram do (at n = 1, with no such product, the Gram
of an Inf is Inf). Hypothesis runs derandomized with a fixed
example count and no example database, so every run checks the same
inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs import BlockAlgebra, OperatorSubspace, QuantumGraph

from test_block_algebra_properties import algebras, block_lists

FIXED = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def gram_overlap(graph):
    """max |<s_j, a>| over S's basis and the commutant's basis, densely."""
    mp = graph.M.commutant().basis()
    return float(np.max(np.abs(graph.S._flat @ mp._flat.conj().T), initial=0.0))


def overlap(graph):
    rep = qg.verify_quantum_graph(graph)
    [check] = [c for c in rep.checks if c.name == "orthogonal_to_commutant"]
    return check.residual


@st.composite
def edge_spaces(draw, n):
    """A random orthonormal family, matrix units on random cells, or the
    zero space, of M_n."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(0, n * n))
    if draw(st.booleans()):
        x = rng.standard_normal((k, n * n)) + 1j * rng.standard_normal((k, n * n))
        return qg.orthonormalize(x.reshape(k, n, n), ambient_dim=n)
    flat = np.zeros((k, n * n), dtype=np.complex128)
    flat[np.arange(k), rng.choice(n * n, k, replace=False)] = 1.0
    return OperatorSubspace(n, flat.reshape(k, n, n))


@st.composite
def graphs(draw, m):
    return QuantumGraph(draw(edge_spaces(m.ambient_dim)), m)


@FIXED
@given(algebras(max_n=6).flatmap(graphs))
def test_overlap_matches_the_gram(graph):
    got, want = overlap(graph), gram_overlap(graph)
    assert abs(got - want) <= 1e-12, (graph, got, want)
    one_copy = all(m == 1 for m, _ in graph.M.commutant().blocks)
    if one_copy and graph.M.commutant().conjugator is None:
        assert got == want, (graph, got, want)


@st.composite
def scalar_block_algebras(draw):
    """Algebras with blocks (m, 1) and no conjugator: their commutants are
    sums of full matrix algebras, one copy each, D_n among them."""
    return BlockAlgebra([(m, 1) for m, _ in draw(block_lists(max_n=6))])


@FIXED
@given(scalar_block_algebras().flatmap(graphs))
def test_one_copy_commutants_match_the_gram_bitwise(graph):
    assert overlap(graph) == gram_overlap(graph)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_diagonal_algebras_match_the_gram_bitwise(n):
    rng = np.random.default_rng(n)
    for k in range(n * n + 1):
        x = rng.standard_normal((k, n * n)) + 1j * rng.standard_normal((k, n * n))
        s = qg.orthonormalize(x.reshape(k, n, n), ambient_dim=n)
        graph = QuantumGraph(s, BlockAlgebra.diagonal(n))
        assert overlap(graph) == gram_overlap(graph), (n, k)


@FIXED
@given(algebras(max_n=6), st.data())
def test_a_non_finite_entry_anywhere_gives_nan(m, data):
    n = m.ambient_dim
    s = data.draw(edge_spaces(n).filter(lambda s: s.dim > 0))
    basis = s.basis.copy()
    j = data.draw(st.integers(0, s.dim - 1))
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    basis[j, r, c] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    graph = QuantumGraph(OperatorSubspace(n, basis), m)
    with np.errstate(invalid="ignore", over="ignore"):
        # the Gram's products with 0 give NaN; at n = 1 there is none
        assert not np.isfinite(gram_overlap(graph))
        rep = qg.verify_quantum_graph(graph)
    check = rep.checks[[c.name for c in rep.checks].index("orthogonal_to_commutant")]
    assert np.isnan(check.residual) and not check.passed


def test_verify_forms_no_algebra_basis(monkeypatch, quantum_corpus):
    def refused(self):
        raise AssertionError("BlockAlgebra.basis called")

    graphs = [g for _, g in quantum_corpus]
    graphs.append(qg.products.product(graphs[-1], graphs[-2], "strong"))
    want = [gram_overlap(g) for g in graphs]
    monkeypatch.setattr(BlockAlgebra, "basis", refused)
    got = [overlap(g) for g in graphs]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
