"""The adjoint and bimodule checks through one complement factor.

``verify_quantum_graph`` forms, for a finite S that is not coordinate in
the commutant's frame, one factor C with C C* = I - F* F, F the flattened
basis of T = W* S W on its support U (u positions, k = dim S): an
orthonormal basis G of the complement (r = u - k columns) when 4 r <= u,
from a fixed-seed sketch certified afterwards or else from an SVD, and the
projector I - F* F itself otherwise. Both checks multiply by C. The
reference is the route that always multiplies by the projector: the
adjoint check as ``S.max_residual(S*)`` and the bimodule check with the
projector put in place of the factor. On generated (S, M) pairs (r = 0,
small and large r, with and without a Haar conjugator, exact and perturbed
by 1e-11 and 1e-7) and on products of the quantum and classical factors of
the product benchmark, every verdict must be the reference's and both
residuals within 1e-12 of it.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import BlockAlgebra, OperatorSubspace, QuantumGraph, qgraph
from quantumgraphs.opspace import ORTHONORMAL_TOL, adjoint, orthonormalize
from quantumgraphs.products import product
from quantumgraphs.qgraph import _bimodule_residual, _complement_factor, _frame

ATOL = 1e-12


def haar(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector_route(graph):
    """[adjoint_closed, bimodule] with I - F* F in place of the factor."""
    s, commutant = graph.S, graph.M.commutant()
    frame = _frame(s, commutant)
    if frame.factor is not None:
        f = frame.t.reshape(s.dim, -1)[:, frame.on]
        frame = frame._replace(factor=np.eye(f.shape[1]) - f.conj().T @ f)
    return [s.max_residual(adjoint(s.basis)), _bimodule_residual(s, commutant, frame)]


def assert_matches(graph):
    """The report agrees with the projector route: the verdict of every
    check, the two residuals within ATOL; returns the report."""
    rep = qg.verify_quantum_graph(graph)
    want = projector_route(graph)
    got = [c.residual for c in rep.checks[:2]]
    assert [c.name for c in rep.checks[:2]] == ["adjoint_closed", "bimodule"]
    for name, g, w in zip(["adjoint_closed", "bimodule"], got, want):
        assert abs(g - w) <= ATOL, (graph, name, g, w)
    assert [c.passed for c in rep.checks[:2]] == [w <= c.tol for w, c in zip(want, rep.checks)]
    return rep


def complement_width(graph):
    """u - k in the commutant's frame, and the factor's width (None when T
    is coordinate)."""
    frame = _frame(graph.S, graph.M.commutant())
    u = graph.n ** 2 - len(frame.outside)
    return u, u - graph.S.dim, None if frame.factor is None else frame.factor.shape[1]


def random_algebra(rng):
    blocks, room = [], 6
    for _ in range(int(rng.integers(1, 4))):
        if room == 0:
            break
        mult = int(rng.integers(1, room + 1))
        size = int(rng.integers(1, room // mult + 1))
        blocks.append((mult, size))
        room -= mult * size
    n = sum(m * d for m, d in blocks)
    return BlockAlgebra(blocks, haar(n, int(rng.integers(2 ** 16))) if rng.random() < 0.5
                        else None)


def random_space(rng, m):
    """The complete graph over ``m`` with 0 to 2 directions dropped, matrix
    units on random cells mixed within their span (coordinate), or a
    random family on random cells, whose support need not be symmetric,
    half the time of at least 3/4 as many elements as cells."""
    n = m.ambient_dim
    kind = rng.choice(["complete", "units", "family"])
    if kind == "complete":
        flat = qg.complete_quantum_graph(m).S._flat
        mix = haar(len(flat), int(rng.integers(2 ** 16)))
        flat = (mix @ flat)[:max(0, len(flat) - int(rng.integers(0, 3)))]
    else:
        cells = rng.choice(n * n, int(rng.integers(1, n * n + 1)), replace=False)
        least = 1 if kind == "family" and rng.random() < 0.5 else -(-3 * len(cells) // 4)
        k = len(cells) if kind == "units" else int(rng.integers(least, len(cells) + 1))
        flat = np.zeros((k, n * n), dtype=complex)
        flat[:, cells] = (haar(k, int(rng.integers(2 ** 16))) if kind == "units"
                          else rng.standard_normal((k, len(cells)))
                          + 1j * rng.standard_normal((k, len(cells))))
        if kind == "family":
            return orthonormalize(flat.reshape(k, n, n), ambient_dim=n)
    return OperatorSubspace(n, flat.reshape(-1, n, n))


def perturbed(s, eps, rng):
    noise = rng.standard_normal(s.basis.shape) + 1j * rng.standard_normal(s.basis.shape)
    return orthonormalize(s.basis + eps * noise, ambient_dim=s.ambient_dim)


def test_generated_graphs_match_the_projector_route():
    rng = np.random.default_rng(30)
    routes = dict.fromkeys(["coordinate", "sketch", "projector"], 0)
    conjugated = failed = sparse_sketch = 0
    for i in range(480):
        m = random_algebra(rng)
        s = random_space(rng, m)
        eps = (0.0, 1e-11, 1e-7)[i % 3]
        if eps and s.dim:
            s = perturbed(s, eps, rng)
        graph = QuantumGraph(s, m)
        u, r, width = complement_width(graph)
        route = ("coordinate" if width is None else
                 "sketch" if 0 < 4 * r <= u else "projector")
        assert width in {"coordinate": (None,), "sketch": (r,), "projector": (u,)}[route]
        routes[route] += 1
        conjugated += graph.M.commutant().conjugator is not None
        rep = assert_matches(graph)
        failed += not rep.passed
        # the adjoint of a sketched T with a support off U of its own
        sparse_sketch += route == "sketch" and u < graph.n ** 2 and rep.checks[0].residual > 0
    assert min(routes.values()) >= 40 and conjugated >= 120 and failed >= 100, \
        (routes, conjugated, failed)
    assert sparse_sketch >= 10, sparse_sketch


FACTORS = {
    "Q2": lambda: qg.conjugate_graph(qg.complete_quantum_graph(BlockAlgebra([(1, 2)])),
                                     haar(2, 1)),
    "Q4": lambda: qg.conjugate_graph(qg.complete_quantum_graph(BlockAlgebra([(2, 2)])),
                                     haar(4, 2)),
    "K2": lambda: qg.from_classical(qg.complete(2)),
    "C4": lambda: qg.from_classical(qg.cycle(4)),
    "C5": lambda: qg.from_classical(qg.cycle(5)),
    "R4": lambda: qg.from_classical(qg.random_graph(4, 0.5, 3)),
}


@pytest.fixture(scope="module")
def factors():
    return {name: build() for name, build in FACTORS.items()}


PAIRS = [(a, b) for a, b in itertools.product(FACTORS, repeat=2)
         if a.startswith("Q") or b.startswith("Q")]


@pytest.mark.parametrize("kind", qg.PRODUCT_KINDS)
def test_benchmark_shaped_products_match_the_projector_route(factors, kind):
    """Every product of Q2 or Q4 with K2, C4, C5, R4 or each other passes,
    as the reference does; the strong product of Q4 with itself takes the
    sketch (r = 16 of u = 256)."""
    for a, b in PAIRS:
        p = product(factors[a], factors[b], kind)
        assert assert_matches(p).passed, (a, b, kind)
    if kind == "strong":
        assert complement_width(product(factors["Q4"], factors["Q4"], kind)) == (256, 16, 16)


def rank_deficient(how):
    def sketch(u, r):
        calls.append((u, r))
        if how == "zeros":
            return np.zeros((u, r), dtype=complex)
        column = np.random.default_rng(1).standard_normal((u, 1))
        return np.repeat(column, r, axis=1).astype(complex)
    calls = []
    return sketch, calls


@pytest.mark.parametrize("how", ["zeros", "one-column"])
def test_a_rank_deficient_sketch_falls_back_to_the_svd(monkeypatch, factors, how):
    """With the sketch patched to a rank-deficient matrix its QR has
    columns off the kernel of F, the certificate refuses it, and the SVD's
    last r right singular vectors give the same residuals."""
    graphs = [product(factors[a], factors[b], kind)
              for a, b in [("Q4", "Q4"), ("Q4", "C5"), ("C5", "Q4"), ("Q2", "Q2")]
              for kind in qg.PRODUCT_KINDS]
    rng = np.random.default_rng(31)
    graphs += [QuantumGraph(perturbed(g.S, 1e-7, rng), g.M) for g in graphs[:8]]
    sketch, calls = rank_deficient(how)
    monkeypatch.setattr(qgraph, "_sketch", sketch)
    svd, svds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a: svds.append(a.shape) or svd(a))
    for g in graphs:
        assert_matches(g)
    # a one-column sketch of width r = 1 has full rank and is kept
    refused = [(u, r) for u, r in calls if how == "zeros" or r >= 2]
    assert len(refused) >= 10 and [u for _, u in svds] == [u for u, _ in refused], (calls, svds)
    strong = graphs[3]
    frame = _frame(strong.S, strong.M.commutant())
    f = frame.t.reshape(strong.S.dim, -1)[:, frame.on]
    g = _complement_factor(f)
    assert g.shape == (256, 16)
    assert np.max(np.abs(f @ g)) <= ORTHONORMAL_TOL
    assert np.max(np.abs(g.conj().T @ g - np.eye(16))) <= ORTHONORMAL_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_a_non_finite_entry_gives_nan_and_forms_no_factor(monkeypatch, factors, bad):
    def refused(fu):
        raise AssertionError("complement factor formed")

    rng = np.random.default_rng(32)
    graphs = [product(factors["Q4"], factors["Q4"], "strong"),
              product(factors["Q2"], factors["C5"], "cartesian"),
              product(factors["C4"], factors["K2"], "strong")]
    monkeypatch.setattr(qgraph, "_complement_factor", refused)
    for g in graphs:
        basis = g.S.basis.copy()
        basis[int(rng.integers(g.S.dim)), int(rng.integers(g.n)), int(rng.integers(g.n))] = bad
        broken = QuantumGraph(OperatorSubspace(g.n, basis), g.M)
        with np.errstate(invalid="ignore", over="ignore"):
            rep = qg.verify_quantum_graph(broken)
        assert all(np.isnan(c.residual) and not c.passed for c in rep.checks[:2]), rep


def test_strong_q4_q4_verify_peaks_below_the_projector_route(factors):
    """With the 256 x 256 projector in both checks the verify of strong
    Q4 x Q4 peaked at 5.06 MiB under tracemalloc; the 256 x 16 factor and
    the adjoint read through it peak at about 3.9 MiB."""
    p = product(factors["Q4"], factors["Q4"], "strong")
    qg.verify_quantum_graph(p)
    tracemalloc.start()
    try:
        assert qg.verify_quantum_graph(p).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak
