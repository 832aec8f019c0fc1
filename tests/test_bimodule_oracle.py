"""The bimodule residual against a dense reference.

``dense_bimodule`` is the check written the direct way: every product a s_j
and s_j a of a commutant basis unit a with an edge-space basis element s_j is
formed in one stack and projected onto S. ``verify_quantum_graph`` works from
row and column slices in the commutant's frame instead and must report the
same residual within 1e-12 absolute, NaN for NaN.
"""

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import BlockAlgebra, OperatorSubspace, QuantumGraph
from quantumgraphs.opspace import DEFAULT_TOL, orthonormalize
from quantumgraphs.products import product

ATOL = 1e-12


def dense_bimodule(g) -> float:
    s = g.S
    mp = g.M.commutant().basis()
    left = s.max_residual(mp.basis[:, None] @ s.basis)
    right = s.max_residual(s.basis @ mp.basis[:, None])
    return float(np.max([left, right]))


def bimodule_check(g):
    rep = qg.verify_quantum_graph(g)
    assert [c.name for c in rep.checks] == [
        "adjoint_closed", "bimodule", "orthogonal_to_commutant"]
    return rep.checks[1]


def assert_matches(g):
    """The package's residual equals the dense one; returns the verdict."""
    check = bimodule_check(g)
    want = dense_bimodule(g)
    if np.isnan(want):
        assert np.isnan(check.residual)
    else:
        assert abs(check.residual - want) <= ATOL, (check.residual, want)
    assert check.tol == DEFAULT_TOL
    assert check.passed == (want <= DEFAULT_TOL)
    return check.passed


def unitary(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# the graph names of the ``quantum_corpus`` fixture (conftest.py)
NAMES = ["K1", "K2", "K3", "P3", "C4", "C5", "KQ_M2", "KQ_I2xM2"]

# algebras whose commutant has a block of multiplicity above one; the last
# three give commutants with runs of equal blocks, (2, 2) twice, (1, 1)
# twice and (2, 1) twice, which the check batches
MULTI_BLOCK = [[(2, 2), (1, 3)], [(1, 2), (3, 1)], [(2, 1), (1, 2)], [(1, 3)],
               [(2, 2), (2, 2), (1, 3)], [(1, 1), (1, 1), (1, 2)],
               [(1, 2), (1, 2), (1, 1)]]


def multi_block(blocks, seed):
    m = BlockAlgebra(blocks)
    return qg.conjugate_graph(qg.complete_quantum_graph(m), unitary(m.ambient_dim, seed))


def perturbed(g, eps, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g.S.basis.shape) + 1j * rng.standard_normal(g.S.basis.shape)
    return QuantumGraph(orthonormalize(g.S.basis + eps * noise), g.M)


@pytest.mark.parametrize("left", NAMES)
@pytest.mark.parametrize("kind", qg.PRODUCT_KINDS)
def test_corpus_products_match(quantum_corpus, left, kind):
    g = dict(quantum_corpus)[left]
    for _, h in quantum_corpus:
        assert assert_matches(product(g, h, kind))


@pytest.mark.parametrize("left", NAMES)
def test_conjugated_corpus_products_match(quantum_corpus, left):
    """Every corpus pair once, the kind rotating with the pair, after a
    Haar unitary conjugation (all 256 conjugated products would double the
    dense reference's time and add no other case)."""
    i = NAMES.index(left)
    g = dict(quantum_corpus)[left]
    for j, (_, h) in enumerate(quantum_corpus):
        p = product(g, h, qg.PRODUCT_KINDS[(i + j) % 4])
        assert assert_matches(qg.conjugate_graph(p, unitary(p.n, 100 + 8 * i + j)))


@pytest.mark.parametrize("blocks", MULTI_BLOCK, ids=str)
def test_multi_block_algebras_match(quantum_corpus, blocks):
    g = multi_block(blocks, 7)
    assert max(m for m, _ in g.M.commutant().blocks) > 1
    assert assert_matches(g)
    # products with a classical and a noncommutative factor, conjugated
    for h in (dict(quantum_corpus)["K2"], dict(quantum_corpus)["KQ_M2"]):
        for kind in ("cartesian", "lexicographic"):
            p = product(g, h, kind)
            assert assert_matches(qg.conjugate_graph(p, unitary(p.n, 8)))


@pytest.mark.parametrize("blocks", [[(1, 1)] * 3, [(3, 1)]] + MULTI_BLOCK,
                         ids=str)
def test_zero_and_complete_edge_spaces_match(blocks):
    m = BlockAlgebra(blocks).conjugated_by(unitary(BlockAlgebra(blocks).ambient_dim, 3))
    assert assert_matches(QuantumGraph(OperatorSubspace.zero(m.ambient_dim), m))
    assert bimodule_check(QuantumGraph(OperatorSubspace.zero(m.ambient_dim), m)).residual == 0.0
    assert assert_matches(qg.complete_quantum_graph(m))


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11])
def test_perturbed_edge_spaces_match(quantum_corpus, eps):
    corpus = dict(quantum_corpus)
    # every subspace is a bimodule over the scalars, so MULTI_BLOCK[3]
    # (M = M_3) cannot fail and is left out here
    graphs = [multi_block(b, 11) for b in MULTI_BLOCK[:3] + MULTI_BLOCK[4:]]
    graphs += [product(corpus["C4"], corpus["KQ_I2xM2"], "strong"),
               product(corpus["P3"], corpus["KQ_M2"], "cartesian"),
               qg.conjugate_graph(product(corpus["P3"], corpus["K2"], "lexicographic"),
                                  unitary(6, 12))]
    verdicts = [assert_matches(perturbed(g, eps, seed)) for seed, g in enumerate(graphs)]
    if eps == 1e-6:
        assert not any(verdicts)
    if eps == 1e-11:
        assert all(verdicts)


def test_one_sided_failures_match(quantum_corpus):
    """span{X} fails only on the right and span{X*} only on the left; and a
    sparse failure in a run of blocks with unequal live-slice counts."""
    x = np.zeros((3, 3), complex)
    x[0, 1] = x[0, 2] = 1.0
    d3 = BlockAlgebra.diagonal(3)
    for mats in ([x], [x.conj().T]):
        g = QuantumGraph(orthonormalize(mats), d3)
        assert not assert_matches(g)
        # x = s E_11 = E_01 / sqrt 2 lies at distance 1/2 from span{s}
        assert bimodule_check(g).residual == pytest.approx(0.5, abs=ATOL)
        assert assert_matches(qg.conjugate_graph(g, unitary(3, 4))) is False
    # P3 x KQ_M2: commutant blocks (2, 1) three times, with 4, 5 and 4 live
    # slices per side; mixing a block-0 element with a block-2 one breaks
    # left and right closure while the basis stays sparse
    corpus = dict(quantum_corpus)
    p = product(corpus["P3"], corpus["KQ_M2"], "cartesian")
    mixed = (p.S.basis[0] + p.S.basis[3]) / np.sqrt(2)
    g = QuantumGraph(OperatorSubspace(p.n, np.concatenate(
        [mixed[None], p.S.basis[1:3], p.S.basis[4:]])), p.M)
    assert not assert_matches(g)


def test_nan_in_the_edge_space_fails_without_raising(quantum_corpus):
    corpus = dict(quantum_corpus)
    for g in (corpus["C5"], multi_block([(2, 2), (1, 3)], 5),
              multi_block([(2, 2), (2, 2), (1, 3)], 5),
              product(corpus["P3"], corpus["KQ_M2"], "cartesian")):
        basis = g.S.basis.copy()
        basis[0, 0, 1] = np.nan
        bad = QuantumGraph(OperatorSubspace(g.n, basis), g.M)
        check = bimodule_check(bad)
        assert np.isnan(check.residual) and not check.passed
        assert not qg.verify_quantum_graph(bad).passed
        assert_matches(bad)
