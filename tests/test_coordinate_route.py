"""Which route the residuals take: coordinate edge spaces project by masking.

A subspace is coordinate when its dimension k equals the number u of
coordinates where its basis is nonzero and every basis entry is finite. It
is then all of C^U, U its support, so ``max_residual`` and the bimodule
check mask onto U with no projection matmul. Classical embeddings, every
product of them and the diagonal algebra bases are coordinate; Haar-conjugated
graphs, spaces with a two-cell element and bases with a NaN are not, and
keep the projection. On classical products every residual of
``verify_quantum_graph`` and ``classical_crosscheck`` is exactly 0.0, as on
the projection route, whose matrix-unit products are exact.
"""

import itertools

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import BlockAlgebra, OperatorSubspace
from quantumgraphs.opspace import adjoint
from quantumgraphs.products import classical_crosscheck, product
from quantumgraphs.qgraph import _adjoint_residual


@pytest.fixture(scope="module")
def classical_products(classical_corpus):
    """(g, h, kind, product) for every ordered pair of corpus graphs."""
    embedded = {name: qg.from_classical(g) for name, g in classical_corpus.items()}
    return [(g, h, kind, product(embedded[g], embedded[h], kind))
            for g, h in itertools.product(embedded, repeat=2)
            for kind in qg.PRODUCT_KINDS]


def test_classical_embeddings_and_diagonal_bases_are_coordinate(quantum_corpus):
    for name, g in quantum_corpus:
        assert g.S._coordinate == (not name.startswith("KQ")), name
    for n in range(1, 7):
        assert BlockAlgebra.diagonal(n).basis()._coordinate
        assert BlockAlgebra.diagonal(n).commutant().basis()._coordinate
    assert OperatorSubspace.zero(3)._coordinate and OperatorSubspace.full(3)._coordinate


def test_products_of_classical_graphs_are_coordinate(classical_products):
    for g, h, kind, p in classical_products:
        assert p.S._coordinate, (g, h, kind)
        assert p.M.basis()._coordinate, (g, h, kind)


def test_two_cell_conjugated_and_nan_spaces_are_not_coordinate(haar):
    # one element on two cells: k = 1 < u = 2
    two_cell = np.zeros((1, 2, 2))
    two_cell[0, 0] = 1.0, 1.0
    assert not OperatorSubspace(2, two_cell / np.sqrt(2))._coordinate
    c5 = qg.from_classical(qg.cycle(5))
    assert not qg.conjugate_graph(c5, haar(5, 1)).S._coordinate
    # a NaN in place of a unit's entry keeps k == u
    units = c5.S.basis.copy()
    units[units != 0] = np.where(np.arange(c5.S.dim) == 3, np.nan, 1.0)
    broken = OperatorSubspace(5, units)
    assert broken.dim == np.count_nonzero(units.any(axis=0))
    assert not broken._coordinate


def test_classical_products_verify_and_cross_check_to_exactly_zero(
        classical_corpus, classical_products):
    for g, h, kind, p in classical_products:
        reports = (qg.verify_quantum_graph(p),
                   classical_crosscheck(classical_corpus[g], classical_corpus[h],
                                        kind, quantum=p))
        for rep in reports:
            assert [c.residual for c in rep.checks] == [0.0] * len(rep.checks), \
                (g, h, kind, str(rep))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_products_refuse_a_non_finite_factor(bad):
    """A factor with a non-finite basis entry is refused by orthonormalize
    with ValueError, before any SVD."""
    k2 = qg.from_classical(qg.complete(2))
    basis = k2.S.basis.copy()
    basis[0, 0, 1] = bad
    broken = qg.QuantumGraph(OperatorSubspace(2, basis), k2.M)
    for kind in qg.PRODUCT_KINDS:
        # the Kronecker write multiplies the Inf by zeros on the way
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="not a finite number"):
            product(broken, k2, kind)


def test_adjoint_route_matches_max_residual_bitwise_on_coordinate_spaces():
    """On a coordinate S the adjoint check reads S at the transposes of the
    coordinates off its support, and returns 0.0 with no gather when the
    support is symmetric; on k = u orthonormal rows mixed by a random
    unitary over random supports, a third of them symmetric, adjoint-closed
    or not, it gives S.max_residual(S*) bitwise."""
    rng = np.random.default_rng(5)
    nonzero = symmetric = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        u = int(rng.integers(1, n * n + 1))
        cells = rng.choice(n * n, u, replace=False)
        if rng.random() < 1 / 3:
            cells = np.union1d(cells, cells % n * n + cells // n)
            u = len(cells)
            symmetric += 1
        mix = np.linalg.qr(rng.standard_normal((u, u))
                           + 1j * rng.standard_normal((u, u)))[0]
        flat = np.zeros((u, n * n), dtype=complex)
        flat[:, cells] = mix if rng.random() < 0.7 else np.eye(u)
        s = OperatorSubspace(n, flat.reshape(u, n, n))
        assert s._coordinate
        got = _adjoint_residual(s)
        assert got == s.max_residual(adjoint(s.basis)), (n, u)
        nonzero += got > 0
    assert nonzero > 100 and symmetric > 80
