"""The bimodule residual against the dense reference on sparse edge spaces.

``verify_quantum_graph`` multiplies only the basis elements whose moved row
or column slice has a nonzero entry. Here the algebra has no conjugator, so
the commutant's frame is a permutation of the standard one and every zero
of the edge basis stays exactly zero there. Edge spaces are spanned by
matrix units on random cells plus a few sparse non-units (two cells with a
random coefficient), all on disjoint cells, so the basis is orthonormal
as built and many residuals are nonzero on one side only. A NaN in the
basis, also one that a commutant unit moves off the support of S, must
give a NaN residual and a failed check. Hypothesis runs
derandomized with a fixed example count and no example database, so every
run checks the same inputs; fixed examples with commutant blocks of size
d > 1 take the coordinate route (S spanned by matrix units, no projector)
and the projection route (a two-cell element) whatever hypothesis draws.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantumgraphs import BlockAlgebra, OperatorSubspace, QuantumGraph

from test_bimodule_oracle import ATOL, assert_matches, bimodule_check, dense_bimodule
from test_block_algebra_properties import block_lists

FIXED = settings(max_examples=120, derandomize=True, database=None, deadline=None)

COEFFS = [1.0, -1.0, 2.0, 1j, 0.5 - 1.5j]


@st.composite
def sparse_spaces(draw, m):
    """An orthonormal stack of matrix units and up to two normalized
    two-cell combinations, on disjoint cells of an n x n matrix. The unit
    cells may be closed under the commutant on one side, which leaves the
    residual on that side zero and on the other side most likely not."""
    n = m.ambient_dim
    # linked[x, y]: some commutant unit has a nonzero entry at (x, y)
    linked = (m.commutant().basis().basis != 0).any(axis=0)
    cells = draw(st.lists(st.integers(0, n * n - 1), unique=True,
                          max_size=min(n * n, 8)))
    side = draw(st.sampled_from([None, "left", "right"]))
    if side == "left":
        cells = {a * n + c % n for c in cells for a in np.flatnonzero(linked[:, c // n])}
    elif side == "right":
        cells = {c - c % n + b for c in cells for b in np.flatnonzero(linked[c % n])}
    free = sorted(set(range(n * n)) - set(cells))
    spare = draw(st.lists(st.sampled_from(free), unique=True, max_size=4)) if free else []
    mats = np.zeros((len(cells) + len(spare) // 2, n * n), dtype=np.complex128)
    mats[np.arange(len(cells)), sorted(cells)] = 1.0
    for j, (x, y) in enumerate(zip(spare[::2], spare[1::2]), start=len(cells)):
        c = draw(st.sampled_from(COEFFS))
        mats[j, [x, y]] = np.array([1.0, c]) / np.sqrt(1.0 + abs(c) ** 2)
    return OperatorSubspace(n, mats.reshape(-1, n, n))


@st.composite
def sparse_graphs(draw):
    # blocks with n_r > 1 give the commutant blocks of size above one, and
    # blocks with k_r > 1 give it multiplicities above one
    m = BlockAlgebra(draw(block_lists(max_n=6)))
    return QuantumGraph(draw(sparse_spaces(m)), m)


def is_permutation(w):
    return w is None or (np.isin(w, (0.0, 1.0)).all() and (w.sum(axis=0) == 1).all())


def _fixed(blocks, cells, two_cell=()):
    """Matrix units on ``cells``, plus one element on ``two_cell``, over
    the algebra of ``blocks``."""
    m = BlockAlgebra(blocks)
    n = m.ambient_dim
    mats = np.zeros((len(cells) + bool(two_cell), n * n), dtype=np.complex128)
    mats[np.arange(len(cells)), cells] = 1.0
    if two_cell:
        mats[-1, list(two_cell)] = np.array([1.0, 1j]) / np.sqrt(2)
    return QuantumGraph(OperatorSubspace(n, mats.reshape(-1, n, n)), m)


# the commutant of I_2 is M_2, one block with d = 2 and no conjugator;
# that of I_2 (x) M_2 is M_2 (x) I_2, d = 2 with a permutation conjugator
COORDINATE = [_fixed([(2, 1)], [0]), _fixed([(2, 2)], [0, 5, 6, 9]),
              _fixed([(2, 2), (1, 1)], [0, 2, 8, 20, 24])]
TWO_CELL = [_fixed([(2, 1)], [3], two_cell=(0, 1)),
            _fixed([(2, 2)], [0, 5], two_cell=(6, 9))]


def test_the_fixed_examples_take_both_routes():
    assert all(g.S._coordinate for g in COORDINATE)
    assert not any(g.S._coordinate for g in TWO_CELL)


@FIXED
@given(sparse_graphs())
@example(COORDINATE[0])
@example(COORDINATE[1])
@example(COORDINATE[2])
@example(TWO_CELL[0])
@example(TWO_CELL[1])
def test_sparse_residual_matches_dense(g):
    """S and S* each match the dense residual. Left residuals of S* are the
    right residuals of S and the other way round, as a s_j* = (s_j a*)*
    with a* again a commutant unit, so the two residuals agree."""
    assert is_permutation(g.M.commutant().conjugator)
    star = QuantumGraph(OperatorSubspace(g.n, np.conj(np.swapaxes(g.S.basis, 1, 2))),
                        g.M)
    assert_matches(g)
    assert_matches(star)
    assert abs(bimodule_check(star).residual - dense_bimodule(g)) <= ATOL


@FIXED
@given(sparse_graphs(), st.integers(0, 10 ** 6))
def test_a_nan_in_the_edge_space_fails(g, where):
    """A NaN anywhere in S's basis puts its coordinate on U and the slices
    holding it live, so the residual is NaN and the check fails."""
    if g.S.dim == 0:
        return
    basis = g.S.basis.copy()
    basis.reshape(-1)[where % basis.size] = np.nan
    check = bimodule_check(QuantumGraph(OperatorSubspace(g.n, basis), g.M))
    assert np.isnan(check.residual) and not check.passed


@pytest.mark.parametrize("blocks", [[(2, 1)], [(3, 1)], [(2, 2)], [(2, 1), (1, 1)]])
def test_a_nan_moved_off_the_support_fails(blocks):
    """S is spanned by E_00 + NaN E_01. A commutant unit of a block of size
    d > 1 moves row 0 of it to another row, where every entry is off U; the
    residual must still be NaN."""
    m = BlockAlgebra(blocks)
    assert max(d for _, d in m.commutant().blocks) > 1
    basis = np.zeros((1, m.ambient_dim, m.ambient_dim), dtype=np.complex128)
    basis[0, 0, :2] = 1.0, np.nan
    check = bimodule_check(QuantumGraph(OperatorSubspace(m.ambient_dim, basis), m))
    assert np.isnan(check.residual) and not check.passed
