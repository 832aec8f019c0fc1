"""Properties of the two verification routes that work in a certificate's
own structure.

``BlockAlgebra.max_residual`` takes membership from the conditional
expectation; it must agree with the projection onto the algebra's HS basis
on members and non-members of Haar-conjugated multi-block algebras, and
their tensor products with a full ancilla algebra, to within 1e-12
relative or 1e-14 absolute, NaN for NaN. ``coloring._ranges`` and
``coloring._range_sandwich`` take ||P (X (x) I_d) Q|| from each operator's
range, with X on the graph leg, dropping the singular values at or below
RANK_CUTOFF * max(1, s_max); on near-projections, self-adjoint or not,
with singular values on both sides of the cutoff and ancillas d = 1..3,
the reported value must lie between the dense ||P (X (x) I_d) Q|| and it
plus the documented bound, up to rounding. Hypothesis runs
derandomized with a fixed example count and no example database, so every
run checks the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantumgraphs import coloring
from quantumgraphs.opspace import RANK_CUTOFF
from quantumgraphs.qgraph import BlockAlgebra

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)
RTOL, ATOL = 1e-12, 1e-14


def haar(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def randc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_close(got, want):
    assert np.isnan(got) == np.isnan(want), (got, want)
    if not np.isnan(want):
        assert abs(got - want) <= max(ATOL, RTOL * max(got, want)), (got, want)


@st.composite
def algebras(draw):
    """Up to three blocks (n_r, k_r) with repeats, so that runs of equal
    blocks occur, optionally conjugated by a seeded Haar unitary and
    tensored with a full ancilla algebra."""
    blocks = draw(st.lists(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                            (1, 3)]), min_size=1, max_size=3))
    alg = BlockAlgebra(blocks)
    if draw(st.booleans()):
        alg = alg.conjugated_by(haar(alg.ambient_dim, draw(st.integers(0, 2 ** 16))))
    d = draw(st.integers(1, 2))
    return alg.tensor(BlockAlgebra.full(d)) if d > 1 else alg


@given(algebras(), st.integers(0, 2 ** 16),
       st.sampled_from(["member", "non-member", "near", "scaled", "nan"]))
@FIXED
def test_membership_matches_the_basis_route(alg, seed, kind):
    rng = np.random.default_rng(seed)
    basis = alg.basis()
    n = alg.ambient_dim
    member = np.tensordot(randc(rng, 3, basis.dim), basis.basis, 1)
    stack = {"member": member,
             "non-member": randc(rng, 3, n, n),
             "near": member + 1e-7 * randc(rng, 3, n, n),
             "scaled": 1e-3 * randc(rng, 2, 1, n, n),
             "nan": member}[kind]
    if kind == "nan":
        stack[1, rng.integers(n), rng.integers(n)] = np.nan
    before = stack.copy()
    with np.errstate(invalid="ignore"):
        got, want = alg.max_residual(stack), basis.max_residual(stack)
    assert_close(got, want)
    if kind == "member":
        assert got <= 1e-13
    elif kind == "non-member" and basis.dim < n * n:
        assert got > 1e-3
    assert np.array_equal(stack, before, equal_nan=True)


@pytest.mark.parametrize("blocks", [[(1, 1)] * 3, [(1, 3)], [(2, 1), (1, 1)]])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_entry_on_a_one_copy_block_gives_nan(blocks, bad):
    """The copies are zeroed by a product with 0, which keeps a NaN or Inf
    that lies on a block with one copy, where no deviation carries it."""
    alg = BlockAlgebra(blocks)
    x = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
    x[1, 2, 2] = bad
    with np.errstate(invalid="ignore"):
        assert np.isnan(alg.max_residual(x))
        assert np.isnan(alg.basis().max_residual(x))


def test_membership_of_an_empty_or_misshapen_stack():
    alg = BlockAlgebra([(2, 1), (1, 2)])
    assert alg.max_residual(np.zeros((0, 4, 4))) == 0.0
    with pytest.raises(ValueError, match="does not end in"):
        alg.max_residual(np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------------
# ranges

def near_projections(rng, count, n, eps, hermitian):
    """Projections of random ranks plus eps times noise, made self-adjoint
    or not; one of them is instead U diag(1, .., 1, 1e-9, 1e-12, 0) V*
    with U != V, whose singular values straddle the cutoff."""
    out = []
    for _ in range(count):
        v = np.linalg.qr(randc(rng, n, n))[0][:, :rng.integers(0, n + 1)]
        p = v @ v.conj().T + eps * randc(rng, n, n)
        out.append((p + p.conj().T) / 2 if hermitian else p)
    if n >= 3:
        sv = np.ones(n)
        sv[-3:] = (1e-9, 1e-12, 0.0)
        out[0] = haar(n, int(rng.integers(2 ** 16))) * sv @ haar(n, int(rng.integers(2 ** 16)))
    return np.array(out)


def dropped(p):
    """(s_max, largest dropped singular value) of each matrix, from numpy's
    SVD and the documented cutoff."""
    s = np.linalg.svd(p, compute_uv=False)
    top = s[:, 0]
    lost = np.where(s > RANK_CUTOFF * np.maximum(1.0, top[:, None]), 0.0, s)
    return top, lost.max(axis=1)


def hs(x):
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=(-2, -1)))


def sandwich(p, pairs, x):
    """The range sandwich of p over the index pairs (s, t), given as a
    boolean mask, with the graph-leg stack x."""
    return coloring._range_sandwich(coloring._ranges(p), pairs, x)


def assert_within(reported, dense, bound):
    slack = 1e-14 * max(1.0, dense)
    assert dense - slack <= reported <= dense + bound + slack, (dense, reported, bound)


@given(st.integers(0, 2 ** 16), st.integers(1, 6), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from([1e-6, 1e-9, 1e-12]), st.booleans())
@FIXED
def test_range_sandwich_lies_between_dense_and_its_bound(seed, n, d, count, eps,
                                                         hermitian):
    rng = np.random.default_rng(seed)
    p = near_projections(rng, count, n * d, eps, hermitian)
    x = randc(rng, 3, n, n) / n
    y = np.kron(x, np.eye(d))
    top, lost = dropped(p)
    dense = np.max(hs(p[:, None] @ y @ p[:, None]))
    bound = np.max(2 * (top * lost)[:, None] * hs(y))
    assert_within(sandwich(p, np.eye(count, dtype=bool), x), dense, bound)


@given(st.integers(0, 2 ** 16), st.integers(1, 6), st.integers(1, 3), st.integers(2, 4),
       st.sampled_from([1e-6, 1e-9, 1e-12]), st.booleans())
@FIXED
def test_range_pairs_lie_between_dense_and_their_bound(seed, n, d, count, eps,
                                                       hermitian):
    """Orthogonality is the sandwich of I_n, whose lift I_N has HS norm
    sqrt(N)."""
    rng = np.random.default_rng(seed)
    q = near_projections(rng, count, n * d, eps, hermitian)
    x = randc(rng, 2, n, n) / n
    y = np.kron(x, np.eye(d))
    top, lost = dropped(q)
    later = ~np.tri(count, dtype=bool)
    s, t = np.nonzero(later)
    pair = lost[s] * top[t] + top[s] * lost[t]
    assert_within(sandwich(q, later, np.eye(n)[None]), np.max(hs(q[s] @ q[t])),
                  np.max(pair) * np.sqrt(n * d))
    others = ~np.eye(count, dtype=bool)
    s, t = np.nonzero(others)
    pair = lost[s] * top[t] + top[s] * lost[t]
    assert_within(sandwich(q, others, x), np.max(hs(q[s][:, None] @ y @ q[t][:, None])),
                  np.max(pair[:, None] * hs(y)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_operator_gives_nan(bad):
    rng = np.random.default_rng(5)
    p = near_projections(rng, 3, 4, 0.0, True)
    p[1, 2, 0] = bad
    x = randc(rng, 2, 4, 4)
    assert np.isnan(sandwich(p, np.eye(3, dtype=bool), x))
    assert np.isnan(sandwich(p, ~np.tri(3, dtype=bool), np.eye(4)[None]))
    assert np.isnan(sandwich(p, ~np.eye(3, dtype=bool), x))
