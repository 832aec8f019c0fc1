"""Operator-subspace layer: spans, projections, leg permutations."""

import numpy as np
import pytest

from quantumgraphs.opspace import (
    DEFAULT_TOL, OperatorSubspace, adjoint, hs_norm, orthonormalize,
    permute_systems, projection_meet)


def randc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def projection(s, x):
    """Orthogonal projection of x onto span(s), from its orthonormal basis."""
    return sum(np.vdot(e, x) * e for e in s.basis)


def test_adjoint():
    rng = np.random.default_rng(9)
    a = randc(rng, 3, 3)
    assert np.array_equal(adjoint(a), a.conj().T)
    # a (..., n, m) stack is adjointed matrix by matrix, into a C-ordered array
    stack = randc(rng, 2, 4, 3, 2)
    adj = adjoint(stack)
    assert adj.shape == (2, 4, 2, 3) and adj.flags.c_contiguous
    assert np.array_equal(adj[1, 2], stack[1, 2].conj().T)
    with pytest.raises(ValueError):  # a vector is neither
        adjoint(np.ones(3))


def test_orthonormalize_detects_rank():
    rng = np.random.default_rng(10)
    m1, m2 = randc(rng, 3, 3), randc(rng, 3, 3)
    s = orthonormalize([m1, m2, 0.3 * m1 - 2.0 * m2])
    assert s.dim == 2
    assert s.ambient_dim == 3
    for m in (m1, m2):
        assert s.max_residual([m]) < 1e-12
    gram = np.einsum("aij,bij->ab", s.basis.conj(), s.basis)
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_orthonormalize_idempotent_on_orthonormal_input():
    rng = np.random.default_rng(11)
    s = orthonormalize([randc(rng, 4, 4) for _ in range(3)])
    again = orthonormalize(s.basis)
    # already-orthonormal input is passed through unchanged
    assert np.array_equal(again.basis, s.basis)


def test_orthonormalize_empty_needs_ambient_dim():
    s = orthonormalize([], ambient_dim=3)
    assert s.dim == 0 and s.ambient_dim == 3
    with pytest.raises(ValueError):
        orthonormalize([])
    z = orthonormalize([np.zeros((2, 2))])
    assert z.dim == 0
    assert orthonormalize(np.zeros((0, 3, 3)), ambient_dim=3).dim == 0


@pytest.mark.parametrize("family", [
    [np.eye(2), np.eye(3)], [np.ones((2, 3))], [np.ones(4)], np.ones((2, 2, 2, 2))])
def test_orthonormalize_rejects_mixed_or_non_square_shapes(family):
    with pytest.raises(ValueError, match="mixed matrix shapes"):
        orthonormalize(family)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(1, -np.inf)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "infj", "1-infj"])
def test_orthonormalize_rejects_a_non_finite_entry(bad):
    """A NaN would make the SVD fail and an Inf collapse the rank to 0; either
    is refused before the Gram test, with the first non-finite entry named."""
    family = np.array([np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2))], dtype=complex)
    family[1, 0, 1] = family[2, 1, 0] = bad
    with pytest.raises(ValueError, match=r"matrix 1 entry \(0, 1\) is .*, not a finite"):
        orthonormalize(family)
    # beside the identity, and alone in a one-element family
    with pytest.raises(ValueError, match=r"matrix 0 entry \(0, 0\)"):
        orthonormalize([[[bad, 0], [0, 1]], np.eye(2)])
    with pytest.raises(ValueError, match=r"matrix 0 entry \(1, 1\)"):
        orthonormalize([np.diag([0, bad])])


def test_project_is_idempotent_and_members_have_zero_residual():
    rng = np.random.default_rng(12)
    s = orthonormalize([randc(rng, 4, 4) for _ in range(5)])
    x = randc(rng, 4, 4)
    p = projection(s, x)
    # p already lies in the span, so projecting it again leaves it fixed
    assert s.max_residual([p]) < 1e-12
    assert hs_norm(p) <= hs_norm(x) + 1e-12
    combo = 2.0 * s.basis[0] - 1j * s.basis[3]
    assert s.max_residual([combo]) < 1e-12


def test_max_residual_matches_per_matrix_residuals():
    rng = np.random.default_rng(13)
    s = orthonormalize([randc(rng, 3, 3) for _ in range(2)])
    xs = [randc(rng, 3, 3) for _ in range(4)]
    batched = s.max_residual(np.stack(xs))
    # each residual: HS distance to the span relative to max(1, |x|)
    single = [hs_norm(x - projection(s, x)) / max(1.0, hs_norm(x)) for x in xs]
    assert abs(batched - max(single)) < 1e-12


def test_max_residual_checks_the_matrix_shape():
    full = OperatorSubspace.full(2)
    # a 4x4 matrix reshapes into four 2x2 rows, but is not a stack of them
    for bad in ([np.eye(4)], np.eye(2).reshape(1, 1, 4), np.ones(4)):
        with pytest.raises(ValueError, match="does not end in"):
            full.max_residual(bad)
    # any leading axes are fine, as verify_homomorphism passes them
    assert full.max_residual(np.ones((3, 2, 2, 2))) == 0.0
    assert OperatorSubspace.zero(2).max_residual(np.eye(2)) == 1.0
    assert full.max_residual([]) == 0.0
    assert full.max_residual(np.zeros((0, 2, 2))) == 0.0


def test_perp_complements_and_involutes():
    rng = np.random.default_rng(14)
    s = orthonormalize([randc(rng, 3, 3) for _ in range(4)])
    p = s.perp()
    assert s.dim + p.dim == 9
    cross = np.einsum("aij,bij->ab", p.basis.conj(), s.basis)
    assert np.max(np.abs(cross)) < 1e-12
    assert p.perp().equals_span(s)


def test_zero_and_full_subspaces():
    z = OperatorSubspace.zero(3)
    f = OperatorSubspace.full(3)
    assert z.dim == 0 and f.dim == 9
    assert z.perp().equals_span(f)
    assert f.contains_subspace(z)


def test_sum_and_tensor_dimensions():
    rng = np.random.default_rng(15)
    a = orthonormalize([randc(rng, 2, 2) for _ in range(2)])
    b = orthonormalize([randc(rng, 3, 3) for _ in range(3)])
    assert orthonormalize(np.concatenate([a.basis, a.basis])).dim == a.dim
    t = a.tensor(b)
    assert t.ambient_dim == 6
    assert t.dim == a.dim * b.dim
    assert t.max_residual([np.kron(a.basis[1], b.basis[2])]) <= DEFAULT_TOL


def test_tensor_basis_is_kronecker_ordered():
    # products, certificates and the bench oracle all index the tensor
    # basis as a.basis[i] (x) b.basis[j] at position i * b.dim + j
    rng = np.random.default_rng(20)
    a = orthonormalize([randc(rng, 2, 2) for _ in range(3)])
    b = orthonormalize([randc(rng, 3, 3) for _ in range(4)])
    t = a.tensor(b)
    for i in range(a.dim):
        for j in range(b.dim):
            diff = t.basis[i * b.dim + j] - np.kron(a.basis[i], b.basis[j])
            assert np.max(np.abs(diff)) < 1e-14
    for z in (a.tensor(OperatorSubspace.zero(3)),
              OperatorSubspace.zero(3).tensor(a)):
        assert z.dim == 0 and z.ambient_dim == 6
        assert z.basis.shape == (0, 6, 6)


def test_contains_subspace_and_equals_span():
    rng = np.random.default_rng(16)
    mats = [randc(rng, 3, 3) for _ in range(3)]
    s = orthonormalize(mats)
    sub = orthonormalize(mats[:2])
    assert s.contains_subspace(sub)
    assert not sub.contains_subspace(s)
    rotated = orthonormalize([mats[0] + mats[1], mats[0] - mats[1], 1j * mats[2]])
    assert s.equals_span(rotated)


def test_permute_systems_swap_matches_kron_reversal():
    rng = np.random.default_rng(17)
    a, b = randc(rng, 2, 2), randc(rng, 3, 3)
    swapped = permute_systems(np.kron(a, b), [2, 3], [1, 0])
    assert np.allclose(swapped, np.kron(b, a), atol=1e-14)


def test_permute_systems_round_trip_and_composition():
    rng = np.random.default_rng(18)
    dims = [2, 3, 2]
    x = randc(rng, 12, 12)
    perm = [2, 0, 1]  # leg i moves to slot perm[i]
    y = permute_systems(x, dims, perm)
    inv = [perm.index(i) for i in range(3)]
    back = permute_systems(y, [dims[inv[i]] for i in range(3)], inv)
    assert np.array_equal(back, x)
    # composing with the identity permutation is a no-op
    assert np.array_equal(permute_systems(x, dims, [0, 1, 2]), x)


def test_permute_systems_rejects_bad_input():
    x = np.eye(6)
    with pytest.raises(ValueError):
        permute_systems(x, [2, 2], [1, 0])  # dims do not multiply to 6
    with pytest.raises(ValueError):
        permute_systems(x, [2, 3], [0, 0])  # not a permutation


def test_projection_meet_on_commuting_diagonals():
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    assert np.allclose(projection_meet(p, q), p @ q, atol=1e-9)


def test_projection_meet_general_cases():
    rng = np.random.default_rng(19)
    m = randc(rng, 4, 4)
    u = np.linalg.qr(m)[0]
    p = u[:, :2] @ u[:, :2].conj().T
    eye = np.eye(4, dtype=complex)
    assert np.allclose(projection_meet(p, eye), p, atol=1e-9)
    q = u[:, 2:] @ u[:, 2:].conj().T  # orthogonal range: meet is zero
    assert np.max(np.abs(projection_meet(p, q))) < 1e-9
    with pytest.raises(ValueError, match="requires two projections"):
        projection_meet(p, 0.7 * q)
    with pytest.raises(ValueError, match="requires two projections"):
        projection_meet(np.zeros((2, 3)), np.zeros((2, 3)))
