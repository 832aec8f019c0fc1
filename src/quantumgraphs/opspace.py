"""Dense complex matrices and Hilbert-Schmidt subspace operations.

Matrices are plain numpy complex128 arrays. A subspace of M_n is stored as a
Hilbert-Schmidt-orthonormal basis stacked into a (dim, n, n) array. All inner
products use the unnormalized trace: <A, B> = Tr(B* A).

Every HS norm over a stack of matrices, here and in ``qgraph`` and
``coloring``, is taken by the one helper :func:`_hs_norms`.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from typing import Sequence

import numpy as np

#: Default tolerance for residual checks.
DEFAULT_TOL = 1e-9

#: Singular values below this fraction of the largest are treated as zero
#: when deciding the rank of a spanning family.
RANK_CUTOFF = 1e-10

#: A family of k <= n^2 matrices of M_n is taken as already orthonormal when
#: every entry of its Gram matrix is within this of the identity's.
ORTHONORMAL_TOL = 1e-12


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a 2-d complex128 array."""
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("expected a matrix, got array of shape %r" % (m.shape,))
    return m


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a (..., n, m)
    stack, as a new C-contiguous array."""
    a = np.asarray(a, dtype=np.complex128)
    return np.conjugate(np.swapaxes(a, -1, -2), order="C")


def hs_norm(a) -> float:
    return float(np.linalg.norm(a))


def check_unitary(u, n: int, what: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``u`` as an n x n complex matrix; ValueError unless ||u* u - I|| <= tol
    (HS norm). ``what`` names the matrix in the message."""
    u = as_matrix(u)
    if u.shape != (n, n):
        raise ValueError("%s shape %r does not match dimension %d" % (what, u.shape, n))
    if hs_norm(u.conj().T @ u - np.eye(n)) > tol:
        raise ValueError("%s is not unitary" % what)
    return u


def _hs_norms(x: np.ndarray) -> np.ndarray:
    """HS norm of each matrix of a complex (..., a, b) stack, as one dot
    product of each matrix's float view with itself; ``x`` is not written
    to. NaN and Inf propagate."""
    a, b = x.shape[-2:]
    v = np.ascontiguousarray(x).reshape(*x.shape[:-2], a * b).view(np.float64)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _worst(x: np.ndarray) -> float:
    """Largest HS norm over the last two axes, 0.0 if empty; keeps a NaN."""
    return float(np.max(_hs_norms(x), initial=0.0))


def _split_support(flat: np.ndarray):
    """(on, off): the columns of a (k, N) array with a nonzero entry (NaN
    and Inf count) and the others; ``on`` is a full slice if ``off`` is empty."""
    live = flat.any(axis=0)
    off = np.flatnonzero(~live)
    return (np.flatnonzero(live) if off.size else slice(None)), off


def _is_coordinate(flat: np.ndarray, off: np.ndarray, finite: bool) -> bool:
    """True when the k rows of a (k, N) array are nonzero on exactly k
    columns, all but ``off``, and ``finite`` (every entry is finite) holds:
    k orthonormal rows then span every vector supported on those columns."""
    return len(flat) == flat.shape[1] - len(off) and finite


def _residual_off(m: np.ndarray, off: np.ndarray) -> float:
    """Largest ||x - Px|| / max(1, ||x||) over the rows x of an (r, N)
    array, P the projection onto C^U, U every column but ``off``: P masks x
    onto U, so the residual is x off U with no matmul, and on U it is
    x_U - x_U, 0 for a finite row and NaN for one with a non-finite entry.
    0.0 for no rows."""
    lost = _hs_norms(m.take(off, axis=1)[:, None])
    on_u = np.where(np.isfinite(m).all(axis=1), 0.0, np.nan)
    return _max_relative(lost + on_u, _hs_norms(m[:, None]))


def _kron_stack(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A_i (x) B_j for every pair of a (k, p, p) and an (l, q, q) stack, as a
    (k l, pq, pq) stack with A_i (x) B_j at index i l + j: one broadcast
    product whose axes are already in Kronecker order, written into ``out``
    (a C-contiguous stack of that shape) when given. Each entry is the one
    product a * b, so the stack equals np.kron's bitwise."""
    (k, p), (l, q) = a.shape[:2], b.shape[:2]
    if out is not None:
        out = out.reshape(k, l, p, q, p, q)
    x = np.multiply(a.reshape(k, 1, p, 1, p, 1), b.reshape(1, l, 1, q, 1, q), out=out)
    return x.reshape(k * l, p * q, p * q)


def _projection_residual(stack: np.ndarray) -> float:
    """max over the stack of ||P^2 - P|| and ||P - P*||."""
    return float(np.maximum(_worst(stack @ stack - stack),
                            _worst(stack - adjoint(stack))))


def _max_relative(norms: np.ndarray, scales: np.ndarray) -> float:
    """max ||r|| / max(1, ||x||) over paired norms, 0.0 for none; keeps NaN."""
    return float(np.max(norms / np.maximum(1.0, scales), initial=0.0))


class OperatorSubspace:
    """An operator subspace of M_n held as an HS-orthonormal basis.

    The constructor trusts its input basis; build one from an arbitrary
    spanning family with :func:`orthonormalize`. The zero subspace is a
    valid instance with an empty basis.
    """

    def __init__(self, ambient_dim: int, basis):
        n = int(ambient_dim)
        if n < 1:
            raise ValueError("ambient dimension must be positive")
        arr = np.array(basis, dtype=np.complex128, copy=True)
        if arr.size == 0:
            arr = arr.reshape(0, n, n)
        if arr.ndim != 3 or arr.shape[1:] != (n, n):
            raise ValueError("basis must be a stack of %d x %d matrices" % (n, n))
        arr.flags.writeable = False
        self.ambient_dim = n
        self.basis = arr
        self._flat = arr.reshape(arr.shape[0], n * n)

    @classmethod
    def _adopt(cls, n: int, basis: np.ndarray) -> "OperatorSubspace":
        """The subspace of a fresh C-contiguous complex (k, n, n) stack that
        no one else holds, taken over without the constructor's copy and
        made read-only; for stacks built here, never for outside input."""
        out = cls.__new__(cls)
        basis.flags.writeable = False
        out.ambient_dim, out.basis = n, basis
        out._flat = basis.reshape(len(basis), n * n)
        return out

    @classmethod
    def zero(cls, n: int) -> "OperatorSubspace":
        return cls(n, np.zeros((0, n, n), dtype=np.complex128))

    @classmethod
    def full(cls, n: int) -> "OperatorSubspace":
        """All of M_n, spanned by the matrix units E_ij."""
        eye = np.eye(n * n, dtype=np.complex128)
        return cls(n, eye.reshape(n * n, n, n))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __repr__(self):
        return "OperatorSubspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)

    def max_residual(self, stack) -> float:
        """Largest relative residual ||x - Px|| / max(1, ||x||) over a stack
        of matrices x, P the orthogonal projection onto this subspace.

        The workhorse behind the verifiers: batched projection of the whole
        stack at once. Any leading axes are allowed; the last two must be
        (ambient, ambient). An empty stack gives 0.0, a non-finite entry a
        non-finite result. ``stack`` is never written to. The basis is zero off
        its support U. When the subspace is coordinate (dim k equal to u = |U|
        and every basis entry finite, as for matrix-unit bases) it is all of
        C^U and P masks x onto U (_residual_off). Otherwise c = x_U F_U*, the
        residual is x_U - c F_U on U and x off U, and
        ||x|| = hypot(||x - Px||, ||c||). U is used if
        F_U, its conjugate, x_U, c and the residual (2ku + r(2u + k) entries,
        r matrices) fit in the rk + max(k, r) n^2 of c and the conjugated basis
        or residual that projecting over every coordinate holds; else that
        runs, on views."""
        arr = np.asarray(stack, dtype=np.complex128)
        if arr.size == 0:
            return 0.0
        n = self.ambient_dim
        if arr.shape[-2:] != (n, n):
            raise ValueError("stack of shape %r does not end in (%d, %d)"
                             % (arr.shape, n, n))
        m = arr.reshape(-1, n * n)
        if self._coordinate:
            return _residual_off(m, self._support[1])
        # the largest u that fits; k orthonormal matrices need u >= k
        r, k = len(m), self.dim
        most = max(k, r) * n * n // (2 * (k + r))
        on, off = self._support if k <= most else (slice(None), ())
        on, off = (on, off) if n * n - len(off) <= most else (slice(None), ())
        lost = _hs_norms(m.take(off, axis=1)[:, None]) if len(off) else 0.0
        f, xu = self._flat[:, on], m[:, on]
        coeff = xu @ f.conj().T
        res = coeff @ f
        np.subtract(xu, res, out=res)
        norms = np.hypot(_hs_norms(res[:, None]), lost)
        return _max_relative(norms, np.hypot(norms, _hs_norms(coeff[:, None])))

    _support = cached_property(lambda self: _split_support(self._flat))
    _finite = cached_property(lambda self: bool(np.isfinite(self._flat).all()))
    _coordinate = cached_property(
        lambda self: _is_coordinate(self._flat, self._support[1], self._finite))

    def contains_subspace(self, other: "OperatorSubspace",
                          tol: float = DEFAULT_TOL) -> bool:
        self._check_same_ambient(other)
        return self.max_residual(other.basis) <= tol

    def equals_span(self, other: "OperatorSubspace",
                    tol: float = DEFAULT_TOL) -> bool:
        """Mutual containment within ``tol`` (dimension equality implied)."""
        return (self.dim == other.dim
                and self.contains_subspace(other, tol)
                and other.contains_subspace(self, tol))

    def tensor(self, other: "OperatorSubspace") -> "OperatorSubspace":
        """Span of pairwise Kronecker products; basis stays orthonormal.

        Basis element ``i * other.dim + j`` is ``self[i] (x) other[j]``.
        """
        n = self.ambient_dim * other.ambient_dim
        return OperatorSubspace._adopt(n, _kron_stack(self.basis, other.basis))

    def perp(self) -> "OperatorSubspace":
        """Orthogonal complement inside the full matrix space M_n."""
        n = self.ambient_dim
        if self.dim == 0:
            return OperatorSubspace.full(n)
        _, sing, vh = np.linalg.svd(self._flat, full_matrices=True)
        rank = int(np.sum(sing > RANK_CUTOFF * sing[0])) if sing.size else 0
        comp = vh[rank:]
        return OperatorSubspace(n, comp.reshape(-1, n, n))

    def _check_same_ambient(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ: %d vs %d"
                             % (self.ambient_dim, other.ambient_dim))


def orthonormalize(mats, ambient_dim: int | None = None) -> OperatorSubspace:
    """HS-orthonormal basis of the span of a family of matrices.

    The family is a (k, n, n) stack or a sequence of n x n matrices, read
    as one array. Rank comes from the singular-value cutoff RANK_CUTOFF
    relative to the largest singular value of the vectorized family (no
    sequential Gram-Schmidt). A family that is already orthonormal, tested
    by its Gram matrix over the columns where some matrix is nonzero, is
    returned unchanged, which makes the operation idempotent. The empty
    family gives the zero subspace and then requires ``ambient_dim``. A NaN
    or Inf entry raises ValueError naming the first one.
    """
    try:
        arr = np.asarray(mats, dtype=np.complex128)
    except ValueError:
        raise ValueError("mixed matrix shapes in spanning family") from None
    if arr.shape[:1] == (0,):
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty family")
        return OperatorSubspace.zero(ambient_dim)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("mixed matrix shapes in spanning family")
    k, n, _ = arr.shape
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("ambient_dim %d does not match matrices of size %d"
                         % (ambient_dim, n))
    flat = arr.reshape(k, n * n)
    finite = np.isfinite(flat)
    if not finite.all():
        i, cell = divmod(int(np.argmin(finite)), n * n)
        raise ValueError("spanning family matrix %d entry (%d, %d) is %r, not a "
                         "finite number" % (i, *divmod(cell, n), complex(flat[i, cell])))
    if k <= n * n:
        live = flat[:, _split_support(flat)[0]]
        gram = live @ live.conj().T
        if np.max(np.abs(gram - np.eye(k))) <= ORTHONORMAL_TOL:
            return OperatorSubspace(n, arr)
    _, sing, vh = np.linalg.svd(flat, full_matrices=False)
    rank = 0
    if sing.size and sing[0] > 0:
        rank = int(np.sum(sing > RANK_CUTOFF * sing[0]))
    return OperatorSubspace(n, vh[:rank].reshape(rank, n, n))


def permute_systems(x, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate a matrix, or each matrix of a (..., n, n) stack, on a tensor
    product by a relabeling of the legs; leading axes are kept.

    ``dims`` are the leg dimensions in the current order and ``perm[i]`` is
    the new position of leg ``i`` (0-indexed). Applying a permutation and
    then its inverse returns the input exactly.
    """
    x = np.asarray(x, dtype=np.complex128)
    dims = [int(d) for d in dims]
    k = len(dims)
    n = prod(dims)
    if x.shape[-2:] != (n, n):
        raise ValueError("matrix of shape %r does not match legs %r" % (x.shape, dims))
    if sorted(perm) != list(range(k)):
        raise ValueError("perm %r is not a permutation of 0..%d" % (list(perm), k - 1))
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    lead = x.shape[:-2]
    o = len(lead)
    axes = list(range(o)) + [o + i for i in inv] + [o + k + i for i in inv]
    return x.reshape(lead + (*dims, *dims)).transpose(axes).reshape(lead + (n, n))


def projection_meet(p, q, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Projection onto ran(p) intersect ran(q), for each pair of two
    (..., n, n) stacks of projections paired by broadcasting their leading
    axes; two matrices give one matrix.

    Computed as the spectral projection of p + q for eigenvalues within
    ``tol`` of 2, with the other eigenvectors masked to zero; exact for
    commuting inputs and robust for generic ones. Each input stack is
    checked to hold projections once.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    if p.shape[-2:] != q.shape[-2:]:
        raise ValueError("shape mismatch: %r vs %r" % (p.shape, q.shape))
    for x in (p, q):
        if x.ndim < 2 or x.shape[-1] != x.shape[-2] or not _projection_residual(x) <= tol:
            raise ValueError("projection_meet requires two projections")
    h = p + q
    vals, vecs = np.linalg.eigh((h + adjoint(h)) / 2.0)
    v = vecs * (vals >= 2.0 - tol)[..., None, :]
    return v @ adjoint(v)
