"""Quantum graphs: block von Neumann algebras and the defining axioms.

A quantum graph is a pair (S, M): an operator subspace S of M_n that is
closed under adjoints, orthogonal to the commutant M' of a block algebra M,
and a bimodule over M'. Classical graphs embed as S = span{E_uv : u ~ v}
with M the diagonal algebra.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .classical import SizeGuardError
from .opspace import (DEFAULT_TOL, OperatorSubspace, _hs_norms, _max_relative,
                      _split_support, adjoint, as_matrix, check_unitary)
from .report import VerificationReport

if TYPE_CHECKING:
    from .classical import ClassicalGraph

#: Largest dense operator work, in bytes, that a product construction (its
#: spanning family), an algebra basis or the bimodule check (its complement
#: projector and one residual block) may allocate: 256 MiB. Peak memory is a
#: small multiple of it. Larger inputs raise SizeGuardError before anything
#: is allocated.
DENSE_BYTES_LIMIT = 2 ** 28


def check_dense_size(nbytes: int, what: str) -> None:
    """Raise SizeGuardError when ``what`` needs more than DENSE_BYTES_LIMIT."""
    if nbytes > DENSE_BYTES_LIMIT:
        raise SizeGuardError("%s needs %.3g GiB of dense arrays (limit %.3g GiB)"
                             % (what, nbytes / 2 ** 30, DENSE_BYTES_LIMIT / 2 ** 30))


class BlockAlgebra:
    """A von Neumann subalgebra of M_n in standard form.

    The algebra is U (sum_r I_{n_r} (x) M_{k_r}) U* for a block list
    [(n_1, k_1), ...] and a unitary conjugator U (None means identity);
    n = sum_r n_r * k_r. ``dim`` is the linear dimension sum_r k_r^2. U must
    be unitary to within DEFAULT_TOL.
    """

    def __init__(self, blocks, conjugator=None):
        blocks = tuple((int(n), int(k)) for n, k in blocks)
        if not blocks:
            raise ValueError("an algebra needs at least one block")
        if any(n < 1 or k < 1 for n, k in blocks):
            raise ValueError("block multiplicities and sizes must be positive")
        self.blocks = blocks
        self.ambient_dim = sum(n * k for n, k in blocks)
        self._offsets = tuple(itertools.accumulate(
            (n * k for n, k in blocks[:-1]), initial=0))
        if conjugator is not None:
            d = self.ambient_dim
            conjugator = check_unitary(conjugator, d, "conjugator")
            if np.array_equal(conjugator, np.eye(d)):
                conjugator = None
        self.conjugator = conjugator

    @classmethod
    def diagonal(cls, n: int) -> "BlockAlgebra":
        """The diagonal algebra D_n: n blocks (1, 1)."""
        return cls(((1, 1),) * n)

    @classmethod
    def full(cls, n: int) -> "BlockAlgebra":
        """All of M_n: a single block (1, n)."""
        return cls(((1, n),))

    @property
    def dim(self) -> int:
        return sum(k * k for _, k in self.blocks)

    def __repr__(self):
        tag = "" if self.conjugator is None else ", conjugated"
        return "BlockAlgebra(blocks=%r%s)" % (list(self.blocks), tag)

    def _frame(self) -> np.ndarray:
        """The conjugator, or the identity when there is none."""
        if self.conjugator is None:
            return np.eye(self.ambient_dim, dtype=np.complex128)
        return self.conjugator

    def basis(self) -> OperatorSubspace:
        """HS-orthonormal basis: per-block matrix units spread over the
        multiplicity copies, scaled by 1/sqrt(n_r).

        Unit (p, q) of block r is number t_r + p k_r + q, t_r the units of
        the earlier blocks, with the entry 1/sqrt(n_r) at (o_r + i k_r + p,
        o_r + i k_r + q) for each copy i. All entries go into one zero
        (dim, n, n) stack by one fancy-index assignment; a conjugator U
        then acts on the whole stack as U units U*. A stack larger than
        DENSE_BYTES_LIMIT raises SizeGuardError before it is allocated.
        """
        n = self.ambient_dim
        check_dense_size(16 * self.dim * n * n,
                         "the basis of an algebra of dimension %d on C^%d"
                         % (self.dim, n))
        firsts = itertools.accumulate((k * k for _, k in self.blocks), initial=0)
        unit, row, col, mult = zip(*[
            (t + p * k + q, o + i * k + p, o + i * k + q, m)
            for (m, k), o, t in zip(self.blocks, self._offsets, firsts)
            for p in range(k) for q in range(k) for i in range(m)])
        units = np.zeros((self.dim, n, n), dtype=np.complex128)
        units[unit, row, col] = 1.0 / np.sqrt(mult)
        u = self.conjugator
        if u is not None:
            units = u @ units @ u.conj().T
        return OperatorSubspace(n, units)

    def commutant(self) -> "BlockAlgebra":
        """The commutant, again in standard form.

        Each block (n_r, k_r) flips to (k_r, n_r). Index o_r + j k_r + i
        (copy j, index i) of the old standard form is index o_r + i n_r + j
        (copy i, index j) of the new one, so the new conjugator is the old
        one, or I, with its columns reordered within each block. The double
        commutant restores the order and returns blocks and conjugator
        exactly.
        """
        order = [o + j * k + i
                 for (m, k), o in zip(self.blocks, self._offsets)
                 for i in range(k) for j in range(m)]
        return BlockAlgebra(tuple((k, m) for m, k in self.blocks),
                            self._frame().take(order, axis=1))

    def tensor(self, other: "BlockAlgebra") -> "BlockAlgebra":
        """Tensor product algebra on the Kronecker-ordered ambient space.

        Blocks are the pairwise products (n_r n_s, k_r k_s), in order r
        then s. Copy (i, j) and index (p, q) of block (r, s) sit at
        (o_r + i k_r + p) n2 + (o_s + j k_s + q) in the Kronecker order, so
        the conjugator is U1 (x) U2, with I for a factor that has none and
        its columns taken in that order.
        """
        n2 = other.ambient_dim
        blocks = [(nr * ns, kr * ks) for nr, kr in self.blocks
                  for ns, ks in other.blocks]
        order = [(o1 + i * kr + p) * n2 + o2 + j * ks + q
                 for (nr, kr), o1 in zip(self.blocks, self._offsets)
                 for (ns, ks), o2 in zip(other.blocks, other._offsets)
                 for i in range(nr) for j in range(ns)
                 for p in range(kr) for q in range(ks)]
        n = self.ambient_dim * n2
        u = self._frame()[:, None, :, None] * other._frame()[None, :, None, :]
        return BlockAlgebra(tuple(blocks), u.reshape(n, n).take(order, axis=1))

    def conjugated_by(self, u) -> "BlockAlgebra":
        """The algebra u* M u (same blocks, updated conjugator)."""
        u = as_matrix(u)
        return BlockAlgebra(self.blocks, u.conj().T @ self._frame())

    def equals(self, other: "BlockAlgebra", tol: float = DEFAULT_TOL) -> bool:
        """Same algebra: the same blocks up to order and the same span.

        Conjugators are not compared; different ones can give one algebra,
        for example any diagonal unitary leaves D_n in place.
        """
        return (sorted(self.blocks) == sorted(other.blocks)
                and self.basis().equals_span(other.basis(), tol))


class QuantumGraph:
    """A pair (S, M) claimed to satisfy the quantum graph axioms.

    Construction only checks dimensions; run :func:`verify_quantum_graph`
    for the axioms, which are reported rather than enforced so that broken
    inputs stay inspectable.
    """

    def __init__(self, S: OperatorSubspace, M: BlockAlgebra):
        if S.ambient_dim != M.ambient_dim:
            raise ValueError("edge space and algebra live on different spaces: %d vs %d"
                             % (S.ambient_dim, M.ambient_dim))
        self.S = S
        self.M = M

    @property
    def n(self) -> int:
        return self.S.ambient_dim

    def __repr__(self):
        return "QuantumGraph(n=%d, dim S=%d, M=%r)" % (self.n, self.S.dim, self.M)


def _bimodule_residual(s: OperatorSubspace, commutant: BlockAlgebra) -> float:
    """Largest residual ||x - P_S x|| / max(1, ||x||) over x = a s_j and
    x = s_j a, for every basis unit a of the commutant and basis element
    s_j of S, without forming the products: per run of equal commutant
    blocks and side, one stack of live slices and one chunked batched
    matmul per target index; see verify_quantum_graph."""
    n, k = s.ambient_dim, s.dim
    w = commutant.conjugator
    t = s.basis if w is None else w.conj().T @ s.basis @ w
    f = t.reshape(k, n * n)
    # the columns U of I - F*F formed in place, U the support of F; gone: off U
    on, outside = s._support if w is None else _split_support(f)
    comp = f[:, on].conj().T @ f[:, on]
    np.negative(comp, out=comp)
    comp.flat[::len(comp) + 1] += 1.0
    if outside.size:
        comp, part = np.zeros((n * n, len(comp)), dtype=np.complex128), comp
        comp[on] = part
    comp = comp.reshape(n, n, -1)
    gone = np.bincount(outside, minlength=n * n).reshape(n, n)
    # live_rows[j, r]: row r of t_j has a nonzero entry (live_cols for
    # columns); a NaN or Inf counts, so its slices carry it to the residual
    live_rows, live_cols = t.any(axis=2), t.any(axis=1)
    # the right side is the left side of the transposes: columns of t_j
    # are rows of t_j^T, and projector row (r, c) is row (c, r) of comp^T
    sides = ((t, comp, live_rows, gone),
             (t.transpose(0, 2, 1), comp.transpose(1, 0, 2), live_cols, gone.T))
    worst = [0.0]
    end = 0
    for (mult, d), run in itertools.groupby(commutant.blocks):
        # a run of equal blocks (mult, d): index off + (b mult + i) d + e
        # is copy i, index e of its block b
        off, count = end, len(list(run))
        end = off + count * mult * d
        for x, rows, live, mask in sides:
            # the live slices (b, j, src): rows copies of src of t_j in
            # block b, gathered per block into a zero-padded stack
            b, j, src = np.nonzero(
                live[:, off:end].reshape(k, count, mult, d).any(axis=2)
                .transpose(1, 0, 2))
            if not len(b):
                continue
            # b is sorted: a slice's slot is its distance from its block's first
            slot = np.arange(len(b)) - np.searchsorted(b, b)
            lmax = int(slot.max()) + 1
            stack = np.zeros((count, lmax, mult * n), dtype=np.complex128)
            stack[b, slot] = (x[:, off:end].reshape(k, count, mult, d, n)[j, b, :, src]
                              .reshape(-1, mult * n) / np.sqrt(mult))
            scale = _hs_norms(stack[..., None, :])
            # lost[b, l, p]: the norm off U of slice l of block b moved to p
            lost = np.sqrt(np.abs(stack) ** 2 @ mask[off:end].reshape(count, mult, d, n)
                           .transpose(0, 1, 3, 2).reshape(count, mult * n, d)
                           ) if outside.size and d > 1 else None
            # chunks of at most dim S * n^2 residual entries; with more than
            # one copy per block the reshape below may copy each block's
            # mult n projector rows, and they count against the same bound
            height = min(lmax, k)
            rows_held = max(height, mult * n) if mult > 1 else height
            width = max(1, k // rows_held)
            for dst in range(d):
                # unit (dst, src) moves each slice to rows copies of dst
                proj = rows[off + dst:end:d].reshape(count, mult, n, -1)
                for b0 in range(0, count, width):
                    part = proj[b0:b0 + width].reshape(-1, mult * n, proj.shape[-1])
                    for l0 in range(0, lmax, height):
                        # one residual block alive at a time
                        norms = _hs_norms(
                            (stack[b0:b0 + width, l0:l0 + height] @ part)[..., None, :])
                        if lost is not None:
                            norms = np.hypot(norms, lost[b0:b0 + width, l0:l0 + height, dst])
                        worst.append(_max_relative(
                            norms, scale[b0:b0 + width, l0:l0 + height]))
    return float(np.max(worst))


def verify_quantum_graph(graph: QuantumGraph,
                         tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the three axioms and report per-check residuals.

    Bimodule closure over M' is checked one-sidedly on the matrix-unit
    generators of M'; since M' is a unital algebra spanned by them, left and
    right closure under every generator is equivalent to the two-sided
    A X B condition. The products are never formed. S is conjugated once
    into the commutant's standard frame, T = W* S W with W the commutant's
    conjugator, which leaves every HS residual unchanged. There the unit
    (p, q) of a block (m, d) at offset o is (1/sqrt m) sum_i E_{o+id+p,
    o+id+q}, so a t_j times a unit is a slice of t_j: m rows (left) or m
    columns (right), moved and scaled. The residual of such a slice x is
    x times the matching rows of the complement projector I - F*F (F the
    flattened basis of T, acting on row vectors): F is zero off its support
    U, so that is hypot(||x C||, ||x off U||), C the u columns U of I - F*F,
    and with d = 1 a slice stays on U. Only live slices are multiplied:
    those with a nonzero entry, found from masks of the nonzero rows and
    columns of T taken once; a zero slice has residual 0, and a NaN or Inf
    in T counts as nonzero. For edge spaces of classical
    and mixed products, whose T is made of matrix units or Kronecker
    blocks, most slices are zero. Consecutive blocks with the same (m, d)
    form a run (a diagonal commutant D_n is one run of n blocks). Per run
    and side the live slices of each block go into one zero-padded stack,
    and one batched matmul per target index p (per q on the right side)
    against strided views of C gives the residuals of every block's
    slices; the matmul is chunked so that no residual block holds more than
    dim S * n^2 entries. C holds n^2 u <= n^4 entries; n^4 and one residual
    block are guarded by DENSE_BYTES_LIMIT before any check, the commutant
    included, is formed.
    """
    rep = VerificationReport("quantum graph axioms")
    s = graph.S
    n = s.ambient_dim
    check_dense_size(16 * n * n * (n * n + s.dim),
                     "the bimodule check on dimension %d" % n)
    commutant = graph.M.commutant()
    mp = commutant.basis()

    rep.add("adjoint_closed", s.max_residual(adjoint(s.basis)), tol)
    rep.add("bimodule", _bimodule_residual(s, commutant), tol)
    gram = s._flat @ mp._flat.conj().T
    rep.add("orthogonal_to_commutant", np.max(np.abs(gram), initial=0.0), tol)
    return rep


def from_classical(graph: "ClassicalGraph") -> QuantumGraph:
    """Embed a classical graph: S = span{E_uv : u ~ v}, M = diagonal."""
    n = graph.vertex_count
    ends = np.array([e for u, v in sorted(graph.edges) for e in ((u, v), (v, u))],
                    dtype=np.intp).reshape(-1, 2)
    units = np.zeros((len(ends), n, n), dtype=np.complex128)
    units[np.arange(len(ends)), ends[:, 0], ends[:, 1]] = 1.0
    return QuantumGraph(OperatorSubspace(n, units), BlockAlgebra.diagonal(n))


def complete_quantum_graph(m: BlockAlgebra) -> QuantumGraph:
    """The complete graph over M: S is the full orthogonal complement of M'."""
    return QuantumGraph(m.commutant().basis().perp(), m)


def conjugate_graph(graph: QuantumGraph, u, tol: float = DEFAULT_TOL) -> QuantumGraph:
    """Relabel by a unitary: (S, M) -> (u* S u, u* M u)."""
    n = graph.n
    u = check_unitary(u, n, "conjugating matrix", tol)
    s = OperatorSubspace(n, u.conj().T @ graph.S.basis @ u)
    return QuantumGraph(s, graph.M.conjugated_by(u))


def is_subgraph(sub: QuantumGraph, sup: QuantumGraph,
                tol: float = DEFAULT_TOL) -> bool:
    """True iff the graphs share their algebra and S_sub is contained in S_sup."""
    if sub.n != sup.n:
        raise ValueError("graphs live on different dimensions: %d vs %d"
                         % (sub.n, sup.n))
    if not sub.M.equals(sup.M, tol):
        raise ValueError("graphs carry different algebras")
    return sup.S.contains_subspace(sub.S, tol)
