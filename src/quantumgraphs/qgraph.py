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
from .opspace import (DEFAULT_TOL, OperatorSubspace, _hs_norms, _is_coordinate,
                      _max_relative, _split_support, adjoint, as_matrix,
                      check_unitary)
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

    def max_residual(self, stack) -> float:
        """Largest relative residual ||x - Ex|| / max(1, ||x||) over a stack
        of matrices x, E the HS-orthogonal projection onto this algebra: the
        contract of OperatorSubspace.max_residual, with no basis formed.

        E is the conditional expectation in the standard frame: with
        Y = U* x U, it keeps each block's diagonal copies, each replaced by
        their average (1/n_r) sum_i Y_ii, and zeroes everything else, so
        ||x - Ex|| is the hypot of two sums taken directly, not as a
        difference of norms: the entries of Y off the copies, and each
        copy's deviation from its block's average. Y is x itself with no
        conjugator. Each run of equal blocks is gathered at once, so D_n
        has no loop per block; a block with one copy has no deviation, and
        a full algebra leaves nothing off its one copy. The copies are
        zeroed by a product with 0, which turns a NaN or Inf into NaN, so a
        non-finite entry gives a non-finite result; ``stack`` is never
        written to. An empty stack gives 0.0.
        """
        arr = np.asarray(stack, dtype=np.complex128)
        if arr.size == 0:
            return 0.0
        n = self.ambient_dim
        if arr.shape[-2:] != (n, n):
            raise ValueError("stack of shape %r does not end in (%d, %d)"
                             % (arr.shape, n, n))
        x = arr.reshape(-1, n, n)
        u = self.conjugator
        y = x.copy() if u is None else u.conj().T @ x @ u
        deviations = []
        end = 0
        for (mult, k), run in itertools.groupby(self.blocks):
            # copy t = b mult + i of the run is copy i of its block b
            off, copies = end, mult * len(list(run))
            end = off + copies * k
            t = np.arange(copies)
            diag = y[:, off:end, off:end].reshape(len(y), copies, k, copies, k)
            if mult > 1:
                g = diag[:, t, :, t].reshape(-1, mult, len(y), k, k)
                g -= g.sum(axis=1, keepdims=True) / mult
                deviations.append(_hs_norms(g.transpose(2, 0, 1, 3, 4)
                                            .reshape(len(y), -1, k)))
            diag[:, t, :, t] *= 0
        norms = _hs_norms(y)
        for dev in deviations:
            norms = np.hypot(norms, dev)
        return _max_relative(norms, _hs_norms(x))

    def commutant(self) -> "BlockAlgebra":
        """The commutant, again in standard form.

        Each block (n_r, k_r) flips to (k_r, n_r). Index o_r + j k_r + i
        (copy j, index i) of the old standard form is index o_r + i n_r + j
        (copy i, index j) of the new one, so the new conjugator is the old
        one, or I, with its columns reordered within each block. The double
        commutant restores the order and returns blocks and conjugator
        exactly. With no conjugator and every block (1, k) or (m, 1), as
        for D_n, the order is the identity and the commutant has none.
        """
        order = [o + j * k + i
                 for (m, k), o in zip(self.blocks, self._offsets)
                 for i in range(k) for j in range(m)]
        u = None
        if self.conjugator is not None or order != list(range(self.ambient_dim)):
            u = self._frame().take(order, axis=1)
        return BlockAlgebra(tuple((k, m) for m, k in self.blocks), u)

    def tensor(self, other: "BlockAlgebra") -> "BlockAlgebra":
        """Tensor product algebra on the Kronecker-ordered ambient space.

        Blocks are the pairwise products (n_r n_s, k_r k_s), in order r
        then s. Copy (i, j) and index (p, q) of block (r, s) sit at
        (o_r + i k_r + p) n2 + (o_s + j k_s + q) in the Kronecker order, so
        the conjugator is U1 (x) U2, with I for a factor that has none and
        its columns taken in that order; none when neither factor has one
        and that order is the identity, as for D_n (x) D_m.
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
        u = None
        if (self.conjugator is not None or other.conjugator is not None
                or order != list(range(n))):
            u = self._frame()[:, None, :, None] * other._frame()[None, :, None, :]
            u = u.reshape(n, n).take(order, axis=1)
        return BlockAlgebra(tuple(blocks), u)

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


def _commutant_overlap(s: OperatorSubspace, commutant: BlockAlgebra,
                       t: np.ndarray) -> float:
    """max |<s_j, a>| over the basis elements s_j of S and the basis units
    a of the commutant, read off T = W* S W in the commutant's frame, with
    no basis of the commutant formed: <s_j, a> = <t_j, unit (p, q)> =
    (1/sqrt m) sum_i t_j[o+id+p, o+id+q] for the unit (p, q) of a block
    (m, d) at offset o. One gather per run of equal blocks. A NaN or Inf
    in S gives NaN, as the products with 0 of a Gram would; 0.0 for
    dim S = 0."""
    if not s._finite:
        return float("nan")
    worst = [0.0]
    end = 0
    for (mult, d), run in itertools.groupby(commutant.blocks):
        # copy c = b mult + i of the run is copy i of its block b
        off, count = end, len(list(run))
        copies = count * mult
        end = off + copies * d
        c = np.arange(copies)
        diag = t[:, off:end, off:end].reshape(len(t), copies, d, copies, d)[:, c, :, c]
        units = diag.reshape(count, mult, len(t), d, d).sum(axis=1)
        worst.append(np.max(np.abs(units), initial=0.0) / np.sqrt(mult))
    return float(np.max(worst))


def _bimodule_residual(s: OperatorSubspace, commutant: BlockAlgebra,
                       t: np.ndarray) -> float:
    """Largest residual ||x - P_S x|| / max(1, ||x||) over x = a s_j and
    x = s_j a, for every basis unit a of the commutant and basis element
    s_j of S, without forming the products: per run of equal commutant
    blocks and side, one stack of live slices and one chunked batched
    matmul per target index, or no matmul when S is coordinate in the
    commutant's frame. ``t`` is T = W* S W; see verify_quantum_graph."""
    n, k = s.ambient_dim, s.dim
    w = commutant.conjugator
    f = t.reshape(k, n * n)
    on, outside = s._support if w is None else _split_support(f)
    # a coordinate T spans all of C^U: a slice keeps its part on U, and C,
    # never multiplied, has no columns
    coordinate = (s._coordinate if w is None
                  else _is_coordinate(f, outside, bool(np.isfinite(f).all())))
    if coordinate and (not outside.size or all(d == 1 for _, d in commutant.blocks)):
        return 0.0  # every slice stays on U: nothing is off U, or every d is 1
    comp = np.empty((n * n, 0), dtype=np.complex128)
    if not coordinate:
        # the columns U of I - F*F formed in place, U the support of F; gone: off U
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
        if coordinate and d == 1:
            continue  # d = 1 keeps a slice on the support of its t_j
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
            if coordinate:
                worst.append(_max_relative(lost, scale[..., None]))
                continue
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


def _adjoint_residual(s: OperatorSubspace) -> float:
    """s.max_residual(adjoint(s.basis)). On a coordinate S (dim S = |U|,
    every entry finite) that is, per s_j, the norm of s_j* off U over
    max(1, ||s_j*||): s_j* is off U at the positions whose transpose is, so
    the norm gathers s_j there in the same order and no adjoint copy is
    formed; only the s_j with a nonzero norm get their ||s_j*||, from their
    adjoints, so the residual is max_residual's bitwise. When the positions
    off U are also the transposes of the positions off U (U symmetric, as
    for every classical graph and product of them), no transposed position
    lies on U, nothing of any s_j* lands off U, and the result is 0.0 with
    no gather."""
    if not s._coordinate:
        return s.max_residual(adjoint(s.basis))
    n, off = s.ambient_dim, s._support[1]
    moved = off % n * n + off // n
    if np.array_equal(np.sort(moved), off):
        return 0.0
    lost = _hs_norms(s._flat.take(moved, axis=1)[:, None])
    rows = np.flatnonzero(lost)
    return _max_relative(lost[rows], _hs_norms(adjoint(s.basis[rows])))


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
    block are guarded by DENSE_BYTES_LIMIT before any check is run; the
    commutant's basis is never formed. When T is coordinate (dim S = u and
    every entry finite, as for classical graphs and their products, whose
    T is made of matrix units), T spans all of C^U: C is never formed, and
    a slice's residual is its norm off U alone, 0 for d = 1, where a slice
    stays on the support of its t_j (a diagonal commutant takes no slice
    at all, and neither does any commutant when U is everything), and the
    masked norm of the live slices for d > 1. On a coordinate S the adjoint check,
    S.max_residual of S*, reads the entries of S whose transposes lie off
    U, with no copy of S*, and none at all when U is symmetric
    (_adjoint_residual). The orthogonality to M' is read off the same T:
    the overlap of t_j with the unit (p, q) above is (1/sqrt m) sum_i
    t_j[o+id+p, o+id+q], a sum over the block's copies of one entry each,
    so no Gram with the commutant's basis is formed (_commutant_overlap);
    a NaN or Inf in S gives NaN there, from S's cached finiteness flag.
    """
    rep = VerificationReport("quantum graph axioms")
    s = graph.S
    n = s.ambient_dim
    check_dense_size(16 * n * n * (n * n + s.dim),
                     "the bimodule check on dimension %d" % n)
    commutant = graph.M.commutant()
    w = commutant.conjugator
    t = s.basis if w is None else w.conj().T @ s.basis @ w

    rep.add("adjoint_closed", _adjoint_residual(s), tol)
    rep.add("bimodule", _bimodule_residual(s, commutant, t), tol)
    rep.add("orthogonal_to_commutant", _commutant_overlap(s, commutant, t), tol)
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
