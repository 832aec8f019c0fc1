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
                      adjoint, as_matrix, hs_norm, orthonormalize)
from .report import VerificationReport

if TYPE_CHECKING:
    from .classical import ClassicalGraph

#: Largest dense operator work, in bytes, that a product construction (its
#: spanning family) or the bimodule check (its complement projector and one
#: residual block) may allocate: 256 MiB. Peak memory is a small multiple of
#: it. Larger inputs raise SizeGuardError before anything is allocated.
DENSE_BYTES_LIMIT = 2 ** 28


def check_dense_size(nbytes: int, what: str) -> None:
    """Raise SizeGuardError when ``what`` needs more than DENSE_BYTES_LIMIT."""
    if nbytes > DENSE_BYTES_LIMIT:
        raise SizeGuardError("%s needs %.3g GiB of dense arrays (limit %.3g GiB)"
                             % (what, nbytes / 2 ** 30, DENSE_BYTES_LIMIT / 2 ** 30))


def _swap_matrix(a: int, b: int) -> np.ndarray:
    """Unitary taking C^a (x) C^b onto C^b (x) C^a by e_i (x) e_j -> e_j (x) e_i."""
    s = np.zeros((a * b, a * b), dtype=np.complex128)
    for i in range(a):
        for j in range(b):
            s[j * a + i, i * b + j] = 1.0
    return s


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
        offs = []
        o = 0
        for n, k in blocks:
            offs.append(o)
            o += n * k
        self._offsets = tuple(offs)
        if conjugator is not None:
            u = as_matrix(conjugator)
            d = self.ambient_dim
            if u.shape != (d, d):
                raise ValueError("conjugator shape %r does not match dimension %d"
                                 % (u.shape, d))
            if hs_norm(u.conj().T @ u - np.eye(d)) > DEFAULT_TOL:
                raise ValueError("conjugator is not unitary")
            if np.array_equal(u, np.eye(d)):
                conjugator = None
            else:
                conjugator = u
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

    def _apply_conjugator(self, m: np.ndarray) -> np.ndarray:
        if self.conjugator is None:
            return m
        return self.conjugator @ m @ self.conjugator.conj().T

    def basis(self) -> OperatorSubspace:
        """HS-orthonormal basis: per-block matrix units spread over the
        multiplicity copies, scaled by 1/sqrt(n_r)."""
        n = self.ambient_dim
        mats = []
        for (nr, kr), off in zip(self.blocks, self._offsets):
            scale = 1.0 / np.sqrt(nr)
            for p in range(kr):
                for q in range(kr):
                    b = np.zeros((n, n), dtype=np.complex128)
                    for i in range(nr):
                        b[off + i * kr + p, off + i * kr + q] = scale
                    mats.append(self._apply_conjugator(b))
        return OperatorSubspace(n, np.stack(mats))

    def commutant(self) -> "BlockAlgebra":
        """The commutant, again in standard form.

        Each block (n_r, k_r) flips to (k_r, n_r); a per-block leg swap is
        folded into the conjugator so the output's own standard form spans
        the actual commutant. The double commutant returns blocks and
        conjugator exactly.
        """
        n = self.ambient_dim
        w = np.zeros((n, n), dtype=np.complex128)
        for (nr, kr), off in zip(self.blocks, self._offsets):
            w[off:off + nr * kr, off:off + nr * kr] = _swap_matrix(kr, nr)
        u = w if self.conjugator is None else self.conjugator @ w
        return BlockAlgebra(tuple((k, n_) for n_, k in self.blocks), u)

    def tensor(self, other: "BlockAlgebra") -> "BlockAlgebra":
        """Tensor product algebra on the Kronecker-ordered ambient space.

        Blocks are the pairwise products (n_r n_s, k_r k_s); the conjugator
        (U1 (x) U2) Pi includes the leg shuffle Pi that regroups each
        multiplicity/matrix pair of legs into standard form.
        """
        n1, n2 = self.ambient_dim, other.ambient_dim
        n = n1 * n2
        blocks = []
        pi = np.zeros((n, n), dtype=np.complex128)
        t = 0
        for (nr, kr), o1 in zip(self.blocks, self._offsets):
            for (ns, ks), o2 in zip(other.blocks, other._offsets):
                blocks.append((nr * ns, kr * ks))
                for i in range(nr):
                    for j in range(ns):
                        for p in range(kr):
                            for q in range(ks):
                                src = (o1 + i * kr + p) * n2 + (o2 + j * ks + q)
                                tgt = t + (i * ns + j) * (kr * ks) + (p * ks + q)
                                pi[src, tgt] = 1.0
                t += nr * ns * kr * ks
        if self.conjugator is None and other.conjugator is None:
            u = pi
        else:
            u1 = self.conjugator if self.conjugator is not None else np.eye(n1)
            u2 = other.conjugator if other.conjugator is not None else np.eye(n2)
            u = np.kron(u1, u2) @ pi
        return BlockAlgebra(tuple(blocks), u)

    def conjugated_by(self, u) -> "BlockAlgebra":
        """The algebra u* M u (same blocks, updated conjugator)."""
        u = as_matrix(u)
        cur = self.conjugator if self.conjugator is not None else np.eye(self.ambient_dim)
        return BlockAlgebra(self.blocks, u.conj().T @ cur)

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
    s_j of S, without forming the products; see verify_quantum_graph."""
    n, k = s.ambient_dim, s.dim
    check_dense_size(16 * n * n * (n * n + k),
                     "the bimodule check on dimension %d" % n)
    w = commutant.conjugator
    t = s.basis if w is None else w.conj().T @ s.basis @ w
    f = t.reshape(k, n * n)
    # I - F*F formed in place, so only one n^2 x n^2 array is held
    comp = f.conj().T @ f
    np.negative(comp, out=comp)
    comp.flat[::n * n + 1] += 1.0
    comp = comp.reshape(n, n, n * n)
    worst = [0.0]
    for (mult, d), off in zip(commutant.blocks, commutant._offsets):
        copies = [slice(off + p, off + mult * d, d) for p in range(d)]
        for p, q in itertools.product(range(d), repeat=2):
            # unit (p, q): left copies rows q to rows p, right copies
            # columns p to columns q, in each of the mult copies
            for x, rows in ((t[:, copies[q], :], comp[copies[p], :]),
                            (t[:, :, copies[p]], comp[:, copies[q]])):
                x = x.reshape(k, mult * n) / np.sqrt(mult)
                res = x @ rows.reshape(mult * n, n * n)
                worst.append(_max_relative(_hs_norms(res[:, None]),
                                           _hs_norms(x[:, None])))
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
    flattened basis of T, acting on row vectors), so one matmul per unit
    and side gives the residual vectors of every t_j. The projector holds
    n^4 entries and is guarded by DENSE_BYTES_LIMIT.
    """
    rep = VerificationReport("quantum graph axioms")
    s = graph.S
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
    mats = []
    for u, v in sorted(graph.edges):
        for a, b in ((u, v), (v, u)):
            e = np.zeros((n, n), dtype=np.complex128)
            e[a, b] = 1.0
            mats.append(e)
    if mats:
        s = OperatorSubspace(n, np.stack(mats))
    else:
        s = OperatorSubspace.zero(n)
    return QuantumGraph(s, BlockAlgebra.diagonal(n))


def complete_quantum_graph(m: BlockAlgebra) -> QuantumGraph:
    """The complete graph over M: S is the full orthogonal complement of M'."""
    return QuantumGraph(m.commutant().basis().perp(), m)


def conjugate_graph(graph: QuantumGraph, u, tol: float = DEFAULT_TOL) -> QuantumGraph:
    """Relabel by a unitary: (S, M) -> (u* S u, u* M u)."""
    u = as_matrix(u)
    n = graph.n
    if u.shape != (n, n):
        raise ValueError("unitary shape %r does not match graph dimension %d"
                         % (u.shape, n))
    if hs_norm(u.conj().T @ u - np.eye(n)) > tol:
        raise ValueError("conjugating matrix is not unitary")
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
