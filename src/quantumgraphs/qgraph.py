"""Quantum graphs: block von Neumann algebras and the defining axioms.

A quantum graph is a pair (S, M): an operator subspace S of M_n that is
closed under adjoints, orthogonal to the commutant M' of a block algebra M,
and a bimodule over M'. Classical graphs embed as S = span{E_uv : u ~ v}
with M the diagonal algebra.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .opspace import (DEFAULT_TOL, OperatorSubspace, as_matrix, hs_norm,
                      orthonormalize)
from .report import VerificationReport

if TYPE_CHECKING:
    from .classical import ClassicalGraph


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
        if self.blocks != other.blocks:
            return False
        n = self.ambient_dim
        a = self.conjugator if self.conjugator is not None else np.eye(n)
        b = other.conjugator if other.conjugator is not None else np.eye(n)
        return hs_norm(a - b) <= tol


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


def verify_quantum_graph(graph: QuantumGraph,
                         tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the three axioms and report per-check residuals.

    Bimodule closure over M' is checked one-sidedly on the matrix-unit
    generators of M'; since M' is a unital algebra spanned by them, left and
    right closure under every generator is equivalent to the two-sided
    A X B condition.
    """
    rep = VerificationReport("quantum graph axioms")
    s = graph.S
    mp = graph.M.commutant().basis()

    adj = np.conj(np.transpose(s.basis, (0, 2, 1)))
    rep.add("adjoint_closed", s.max_residual(adj), tol)

    left = s.max_residual(mp.basis[:, None] @ s.basis)
    right = s.max_residual(s.basis @ mp.basis[:, None])
    rep.add("bimodule", np.max([left, right]), tol)

    if s.dim and mp.dim:
        gram = s._flat @ mp._flat.conj().T
        rep.add("orthogonal_to_commutant", float(np.max(np.abs(gram))), tol)
    else:
        rep.add("orthogonal_to_commutant", 0.0, tol)
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
