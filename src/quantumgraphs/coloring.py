"""Coloring and homomorphism certificates with their verifiers and the
constructive transformations between them.

A coloring certificate is a family of projections P_a in M (x) M_d summing
(over b-subsets of products, for fold b) to the identity and killing the
edge space: P_a (X (x) I) P_a = 0. Ancilla dimension 1 certifies an ordinary
local coloring; any finite d > 1 certifies a quantum one. Commuting-operator
variants admit no finite-dimensional certificate and are out of scope.

A certificate holds its operators as one read-only (count, rows, cols)
stack, and the constructions build and return theirs whole, verifying
none. The verifiers report rather than raise: no projections, or a
combine_bfold result that did not recompose, gives a failing report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

import numpy as np

from .classical import BFoldAssignment, ClassicalGraph
from .opspace import (DEFAULT_TOL, _hs_norms, _projection_residual, _worst,
                      adjoint, as_matrix, check_unitary, hs_norm, projection_meet)
# not called here; bench/test_spans.py patches it through this module
from .opspace import permute_systems  # noqa: F401
from .qgraph import BlockAlgebra, QuantumGraph, check_dense_size
from .report import VerificationFailure, VerificationReport


@dataclass(frozen=True)
class ColoringCertificate:
    """Projections P_a on (graph space) (x) (ancilla), one per color.

    Zero projections are legal placeholders (some constructions retire a
    color); prune them with :meth:`active_colors` before counting.
    """

    graph_dim: int
    ancilla_dim: int
    fold: int
    projections: np.ndarray

    def __post_init__(self):
        if self.graph_dim < 1 or self.ancilla_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.fold < 1:
            raise ValueError("fold must be >= 1")
        d = self.graph_dim * self.ancilla_dim
        object.__setattr__(self, "projections",
                           _frozen(self.projections, (d, d), "projection"))

    @property
    def colors(self) -> int:
        return len(self.projections)

    @property
    def total_dim(self) -> int:
        return self.graph_dim * self.ancilla_dim

    @property
    def strategy_type(self) -> str:
        """'loc' for ancilla dimension 1, else 'q'."""
        return "loc" if self.ancilla_dim == 1 else "q"

    def active_colors(self, tol: float = DEFAULT_TOL) -> list:
        return [a for a, p in enumerate(self.projections) if hs_norm(p) > tol]

    def pruned(self, tol: float = DEFAULT_TOL):
        """Certificate without zero projections, plus the index map
        new color -> original color."""
        keep = self.active_colors(tol)
        cert = ColoringCertificate(self.graph_dim, self.ancilla_dim, self.fold,
                                   self.projections[keep])
        return cert, keep

    def conjugated(self, u) -> "ColoringCertificate":
        """Certificate for the graph relabeled by the unitary u: every P_a
        becomes w* P_a w with w = u (x) I, in one stacked product."""
        u = check_unitary(u, self.graph_dim, "relabeling unitary")
        w = np.kron(u, np.eye(self.ancilla_dim))
        return ColoringCertificate(self.graph_dim, self.ancilla_dim, self.fold,
                                   w.conj().T @ self.projections @ w)


@dataclass(frozen=True)
class HomomorphismCertificate:
    """Kraus family F_i : H_src (x) H_anc -> H_dst witnessing a graph map.

    Conditions (checked by verify_homomorphism): sum_i F_i* F_i = I, every
    F_i (S_src (x) I) F_j* lands in S_dst, and every F_i (M_src' (x) I) F_j*
    lands in M_dst'.
    """

    source_dim: int
    target_dim: int
    ancilla_dim: int
    kraus: np.ndarray

    def __post_init__(self):
        shape = (self.target_dim, self.source_dim * self.ancilla_dim)
        object.__setattr__(self, "kraus", _frozen(self.kraus, shape, "Kraus"))


def _frozen(mats, shape: tuple, what: str) -> np.ndarray:
    """``mats``, a (count, *shape) stack or matrices each checked to have
    ``shape``, copied into one read-only complex (count, *shape) stack;
    (0, *shape) for none."""
    if not (isinstance(mats, np.ndarray) and mats.shape[1:] == shape):
        mats = [as_matrix(x) for x in mats]
        for m in mats:
            if m.shape != shape:
                raise ValueError("%s shape %r does not match %r"
                                 % (what, m.shape, shape))
    out = np.array(mats, dtype=np.complex128).reshape(-1, *shape)
    out.flags.writeable = False
    return out


def _lift(a: np.ndarray, b: np.ndarray, a_legs: tuple, b_legs: tuple) -> np.ndarray:
    """A_i (x) B_j over the stacks a on legs (graph_a, anc_a) and b on legs
    (graph_b, anc_b), paired by broadcasting their leading axes, with the
    legs in a certificate's product order (graph_a, graph_b, anc_a, anc_b).
    Each factor's row and column legs are spread over the axes of that order,
    so the one broadcast product is the output, which is refused past
    DENSE_BYTES_LIMIT before it is formed."""
    (ga, na), (gb, nb) = a_legs, b_legs
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    d = ga * na * gb * nb
    check_dense_size(16 * prod(lead) * d * d,
                     "the lifted stack of shape %r" % (lead + (d, d),))
    x = (a.reshape(a.shape[:-2] + (ga, 1, na, 1, ga, 1, na, 1))
         * b.reshape(b.shape[:-2] + (1, gb, 1, nb, 1, gb, 1, nb)))
    return x.reshape(lead + (d, d))


# ---------------------------------------------------------------------------
# verifiers

def _with_ancilla(stack: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """X (x) I_ancilla for each X of a (k, n, n) stack."""
    return _lift(stack, np.eye(ancilla_dim), (stack.shape[-1], 1), (1, ancilla_dim))


def _sandwich_residual(projs: np.ndarray, edge_ops: np.ndarray) -> float:
    """max_a || P_a (X (x) I) P_a || over the edge basis."""
    return float(np.max([_worst(p @ edge_ops @ p) for p in projs], initial=0.0))


def _commutators(p: np.ndarray) -> np.ndarray:
    """||P_i P_j - P_j P_i|| for every pair i < j, in np.triu_indices order;
    the stack of commutators is refused past DENSE_BYTES_LIMIT first."""
    shape = (comb(len(p), 2),) + p.shape[1:]
    check_dense_size(16 * prod(shape), "the commutator stack of shape %r" % (shape,))
    i, j = np.triu_indices(len(p), 1)
    return _hs_norms(p[i] @ p[j] - p[j] @ p[i])


def _subset_products(p: np.ndarray, k: int):
    """The k-subsets T of the colors in lexicographic order, as a (m, k)
    index array, and the stack of products Q_T = prod_{a in T} P_a with the
    factors in ascending order (immaterial once commutation holds), both
    refused past DENSE_BYTES_LIMIT before anything is enumerated."""
    c, d = p.shape[:2]
    m = comb(c, k)
    check_dense_size(m * (8 * k + 16 * d * d), "the stack of %d %d-subset "
                     "products (dimension %d)" % (m, k, d))
    subsets = np.array(list(combinations(range(c), k)),
                       dtype=np.intp).reshape(-1, k)
    q = p[subsets[:, 0]]
    for col in subsets.T[1:]:
        q = q @ p[col]
    return subsets, q


def _live_subsets(q: np.ndarray, edge_ops: np.ndarray) -> np.ndarray:
    """Indices of the subset products with a nonzero entry, or of all of them
    when q or edge_ops holds a non-finite entry: 0 * NaN is NaN, and that NaN
    must show in the pairwise check it reaches."""
    if np.isfinite(q).all() and np.isfinite(edge_ops).all():
        return np.flatnonzero(q.reshape(len(q), -1).any(axis=1))
    return np.arange(len(q))


def _pvm_pair_residuals(q: np.ndarray, member: np.ndarray,
                        edge_ops: np.ndarray) -> tuple:
    """max ||Q_S Q_T|| over S < T, and max ||Q_S (X (x) I) Q_T|| over
    overlapping S != T (member[S] marks the colors of S); 0.0 for no pair.
    The largest stack of one row's partners is refused past
    DENSE_BYTES_LIMIT before any pair is formed."""
    overlap = (member @ member.T) & ~np.eye(len(q), dtype=bool)
    shape = (int(overlap.sum(axis=1).max(initial=0)),) + edge_ops.shape
    check_dense_size(16 * prod(shape), "the PVM pair stack of shape %r" % (shape,))
    ortho = [_worst(q[s] @ q[s + 1:]) for s in range(len(q))]
    qcol = [_worst(q[s] @ edge_ops @ q[overlap[s]][:, None]) for s in range(len(q))]
    return np.max(ortho, initial=0.0), np.max(qcol, initial=0.0)


def _opened_report(graph: QuantumGraph, cert: ColoringCertificate, kind: str,
                   tol: float) -> VerificationReport:
    """The report both coloring verifiers open with, titled "<kind>coloring
    certificate": the checks that every P_a is a projection and lies in
    M (x) B(C^d). Raises when the certificate is for another graph
    dimension."""
    if graph.n != cert.graph_dim:
        raise ValueError("certificate graph dimension %d does not match graph %d"
                         % (cert.graph_dim, graph.n))
    rep = VerificationReport("%scoloring certificate (%d colors, type %s)"
                             % (kind, cert.colors, cert.strategy_type))
    p = cert.projections
    rep.add("projections", _projection_residual(p), tol)
    memb = graph.M.tensor(BlockAlgebra.full(cert.ancilla_dim)).basis()
    rep.add("algebra_membership", memb.max_residual(p), tol)
    return rep


def verify_coloring(graph: QuantumGraph, cert: ColoringCertificate,
                    tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify a fold-1 coloring certificate against a quantum graph."""
    if cert.fold != 1:
        raise ValueError("verify_coloring handles fold 1; use verify_bfold")
    rep = _opened_report(graph, cert, "", tol)
    p = cert.projections
    rep.add("sum_to_identity",
            hs_norm(p.sum(axis=0) - np.eye(cert.total_dim)), tol)
    rep.add("coloring_condition",
            _sandwich_residual(p, _with_ancilla(graph.S.basis, cert.ancilla_dim)),
            tol)
    return rep


def verify_bfold(graph: QuantumGraph, cert: ColoringCertificate,
                 tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify a b-fold coloring certificate against a quantum graph.

    Beyond the fold-1 checks this verifies pairwise commutation, the
    partition of identity over b-subset products, the induced subset PVM
    (projections, orthogonality, and the Q_S (X (x) I) Q_T = 0 condition for
    overlapping subsets; omitted when there are fewer colors than the fold),
    and vanishing of (b+1)-fold products. The pairwise PVM checks run over
    the k subsets whose product Q_S has a nonzero entry, one against all
    later or overlapping partners: time O(k^2 * dim S * d^3) and memory
    O(k * dim S * d^2). A passing certificate has k <= d, and a local one
    has as many as there are distinct vertex color sets; a skipped pair is
    exactly zero. A non-finite entry in the products or the edge basis
    keeps all C(c, b) subsets, so its NaN reaches every pair it touches.
    """
    b, c = cert.fold, cert.colors
    rep = _opened_report(graph, cert, "%d-fold " % b, tol)
    p = cert.projections
    rep.add("commutation", np.max(_commutators(p), initial=0.0), tol)

    subsets, q = _subset_products(p, b)
    rep.add("partition_of_identity",
            hs_norm(q.sum(axis=0) - np.eye(cert.total_dim)), tol)

    edge_ops = _with_ancilla(graph.S.basis, cert.ancilla_dim)
    rep.add("coloring_condition", _sandwich_residual(p, edge_ops), tol)

    if len(subsets):
        rep.add("pvm_projections", _projection_residual(q), tol)
        live = _live_subsets(q, edge_ops)
        member = (subsets[live, :, None] == np.arange(c)).any(axis=1)
        ortho, qcol = _pvm_pair_residuals(q[live], member, edge_ops)
        rep.add("pvm_orthogonality", ortho, tol)
        rep.add("pvm_coloring_condition", qcol, tol)

    _, long_products = _subset_products(p, b + 1)
    rep.add("long_products_vanish", _worst(long_products), tol)
    return rep


def verify_homomorphism(source: QuantumGraph, target: QuantumGraph,
                        cert: HomomorphismCertificate,
                        tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify a Kraus homomorphism certificate between quantum graphs."""
    if cert.source_dim != source.n or cert.target_dim != target.n:
        raise ValueError("certificate dimensions do not match the graphs")
    rep = VerificationReport("homomorphism certificate (%d Kraus, ancilla %d)"
                             % (len(cert.kraus), cert.ancilla_dim))
    d_in = cert.source_dim * cert.ancilla_dim
    fs = cert.kraus
    fs_adj = adjoint(fs)
    shape = (len(fs), d_in, d_in)
    check_dense_size(16 * prod(shape), "the Kraus product stack of shape %r" % (shape,))
    tp = (fs_adj @ fs).sum(axis=0) - np.eye(d_in)
    rep.add("trace_preserving", hs_norm(tp), tol)

    edge_ops = _with_ancilla(source.S.basis, cert.ancilla_dim)
    src_comm = source.M.commutant().basis()
    dst_comm = target.M.commutant().basis()
    yi = _with_ancilla(src_comm.basis, cert.ancilla_dim)
    # left @ Y @ right stacks F_i Y F_j* over all pairs (i, j) and all Y
    shape = (len(fs), len(fs), max(len(edge_ops), len(yi)), target.n, target.n)
    check_dense_size(16 * prod(shape), "the Kraus pair stack of shape %r" % (shape,))
    left, right = fs[:, None, None], fs_adj[None, :, None]
    rep.add("edge_space_mapped",
            target.S.max_residual(left @ edge_ops @ right), tol)
    rep.add("commutant_mapped", dst_comm.max_residual(left @ yi @ right), tol)
    return rep


# ---------------------------------------------------------------------------
# transformations between certificates

def pvm_from_bfold(cert: ColoringCertificate, tol: float = DEFAULT_TOL) -> tuple:
    """The subset PVM of a b-fold coloring: its b-subsets T as a (m, b) array
    in lexicographic order and the (m, d, d) stack of Q_T = prod_{a in T} P_a.
    Raises on the first pair of projections whose commutator is not within
    ``tol`` (a NaN commutator included)."""
    p = cert.projections
    bad = np.flatnonzero(~(_commutators(p) <= tol))
    if bad.size:
        i, j = np.triu_indices(cert.colors, 1)
        raise ValueError("projections %d and %d do not commute"
                         % (i[bad[0]], j[bad[0]]))
    return _subset_products(p, cert.fold)


def bfold_from_pvm(subsets, q, colors: int, fold: int, graph_dim: int,
                   ancilla_dim: int) -> ColoringCertificate:
    """Rebuild projections from a subset PVM: P_a = sum_{T contains a} Q_T
    over the rows T of the integer (m, k) array ``subsets`` and the (m, d, d)
    stack ``q``, d = graph_dim * ancilla_dim, added in row order. Both are
    checked, and the colors refused past DENSE_BYTES_LIMIT, before any sum."""
    subsets, q = np.asarray(subsets), np.asarray(q)
    d = graph_dim * ancilla_dim
    if subsets.dtype.kind not in "iu" or subsets.ndim != 2:
        raise ValueError("subsets must be an integer (m, k) array")
    if q.shape != (len(subsets), d, d):
        raise ValueError("q must have shape %r" % ((len(subsets), d, d),))
    if subsets.size and not 0 <= subsets.min() <= subsets.max() < colors:
        raise ValueError("a subset uses a color outside [0, %d)" % colors)
    shape = (colors, d, d)
    check_dense_size(16 * prod(shape), "the rebuilt colors of shape %r" % (shape,))
    projs = np.zeros(shape, dtype=np.complex128)
    np.add.at(projs, subsets, q[:, None])
    return ColoringCertificate(graph_dim, ancilla_dim, fold, projs)


def reduce_bfold(graph: QuantumGraph, cert: ColoringCertificate,
                 tol: float = DEFAULT_TOL):
    """Trade one fold for at least one color: a passing b-fold c-coloring
    yields a (b-1)-fold coloring on strictly fewer colors.

    Every b-subset T of the input's subset PVM drops its smallest color, and
    bfold_from_pvm sums the products back: P'_a is the sum of the Q_T whose
    T holds a and a smaller color. That is P_a less the running
    intersection T_a = P_a (I - sum_{m < a} T_m) = sum_{min T = a} Q_T of a
    passing certificate. Color 0 is the smallest color of every subset that
    holds it, so it always retires, and zero projections are pruned.
    Returns (certificate, mapping) where mapping[i] is the original color of
    new color i. The input is verified first and a failing input raises.
    """
    if cert.fold < 2:
        raise ValueError("reduce_bfold needs fold >= 2")
    rep = verify_bfold(graph, cert, tol)
    if not rep.passed:
        raise VerificationFailure("input certificate fails b-fold verification",
                                  rep)
    subsets, q = _subset_products(cert.projections, cert.fold)
    return bfold_from_pvm(subsets[:, 1:], q, cert.colors, cert.fold - 1,
                          cert.graph_dim, cert.ancilla_dim).pruned(tol)


def combine_bfold(graph: QuantumGraph, cert1: ColoringCertificate,
                  cert2: ColoringCertificate, tol: float = DEFAULT_TOL):
    """Join two fold certificates on the same graph into a
    (b1+b2)-fold coloring on the disjoint union of the palettes.

    The subset PVMs are embedded once each, as stacks with independent
    ancilla legs, and met pairwise in one call: Q_{S union (T+c1)} = (Q1_S
    tensored into legs (g, n1, n2)) meet (Q2_T likewise), added into its
    colors. The meet need not distribute over the sums that rebuild the
    P_a, so the certificate returned can fail verify_bfold: two copies of
    an entangled certificate cannot share one graph system. The embedded
    stacks, their meets and the colors are guarded by DENSE_BYTES_LIMIT.
    """
    if cert1.graph_dim != graph.n or cert2.graph_dim != graph.n:
        raise ValueError("certificates do not live on the given graph")
    s1, q1 = pvm_from_bfold(cert1, tol)
    s2, q2 = pvm_from_bfold(cert2, tol)
    n = graph.n
    d1, d2 = cert1.ancilla_dim, cert2.ancilla_dim
    c1, colors = cert1.colors, cert1.colors + cert2.colors
    dim, m = n * d1 * d2, len(q1) + len(q2) + len(q1) * len(q2) + colors
    check_dense_size(16 * m * dim * dim, "the stack of %d embedded subset "
                     "products, meets and colors (dimension %d)" % (m, dim))
    meets = projection_meet(_with_ancilla(q1, d2)[:, None],
                            _lift(np.eye(d1), q2, (1, d1), (n, d2))[None], tol)
    subsets = np.hstack([np.repeat(s1, len(s2), axis=0),
                         np.tile(s2 + c1, (len(s1), 1))])
    return bfold_from_pvm(subsets, meets.reshape(-1, dim, dim), colors,
                          cert1.fold + cert2.fold, n, d1 * d2)


def scale_bfold(graph: QuantumGraph, cert: ColoringCertificate, b: int,
                tol: float = DEFAULT_TOL) -> ColoringCertificate:
    """b palette-disjoint copies of a 1-fold coloring, joined into a b-fold
    one by b - 1 combine_bfold calls."""
    if cert.fold != 1:
        raise ValueError("scale_bfold expects a 1-fold certificate")
    if b < 1:
        raise ValueError("fold must be >= 1")
    if cert.graph_dim != graph.n:
        raise ValueError("certificates do not live on the given graph")
    out = cert
    for _ in range(b - 1):
        out = combine_bfold(graph, out, cert, tol)
    return out


def lexicographic_coloring(certG: ColoringCertificate,
                           certH: ColoringCertificate) -> ColoringCertificate:
    """Compose a b-fold c-coloring of G with a 1-fold b-coloring of H into a
    1-fold c-coloring of the lexicographic product.

    Each subset Q_T of G's PVM is paired with H's projection number
    rank_T(a) (the 1-based position of the color a in the ascending order
    of T): P_a = sum_{T contains a} Q_T (x) P^H_{rank_T(a)}, with legs
    arranged as (G, H, ancilla_G, ancilla_H). All the products are formed
    as one stack by _lift and summed into the colors by bfold_from_pvm. The
    color count equals certG.colors.
    """
    b = certG.fold
    if certH.fold != 1:
        raise ValueError("the H certificate must be 1-fold")
    if certH.colors != b:
        raise ValueError("H needs exactly %d colors (the fold of G), got %d"
                         % (b, certH.colors))
    subsets, q = pvm_from_bfold(certG)
    mg, dg = certG.graph_dim, certG.ancilla_dim
    mh, dh = certH.graph_dim, certH.ancilla_dim
    # blocks[s, r] = Q_T (x) P^H_r for the s-th subset T, whose r-th color
    # in ascending order is subsets[s, r]: a one-color subset of its own
    blocks = _lift(q[:, None], certH.projections[None], (mg, dg), (mh, dh))
    d = blocks.shape[-1]
    return bfold_from_pvm(subsets.reshape(-1, 1), blocks.reshape(-1, d, d),
                          certG.colors, 1, mg * mh, dg * dh)


def strong_coloring(certG: ColoringCertificate,
                    certH: ColoringCertificate) -> ColoringCertificate:
    """Product coloring of the strong product: one color per pair (a, b),
    projection P^G_a (x) P^H_b on legs (G, H, ancilla_G, ancilla_H).

    Also valid on the Cartesian product, whose edge space is contained in
    the strong one.
    """
    if certG.fold != 1 or certH.fold != 1:
        raise ValueError("strong_coloring expects 1-fold certificates")
    mg, dg = certG.graph_dim, certG.ancilla_dim
    mh, dh = certH.graph_dim, certH.ancilla_dim
    d = mg * mh * dg * dh
    projs = _lift(certG.projections[:, None], certH.projections[None],
                  (mg, dg), (mh, dh))
    return ColoringCertificate(mg * mh, dg * dh, 1, projs.reshape(-1, d, d))


def categorical_lift(certG: ColoringCertificate,
                     target_dim: int) -> ColoringCertificate:
    """Pull a coloring of G back along the first-factor projection of a
    categorical product: P_a (x) I on legs (G, H, ancilla)."""
    if certG.fold != 1:
        raise ValueError("categorical_lift expects a 1-fold certificate")
    mg, dg = certG.graph_dim, certG.ancilla_dim
    nh = int(target_dim)
    if nh < 1:
        raise ValueError("target dimension must be positive")
    projs = _lift(certG.projections, np.eye(nh), (mg, dg), (nh, 1))
    return ColoringCertificate(mg * nh, dg, 1, projs)


# ---------------------------------------------------------------------------
# canonical witnesses

def bell_coloring(n: int) -> ColoringCertificate:
    """The n^2 rank-one projections onto the shifted maximally entangled
    states (I (x) X^j Z^k)|Omega>, a coloring of the complete graph on M_n.

    Works because <Omega_jk| (A (x) I) |Omega_jk> = Tr(A)/n vanishes on the
    traceless edge space.
    """
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be positive")
    shift = np.zeros((n, n), dtype=np.complex128)
    for v in range(n):
        shift[(v + 1) % n, v] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    omega = np.zeros(n * n, dtype=np.complex128)
    for v in range(n):
        omega[v * n + v] = 1.0 / np.sqrt(n)
    eye = np.eye(n)
    projs = []
    for j in range(n):
        for k in range(n):
            w = np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
            vec = np.kron(eye, w) @ omega
            projs.append(np.outer(vec, vec.conj()))
    return ColoringCertificate(n, n, 1, tuple(projs))


def sabidussi_witness(g: QuantumGraph, h: QuantumGraph) -> HomomorphismCertificate:
    """Embedding of a factor into the Cartesian product.

    A single identity Kraus operator with the ancilla playing the right
    factor: X (x) I_anc is read as X (x) I_H, which lies in
    S_G (x) M_H' by construction. Exact for arbitrary quantum graphs.
    """
    d = g.n * h.n
    return HomomorphismCertificate(g.n, d, h.n,
                                   (np.eye(d, dtype=np.complex128),))


def hedetniemi_witness(g: QuantumGraph, h: QuantumGraph,
                       factor: int = 1) -> HomomorphismCertificate:
    """Projection of the categorical product onto one factor.

    Kraus family of slice maps: for the first factor, K_j = I_G (x) e_j*
    over the right factor's basis (no ancilla); symmetrically for the
    second.
    """
    ng, nh = g.n, h.n
    if factor == 1:
        fs = np.kron(np.eye(ng), np.eye(nh)[:, None])
        return HomomorphismCertificate(ng * nh, ng, 1, fs)
    if factor == 2:
        fs = np.kron(np.eye(ng)[:, None], np.eye(nh))
        return HomomorphismCertificate(ng * nh, nh, 1, fs)
    raise ValueError("factor must be 1 or 2")


def complete_lower_bound_extract(graph: QuantumGraph,
                                 cert: ColoringCertificate,
                                 tol: float = DEFAULT_TOL) -> VerificationReport:
    """Counting argument for complete graphs over a single-block algebra.

    For M = C (U (I_d (x) M_k) U*) and a passing b-fold certificate, the
    scaled partial traces R_a = (k/d) (Tr_graph (x) id)(P_a) (computed in
    the block's standard form) are projections summing to b k^2 I on the
    ancilla, which forces at least b * dim M = b k^2 colors. The report
    carries the idempotency, self-adjointness, and sum-rule residuals.
    """
    if len(graph.M.blocks) != 1:
        raise ValueError("extraction needs a single-block algebra, got %d blocks"
                         % len(graph.M.blocks))
    rep_in = verify_bfold(graph, cert, tol)
    if not rep_in.passed:
        raise VerificationFailure("certificate fails b-fold verification",
                                  rep_in)
    d, k = graph.M.blocks[0]
    n, dn = graph.n, cert.ancilla_dim
    u = graph.M.conjugator
    rep = VerificationReport("complete graph lower bound extraction "
                             "(block (%d, %d), fold %d)" % (d, k, cert.fold))
    p = (cert if u is None else cert.conjugated(u)).projections
    r = (k / d) * np.trace(p.reshape(-1, n, dn, n, dn), axis1=1, axis2=3)
    rep.add("idempotent", _worst(r @ r - r), tol)
    rep.add("self_adjoint", _worst(r - adjoint(r)), tol)
    rep.add("sum_rule", hs_norm(r.sum(axis=0) - cert.fold * k * k * np.eye(dn)),
            tol)
    rep.notes.append("a passing extraction forces colors >= fold * dim M = %d"
                     % (cert.fold * k * k))
    return rep


# ---------------------------------------------------------------------------
# classical bridge

def to_local_cert(graph: ClassicalGraph,
                  assignment: BFoldAssignment) -> ColoringCertificate:
    """Diagonal certificate of a classical b-fold coloring (ancilla 1)."""
    assignment.validate(graph)
    projs = tuple(np.diag([1.0 if a in s else 0.0 for s in assignment.assignment])
                  for a in range(assignment.palette_size))
    return ColoringCertificate(graph.vertex_count, 1, assignment.fold, projs)
