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

from . import qgraph
from .classical import BFoldAssignment, ClassicalGraph
from .opspace import (DEFAULT_TOL, RANK_CUTOFF, _hs_norms, _projection_residual,
                      _worst, adjoint, as_matrix, check_unitary, hs_norm,
                      projection_meet)
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

def _on_graph_leg(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """R (X (x) I_d) for the row blocks R of an (m, r, N) stack and the X of a
    (k, n, n) stack on the graph leg, d = N / n, as an (m, k, r, N) stack: the
    rows, split into graph and ancilla legs, meet the operators laid side by
    side in one matmul. Unguarded; its callers count what it holds."""
    (k, n), (m, r, big) = ops.shape[:2], rows.shape
    d = big // n
    legs = rows.reshape(m, r, n, d).transpose(0, 1, 3, 2).reshape(-1, n)
    x = legs @ ops.transpose(1, 0, 2).reshape(n, k * n)
    return x.reshape(m, r, d, k, n).transpose(0, 3, 1, 4, 2).reshape(m, k, r, big)


def _ranges(p: np.ndarray) -> tuple:
    """(A, B, top, lost) for a (c, N, N) stack, from each matrix's range:
    with the SVD P = U S V* and the singular values above RANK_CUTOFF *
    max(1, s_max) kept, A = S V* (c, R, N) and B = U S (c, N, R),
    zero-padded to the largest kept rank R; top is s_max and lost the
    largest dropped singular value, 0 for none.

    Then P Y Q = U_P (A_P Y B_Q) V_Q* for the kept parts of any square P
    and Q, and projecting onto them only shrinks P Y Q, so the dense
    ||P Y Q|| lies between ||A_P Y B_Q|| and it plus the bound ||Y||
    (lost_P top_Q + top_P lost_Q), ||Y|| the HS norm: the dropped part of
    P has operator norm lost_P. For Y = X (x) I_d, X on the graph leg,
    ||Y|| = sqrt(d) ||X||. On projections the bound is about 1e-16 ||Y||.
    A matrix with a non-finite entry is zeroed before the SVD and gets top
    NaN, so every bound and residual it enters is NaN, as 0 * NaN is in the
    dense product. The singular vectors and both ranges are refused past
    DENSE_BYTES_LIMIT before the SVD, at R = N."""
    c, n = p.shape[:2]
    check_dense_size(64 * c * n * n, "the singular vectors and ranges of %d "
                     "matrices of dimension %d" % (c, n))
    bad = ~np.isfinite(p).all(axis=(1, 2))
    u, s, vh = np.linalg.svd(np.where(bad[:, None, None], 0.0, p))
    keep = s > RANK_CUTOFF * np.maximum(1.0, s[:, :1])
    r = int(keep.sum(axis=1).max(initial=0))
    w = np.where(keep, s, 0.0)[:, :r]
    a = w[:, :, None] * vh[:, :r]
    b = u[:, :, :r] * w[:, None, :]
    top = np.where(bad, np.nan, s[:, 0])
    lost = np.where(keep, 0.0, s).max(axis=1, initial=0.0)
    return a, b, top, lost


def _range_sandwich(ranges: tuple, pairs: np.ndarray, ops: np.ndarray) -> float:
    """max over the pairs (s, t) and the operators X of ||P_s (X (x) I_d) P_t||,
    as ||A_s (X (x) I_d) B_t|| plus the bound of _ranges, sqrt(d) ||X||
    (lost_s top_t + top_s lost_t); 0.0 for no pair or no operator.

    ``ranges`` is what _ranges returns for a (c, N, N) stack, ``pairs`` a boolean
    (c, c) array true at the pairs (s, t), and ``ops`` a (k, n, n) stack on the
    graph leg, so d = N / n. The A_s of a chunk of rows meet the operators in one
    _on_graph_leg call, then the B_t of their partners, each row padded to the
    widest by repeating its last. The operators side by side and one row, twice
    over for its copies, indices and norms, are refused past DENSE_BYTES_LIMIT
    before any pair is formed; a chunk holds the rows that fit beside them."""
    a, b, top, lost = ranges
    k, n = ops.shape[:2]
    partners = pairs.sum(axis=1)
    rows = partners.nonzero()[0]
    if not (len(rows) and k):
        return 0.0
    r, big = a.shape[1:]
    d = big // n
    partners = partners[rows]
    wide = int(partners.max())
    side = 16 * k * n * n
    row = 32 * (r * ((k + 1) * big + wide * (big + k * r)) + 2 * wide)
    check_dense_size(side + row, "the range sandwich of %d operators of dimension "
                     "%d (rank %d, ancilla %d, up to %d pairs a row)"
                     % (k, n, r, d, wide))
    width = max(1, (qgraph.DENSE_BYTES_LIMIT - side) // row)
    xnorm = d ** 0.5 * _hs_norms(ops)

    def chunk(i, count):
        """The worst of the rows i, with count partners each; a call, so
        that one chunk's arrays are freed before the next is formed."""
        m, ends = len(i), count.cumsum()[:, None]
        t = pairs[i].nonzero()[1][np.minimum(ends - count[:, None] + np.arange(wide),
                                              ends - 1)]
        axb = _on_graph_leg(a[i], ops).reshape(m, 1, k * r, big) @ b[t]
        bound = lost[i, None] * top[t] + top[i, None] * lost[t]
        return (_hs_norms(axb.reshape(m, wide, k, r, r))
                + bound[..., None] * xnorm).max()

    worst = 0.0
    for lo in range(0, len(rows), width):
        worst = np.maximum(worst, chunk(rows[lo:lo + width], partners[lo:lo + width]))
    return float(worst)


def _commutators(p: np.ndarray) -> np.ndarray:
    """||P_i P_j - P_j P_i|| for every pair i < j, in np.triu_indices order;
    the stack of commutators is refused past DENSE_BYTES_LIMIT first. The
    pairs go in chunks whose two gathered factors and two products hold at
    most half the limit: a call at the limit holds about half its count
    besides the norms, and a count of at most an eighth of the limit is
    one chunk."""
    shape = (comb(len(p), 2),) + p.shape[1:]
    check_dense_size(16 * prod(shape), "the commutator stack of shape %r" % (shape,))
    i, j = np.triu_indices(len(p), 1)
    out = np.empty(len(i))
    width = max(1, qgraph.DENSE_BYTES_LIMIT // (128 * prod(shape[1:])))
    for lo in range(0, len(i), width):
        hi = lo + width
        x = p[i[lo:hi]] @ p[j[lo:hi]]
        x -= p[j[lo:hi]] @ p[i[lo:hi]]
        out[lo:hi] = _hs_norms(x)
    return out


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
    memb = graph.M.tensor(BlockAlgebra.full(cert.ancilla_dim))
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
            _range_sandwich(_ranges(p), np.eye(len(p), dtype=bool), graph.S.basis), tol)
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
    later or overlapping partners, on the ranges of rank at most r that
    _ranges gives, with each edge operator X acting on the graph leg of
    dimension n alone (d = n times the ancilla): time O(k dim S r d (n + k
    r)) after k SVDs, and memory O(dim S (n^2 + r d + k r^2)) for the
    widest row. Each residual adds the bound of _ranges, whose ||X (x) I||
    is sqrt(d / n) ||X||. A passing certificate has k <= d, and a local one
    has as many as there are distinct vertex color sets; a skipped pair is
    exactly zero. A non-finite entry in the products or the edge basis
    keeps all C(c, b) subsets, so its NaN reaches every pair it touches.
    """
    return _verify_bfold(graph, cert, tol)[0]


def _verify_bfold(graph: QuantumGraph, cert: ColoringCertificate,
                  tol: float) -> tuple:
    """verify_bfold's report, with the b-subsets and their products Q_T
    that it checked, as _subset_products returns them."""
    b, c = cert.fold, cert.colors
    rep = _opened_report(graph, cert, "%d-fold " % b, tol)
    p = cert.projections
    rep.add("commutation", np.max(_commutators(p), initial=0.0), tol)

    subsets, q = _subset_products(p, b)
    rep.add("partition_of_identity",
            hs_norm(q.sum(axis=0) - np.eye(cert.total_dim)), tol)

    edge_ops, ranges = graph.S.basis, _ranges(p)
    rep.add("coloring_condition",
            _range_sandwich(ranges, np.eye(c, dtype=bool), edge_ops), tol)

    # the long products and the PVM coloring condition, whose rows are the
    # widest, go before the orthogonality pairs: their guards refuse first
    long_products = _worst(_subset_products(p, b + 1)[1])
    if len(subsets):
        rep.add("pvm_projections", _projection_residual(q), tol)
        live = _live_subsets(q, edge_ops)
        check_dense_size(3 * len(live) ** 2, "the pair masks of %d live subset "
                         "products" % len(live))
        member = (subsets[live, :, None] == np.arange(c)).any(axis=1)
        overlap = (member @ member.T) & ~np.eye(len(live), dtype=bool)
        # at fold 1 the subset products are the colors, whose ranges are known
        ranges = [x[live] for x in ranges] if b == 1 else _ranges(q[live])
        qcol = _range_sandwich(ranges, overlap, edge_ops)
        rep.add("pvm_orthogonality", _range_sandwich(
            ranges, ~np.tri(len(live), dtype=bool), np.eye(graph.n)[None]), tol)
        rep.add("pvm_coloring_condition", qcol, tol)

    rep.add("long_products_vanish", long_products, tol)
    return rep, subsets, q


def verify_homomorphism(source: QuantumGraph, target: QuantumGraph,
                        cert: HomomorphismCertificate,
                        tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify a Kraus homomorphism certificate between quantum graphs. With
    the K operators read as one (K n_dst, d_in) matrix Phi, sum F_i* F_i =
    Phi* Phi, and F_i (Y (x) I) F_j* is block i of Phi (Y (x) I) times F_j*."""
    if cert.source_dim != source.n or cert.target_dim != target.n:
        raise ValueError("certificate dimensions do not match the graphs")
    rep = VerificationReport("homomorphism certificate (%d Kraus, ancilla %d)"
                             % (len(cert.kraus), cert.ancilla_dim))
    k, nt, d_in = cert.kraus.shape
    phi, adj = cert.kraus.reshape(k * nt, d_in), adjoint(cert.kraus)
    check_dense_size(16 * d_in * d_in, "the Kraus product of shape %r" % ((d_in, d_in),))
    rep.add("trace_preserving", hs_norm(adjoint(phi) @ phi - np.eye(d_in)), tol)

    edge_ops, units = source.S.basis, source.M.commutant().basis().basis
    m = max(len(edge_ops), len(units))
    check_dense_size(16 * m * k * nt * (k * nt + d_in), "the Kraus pair stack of "
                     "shape %r" % ((k, k, m, nt, nt),))
    # one expression each, so that Phi (Y (x) I) is freed before the residual
    for name, ops, space in (("edge_space_mapped", edge_ops, target.S),
                             ("commutant_mapped", units, target.M.commutant())):
        rep.add(name, space.max_residual(
            _on_graph_leg(phi[None], ops).reshape(len(ops), k, 1, nt, d_in) @ adj), tol)
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
    rep, subsets, q = _verify_bfold(graph, cert, tol)
    if not rep.passed:
        raise VerificationFailure("input certificate fails b-fold verification",
                                  rep)
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
    meets = projection_meet(_lift(q1, np.eye(d2), (n * d1, 1), (1, d2))[:, None],
                            _lift(np.eye(d1), q2, (1, d1), (n, d2))[None], tol)
    subsets = np.hstack([np.repeat(s1, len(s2), axis=0),
                         np.tile(s2 + c1, (len(s1), 1))])
    return bfold_from_pvm(subsets, meets.reshape(-1, dim, dim), colors,
                          cert1.fold + cert2.fold, n, d1 * d2)


def scale_bfold(graph: QuantumGraph, cert: ColoringCertificate,
                b: int) -> ColoringCertificate:
    """The repeated palette: color a + j c is P_a for j < b, on the 1-fold
    c-coloring's own ancilla. A passing input gives a passing output: the
    P'_x commute, the only nonzero b-subset products are Q_T = P_a for
    T = {a, a + c, ...} and sum to I, two live subsets overlap only when
    equal, and every (b+1)-subset holds two different base colors, so its
    product vanishes. The stack is refused past DENSE_BYTES_LIMIT first."""
    if cert.fold != 1:
        raise ValueError("scale_bfold expects a 1-fold certificate")
    if b < 1:
        raise ValueError("fold must be >= 1")
    if cert.graph_dim != graph.n:
        raise ValueError("certificates do not live on the given graph")
    shape = (b * cert.colors, cert.total_dim, cert.total_dim)
    check_dense_size(16 * prod(shape), "the repeated palette of shape %r" % (shape,))
    return ColoringCertificate(cert.graph_dim, cert.ancilla_dim, b,
                               np.tile(cert.projections, (b, 1, 1)))


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
    eye = np.eye(n)
    shift = np.roll(eye, 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    omega = eye.reshape(-1) / np.sqrt(n)
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
