"""The four quantum graph products and their classical cross-check.

Every product carries the tensor algebra M_G (x) M_H and an edge space built
from tensor factors; on classical embeddings each one reduces to the familiar
graph product under the vertex-pair identification, which classical_crosscheck
verifies directly.
"""

from __future__ import annotations

import numpy as np

from .classical import PRODUCT_KINDS, ClassicalGraph, classical_product
from .opspace import (DEFAULT_TOL, ORTHONORMAL_TOL, OperatorSubspace, _kron_stack,
                      _residual_off, orthonormalize)
from .qgraph import QuantumGraph, check_dense_size, from_classical
from .report import VerificationReport

#: Shown whenever a lexicographic product is reported: the second summand of
#: its edge space uses the left factor's commutant, S = S_G (x) B(H_H)
#: + M_G' (x) S_H, which is what the chi_b upper bound construction needs.
LEXICOGRAPHIC_NOTE = ("lexicographic product: edge space is "
                      "S_G (x) B(H_H) + M_G' (x) S_H "
                      "(left factor's commutant in the second summand)")


#: The tensor factors of each product's edge space, left factor first: "S"
#: is a factor's edge space, "C" its commutant M' and "B" all of B(H).
_PART_FACTORS = {
    "cartesian": (("S", "C"), ("C", "S")),
    "categorical": (("S", "S"),),
    "lexicographic": (("S", "B"), ("C", "S")),
    "strong": (("S", "C"), ("C", "S"), ("S", "S")),
}


def _factor_dim(g: QuantumGraph, which: str) -> int:
    # M' has a block (k, m) for each block (m, k) of M, so dim M' = sum m^2
    commutant_dim = sum(m * m for m, _ in g.M.blocks)
    return {"S": g.S.dim, "C": commutant_dim, "B": g.n * g.n}[which]


def _factor(g: QuantumGraph, which: str) -> OperatorSubspace:
    if which == "S":
        return g.S
    if which == "C":
        return g.M.commutant().basis()
    return OperatorSubspace.full(g.n)


def _gram(x: OperatorSubspace, y: OperatorSubspace) -> np.ndarray:
    """<x_i, y_j> for the bases of two subspaces of one M_n."""
    return x._flat @ y._flat.conj().T


def _family_deviation(left: dict, right: dict, pairs) -> float:
    """max |Gram - I| of the family of parts left[a] (x) right[b], read off
    the factors' Grams: block (p, q) of the family's Gram is
    kron(G_L[a_p, a_q], G_R[b_p, b_q]). An off-diagonal block's largest
    entry is max|G_L| max|G_R|; a diagonal block kron(A, B) - I is
    A_ii B - I for i = k and A_ik B otherwise. Empty blocks count 0; a NaN
    or Inf in a factor reaches its Grams and the result."""
    def peak(x):
        return np.max(np.abs(x), initial=0.0)

    gl = {(a, c): _gram(left[a], left[c]) for a in left for c in left}
    gr = {(b, d): _gram(right[b], right[d]) for b in right for d in right}
    devs = []
    for p, (a, b) in enumerate(pairs):
        ga, gb = gl[a, a], gr[b, b]
        diag = np.diagonal(ga)
        devs += [peak(ga - np.diag(diag)) * peak(gb),
                 peak(diag[:, None, None] * gb - np.eye(len(gb)))]
        devs += [peak(gl[a, c]) * peak(gr[b, d]) for c, d in pairs[p + 1:]]
    return float(np.max(devs))


def product(g: QuantumGraph, h: QuantumGraph, kind: str) -> QuantumGraph:
    """Build one of the four products of quantum graphs.

    The spanning family is one (count, n, n) stack, count known from the
    factors' dimensions, so an input whose family would exceed
    DENSE_BYTES_LIMIT raises SizeGuardError before anything is built.
    Each part's products A_i (x) B_j are written into their slice of it by
    one broadcast multiplication. For valid inputs the parts are mutually
    orthogonal and the family is already orthonormal, so the computed
    dimension equals the exact counting formula for the kind. That is read
    off the factors' small Gram matrices, not the count x count Gram of the
    family: <A (x) B, C (x) D> = <A, C><B, D>, so block (p, q) of the
    family's Gram is kron(G_L[a_p, a_q], G_R[b_p, b_q]). When count <= n^2
    and every entry is within ORTHONORMAL_TOL of the identity's, the stack
    becomes the basis as it is and the call peaks at about the family's
    16 count n^2 bytes. Otherwise, or when a factor has a NaN or Inf entry
    (its Grams carry it), the family goes to orthonormalize, which
    re-orthonormalizes it by SVD or refuses the non-finite entry.
    """
    if kind not in _PART_FACTORS:
        raise ValueError("unknown product kind %r; expected one of %r"
                         % (kind, PRODUCT_KINDS))
    pairs = _PART_FACTORS[kind]
    n = g.n * h.n
    count = sum(_factor_dim(g, a) * _factor_dim(h, b) for a, b in pairs)
    check_dense_size(16 * count * n * n,
                     "the %s product's spanning family (%d matrices of dimension %d)"
                     % (kind, count, n))
    left = {a: _factor(g, a) for a, _ in pairs}
    right = {b: _factor(h, b) for _, b in pairs}
    family = np.empty((count, n, n), dtype=np.complex128)
    end = 0
    for a, b in pairs:
        start, end = end, end + left[a].dim * right[b].dim
        _kron_stack(left[a].basis, right[b].basis, out=family[start:end])
    if count <= n * n and _family_deviation(left, right, pairs) <= ORTHONORMAL_TOL:
        s = OperatorSubspace._adopt(n, family)
    else:
        s = orthonormalize(family, ambient_dim=n)
    return QuantumGraph(s, g.M.tensor(h.M))


def cartesian(g: QuantumGraph, h: QuantumGraph) -> QuantumGraph:
    """S = S_G (x) M_H' + M_G' (x) S_H."""
    return product(g, h, "cartesian")


def categorical(g: QuantumGraph, h: QuantumGraph) -> QuantumGraph:
    """S = S_G (x) S_H."""
    return product(g, h, "categorical")


def _span_residuals(s: OperatorSubspace, on: np.ndarray) -> list:
    """[S against the units of U, C^U against S]: the max_residual of S
    against the stack of matrix units at the positions U (``on``, a
    boolean mask over the n^2 flat positions), and that of C^U against the
    basis of S, bitwise, with no matrix unit formed when S is coordinate.
    A coordinate S is all of C^V, V its support, so a unit lies in it
    (0.0) or is orthogonal to it (1.0), and S lies in C^U (exactly 0.0, no
    pass over its basis) when V does. Otherwise S in C^U is the norm of S
    off U (_residual_off), and any other S projects the unit stack, which
    is guarded."""
    if s._coordinate:
        units_in = float(on[s._support[1]].any())
        if on[s._support[0]].all():
            return [units_in, 0.0]
    else:
        n, count = s.ambient_dim, int(np.count_nonzero(on))
        check_dense_size(16 * count * n * n,
                         "the %d matrix units of dimension %d" % (count, n))
        units = np.zeros((count, n * n), dtype=np.complex128)
        units[np.arange(count), np.flatnonzero(on)] = 1.0
        units_in = s.max_residual(units.reshape(count, n, n))
    return [units_in, _residual_off(s._flat, np.flatnonzero(~on))]


def classical_crosscheck(g: ClassicalGraph, h: ClassicalGraph, kind: str,
                         tol: float = DEFAULT_TOL,
                         quantum: QuantumGraph | None = None) -> VerificationReport:
    """Check that the quantum product of classical embeddings is the
    embedding of the classical product.

    Vertex (v, a) of the classical product has index v*nh + a, which is the
    Kronecker index of delta_v (x) delta_a, so both sides live on the same
    space and are compared by mutual containment without any relabeling.
    ``quantum`` carries product(from_classical(g), from_classical(h), kind)
    when the caller has built it already; without it the product is built
    here. The classical side is always built here, from classical_product,
    as boolean masks over the N^2 flat positions: the edge units E_uv and
    E_vu of its edges, and the diagonal of D_N. Its edge space and algebra
    are the coordinate spaces C^U of those positions, so each match reads
    supports (_span_residuals): on a coordinate quantum side, a unit off
    its support gives 1.0, and the quantum side lies in C^U, 0.0 with no
    pass over its basis, when its support does. Every residual is that of
    mutual max_residual against from_classical of the classical product,
    bitwise; only a quantum side that is not coordinate is projected, and
    only in the units direction. edge_space_dimension compares dim S with
    the count of edge positions.
    """
    rep = VerificationReport("classical product cross-check (%s)" % kind)
    if quantum is None:
        quantum = product(from_classical(g), from_classical(h), kind)
    n = g.vertex_count * h.vertex_count
    if quantum.n != n:
        raise ValueError("quantum product on dimension %d, classical on %d"
                         % (quantum.n, n))
    ends = np.array(list(classical_product(g, h, kind).edges), dtype=np.intp)
    u, v = ends.reshape(-1, 2).T
    edges = np.zeros((n, n), dtype=bool)
    edges[u, v] = edges[v, u] = True
    diagonal = np.eye(n, dtype=bool)

    for name, s, on in (("edge_space_match", quantum.S, edges),
                        ("algebra_match", quantum.M.basis(), diagonal)):
        rep.add(name, np.max(_span_residuals(s, on.ravel())), tol)
    rep.add("edge_space_dimension",
            float(np.count_nonzero(edges) != quantum.S.dim), tol)
    if kind == "lexicographic":
        rep.notes.append(LEXICOGRAPHIC_NOTE)
    return rep
