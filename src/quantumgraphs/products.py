"""The four quantum graph products and their classical cross-check.

Every product carries the tensor algebra M_G (x) M_H and an edge space built
from tensor factors; on classical embeddings each one reduces to the familiar
graph product under the vertex-pair identification, which classical_crosscheck
verifies directly.
"""

from __future__ import annotations

import numpy as np

from .classical import PRODUCT_KINDS, ClassicalGraph, classical_product
from .opspace import DEFAULT_TOL, OperatorSubspace, orthonormalize
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


def product(g: QuantumGraph, h: QuantumGraph, kind: str) -> QuantumGraph:
    """Build one of the four products of quantum graphs.

    The assembled spanning family is re-orthonormalized once at the end; for
    valid inputs its parts are already mutually orthogonal, so the computed
    dimension equals the exact counting formula for the kind. The family's
    size is known from the factors' dimensions, so an input whose family
    would exceed DENSE_BYTES_LIMIT raises SizeGuardError before any part
    is built.
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
    parts = [left[a].tensor(right[b]).basis for a, b in pairs]
    s = orthonormalize(np.concatenate(parts), ambient_dim=n)
    return QuantumGraph(s, g.M.tensor(h.M))


def cartesian(g: QuantumGraph, h: QuantumGraph) -> QuantumGraph:
    """S = S_G (x) M_H' + M_G' (x) S_H."""
    return product(g, h, "cartesian")


def categorical(g: QuantumGraph, h: QuantumGraph) -> QuantumGraph:
    """S = S_G (x) S_H."""
    return product(g, h, "categorical")


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
    here. The classical side is always built here, from classical_product.
    """
    rep = VerificationReport("classical product cross-check (%s)" % kind)
    if quantum is None:
        quantum = product(from_classical(g), from_classical(h), kind)
    prod_c = from_classical(classical_product(g, h, kind))

    for name, a, b in (("edge_space_match", quantum.S, prod_c.S),
                       ("algebra_match", quantum.M.basis(), prod_c.M.basis())):
        both = [a.max_residual(b.basis), b.max_residual(a.basis)]
        rep.add(name, np.max(both), tol)
    rep.add("edge_space_dimension", float(prod_c.S.dim != quantum.S.dim), tol)
    if kind == "lexicographic":
        rep.notes.append(LEXICOGRAPHIC_NOTE)
    return rep
