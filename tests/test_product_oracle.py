"""product() against the Kronecker-and-concatenate construction.

The reference forms each part with np.kron, concatenates the parts and
hands the family to orthonormalize, which tests its count x count Gram and
re-orthonormalizes it by SVD when that test fails. product() writes the
parts into one stack and reads the same test off the factors' Grams, so
every basis it returns must equal the reference's bitwise: on classical
pairs, on Haar-conjugated quantum factors (complex Grams), on edgeless
factors (empty parts) and on a factor whose S meets M', where the parts
overlap and both take the SVD route.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import products
from quantumgraphs.opspace import OperatorSubspace, orthonormalize

#: The paper's edge spaces, left factor first: "S" the edge space, "C" the
#: commutant M', "B" all of B(H).
PARTS = {
    "cartesian": (("S", "C"), ("C", "S")),
    "categorical": (("S", "S"),),
    "lexicographic": (("S", "B"), ("C", "S")),
    "strong": (("S", "C"), ("C", "S"), ("S", "S")),
}


def factor(g, which):
    if which == "S":
        return g.S.basis
    if which == "C":
        return g.M.commutant().basis().basis
    return np.eye(g.n * g.n, dtype=complex).reshape(-1, g.n, g.n)


def reference_product(g, h, kind):
    n = g.n * h.n
    parts = [np.kron(factor(g, a)[:, None], factor(h, b)[None]).reshape(-1, n, n)
             for a, b in PARTS[kind]]
    return qg.QuantumGraph(orthonormalize(np.concatenate(parts), ambient_dim=n),
                           g.M.tensor(h.M))


def assert_same(got, want, what):
    assert got.S.basis.shape == want.S.basis.shape, what
    assert np.array_equal(got.S.basis, want.S.basis), what
    assert got.M.blocks == want.M.blocks, what
    if want.M.conjugator is None:
        assert got.M.conjugator is None, what
    else:
        assert np.array_equal(got.M.conjugator, want.M.conjugator), what


@pytest.fixture
def orthonormalize_calls(monkeypatch):
    """The number of times product() fell back to orthonormalize."""
    calls = []

    def counted(mats, ambient_dim=None):
        calls.append(len(mats))
        return orthonormalize(mats, ambient_dim=ambient_dim)

    monkeypatch.setattr(products, "orthonormalize", counted)
    return calls


def check_pairs(factors, pairs):
    for (a, b), kind in itertools.product(pairs, qg.PRODUCT_KINDS):
        g, h = factors[a], factors[b]
        got = products.product(g, h, kind)
        assert_same(got, reference_product(g, h, kind), (a, b, kind))


def test_classical_pairs_match_bitwise(classical_corpus, orthonormalize_calls):
    factors = {name: qg.from_classical(g) for name, g in classical_corpus.items()}
    check_pairs(factors, itertools.product(factors, repeat=2))
    # every family of valid factors is orthonormal: no Gram over the family
    assert orthonormalize_calls == []


def test_haar_conjugated_quantum_factors_match_bitwise(haar, orthonormalize_calls):
    factors = {
        "Q2": qg.conjugate_graph(qg.complete_quantum_graph(qg.BlockAlgebra.full(2)),
                                 haar(2, 1)),
        "Q4": qg.conjugate_graph(qg.complete_quantum_graph(qg.BlockAlgebra([(2, 2)])),
                                 haar(4, 2)),
        "C4": qg.from_classical(qg.cycle(4)),
        "K2": qg.from_classical(qg.complete(2)),
    }
    pairs = [(a, b) for a, b in itertools.product(factors, repeat=2)
             if "Q" in a + b and factors[a].n * factors[b].n <= 16]
    check_pairs(factors, pairs)
    assert orthonormalize_calls == []


def test_edgeless_factors_give_empty_parts_bitwise(orthonormalize_calls):
    factors = {"E1": qg.from_classical(qg.ClassicalGraph(1, set())),
               "E3": qg.from_classical(qg.ClassicalGraph(3, set())),
               "P3": qg.from_classical(qg.path(3))}
    pairs = [(a, b) for a, b in itertools.product(factors, repeat=2) if "E" in a + b]
    check_pairs(factors, pairs)
    assert orthonormalize_calls == []
    e3 = factors["E3"]
    for kind in qg.PRODUCT_KINDS:
        assert products.product(e3, e3, kind).S.basis.shape == (0, 9, 9), kind


def test_overlapping_parts_take_the_svd_route_bitwise(orthonormalize_calls):
    """S = span{I / sqrt 2} over D_2 meets M' = D_2, so S_G (x) M_H' and
    M_G' (x) S_H share I (x) I: the family has a nonzero off-diagonal Gram
    block, is not orthonormal, and its span is smaller than its count."""
    overlap = qg.QuantumGraph(OperatorSubspace(2, [np.eye(2) / np.sqrt(2)]),
                              qg.BlockAlgebra.diagonal(2))
    factors = {"I": overlap, "K2": qg.from_classical(qg.complete(2))}
    check_pairs(factors, [("I", "I"), ("I", "K2"), ("K2", "I")])
    assert orthonormalize_calls
    p = products.product(overlap, overlap, "cartesian")
    assert p.S.dim == 3 < orthonormalize_calls[-1] == 4


@pytest.mark.parametrize("graph", [lambda: qg.random_graph(6, 0.5, 7),
                                   lambda: qg.cycle(5)], ids=["R6[R6]", "C5[C5]"])
def test_product_peaks_near_its_guarded_family(graph):
    """The family is the one stack product() allocates: its tracemalloc
    peak stays within 1.5 times the 16 count n^2 bytes its guard counts
    (about 1.06 and 1.12 times; 4.2 and 4.0 times with np.kron, the
    concatenation, the support columns and the constructor's copy)."""
    g = qg.from_classical(graph())
    tracemalloc.start()
    try:
        prod = products.product(g, g, "lexicographic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = prod.S.dim  # the parts of valid factors do not overlap
    assert peak <= 1.5 * 16 * count * prod.n ** 2, peak / (16 * count * prod.n ** 2)
