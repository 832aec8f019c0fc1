"""Quantum graph products and the classical cross-check."""

import tracemalloc

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import products
from quantumgraphs.opspace import orthonormalize, permute_systems
from quantumgraphs.products import (
    LEXICOGRAPHIC_NOTE, classical_crosscheck, product)
from quantumgraphs.qgraph import (
    DENSE_BYTES_LIMIT, _adjoint_residual, _bimodule_residual, _frame, check_dense_size)


def embedded(g):
    return qg.from_classical(g)


def test_edge_space_dimension_matches_classical_edge_count():
    # |ordered edges of the classical product| is an independent oracle for
    # dim S of the quantum product of two embeddings, for every kind
    g, h = qg.cycle(5), qg.path(3)
    for kind in qg.PRODUCT_KINDS:
        p = product(embedded(g), embedded(h), kind)
        expected = 2 * qg.classical_product(g, h, kind).edge_count
        assert p.S.dim == expected, kind


def test_products_pass_axioms_smoke():
    pairs = [(qg.cycle(5), qg.complete(2)), (qg.path(3), qg.cycle(4))]
    for g, h in pairs:
        for kind in qg.PRODUCT_KINDS:
            p = product(embedded(g), embedded(h), kind)
            rep = qg.verify_quantum_graph(p)
            assert rep.passed, "%s\n%s" % (kind, rep)


def test_product_algebra_is_tensor_of_factors():
    g = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    h = embedded(qg.complete(2))
    p = product(g, h, "strong")
    assert p.n == 4
    assert p.M.equals(g.M.tensor(h.M))


def test_containment_order_between_kinds():
    # right factor must not be complete or strong and lexicographic coincide
    g, h = embedded(qg.cycle(4)), embedded(qg.path(3))
    built = {kind: product(g, h, kind) for kind in qg.PRODUCT_KINDS}
    assert qg.is_subgraph(built["cartesian"], built["strong"])
    assert qg.is_subgraph(built["categorical"], built["strong"])
    assert qg.is_subgraph(built["strong"], built["lexicographic"])
    assert not qg.is_subgraph(built["lexicographic"], built["strong"])


def test_lexicographic_by_complete_equals_strong():
    g, h = embedded(qg.cycle(4)), embedded(qg.complete(2))
    lex = product(g, h, "lexicographic")
    strong = product(g, h, "strong")
    assert lex.S.equals_span(strong.S)


@pytest.mark.parametrize("kind", ["cartesian", "categorical", "strong"])
def test_symmetric_kinds_commute_up_to_leg_swap(kind):
    g, h = embedded(qg.cycle(5)), embedded(qg.path(3))
    gh = product(g, h, kind)
    hg = product(h, g, kind)
    swapped = orthonormalize([permute_systems(m, [5, 3], [1, 0])
                              for m in gh.S.basis], ambient_dim=15)
    assert swapped.equals_span(hg.S)


def test_lexicographic_is_not_symmetric():
    g, h = embedded(qg.cycle(5)), embedded(qg.complete(2))
    assert product(g, h, "lexicographic").S.dim == 50
    assert product(h, g, "lexicographic").S.dim == 70


def test_k1_is_neutral_where_it_should_be():
    k1 = embedded(qg.complete(1))
    h = embedded(qg.cycle(4))
    for kind in ("cartesian", "lexicographic", "strong"):
        p = product(k1, h, kind)
        assert p.S.equals_span(h.S), kind
    # the edgeless factor kills every categorical edge
    assert product(k1, h, "categorical").S.dim == 0


def test_product_with_noncommutative_factor():
    g = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    h = embedded(qg.complete(2))
    for kind in qg.PRODUCT_KINDS:
        rep = qg.verify_quantum_graph(product(g, h, kind))
        assert rep.passed, "%s\n%s" % (kind, rep)
    assert product(g, h, "cartesian").S.dim == 3 * 2 + 1 * 2


def test_unknown_kind_rejected():
    g = embedded(qg.complete(2))
    with pytest.raises(ValueError):
        product(g, g, "modular")


def test_classical_crosscheck_passes_on_all_kinds():
    g, h = qg.cycle(5), qg.complete(2)
    for kind in qg.PRODUCT_KINDS:
        rep = classical_crosscheck(g, h, kind)
        assert rep.passed, "%s\n%s" % (kind, rep)
        assert rep.max_residual < 1e-9
    lex = classical_crosscheck(g, h, "lexicographic")
    assert any(LEXICOGRAPHIC_NOTE in note for note in lex.notes)


def test_classical_crosscheck_catches_a_wrong_identification():
    # the categorical edge space is not the cartesian one, so checking one
    # against the other must fail
    g, h = qg.cycle(5), qg.complete(2)
    quantum = product(embedded(g), embedded(h), "categorical")
    classical = qg.from_classical(qg.classical_product(g, h, "cartesian"))
    assert not quantum.S.equals_span(classical.S)


def test_classical_crosscheck_fails_on_another_kinds_product(monkeypatch):
    # both sides share one vertex indexing, so a wrong classical side must
    # show up as an edge space mismatch rather than be conjugated away
    real = products.classical_product
    monkeypatch.setattr(products, "classical_product",
                        lambda g, h, kind: real(g, h, "strong"))
    rep = classical_crosscheck(qg.cycle(5), qg.path(3), "cartesian")
    assert not rep.passed
    assert "edge_space_match" in [c.name for c in rep.failures()]


def test_classical_crosscheck_fails_on_a_relabeled_product(monkeypatch):
    real = products.classical_product
    g, h = qg.cycle(5), qg.path(3)
    perm = np.random.default_rng(22).permutation(15)
    assert not np.array_equal(perm, np.arange(15))

    def relabeled(g, h, kind):
        p = real(g, h, kind)
        edges = {(int(perm[u]), int(perm[v])) for u, v in p.edges}
        return qg.ClassicalGraph(p.vertex_count, edges)

    monkeypatch.setattr(products, "classical_product", relabeled)
    for kind in qg.PRODUCT_KINDS:
        rep = classical_crosscheck(g, h, kind)
        assert not rep.passed, kind
        assert "edge_space_match" in [c.name for c in rep.failures()], kind


def test_dense_size_guard_boundary():
    check_dense_size(DENSE_BYTES_LIMIT, "at the limit")
    with pytest.raises(qg.SizeGuardError, match="one byte over"):
        check_dense_size(DENSE_BYTES_LIMIT + 1, "one byte over")


@pytest.mark.parametrize("kind", qg.PRODUCT_KINDS)
def test_product_of_two_k36_trips_the_guard_before_allocating(kind):
    k36 = embedded(qg.complete(36))
    tracemalloc.start()
    try:
        with pytest.raises(qg.SizeGuardError, match="%s product" % kind):
            product(k36, k36, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the smallest part alone would be about 2 TB


@pytest.fixture(scope="module")
def r6_lex():
    """R6[R6]: ambient dimension 36, dim S 756."""
    r6 = qg.random_graph(6, 0.5, 7)
    return r6, product(embedded(r6), embedded(r6), "lexicographic")


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn() runs, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ambient_36_lexicographic_product_verifies(r6_lex):
    """R6[R6] at ambient dimension 36, which the dense bimodule stack
    (about 1.2 GB) kept out of reach."""
    r6, p = r6_lex
    assert p.n == 36
    assert p.S.dim == 2 * r6.edge_count * 36 + 6 * 2 * r6.edge_count
    rep = qg.verify_quantum_graph(p)
    assert rep.passed, "\n%s" % rep
    assert [c.name for c in rep.checks] == [
        "adjoint_closed", "bimodule", "orthogonal_to_commutant"]


def test_ambient_36_verify_peak_memory(r6_lex):
    """S of R6[R6] is coordinate: its 756 matrix units cover exactly the
    u = 756 of 1296 coordinates where the basis is nonzero, so both checks
    mask onto that support and multiply nothing. The support is symmetric,
    so the adjoint check returns before it gathers anything (about 13 KiB
    of positions); the bimodule check, over the diagonal commutant, returns
    before its masks (about 0.5 KiB); and the orthogonality check gathers
    and sums the diagonals of the basis (about 1 MiB) with no basis of the
    commutant, so the verify peaks at about 1.1 MiB. When the adjoint check gathered the
    basis at the transposes of the 540 coordinates off the support (6.2
    MiB) it peaked at 7.0 MiB; with the adjoint stack (15 MiB) and its
    columns off the support (6 MiB) at 21.9 MiB, and with a projection in
    both checks at 39.4 MiB, 38.6 MiB in the adjoint check (the basis, its
    conjugate and the coefficients) and 26.2 MiB in the bimodule check (the
    projector's n^2 u entries)."""
    _, p = r6_lex
    assert p.S._coordinate
    commutant = p.M.commutant()
    frame = _frame(p.S, commutant)
    assert frame.factor is None
    verify_peak = traced_peak(lambda: qg.verify_quantum_graph(p))
    adjoint_peak = traced_peak(lambda: _adjoint_residual(p.S, frame))
    bimodule_peak = traced_peak(lambda: _bimodule_residual(p.S, commutant, frame))
    assert verify_peak < 2 * 2 ** 20, verify_peak
    assert adjoint_peak < 2 ** 16, adjoint_peak
    assert bimodule_peak < 2 ** 16, bimodule_peak


def test_verify_peak_memory_stays_far_below_the_product_stack():
    """With the dense bimodule stack (25 * 300 matrices of 25 x 25 per
    side) this verify peaked at about 252 MiB under tracemalloc; the
    slice-based check needs about 15 MiB."""
    c5 = embedded(qg.cycle(5))
    p = product(c5, c5, "lexicographic")
    tracemalloc.start()
    try:
        assert qg.verify_quantum_graph(p).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
