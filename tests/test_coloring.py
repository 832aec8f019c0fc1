"""Coloring certificates: verifiers, constructive transformations, Bell family."""

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import coloring
from quantumgraphs.coloring import (
    ColoringCertificate, bell_coloring, bfold_from_pvm, categorical_lift,
    combine_bfold, complete_lower_bound_extract, lexicographic_coloring,
    pvm_from_bfold, reduce_bfold, scale_bfold, strong_coloring, to_local_cert,
    verify_bfold, verify_coloring)
from quantumgraphs.report import VerificationFailure, VerificationReport


def ok(rep):
    assert rep.passed, "\n%s" % rep


def k_n_coloring(n):
    """The obvious n-coloring of K_n as a diagonal certificate."""
    g = qg.complete(n)
    _, witness = qg.bfold_exact(g, 1)
    return qg.to_local_cert(g, witness)


def test_local_cert_round_trip(c5_two_fold):
    """Each vertex's diagonal entries give back its color set."""
    g = qg.cycle(5)
    _, witness = qg.bfold_exact(g, 2)
    diag = np.diagonal(c5_two_fold.projections, axis1=1, axis2=2)
    sets = tuple(frozenset(np.flatnonzero(d).tolist()) for d in diag.T)
    assert sets == witness.assignment
    ok(verify_bfold(qg.from_classical(g), c5_two_fold))


def test_local_cert_shape():
    cert = k_n_coloring(3)
    assert cert.strategy_type == "loc"
    assert cert.ancilla_dim == 1 and cert.fold == 1
    assert cert.colors == 3
    assert sorted(cert.active_colors()) == [0, 1, 2]


def test_verify_coloring_detects_bad_certificates():
    g = qg.from_classical(qg.complete(2))
    good = k_n_coloring(2)
    ok(verify_coloring(g, good))
    # same color on both endpoints of the edge
    same = ColoringCertificate(2, 1, 1, (np.eye(2, dtype=complex),
                                         np.zeros((2, 2), complex)))
    rep = verify_coloring(g, same)
    assert not rep.passed
    assert any("coloring" in c.name for c in rep.failures())
    # projections that do not sum to the identity
    short = ColoringCertificate(2, 1, 1, (good.projections[0],
                                          np.zeros((2, 2), complex)))
    rep = verify_coloring(g, short)
    assert any("identity" in c.name for c in rep.failures())
    # not a projection at all
    tilted = ColoringCertificate(2, 1, 1, (0.5 * np.eye(2, dtype=complex),
                                           0.5 * np.eye(2, dtype=complex)))
    rep = verify_coloring(g, tilted)
    assert any("projection" in c.name for c in rep.failures())


def test_nan_entry_fails_the_coloring_condition(c5_two_fold):
    # Python's max(0.0, nan) is 0.0; the aggregation must keep the NaN
    g = qg.from_classical(qg.cycle(5))
    projs = [p.copy() for p in c5_two_fold.projections]
    projs[0][0, 0] = np.nan
    for fold, verify in ((2, verify_bfold), (1, verify_coloring)):
        cert = ColoringCertificate(5, 1, fold, tuple(projs))
        rep = verify(g, cert)
        check = next(c for c in rep.checks if c.name == "coloring_condition")
        assert np.isnan(check.residual) and not check.passed
        assert np.isnan(rep.max_residual)
        assert not rep.passed
        assert rep.lines()[-1] == "result: FAIL"


def test_certificate_validation_and_immutability():
    with pytest.raises(ValueError):
        ColoringCertificate(2, 1, 1, (np.eye(3, dtype=complex),))
    with pytest.raises(ValueError):
        ColoringCertificate(2, 1, 0, (np.eye(2, dtype=complex),))
    cert = k_n_coloring(2)
    with pytest.raises(ValueError):
        cert.projections[0][0, 0] = 5.0


def test_verify_bfold_on_exact_witness(c5_two_fold):
    g = qg.from_classical(qg.cycle(5))
    rep = verify_bfold(g, c5_two_fold)
    ok(rep)
    assert rep.max_residual < 1e-12


def test_verify_bfold_catches_shared_color():
    g = qg.cycle(3)
    bad = qg.BFoldAssignment(4, 2, (frozenset({0, 1}), frozenset({1, 2}),
                                    frozenset({2, 3})))
    # adjacent vertices share colors, so build the cert by hand
    projections = []
    for color in range(4):
        p = np.zeros((3, 3), complex)
        for v, s in enumerate(bad.assignment):
            if color in s:
                p[v, v] = 1.0
        projections.append(p)
    cert = ColoringCertificate(3, 1, 2, tuple(projections))
    rep = verify_bfold(qg.from_classical(g), cert)
    assert not rep.passed


def test_unitary_invariance_of_bfold_certificates(c5_two_fold, haar):
    g = qg.from_classical(qg.cycle(5))
    u = haar(5, seed=21)
    moved = qg.conjugate_graph(g, u)
    ok(verify_bfold(moved, c5_two_fold.conjugated(u)))


def test_relabeling_by_a_non_unitary_raises(c5_two_fold, haar):
    g = qg.from_classical(qg.cycle(5))
    u = 1.5 * haar(5, seed=21)
    with pytest.raises(ValueError, match="not unitary"):
        c5_two_fold.conjugated(u)
    with pytest.raises(ValueError, match="not unitary"):
        qg.conjugate_graph(g, u)
    with pytest.raises(ValueError, match="not unitary"):
        qg.BlockAlgebra.diagonal(5).conjugated_by(u)
    with pytest.raises(ValueError, match="does not match"):
        c5_two_fold.conjugated(haar(4, seed=21))


def test_pvm_round_trip(c5_two_fold):
    subsets, q = pvm_from_bfold(c5_two_fold)
    assert subsets.shape == (10, 2) and q.shape == (10, 5, 5)
    assert [tuple(t) for t in subsets.tolist()] == sorted(
        (a, b) for a in range(5) for b in range(a + 1, 5))
    rebuilt = bfold_from_pvm(subsets, q, c5_two_fold.colors, c5_two_fold.fold,
                             c5_two_fold.graph_dim, c5_two_fold.ancilla_dim)
    assert rebuilt.projections.shape == c5_two_fold.projections.shape
    assert np.max(np.abs(rebuilt.projections - c5_two_fold.projections)) < 1e-12


@pytest.mark.parametrize("subsets, q, match", [
    (np.zeros((1, 2)), np.zeros((1, 2, 2)), "integer"),
    (np.zeros((1, 2), dtype=bool), np.zeros((1, 2, 2)), "integer"),
    (np.zeros(2, dtype=int), np.zeros((2, 2, 2)), "integer"),
    (np.array([[0, -1]]), np.zeros((1, 2, 2)), "outside"),
    (np.array([[0, 10 ** 8]]), np.zeros((1, 2, 2)), "outside"),
    (np.array([[0, 1], [1, 2]]), np.zeros((1, 2, 2)), "shape"),
    (np.array([[0, 1]]), np.zeros((1, 2, 3)), "shape"),
    (np.array([[0, 1]]), np.zeros((1, 3, 3)), "shape")],
    ids=["float", "bool", "one-dim", "negative", "past-the-palette",
         "rows", "not-square", "wrong-dimension"])
def test_bfold_from_pvm_rejects_malformed_families(subsets, q, match):
    """Each is refused with a ValueError before the colors are formed: the
    palette of 10**8 colors of dimension 2 (6 GiB) is past the dense guard,
    so a check that came after the guard would raise SizeGuardError instead,
    and np.add.at would wrap a negative color silently."""
    with pytest.raises(ValueError, match=match):
        bfold_from_pvm(subsets, q, 10 ** 8, 2, 2, 1)


def test_pvm_from_bfold_needs_commuting_projections():
    e00 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    skew = ColoringCertificate(2, 1, 2, (e00, plus))
    with pytest.raises(ValueError):
        pvm_from_bfold(skew)


def test_reduce_bfold_drops_a_color(c5_two_fold):
    g = qg.from_classical(qg.cycle(5))
    reduced, kept = reduce_bfold(g, c5_two_fold)
    assert reduced.fold == 1
    assert reduced.colors < c5_two_fold.colors
    assert list(kept) == sorted(kept)
    assert set(kept) <= set(range(c5_two_fold.colors))
    ok(verify_coloring(g, reduced))


def test_reduce_bfold_rejects_fold_one(c5_two_fold):
    g = qg.from_classical(qg.cycle(5))
    fold1, _ = reduce_bfold(g, c5_two_fold)
    with pytest.raises(ValueError):
        reduce_bfold(g, fold1)


def test_reduce_bfold_verifies_its_input():
    g = qg.from_classical(qg.complete(2))
    junk = ColoringCertificate(2, 1, 2, (np.eye(2, dtype=complex),
                                         np.eye(2, dtype=complex),
                                         np.zeros((2, 2), complex)))
    with pytest.raises(VerificationFailure):
        reduce_bfold(g, junk)


def test_scale_bfold_stacks_disjoint_palettes():
    g = qg.from_classical(qg.complete(3))
    scaled = scale_bfold(g, k_n_coloring(3), 2)
    assert scaled.fold == 2 and scaled.colors == 6
    ok(verify_bfold(g, scaled))
    same = scale_bfold(g, k_n_coloring(3), 1)
    assert same.colors == 3
    ok(verify_bfold(g, same))
    with pytest.raises(ValueError, match="do not live on the given graph"):
        scale_bfold(qg.from_classical(qg.cycle(5)), k_n_coloring(3), 1)


def test_combine_bfold_on_disjoint_palettes(c5_two_fold):
    g = qg.from_classical(qg.cycle(5))
    _, w = qg.bfold_exact(qg.cycle(5), 1)
    three = qg.to_local_cert(qg.cycle(5), w)
    combined = combine_bfold(g, c5_two_fold, three)
    assert combined.fold == 3
    assert combined.graph_dim == 5
    ok(verify_bfold(g, combined))


def test_combine_bfold_can_fail_legitimately(bell2):
    # two copies of a maximally entangled coloring cannot share the graph
    # system, so the meet loses the partition property
    g = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    cert = combine_bfold(g, bell2, bell2)
    rep = verify_bfold(g, cert)
    assert not rep.passed
    assert "partition_of_identity" in [c.name for c in rep.failures()]
    assert cert.fold == 2


def test_lexicographic_coloring_composes(c5_two_fold):
    ch = k_n_coloring(2)  # colors match the outer fold
    cert = lexicographic_coloring(c5_two_fold, ch)
    target = qg.product(qg.from_classical(qg.cycle(5)),
                        qg.from_classical(qg.complete(2)), "lexicographic")
    ok(verify_coloring(target, cert))
    assert len(cert.active_colors()) == 5
    pruned, kept = cert.pruned()
    assert pruned.colors == 5
    ok(verify_coloring(target, pruned))


def test_lexicographic_coloring_checks_palette_match(c5_two_fold):
    with pytest.raises(ValueError):
        lexicographic_coloring(c5_two_fold, k_n_coloring(3))


def test_strong_coloring_pairs_palettes():
    cg = k_n_coloring(3)
    ch = k_n_coloring(2)
    cert = strong_coloring(cg, ch)
    assert cert.colors == 6
    g3 = qg.from_classical(qg.complete(3))
    g2 = qg.from_classical(qg.complete(2))
    ok(verify_coloring(qg.product(g3, g2, "strong"), cert))
    # the cartesian product is a subgraph, so the same certificate colors it
    ok(verify_coloring(qg.cartesian(g3, g2), cert))


def test_categorical_lift_pulls_back_along_a_factor():
    cg = k_n_coloring(3)
    lifted = categorical_lift(cg, 4)
    g = qg.from_classical(qg.complete(3))
    h = qg.from_classical(qg.cycle(4))
    ok(verify_coloring(qg.categorical(g, h), lifted))
    assert lifted.colors == cg.colors


def test_bell_coloring_structure(bell2, bell3):
    for n, cert in ((2, bell2), (3, bell3)):
        assert cert.colors == n * n
        assert cert.graph_dim == n and cert.ancilla_dim == n
        assert cert.strategy_type == "q"
        for p in cert.projections:
            assert abs(np.trace(p) - 1) < 1e-12  # rank one
        total = sum(cert.projections)
        assert np.allclose(total, np.eye(n * n), atol=1e-12)


def test_bell_coloring_verifies(bell2):
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    rep = verify_coloring(graph, bell2)
    ok(rep)
    assert rep.max_residual < 1e-12


def test_bell_coloring_fails_on_too_large_edge_space(bell2):
    # the same projections cannot color a complete graph over a larger algebra
    # on the same space unless the edge space shrinks; build the mismatch by
    # checking against the wrong ambient algebra
    wrong = qg.complete_quantum_graph(qg.BlockAlgebra.diagonal(2))
    rep = verify_coloring(wrong, bell2)
    assert not rep.passed


def test_complete_lower_bound_extract(bell2):
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    rep = complete_lower_bound_extract(graph, bell2)
    ok(rep)
    assert rep.max_residual < 1e-8
    assert any("colors >=" in note for note in rep.notes)


def test_complete_lower_bound_extract_rejects_bad_input(bell2):
    two_blocks = qg.complete_quantum_graph(qg.BlockAlgebra.diagonal(2))
    with pytest.raises(ValueError):
        complete_lower_bound_extract(two_blocks, bell2)
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    broken = ColoringCertificate(2, 2, 1, [*bell2.projections[:3],
                                           np.zeros((4, 4), complex)])
    assert broken.colors == 4
    with pytest.raises(VerificationFailure):
        complete_lower_bound_extract(graph, broken)


def test_extract_keeps_a_nan_residual(bell2, monkeypatch):
    # Python's max(0.0, nan) is 0.0; the aggregation must keep the NaN. The
    # b-fold gate would stop a NaN certificate first, so it is bypassed here.
    monkeypatch.setattr(coloring, "verify_bfold",
                        lambda *args: VerificationReport("gate bypassed"))
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    projs = [p.copy() for p in bell2.projections]
    projs[1][0, 0] = np.nan
    rep = complete_lower_bound_extract(graph, ColoringCertificate(2, 2, 1, tuple(projs)))
    for name in ("idempotent", "self_adjoint"):
        check = next(c for c in rep.checks if c.name == name)
        assert np.isnan(check.residual) and not check.passed
    assert not rep.passed


def test_extract_is_unitarily_covariant(bell2, haar):
    # conjugating the graph and certificate together keeps the sum rule exact
    u = haar(2, seed=5)
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2).conjugated_by(u))
    rep = complete_lower_bound_extract(graph, bell2.conjugated(u))
    ok(rep)
