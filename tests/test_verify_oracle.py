"""The stacked certificate verifiers against a per-pair reference.

``oracle_verify_coloring`` and ``oracle_verify_bfold`` below are the
straightforward verifiers: one Python loop per projection, per pair of
projections and per pair of subset products. The package verifies each
certificate as one (colors, d, d) stack instead; both must give the same
check names in the same order, the same verdicts, and the same residuals up
to rounding, NaN for NaN: within 1e-12 relative, or 1e-14 absolute for
residuals at rounding level, since the package takes membership from the
conditional expectation and the coloring conditions on each operator's
range, where the reference projects onto a basis and forms P X Q densely.
"""

from itertools import combinations
from math import comb

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import coloring, serialize as ser
from quantumgraphs.cli import EXIT_VERIFY, main
from quantumgraphs.coloring import ColoringCertificate, verify_bfold, verify_coloring
from quantumgraphs.opspace import DEFAULT_TOL, hs_norm
from quantumgraphs.report import VerificationReport

RTOL = 1e-12
ATOL = 1e-14


# ---------------------------------------------------------------------------
# per-pair reference verifiers

def _edge_with_ancilla(graph, ancilla_dim):
    d = graph.n * ancilla_dim
    mats = [np.kron(x, np.eye(ancilla_dim)) for x in graph.S.basis]
    return np.array(mats, dtype=np.complex128).reshape(-1, d, d)


def _membership(graph, cert):
    return graph.M.tensor(qg.BlockAlgebra.full(cert.ancilla_dim)).basis()


def _projection_residual(projs):
    res = [0.0]
    for p in projs:
        res += [hs_norm(p @ p - p), hs_norm(p - p.conj().T)]
    return np.max(res)


def _edge_norms(left, edge_ops, right):
    """||L X R|| for every edge basis element X; [0.0] for none."""
    return list(np.linalg.norm(left @ edge_ops @ right, axis=(1, 2))) + [0.0]


def _sandwich(projs, edge_ops):
    return np.max([0.0] + [np.max(_edge_norms(p, edge_ops, p)) for p in projs])


def _products(projs, fold):
    out = []
    for t in combinations(range(len(projs)), fold):
        q = projs[t[0]]
        for a in t[1:]:
            q = q @ projs[a]
        out.append((t, q))
    return out


def _stack(cert):
    d = cert.total_dim
    return np.array(cert.projections, dtype=np.complex128).reshape(-1, d, d)


def oracle_verify_coloring(graph, cert, tol=DEFAULT_TOL):
    rep = VerificationReport("oracle")
    projs = list(cert.projections)
    rep.add("projections", _projection_residual(projs), tol)
    rep.add("algebra_membership", _membership(graph, cert).max_residual(_stack(cert)), tol)
    total = sum(projs, np.zeros((cert.total_dim, cert.total_dim), complex))
    rep.add("sum_to_identity", hs_norm(total - np.eye(cert.total_dim)), tol)
    rep.add("coloring_condition",
            _sandwich(projs, _edge_with_ancilla(graph, cert.ancilla_dim)), tol)
    return rep


def oracle_verify_bfold(graph, cert, tol=DEFAULT_TOL):
    b, c = cert.fold, cert.colors
    rep = VerificationReport("oracle")
    p = list(cert.projections)
    rep.add("projections", _projection_residual(p), tol)
    rep.add("algebra_membership", _membership(graph, cert).max_residual(_stack(cert)), tol)
    comm = [hs_norm(p[i] @ p[j] - p[j] @ p[i])
            for i in range(c) for j in range(i + 1, c)]
    rep.add("commutation", np.max(comm, initial=0.0), tol)
    qfam = _products(p, b)
    total = sum((q for _, q in qfam),
                np.zeros((cert.total_dim, cert.total_dim), complex))
    rep.add("partition_of_identity", hs_norm(total - np.eye(cert.total_dim)), tol)
    edge_ops = _edge_with_ancilla(graph, cert.ancilla_dim)
    rep.add("coloring_condition", _sandwich(p, edge_ops), tol)
    if qfam:
        rep.add("pvm_projections", _projection_residual([q for _, q in qfam]), tol)
        ortho, qcol = [0.0], [0.0]
        for i, (s, qs) in enumerate(qfam):
            for j, (t, qt) in enumerate(qfam):
                if i < j:
                    ortho.append(hs_norm(qs @ qt))
                if i != j and set(s) & set(t):
                    qcol += _edge_norms(qs, edge_ops, qt)
        rep.add("pvm_orthogonality", np.max(ortho), tol)
        rep.add("pvm_coloring_condition", np.max(qcol), tol)
    long_res = [hs_norm(q) for _, q in _products(p, b + 1)]
    rep.add("long_products_vanish", np.max(long_res, initial=0.0), tol)
    return rep


def assert_same_report(got, want):
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert [c.passed for c in got.checks] == [c.passed for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        assert np.isnan(g.residual) == np.isnan(w.residual), g.name
        if not np.isnan(w.residual):
            bound = max(ATOL, RTOL * max(g.residual, w.residual))
            assert abs(g.residual - w.residual) <= bound, (g.name, g.residual, w.residual)
    assert got.passed == want.passed


def check_both(graph, cert):
    assert_same_report(verify_bfold(graph, cert), oracle_verify_bfold(graph, cert))
    if cert.fold == 1:
        assert_same_report(verify_coloring(graph, cert),
                           oracle_verify_coloring(graph, cert))


# ---------------------------------------------------------------------------
# generated certificates

LOCAL_CASES = [(name, fold) for name in ("C5", "C7", "P4", "R6") for fold in (1, 2, 3)]


def _classical(name):
    return {"C5": qg.cycle(5), "C7": qg.cycle(7), "P4": qg.path(4),
            "R6": qg.random_graph(6, 0.4, 1)}[name]


def _corruptions(cert, rng):
    """Certificates that must fail: a flipped vertex, a smeared entry, a
    merged color, a dropped color and a non-projection."""
    projs = [p.copy() for p in cert.projections]
    n = cert.total_dim
    v = int(rng.integers(n))
    flipped = [p.copy() for p in projs]
    flipped[0][v, v] = 1.0 - flipped[0][v, v]
    smeared = [p.copy() for p in projs]
    smeared[-1][0, n - 1] += 1e-3
    merged = [projs[0] + projs[1]] + projs[2:] if len(projs) > 1 else projs
    halved = [0.5 * p for p in projs]
    for bad in (flipped, smeared, merged, projs[1:], halved):
        yield ColoringCertificate(cert.graph_dim, 1, cert.fold, tuple(bad))


@pytest.mark.parametrize("name,fold", LOCAL_CASES)
def test_local_certificates_match_the_oracle(name, fold):
    g = _classical(name)
    graph = qg.from_classical(g)
    _, witness = qg.bfold_exact(g, fold)
    cert = qg.to_local_cert(g, witness)
    assert verify_bfold(graph, cert).passed
    check_both(graph, cert)
    rng = np.random.default_rng(fold * 100 + len(name))
    for bad in _corruptions(cert, rng):
        check_both(graph, bad)
    # relabeled by a unitary: dense, commuting projections
    u = np.linalg.qr(rng.standard_normal((g.vertex_count,) * 2)
                     + 1j * rng.standard_normal((g.vertex_count,) * 2))[0]
    check_both(qg.conjugate_graph(graph, u), cert.conjugated(u))


def _random_projection(rng, d, rank):
    m = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    q, _ = np.linalg.qr(m)
    return q @ q.conj().T


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("fold", (1, 2, 3))
def test_random_noncommuting_projections_match_the_oracle(seed, fold):
    rng = np.random.default_rng(seed)
    g = [qg.cycle(4), qg.complete(3), qg.path(3)][seed % 3]
    graph = qg.from_classical(g)
    d = 2 * g.vertex_count
    colors = int(rng.integers(fold, fold + 4))
    projs = tuple(_random_projection(rng, d, int(rng.integers(1, d)))
                  for _ in range(colors))
    cert = ColoringCertificate(g.vertex_count, 2, fold, projs)
    rep = verify_bfold(graph, cert)
    assert not rep.passed
    check_both(graph, cert)


def test_bell_coloring_with_a_nan_entry_matches_the_oracle(bell2):
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    check_both(graph, bell2)
    projs = [p.copy() for p in bell2.projections]
    projs[2][1, 3] = np.nan
    cert = ColoringCertificate(2, 2, 1, tuple(projs))
    rep = verify_bfold(graph, cert)
    assert not rep.passed and np.isnan(rep.max_residual)
    check_both(graph, cert)
    check_both(graph, ColoringCertificate(2, 2, 2, tuple(projs)))


def _nan_entry(cert):
    """NaN in one projection: every subset holding that color turns NaN."""
    projs = [p.copy() for p in cert.projections]
    projs[1][2, 2] = np.nan
    return projs


def _overflowing_product(cert):
    """The two colors of vertex 0 scaled by 1e200: their subset product
    overflows to Inf while every projection stays finite."""
    projs = [p.copy() for p in cert.projections]
    for a in np.flatnonzero([p[0, 0] for p in projs]):
        projs[a] = 1e200 * projs[a]
    return projs


@pytest.mark.parametrize("name,corrupt", [("C5", _nan_entry), ("K3", _nan_entry),
                                          ("K3", _overflowing_product)])
def test_nonfinite_subset_products_meet_their_zero_partners(name, corrupt):
    # Exactly-zero subset products drop out of the pairwise checks, except
    # when a non-finite entry is around: 0 * Inf is NaN. In the K3 overflow
    # case no two live subsets overlap, so only the zero partners carry the
    # NaN into pvm_coloring_condition.
    g = {"C5": qg.cycle(5), "K3": qg.complete(3)}[name]
    graph = qg.from_classical(g)
    _, witness = qg.bfold_exact(g, 2)
    cert = qg.to_local_cert(g, witness)
    bad = ColoringCertificate(cert.graph_dim, 1, 2, tuple(corrupt(cert)))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = verify_bfold(graph, bad), oracle_verify_bfold(graph, bad)
    # an overflowed projection residual reads Inf in one and NaN in the
    # other, so the reports agree on every verdict, not on every residual
    assert [(c.name, c.passed) for c in got.checks] == [
        (c.name, c.passed) for c in want.checks]
    for rep in (got, want):
        residual = {c.name: c.residual for c in rep.checks}
        assert np.isnan(residual["pvm_orthogonality"])
        assert np.isnan(residual["pvm_coloring_condition"])


def _scaled_c5():
    g = qg.cycle(5)
    _, witness = qg.bfold_exact(g, 1)
    graph = qg.from_classical(g)
    cert = qg.scale_bfold(graph, qg.to_local_cert(g, witness), 3)
    assert cert.colors == 9
    return graph, cert


def _local_g12():
    # G(12, 0.4) with seed 3 has chi_3 = 10: 120 subsets, 10 of them live
    g = qg.random_graph(12, 0.4, 3)
    _, witness = qg.bfold_exact(g, 3)
    return qg.from_classical(g), qg.to_local_cert(g, witness)


@pytest.mark.parametrize("build", [_scaled_c5, _local_g12])
def test_fold_three_certificates_with_zero_subsets_match_the_oracle(build):
    graph, cert = build()
    rep = verify_bfold(graph, cert)
    assert rep.passed
    assert_same_report(rep, oracle_verify_bfold(graph, cert))


def test_pairwise_checks_visit_only_the_nonzero_subsets(monkeypatch):
    """The range sandwich runs once on the colors (the coloring condition)
    and then twice on the subset products (the PVM coloring condition and
    the orthogonality); those two see only the nonzero products."""
    seen = []
    sandwich = coloring._range_sandwich

    def counting(ranges, pairs, ops):
        seen.append(len(ranges[0]))
        return sandwich(ranges, pairs, ops)

    monkeypatch.setattr(coloring, "_range_sandwich", counting)
    for fold in (2, 3):
        g = qg.random_graph(10, 0.4, 1)
        _, witness = qg.bfold_exact(g, fold)
        cert = qg.to_local_cert(g, witness)
        seen.clear()
        assert verify_bfold(qg.from_classical(g), cert).passed
        # Q_S of a local certificate is nonzero iff some vertex has color set S
        assert seen[1:] == [len(set(witness.assignment))] * 2
        assert seen[1] < comb(cert.colors, fold)
    # an entangled certificate has no zero subset: all of them are visited
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    seen.clear()
    verify_bfold(graph, qg.bell_coloring(2))
    assert seen == [4, 4, 4]


@pytest.mark.parametrize("n, d", [(160, 1), (40, 4)])
def test_orthogonality_counts_the_norm_of_the_identity(n, d):
    """Q_S = diag(1, 1, 9e-11, ..., 9e-11) and Q_T = diag(0, 0, 1, ..., 1)
    in dimension N = 160: Q_S drops its 9e-11 part, so A_S B_T = 0, but
    ||Q_S Q_T|| = 9e-11 sqrt(158) = 1.13e-9 is past the tolerance. Only a
    bound that carries ||I_N|| = sqrt(N), sqrt(d) of it from the ancilla,
    keeps the reported value above the dense one."""
    big = n * d
    qs = np.diag([1.0, 1.0] + [9e-11] * (big - 2))
    qt = np.diag([0.0, 0.0] + [1.0] * (big - 2))
    graph = qg.from_classical(qg.ClassicalGraph(n, []))
    rep = verify_bfold(graph, ColoringCertificate(n, d, 1, (qs, qt)))
    check = next(c for c in rep.checks if c.name == "pvm_orthogonality")
    dense = hs_norm(qs @ qt)
    assert dense > DEFAULT_TOL
    assert check.residual >= dense and not check.passed


def test_failing_bell_combination_matches_the_oracle(bell2):
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    cert = qg.combine_bfold(graph, bell2, bell2)
    rep = verify_bfold(graph, cert)
    assert not rep.passed
    assert_same_report(rep, oracle_verify_bfold(graph, cert))


def test_fewer_colors_than_the_fold_omits_the_pvm_checks():
    graph = qg.from_classical(qg.complete(2))
    cert = ColoringCertificate(2, 1, 3, (np.eye(2), np.diag([1.0, 0.0])))
    rep = verify_bfold(graph, cert)
    assert not any(c.name.startswith("pvm_") for c in rep.checks)
    check_both(graph, cert)


@pytest.mark.parametrize("fold", (1, 2))
def test_no_projections_fails_on_both_verifiers(fold):
    graph = qg.from_classical(qg.cycle(5))
    cert = ColoringCertificate(5, 1, fold, ())
    rep = verify_bfold(graph, cert)
    assert [c.name for c in rep.failures()] == ["partition_of_identity"]
    assert_same_report(rep, oracle_verify_bfold(graph, cert))
    if fold == 1:
        rep = verify_coloring(graph, cert)
        assert [c.name for c in rep.failures()] == ["sum_to_identity"]
        assert_same_report(rep, oracle_verify_coloring(graph, cert))


@pytest.mark.parametrize("flag", ([], ["--bfold"]))
def test_cli_no_projections_exits_one(tmp_path, capsys, flag):
    graph = tmp_path / "c5.col"
    graph.write_text(qg.to_dimacs(qg.cycle(5)))
    cert = tmp_path / "empty.json"
    ser.save(str(cert), ser.certificate_to_obj(ColoringCertificate(5, 1, 1, ())))
    assert main(["color", "verify", str(graph), str(cert)] + flag) == EXIT_VERIFY
    assert capsys.readouterr().out.rstrip().endswith("result: FAIL")


def test_pvm_from_bfold_raises_on_a_nan_certificate(c5_two_fold):
    projs = [p.copy() for p in c5_two_fold.projections]
    projs[3][2, 2] = np.nan
    cert = ColoringCertificate(5, 1, 2, tuple(projs))
    with pytest.raises(ValueError, match="projections 0 and 3 do not commute"):
        qg.pvm_from_bfold(cert)
