"""verify_homomorphism against a per-pair reference.

``oracle_verify_homomorphism`` below is the straightforward verifier: it
lifts every edge or commutant operator Y to Y (x) I with np.kron, forms
F_i (Y (x) I) F_j* for one pair (i, j) at a time, and projects it onto an
orthonormal basis of the target's edge space or commutant. The package
reads the Kraus family as one matrix and never forms Y (x) I. Both must
give the same check names in the same order, the same verdicts, and the
same residuals up to rounding, NaN for NaN: within 1e-12 relative, or
1e-14 absolute for residuals at rounding level. Families have 0 to 3
Kraus operators on ancillas 1 to 3, between classical graphs and complete
quantum graphs (one over a Haar-conjugated multi-block algebra); some are
Parseval families that pass, some carry a NaN. Hypothesis runs
derandomized with a fixed example count and no example database, so every
run checks the same inputs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs.coloring import HomomorphismCertificate, verify_homomorphism
from quantumgraphs.opspace import DEFAULT_TOL, hs_norm
from quantumgraphs.report import VerificationReport

FIXED = settings(max_examples=150, derandomize=True, database=None, deadline=None)
RTOL, ATOL = 1e-12, 1e-14


def haar(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def residual(space, x):
    """||x - sum_e <e, x> e|| / max(1, ||x||) over the orthonormal basis of
    ``space``, for one matrix."""
    proj = sum((np.vdot(e, x) * e for e in space.basis), np.zeros_like(x))
    return np.linalg.norm(x - proj) / max(1.0, np.linalg.norm(x))


def oracle_verify_homomorphism(source, target, cert, tol=DEFAULT_TOL):
    a, fs = cert.ancilla_dim, list(cert.kraus)
    d_in = cert.source_dim * a
    rep = VerificationReport("oracle")
    total = sum((f.conj().T @ f for f in fs), np.zeros((d_in, d_in), complex))
    rep.add("trace_preserving", hs_norm(total - np.eye(d_in)), tol)
    for name, ops, space in (
            ("edge_space_mapped", source.S.basis, target.S),
            ("commutant_mapped", source.M.commutant().basis().basis,
             target.M.commutant().basis())):
        worst = 0.0
        for y in ops:
            lifted = np.kron(y, np.eye(a))
            for fi in fs:
                for fj in fs:
                    r = residual(space, fi @ lifted @ fj.conj().T)
                    worst = np.nan if np.isnan(r) or np.isnan(worst) else max(worst, r)
        rep.add(name, worst, tol)
    return rep


def assert_same_report(got, want):
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert [c.passed for c in got.checks] == [c.passed for c in want.checks], (got, want)
    for g, w in zip(got.checks, want.checks):
        assert np.isnan(g.residual) == np.isnan(w.residual), (g, w)
        if not np.isnan(w.residual):
            assert abs(g.residual - w.residual) <= max(
                ATOL, RTOL * max(g.residual, w.residual)), (g, w)


GRAPHS = {
    "K1": lambda: qg.from_classical(qg.complete(1)),
    "K3": lambda: qg.from_classical(qg.complete(3)),
    "P3": lambda: qg.from_classical(qg.path(3)),
    "C4": lambda: qg.from_classical(qg.cycle(4)),
    "KQ2": lambda: qg.complete_quantum_graph(qg.BlockAlgebra.full(2)),
    "KQ(2,1)+(1,2)": lambda: qg.complete_quantum_graph(
        qg.BlockAlgebra([(2, 1), (1, 2)]).conjugated_by(haar(4, 11))),
}


@st.composite
def families(draw):
    """(source, target, certificate): a Parseval family F_i = I (x) v_i from
    a graph to itself, with sum v_i* v_i = I, which passes unless its
    perturbation is large, or a random family between any two graphs; one
    in four carries a NaN or an Inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    source = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]()
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        a, target = draw(st.integers(1, k)), source
        v = haar(k, rng.integers(2 ** 16))[:, :a]
        fs = np.stack([np.kron(np.eye(source.n), row[None]) for row in v])
        fs = fs + draw(st.sampled_from([0.0, 1e-12, 1e-6])) * rng.standard_normal(fs.shape)
    else:
        k, a = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        target = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]()
        shape = (k, target.n, source.n * a)
        fs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if fs.size and draw(st.integers(0, 3)) == 0:
        fs = np.array(fs, dtype=complex)
        fs.reshape(-1)[rng.integers(fs.size)] = draw(st.sampled_from([np.nan, np.inf]))
    return source, target, HomomorphismCertificate(source.n, target.n, a, fs)


@given(families())
@FIXED
def test_verify_homomorphism_matches_the_per_pair_reference(case):
    source, target, cert = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = verify_homomorphism(source, target, cert)
        want = oracle_verify_homomorphism(source, target, cert)
    assert_same_report(got, want)


def test_parseval_families_pass():
    """The reference itself: an exact Parseval family passes every check."""
    g = GRAPHS["KQ(2,1)+(1,2)"]()
    v = haar(3, 5)[:, :2]
    fs = np.stack([np.kron(np.eye(g.n), row[None]) for row in v])
    cert = HomomorphismCertificate(g.n, g.n, 2, fs)
    for rep in (verify_homomorphism(g, g, cert), oracle_verify_homomorphism(g, g, cert)):
        assert rep.passed, rep


def test_cross_pairs_fail_where_every_diagonal_pair_passes():
    """K2 -> P4 with F_1 = (E00 + E11)/sqrt 2 and F_2 = (E20 + E31)/sqrt 2:
    each operator, rescaled, maps the edge 01 onto an edge of P4 (01 and
    23), but F_1 E01 F_2* = E03 / 2 lands off the edges and F_1 E00 F_2* =
    E02 / 2 off the diagonal commutant, so both mapped checks fail at 0.5."""
    k2, p4 = qg.from_classical(qg.complete(2)), qg.from_classical(qg.path(4))
    fs = np.zeros((2, 4, 2))
    fs[0, 0, 0] = fs[0, 1, 1] = fs[1, 2, 0] = fs[1, 3, 1] = 1 / np.sqrt(2)
    rep = verify_homomorphism(k2, p4, HomomorphismCertificate(2, 4, 1, fs))
    assert_same_report(rep, oracle_verify_homomorphism(
        k2, p4, HomomorphismCertificate(2, 4, 1, fs)))
    got = {c.name: c.residual for c in rep.checks}
    assert got["trace_preserving"] < 1e-15
    assert abs(got["edge_space_mapped"] - 0.5) < 1e-15
    assert abs(got["commutant_mapped"] - 0.5) < 1e-15
    for f in fs:
        assert verify_homomorphism(k2, p4, HomomorphismCertificate(
            2, 4, 1, [np.sqrt(2) * f])).passed
