"""Properties of the certificate verifiers and of reduce_bfold over
generated graphs on at most 7 vertices at folds 1 to 3.

The local certificate of ``bfold_exact``'s witness must pass and match the
per-pair oracle, and relabeling graph and certificate by a seeded unitary
must keep every verdict with every residual within 1e-12. Hypothesis runs
derandomized with a fixed example count and no example database, so every
run checks the same graphs.
"""

from math import comb

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs.classical import ClassicalGraph, bfold_exact
from quantumgraphs.coloring import (
    ColoringCertificate, reduce_bfold, verify_bfold, verify_coloring)
from test_verify_oracle import assert_same_report, oracle_verify_bfold

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)

#: The oracle takes every pair of b-subsets in Python, so palettes with more
#: b-subsets than this (chi_3 >= 11, a K4 or worse at fold 3) are skipped.
MAX_SUBSETS = 120


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return ClassicalGraph(n, [e for e, k in zip(pairs, keep) if k])


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


def flipped(cert):
    """Vertex 0 toggled in color 0: fails the partition of identity."""
    projs = [p.copy() for p in cert.projections]
    projs[0][0, 0] = 1.0 - projs[0][0, 0]
    return ColoringCertificate(cert.graph_dim, 1, cert.fold, tuple(projs))


def assert_covariant(verify, graph, cert, u):
    before = verify(graph, cert)
    after = verify(qg.conjugate_graph(graph, u), cert.conjugated(u))
    assert [(c.name, c.passed) for c in after.checks] == [
        (c.name, c.passed) for c in before.checks]
    for b, a in zip(before.checks, after.checks):
        assert abs(a.residual - b.residual) <= 1e-12, (b.name, b.residual, a.residual)


@FIXED
@given(graphs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_local_certificates_pass_match_the_oracle_and_relabel(g, fold, seed):
    value, witness = bfold_exact(g, fold)
    assume(comb(value, fold) <= MAX_SUBSETS)
    graph = qg.from_classical(g)
    cert = qg.to_local_cert(g, witness)
    rep = verify_bfold(graph, cert)
    assert rep.passed
    assert_same_report(rep, oracle_verify_bfold(graph, cert))

    u = random_unitary(g.vertex_count, seed)
    verifiers = [verify_bfold] + ([verify_coloring] if fold == 1 else [])
    for verify in verifiers:
        for c in (cert, flipped(cert)):
            assert_covariant(verify, graph, c, u)
    assert not verify_bfold(graph, flipped(cert)).passed


@FIXED
@given(graphs(), st.integers(2, 3))
def test_reduce_bfold_passes_one_fold_lower_on_fewer_colors(g, fold):
    _, witness = bfold_exact(g, fold)
    graph = qg.from_classical(g)
    cert = qg.to_local_cert(g, witness)
    reduced, kept = reduce_bfold(graph, cert)
    assert reduced.fold == fold - 1
    assert reduced.colors < cert.colors and len(kept) == reduced.colors
    assert verify_bfold(graph, reduced).passed
