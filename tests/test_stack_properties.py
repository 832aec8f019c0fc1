"""Properties of the stacked certificate constructions.

``permute_systems`` applied to a (..., n, n) stack must equal its
application to each matrix, and ``strong_coloring``, ``categorical_lift``
and ``lexicographic_coloring`` must be bitwise equal to a per-matrix loop
reference, on local certificates (diagonal projections of random color
sets) and on the same certificates conjugated by a seeded Haar unitary.
``combine_bfold`` must match its per-pair loop, and the stacked
``projection_meet`` the meet of each pair, to the last few ulps. Under a
small DENSE_BYTES_LIMIT every construction either raises SizeGuardError or
returns a stack within the limit, and so does every stack whose norms the
b-fold verifier, the subset PVM and the homomorphism verifier take; fixed
certificates pin the narrow windows of the commutator and PVM pair guards.
One ``_lift`` call allocates at most 1.1 times the stack its guard counts.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same inputs.
"""

import tracemalloc
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantumgraphs import coloring, qgraph
from quantumgraphs.classical import (ClassicalGraph, SizeGuardError, bfold_exact,
                                     complete, petersen)
from quantumgraphs.coloring import (ColoringCertificate, HomomorphismCertificate,
                                    bell_coloring, categorical_lift, combine_bfold,
                                    lexicographic_coloring, pvm_from_bfold,
                                    scale_bfold, strong_coloring, to_local_cert,
                                    verify_bfold, verify_homomorphism)
from quantumgraphs.opspace import OperatorSubspace, permute_systems, projection_meet
from quantumgraphs.qgraph import from_classical

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def permute_one(x, dims, perm):
    """Reference leg permutation of one matrix."""
    k, n = len(dims), prod(dims)
    inv = [list(perm).index(i) for i in range(k)]
    return x.reshape(dims * 2).transpose(inv + [k + i for i in inv]).reshape(n, n)


def haar(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(st.data())
@FIXED
def test_stacked_permute_systems_matches_each_matrix(data):
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    perm = data.draw(st.permutations(range(len(dims))))
    lead = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2)))
    n = prod(dims)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    got = permute_systems(x, dims, perm)
    assert got.shape == x.shape
    want = np.array([permute_one(m, dims, perm)
                     for m in x.reshape(-1, n, n)]).reshape(x.shape)
    assert np.array_equal(got, want)


@st.composite
def certificates(draw, fold=None, colors=None, n=None):
    """A local certificate: every basis index of C^n (x) C^d gets a random
    b-subset of the colors; optionally conjugated on the graph leg by a
    seeded Haar unitary."""
    n = n if n is not None else draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    b = fold if fold is not None else draw(st.integers(1, 2))
    c = colors if colors is not None else draw(st.integers(b, b + 2))
    sets = draw(st.lists(st.sampled_from(list(combinations(range(c), b))),
                         min_size=n * d, max_size=n * d))
    projs = [np.diag([1.0 if a in s else 0.0 for s in sets]) for a in range(c)]
    cert = ColoringCertificate(n, d, b, projs)
    if draw(st.booleans()):
        cert = cert.conjugated(haar(n, draw(st.integers(0, 2 ** 16))))
    return cert


def legs(cg, ch):
    return [cg.graph_dim, cg.ancilla_dim, ch.graph_dim, ch.ancilla_dim]


@given(certificates(fold=1), certificates(fold=1))
@FIXED
def test_strong_coloring_matches_the_loop(cg, ch):
    out = strong_coloring(cg, ch)
    want = [permute_one(np.kron(pg, ph), legs(cg, ch), [0, 2, 1, 3])
            for pg in cg.projections for ph in ch.projections]
    assert out.colors == cg.colors * ch.colors
    assert np.array_equal(out.projections, want)


@given(certificates(fold=1), st.integers(1, 3))
@FIXED
def test_categorical_lift_matches_the_loop(cg, nh):
    out = categorical_lift(cg, nh)
    want = [permute_one(np.kron(p, np.eye(nh)),
                        [cg.graph_dim, cg.ancilla_dim, nh], [0, 2, 1])
            for p in cg.projections]
    assert np.array_equal(out.projections, want)


@given(st.data())
@FIXED
def test_lexicographic_coloring_matches_the_loop(data):
    cg = data.draw(certificates())
    ch = data.draw(certificates(fold=1, colors=cg.fold))
    out = lexicographic_coloring(cg, ch)
    size = cg.total_dim * ch.total_dim
    want = [np.zeros((size, size), dtype=complex) for _ in range(cg.colors)]
    for t, q in zip(*pvm_from_bfold(cg)):
        for rank, a in enumerate(t):
            want[a] = want[a] + permute_one(np.kron(q, ch.projections[rank]),
                                            legs(cg, ch), [0, 2, 1, 3])
    assert np.array_equal(out.projections, want)


def local(g, b):
    return to_local_cert(g, bfold_exact(g, b)[1])


def lift_inputs(shape):
    """The (a, b, a_legs, b_legs) of one _lift call shaped as the named
    construction builds it, each giving a stack of 4 to 20 MB: numpy's
    broadcast keeps a fixed buffer of about 0.25 MB beside it."""
    bell3, bell4 = bell_coloring(3).projections, bell_coloring(4).projections
    if shape == "strong":
        return bell4[:, None], local(petersen(), 1).projections[None], (4, 4), (10, 1)
    if shape == "lex":
        _, q = pvm_from_bfold(bell_coloring(4))
        return q[:, None], local(petersen(), 1).projections[None, :1], (4, 4), (10, 1)
    if shape == "cat-lift":
        return bell3, np.eye(24), (3, 3), (24, 1)
    return from_classical(petersen()).S.basis, np.eye(10), (10, 1), (1, 10)


@pytest.mark.parametrize("shape", ["strong", "lex", "cat-lift", "with-ancilla"])
def test_one_lift_peaks_at_the_stack_its_guard_counts(shape, monkeypatch):
    """_lift forms its output in one broadcast product and no second copy:
    the tracemalloc peak of one call is at most 1.1 times the bytes it
    passes to check_dense_size, which are the bytes of its output."""
    a, b, a_legs, b_legs = lift_inputs(shape)
    counts = []

    def spy(nbytes, what):
        counts.append(nbytes)
        return qgraph.check_dense_size(nbytes, what)

    monkeypatch.setattr(coloring, "check_dense_size", spy)
    tracemalloc.start()
    try:
        out = coloring._lift(a, b, a_legs, b_legs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [out.nbytes]
    assert peak <= 1.1 * out.nbytes


def test_certificate_fields_are_read_only_stacks():
    empty = ColoringCertificate(2, 3, 1, [])
    assert empty.projections.shape == (0, 6, 6) and empty.colors == 0
    cert = strong_coloring(ColoringCertificate(1, 1, 1, [np.eye(1)]),
                           ColoringCertificate(2, 1, 1, [np.eye(2)]))
    assert cert.projections.shape == (1, 2, 2)
    assert not cert.projections.flags.writeable


def meet_one(p, q, tol=1e-9):
    """Reference meet of two projections: the eigenvectors of (p + q) with
    eigenvalue within tol of 2, sliced out one matrix at a time."""
    h = p + q
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    v = vecs[:, vals >= 2.0 - tol]
    return v @ v.conj().T


def combine_loop(c1, c2):
    """Reference combine_bfold: np.kron embeddings, one permute_systems
    call, a meet per pair of subsets, and each meet added into the colors of
    its subset one at a time (not through bfold_from_pvm, which
    combine_bfold calls)."""
    n, d1, d2 = c1.graph_dim, c1.ancilla_dim, c2.ancilla_dim
    (s1, q1), (s2, q2) = pvm_from_bfold(c1), pvm_from_bfold(c2)
    a = np.kron(q1, np.eye(d2))
    b = permute_systems(np.kron(q2, np.eye(d1)), [n, d2, d1], [0, 2, 1])
    dim = n * d1 * d2
    projs = np.zeros((c1.colors + c2.colors, dim, dim), dtype=complex)
    for s, a_s in zip(s1.tolist(), a):
        for t, b_t in zip(s2.tolist(), b):
            meet = meet_one(a_s, b_t)
            for color in s + [x + c1.colors for x in t]:
                projs[color] += meet
    return ColoringCertificate(n, d1 * d2, c1.fold + c2.fold, projs)


def empty_graph(n):
    return from_classical(ClassicalGraph(n, []))


@given(st.data())
@FIXED
def test_combine_bfold_matches_the_per_pair_loop(data):
    c1 = data.draw(certificates())
    c2 = data.draw(certificates(n=c1.graph_dim))
    out = combine_bfold(empty_graph(c1.graph_dim), c1, c2)
    want = combine_loop(c1, c2)
    assert (out.fold, out.colors, out.ancilla_dim) == (want.fold, want.colors,
                                                       want.ancilla_dim)
    assert np.allclose(out.projections, want.projections, rtol=0, atol=1e-14)


@st.composite
def projection_stacks(draw, n, commuting):
    """A (k, n, n) stack of projections of random ranks: diagonal in one
    seeded Haar basis when commuting, each in its own basis otherwise."""
    k = draw(st.integers(0, 3))
    ranks = draw(st.lists(st.integers(0, n), min_size=k, max_size=k))
    seed = draw(st.integers(0, 2 ** 16))
    out = []
    for i, r in enumerate(ranks):
        u = haar(n, seed if commuting else seed + i)
        v = u[:, :r]
        out.append(v @ v.conj().T)
    return np.array(out, dtype=complex).reshape(k, n, n)


@given(st.data(), st.booleans())
@FIXED
def test_stacked_projection_meet_matches_each_pair(data, commuting):
    n = data.draw(st.integers(1, 4))
    p = data.draw(projection_stacks(n, commuting))
    q = data.draw(projection_stacks(n, commuting))
    got = projection_meet(p[:, None], q[None])
    assert got.shape == (len(p), len(q), n, n)
    for i, j in np.ndindex(len(p), len(q)):
        assert np.allclose(got[i, j], meet_one(p[i], q[j]), rtol=0, atol=1e-14)
        assert np.allclose(projection_meet(p[i], q[j]), got[i, j], rtol=0, atol=1e-14)


@given(st.data(), st.integers(0, 2 ** 17))
@FIXED
def test_constructions_refuse_or_fit_under_the_dense_limit(data, limit):
    cg = data.draw(certificates())
    c1 = data.draw(certificates(fold=1))
    ch = data.draw(certificates(fold=1, colors=cg.fold))
    nh, b = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
    graph = empty_graph(c1.graph_dim)
    # fewer colors than the fold: no subset products, only zero colors
    few = ColoringCertificate(cg.graph_dim, cg.ancilla_dim, cg.fold,
                              cg.projections[:cg.fold - 1])
    builds = [lambda: strong_coloring(c1, ch),
              lambda: lexicographic_coloring(cg, ch),
              lambda: lexicographic_coloring(few, ch),
              lambda: categorical_lift(c1, nh),
              lambda: combine_bfold(graph, c1, c1),
              lambda: scale_bfold(graph, c1, b)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgraph, "DENSE_BYTES_LIMIT", limit)
        for build in builds:
            try:
                out = build()
            except SizeGuardError:
                continue
            assert out.projections.nbytes <= limit


def verifier_stack_refusals(cert, matrices):
    """Run verify_bfold and pvm_from_bfold on ``cert`` against the complete
    graph under a limit of ``matrices`` matrices of the certificate's
    dimension. Every stack whose norms a check that is not refused takes,
    through _worst or _hs_norms, must fit under the limit. Returns the
    messages of the refusals."""
    graph = from_classical(complete(cert.graph_dim))
    limit = 16 * matrices * cert.total_dim ** 2
    sizes, refused = [], []

    def spy(norms):
        def wrapped(x):
            sizes.append(x.nbytes)
            return norms(x)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_worst", spy(coloring._worst))
        mp.setattr(coloring, "_hs_norms", spy(coloring._hs_norms))
        mp.setattr(qgraph, "DENSE_BYTES_LIMIT", limit)
        for check in (lambda: verify_bfold(graph, cert), lambda: pvm_from_bfold(cert)):
            sizes.clear()
            try:
                check()
            except SizeGuardError as exc:
                refused.append(str(exc))
                continue
            assert max(sizes, default=0) <= limit
    return refused


@given(st.data(), st.integers(0, 40))
@FIXED
def test_verifier_stacks_refuse_or_fit_under_the_dense_limit(data, matrices):
    """The commutator stack and the PVM pair stack are refused or fit."""
    b = data.draw(st.integers(1, 3))
    cert = data.draw(certificates(fold=b, colors=data.draw(st.integers(b, b + 3))))
    verifier_stack_refusals(cert, matrices)


@pytest.mark.parametrize("sets, colors, matrices, guard", [
    # fold 1 on 2 vertices: pvm_from_bfold's 5 subset products fit under 8
    # matrices, its C(5, 2) = 10 commutators do not
    ([(0,), (1,)], 5, 8, "the commutator stack"),
    # fold 2 on K3, one pair of 3 colors per vertex: every other stack of
    # verify_bfold fits under 8 matrices, but each of the 3 live subsets
    # overlaps 2 others, against 6 edge operators each
    ([(0, 1), (0, 2), (1, 2)], 3, 8, "the PVM pair stack"),
], ids=["commutators", "pvm-pairs"])
def test_verifier_stacks_at_their_narrow_windows(sets, colors, matrices, guard):
    """Fixed certificates where only the named guard stands between a check
    and a stack past the limit, so its refusal does not depend on the
    examples the property draws."""
    projs = [np.diag([1.0 if a in s else 0.0 for s in sets]) for a in range(colors)]
    cert = ColoringCertificate(len(sets), 1, len(sets[0]), projs)
    refused = verifier_stack_refusals(cert, matrices)
    assert any(guard in msg for msg in refused)


@given(st.data(), st.integers(0, 60))
@FIXED
def test_homomorphism_stacks_refuse_or_fit_under_the_dense_limit(data, matrices):
    """Every stack verify_homomorphism projects through max_residual, the
    F_i Y F_j* over all pairs of Kraus operators and every edge or commutant
    operator Y, is refused or fits within a limit of ``matrices`` matrices
    of the target's dimension, on random Kraus families from K_n to K_n."""
    n, d, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    graph = from_classical(complete(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    shape = (k, n, n * d)
    hom = HomomorphismCertificate(n, n, d, rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape))
    limit = 16 * matrices * n * n
    sizes = []

    def spy(residual):
        def wrapped(space, x):
            sizes.append(x.nbytes)
            return residual(space, x)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorSubspace, "max_residual", spy(OperatorSubspace.max_residual))
        mp.setattr(qgraph, "DENSE_BYTES_LIMIT", limit)
        try:
            verify_homomorphism(graph, graph, hom)
        except SizeGuardError:
            return
    assert max(sizes, default=0) <= limit
