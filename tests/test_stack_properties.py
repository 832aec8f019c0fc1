"""Properties of the stacked certificate constructions.

``permute_systems`` applied to a (..., n, n) stack must equal its
application to each matrix, and ``strong_coloring``, ``categorical_lift``
and ``lexicographic_coloring`` must be bitwise equal to a per-matrix loop
reference, on local certificates (diagonal projections of random color
sets) and on the same certificates conjugated by a seeded Haar unitary.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same inputs.
"""

from itertools import combinations
from math import prod

import numpy as np
from hypothesis import given, settings, strategies as st

from quantumgraphs.coloring import (ColoringCertificate, categorical_lift,
                                    lexicographic_coloring, pvm_from_bfold,
                                    strong_coloring)
from quantumgraphs.opspace import permute_systems

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
def certificates(draw, fold=None, colors=None):
    """A local certificate: every basis index of C^n (x) C^d gets a random
    b-subset of the colors; optionally conjugated on the graph leg by a
    seeded Haar unitary."""
    n = draw(st.integers(1, 3))
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
    for t, q in pvm_from_bfold(cg):
        for rank, a in enumerate(t):
            want[a] = want[a] + permute_one(np.kron(q, ch.projections[rank]),
                                            legs(cg, ch), [0, 2, 1, 3])
    assert np.array_equal(out.projections, want)


def test_certificate_fields_are_read_only_stacks():
    empty = ColoringCertificate(2, 3, 1, [])
    assert empty.projections.shape == (0, 6, 6) and empty.colors == 0
    cert = strong_coloring(ColoringCertificate(1, 1, 1, [np.eye(1)]),
                           ColoringCertificate(2, 1, 1, [np.eye(2)]))
    assert cert.projections.shape == (1, 2, 2)
    assert not cert.projections.flags.writeable
