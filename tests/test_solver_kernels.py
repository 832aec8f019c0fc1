"""The exact solvers' bit kernels against the set-and-lambda kernels they
replaced.

The references below are the earlier forms of ``_dsatur_greedy``,
``_greedy_clique_size`` and the two Bron-Kerbosch generators: DSATUR on
Python sets with ``max(..., key=(saturation, degree, -index))``, a greedy
clique without a floor, and pivots picked by ``max(_bits(...), key=...)``;
the solvers' vertex picks were ``min``/``max(_bits(...), key=...)`` too.
The kernels must make the same choices: equal colorings, the same clique
size raised to the floor for every floor from 0 to n, the same maximal
independent sets in the same order, and the same first extreme vertex. Hypothesis runs derandomized with a
fixed example count and no example database, so every run checks the same
graphs.
"""

from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs.classical import (
    _adjacency_masks, _bits, _complement_masks, _cover_classes, _dsatur_greedy,
    _fewest_non_neighbours, _greedy_clique_size, _maximal_independent_sets,
    _most_neighbours)

FIXED = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def reference_dsatur(g):
    n = g.vertex_count
    colors = [-1] * n
    satur = [set() for _ in range(n)]
    for _ in range(n):
        v = max((u for u in range(n) if colors[u] == -1),
                key=lambda u: (len(satur[u]), g.degree(u), -u))
        c = 0
        while c in satur[v]:
            c += 1
        colors[v] = c
        for w in g.neighbors(v):
            satur[w].add(c)
    return colors


def reference_clique_size(adj, avail):
    size = 0
    while avail:
        pick, pick_deg = 0, -1
        m = avail
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & avail).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        avail &= adj[pick]
        size += 1
    return size


def reference_maximal_independent_sets(adj, avail):
    def rec(cur, cand, done):
        if not cand:
            if not done:
                yield cur
            return
        pivot = max(_bits(cand | done),
                    key=lambda u: (cand & ~adj[u] & ~(1 << u)).bit_count())
        for w in _bits(cand & (adj[pivot] | (1 << pivot))):
            keep = ~adj[w] & ~(1 << w)
            yield from rec(cur | (1 << w), cand & keep, done & keep)
            cand &= ~(1 << w)
            done |= 1 << w

    return rec(0, avail, 0)


def reference_cover_classes(adj, cand):
    def rec(cur, cand, done):
        if not cand:
            if not done:
                yield cur
            return
        pivot = max(_bits(cand | done),
                    key=lambda u: (cand & ~adj[u]).bit_count())
        for w in _bits(cand & (adj[pivot] | (1 << pivot))):
            free = ~adj[w] & ~(1 << w)
            yield from rec(cur | (1 << w), cand & free, done & free)
            cand &= ~(1 << w)
            done |= 1 << w

    return rec(0, cand, 0)


#: graphs whose many equal saturations and degrees exercise the tie-breaks
SYMMETRIC = [qg.petersen(), qg.kneser(6, 2), qg.kneser(7, 2),
             qg.classical_product(qg.cycle(5), qg.complete(3), "lexicographic")]


@st.composite
def graphs(draw):
    """A seeded random graph on 1 to 26 vertices of any density, or a
    relabeled cycle, path, complete graph, product of a cycle with K2 or
    symmetric graph."""
    n = draw(st.integers(1, 26))
    family = draw(st.sampled_from(["random", "regular", "product", "symmetric"]))
    if family == "random":
        p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95]))
        return qg.random_graph(n, p, draw(st.integers(0, 2**32 - 1)))
    if family == "regular":
        g = draw(st.sampled_from([qg.cycle, qg.path, qg.complete]))(n)
    elif family == "product":
        g = qg.classical_product(qg.cycle(max(1, n // 2)), qg.complete(2),
                                 draw(st.sampled_from(qg.PRODUCT_KINDS)))
    else:
        g = draw(st.sampled_from(SYMMETRIC))
    return g.relabel(draw(st.permutations(range(g.vertex_count))))


@st.composite
def subsets(draw, n):
    """All n vertices, or a drawn subset of them."""
    if draw(st.booleans()):
        return (1 << n) - 1
    return sum(1 << v for v in range(n) if draw(st.booleans()))


@FIXED
@given(graphs())
def test_dsatur_colorings_match_the_set_based_reference(g):
    assert _dsatur_greedy(g) == reference_dsatur(g)


@FIXED
@given(st.data())
def test_greedy_clique_size_is_the_reference_raised_to_its_floor(data):
    g = data.draw(graphs())
    n = g.vertex_count
    adj = _adjacency_masks(g)
    for masks in (adj, _complement_masks(adj)):
        rest = data.draw(subsets(n))
        size = reference_clique_size(masks, rest)
        assert _greedy_clique_size(masks, rest) == size
        for floor in range(n + 1):
            assert _greedy_clique_size(masks, rest, floor) == max(floor, size)


@FIXED
@given(st.data())
def test_maximal_independent_sets_match_the_lambda_pivot_reference(data):
    g = data.draw(graphs())
    adj = _adjacency_masks(g)
    avail = data.draw(subsets(g.vertex_count))
    assert (list(_maximal_independent_sets(adj, avail))
            == list(reference_maximal_independent_sets(adj, avail)))


@FIXED
@given(st.data())
def test_cover_classes_match_the_lambda_pivot_reference(data):
    g = data.draw(graphs())
    adj = _adjacency_masks(g)
    cand = data.draw(subsets(g.vertex_count))
    assert list(_cover_classes(adj, cand)) == list(reference_cover_classes(adj, cand))



@FIXED
@given(st.data())
def test_fewest_non_neighbours_is_the_first_minimum(data):
    g = data.draw(graphs())
    adj = _adjacency_masks(g)
    for masks in (adj, _complement_masks(adj)):
        rest = data.draw(subsets(g.vertex_count)) or 1
        assert (_fewest_non_neighbours(masks, rest)
                == min(_bits(rest), key=lambda u: (rest & ~masks[u]).bit_count()))


@FIXED
@given(st.data())
def test_most_neighbours_is_the_first_maximum(data):
    g = data.draw(graphs())
    adj = _adjacency_masks(g)
    avail = data.draw(subsets(g.vertex_count))
    among = data.draw(subsets(g.vertex_count)) or 1
    assert (_most_neighbours(adj, among, avail)
            == max(_bits(among), key=lambda u: (adj[u] & avail).bit_count()))
