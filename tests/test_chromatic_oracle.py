"""chromatic_exact against an independent inclusion-exclusion oracle and
against closed forms: lexicographic and strong products, Kneser graphs and
Mycielski graphs."""

import random

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import classical
from quantumgraphs.classical import chromatic_exact, classical_product


def inclusion_exclusion_chromatic(g):
    """chi(G) by counting covers with independent sets (Bjorklund, Husfeldt
    and Koivisto, SIAM J. Comput. 2009).

    With i(S) the number of independent sets inside S (the empty set
    included), the number of k-tuples of independent sets covering V is
    sum over S of (-1)^(n - |S|) i(S)^k, and it is positive iff G is
    k-colorable. Uses arrays over all 2^n subsets, so only for n <= 16.
    """
    n = g.vertex_count
    assert n <= 16
    independent = np.ones(1, dtype=bool)
    size = np.zeros(1, dtype=np.int64)
    for v in range(n):
        lower = sum(1 << u for u in g.neighbors(v) if u < v)
        free = (np.arange(1 << v) & lower) == 0
        independent = np.concatenate([independent, independent & free])
        size = np.concatenate([size, size + 1])
    count = independent.astype(np.int64)
    for j in range(n):  # zeta transform: count[S] = sum over T inside S
        view = count.reshape(-1, 2, 1 << j)
        view[:, 1, :] += view[:, 0, :]
    sign = np.where((n - size) % 2 == 0, 1, -1)
    values, where = np.unique(count, return_inverse=True)
    weights = np.zeros(len(values), dtype=np.int64)
    np.add.at(weights, where.reshape(-1), sign)
    terms = [(int(w), int(x)) for w, x in zip(weights, values) if w]
    for k in range(1, n + 1):
        covers = sum(w * x ** k for w, x in terms)
        assert covers >= 0
        if covers > 0:
            return k
    raise AssertionError("unreachable")


def relabeled(g, seed):
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def test_oracle_on_known_values():
    assert inclusion_exclusion_chromatic(qg.complete(1)) == 1
    assert inclusion_exclusion_chromatic(qg.path(4)) == 2
    assert inclusion_exclusion_chromatic(qg.cycle(7)) == 3
    assert inclusion_exclusion_chromatic(qg.complete(6)) == 6
    assert inclusion_exclusion_chromatic(qg.petersen()) == 3


@pytest.fixture(params=[False, True], ids=["bounds", "trivial-upper-bound"])
def search_alone(request, monkeypatch):
    """With the trivial upper bound n (one color per vertex), the search
    itself must find every optimal coloring instead of confirming a greedy
    one."""
    if request.param:
        monkeypatch.setattr(classical, "_dsatur_greedy",
                            lambda g: list(range(g.vertex_count)))
    return request.param


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])
def test_chromatic_matches_oracle_on_random_graphs(p, search_alone):
    for n in (9, 12, 14, 16):
        for seed in range(3):
            g = qg.random_graph(n, p, 7919 * seed + n)
            assert chromatic_exact(g) == inclusion_exclusion_chromatic(g)


def with_twins(g, copies, closed, seed):
    """g with ``copies`` more vertices, each a copy of a random earlier
    vertex u: a true twin (adjacent to u, same closed neighbourhood) when
    ``closed``, else a false twin (same open neighbourhood, not adjacent),
    then relabeled so that no twin is the lowest of its group by
    construction."""
    rng = random.Random(seed)
    n, edges = g.vertex_count, set(g.edges)
    for w in range(n, n + copies):
        u = rng.randrange(w)
        edges |= {(x, w) for x in range(w) if (min(u, x), max(u, x)) in edges}
        if closed:
            edges.add((u, w))
    return relabeled(qg.ClassicalGraph(n + copies, edges), seed)


@pytest.mark.parametrize("closed", [True, False], ids=["true-twins", "false-twins"])
@pytest.mark.parametrize("p", [0.2, 0.4, 0.6])
def test_chromatic_matches_oracle_with_planted_twins(p, closed, search_alone):
    for n, copies in ((6, 6), (8, 5), (10, 4), (12, 4)):
        for seed in range(4):
            g = with_twins(qg.random_graph(n, p, 7919 * seed + n), copies, closed,
                           31 * seed + copies)
            assert chromatic_exact(g) == inclusion_exclusion_chromatic(g), (n, seed)


FACTORS = {"K2": qg.complete(2), "K3": qg.complete(3), "P2": qg.path(2),
           "P3": qg.path(3), "P4": qg.path(4), "C4": qg.cycle(4),
           "C5": qg.cycle(5), "C7": qg.cycle(7)}


@pytest.mark.parametrize("kind", ["lexicographic", "strong"])
def test_chromatic_matches_oracle_on_relabeled_products(kind, search_alone):
    checked = 0
    for i, (a, g) in enumerate(FACTORS.items()):
        for j, (b, h) in enumerate(FACTORS.items()):
            if not 4 <= g.vertex_count * h.vertex_count <= 16:
                continue
            prod = relabeled(classical_product(g, h, kind), 31 * i + j)
            assert chromatic_exact(prod) == inclusion_exclusion_chromatic(prod), (a, b)
            checked += 1
    assert checked >= 20


def mycielski(k):
    """The Mycielski graph M_k (M_2 = K_2, M_3 = C_5, M_4 = Groetzsch): from
    M_k on vertices v_i, M_(k+1) adds a shadow u_i joined to the neighbours
    of v_i, and a hub joined to every shadow. chi(M_k) = k."""
    g = qg.complete(2)
    for _ in range(k - 2):
        n = g.vertex_count
        edges = set(g.edges) | {(w, n + v) for v, w in g.edges}
        edges |= {(v, n + w) for v, w in g.edges} | {(n + v, 2 * n) for v in range(n)}
        g = qg.ClassicalGraph(2 * n + 1, edges)
    return g


# Seeds 1, 3, 5, 7-9, 13, 16, 18-20, 22 and 23 of this relabeling of C5[K5]
# took plain vertex-by-vertex backtracking 1.9 to 2.8 s each (2-vCPU Xeon,
# Python 3.11); the others took a few milliseconds. chi(K(c, b)) = c - 2b + 2
# (Lovasz, JCTA 1978).
CLOSED_FORMS = [
    ("C5[K5]", classical_product(qg.cycle(5), qg.complete(5), "lexicographic"), 13),
    ("C5[C5]", classical_product(qg.cycle(5), qg.cycle(5), "lexicographic"), 8),
    ("C7[K3]", classical_product(qg.cycle(7), qg.complete(3), "lexicographic"), 7),
    ("C7xK3", classical_product(qg.cycle(7), qg.complete(3), "strong"), 7),
    ("K(6,2)", qg.kneser(6, 2), 4),
    ("K(7,2)", qg.kneser(7, 2), 5),
    ("M4", mycielski(4), 4),
    ("M5", mycielski(5), 5),
]


@pytest.mark.parametrize("name, g, chi", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_closed_forms_under_relabeling(name, g, chi, search_alone):
    for seed in range(24):
        assert chromatic_exact(relabeled(g, seed)) == chi, (name, seed)
