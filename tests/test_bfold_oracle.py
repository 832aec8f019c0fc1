"""bfold_exact against independent oracles: the inclusion-exclusion chi of
G[K_b], a brute force over multisets of independent sets, and pinned values
of instances the earlier subset-assignment search stalled on."""

import time
from itertools import combinations

import pytest

import quantumgraphs as qg
from quantumgraphs import classical
from quantumgraphs.classical import bfold_exact, chromatic_exact, classical_product
from test_chromatic_oracle import inclusion_exclusion_chromatic


def brute_multicover(g, b):
    """chi_b(G) as the fewest independent sets, repeats allowed, that cover
    every vertex at least b times: tries every multiset of c sets for
    c = b, b + 1, ..., cutting a partial multiset only when the slots left
    cannot carry the demand left even with the widest set. For n <= 6."""
    n = g.vertex_count
    assert n <= 6
    indep = [s for r in range(1, n + 1) for s in combinations(range(n), r)
             if not any(g.has_edge(u, v) for u, v in combinations(s, 2))]
    widest = max(map(len, indep))

    def fill(start, slots, need):
        if not any(need):
            return True
        if sum(need) > slots * widest:
            return False
        for i in range(start, len(indep)):
            left = list(need)
            for v in indep[i]:
                left[v] = max(0, left[v] - 1)
            if fill(i, slots - 1, left):
                return True
        return False

    c = b
    while not fill(0, c, [b] * n):
        c += 1
    return c


def solve(g, b):
    value, witness = bfold_exact(g, b)
    witness.validate(g)
    assert witness.fold == b and witness.palette_size == value
    return value


@pytest.fixture(params=[False, True], ids=["bounds", "trivial-upper-bound"])
def search_alone(request, monkeypatch):
    """With the trivial upper bound b * n (one class per vertex, b times),
    the search itself must reach every optimum instead of confirming the
    DSATUR incumbent."""
    if request.param:
        monkeypatch.setattr(classical, "_dsatur_greedy",
                            lambda g: list(range(g.vertex_count)))
    return request.param


def lexicographic_chi(g, b):
    return inclusion_exclusion_chromatic(
        classical_product(g, qg.complete(b), "lexicographic"))


@pytest.mark.parametrize("p", [0.2, 0.35, 0.5, 0.65, 0.8])
def test_bfold_matches_lexicographic_oracle_on_random_graphs(p, search_alone):
    checked = 0
    for b, sizes in ((1, (10, 13, 16)), (2, (6, 7, 8)), (3, (4, 5))):
        for n in sizes:
            for seed in range(3):
                g = qg.random_graph(n, p, 7919 * seed + 31 * n + b)
                assert solve(g, b) == lexicographic_chi(g, b), (n, b, seed)
                checked += 1
    assert checked == 24


NAMED = [("C5", qg.cycle(5), (1, 2, 3)), ("C7", qg.cycle(7), (1, 2)),
         ("C9", qg.cycle(9), (1,)), ("C13", qg.cycle(13), (1,)),
         ("Petersen", qg.petersen(), (1,))]


@pytest.mark.parametrize("name, g, folds", NAMED, ids=[name for name, _, _ in NAMED])
def test_bfold_matches_lexicographic_oracle_on_cycles_and_petersen(
        name, g, folds, search_alone):
    for b in folds:
        assert solve(g, b) == lexicographic_chi(g, b), (name, b)


def test_bfold_on_petersen_and_odd_cycles_beyond_the_oracle(search_alone):
    # chi_b(C_{2k+1}) = 2b + ceil(b / k) (Stahl); chi_2(Petersen) = 5 because
    # Petersen is K(5, 2), and chi_3 = 8 meets ceil(3 * 10 / alpha) = 8
    for k in (2, 3, 4, 5):
        for b in (2, 3):
            assert solve(qg.cycle(2 * k + 1), b) == 2 * b - (-b // k)
    assert solve(qg.petersen(), 2) == 5
    assert solve(qg.petersen(), 3) == 8


SMALL = [("P4", qg.path(4)), ("C5", qg.cycle(5)), ("C6", qg.cycle(6)),
         ("K4", qg.complete(4)), ("P6", qg.path(6)),
         ("K3+2", qg.ClassicalGraph(5, [(0, 1), (1, 2), (0, 2)]))]
SMALL += [("G6-%.1f-%d" % (p, seed), qg.random_graph(6, p, seed))
          for p in (0.3, 0.5, 0.7) for seed in range(3)]


@pytest.mark.parametrize("name, g", SMALL, ids=[name for name, _ in SMALL])
def test_bfold_matches_multiset_brute_force(name, g, search_alone):
    for b in (1, 2, 3):
        assert solve(g, b) == brute_multicover(g, b), (name, b)


def test_brute_force_on_known_values():
    assert brute_multicover(qg.cycle(5), 2) == 5
    assert brute_multicover(qg.cycle(5), 3) == 8
    assert brute_multicover(qg.complete(4), 3) == 12
    assert brute_multicover(qg.path(6), 3) == 6


# The subset-assignment search that bfold_exact replaced took over 2 s on
# each of these. Every value here, like every seed 1-20 of the G(18, 0.5)
# fold-2, G(12, 0.4) fold-3 and G(26, 0.5) fold-1 sweeps, agrees with an
# integer program over all independent sets (scipy's HiGHS, run outside
# the suite).
STALLS = [(18, 0.5, 2, 3, 10), (18, 0.5, 2, 7, 11), (18, 0.5, 2, 8, 12),
          (18, 0.5, 2, 14, 11), (18, 0.5, 2, 17, 11), (18, 0.5, 2, 19, 11),
          (12, 0.4, 3, 3, 10), (12, 0.4, 3, 6, 10), (12, 0.4, 3, 10, 11)]


@pytest.mark.parametrize("n, p, b, seed, value", STALLS)
def test_former_stalls_are_pinned(n, p, b, seed, value):
    start = time.perf_counter()
    assert solve(qg.random_graph(n, p, seed), b) == value
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("seed", [2, 4, 19])
def test_fold_one_on_26_vertices_matches_chromatic(seed):
    g = qg.random_graph(26, 0.5, seed)
    start = time.perf_counter()
    assert solve(g, 1) == chromatic_exact(g)
    assert time.perf_counter() - start < 5.0


def test_a_found_count_is_not_memoized_as_a_failure():
    """G(12, 0.3) with seed 26 has chi_2 = 6, which chromatic_exact of the
    lexicographic product G[K_2] confirms. A demand vector solved with
    bound colors has failed only with bound - 1: a memo that records bound
    itself as failed returns 7 here."""
    g = qg.random_graph(12, 0.3, 26)
    assert solve(g, 2) == chromatic_exact(classical_product(g, qg.complete(2),
                                                            "lexicographic")) == 6
