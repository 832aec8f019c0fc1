"""Exact classical solvers checked against brute force on small instances."""

import resource
import subprocess
import sys
from itertools import combinations, product

import pytest

import quantumgraphs as qg
from quantumgraphs.classical import (
    BFoldAssignment, ClassicalGraph, SizeGuardError, bfold_exact,
    chromatic_exact, classical_product, clique_number, graph_homomorphism,
    kneser, kneser_hom_check, max_independent_set, parse_dimacs, to_dimacs)


# brute-force oracles, exponential but independent of the solvers under test

def brute_chromatic(g):
    n = g.vertex_count
    for c in range(1, n + 1):
        for colors in product(range(c), repeat=n):
            if all(colors[u] != colors[v] for u, v in g.edges):
                return c
    raise AssertionError("unreachable")


def brute_alpha(g):
    n = g.vertex_count
    best = 0
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def brute_bfold(g, b):
    n = g.vertex_count
    for c in range(b, b * n + 1):
        subsets = list(combinations(range(c), b))
        for asg in product(subsets, repeat=n):
            if all(not set(asg[u]) & set(asg[v]) for u, v in g.edges):
                return c
    raise AssertionError("unreachable")


def test_constructors_and_counts():
    assert qg.complete(5).edge_count == 10
    assert qg.path(4).edge_count == 3
    assert qg.cycle(6).edge_count == 6
    assert qg.cycle(2).edge_count == 1  # degenerate cycle collapses to an edge
    p = qg.petersen()
    assert p.vertex_count == 10 and p.edge_count == 15
    assert all(p.degree(v) == 3 for v in range(10))


def test_graph_validation():
    with pytest.raises(ValueError):
        ClassicalGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        ClassicalGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        ClassicalGraph(0, [])
    g = ClassicalGraph(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.edge_count == 1


def test_vertex_limit_comes_before_any_per_vertex_work():
    limit = qg.classical.GRAPH_VERTEX_LIMIT
    assert ClassicalGraph(limit, []).vertex_count == limit
    with pytest.raises(SizeGuardError, match="vertices"):
        ClassicalGraph(limit + 1, [])
    with pytest.raises(SizeGuardError):
        ClassicalGraph(10**12, [])
    g = ClassicalGraph(300, [])
    with pytest.raises(SizeGuardError):  # before its quadratic edge loop
        qg.classical_product(g, g, "strong")
    # before random_graph's LCG loop over 2^31 pairs, so in a child capped
    # at 1.5 GB that a missing check makes fail fast instead of hanging
    cap = 1536 << 20
    child = subprocess.run(
        [sys.executable, "-c", "import quantumgraphs as qg; "
         "qg.random_graph(qg.classical.GRAPH_VERTEX_LIMIT + 1, 0.5, 0)"],
        capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert "SizeGuardError: graph has %d vertices" % (limit + 1) in child.stderr


def test_relabel():
    c5 = qg.cycle(5)
    rolled = c5.relabel([(v + 1) % 5 for v in range(5)])
    assert rolled == c5  # cycles are shift invariant
    with pytest.raises(ValueError):
        c5.relabel([0, 0, 1, 2, 3])


def test_petersen_is_kneser_5_2():
    # documented bijection: outer i -> {2i, 2i+1}, inner i -> {2i+2, 2i+4},
    # all elements mod 5; kneser numbers its vertices, the 2-subsets, in
    # lexicographic order, which is the order combinations yields
    index = {s: i for i, s in enumerate(combinations(range(5), 2))}
    perm = []
    for i in range(5):
        perm.append(index[tuple(sorted(((2 * i) % 5, (2 * i + 1) % 5)))])
    for i in range(5):
        perm.append(index[tuple(sorted(((2 * i + 2) % 5, (2 * i + 4) % 5)))])
    assert qg.petersen().relabel(perm) == kneser(5, 2)


def test_kneser_basics():
    k52 = kneser(5, 2)
    assert k52.vertex_count == 10 and k52.edge_count == 15
    assert kneser(4, 2).edge_count == 3  # perfect matching
    assert clique_number(kneser(6, 2)) == 3
    with pytest.raises(ValueError):
        kneser(2, 3)
    with pytest.raises(SizeGuardError):
        kneser(20, 10)


def test_random_graph_matches_documented_generator():
    # independent reimplementation of the documented LCG edge rule
    n, p, seed = 7, 0.4, 42
    state = seed
    expected = set()
    for u in range(n):
        for v in range(u + 1, n):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            if (state >> 11) / 2.0 ** 53 < p:
                expected.add((u, v))
    g = qg.random_graph(n, p, seed)
    assert set(g.edges) == expected
    assert qg.random_graph(n, p, seed) == g
    assert qg.random_graph(n, p, seed + 1) != g
    assert qg.random_graph(n, 0.0, seed).edge_count == 0
    assert qg.random_graph(n, 1.0, seed).edge_count == n * (n - 1) // 2
    with pytest.raises(ValueError):
        qg.random_graph(3, 1.5, 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_max_independent_set_against_brute_force(seed):
    g = qg.random_graph(10, 0.4, seed)
    s = max_independent_set(g)
    assert all(not g.has_edge(u, v) for u, v in combinations(sorted(s), 2))
    assert len(s) == brute_alpha(g)


def test_clique_number_known_values():
    assert clique_number(qg.complete(4)) == 4
    assert clique_number(qg.cycle(5)) == 2
    assert clique_number(qg.petersen()) == 2


def test_chromatic_known_values():
    assert chromatic_exact(qg.complete(1)) == 1
    assert chromatic_exact(qg.complete(5)) == 5
    assert chromatic_exact(qg.cycle(6)) == 2
    assert chromatic_exact(qg.cycle(7)) == 3
    assert chromatic_exact(qg.petersen()) == 3
    bipartite = ClassicalGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    assert chromatic_exact(bipartite) == 2


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_chromatic_against_brute_force(seed):
    g = qg.random_graph(7, 0.5, seed)
    assert chromatic_exact(g) == brute_chromatic(g)


def test_bfold_fold_one_agrees_with_chromatic():
    for g in (qg.cycle(5), qg.petersen(), qg.random_graph(8, 0.5, 11)):
        value, witness = bfold_exact(g, 1)
        assert value == chromatic_exact(g)
        witness.validate(g)


@pytest.mark.parametrize("g,b", [
    (qg.cycle(4), 2), (qg.cycle(5), 2), (qg.path(3), 2), (qg.complete(3), 2),
])
def test_bfold_against_brute_force(g, b):
    value, witness = bfold_exact(g, b)
    assert value == brute_bfold(g, b)
    witness.validate(g)
    assert witness.fold == b and witness.palette_size == value


def test_bfold_subadditive_in_fold():
    # chi_{a+b} <= chi_a + chi_b
    g = qg.cycle(5)
    v1, _ = bfold_exact(g, 1)
    v2, _ = bfold_exact(g, 2)
    v3, _ = bfold_exact(g, 3)
    assert v2 <= 2 * v1 and v3 <= v1 + v2
    assert v1 <= v2 <= v3
    assert (v1, v2, v3) == (3, 5, 8)


@pytest.mark.parametrize("n", [1, 2, 4, 12])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_bfold_edgeless(n, b):
    """The general searches find an edgeless graph's one color and b colors,
    and give every vertex all b of them."""
    g = ClassicalGraph(n, [])
    assert chromatic_exact(g) == 1
    value, witness = bfold_exact(g, b)
    assert value == b
    assert witness.assignment == (frozenset(range(b)),) * n
    witness.validate(g)


def test_bfold_assignment_validation():
    g = qg.complete(2)
    bad = BFoldAssignment(2, 1, (frozenset({0}), frozenset({0})))
    with pytest.raises(ValueError):
        bad.validate(g)
    short = BFoldAssignment(2, 2, (frozenset({0}), frozenset({0, 1})))
    with pytest.raises(ValueError):
        short.validate(g)
    ok = BFoldAssignment(2, 1, (frozenset({0}), frozenset({1})))
    ok.validate(g)


def test_kneser_homomorphism_route_matches_bfold():
    for g in (qg.cycle(5), qg.complete(3), qg.petersen()):
        chi2, _ = bfold_exact(g, 2)
        for c in (4, 5, 6):
            assert kneser_hom_check(g, c, 2) == (chi2 <= c)


def test_graph_homomorphism_properties():
    c5, k3 = qg.cycle(5), qg.complete(3)
    hom = graph_homomorphism(c5, k3)
    assert hom is not None
    assert all(hom[u] != hom[v] for u, v in c5.edges)
    assert graph_homomorphism(k3, c5) is None  # C5 has no triangle
    assert graph_homomorphism(qg.complete(4), k3) is None


def test_classical_product_edge_counts():
    g, h = qg.cycle(5), qg.complete(2)
    mg, nh = g.edge_count, h.vertex_count
    ng, mh = g.vertex_count, h.edge_count
    assert classical_product(g, h, "cartesian").edge_count == mg * nh + ng * mh
    assert classical_product(g, h, "categorical").edge_count == 2 * mg * mh
    assert classical_product(g, h, "lexicographic").edge_count == mg * nh ** 2 + ng * mh
    cart = classical_product(g, h, "cartesian").edges
    cat = classical_product(g, h, "categorical").edges
    strong = classical_product(g, h, "strong").edges
    lex = classical_product(g, h, "lexicographic").edges
    assert strong == cart | cat
    assert strong <= lex
    with pytest.raises(ValueError):
        classical_product(g, h, "tensor")


@pytest.mark.parametrize("g, h, distinct", [
    (qg.cycle(7), qg.complete(3), 3),   # strong and lexicographic coincide
    (qg.cycle(5), qg.path(3), 4),
    (qg.complete(1), qg.complete(1), 1),  # every product of K1 is K1
])
def test_bounds_report_solves_each_distinct_product_once(monkeypatch, g, h, distinct):
    from quantumgraphs import classical
    solved = []

    def counted(graph):
        solved.append(graph)
        return chromatic_exact(graph)

    monkeypatch.setattr(classical, "chromatic_exact", counted)
    rep = classical.bounds_report(g, h)
    assert solved[:2] == [g, h]
    assert len(solved) == 2 + distinct == 2 + len(set(solved[2:]))
    assert rep["products"] == {kind: chromatic_exact(classical_product(g, h, kind))
                               for kind in qg.PRODUCT_KINDS}


def test_classical_product_vertex_indexing():
    # pair (v, a) lives at index v * |V(H)| + a
    g, h = qg.path(3), qg.complete(2)
    p = classical_product(g, h, "cartesian")
    assert p.has_edge(0 * 2 + 0, 1 * 2 + 0)  # g-edge, same h vertex
    assert p.has_edge(1 * 2 + 0, 1 * 2 + 1)  # same g vertex, h-edge
    assert not p.has_edge(0 * 2 + 0, 1 * 2 + 1)


def test_dimacs_round_trip_and_exact_format():
    assert to_dimacs(qg.path(3)) == "p edge 3 2\ne 1 2\ne 2 3\n"
    for g in (qg.petersen(), qg.random_graph(9, 0.5, 13)):
        assert parse_dimacs(to_dimacs(g)) == g
    parsed = parse_dimacs("c comment\np edge 3 1\ne 1 3\n")
    assert parsed == ClassicalGraph(3, [(0, 2)])


def test_dimacs_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_dimacs("e 1 2\n")  # no problem line
    with pytest.raises(ValueError):
        parse_dimacs("p edge x 1\ne 1 2\n")
    with pytest.raises(ValueError):
        parse_dimacs("p edge 3 1\nq 1 2\n")


def test_size_guards():
    big = qg.complete(27)
    with pytest.raises(SizeGuardError):
        chromatic_exact(big)
    with pytest.raises(SizeGuardError):
        bfold_exact(qg.complete(19), 2)
    with pytest.raises(SizeGuardError):
        bfold_exact(qg.complete(3), 4)
    with pytest.raises(ValueError):
        bfold_exact(qg.complete(3), 0)
