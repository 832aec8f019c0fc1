"""Exact classical graph oracles: generators, products, coloring solvers.

Everything here is integer combinatorics with no floating point, so the
solvers can serve as independent ground truth for the operator-algebraic
constructions. All solvers are exact branch-and-bound with explicit size
guards; exceeding a guard raises SizeGuardError rather than running forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb


class SizeGuardError(RuntimeError):
    """An input exceeds a supported size: an exact solver's instance limit
    or the dense operator layer's byte limit (qgraph.DENSE_BYTES_LIMIT)."""


_CHROMATIC_VERTEX_LIMIT = 26
_BFOLD_VERTEX_LIMIT = {1: 26, 2: 18, 3: 12}
_KNESER_VERTEX_LIMIT = 512
# Far above every graph the solvers (26), Kneser graphs (512) and the dense
# operator layer (about 64) can use, yet small enough that the adjacency
# sets of an empty graph take about 30 MB instead of exhausting memory.
GRAPH_VERTEX_LIMIT = 1 << 16

PRODUCT_KINDS = ("cartesian", "categorical", "lexicographic", "strong")


def _checked_vertex_count(n) -> int:
    n = int(n)
    if n > GRAPH_VERTEX_LIMIT:
        raise SizeGuardError("graph has %d vertices (limit %d)"
                             % (n, GRAPH_VERTEX_LIMIT))
    return n


class ClassicalGraph:
    """A finite simple undirected graph on vertices 0..n-1.

    The edges are validated and stored at construction. The neighbour sets
    behind ``neighbors``, ``degree`` and ``has_edge`` are built on first use,
    since the exact solvers read only ``edges``.
    """

    def __init__(self, vertex_count: int, edges):
        n = _checked_vertex_count(vertex_count)
        if n < 1:
            raise ValueError("vertex count must be positive")
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d, %d) out of range for %d vertices" % (u, v, n))
            if u == v:
                raise ValueError("loops are not allowed: (%d, %d)" % (u, v))
            norm.add((min(u, v), max(u, v)))
        self.vertex_count = n
        self.edges = frozenset(norm)

    @cached_property
    def _adj(self) -> tuple:
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def relabel(self, perm) -> "ClassicalGraph":
        """Image under the vertex bijection v -> perm[v]."""
        perm = [int(p) for p in perm]
        if sorted(perm) != list(range(self.vertex_count)):
            raise ValueError("not a vertex permutation")
        return ClassicalGraph(self.vertex_count,
                              [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other):
        return (isinstance(other, ClassicalGraph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return "ClassicalGraph(n=%d, m=%d)" % (self.vertex_count, self.edge_count)


# ---------------------------------------------------------------------------
# generators

def complete(n: int) -> ClassicalGraph:
    return ClassicalGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> ClassicalGraph:
    return ClassicalGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> ClassicalGraph:
    if n <= 2:
        return path(n)
    return ClassicalGraph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> ClassicalGraph:
    """Petersen graph, outer cycle 0-4, inner pentagram 5-9, spokes i -- i+5.

    Isomorphic to kneser(5, 2) via outer i -> {2i, 2i+1} and inner
    i -> {2i+2, 2i+4} (mod 5).
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return ClassicalGraph(10, edges)


def kneser(c: int, b: int) -> ClassicalGraph:
    """Kneser graph: b-subsets of [c], adjacent iff disjoint.

    Vertices are the subsets in lexicographic order of their sorted tuples.
    """
    c, b = int(c), int(b)
    if b < 1 or c < b:
        raise ValueError("need c >= b >= 1")
    # for b < c there are at least c vertices, and comb is slow on a huge c
    at_least = b < c and c > _KNESER_VERTEX_LIMIT
    count = c if at_least else comb(c, b)
    if count > _KNESER_VERTEX_LIMIT:
        raise SizeGuardError("Kneser graph K(%d, %d) has %s%d vertices (limit %d)"
                             % (c, b, "at least " * at_least, count, _KNESER_VERTEX_LIMIT))
    subsets = [set(s) for s in combinations(range(c), b)]
    edges = [(i, j) for i, s in enumerate(subsets)
             for j in range(i + 1, len(subsets)) if not s & subsets[j]]
    return ClassicalGraph(len(subsets), edges)


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def random_graph(n: int, p: float, seed: int) -> ClassicalGraph:
    """Seeded Erdos-Renyi graph, reproducible across platforms and languages.

    The generator is a 64-bit linear congruential generator with Knuth's
    MMIX constants: state <- state * 6364136223846793005
    + 1442695040888963407 (mod 2^64), starting from ``seed``. For each pair
    (u, v) with u < v in lexicographic order, one step is taken and the edge
    is included iff (state >> 11) / 2^53 < p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    n = _checked_vertex_count(n)
    state = int(seed) & _MASK64
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            state = (state * _LCG_MULT + _LCG_INC) & _MASK64
            if (state >> 11) / 2.0 ** 53 < p:
                edges.append((u, v))
    return ClassicalGraph(n, edges)


# ---------------------------------------------------------------------------
# products

def classical_product(g: ClassicalGraph, h: ClassicalGraph,
                      kind: str) -> ClassicalGraph:
    """One of the four graph products on vertex pairs (v, a) -> v*|V(h)| + a.

    The edges are built from the factors' edge lists. A G-edge (v, w) joins
    (v, a) to (w, b) for the pairs (a, b) its kind allows: a = b (cartesian,
    strong), an H-edge in either orientation (categorical, strong) or any
    pair (lexicographic). Every kind but the categorical one also joins
    (v, a) to (v, b) for each H-edge (a, b).
    """
    if kind not in PRODUCT_KINDS:
        raise ValueError("unknown product kind %r; expected one of %r"
                         % (kind, PRODUCT_KINDS))
    ng, nh = g.vertex_count, h.vertex_count
    _checked_vertex_count(ng * nh)  # before any edge list is built
    along = []
    if kind in ("cartesian", "strong"):
        along += [(a, a) for a in range(nh)]
    if kind in ("categorical", "strong"):
        along += [p for a, b in h.edges for p in ((a, b), (b, a))]
    if kind == "lexicographic":
        along = [(a, b) for a in range(nh) for b in range(nh)]
    edges = [(v * nh + a, w * nh + b) for v, w in g.edges for a, b in along]
    if kind != "categorical":
        edges += [(v * nh + a, v * nh + b) for v in range(ng) for a, b in h.edges]
    return ClassicalGraph(ng * nh, edges)


# ---------------------------------------------------------------------------
# serialization

def _line_shown(raw: str) -> str:
    """A DIMACS line for an error message, cut to a bounded prefix."""
    return repr(raw) if len(raw) <= 40 else repr(raw[:37]) + "..."


def parse_dimacs(text: str) -> ClassicalGraph:
    """Parse the DIMACS coloring format: 'p edge N M' then 'e u v' lines,
    vertices 1-indexed. Comment lines start with 'c'."""
    n = None
    edges = []
    for raw in text.splitlines():
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if len(tok) != 4 or tok[1] != "edge":
                raise ValueError("bad DIMACS problem line: %s" % _line_shown(raw))
            n = int(tok[2])
        elif tok[0] == "e":
            if len(tok) != 3:
                raise ValueError("bad DIMACS edge line: %s" % _line_shown(raw))
            edges.append((int(tok[1]) - 1, int(tok[2]) - 1))
        else:
            raise ValueError("unrecognized DIMACS line: %s" % _line_shown(raw))
    if n is None:
        raise ValueError("DIMACS input has no problem line")
    return ClassicalGraph(n, edges)


def to_dimacs(g: ClassicalGraph) -> str:
    lines = ["p edge %d %d" % (g.vertex_count, g.edge_count)]
    lines += ["e %d %d" % (u + 1, v + 1) for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# b-fold assignments

@dataclass(frozen=True)
class BFoldAssignment:
    """A b-fold coloring: every vertex receives a b-subset of [0, c)."""

    palette_size: int
    fold: int
    assignment: tuple

    def validate(self, graph: ClassicalGraph) -> None:
        if len(self.assignment) != graph.vertex_count:
            raise ValueError("assignment covers %d vertices, graph has %d"
                             % (len(self.assignment), graph.vertex_count))
        for v, s in enumerate(self.assignment):
            if len(s) != self.fold:
                raise ValueError("vertex %d has %d colors, fold is %d"
                                 % (v, len(s), self.fold))
            if not all(0 <= x < self.palette_size for x in s):
                raise ValueError("vertex %d uses a color outside the palette" % v)
        for u, v in graph.edges:
            if self.assignment[u] & self.assignment[v]:
                raise ValueError("adjacent vertices %d, %d share a color" % (u, v))


# ---------------------------------------------------------------------------
# exact solvers

def _adjacency_masks(g: ClassicalGraph) -> list:
    """Neighbourhoods as bitsets: bit w of entry v is set iff v ~ w."""
    adj = [0] * g.vertex_count
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _complement_masks(adj: list) -> list:
    full = (1 << len(adj)) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(adj)]


def _max_independent_mask(adj: list, avail: int) -> int:
    """A maximum independent set of G[avail] as a bitset, by branch and
    bound. A branch is cut when the set so far plus the number of cliques in
    a greedy clique cover of the remaining vertices cannot beat the best
    set. Deterministic: branching always picks the lowest-index vertex of
    maximum residual degree, and only a strictly larger set replaces the
    best."""
    best_size = -1
    best_set = 0

    def rec(avail: int, cur: int, size: int) -> None:
        nonlocal best_size, best_set
        if size + avail.bit_count() <= best_size:
            return
        if avail == 0:
            if size > best_size:
                best_size, best_set = size, cur
            return
        # an independent set meets each clique of a greedy clique cover once
        cover, m = 0, avail
        while m:
            clique = m & -m
            grow = m & adj[clique.bit_length() - 1]
            while grow:
                low = grow & -grow
                clique |= low
                grow &= adj[low.bit_length() - 1]
            m &= ~clique
            cover += 1
            if size + cover > best_size:
                break
        else:
            return
        pick, pick_deg = -1, -1
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & avail).bit_count()
            if d == 0:
                # isolated within avail: always take it
                rec(avail & ~(1 << v), cur | (1 << v), size + 1)
                return
            if d > pick_deg:
                pick, pick_deg = v, d
        rec(avail & ~(1 << pick) & ~adj[pick], cur | (1 << pick), size + 1)
        rec(avail & ~(1 << pick), cur, size)

    rec(avail, 0, 0)
    return best_set


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def max_independent_set(g: ClassicalGraph) -> frozenset:
    """A maximum independent set, exact, by bitset branch and bound.

    Deterministic: branching always picks the lowest-index vertex of maximum
    residual degree.
    """
    avail = (1 << g.vertex_count) - 1
    return frozenset(_bits(_max_independent_mask(_adjacency_masks(g), avail)))


def clique_number(g: ClassicalGraph) -> int:
    full = (1 << g.vertex_count) - 1
    return _max_independent_mask(_complement_masks(_adjacency_masks(g)), full).bit_count()


def _dsatur_greedy(g: ClassicalGraph) -> list:
    """DSATUR greedy proper coloring (upper bound witness; Brelaz, CACM
    1979). Each step colors the uncolored vertex of largest saturation (the
    number of colors among its neighbours), then largest degree, then lowest
    index, with the smallest color its neighbours do not use."""
    adj = _adjacency_masks(g)
    degree = [a.bit_count() for a in adj]
    colors = [-1] * len(adj)
    satur = [0] * len(adj)  # bit c of satur[v] is set iff a neighbour has color c
    uncolored = (1 << len(adj)) - 1
    while uncolored:
        pick, pick_sat, pick_deg, m = -1, -1, -1, uncolored
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            s = satur[v].bit_count()
            if s > pick_sat or s == pick_sat and degree[v] > pick_deg:
                pick, pick_sat, pick_deg = v, s, degree[v]
        used = satur[pick]
        c = (~used & (used + 1)).bit_length() - 1  # the lowest unset bit
        colors[pick] = c
        uncolored &= ~(1 << pick)
        m = adj[pick] & uncolored
        while m:
            low = m & -m
            m ^= low
            satur[low.bit_length() - 1] |= 1 << c
    return colors


def _fewest_non_neighbours(adj: list, rest: int) -> int:
    """The lowest-index vertex of rest with the fewest non-neighbours in
    rest (itself included)."""
    pick, fewest, m = -1, rest.bit_count() + 1, rest
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        k = (rest & ~adj[u]).bit_count()
        if k < fewest:
            pick, fewest = u, k
    return pick


def _most_neighbours(adj: list, among: int, avail: int) -> int:
    """The lowest-index vertex of among with the most neighbours in avail."""
    pick, most, m = -1, -1, among
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        k = (adj[u] & avail).bit_count()
        if k > most:
            pick, most = u, k
    return pick


def _maximal_independent_sets(adj: list, avail: int):
    """Every maximal independent set of G[avail], as bitsets: Bron-Kerbosch
    with pivoting, run on the complement (whose maximal cliques they are)."""

    def rec(cur: int, cand: int, done: int):
        if not cand:
            if not done:
                yield cur
            return
        # the lowest-index pivot with the most non-neighbours in cand, itself excluded
        pivot, most, m = -1, -1, cand | done
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            k = (cand & ~adj[u] & ~low).bit_count()
            if k > most:
                pivot, most = u, k
        branch = cand & (adj[pivot] | (1 << pivot))
        while branch:
            low = branch & -branch
            branch ^= low
            keep = ~adj[low.bit_length() - 1] & ~low
            yield from rec(cur | low, cand & keep, done & keep)
            cand &= ~low
            done |= low

    return rec(0, avail, 0)


def _greedy_clique_size(adj: list, avail: int, floor: int = 0) -> int:
    """max(floor, the size of a clique of G[avail] grown by maximum residual
    degree, ties to the lowest index); on complement masks, of an
    independent set grown by minimum degree. The growth stops as soon as the
    vertices left cannot take the clique past floor, so a call with floor f
    equals max(f, the call with floor 0)."""
    size = 0
    while avail and size + avail.bit_count() > floor:
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
    return max(floor, size)


def _twin_groups(adj: list) -> list:
    """The groups of two or more true twins, vertices with the same closed
    neighbourhood, as bitsets."""
    groups = {}
    for v, a in enumerate(adj):
        closed = a | 1 << v
        groups[closed] = groups.get(closed, 0) | 1 << v
    return [m for m in groups.values() if m & (m - 1)]


def chromatic_exact(g: ClassicalGraph) -> int:
    """The chromatic number, exact, by branching on whole color classes.

    The root starts from the lower bound ceil(n / alpha) against the DSATUR
    greedy upper bound, and every other bound is taken in one search over
    vertex sets R, of which the root is an ordinary one (Lawler, IPL 1976;
    Eppstein, JGAA 2003). G[R] is k-colorable iff some maximal independent
    set I of G[R] that contains a chosen vertex v leaves G[R - I]
    (k-1)-colorable, because any color class can be grown to a maximal one
    by taking vertices from the other classes. The candidates I are {v}
    joined to each maximal independent set of G[R - N[v]], and v is the
    vertex with the fewest non-neighbours in R. True twins, vertices with
    the same closed neighbourhood in G, stay twins in every G[R], are
    adjacent, and swapping two of them maps colorings to colorings; so of
    each group of twins only the lowest in R - N[v] is offered to the
    classes through v, and alpha(G) is taken with all but the lowest twin of
    each group removed. False twins (same open neighbourhood) may share a
    class and are not merged. The search keeps its best coloring count as
    the bound, and a remainder R is cut off when a greedy clique of G[R],
    ceil(|R| / alpha(G[R])) or an earlier failure on R rules out the colors
    left. alpha(G[R]) is computed only when a greedy independent set cannot
    rule that bound out, and is memoized per R; every searched R records the
    largest color count known to fail on it. Nothing is kept between calls.
    """
    n = g.vertex_count
    if n > _CHROMATIC_VERTEX_LIMIT:
        raise SizeGuardError("chromatic_exact supports at most %d vertices, got %d"
                             % (_CHROMATIC_VERTEX_LIMIT, n))
    adj = _adjacency_masks(g)
    full = (1 << n) - 1
    twins = _twin_groups(adj)
    dup = sum(m & (m - 1) for m in twins)  # all but the lowest twin of each group
    alpha = {full: _max_independent_mask(adj, full & ~dup).bit_count()}
    co_adj = _complement_masks(adj)
    fails = {}

    def least(rest: int, bound: int, alpha_above: int) -> int:
        """min(chi(G[rest]), bound); alpha_above bounds alpha(G[rest])."""
        if not rest:
            return 0
        size = rest.bit_count()
        alpha_above = alpha.get(rest, alpha_above)
        lo = max(fails.get(rest, 0) + 1, -(-size // alpha_above))
        if lo < bound:
            lo = _greedy_clique_size(adj, rest, lo)
        if (lo < bound and rest not in alpha
                and size > (bound - 1) * _greedy_clique_size(co_adj, rest)):
            alpha[rest] = alpha_above = _max_independent_mask(adj, rest).bit_count()
            lo = max(lo, -(-size // alpha_above))
        if lo < bound:
            v = _fewest_non_neighbours(adj, rest)
            inside = rest & ~adj[v] & ~(1 << v)
            for m in twins:
                m &= inside
                inside &= ~(m & (m - 1))
            for cls in _maximal_independent_sets(adj, inside):
                bound = min(bound, 1 + least(rest & ~cls & ~(1 << v), bound - 1,
                                             alpha_above))
                if bound == lo:
                    break
        fails[rest] = max(fails.get(rest, 0), bound - 1)
        return bound

    return least(full, max(_dsatur_greedy(g)) + 1, alpha[full])


def _cover_classes(adj: list, cand: int):
    """Every maximal independent set of G[cand] as a bitset, for the
    multicover search: Bron-Kerbosch with Tomita's pivot on the
    complement, kept apart from _maximal_independent_sets (see
    bfold_exact)."""

    def rec(cur: int, cand: int, done: int):
        if not cand:
            if not done:
                yield cur
            return
        # the lowest-index pivot with the most non-neighbours in cand, itself included
        pivot, most, m = -1, -1, cand | done
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            k = (cand & ~adj[u]).bit_count()
            if k > most:
                pivot, most = u, k
        branch = cand & (adj[pivot] | (1 << pivot))
        while branch:
            low = branch & -branch
            branch ^= low
            free = ~adj[low.bit_length() - 1] & ~low
            yield from rec(cur | low, cand & free, done & free)
            cand &= ~low
            done |= low

    return rec(0, cand, 0)


def bfold_exact(g: ClassicalGraph, b: int):
    """The b-fold chromatic number with a witness: (value, BFoldAssignment).

    A b-fold c-coloring is a multiset of c independent sets (the color
    classes) that covers every vertex b times; covering a vertex more often
    is harmless, since a class can drop it (Stahl, JCTB 1976;
    Scheinerman-Ullman, Fractional Graph Theory, ch. 3). One branch and
    bound descends on the demand vector, the number of classes each vertex
    still needs: it takes the demanded vertex v with the fewest demanded
    non-neighbours and branches on v joined to each maximal independent set
    of the demanded non-neighbours of v. A branch lowers the demand of its
    class by one and spends one color, so each vertex ends in exactly b
    classes. A demand vector is cut off when the colors left cannot beat
    the best cover found so far by ceil(total demand / alpha), by the total
    demand of a greedy clique, or by an earlier failure of the same vector
    with at least as many colors. The upper bound to beat is b copies of a DSATUR
    coloring. alpha of the demanded vertices, the largest of their maximal
    independent sets, is computed only when a greedy independent set cannot
    rule that bound out, and is memoized per set. The search enumerates its
    own independent sets and takes alpha from them: it shares no search
    with chromatic_exact, so that chi(G[K_b]) = chi_b(G) (criterion 2)
    compares two independent solvers.

    Color i of the witness is the i-th class in lexicographic order of the
    classes' sorted vertex lists. The witness is validated before it is
    returned.
    """
    b = int(b)
    if b < 1:
        raise ValueError("fold must be >= 1")
    if b not in _BFOLD_VERTEX_LIMIT:
        raise SizeGuardError("bfold_exact supports folds 1..%d, got %d"
                             % (max(_BFOLD_VERTEX_LIMIT), b))
    n = g.vertex_count
    if n > _BFOLD_VERTEX_LIMIT[b]:
        raise SizeGuardError("bfold_exact at fold %d supports at most %d vertices, got %d"
                             % (b, _BFOLD_VERTEX_LIMIT[b], n))
    adj = _adjacency_masks(g)
    co_adj = _complement_masks(adj)
    full = (1 << n) - 1
    # the demand vector is b stacked n-bit levels: bit v of level j
    # (j = 0..b-1) is set iff vertex v still needs more than j classes
    shifts = [j * n for j in range(b)]
    spread = sum(1 << shift for shift in shifts)
    alpha = {}
    fails = {}

    def spend(demand: int, cls: int) -> int:
        """The demand vector after one more class cls."""
        rep = cls * spread
        return (demand & ~rep) | ((demand >> n) & rep)

    def clique_demand(demand: int) -> int:
        """Total demand over a clique grown by largest demand, then degree."""
        avail, total = demand & full, 0
        while avail:
            level = b
            while not (top := demand >> shifts[level - 1] & avail):
                level -= 1
            total += level
            avail &= adj[_most_neighbours(adj, top, avail)]
        return total

    def least(demand: int, bound: int, alpha_above: int):
        """(min(colors needed, bound), the classes when below bound)."""
        if not demand:
            return 0, []
        rest = demand & full
        total = demand.bit_count()
        alpha_above = alpha.get(rest, alpha_above)
        lo = max(fails.get(demand, 0) + 1, -(-total // alpha_above))
        if lo < bound:
            lo = max(lo, clique_demand(demand))
        if (lo < bound and rest not in alpha
                and total > (bound - 1) * _greedy_clique_size(co_adj, rest)):
            alpha[rest] = alpha_above = max(
                cls.bit_count() for cls in _cover_classes(adj, rest))
            lo = max(lo, -(-total // alpha_above))
        best = None
        if lo < bound:
            v = _fewest_non_neighbours(adj, rest)
            inside = rest & ~adj[v] & ~(1 << v)
            for cls in _cover_classes(adj, inside):
                cls |= 1 << v
                count, sub = least(spend(demand, cls), bound - 1, alpha_above)
                if count + 1 < bound:
                    bound, best = count + 1, [cls] + sub
                    if bound == lo:
                        break
        fails[demand] = max(fails.get(demand, 0), max(lo, bound) - 1)
        return bound, best

    greedy = _dsatur_greedy(g)
    value, classes = least(full * spread, b * (max(greedy) + 1), n)
    if classes is None:
        classes = [sum(1 << v for v in range(n) if greedy[v] == c)
                   for c in range(value // b) for _ in range(b)]
    classes.sort(key=lambda cls: list(_bits(cls)))
    witness = BFoldAssignment(value, b, tuple(
        frozenset(i for i, cls in enumerate(classes) if cls >> v & 1)
        for v in range(n)))
    witness.validate(g)
    return value, witness


def bounds_report(g: ClassicalGraph, h: ClassicalGraph) -> dict:
    """Chromatic data for all four products of two classical graphs plus the
    product bound checks; all quantities exact integers. Each distinct
    product graph is solved once: strong and lexicographic coincide when H
    is complete, and the products of edgeless factors coincide too."""
    chi_g = chromatic_exact(g)
    chi_h = chromatic_exact(h)
    b = chi_h
    chi_b_g, _ = bfold_exact(g, b)
    graphs = {kind: classical_product(g, h, kind) for kind in PRODUCT_KINDS}
    solved = {p: chromatic_exact(p) for p in set(graphs.values())}
    prod_chi = {kind: solved[p] for kind, p in graphs.items()}
    lo, hi = max(chi_g, chi_h), min(chi_g, chi_h)
    rows = [
        ("max(chi(G), chi(H)) <= chi(cartesian)", lo, "<=", prod_chi["cartesian"]),
        ("chi(categorical) <= min(chi(G), chi(H))", prod_chi["categorical"], "<=", hi),
        ("max(chi(G), chi(H)) <= chi(strong)", lo, "<=", prod_chi["strong"]),
        ("chi(strong) <= chi(G) * chi(H)", prod_chi["strong"], "<=", chi_g * chi_h),
        ("chi(lexicographic) <= chi_b(G) at b = chi(H)",
         prod_chi["lexicographic"], "<=", chi_b_g),
        ("chi(lexicographic) == chi_b(G) at b = chi(H)",
         prod_chi["lexicographic"], "==", chi_b_g),
    ]
    checks = [{"name": name, "ok": lhs <= rhs if op == "<=" else lhs == rhs,
               "detail": "%d %s %d" % (lhs, op, rhs)} for name, lhs, op, rhs in rows]
    return {
        "v": 1, "kind": "bounds_report",
        "chi_g": chi_g, "chi_h": chi_h, "b": b, "chi_b_g": chi_b_g,
        "products": prod_chi,
        "checks": checks,
        "all_ok": all(c["ok"] for c in checks),
    }


def graph_homomorphism(g: ClassicalGraph, h: ClassicalGraph):
    """An edge-preserving map V(g) -> V(h) as a tuple, or None.

    Plain backtracking, independent of the coloring solvers, so the two can
    cross-check each other.
    """
    n = g.vertex_count
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    assign = [-1] * n

    def rec(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(h.vertex_count):
            if all(h.has_edge(w, assign[u])
                   for u in g.neighbors(v) if assign[u] != -1):
                assign[v] = w
                if rec(i + 1):
                    return True
                assign[v] = -1
        return False

    return tuple(assign) if rec(0) else None


def kneser_hom_check(g: ClassicalGraph, c: int, b: int) -> bool:
    """Whether a homomorphism g -> kneser(c, b) exists.

    Equivalent to chi_b(g) <= c, and an independent route to b-fold
    chromatic numbers on tiny graphs only. A homomorphism is often found in
    milliseconds, but a refutation (c < chi_b) searches the whole space:
    on G(18, 0.5) at fold 2 (seed 1, c = 9) it did not finish in 60 s, and
    on G(12, 0.4) at fold 3 (seed 1, c = 11) it took 17 s. Even c = chi_b
    can stall: G(12, 0.4) at fold 3 with seed 3 and c = 10 did not answer
    in 60 s. Beyond tiny graphs it gives no lower bound; ``bfold_exact``
    does.
    """
    if g.vertex_count > _CHROMATIC_VERTEX_LIMIT:
        raise SizeGuardError("kneser_hom_check supports at most %d vertices, got %d"
                             % (_CHROMATIC_VERTEX_LIMIT, g.vertex_count))
    return graph_homomorphism(g, kneser(c, b)) is not None
