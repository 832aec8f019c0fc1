"""The four products over generated pairs of small factors.

Relabeling each factor by a unitary and then taking the product must give
the product relabeled by the Kronecker product of the unitaries, and the
verifier must keep every verdict with every residual within 1e-12. The
edge space's dimension must follow the counting formula of each kind, and
the classical product must equal its vertex-pair definition. Hypothesis
runs derandomized with a fixed example count and no example database, so
every run checks the same pairs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs.classical import ClassicalGraph, classical_product

FIXED = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@st.composite
def graphs(draw, max_n=3):
    """A classical graph on at most max_n vertices, embedded, or the
    complete quantum graph over M_2."""
    if draw(st.booleans()):
        return qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return qg.from_classical(ClassicalGraph(n, [e for e, k in zip(pairs, keep) if k]))


def same_verdicts(a, b):
    assert [c.name for c in a.checks] == [c.name for c in b.checks]
    for x, y in zip(a.checks, b.checks):
        assert x.passed == y.passed, (x, y)
        assert abs(x.residual - y.residual) <= 1e-12, (x, y)


@FIXED
@given(graphs(), graphs(), st.integers(0, 2 ** 32 - 1))
def test_products_and_their_verdicts_are_unitarily_covariant(haar, g, h, seed):
    u, v = haar(g.n, seed), haar(h.n, seed + 1)
    g_u, h_v = qg.conjugate_graph(g, u), qg.conjugate_graph(h, v)
    same_verdicts(qg.verify_quantum_graph(g), qg.verify_quantum_graph(g_u))
    same_verdicts(qg.verify_quantum_graph(h), qg.verify_quantum_graph(h_v))
    for kind in qg.PRODUCT_KINDS:
        plain = qg.product(g, h, kind)
        moved = qg.product(g_u, h_v, kind)
        relabeled = qg.conjugate_graph(plain, np.kron(u, v))
        assert moved.S.equals_span(relabeled.S), kind
        assert moved.M.equals(relabeled.M), kind
        expected = qg.verify_quantum_graph(plain)
        same_verdicts(expected, qg.verify_quantum_graph(moved))
        same_verdicts(expected, qg.verify_quantum_graph(relabeled))


@st.composite
def classical_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return ClassicalGraph(n, [e for e, k in zip(pairs, keep) if k])


def vertex_pair_product(g, h, kind):
    """Each product by its definition, one pair of product vertices at a
    time: (v, a) ~ (w, b) by the kind's rule on v ~ w, v = w, a ~ b, a = b."""
    ng, nh = g.vertex_count, h.vertex_count
    edges = []
    for v, a, w, b in np.ndindex(ng, nh, ng, nh):
        if w * nh + b <= v * nh + a:
            continue
        gv, ha = g.has_edge(v, w), h.has_edge(a, b)
        rule = {"cartesian": (gv and a == b) or (v == w and ha),
                "categorical": gv and ha,
                "lexicographic": gv or (v == w and ha),
                "strong": (gv and a == b) or (v == w and ha) or (gv and ha)}
        if rule[kind]:
            edges.append((v * nh + a, w * nh + b))
    return ClassicalGraph(ng * nh, edges)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(classical_graphs(), classical_graphs())
def test_classical_product_matches_the_vertex_pair_definition(g, h):
    for kind in qg.PRODUCT_KINDS:
        assert classical_product(g, h, kind) == vertex_pair_product(g, h, kind), kind


@st.composite
def quantum_factors(draw, max_n=4):
    """A classical embedding, or the complete quantum graph over 1 to 3
    random blocks, conjugated by a Haar unitary or not."""
    if draw(st.booleans()):
        return qg.from_classical(draw(classical_graphs(max_n)))
    blocks, room = [], max_n
    for _ in range(draw(st.integers(1, 3))):
        if room == 0:
            break
        mult = draw(st.integers(1, room))
        size = draw(st.integers(1, room // mult))
        blocks.append((mult, size))
        room -= mult * size
    g = qg.complete_quantum_graph(qg.BlockAlgebra(blocks))
    seed = draw(st.none() | st.integers(0, 2 ** 16))
    if seed is None:
        return g
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
    return qg.conjugate_graph(g, np.linalg.qr(m)[0])


@FIXED
@given(quantum_factors(), quantum_factors())
def test_product_dimension_follows_the_counting_formula(g, h):
    """dim S of each kind from the factors' dim S, dim M' = sum of m^2 over
    the blocks (m, k) of M, and n^2 = dim B(H)."""
    sg, sh = g.S.dim, h.S.dim
    cg, ch = (sum(m * m for m, _ in x.M.blocks) for x in (g, h))
    expected = {"cartesian": sg * ch + cg * sh,
                "categorical": sg * sh,
                "lexicographic": sg * h.n ** 2 + cg * sh,
                "strong": sg * ch + cg * sh + sg * sh}
    for kind in qg.PRODUCT_KINDS:
        assert qg.product(g, h, kind).S.dim == expected[kind], kind
