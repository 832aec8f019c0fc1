"""Unitary covariance of the four products and of the graph verifier, over
generated pairs of small graphs.

Relabeling each factor by a unitary and then taking the product must give
the product relabeled by the Kronecker product of the unitaries, and the
verifier must keep every verdict with every residual within 1e-12.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same pairs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs.classical import ClassicalGraph

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
