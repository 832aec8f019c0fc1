"""Properties of bfold_exact over generated graphs on at most 8 vertices.

Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same graphs.
"""

from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs.classical import (
    ClassicalGraph, bfold_exact, chromatic_exact, classical_product)

FIXED = settings(max_examples=80, derandomize=True, database=None, deadline=None)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return ClassicalGraph(n, [e for e, k in zip(pairs, keep) if k])


def chi_b(g):
    """chi_1, chi_2, chi_3 of g, each witness checked."""
    values = []
    for b in (1, 2, 3):
        value, witness = bfold_exact(g, b)
        witness.validate(g)
        assert witness.fold == b and witness.palette_size == value
        values.append(value)
    return values


@FIXED
@given(graphs())
def test_witness_validates_and_fold_one_is_chi(g):
    chi1, _, _ = chi_b(g)
    assert chi1 == chromatic_exact(g)


@FIXED
@given(graphs())
def test_equals_chi_of_lexicographic_product_with_complete(g):
    # chi(G[K_b]) = chi_b(G), by chromatic_exact, which shares no search
    for b, value in enumerate(chi_b(g), start=1):
        assert value == chromatic_exact(
            classical_product(g, qg.complete(b), "lexicographic"))


@FIXED
@given(graphs())
def test_monotone_and_subadditive_in_the_fold(g):
    chi1, chi2, chi3 = chi_b(g)
    assert chi1 <= chi2 <= chi3
    assert chi2 <= 2 * chi1 and chi3 <= chi1 + chi2


@FIXED
@given(st.data())
def test_invariant_under_relabeling(data):
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.vertex_count)))
    assert chi_b(g.relabel(perm)) == chi_b(g)
