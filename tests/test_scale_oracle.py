"""scale_bfold, the repeated palette, against the combine_bfold chain, kept
here as the reference, and on entangled colorings.

The chain joins b copies of a coloring by b - 1 combine_bfold calls, each
an eigh meet of embedded subset products on a fresh ancilla. On local
certificates every meet is of diagonal 0/1 projections, so the chain and
the repeated palette must be bitwise equal, ancilla included. On Haar
relabelings the palette must commute with conjugation. On Bell colorings,
where the chain fails, the palette passes verify_bfold, forces exactly its
colors through complete_lower_bound_extract and composes into a passing
coloring of a lexicographic product with a quantum G.
Hypothesis runs derandomized with a fixed example count and no example
database, so every run checks the same graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings

import quantumgraphs as qg
from quantumgraphs.coloring import combine_bfold, scale_bfold
from test_bfold_properties import graphs
from test_stack_properties import haar

FIXED = settings(max_examples=40, derandomize=True, database=None, deadline=None)

GRAPHS = {"C5": qg.cycle(5), "K3": qg.complete(3), "Petersen": qg.petersen(),
          "G(8,0.5)": qg.random_graph(8, 0.5, seed=3)}


def combine_chain(graph, cert, b):
    """b copies of a 1-fold certificate joined by b - 1 combine_bfold calls."""
    out = cert
    for _ in range(b - 1):
        out = combine_bfold(graph, out, cert)
    return out


def local_coloring(g):
    return qg.from_classical(g), qg.to_local_cert(g, qg.bfold_exact(g, 1)[1])


def assert_bitwise(got, want):
    assert (got.graph_dim, got.ancilla_dim, got.fold) == (
        want.graph_dim, want.ancilla_dim, want.fold)
    assert got.projections.shape == want.projections.shape
    assert got.projections.tobytes() == want.projections.tobytes()


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("name", GRAPHS)
def test_local_colorings_scale_bitwise_as_the_combine_chain(name, b):
    graph, cert = local_coloring(GRAPHS[name])
    got = scale_bfold(graph, cert, b)
    assert_bitwise(got, combine_chain(graph, cert, b))
    assert qg.verify_bfold(graph, got).passed


@FIXED
@given(graphs(max_n=7))
def test_witness_colorings_scale_bitwise_as_the_combine_chain(g):
    graph, cert = local_coloring(g)
    for b in (2, 3):
        assert_bitwise(scale_bfold(graph, cert, b), combine_chain(graph, cert, b))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["C5", "Petersen", "Bell2", "Bell3"])
def test_scaling_commutes_with_haar_conjugation(name, seed):
    if name.startswith("Bell"):
        n = int(name[-1])
        graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(n))
        cert = qg.bell_coloring(n)
    else:
        graph, cert = local_coloring(GRAPHS[name])
    u = haar(graph.n, seed)
    moved = qg.conjugate_graph(graph, u)
    for b in (2, 3):
        scaled = scale_bfold(graph, cert, b)
        got = scale_bfold(moved, cert.conjugated(u), b)
        want = scaled.conjugated(u)
        assert got.ancilla_dim == want.ancilla_dim and got.fold == want.fold == b
        assert np.allclose(got.projections, want.projections, rtol=0, atol=1e-12)
        before, after = qg.verify_bfold(graph, scaled), qg.verify_bfold(moved, got)
        assert [(c.name, c.passed) for c in after.checks] == [
            (c.name, c.passed) for c in before.checks]
        assert before.passed and after.passed


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_repeated_bell_passes_and_forces_its_colors(n, b):
    """On the complete quantum graph over M_n the repeated Bell palette is a
    b-fold coloring on b n^2 colors with ancilla n, and the extraction's
    lower bound b dim M = b n^2 meets it: chi_q^(b) = b n^2 there."""
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(n))
    cert = scale_bfold(graph, qg.bell_coloring(n), b)
    assert (cert.fold, cert.colors, cert.ancilla_dim) == (b, b * n * n, n)
    rep = qg.verify_bfold(graph, cert)
    assert rep.passed, rep
    extraction = qg.complete_lower_bound_extract(graph, cert)
    assert extraction.passed, extraction
    assert extraction.notes == [
        "a passing extraction forces colors >= fold * dim M = %d" % cert.colors]


@pytest.mark.parametrize("b, colors", [(2, 8), (3, 12)])
def test_repeated_bell_composes_into_a_lexicographic_coloring(b, colors):
    """chi_q(G[H]) <= chi_q^(b)(G) with b = chi(H), on G the complete quantum
    graph over M_2 and H = K_b: Bell2 repeated to fold b, composed with a
    local b-coloring of K_b, colors G[K_b] with 4 b colors."""
    graph = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    h = qg.complete(b)
    cert_h = qg.to_local_cert(h, qg.bfold_exact(h, 1)[1])
    lex = qg.lexicographic_coloring(scale_bfold(graph, qg.bell_coloring(2), b), cert_h)
    assert lex.colors == len(lex.active_colors()) == colors
    rep = qg.verify_coloring(
        qg.product(graph, qg.from_classical(h), "lexicographic"), lex)
    assert rep.passed, rep
