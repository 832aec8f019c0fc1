"""reduce_bfold against the running-intersection loop, kept here as the
reference.

The loop peels T_a = P_a (I - sum_{m < a} T_m) off each color in turn and
keeps P_a - T_a; reduce_bfold instead drops the smallest color of every
subset of the subset PVM. On local certificates of bfold_exact's witnesses
every entry of either is a sum of zeros and ones, so the two must be
bitwise equal. On the same certificates relabeled by a seeded Haar unitary
they must keep the same colors and agree within 1e-14.
"""

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs.coloring import ColoringCertificate, reduce_bfold
from test_stack_properties import haar

GRAPHS = {"C5": qg.cycle(5), "C7": qg.cycle(7), "Petersen": qg.petersen(),
          "G(10,0.4)": qg.random_graph(10, 0.4, seed=1)}


def running_intersections(cert, tol=qg.DEFAULT_TOL):
    """The reduced certificate and its kept colors, one color at a time."""
    p = cert.projections
    d = cert.total_dim
    eye = np.eye(d)
    tsum = np.zeros((d, d), dtype=complex)
    reduced = []
    for a in range(cert.colors):
        t_a = p[a] @ (eye - tsum)
        tsum = tsum + t_a
        reduced.append(p[a] - t_a)
    return ColoringCertificate(cert.graph_dim, cert.ancilla_dim, cert.fold - 1,
                               reduced).pruned(tol)


@pytest.fixture(params=[(name, b) for name in GRAPHS for b in (2, 3)],
                ids=lambda p: "%s-fold%d" % p)
def local(request):
    name, b = request.param
    g = GRAPHS[name]
    _, witness = qg.bfold_exact(g, b)
    return qg.from_classical(g), qg.to_local_cert(g, witness)


def test_local_certificates_reduce_bitwise_as_the_loop(local):
    graph, cert = local
    got, kept = reduce_bfold(graph, cert)
    want, want_kept = running_intersections(cert)
    assert kept == want_kept and got.fold == want.fold == cert.fold - 1
    assert got.projections.tobytes() == want.projections.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_conjugated_certificates_reduce_as_the_loop(local, seed):
    graph, cert = local
    u = haar(graph.n, seed)
    graph, cert = qg.conjugate_graph(graph, u), cert.conjugated(u)
    got, kept = reduce_bfold(graph, cert)
    want, want_kept = running_intersections(cert)
    assert kept == want_kept and got.fold == want.fold
    assert np.allclose(got.projections, want.projections, rtol=0, atol=1e-14)
