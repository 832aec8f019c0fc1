"""Seeded inputs for the benchmark, generated without the package's code.

Graphs are edge lists on vertices 0..n-1. Random graphs use the documented
64-bit LCG of ``quantumgraphs.classical.random_graph`` (re-implemented here,
so a change under ``src/`` cannot change the inputs); unitaries are Haar
samples from numpy's PCG64; files use the package's published wire formats.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import numpy as np

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# classical graphs: (n, edges) with edges a sorted list of pairs u < v

def _norm(n, edges):
    return n, sorted({(min(u, v), max(u, v)) for u, v in edges})


def lcg_graph(n, p, seed):
    """G(n, p) by the LCG: one step per pair u < v in lexicographic order,
    edge iff (state >> 11) / 2^53 < p."""
    state = seed & _MASK64
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            state = (state * _LCG_MULT + _LCG_INC) & _MASK64
            if (state >> 11) / 2.0 ** 53 < p:
                edges.append((u, v))
    return n, edges


def random_graph(rng, n, p, edge_count=None):
    """A seeded G(n, p); with ``edge_count``, LCG seeds are drawn until the
    graph has exactly that many edges, so every workload seed does the same
    amount of operator work."""
    while True:
        g = lcg_graph(n, p, rng.getrandbits(64))
        if edge_count is None or len(g[1]) == edge_count:
            return g


def complete(n):
    return n, list(combinations(range(n), 2))


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n):
    return _norm(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return _norm(10, edges)


def kneser(c, b):
    subsets = [frozenset(s) for s in combinations(range(c), b)]
    return len(subsets), [(i, j) for i, j in combinations(range(len(subsets)), 2)
                          if not subsets[i] & subsets[j]]


def mycielski(k):
    """The Mycielski graph M_k (M_2 = K_2, M_3 = C_5, M_4 = Groetzsch)."""
    n, edges = complete(2)
    for _ in range(k - 2):
        new = list(edges)
        for u, v in edges:
            new += [(u, n + v), (v, n + u)]
        new += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, new
    return _norm(n, edges)


def graph_product(g, h, kind):
    """The classical product on vertex pairs (v, a) -> v * n_h + a."""
    ng, eg = g
    nh, eh = h
    gadj = {(u, v) for u, v in eg} | {(v, u) for u, v in eg}
    hadj = {(u, v) for u, v in eh} | {(v, u) for u, v in eh}
    edges = []
    for (v, a), (w, b) in combinations([(v, a) for v in range(ng)
                                        for a in range(nh)], 2):
        gv, ha = (v, w) in gadj, (a, b) in hadj
        same_g, same_h = v == w, a == b
        if kind == "cartesian":
            e = (gv and same_h) or (same_g and ha)
        elif kind == "categorical":
            e = gv and ha
        elif kind == "lexicographic":
            e = gv or (same_g and ha)
        else:
            e = (gv and same_h) or (same_g and ha) or (gv and ha)
        if e:
            edges.append((v * nh + a, w * nh + b))
    return ng * nh, edges


def relabel(g, rng):
    """The image of ``g`` under a seeded vertex permutation."""
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm(n, [(perm[u], perm[v]) for u, v in edges])


# ---------------------------------------------------------------------------
# matrices

def haar_unitary(rng, n):
    """A Haar-random n x n unitary (QR of a complex Ginibre matrix)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _traceless_basis(k):
    """HS-orthonormal basis of the traceless k x k matrices."""
    mats = []
    for p in range(k):
        for q in range(k):
            if p != q:
                e = np.zeros((k, k), dtype=np.complex128)
                e[p, q] = 1.0
                mats.append(e)
    # orthonormal complement of the all-ones vector on the diagonal
    q, _ = np.linalg.qr(np.column_stack([np.ones(k)] + [np.eye(k)[i] for i in range(k - 1)]))
    for i in range(1, k):
        mats.append(np.diag(q[:, i]).astype(np.complex128))
    return mats


def complete_quantum_graph(mult, k, u):
    """The complete quantum graph over I_mult (x) M_k, conjugated by the
    unitary u: S = u* (M')^perp u with M' = M_mult (x) I_k, and the algebra's
    conjugator u*. Returns (basis, blocks, conjugator)."""
    n = mult * k
    basis = []
    for i in range(mult):
        for j in range(mult):
            e = np.zeros((mult, mult))
            e[i, j] = 1.0
            basis += [u.conj().T @ np.kron(e, t) @ u for t in _traceless_basis(k)]
    return basis, [(mult, k)], u.conj().T


def bell_projections(k):
    """Projections onto (I (x) X^j Z^l)|Omega>: a quantum coloring of the
    complete graph over M_k with k^2 colors and ancilla dimension k."""
    shift = np.roll(np.eye(k), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(k) / k))
    omega = np.eye(k).reshape(-1) / np.sqrt(k)
    projs = []
    for j in range(k):
        for l in range(k):
            w = np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, l)
            vec = np.kron(np.eye(k), w) @ omega
            projs.append(np.outer(vec, vec.conj()))
    return projs


def local_projections(n, palette, sets):
    """Diagonal projections of a classical b-fold coloring (ancilla 1)."""
    projs = []
    for a in range(palette):
        projs.append(np.diag([1.0 if a in sets[v] else 0.0 for v in range(n)])
                     .astype(np.complex128))
    return projs


# ---------------------------------------------------------------------------
# wire formats

def _matrix_obj(m):
    m = np.asarray(m, dtype=np.complex128)
    return {"dim": list(m.shape),
            "entries": [[float(x.real), float(x.imag)] for x in m.reshape(-1)]}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_graph(path, g, fmt):
    """A classical graph as DIMACS (``fmt == "dimacs"``) or edge-list JSON."""
    n, edges = g
    if fmt == "dimacs":
        with open(path, "w") as fh:
            fh.write("p edge %d %d\n" % (n, len(edges)))
            fh.writelines("e %d %d\n" % (u + 1, v + 1) for u, v in edges)
    else:
        _write_json(path, {"v": 1, "kind": "classical_graph", "vertices": n,
                           "edges": [list(e) for e in edges]})


def write_quantum_graph(path, basis, blocks, conjugator):
    _write_json(path, {"v": 1, "kind": "quantum_graph",
                       "dim": int(sum(m * k for m, k in blocks)),
                       "S": [_matrix_obj(x) for x in basis],
                       "M": {"blocks": [list(b) for b in blocks],
                             "conjugator": _matrix_obj(conjugator)}})


def write_certificate(path, graph_dim, ancilla_dim, fold, projections):
    _write_json(path, {"v": 1, "kind": "certificate", "graph_dim": graph_dim,
                       "ancilla_dim": ancilla_dim, "fold": fold,
                       "projections": [_matrix_obj(p) for p in projections]})


def seeded(seed, tag):
    """Independent streams per (seed, tag): a Python RNG and a numpy one."""
    rng = random.Random("%d/%s" % (seed, tag))
    return rng, np.random.Generator(np.random.PCG64(rng.getrandbits(64)))
