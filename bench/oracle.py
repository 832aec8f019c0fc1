"""Output oracle: closed forms and independent checks, with no package code.

Every function here returns None when the output is right and a short
message when it is not; the harness counts each message as a failed job.
"""

from __future__ import annotations

import re


def product_dim(kind, g, h):
    """dim S of a product from its factors' (n, dim S, dim M').

    A classical factor has dim S = 2|E| and dim M' = n; the complete quantum
    graph over M has dim S = n^2 - dim M'.
    """
    ng, sg, mg = g
    nh, sh, mh = h
    if kind == "cartesian":
        return sg * mh + mg * sh
    if kind == "categorical":
        return sg * sh
    if kind == "lexicographic":
        return sg * nh * nh + mg * sh
    if kind == "strong":
        return sg * mh + mg * sh + sg * sh
    raise ValueError(kind)


def chi_lex_cycle_complete(k, m):
    """chi(C_{2k+1}[K_m]) = 2m + ceil(m / k)."""
    return 2 * m + -(-m // k)


def chi_kneser(c, b):
    """chi(K(c, b)) = c - 2b + 2 (Lovasz)."""
    return c - 2 * b + 2


def chi_b_cycle(k, b):
    """chi_b(C_{2k+1}) = 2b + ceil(b / k)."""
    return 2 * b + -(-b // k)


def clique_number(g):
    """Largest clique, by a plain bitset search (independent of the
    package's solvers)."""
    n, edges = g
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0

    def grow(size, cand):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(size + 1, cand & adj[v])

    grow(0, (1 << n) - 1)
    return best


def greedy_colors(g):
    """Colors used by first-fit greedy in vertex order: an upper bound on
    chi."""
    n, edges = g
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    color = {}
    for v in range(n):
        used = {color[w] for w in nbrs[v] if w in color}
        color[v] = next(c for c in range(n) if c not in used)
    return max(color.values()) + 1


def expect_exit(code, expected):
    if code != expected:
        return "exit code %r, expected %d" % (code, expected)
    return None


def printed_int(out, label):
    """The integer printed after ``label``, or None."""
    m = re.search(re.escape(label) + r"\s*(-?\d+)", out)
    return int(m.group(1)) if m else None


def expect_int(out, label, expected):
    got = printed_int(out, label)
    if got != expected:
        return "%s printed %r, expected %d" % (label.strip(), got, expected)
    return None


def parse_witness(out):
    """Color sets from a 'witness: {0,1} {2,3} ...' line, or None."""
    m = re.search(r"^witness:(.*)$", out, re.M)
    if not m:
        return None
    return [frozenset(int(x) for x in grp.split(",") if x)
            for grp in re.findall(r"\{([^}]*)\}", m.group(1))]


def check_bfold_witness(g, fold, value, sets):
    """A proper b-fold coloring of g that uses colors below ``value``."""
    n, edges = g
    if sets is None or len(sets) != n:
        return "witness missing or of wrong length"
    for v, s in enumerate(sets):
        if len(s) != fold or any(not 0 <= c < value for c in s):
            return "witness set %d is %r (fold %d, palette %d)" % (v, sorted(s), fold, value)
    for u, v in edges:
        if sets[u] & sets[v]:
            return "witness gives adjacent %d, %d a common color" % (u, v)
    return None


def first_error(*results):
    for r in results:
        if r:
            return r
    return None
