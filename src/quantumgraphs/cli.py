"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input format error, 3 size guard exceeded (an exact solver's or
the dense operator layer's).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import classical, coloring, products, serialize
from .classical import SizeGuardError, bounds_report
from .opspace import DEFAULT_TOL
from .qgraph import from_classical, verify_quantum_graph
from .report import VerificationFailure, VerificationReport

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SIZE = 3


def _print_report(rep: VerificationReport) -> int:
    print(rep)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def _cmd_verify_graph(args) -> int:
    g = serialize.load_any_graph(args.graph)
    print("graph: dim %d, dim S = %d, blocks %s"
          % (g.n, g.S.dim, list(g.M.blocks)))
    return _print_report(verify_quantum_graph(g, args.tol))


def _write(path, to_obj, value) -> None:
    """The -o option: write ``to_obj(value)`` to ``path`` if one was given."""
    if path:
        serialize.save(path, to_obj(value))
        print("wrote %s" % path)


def _cmd_product(args) -> int:
    if args.classical:
        g = serialize.load_classical_graph(args.left)
        h = serialize.load_classical_graph(args.right)
        gq, hq = from_classical(g), from_classical(h)
    else:
        gq = serialize.load_any_graph(args.left)
        hq = serialize.load_any_graph(args.right)
    prod = products.product(gq, hq, args.kind)
    print("%s product: dim %d, dim S = %d" % (args.kind, prod.n, prod.S.dim))
    if args.kind == "lexicographic":
        print("note: " + products.LEXICOGRAPHIC_NOTE)
    _write(args.out, serialize.quantum_graph_to_obj, prod)
    code = _print_report(verify_quantum_graph(prod, args.tol))
    if args.classical:
        rep = products.classical_crosscheck(g, h, args.kind, args.tol, prod)
        code = max(code, _print_report(rep))
    return code


def _cmd_color_verify(args) -> int:
    g = serialize.load_any_graph(args.graph)
    cert = serialize.load_certificate(args.certificate)
    print("certificate: %d colors, fold %d, ancilla dim %d, type %s"
          % (cert.colors, cert.fold, cert.ancilla_dim, cert.strategy_type))
    verify = coloring.verify_bfold if args.bfold else coloring.verify_coloring
    return _print_report(verify(g, cert, args.tol))


# A ``color transform`` builder returns the certificate it built, with the
# graph it colors and the verifier _cmd_transform checks it with there.

def _build_reduce(args):
    g = serialize.load_any_graph(args.graph)
    cert = serialize.load_certificate(args.certificate)
    out, mapping = coloring.reduce_bfold(g, cert, args.tol)
    print("reduced to fold %d with %d colors; kept original colors %s"
          % (out.fold, out.colors, mapping))
    return g, out, coloring.verify_bfold


def _build_combine(args):
    g = serialize.load_any_graph(args.graph)
    c1 = serialize.load_certificate(args.certificate)
    c2 = serialize.load_certificate(args.second)
    out = coloring.combine_bfold(g, c1, c2, args.tol)
    print("combined: fold %d, %d colors" % (out.fold, out.colors))
    return g, out, coloring.verify_bfold


def _build_scale(args):
    g = serialize.load_any_graph(args.graph)
    cert = serialize.load_certificate(args.certificate)
    out = coloring.scale_bfold(g, cert, args.fold)
    print("scaled: fold %d, %d colors" % (out.fold, out.colors))
    return g, out, coloring.verify_bfold


def _build_lex(args):
    out = coloring.lexicographic_coloring(
        serialize.load_certificate(args.certificate),
        serialize.load_certificate(args.second))
    gq = serialize.load_any_graph(args.graph_g)
    hq = serialize.load_any_graph(args.graph_h)
    print("note: " + products.LEXICOGRAPHIC_NOTE)
    return products.product(gq, hq, "lexicographic"), out, coloring.verify_coloring


def _build_strong_lift(args):
    out = coloring.strong_coloring(
        serialize.load_certificate(args.certificate),
        serialize.load_certificate(args.second))
    gq = serialize.load_any_graph(args.graph_g)
    hq = serialize.load_any_graph(args.graph_h)
    return products.product(gq, hq, "strong"), out, coloring.verify_coloring


def _build_cat_lift(args):
    cert = serialize.load_certificate(args.certificate)
    gq = serialize.load_any_graph(args.graph_g)
    hq = serialize.load_any_graph(args.graph_h)
    out = coloring.categorical_lift(cert, hq.n)
    return products.product(gq, hq, "categorical"), out, coloring.verify_coloring


def _cmd_transform(args) -> int:
    graph, out, verify = args.build(args)
    rep = verify(graph, out, args.tol)
    _write(args.out, serialize.certificate_to_obj, out)
    return _print_report(rep)


def _cmd_chi(args) -> int:
    g = serialize.load_classical_graph(args.graph)
    print("chromatic number: %d" % classical.chromatic_exact(g))
    return EXIT_OK


def _cmd_chi_b(args) -> int:
    g = serialize.load_classical_graph(args.graph)
    value, witness = classical.bfold_exact(g, args.fold)
    print("%d-fold chromatic number: %d" % (args.fold, value))
    print("witness: %s" % " ".join(
        "{%s}" % ",".join(str(c) for c in sorted(s))
        for s in witness.assignment))
    return EXIT_OK


def _cmd_classical_product(args) -> int:
    g = serialize.load_classical_graph(args.left)
    h = serialize.load_classical_graph(args.right)
    p = classical.classical_product(g, h, args.kind)
    print("%s product: %d vertices, %d edges"
          % (args.kind, p.vertex_count, p.edge_count))
    _write(args.out, serialize.graph_to_obj, p)
    return EXIT_OK


def _cmd_kneser(args) -> int:
    g = classical.kneser(args.c, args.b)
    print("Kneser graph K(%d, %d): %d vertices, %d edges"
          % (args.c, args.b, g.vertex_count, g.edge_count))
    _write(args.out, serialize.graph_to_obj, g)
    return EXIT_OK


def _cmd_report_bounds(args) -> int:
    g = serialize.load_classical_graph(args.left)
    h = serialize.load_classical_graph(args.right)
    rep = bounds_report(g, h)
    print("bounds report: G (%d vertices, %d edges), H (%d vertices, %d edges)"
          % (g.vertex_count, g.edge_count, h.vertex_count, h.edge_count))
    print("  chi(G) = %d" % rep["chi_g"])
    print("  chi(H) = %d" % rep["chi_h"])
    print("  chi_b(G) at b = chi(H) = %d: %d" % (rep["b"], rep["chi_b_g"]))
    print("  product chromatic numbers:")
    for kind in classical.PRODUCT_KINDS:
        print("    %-15s %d" % (kind, rep["products"][kind]))
    print("  checks:")
    for c in rep["checks"]:
        print("    %-48s %s (%s)" % (c["name"], "ok" if c["ok"] else "VIOLATED",
                                     c["detail"]))
    print("all checks passed" if rep["all_ok"] else "BOUND VIOLATION")
    _write(args.out, dict, rep)
    return EXIT_OK if rep["all_ok"] else EXIT_VERIFY


def _tolerance(text: str) -> float:
    """A --tol value: a finite float >= 0, else an argparse usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError("need a finite number >= 0, got %r" % text)
    return tol


def _add_tol(p) -> None:
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="residual tolerance (default %g)" % DEFAULT_TOL)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="qgraph",
        description="Quantum graph products, coloring certificates, and "
                    "exact classical oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-graph", help="check the quantum graph axioms")
    p.add_argument("graph", help="quantum graph JSON, or classical DIMACS/JSON")
    _add_tol(p)
    p.set_defaults(func=_cmd_verify_graph)

    p = sub.add_parser("product", help="build and verify a product")
    p.add_argument("--kind", required=True, choices=classical.PRODUCT_KINDS)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out", help="write the product as quantum graph JSON")
    p.add_argument("--classical", action="store_true",
                   help="also cross-check against the classical product "
                        "(classical inputs only)")
    _add_tol(p)
    p.set_defaults(func=_cmd_product)

    color = sub.add_parser("color", help="verify or transform coloring certificates")
    csub = color.add_subparsers(dest="color_command", required=True)

    p = csub.add_parser("verify", help="verify a certificate "
                        "(type loc for ancilla 1, q otherwise; commuting-"
                        "operator types are not certifiable from finite data)")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--bfold", action="store_true",
                   help="run the b-fold verifier instead of the fold-1 one")
    _add_tol(p)
    p.set_defaults(func=_cmd_color_verify)

    tr = csub.add_parser("transform", help="constructive certificate transformations")
    tsub = tr.add_subparsers(dest="transform", required=True)

    def transform(p, build, lift=False):
        """Add a lift's factor graphs, -o, --tol and the handler to ``p``."""
        if lift:
            p.add_argument("--graph-g", required=True, dest="graph_g")
            p.add_argument("--graph-h", required=True, dest="graph_h")
        p.add_argument("-o", "--out")
        _add_tol(p)
        p.set_defaults(func=_cmd_transform, build=build)

    p = tsub.add_parser("reduce", help="fold b -> fold b-1, dropping colors")
    p.add_argument("certificate")
    p.add_argument("graph")
    transform(p, _build_reduce)

    p = tsub.add_parser("combine", help="join two certificates on one graph")
    p.add_argument("certificate")
    p.add_argument("second")
    p.add_argument("graph")
    transform(p, _build_combine)

    p = tsub.add_parser("scale", help="b disjoint copies of a 1-fold coloring")
    p.add_argument("certificate")
    p.add_argument("graph")
    p.add_argument("-b", "--fold", type=int, required=True)
    transform(p, _build_scale)

    p = tsub.add_parser("lex", help="compose b-fold of G with b-coloring of H")
    p.add_argument("certificate", help="b-fold certificate for G")
    p.add_argument("second", help="1-fold b-color certificate for H")
    transform(p, _build_lex, lift=True)

    p = tsub.add_parser("strong-lift", help="pair colorings across a strong product")
    p.add_argument("certificate")
    p.add_argument("second")
    transform(p, _build_strong_lift, lift=True)

    p = tsub.add_parser("cat-lift", help="pull a coloring back along a "
                        "categorical factor")
    p.add_argument("certificate")
    transform(p, _build_cat_lift, lift=True)

    cl = sub.add_parser("classical", help="exact classical oracles")
    clsub = cl.add_subparsers(dest="what", required=True)

    p = clsub.add_parser("chi", help="exact chromatic number")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_chi)

    p = clsub.add_parser("chi-b", help="exact b-fold chromatic number with witness")
    p.add_argument("graph")
    p.add_argument("-b", "--fold", type=int, required=True)
    p.set_defaults(func=_cmd_chi_b)

    p = clsub.add_parser("product", help="classical graph product")
    p.add_argument("--kind", required=True, choices=classical.PRODUCT_KINDS)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_classical_product)

    p = clsub.add_parser("kneser", help="Kneser graph K(c, b)")
    p.add_argument("c", type=int)
    p.add_argument("b", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_kneser)

    rp = sub.add_parser("report", help="summary reports")
    rsub = rp.add_subparsers(dest="report_command", required=True)

    p = rsub.add_parser("bounds", help="chromatic numbers of all four products "
                        "and the product bound checks")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--out", help="also write the report as JSON")
    p.set_defaults(func=_cmd_report_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print("size guard: %s" % exc, file=sys.stderr)
        return EXIT_SIZE
    except VerificationFailure as exc:
        if exc.report is not None:
            print(exc.report)
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
