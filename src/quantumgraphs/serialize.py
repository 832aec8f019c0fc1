"""JSON wire formats for graphs and certificates.

All matrices are written as {"dim": [rows, cols], "entries": [[re, im], ...]}
in row-major order. Every document carries "v": 1 and a "kind" tag. Output
is canonical (sorted keys, two-space indent, trailing newline) so dumps are
bit-stable across loads.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .classical import ClassicalGraph, graph_from_obj, graph_to_obj, parse_dimacs
from .coloring import ColoringCertificate, HomomorphismCertificate
from .opspace import OperatorSubspace, as_matrix, orthonormalize
from .qgraph import BlockAlgebra, QuantumGraph, from_classical

SCHEMA_VERSION = 1


def matrix_to_obj(m) -> dict:
    m = as_matrix(m)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {"dim": [rows, cols],
            "entries": [[float(x.real), float(x.imag)] for x in flat]}


def matrix_from_obj(obj) -> np.ndarray:
    """The matrix of a {"dim", "entries"} object. Every entry must be a pair
    [re, im] of finite numbers; anything else raises ValueError naming it."""
    try:
        rows, cols = (int(d) for d in obj["dim"])
        entries = obj["entries"]
        count = len(entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed matrix object: %s" % exc) from None
    if count != rows * cols:
        raise ValueError("matrix claims %d x %d but has %d entries"
                         % (rows, cols, count))
    try:
        pairs = np.asarray(entries) if count else np.zeros((0, 2))
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if (pairs is None or pairs.shape != (count, 2)
            or pairs.dtype.kind not in "iuf" or not np.isfinite(pairs).all()):
        raise ValueError(_bad_entry(entries))
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    return pairs.view(np.complex128).reshape(rows, cols)


def _bad_entry(entries) -> str:
    for i, e in enumerate(entries):
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(type(x) is int or (type(x) is float and math.isfinite(x))
                        for x in e)):
            return "matrix entry %d is %r, not a pair of finite numbers" % (i, e)
    return "matrix entries are not pairs of finite numbers"


def algebra_to_obj(m: BlockAlgebra) -> dict:
    return {"blocks": [[n, k] for n, k in m.blocks],
            "conjugator": None if m.conjugator is None
            else matrix_to_obj(m.conjugator)}


def algebra_from_obj(obj) -> BlockAlgebra:
    conj = obj.get("conjugator")
    return BlockAlgebra([(int(n), int(k)) for n, k in obj["blocks"]],
                        None if conj is None else matrix_from_obj(conj))


def quantum_graph_to_obj(g: QuantumGraph) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "quantum_graph", "dim": g.n,
            "S": [matrix_to_obj(x) for x in g.S.basis],
            "M": algebra_to_obj(g.M)}


def quantum_graph_from_obj(obj) -> QuantumGraph:
    _expect(obj, "quantum_graph")
    n = int(obj["dim"])
    mats = [matrix_from_obj(x) for x in obj["S"]]
    # the stored family is a spanning set; span semantics survive the trip
    s = orthonormalize(mats, ambient_dim=n) if mats else OperatorSubspace.zero(n)
    return QuantumGraph(s, algebra_from_obj(obj["M"]))


def certificate_to_obj(c: ColoringCertificate) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "certificate",
            "graph_dim": c.graph_dim, "ancilla_dim": c.ancilla_dim,
            "fold": c.fold,
            "projections": [matrix_to_obj(p) for p in c.projections]}


def certificate_from_obj(obj) -> ColoringCertificate:
    _expect(obj, "certificate")
    return ColoringCertificate(
        int(obj["graph_dim"]), int(obj["ancilla_dim"]), int(obj["fold"]),
        tuple(matrix_from_obj(p) for p in obj["projections"]))


def homomorphism_to_obj(h: HomomorphismCertificate) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "homomorphism",
            "source_dim": h.source_dim, "target_dim": h.target_dim,
            "ancilla_dim": h.ancilla_dim,
            "kraus": [matrix_to_obj(f) for f in h.kraus]}


def homomorphism_from_obj(obj) -> HomomorphismCertificate:
    _expect(obj, "homomorphism")
    return HomomorphismCertificate(
        int(obj["source_dim"]), int(obj["target_dim"]),
        int(obj["ancilla_dim"]),
        tuple(matrix_from_obj(f) for f in obj["kraus"]))


def _expect(obj, kind: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if obj.get("kind") != kind:
        raise ValueError("expected kind %r, got %r" % (kind, obj.get("kind")))
    if obj.get("v") != SCHEMA_VERSION:
        raise ValueError("unsupported schema version %r" % obj.get("v"))


def dumps(obj: dict) -> str:
    """Canonical serialization: stable key order, fixed layout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_classical_graph(path: str) -> ClassicalGraph:
    """Load a classical graph from DIMACS or edge-list JSON, sniffing by
    content."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_obj(json.loads(text))
    return parse_dimacs(text)


def load_any_graph(path: str) -> QuantumGraph:
    """Load a quantum graph, embedding classical input automatically."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return from_classical(parse_dimacs(text))
    obj = json.loads(text)
    if obj.get("kind") == "classical_graph":
        return from_classical(graph_from_obj(obj))
    return quantum_graph_from_obj(obj)


__all__ = [
    "SCHEMA_VERSION", "matrix_to_obj", "matrix_from_obj", "algebra_to_obj",
    "algebra_from_obj", "quantum_graph_to_obj", "quantum_graph_from_obj",
    "certificate_to_obj", "certificate_from_obj", "homomorphism_to_obj",
    "homomorphism_from_obj", "dumps", "save", "load_json",
    "load_classical_graph", "load_any_graph", "graph_to_obj",
]
