"""JSON wire formats for graphs and certificates.

All matrices are written as {"dim": [rows, cols], "entries": [[re, im], ...]}
in row-major order. Every document carries "v": 1 and a "kind" tag. Output
is canonical (sorted keys, two-space indent, trailing newline) so dumps are
bit-stable across loads.

Reading is typed: integer fields must be JSON integers (not null, a bool or
2.5), list and object fields must be lists and objects, and anything else
raises ValueError naming the field by its JSON path.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .classical import ClassicalGraph, parse_dimacs
from .coloring import ColoringCertificate, HomomorphismCertificate
from .opspace import as_matrix, orthonormalize
from .qgraph import BlockAlgebra, QuantumGraph, from_classical

SCHEMA_VERSION = 1

_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _shown(x) -> str:
    s = json.dumps(x, default=repr)
    return s if len(s) <= 40 else s[:37] + "..."


def _typed(x, kind: type, path: str):
    """``x``, checked to be a JSON value of ``kind`` (int, list or dict); a
    bool is not an int."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise ValueError("%s must be %s, got %s" % (path, _KINDS[kind], _shown(x)))
    return x


def _field(obj, key: str, kind: type, path: str):
    """The field ``key`` of the JSON object at ``path``, typed by _typed."""
    if key not in obj:
        raise ValueError("%s: missing field %r" % (path, key))
    return _typed(obj[key], kind, "%s.%s" % (path, key))


def _is_int_pair(x) -> bool:
    return (type(x) is list and len(x) == 2
            and type(x[0]) is int and type(x[1]) is int)


def _int_pairs(xs, path: str) -> list:
    """``xs``, checked to be a JSON list of [integer, integer] pairs."""
    for i, x in enumerate(_typed(xs, list, path)):
        if not _is_int_pair(x):
            raise ValueError("%s[%d] must be a pair of integers, got %s"
                             % (path, i, _shown(x)))
    return xs


def _matrices_to_obj(stack: np.ndarray) -> list:
    """One {"dim", "entries"} object per matrix of a (count, rows, cols)
    stack, with every entry list taken from one ``tolist``."""
    count, rows, cols = stack.shape
    pairs = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    return [{"dim": [rows, cols], "entries": e}
            for e in pairs.reshape(count, rows * cols, 2).tolist()]


def matrix_to_obj(m) -> dict:
    return _matrices_to_obj(as_matrix(m)[None])[0]


def _pairs(lists: list, count: int):
    """``lists``, a non-empty list of JSON lists of ``count`` [re, im] pairs
    each, as one complex (len(lists), count) array read in one conversion;
    None unless every entry is a pair of finite numbers. A bool is not a
    number."""
    pairs = list(chain.from_iterable(lists))
    try:
        nums = list(chain.from_iterable(pairs))
        if (set(map(len, lists)) != {count} or set(map(len, pairs)) != {2}
                or not set(map(type, nums)) <= {int, float}):
            return None
        flat = np.array(nums, dtype=np.float64)
    except (TypeError, OverflowError):  # an entry that is not a list; a huge int
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(np.complex128).reshape(len(lists), count)


def matrix_from_obj(obj, path: str = "matrix") -> np.ndarray:
    """The matrix of a {"dim", "entries"} object. Every entry must be a pair
    [re, im] of finite numbers; anything else raises ValueError naming it."""
    dim = _typed(obj, dict, path).get("dim")
    if not (_is_int_pair(dim) and min(dim) > 0):
        raise ValueError("%s.dim must be a pair of positive integers, got %s"
                         % (path, _shown(dim)))
    rows, cols = dim
    entries = _field(obj, "entries", list, path)
    count = len(entries)
    if count != rows * cols:
        raise ValueError("%s claims %d x %d but has %d entries"
                         % (path, rows, cols, count))
    pairs = _pairs([entries], count)
    if pairs is None:
        raise ValueError("%s: %s" % (path, _bad_entry(entries)))
    return pairs.reshape(rows, cols)


def _bad_entry(entries) -> str:
    for i, e in enumerate(entries):
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(type(x) is int or (type(x) is float and math.isfinite(x))
                        for x in e)):
            return "matrix entry %d is %r, not a pair of finite numbers" % (i, e)
    return "matrix entries are not pairs of finite numbers"


def _matrix_stack(objs: list, shape: tuple, path: str):
    """The {"dim", "entries"} objects ``objs``, all of ``shape``, as one
    complex (len(objs), *shape) stack read in one conversion by _pairs. If
    any of them is malformed or of another shape, the list of matrices that
    matrix_from_obj reads one by one instead, so the bad one is named there
    or by the certificate's shape check."""
    dim = list(shape)
    if objs and min(dim) > 0 and all(
            type(o) is dict and _is_int_pair(o.get("dim")) and o["dim"] == dim
            and type(o.get("entries")) is list for o in objs):
        stack = _pairs([o["entries"] for o in objs], dim[0] * dim[1])
        if stack is not None:
            return stack.reshape(len(objs), *dim)
    return [matrix_from_obj(x, "%s[%d]" % (path, i)) for i, x in enumerate(objs)]


def algebra_to_obj(m: BlockAlgebra) -> dict:
    return {"blocks": [[n, k] for n, k in m.blocks],
            "conjugator": None if m.conjugator is None
            else matrix_to_obj(m.conjugator)}


def algebra_from_obj(obj, path: str = "algebra") -> BlockAlgebra:
    _typed(obj, dict, path)
    blocks = _int_pairs(_field(obj, "blocks", list, path), path + ".blocks")
    conj = obj.get("conjugator")
    return BlockAlgebra(blocks, None if conj is None
                        else matrix_from_obj(conj, path + ".conjugator"))


def quantum_graph_to_obj(g: QuantumGraph) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "quantum_graph", "dim": g.n,
            "S": _matrices_to_obj(g.S.basis),
            "M": algebra_to_obj(g.M)}


def quantum_graph_from_obj(obj) -> QuantumGraph:
    _expect(obj, "quantum_graph")
    n = _field(obj, "dim", int, "quantum_graph")
    mats = _matrix_stack(_field(obj, "S", list, "quantum_graph"), (n, n),
                         "quantum_graph.S")
    m = algebra_from_obj(obj.get("M"), "quantum_graph.M")
    # the stored family is a spanning set; span semantics survive the trip
    return QuantumGraph(orthonormalize(mats, ambient_dim=n), m)


def certificate_to_obj(c: ColoringCertificate) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "certificate",
            "graph_dim": c.graph_dim, "ancilla_dim": c.ancilla_dim,
            "fold": c.fold,
            "projections": _matrices_to_obj(c.projections)}


def certificate_from_obj(obj) -> ColoringCertificate:
    _expect(obj, "certificate")
    dims = [_field(obj, k, int, "certificate")
            for k in ("graph_dim", "ancilla_dim", "fold")]
    d = dims[0] * dims[1]
    projs = _field(obj, "projections", list, "certificate")
    return ColoringCertificate(*dims, _matrix_stack(
        projs, (d, d), "certificate.projections"))


def homomorphism_to_obj(h: HomomorphismCertificate) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "homomorphism",
            "source_dim": h.source_dim, "target_dim": h.target_dim,
            "ancilla_dim": h.ancilla_dim,
            "kraus": _matrices_to_obj(h.kraus)}


def homomorphism_from_obj(obj) -> HomomorphismCertificate:
    _expect(obj, "homomorphism")
    dims = [_field(obj, k, int, "homomorphism")
            for k in ("source_dim", "target_dim", "ancilla_dim")]
    kraus = _field(obj, "kraus", list, "homomorphism")
    return HomomorphismCertificate(*dims, _matrix_stack(
        kraus, (dims[1], dims[0] * dims[2]), "homomorphism.kraus"))


def graph_to_obj(g: ClassicalGraph) -> dict:
    return {"v": SCHEMA_VERSION, "kind": "classical_graph",
            "vertices": g.vertex_count,
            "edges": [[u, v] for u, v in sorted(g.edges)]}


def graph_from_obj(obj) -> ClassicalGraph:
    _expect(obj, "classical_graph")
    return ClassicalGraph(
        _field(obj, "vertices", int, "classical_graph"),
        _int_pairs(_field(obj, "edges", list, "classical_graph"),
                   "classical_graph.edges"))


def _expect(obj, kind: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if obj.get("kind") != kind:
        raise ValueError("expected kind %r, got %r" % (kind, obj.get("kind")))
    v = obj.get("v")
    if type(v) is not int or v != SCHEMA_VERSION:
        raise ValueError("unsupported schema version %r" % v)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _pair_list_text(xs: list, ind: str):
    """The canonical text of a list of [float, float] pairs (a matrix's
    entries) whose line starts with ``ind``, formatted by C-level joins;
    None for any other list."""
    head = xs[0]
    if not (type(head) is list and len(head) == 2 and type(head[0]) is float
            and set(map(type, xs)) == {list} and set(map(len, xs)) == {2}):
        return None
    one, two = ind + "  ", ind + "    "
    nums = map(float.__repr__, chain.from_iterable(xs))
    try:
        body = (one + "]," + one + "[" + two).join(
            map(("," + two).join, zip(nums, nums)))
    except TypeError:  # an entry that is not a float
        return None
    if "n" in body:  # finite reprs hold only digits, ".", "e", "+" and "-"
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    return "[" + one + "[" + two + body + one + "]" + ind + "]"


def _write(x, ind: str, out: list) -> None:
    """Append the canonical text of ``x``, whose line starts with ``ind``
    (a newline and its indent), to ``out``. Object keys must be strings."""
    if isinstance(x, str):
        out.append(encode_basestring_ascii(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        text = float.__repr__(x)
        out.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(x, (list, tuple)):
        text = _pair_list_text(x, ind) if x else "[]"
        if text is not None:
            out.append(text)
            return
        inner, sep = ind + "  ", "["
        for item in x:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(ind + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner, sep = ind + "  ", "{"
        for key, value in sorted(x.items()):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(value, inner, out)
            sep = ","
        out.append(ind + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(x).__name__)


def dumps(obj: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent and a
    trailing newline. The text is ``json.dumps(obj, indent=2,
    sort_keys=True) + "\\n"`` byte for byte, written here because json's
    indenting encoder is pure Python before 3.13 and formats each matrix
    entry with its own calls."""
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def save(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def _read(path: str, dimacs: bool = False):
    """The JSON document in the file at ``path``; with ``dimacs``, a file
    whose text does not start with "{" is parsed as DIMACS instead. JSON
    nested too deeply for the parser raises ValueError naming the file."""
    with open(path) as fh:
        text = fh.read()
    if dimacs and not text.lstrip().startswith("{"):
        return parse_dimacs(text)
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply to read" % path) from None


def load_json(path: str) -> dict:
    return _read(path)


def load_certificate(path: str) -> ColoringCertificate:
    """Load a coloring certificate from its JSON file."""
    return certificate_from_obj(load_json(path))


def load_classical_graph(path: str) -> ClassicalGraph:
    """Load a classical graph from DIMACS or edge-list JSON, sniffing by
    content."""
    doc = _read(path, dimacs=True)
    return doc if isinstance(doc, ClassicalGraph) else graph_from_obj(doc)


def load_any_graph(path: str) -> QuantumGraph:
    """Load a quantum graph, embedding classical input automatically."""
    doc = _read(path, dimacs=True)
    if isinstance(doc, ClassicalGraph):
        return from_classical(doc)
    if doc.get("kind") == "classical_graph":
        return from_classical(graph_from_obj(doc))
    return quantum_graph_from_obj(doc)


__all__ = [
    "SCHEMA_VERSION", "matrix_to_obj", "matrix_from_obj", "algebra_to_obj",
    "algebra_from_obj", "quantum_graph_to_obj", "quantum_graph_from_obj",
    "certificate_to_obj", "certificate_from_obj", "homomorphism_to_obj",
    "homomorphism_from_obj", "dumps", "save", "load_json", "load_certificate",
    "load_classical_graph", "load_any_graph", "graph_to_obj", "graph_from_obj",
]
