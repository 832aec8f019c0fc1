"""Properties of the JSON wire format over generated documents.

``serialize.dumps`` must write exactly what ``json.dumps(indent=2,
sort_keys=True)`` writes, certificates, homomorphisms and quantum graphs must
survive a file round trip bit for bit and re-dump to the same bytes, and
damaged files must make the CLI exit 2 or 3, never raise. Hypothesis runs
derandomized with a fixed example count and no example database, so every
run checks the same documents.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quantumgraphs as qg
from quantumgraphs import serialize as ser
from quantumgraphs.cli import EXIT_SIZE, EXIT_USAGE, main

FIXED = settings(max_examples=100, derandomize=True, database=None, deadline=None)
GOLDEN = Path(__file__).parent / "golden"

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           1e-7, 1e16, 0.1, float("nan"), float("inf"), float("-inf")]
floats = st.floats() | st.sampled_from(SPECIAL)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL[:10])
pair_lists = st.lists(st.lists(floats, min_size=2, max_size=2), max_size=12)
#: lists that look like entries but are not all [float, float] pairs
near_pairs = st.lists(st.lists(floats | st.integers() | st.booleans(), min_size=1,
                               max_size=3), max_size=6)
leaves = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | floats
          | st.text() | pair_lists | near_pairs)
documents = st.recursive(
    leaves, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4), max_leaves=25)


def canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@FIXED
@given(documents)
def test_dumps_is_json_dumps_indented_and_sorted(doc):
    assert ser.dumps(doc) == canonical(doc)


@pytest.mark.parametrize("doc", [
    {"entries": [[float("nan"), float("inf")], [float("-inf"), -0.0],
                 [5e-324, 1e308]], "ünï": "ß \x00\"\\", "n": -(10**40)},
    {"entries": [], "e1": [[0.5, -0.5]], "tuple": (1.5, (2.5, None))},
    [[np.float64(0.1), 0.2]],
    {"k": [[1.0, 2.0], [3.0, 4]], "m": [[1.0, 2.0], (3.0, 4.0)]},
])
def test_dumps_special_documents(doc):
    assert ser.dumps(doc) == canonical(doc)


def test_dumps_refuses_non_json_values_and_non_string_keys():
    for doc in ({1: 2.0}, {"x": object()}, {"x": np.int64(3)}):
        with pytest.raises(TypeError):
            ser.dumps(doc)


def test_golden_certificate_is_rewritten_byte_for_byte():
    """The file was written by json.dumps(indent=2, sort_keys=True)."""
    text = (GOLDEN / "certificate_bell2_conjugated.json").read_text()
    cert = ser.certificate_from_obj(json.loads(text))
    assert ser.dumps(ser.certificate_to_obj(cert)) == text


def stacks(count, rows, cols):
    values = st.lists(finite, min_size=2 * count * rows * cols,
                      max_size=2 * count * rows * cols)
    return values.map(lambda xs: np.array(xs, dtype=np.float64)
                      .view(np.complex128).reshape(count, rows, cols))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip(to_obj, from_obj, x):
    """x after a write and a read, checking that a second write gives the
    same bytes as the first."""
    text = ser.dumps(to_obj(x))
    back = from_obj(json.loads(text))
    assert ser.dumps(to_obj(back)) == text
    return back


@st.composite
def certificates(draw):
    g, a = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    projs = draw(stacks(draw(st.integers(0, 4)), g * a, g * a))
    return qg.ColoringCertificate(g, a, draw(st.integers(1, 3)), projs)


@st.composite
def homomorphisms(draw):
    s, t, a = (draw(st.integers(1, 3)) for _ in range(3))
    kraus = draw(stacks(draw(st.integers(0, 3)), t, s * a))
    return qg.HomomorphismCertificate(s, t, a, kraus)


@FIXED
@given(certificates())
def test_certificates_round_trip_bit_exact(cert):
    back = round_trip(ser.certificate_to_obj, ser.certificate_from_obj, cert)
    assert (back.graph_dim, back.ancilla_dim, back.fold) == (
        cert.graph_dim, cert.ancilla_dim, cert.fold)
    assert same_bits(back.projections, cert.projections)


@FIXED
@given(homomorphisms())
def test_homomorphisms_round_trip_bit_exact(hom):
    back = round_trip(ser.homomorphism_to_obj, ser.homomorphism_from_obj, hom)
    assert (back.source_dim, back.target_dim, back.ancilla_dim) == (
        hom.source_dim, hom.target_dim, hom.ancilla_dim)
    assert same_bits(back.kraus, hom.kraus)


def unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def quantum_graphs(draw):
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = qg.from_classical(qg.ClassicalGraph(n, [e for e, k in zip(pairs, keep) if k]))
    if draw(st.booleans()):
        g = qg.conjugate_graph(g, unitary(n, draw(st.integers(0, 2**32 - 1))))
    return g


@FIXED
@given(quantum_graphs())
def test_quantum_graphs_round_trip_bit_exact(g):
    back = round_trip(ser.quantum_graph_to_obj, ser.quantum_graph_from_obj, g)
    assert back.n == g.n and back.M.blocks == g.M.blocks
    assert same_bits(back.S.basis, g.S.basis)
    assert (back.M.conjugator is None) == (g.M.conjugator is None)
    if g.M.conjugator is not None:
        assert same_bits(back.M.conjugator, g.M.conjugator)


# ---------------------------------------------------------------------------
# damaged files through the CLI

BAD_VALUES = ["x", 1.5, True, None, [], {}, -1, [[1.0, 0.0]]]
BAD_ENTRIES = [[True, 0.0], [0.5, False], ["1", 0.0], [float("nan"), 0.0],
               [0.0, float("inf")], [1.0], [1.0, 2.0, 3.0], None, 2.0, [[1.0, 0.0]]]


def paths(x, here=()):
    """Every key path of a document, not descending into entry lists."""
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, v in items:
        yield here + (k,)
        if k != "entries":
            yield from paths(v, here + (k,))


def at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def damaged(doc, draw):
    """A copy of ``doc`` broken by one drawn mutation, as text."""
    doc = json.loads(json.dumps(doc))
    matrices = any(p[-1] == "entries" for p in paths(doc))
    how = draw(st.sampled_from(["drop", "retype", "truncate"]
                               + ["entry", "inflate"] * matrices))
    if how == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 2))]
    if how == "entry":
        entries = [p for p in paths(doc) if p[-1] == "entries"]
        target = at(doc, draw(st.sampled_from(entries)))
        target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif how == "inflate":
        dims = [p for p in paths(doc) if p[-1] in (
            "dim", "graph_dim", "ancilla_dim", "source_dim", "target_dim")]
        path = draw(st.sampled_from(dims))
        value, factor = at(doc, path), draw(st.sampled_from([2, 3, 1000]))
        at(doc, path[:-1])[path[-1]] = (
            [value[0] * factor, value[1]] if isinstance(value, list) else value * factor)
    else:
        # a quantum graph's algebra may have a null conjugator
        path = draw(st.sampled_from([p for p in paths(doc) if p[-1] != "conjugator"]))
        parent = at(doc, path[:-1])
        if how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            old = parent[path[-1]]
            parent[path[-1]] = draw(st.sampled_from(
                [v for v in BAD_VALUES if type(v) is not type(old)]))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def wire_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("wire")
    c5 = qg.cycle(5)
    kq = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    u = unitary(5, 4)
    c5q = qg.conjugate_graph(qg.from_classical(c5), u)
    _, w = qg.bfold_exact(c5, 2)
    docs = {
        "kq": ser.quantum_graph_to_obj(kq),
        "c5q": ser.quantum_graph_to_obj(c5q),
        "bell2": ser.certificate_to_obj(qg.bell_coloring(2)),
        "c5cert": ser.certificate_to_obj(qg.to_local_cert(c5, w).conjugated(u)),
        "c5": ser.graph_to_obj(c5),
    }
    out = {"dir": d, "docs": docs}
    for name, doc in docs.items():
        (d / (name + ".json")).write_text(ser.dumps(doc))
        out[name] = str(d / (name + ".json"))
    return out


def write_new(path, text) -> str:
    """Write ``text`` to ``path`` as a new file. Removing the old file first
    spares each example the flush that ext4 forces when a file is truncated
    and rewritten."""
    path.unlink(missing_ok=True)
    path.write_text(text)
    return str(path)


def assert_refused(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_USAGE, EXIT_SIZE), (code, argv, err.getvalue())


@FIXED
@given(st.data())
def test_damaged_certificate_files_are_refused(wire_files, data):
    graph, cert = data.draw(st.sampled_from([("kq", "bell2"), ("c5q", "c5cert")]))
    bad = write_new(wire_files["dir"] / "bad_cert.json",
                    damaged(wire_files["docs"][cert], data.draw))
    assert_refused(["color", "verify", wire_files[graph], bad])


@FIXED
@given(st.data())
def test_damaged_graph_files_are_refused(wire_files, data):
    name = data.draw(st.sampled_from(["kq", "c5q", "c5"]))
    bad = write_new(wire_files["dir"] / "bad_graph.json",
                    damaged(wire_files["docs"][name], data.draw))
    command = ["classical", "chi"] if name == "c5" else ["verify-graph"]
    assert_refused(command + [bad])
