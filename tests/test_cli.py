"""Command-line interface: exit codes, outputs, golden transcripts."""

import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import products, serialize as ser
from quantumgraphs.cli import EXIT_OK, EXIT_SIZE, EXIT_USAGE, EXIT_VERIFY, main
from quantumgraphs.products import LEXICOGRAPHIC_NOTE

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def files(tmp_path):
    """DIMACS inputs plus a couple of JSON artifacts used across commands."""
    out = {}
    for name, g in (("c5", qg.cycle(5)), ("k2", qg.complete(2)),
                    ("k3", qg.complete(3))):
        p = tmp_path / ("%s.col" % name)
        p.write_text(qg.to_dimacs(g))
        out[name] = str(p)
    kq = tmp_path / "kq_m2.json"
    ser.save(str(kq), ser.quantum_graph_to_obj(
        qg.complete_quantum_graph(qg.BlockAlgebra.full(2))))
    out["kq_m2"] = str(kq)
    bell = tmp_path / "bell2.json"
    ser.save(str(bell), ser.certificate_to_obj(qg.bell_coloring(2)))
    out["bell2"] = str(bell)
    _, w = qg.bfold_exact(qg.cycle(5), 2)
    cert5 = tmp_path / "c5_fold2.json"
    ser.save(str(cert5), ser.certificate_to_obj(
        qg.to_local_cert(qg.cycle(5), w)))
    out["c5_fold2"] = str(cert5)
    out["dir"] = tmp_path
    return out


def test_verify_graph_on_classical_and_quantum(files, capsys):
    assert main(["verify-graph", files["c5"]]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["verify-graph", files["kq_m2"]]) == EXIT_OK


def test_verify_graph_fails_on_broken_input(files, capsys):
    obj = ser.load_json(files["kq_m2"])
    # smuggle the identity into the edge space
    eye = [[1.0 if i == j else 0.0, 0.0] for i in range(2) for j in range(2)]
    obj["S"].append({"dim": [2, 2], "entries": eye})
    bad = files["dir"] / "bad.json"
    ser.save(str(bad), obj)
    assert main(["verify-graph", str(bad)]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_product_command_writes_and_verifies(files, capsys):
    out = files["dir"] / "prod.json"
    code = main(["product", "--kind", "cartesian", files["c5"], files["k2"],
                 "-o", str(out), "--classical"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "dim S = 30" in text
    loaded = ser.load_any_graph(str(out))
    assert loaded.n == 10
    assert main(["verify-graph", str(out)]) == EXIT_OK


def test_product_lexicographic_prints_the_convention_note(files, capsys):
    code = main(["product", "--kind", "lexicographic", files["c5"],
                 files["k2"], "--classical"])
    assert code == EXIT_OK
    assert LEXICOGRAPHIC_NOTE in capsys.readouterr().out


@pytest.mark.parametrize("which", ["left", "right"])
def test_product_classical_on_a_quantum_file_is_a_usage_error(files, capsys, which):
    """--classical reads both files as classical graphs before any work, so
    a quantum-graph file stops the command with no product and no report."""
    left, right = ((files["kq_m2"], files["k2"]) if which == "left"
                   else (files["k2"], files["kq_m2"]))
    out = files["dir"] / "prod.json"
    code = main(["product", "--kind", "cartesian", left, right,
                 "-o", str(out), "--classical"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "result:" not in captured.out and "product" not in captured.out
    assert "expected kind 'classical_graph'" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("kind", qg.PRODUCT_KINDS)
def test_product_classical_builds_the_product_once(files, capsys, monkeypatch, kind):
    """The command builds one quantum product and hands it to the
    cross-check, which builds only the classical side itself."""
    real, calls = products.product, []
    monkeypatch.setattr(products, "product",
                        lambda *args: calls.append(args) or real(*args))
    code = main(["product", "--kind", kind, files["c5"], files["k3"], "--classical"])
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("kind", qg.PRODUCT_KINDS)
def test_product_classical_prints_the_library_reports(files, capsys, kind):
    g = ser.load_classical_graph(files["c5"])
    h = ser.load_classical_graph(files["k3"])
    prod = products.product(qg.from_classical(g), qg.from_classical(h), kind)
    lines = ["%s product: dim %d, dim S = %d" % (kind, prod.n, prod.S.dim)]
    if kind == "lexicographic":
        lines.append("note: " + LEXICOGRAPHIC_NOTE)
    lines += [str(qg.verify_quantum_graph(prod)),
              str(products.classical_crosscheck(g, h, kind))]
    assert main(["product", "--kind", kind, files["c5"], files["k3"],
                 "--classical"]) == EXIT_OK
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_product_classical_fails_on_another_kinds_product(files, capsys, monkeypatch):
    """The cross-check behind the command still compares against an
    independently built classical product."""
    real = products.classical_product
    monkeypatch.setattr(products, "classical_product",
                        lambda g, h, kind: real(g, h, "strong"))
    code = main(["product", "--kind", "cartesian", files["c5"], files["k3"],
                 "--classical"])
    assert code == EXIT_VERIFY
    out = capsys.readouterr().out
    cross = out[out.index("classical product cross-check"):]
    failed = [line.split()[0] for line in cross.splitlines() if line.endswith("FAIL")]
    assert "edge_space_match" in failed


def test_color_verify_bell(files, capsys):
    assert main(["color", "verify", files["kq_m2"], files["bell2"]]) == EXIT_OK
    out = capsys.readouterr().out
    assert "4 colors" in out and "type q" in out


def test_color_verify_fails_on_wrong_graph(files, capsys):
    # the Bell certificate lives on a 2-dimensional graph leg, C5 is 5
    assert main(["color", "verify", files["c5"], files["bell2"]]) in (
        EXIT_VERIFY, EXIT_USAGE)


def test_color_verify_bfold(files, capsys):
    code = main(["color", "verify", "--bfold", files["c5"], files["c5_fold2"]])
    assert code == EXIT_OK
    assert "fold 2" in capsys.readouterr().out


def test_transform_reduce(files, capsys):
    out = files["dir"] / "reduced.json"
    code = main(["color", "transform", "reduce", files["c5_fold2"],
                 files["c5"], "-o", str(out)])
    assert code == EXIT_OK
    cert = ser.certificate_from_obj(ser.load_json(str(out)))
    assert cert.fold == 1
    assert main(["color", "verify", files["c5"], str(out)]) == EXIT_OK


def test_transform_reduce_on_failing_certificate_is_exit_one(files, capsys):
    # vertex 1 takes the color set of its neighbour 0: only the coloring
    # conditions fail
    cert = ser.certificate_from_obj(ser.load_json(files["c5_fold2"]))
    diags = [np.diag(p).copy() for p in cert.projections]
    for d in diags:
        d[1] = d[0]
    bad = files["dir"] / "c5_fold2_bad.json"
    ser.save(str(bad), ser.certificate_to_obj(qg.ColoringCertificate(
        5, 1, 2, tuple(np.diag(d) for d in diags))))
    code = main(["color", "transform", "reduce", str(bad), files["c5"]])
    assert code == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "coloring_condition" in captured.out
    assert "FAIL" in captured.out
    assert "fails b-fold verification" in captured.err
    assert "Traceback" not in captured.err


def test_transform_scale(files, capsys):
    _, w = qg.bfold_exact(qg.complete(3), 1)
    base = files["dir"] / "k3_coloring.json"
    ser.save(str(base), ser.certificate_to_obj(
        qg.to_local_cert(qg.complete(3), w)))
    out = files["dir"] / "scaled.json"
    code = main(["color", "transform", "scale", str(base), files["k3"],
                 "-b", "2", "-o", str(out)])
    assert code == EXIT_OK
    assert "fold 2, 6 colors" in capsys.readouterr().out
    assert main(["color", "verify", "--bfold", files["k3"], str(out)]) == EXIT_OK


def test_transform_lex(files, capsys):
    _, w = qg.bfold_exact(qg.complete(2), 1)
    second = files["dir"] / "k2_coloring.json"
    ser.save(str(second), ser.certificate_to_obj(
        qg.to_local_cert(qg.complete(2), w)))
    out = files["dir"] / "lex.json"
    code = main(["color", "transform", "lex", files["c5_fold2"], str(second),
                 "--graph-g", files["c5"], "--graph-h", files["k2"],
                 "-o", str(out)])
    assert code == EXIT_OK
    assert LEXICOGRAPHIC_NOTE in capsys.readouterr().out


def test_transform_strong_lift_and_cat_lift(files, capsys):
    certs = {}
    for name, g in (("k3", qg.complete(3)), ("k2", qg.complete(2))):
        _, w = qg.bfold_exact(g, 1)
        p = files["dir"] / ("%s_col.json" % name)
        ser.save(str(p), ser.certificate_to_obj(qg.to_local_cert(g, w)))
        certs[name] = str(p)
    code = main(["color", "transform", "strong-lift", certs["k3"], certs["k2"],
                 "--graph-g", files["k3"], "--graph-h", files["k2"]])
    assert code == EXIT_OK
    code = main(["color", "transform", "cat-lift", certs["k3"],
                 "--graph-g", files["k3"], "--graph-h", files["k2"]])
    assert code == EXIT_OK


def test_transform_scale_of_an_entangled_coloring_passes(files, capsys):
    """Bell2 repeated to fold 2 on the complete quantum graph over M_2."""
    code = main(["color", "transform", "scale", files["bell2"], files["kq_m2"],
                 "-b", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("scaled: fold 2, 8 colors\n")
    assert out.rstrip().endswith("result: PASS")


def test_transform_combine_failure_is_exit_one(files, capsys):
    code = main(["color", "transform", "combine", files["bell2"],
                 files["bell2"], files["kq_m2"]])
    assert code == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def _local_coloring(files, name, g):
    path = files["dir"] / ("%s_coloring.json" % name)
    ser.save(str(path), ser.certificate_to_obj(
        qg.to_local_cert(g, qg.bfold_exact(g, 1)[1])))
    return str(path)


@pytest.mark.parametrize("transform", ["reduce", "combine", "scale", "lex",
                                       "strong-lift", "cat-lift"])
def test_transform_prints_the_report_of_its_written_certificate(files, capsys, transform):
    """Each transform prints its summary line, if it has one, then the
    verifier's report on the certificate it wrote: verify_bfold on the
    graph for the fold transforms, verify_coloring on the product for the
    lifts."""
    c5q = qg.from_classical(qg.cycle(5))
    k3q = qg.from_classical(qg.complete(3))
    k2q = qg.from_classical(qg.complete(2))
    c5_1 = _local_coloring(files, "c5", qg.cycle(5))
    k3_1 = _local_coloring(files, "k3", qg.complete(3))
    k2_1 = _local_coloring(files, "k2", qg.complete(2))
    lifts = ["--graph-g", files["k3"], "--graph-h", files["k2"]]
    argv, graph, verifier, head = {
        "reduce": (["reduce", files["c5_fold2"], files["c5"]], c5q, qg.verify_bfold,
                   "reduced to fold 1 with %d colors; kept original colors %s\n"),
        "combine": (["combine", c5_1, files["c5_fold2"], files["c5"]], c5q,
                    qg.verify_bfold, "combined: fold 3, 8 colors\n"),
        "scale": (["scale", k3_1, files["k3"], "-b", "2"], k3q, qg.verify_bfold,
                  "scaled: fold 2, 6 colors\n"),
        "lex": (["lex", files["c5_fold2"], k2_1, "--graph-g", files["c5"],
                 "--graph-h", files["k2"]], qg.product(c5q, k2q, "lexicographic"),
                qg.verify_coloring, "note: %s\n" % LEXICOGRAPHIC_NOTE),
        "strong-lift": (["strong-lift", k3_1, k2_1] + lifts,
                        qg.product(k3q, k2q, "strong"), qg.verify_coloring, ""),
        "cat-lift": (["cat-lift", k3_1] + lifts, qg.product(k3q, k2q, "categorical"),
                     qg.verify_coloring, ""),
    }[transform]
    if transform == "reduce":
        reduced, kept = qg.reduce_bfold(c5q, ser.load_certificate(files["c5_fold2"]))
        head %= (reduced.colors, kept)
    out = files["dir"] / "transformed.json"
    code = main(["color", "transform"] + argv + ["-o", str(out)])
    rep = verifier(graph, ser.load_certificate(str(out)))
    assert rep.passed and code == EXIT_OK
    assert capsys.readouterr().out == "%swrote %s\n%s\n" % (head, out, rep)


def test_classical_chi(files, capsys):
    assert main(["classical", "chi", files["c5"]]) == EXIT_OK
    assert "chromatic number: 3" in capsys.readouterr().out


def test_classical_chi_b_matches_golden(files, capsys):
    assert main(["classical", "chi-b", files["c5"], "-b", "2"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "chi_b_c5.txt").read_text()


def test_classical_product(files, capsys):
    code = main(["classical", "product", "--kind", "strong", files["c5"],
                 files["k2"]])
    assert code == EXIT_OK
    assert "10 vertices, 25 edges" in capsys.readouterr().out


def test_classical_kneser_matches_golden(files, capsys):
    out = files["dir"] / "kneser.json"
    assert main(["classical", "kneser", "4", "2", "-o", str(out)]) == EXIT_OK
    assert out.read_text() == (GOLDEN / "kneser_4_2.json").read_text()


def test_report_bounds_matches_golden(files, capsys):
    code = main(["report", "bounds", files["c5"], files["k2"]])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "bounds_c5_k2.txt").read_text()


def test_report_bounds_json_artifact(files, capsys):
    out = files["dir"] / "bounds.json"
    assert main(["report", "bounds", files["c5"], files["k2"],
                 "-o", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["all_ok"] is True
    assert rep["products"]["lexicographic"] == rep["chi_b_g"] == 5


def test_usage_errors_are_exit_two(files, capsys):
    assert main(["classical", "chi", str(files["dir"] / "missing.col")]) == EXIT_USAGE
    garbled = files["dir"] / "garbled.col"
    garbled.write_text("p edge oops\n")
    assert main(["classical", "chi", str(garbled)]) == EXIT_USAGE


@pytest.mark.parametrize("entry, shown", [(["a", 0], "'a'"), ([float("nan"), 0], "nan")])
def test_bad_certificate_entry_is_exit_two(files, capsys, entry, shown):
    obj = ser.load_json(files["bell2"])
    obj["projections"][1]["entries"][3] = entry
    bad = files["dir"] / "bad_entry.json"
    bad.write_text(json.dumps(obj))  # json writes a NaN as the bare token NaN
    assert main(["color", "verify", files["kq_m2"], str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "entry 3" in err and shown in err


def _edit(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# (input file, command, JSON path to overwrite, value, field named in the error)
MALFORMED = [
    ("kq_m2", "verify-graph", ["dim"], None, "quantum_graph.dim"),
    ("kq_m2", "verify-graph", ["S"], 5, "quantum_graph.S"),
    ("kq_m2", "verify-graph", ["M"], None, "quantum_graph.M"),
    ("kq_m2", "verify-graph", ["M", "blocks"], [[1, 2.5]], "quantum_graph.M.blocks[0]"),
    ("kq_m2", "verify-graph", ["S", 0, "dim"], [2.0, 2], "quantum_graph.S[0].dim"),
    ("kq_m2", "verify-graph", ["S", 0, "dim"], [-1, -4], "quantum_graph.S[0].dim"),
    ("bell2", "color", ["graph_dim"], None, "certificate.graph_dim"),
    ("bell2", "color", ["fold"], True, "certificate.fold"),
    ("bell2", "color", ["projections"], {}, "certificate.projections"),
    ("k3_json", "chi", ["vertices"], None, "classical_graph.vertices"),
    ("k3_json", "chi", ["vertices"], 2.5, "classical_graph.vertices"),
    ("k3_json", "chi", ["edges"], 5, "classical_graph.edges"),
    ("k3_json", "chi", ["edges", 1], [0, "2"], "classical_graph.edges[1]"),
]


@pytest.mark.parametrize("name, command, path, value, field", MALFORMED,
                         ids=["-".join(map(str, [c[0]] + c[2])) for c in MALFORMED])
def test_malformed_field_is_exit_two(files, capsys, name, command, path, value, field):
    if name == "k3_json":
        obj = ser.graph_to_obj(qg.complete(3))
    else:
        obj = ser.load_json(files[name])
    _edit(obj, path, value)
    bad = files["dir"] / "malformed.json"
    bad.write_text(json.dumps(obj))
    argv = {"verify-graph": ["verify-graph", str(bad)],
            "color": ["color", "verify", files["kq_m2"], str(bad)],
            "chi": ["classical", "chi", str(bad)]}[command]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + field + " ")


def test_size_guard_is_exit_three(files, capsys):
    big = files["dir"] / "k27.col"
    big.write_text(qg.to_dimacs(qg.complete(27)))
    assert main(["classical", "chi", str(big)]) == EXIT_SIZE
    assert main(["classical", "kneser", "20", "10"]) == EXIT_SIZE


def test_dense_size_guard_is_exit_three(files, capsys):
    k36 = files["dir"] / "k36.col"
    k36.write_text(qg.to_dimacs(qg.complete(36)))
    assert main(["product", "--kind", "strong", str(k36), str(k36)]) == EXIT_SIZE
    assert "strong product's spanning family" in capsys.readouterr().err
    empty = files["dir"] / "e65.col"
    empty.write_text(qg.to_dimacs(qg.ClassicalGraph(65, [])))
    assert main(["verify-graph", str(empty)]) == EXIT_SIZE
    assert capsys.readouterr().err.startswith("size guard: the bimodule check")


def test_console_script_is_wired():
    proc = subprocess.run([sys.executable, "-m", "quantumgraphs.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "qgraph" in proc.stdout


def _capped_cli(*argv, timeout=120):
    """Run the CLI in a child capped at 1.5 GB of address space, so a guard
    that regresses fails fast instead of exhausting the machine's memory."""
    cap = 1536 << 20
    return subprocess.run(
        [sys.executable, "-m", "quantumgraphs.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


@pytest.mark.parametrize("name, text", [
    ("huge.col", "p edge 100000000 0\n"),
    ("huge.json", json.dumps({"kind": "classical_graph", "v": 1,
                              "vertices": 100000000, "edges": []}))],
    ids=["dimacs", "json"])
def test_huge_vertex_count_is_exit_three(tmp_path, name, text):
    """The vertex limit refuses the graph before any per-vertex work."""
    path = tmp_path / name
    path.write_text(text)
    proc = _capped_cli("classical", "chi", str(path))
    assert proc.returncode == EXIT_SIZE, proc.stderr[-500:]
    assert proc.stderr.startswith("size guard:") and "Traceback" not in proc.stderr


# the start of the message of the guard that must refuse each case
REFUSALS = {
    "subsets": "the stack of 155117520 15-subset products",
    "combine": "the stack of 5 embedded subset products, meets and colors",
    "scale": "the repeated palette of shape (5000, 128, 128)",
    "kneser": "Kneser graph K(2000000, 1000000) has at least",
    "strong-lift": "the lifted stack of shape (1, 1, 16384, 16384)",
    "lex": "the lifted stack of shape (1, 2, 16384, 16384)",
    "lex-few-colors": "the rebuilt colors of shape (1, 16384, 16384)",
    "cat-lift": "the lifted stack of shape (1, 256000, 256000)",
    "commutators": "the commutator stack of shape (319600, 12, 12)",
    "pvm-pairs": "the range sandwich of 132 operators of dimension 12 (rank 48, "
                 "ancilla 4, up to 459 pairs a row)",
    "pvm-masks": "the pair masks of 34220 live subset products"}


@pytest.mark.parametrize("case", REFUSALS)
def test_enumerations_past_the_guard_are_exit_three(tmp_path, case):
    """Refused before anything is enumerated or allocated, each by the
    guard its message names:
    - the C(30, 15) subset products of a 4 KB fold-15 certificate, 20 GiB
    - combine's embedding of two ancilla-128 certificates into dimension
      16384, 4 GiB a matrix
    - the 5000 copies of one ancilla-128 identity in the repeated palette,
      1.22 GiB
    - K(2000000, 1000000), whose vertex count math.comb computes for longer
      than the 20-s timeout
    - the strong and lexicographic lifts of ancilla-128 certificates, 4 and
      8 GiB, and the categorical lift of one to an empty 2000-vertex H,
      977 GiB
    - the 4 GiB of zero colors of the lexicographic lift of a 2-fold
      certificate with one color
    - the 0.69 GiB of commutators of 800 identities of dimension 12, a
      6 MB certificate
    - the 2.1 GiB of one subset's overlapping partners in the PVM coloring
      check of 20 identities on K12 at fold 3 and ancilla 4, 2 MB
    - the 3.3 GiB of the pair masks of the 34220 live subset products of 60
      one-dimensional identities at fold 3"""
    graph = tmp_path / "one.col"
    graph.write_text("p edge 1 0\n")
    big = tmp_path / "big.col"
    big.write_text("p edge 2000 0\n")
    cert = tmp_path / "cert.json"
    pair = tmp_path / "pair.json"

    def save_wide(path, fold, colors):
        """A certificate of ``colors`` identities on ancilla 128."""
        ser.save(str(path), ser.certificate_to_obj(qg.ColoringCertificate(
            1, 128, fold, np.stack([np.eye(128)] * colors))))

    save_wide(cert, 1, 1)
    lifts = ["--graph-g", str(graph), "--graph-h", str(graph)]
    if case == "subsets":
        ser.save(str(cert), ser.certificate_to_obj(
            qg.ColoringCertificate(1, 1, 15, np.zeros((30, 1, 1)))))
        argv = ["color", "verify", "--bfold", str(graph), str(cert)]
    elif case == "combine":
        argv = ["color", "transform", "combine", str(cert), str(cert), str(graph)]
    elif case == "scale":
        argv = ["color", "transform", "scale", str(cert), str(graph), "-b", "5000"]
    elif case == "commutators":
        ser.save(str(cert), ser.certificate_to_obj(
            qg.ColoringCertificate(1, 12, 1, np.stack([np.eye(12)] * 800))))
        argv = ["color", "verify", "--bfold", str(graph), str(cert)]
    elif case == "pvm-masks":
        ser.save(str(cert), ser.certificate_to_obj(
            qg.ColoringCertificate(1, 1, 3, np.ones((60, 1, 1)))))
        argv = ["color", "verify", "--bfold", str(graph), str(cert)]
    elif case == "pvm-pairs":
        k12 = tmp_path / "k12.col"
        k12.write_text(qg.to_dimacs(qg.complete(12)))
        ser.save(str(cert), ser.certificate_to_obj(
            qg.ColoringCertificate(12, 4, 3, np.stack([np.eye(48)] * 20))))
        argv = ["color", "verify", "--bfold", str(k12), str(cert)]
    elif case == "kneser":
        argv = ["classical", "kneser", "2000000", "1000000"]
    elif case == "strong-lift":
        argv = ["color", "transform", "strong-lift", str(cert), str(cert), *lifts]
    elif case.startswith("lex"):
        # one color has no 2-subset, so no products, only zero colors
        save_wide(cert, 2, 1 if case == "lex-few-colors" else 2)
        save_wide(pair, 1, 2)
        argv = ["color", "transform", "lex", str(cert), str(pair), *lifts]
    else:
        argv = ["color", "transform", "cat-lift", str(cert),
                "--graph-g", str(graph), "--graph-h", str(big)]
    proc = _capped_cli(*argv, timeout=20)
    assert proc.returncode == EXIT_SIZE, proc.stderr[-500:]
    assert proc.stderr.startswith("size guard: " + REFUSALS[case]), proc.stderr[-500:]
    assert "Traceback" not in proc.stderr


def test_strong_bell4_petersen_lift_verifies_under_the_cap(tmp_path):
    """The strong lift of Bell4 and a local 3-coloring of Petersen, 48
    colors of dimension 160, verifies on the strong product within 1.5 GB:
    membership is taken by conditional expectation with no basis of the
    algebra, and the coloring condition on each color's range of rank 4."""
    kq4, pet = tmp_path / "kq4.json", tmp_path / "pet.col"
    bell4, pet3 = tmp_path / "bell4.json", tmp_path / "pet3.json"
    ser.save(str(kq4), ser.quantum_graph_to_obj(
        qg.complete_quantum_graph(qg.BlockAlgebra.full(4))))
    pet.write_text(qg.to_dimacs(qg.petersen()))
    ser.save(str(bell4), ser.certificate_to_obj(qg.bell_coloring(4)))
    _, witness = qg.bfold_exact(qg.petersen(), 1)
    ser.save(str(pet3), ser.certificate_to_obj(qg.to_local_cert(qg.petersen(), witness)))
    proc = _capped_cli("color", "transform", "strong-lift", str(bell4), str(pet3),
                       "--graph-g", str(kq4), "--graph-h", str(pet))
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert proc.stdout.rstrip().endswith("result: PASS")


@pytest.mark.parametrize("line", [
    "[" * 100_000 + "]" * 100_000,
    "p edge 5 " + "7 " * 100_000,
    "e 1 2 " + "3 " * 100_000], ids=["unrecognized", "problem", "edge"])
def test_dimacs_errors_echo_a_bounded_prefix(files, capsys, line):
    path = files["dir"] / "long_line.col"
    path.write_text("p edge 5 0\n" * line.startswith("e") + line + "\n")
    assert main(["classical", "chi", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "DIMACS" in err and len(err.encode()) < 200


def test_deeply_nested_json_is_exit_two(files, capsys):
    """100 000 nested brackets exhaust the JSON parser's recursion; the
    loader reports the file instead of a RecursionError traceback."""
    nest = "[" * 100_000 + "]" * 100_000
    graph = files["dir"] / "deep_graph.json"
    graph.write_text('{"v": 1, "kind": "quantum_graph", "dim": 2, "S": %s}' % nest)
    cert = files["dir"] / "deep_cert.json"
    cert.write_text('{"v": 1, "kind": "certificate", "projections": %s}' % nest)
    for argv, path in ((["verify-graph", str(graph)], graph),
                       (["color", "verify", files["c5"], str(cert)], cert)):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: %s: JSON nested too deeply" % path)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_non_finite_or_negative_tol_is_a_usage_error(files, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify-graph", files["c5"], "--tol=" + tol])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "argument --tol: need a finite number >= 0" in captured.err


def test_dense_work_past_the_guard_is_exit_three(files, capsys):
    """Neither command allocates: the commutant basis of the first would
    take 50 GiB, that of the second's left factor 931 GiB."""
    empty = files["dir"] / "e1500.col"
    empty.write_text("p edge 1500 0\n")
    e2 = files["dir"] / "e2.col"
    e2.write_text("p edge 2 0\n")
    big = files["dir"] / "scalar500.json"
    big.write_text(json.dumps({"v": 1, "kind": "quantum_graph", "dim": 500, "S": [],
                               "M": {"blocks": [[500, 1]], "conjugator": None}}))
    for argv in (["verify-graph", str(empty)],
                 ["product", "--kind", "cartesian", str(big), str(e2)]):
        assert main(argv) == EXIT_SIZE
        err = capsys.readouterr().err
        assert err.startswith("size guard:") and "Traceback" not in err
