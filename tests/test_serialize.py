"""JSON wire format: round trips are exact and dumps are canonical."""

import json

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs import serialize as ser


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = ser.matrix_from_obj(ser.matrix_to_obj(m))
    assert back.shape == (3, 4)
    assert np.array_equal(back, m)  # float64 survives json exactly


def test_matrix_from_obj_rejects_malformed():
    with pytest.raises(ValueError):
        ser.matrix_from_obj({"dim": [2, 2], "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        ser.matrix_from_obj({"entries": []})


@pytest.mark.parametrize("entry", [
    ["a", 0], [None, 0], [1.0], [1.0, 2.0, 3.0], 1.0, "1",
    [float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 0.0],
    [True, 0.0], [0.5, False]])
def test_matrix_from_obj_rejects_bad_entries(entry):
    obj = {"dim": [1, 2], "entries": [[1.0, 0.0], entry]}
    with pytest.raises(ValueError, match="entry 1"):
        ser.matrix_from_obj(obj)


def test_matrix_from_obj_accepts_integers_and_signed_zeros():
    entries = [[1, -2], [-0.0, 0.5], [3, 0.25], [0.0, -0.0]]
    back = ser.matrix_from_obj({"dim": [2, 2], "entries": entries})
    want = np.array([complex(re, im) for re, im in entries]).reshape(2, 2)
    assert back.dtype == np.complex128
    assert back.view(np.float64).tobytes() == want.view(np.float64).tobytes()


def test_algebra_round_trip(haar):
    m = qg.BlockAlgebra([(2, 1), (1, 2)], conjugator=haar(4, seed=2))
    back = ser.algebra_from_obj(ser.algebra_to_obj(m))
    assert back.equals(m)
    plain = qg.BlockAlgebra.diagonal(3)
    assert ser.algebra_from_obj(ser.algebra_to_obj(plain)).equals(plain)


def test_quantum_graph_round_trip():
    g = qg.complete_quantum_graph(qg.BlockAlgebra([(2, 2)]))
    back = ser.quantum_graph_from_obj(ser.quantum_graph_to_obj(g))
    assert back.n == g.n
    assert back.S.equals_span(g.S)
    assert back.M.equals(g.M)
    assert qg.verify_quantum_graph(back).passed


def test_certificate_round_trip(bell2):
    back = ser.certificate_from_obj(ser.certificate_to_obj(bell2))
    assert back.colors == bell2.colors
    assert back.fold == bell2.fold
    for a, b in zip(back.projections, bell2.projections):
        assert np.array_equal(a, b)


def test_homomorphism_round_trip():
    g = qg.from_classical(qg.cycle(5))
    h = qg.from_classical(qg.complete(2))
    cert = qg.sabidussi_witness(g, h)
    back = ser.homomorphism_from_obj(ser.homomorphism_to_obj(cert))
    assert back.source_dim == cert.source_dim
    assert back.ancilla_dim == cert.ancilla_dim
    assert np.array_equal(back.kraus[0], cert.kraus[0])


def test_classical_graph_round_trip():
    g = qg.petersen()
    back = ser.graph_from_obj(ser.graph_to_obj(g))
    assert back == g


def test_dumps_is_canonical(tmp_path):
    g = qg.from_classical(qg.cycle(4))
    obj = ser.quantum_graph_to_obj(g)
    text = ser.dumps(obj)
    assert text.endswith("\n")
    assert ser.dumps(json.loads(text)) == text  # reload and re-dump is stable
    path = tmp_path / "g.json"
    ser.save(str(path), obj)
    assert path.read_text() == text


def test_kind_and_version_checks(bell2):
    cert_obj = ser.certificate_to_obj(bell2)
    with pytest.raises(ValueError):
        ser.quantum_graph_from_obj(cert_obj)  # wrong kind
    for v in (99, True, 1.0, "1"):  # the version is the integer 1
        with pytest.raises(ValueError, match="schema version"):
            ser.certificate_from_obj(dict(cert_obj, v=v))
    with pytest.raises(ValueError):
        ser.certificate_from_obj([1, 2, 3])


def test_load_classical_graph_sniffs_format(tmp_path):
    g = qg.cycle(5)
    dimacs = tmp_path / "g.col"
    dimacs.write_text(qg.to_dimacs(g))
    assert ser.load_classical_graph(str(dimacs)) == g
    as_json = tmp_path / "g.json"
    ser.save(str(as_json), ser.graph_to_obj(g))
    assert ser.load_classical_graph(str(as_json)) == g


def test_load_any_graph_embeds_classical(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(qg.to_dimacs(qg.cycle(5)))
    loaded = ser.load_any_graph(str(path))
    assert loaded.S.equals_span(qg.from_classical(qg.cycle(5)).S)
    qpath = tmp_path / "kq.json"
    kq = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    ser.save(str(qpath), ser.quantum_graph_to_obj(kq))
    assert ser.load_any_graph(str(qpath)).S.equals_span(kq.S)
