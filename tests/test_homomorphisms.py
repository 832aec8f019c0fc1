"""Kraus-family homomorphism certificates for the product inclusions."""

import resource
import subprocess
import sys

import numpy as np
import pytest

import quantumgraphs as qg
from quantumgraphs.coloring import (
    HomomorphismCertificate, hedetniemi_witness, sabidussi_witness,
    verify_homomorphism)


def ok(rep):
    assert rep.passed, "\n%s" % rep


def test_sabidussi_witness_embeds_the_left_factor():
    g = qg.from_classical(qg.cycle(5))
    h = qg.from_classical(qg.complete(2))
    cert = sabidussi_witness(g, h)
    assert cert.source_dim == 5
    assert cert.target_dim == 10
    assert cert.ancilla_dim == 2
    assert len(cert.kraus) == 1
    rep = verify_homomorphism(g, qg.cartesian(g, h), cert)
    ok(rep)
    assert rep.max_residual < 1e-12


def test_sabidussi_witness_is_trace_preserving():
    g = qg.from_classical(qg.path(3))
    h = qg.from_classical(qg.cycle(4))
    cert = sabidussi_witness(g, h)
    total = sum(f.conj().T @ f for f in cert.kraus)
    assert np.allclose(total, np.eye(cert.source_dim * cert.ancilla_dim),
                       atol=1e-12)


@pytest.mark.parametrize("factor", [1, 2])
def test_hedetniemi_witness_projects_onto_a_factor(factor):
    g = qg.from_classical(qg.cycle(5))
    h = qg.from_classical(qg.complete(3))
    cert = hedetniemi_witness(g, h, factor=factor)
    target = h if factor == 2 else g
    rep = verify_homomorphism(qg.categorical(g, h), target, cert)
    ok(rep)


def test_hedetniemi_witness_on_noncommutative_factor():
    g = qg.complete_quantum_graph(qg.BlockAlgebra.full(2))
    h = qg.from_classical(qg.complete(2))
    ok(verify_homomorphism(qg.categorical(g, h), g,
                           hedetniemi_witness(g, h, factor=1)))


def test_witness_against_wrong_product_fails():
    g = qg.from_classical(qg.cycle(5))
    h = qg.from_classical(qg.complete(2))
    cert = sabidussi_witness(g, h)
    rep = verify_homomorphism(g, qg.categorical(g, h), cert)
    assert not rep.passed
    assert any("edge" in c.name for c in rep.failures())


def test_verify_homomorphism_catches_broken_normalization():
    g = qg.from_classical(qg.cycle(5))
    h = qg.from_classical(qg.complete(2))
    good = sabidussi_witness(g, h)
    leaky = HomomorphismCertificate(good.source_dim, good.target_dim,
                                    good.ancilla_dim,
                                    tuple(0.9 * f for f in good.kraus))
    rep = verify_homomorphism(g, qg.cartesian(g, h), leaky)
    assert not rep.passed
    assert any("trace" in c.name for c in rep.failures())
    # no Kraus operators: the mapped stacks are empty, sum F*F = 0 != I
    empty = HomomorphismCertificate(good.source_dim, good.target_dim,
                                    good.ancilla_dim, ())
    rep = verify_homomorphism(g, qg.cartesian(g, h), empty)
    assert [c.name for c in rep.failures()] == ["trace_preserving"]


def test_homomorphism_certificate_shape_validation():
    with pytest.raises(ValueError):
        HomomorphismCertificate(2, 3, 1, (np.eye(2, dtype=complex),))


def test_factor_argument_validation():
    g = qg.from_classical(qg.complete(2))
    with pytest.raises(ValueError):
        hedetniemi_witness(g, g, factor=3)


# the guard message that must refuse each hostile family, and the source
# that builds the graph g and the certificate in the child
HOSTILE = {
    "pairs": ("the Kraus pair stack of shape (120, 120, 56, 8, 8)",
              "g = qg.from_classical(qg.complete(8))\n"
              "rng = np.random.default_rng(0)\n"
              "f = rng.standard_normal((120, 8, 64)) + 1j * rng.standard_normal((120, 8, 64))\n"
              "cert = qg.HomomorphismCertificate(8, 8, 8, f)"),
    "products": ("the Kraus product of shape (20000, 20000)",
                 "g = qg.from_classical(qg.ClassicalGraph(1, []))\n"
                 "cert = qg.HomomorphismCertificate(1, 1, 20000, np.ones((1, 1, 20000)))")}


@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_kraus_families_are_refused_before_their_stacks(case):
    """Refused by the guard its message names, in a child capped at 1.5 GB
    of address space, so a missing guard fails fast with a MemoryError:
    - K8 -> K8 with 120 seeded 8 x 64 Kraus operators on ancilla 8, a 1 MB
      certificate whose F_i Y F_j* stack over the 56 edge operators takes
      0.77 GiB
    - one 1 x 20000 Kraus operator on the 1-vertex graph, a 320 KB
      certificate whose F* F takes 6 GiB"""
    message, setup = HOSTILE[case]
    code = ("import sys\nimport numpy as np\nimport quantumgraphs as qg\n"
            + setup + "\ntry:\n    qg.verify_homomorphism(g, g, cert)\n"
            "except qg.SizeGuardError as e:\n"
            "    sys.exit('size guard: %s' % e)\n")
    cap = 1536 << 20
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert child.stderr.startswith("size guard: " + message), child.stderr[-500:]
    assert "Traceback" not in child.stderr
