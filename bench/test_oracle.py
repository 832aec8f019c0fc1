"""Oracle self-test: planted failures must be counted, so that a failed
fraction of 0 is not vacuous.

Run from the root of the repository:

    python3 -m pytest -q bench/test_oracle.py
"""

import dataclasses
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import inputs as I  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quantumgraphs import cli  # noqa: E402


def _outcome(work, build, name):
    job = next(j for j in build(str(work), 3).jobs if j.name == name)
    outcome = run.run_job(job, cli)
    assert run.judge([[outcome]]) == []
    return outcome


def _bump(out, label):
    """The output with the integer after ``label`` increased by one."""
    return re.sub(re.escape(label) + r"(\s*)(\d+)",
                  lambda m: label + m.group(1) + str(int(m.group(2)) + 1), out, count=1)


@pytest.fixture(scope="module")
def product_job(tmp_path_factory):
    return _outcome(tmp_path_factory.mktemp("pv"), workloads.product_verify,
                    "product strong C4 K2")


@pytest.fixture(scope="module")
def chi_job(tmp_path_factory):
    return _outcome(tmp_path_factory.mktemp("es"), workloads.exact_solve, "chi C5[K3]")


@pytest.fixture(scope="module")
def corrupted_job(tmp_path_factory):
    return _outcome(tmp_path_factory.mktemp("cr"), workloads.certificate_roundtrip,
                    "local C5 b2 corrupted")


def test_tampered_exit_code_is_counted(product_job, corrupted_job):
    assert len(run.judge([[dataclasses.replace(product_job, code=1)]])) == 1
    # a corrupted certificate that verifies is a failure too
    assert len(run.judge([[dataclasses.replace(corrupted_job, code=0)]])) == 1


def test_tampered_dim_s_is_counted(product_job):
    bad = dataclasses.replace(product_job, out=_bump(product_job.out, "dim S ="))
    assert bad.out != product_job.out
    assert len(run.judge([[bad]])) == 1


def test_tampered_chi_is_counted(chi_job):
    bad = dataclasses.replace(chi_job, out=_bump(chi_job.out, "chromatic number:"))
    assert bad.out != chi_job.out
    assert len(run.judge([[bad]])) == 1


def test_raising_job_is_counted(product_job):
    assert len(run.judge([[dataclasses.replace(product_job, exc="ValueError: x")]])) == 1


def test_product_dims_match_counting_formulas():
    c5 = (5, 10, 5)
    assert [O.product_dim(k, c5, c5) for k in workloads.KINDS] == [100, 100, 300, 200]
    q4 = (4, 12, 4)  # complete quantum graph over I_2 (x) M_2
    assert O.product_dim("strong", q4, c5) == 12 * 5 + 4 * 10 + 12 * 10


def test_closed_forms_and_independent_checks():
    assert O.chi_lex_cycle_complete(2, 2) == 5
    assert O.chi_kneser(5, 2) == 3
    assert O.chi_b_cycle(2, 3) == 8
    assert O.clique_number(I.kneser(7, 2)) == 3
    assert O.greedy_colors(I.cycle(5)) == 3
    c5 = I.cycle(5)
    good = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 0}),
            frozenset({1, 2}), frozenset({3, 4})]
    assert O.check_bfold_witness(c5, 2, 5, good) is None
    assert O.check_bfold_witness(c5, 2, 4, good)
    assert O.check_bfold_witness(c5, 2, 5, [good[0]] * 5)
