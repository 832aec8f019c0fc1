"""Tracing self-test: wrappers cover the named functions everywhere they are
bound, self times add up to the job time, and uninstall restores the
package.

Run from the root of the repository:

    python3 -m pytest -q bench/test_spans.py
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from quantumgraphs import cli, coloring, opspace, products, qgraph, serialize  # noqa: E402


def test_traced_jobs_are_accounted_for(tmp_path):
    jobs = [j for j in workloads.product_verify(str(tmp_path), 5).jobs
            if j.name.startswith("product cartesian K2")]
    originals = (products.orthonormalize, coloring.permute_systems,
                 serialize.parse_dimacs, opspace.OperatorSubspace.max_residual)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert products.orthonormalize is opspace.orthonormalize
        assert products.orthonormalize is not originals[0]
        assert coloring.permute_systems is not originals[1]
        assert serialize.parse_dimacs is not originals[2]
        outcomes = [run.run_job(j, cli, tracer, i) for i, j in enumerate(jobs)]
    finally:
        tracer.uninstall()
    assert (products.orthonormalize, coloring.permute_systems, serialize.parse_dimacs,
            opspace.OperatorSubspace.max_residual) == originals
    assert run.judge([outcomes]) == []

    layer, job_s, outside_s = tracer.metrics()
    assert set(layer) == {name for name, _, _ in spans.metric_names()}
    assert layer["cli.main.calls"] == len(jobs)
    assert layer["qgraph.verify_quantum_graph.calls"] == len(jobs)
    assert layer["opspace.max_residual.calls"] > 0
    assert layer["serialize.bytes_read"] > 0
    module_self = sum(layer[m + ".self_s"] for m in spans.MODULES)
    assert abs(module_self + outside_s - job_s) < 1e-9
    assert job_s <= sum(o.seconds for o in outcomes)
    assert qgraph.verify_quantum_graph is cli.verify_quantum_graph
