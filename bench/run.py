"""Benchmark of the quantumgraphs verifier.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one process and one closed-loop client: it sets the workload up
several times (inputs from ``--seed``, files, warm-up) and reports the
median, then runs the workload's fixed job list, one job after another, in
whole passes for about ``--seconds``. Every job's output is checked
afterwards by the oracle. With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` half the time runs
untraced and half with span wrappers installed, and it carries the
per-layer metrics. Spans of a traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUPS = 5
IMPORTS = 5


@dataclass
class Outcome:
    job: object
    code: object
    value: object
    out: str
    err: str
    exc: str | None
    seconds: float


def run_job(job, cli, tracer=None, job_id=-1):
    out, err = io.StringIO(), io.StringIO()
    code = value = exc = None

    def call():
        return cli.main(job.argv) if job.argv is not None else job.call()

    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = tracer.run_job(job_id, call) if tracer else call()
    except (Exception, SystemExit) as e:  # a raising job is a failed job
        exc = "%s: %s" % (type(e).__name__, e)
    else:
        if job.argv is not None:
            code = result
        else:
            value = result
    seconds = perf_counter() - start
    return Outcome(job, code, value, out.getvalue(), err.getvalue(), exc, seconds)


def run_passes(jobs, budget, cli, tracer=None):
    """Whole passes over the job list, at least one, for about ``budget``
    seconds: another pass starts only if it would end at most half a pass
    after the budget. Returns the passes' outcomes and the wall seconds."""
    passes = []
    start = now = perf_counter()
    while True:
        began, now = now, perf_counter()
        if passes and (now - start) + (now - began) / 2 >= budget:
            return passes, now - start
        base = sum(len(p) for p in passes)
        passes.append([run_job(job, cli, tracer, base + i) for i, job in enumerate(jobs)])


def judge(passes):
    """Oracle verdicts: a list of (job name, message) for every failed job."""
    failures = []
    for outcomes in passes:
        by_name = {o.job.name: o for o in outcomes}
        for o in outcomes:
            msg = ("raised %s" % o.exc) if o.exc else o.job.check(o, by_name)
            if msg and o.err.strip():
                msg += " (stderr: %s)" % o.err.strip().splitlines()[-1]
            if msg:
                failures.append((o.job.name, msg))
    return failures


def setup(build, seed, work, cli):
    """Build the inputs in a fresh directory and run the warm-up jobs."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = perf_counter()
    workload = build(work, seed)
    for job in workload.warmup:
        run_job(job, cli)
    return workload, perf_counter() - start


def import_seconds():
    """Median time to import the CLI module in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import quantumgraphs.cli; print(time.perf_counter() - t)"
            % os.path.join(ROOT, "src"))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60).stdout)
        for _ in range(IMPORTS))


def provenance(seed, workload):
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.partition("\n")
        if os.path.realpath(top) == os.path.realpath(ROOT) and head.strip():
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    blas_name, threads = blas_info(np)
    return {"workload": workload, "seed": seed, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads, "commit": commit}


def blas_info(np):
    """The BLAS numpy was built against, and its thread count when the
    library exposes one (OpenBLAS does)."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    threads = None
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return name, threads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, BENCH]
    try:
        from quantumgraphs import cli
        import spans
        import workloads
    except ImportError as exc:
        print("cannot import the package from %s: %s" % (src, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("imported %s, not the package under %s" % (cli.__file__, src), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    work_root = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        import_s = import_seconds()
        times = []
        for i in range(SETUPS):
            workload, t = setup(build, args.seed, os.path.join(work_root, str(i)), cli)
            times.append(t)
        jobs = workload.jobs
        if args.trace:
            untraced, wall_u = run_passes(jobs, args.seconds / 2, cli)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, wall_t = run_passes(jobs, args.seconds / 2, cli, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            passes, wall = run_passes(jobs, args.seconds, cli)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_root))

    failures = judge(passes)
    attempted = sum(len(p) for p in passes)
    for name, msg in failures[:20]:
        print("FAILED %s: %s" % (name, msg))
    print(json.dumps({"provenance": provenance(args.seed, args.workload)}))

    if args.trace:
        layer, job_s, outside_s = tracer.metrics()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in spans.metric_names()}
        jps_u = sum(len(p) for p in untraced) / wall_u
        jps_t = sum(len(p) for p in traced) / wall_t
        for name, value, unit in (
                ("trace.untraced_jobs_per_s", jps_u, "jobs/s"),
                ("trace.jobs_per_s", jps_t, "jobs/s"),
                ("trace.overhead_frac", jps_u / jps_t - 1, "ratio"),
                ("trace.job_s", job_s, "s"),
                ("trace.outside_s", outside_s, "s"),
                ("trace.spans", len(tracer.spans), "count")):
            metrics[name] = {"value": value, "unit": unit}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        lat = [o.seconds for p in passes for o in p]
        metrics = {
            "jobs_per_s": {"value": attempted / wall, "unit": "jobs/s"},
            "job_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "job_p90_s": {"value": statistics.quantiles(lat, n=10, method="inclusive")[8],
                          "unit": "s"},
            "ok_frac": {"value": 1 - len(failures) / attempted, "unit": "ratio"},
            "setup_s": {"value": import_s + statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        print(json.dumps({"jobs": attempted, "passes": len(passes), "wall_s": wall,
                          "failed_frac": len(failures) / attempted,
                          "setup_runs_s": times, "import_s": import_s}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
