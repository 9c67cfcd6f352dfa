#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nilscope CLI.

    python3 bench/run.py --workload certify --seed 0 --seconds 36 --trace 0

Run from the root of a nilscope checkout; the package is imported from
``src/`` of that checkout, and inputs, reports and traces are written under
``.bench_work/`` and ``.bench_out/`` there.

One run sets up the workload ``SETUP_REPS`` times, then runs its fixed job
list in passes until ``--seconds`` have passed.  A set-up imports
nilscope in a fresh interpreter, writes the seeded inputs and runs the
warm-up jobs.  Each pass runs the jobs in a new shuffled order.  The first
pass always completes, so every job is timed at least once; later a job
starts only if it can end before the deadline.  A job
is one in-process call of ``nilscope.cli.main`` with ``--workers 1``; its
report is checked by the workload's own oracle, and a wrong exit code, a
failed check or an exception counts the job as failed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each job runs once traced and once
untraced, and the metrics are the per-layer ones (see bench/README.md).
Every metric is computed from each job's median time, so a partial last
pass does not change the job mix.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
WARMUP = {
    "certify": ("o1-quad500-s28-d0.1", "o2-noise300-s6-rich"),
    "witness": ("rp-fiber-0", "rp2-ladder-0-n25", "torus-rpds-0"),
    "complete": ("complete-h60-0", "test-h200-member-0"),
}
# The tail is the highest percentile with at least this many jobs beyond it.
TAIL_BEYOND = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARMUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs jobs in process, times them and checks their reports."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects flags this way
                return exc.code

    def run(self, job, traced: bool = False):
        """Run, time and check one job; returns (wall ns, first span index)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.out)
        first = len(self.tracer.spans)
        error = None
        t0 = time.perf_counter_ns()
        try:
            if traced:
                rc = self.tracer.run(job.id, self._call, job.argv)
            else:
                rc = self._call(job.argv)
        except Exception as exc:  # a crash inside nilscope is a failed job
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - t0
        if error is None:
            error = self._check(job, rc)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{job.id}: {error}")
        return wall, first

    @staticmethod
    def _check(job, rc):
        try:
            with open(job.out) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            payload = None
        try:
            return job.check(rc, payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"


def _median_dicts(dicts: list[dict]) -> dict:
    keys = set().union(*dicts)
    return {k: statistics.median(d.get(k, 0) for d in dicts) for k in keys}


def end_to_end(times: dict[str, list[int]], setup_s: float) -> tuple[dict, dict]:
    per_job = sorted(statistics.median(t) / 1e6 for t in times.values())
    n = len(per_job)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    metrics = {
        "jobs_per_s": (n / (sum(per_job) / 1e3), "1/s"),
        "job_p50_ms": (statistics.median(per_job), "ms"),
        "job_tail_ms": (per_job[tail_index], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tail = {"percentile": math.floor(100 * tail_index / n), "jobs": n, "jobs_beyond": n - 1 - tail_index}
    return metrics, tail


def per_layer(totals: dict, traced_s: float, untraced_s: float, missing: list[str]) -> dict:
    """Per-layer metrics from totals summed over one pass of the job list."""

    def g(key):
        return totals.get(key, 0)

    def ms(name):
        return g(f"{name}.self_ns") / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    cli_ns = sum(v for k, v in totals.items() if k.startswith("cli.") and k.endswith(".self_ns"))
    grid_ns = g("cubes.pped_search.grid_self_ns")
    out = {}
    for name in ("heisenberg.dist_arr", "systems.translate_arr"):
        out[f"{name}.calls"] = (g(f"{name}.calls"), "count")
        out[f"{name}.rows"] = (g(f"{name}.rows"), "count")
        out[f"{name}.self_ms"] = (ms(name), "ms")
    out["heisenberg.dist_arr.ns_per_row"] = (
        ratio(g("heisenberg.dist_arr.self_ns"), g("heisenberg.dist_arr.rows")), "ns")
    for name in ("heisenberg.dist", "systems.translate", "regularity.shift_mask",
                 "regularity.run_test", "cubes.pped_complete", "cubes.pped_search",
                 "proximality.rp_search", "proximality.rp2_search", "proximality.rpds_search"):
        out[f"{name}.calls"] = (g(f"{name}.calls"), "count")
        out[f"{name}.self_ms"] = (ms(name), "ms")
    out["systems.rotation_orbit.rows"] = (g("systems.rotation_orbit.rows"), "count")
    out["systems.rotation_orbit.self_ms"] = (ms("systems.rotation_orbit"), "ms")
    out["nilsequence.generate.self_ms"] = (ms("nilsequence.generate"), "ms")
    out["nilsequence.from_csv.self_ms"] = (ms("nilsequence.from_csv"), "ms")
    out["regularity.shift_mask.elems"] = (g("regularity.shift_mask.elems"), "count")
    out["regularity.shift_mask.ns_per_elem"] = (
        ratio(g("regularity.shift_mask.self_ns"), g("regularity.shift_mask.elems")), "ns")
    out["regularity.masks_per_scan"] = (
        ratio(g("regularity.shift_mask.calls"), g("regularity.run_test.calls")), "masks/scan")
    out["regularity.violations"] = (g("regularity.run_test.violations"), "count")
    out["regularity.hypothesis_density"] = (
        ratio(g("regularity.run_test.hypotheses"), g("regularity.run_test.tuples")), "ratio")
    out["regularity.to_dict.self_ms"] = (ms("regularity.to_dict"), "ms")
    out["cubes.early_exit_ratio"] = (
        ratio(g("cubes.pped_search.early_exit"), g("cubes.pped_search.calls")), "ratio")
    out["cubes.grid_cells"] = (g("cubes.pped_search.grid_cells"), "count")
    out["cubes.ns_per_grid_cell"] = (ratio(grid_ns, g("cubes.pped_search.grid_cells")), "ns")
    out["proximality.pair_eval_ratio"] = (
        ratio(g("gauge_calls_in_search"), g("search_pairs")), "ratio")
    out["cli.main.self_ms"] = (cli_ns / 1e6, "ms")
    out["cli.bytes_out"] = (g("cli.bytes_out"), "bytes")
    out["trace.unattributed_ms"] = (g("job.self_ns") / 1e6, "ms")
    out["trace.overhead_ratio"] = (ratio(traced_s, untraced_s) - 1.0, "ratio")
    out["trace.missing_sites"] = (len(missing), "count")
    return out


def measure(jobs, runner, tracer, seconds, trace):
    """Run the jobs in passes until ``seconds`` have passed.

    The first pass always completes.  After it, a job starts only if its
    shortest time so far fits before the deadline, so a long job does not
    overrun the run.  Returns per-job untraced and traced wall times (ns),
    per-job layer totals of the traced runs, and the number of passes.
    """
    times = {job.id: [] for job in jobs}
    traced_times = {job.id: [] for job in jobs}
    job_totals = {job.id: [] for job in jobs}
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    passes = 0
    ran = True
    while ran and (passes == 0 or time.perf_counter_ns() < deadline):
        # Each pass runs the jobs in its own fixed shuffled order, so jobs of
        # one kind do not share the same few seconds of machine noise.
        order = list(jobs)
        random.Random(passes).shuffle(order)
        ran = False
        for job in order:
            # A traced run pairs each traced run of a job with an untraced
            # one, alternating which goes first, to measure the overhead.
            modes = ((True, False), (False, True))[passes % 2] if trace else (False,)
            if passes and min(times[job.id]) * len(modes) > deadline - time.perf_counter_ns():
                continue
            ran = True
            for traced in modes:
                wall, first = runner.run(job, traced)
                if not traced:
                    times[job.id].append(wall)
                    continue
                traced_times[job.id].append(wall)
                totals = tracer.totals_since(first)
                with contextlib.suppress(FileNotFoundError):
                    totals["cli.bytes_out"] = os.path.getsize(job.out)
                job_totals[job.id].append(totals)
        passes += 1
    return times, traced_times, job_totals, passes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "nilscope" / "cli.py").is_file():
        print(f"error: no nilscope sources at {SRC}; run from a nilscope checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # An inherited NILSCOPE_WORKERS would switch on the regularity thread pool.
    os.environ.pop("NILSCOPE_WORKERS", None)
    sys.path.insert(0, str(SRC))

    import numpy as np
    from nilscope import cli

    import spans
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    tracer = spans.Tracer()
    runner = Runner(cli, tracer)
    make = workloads.WORKLOADS[args.workload]
    try:
        setup_times, setup_totals = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import nilscope.cli"], check=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)))
            if args.trace:
                first = len(tracer.spans)
                jobs = tracer.run("setup", make, args.seed, work, root="setup")
                setup_totals.append(tracer.totals_since(first))
            else:
                jobs = make(args.seed, work)
            by_id = {job.id: job for job in jobs}
            warm = Runner(cli, tracer)
            for jid in WARMUP[args.workload]:
                warm.run(by_id[jid])
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        times, traced_times, job_totals, passes = measure(
            jobs, runner, tracer, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        totals = _median_dicts(setup_totals)
        for per_exec in job_totals.values():
            for k, v in _median_dicts(per_exec).items():
                totals[k] = totals.get(k, 0) + v
        traced_s = sum(statistics.median(t) for t in traced_times.values()) / 1e9
        untraced_s = sum(statistics.median(t) for t in times.values()) / 1e9
        metrics = per_layer(totals, traced_s, untraced_s, tracer.missing)
        detail = {"missing_sites": tracer.missing}
    else:
        metrics, tail = end_to_end(times, setup_s)
        detail = {"tail": tail}
    detail.update(
        jobs_ms={jid: [round(x / 1e6, 3) for x in t] for jid, t in times.items()},
        workload=args.workload, seed=args.seed, passes=passes, attempted=runner.attempted,
        failures=runner.failures[:20], numpy=np.__version__, python=sys.version.split()[0],
        nproc=os.cpu_count(),
    )
    if args.trace:
        tracer.dump(results / f"spans-{args.workload}-s{args.seed}.json")
    (results / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    summary = ("workload", "seed", "passes", "attempted", "failures", "tail", "missing_sites")
    print(json.dumps({k: detail[k] for k in summary if k in detail}), file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
