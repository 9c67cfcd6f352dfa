#!/usr/bin/env python3
"""Compare two nilscope checkouts job by job on one benchmark workload.

Two long-lived workers run the jobs, one importing ``nilscope`` from the
``src/`` of each checkout.  Both take the job list and its checks from the
``bench/workloads.py`` of this checkout, and both run and time each job
with the ``Runner`` of this checkout's ``bench/run.py`` (imported, not
changed), in a temporary directory that is deleted afterwards.  After one
untimed warm-up pass, each of the ``--passes`` passes runs the jobs in the
benchmark's order for that pass (shuffled by ``random.Random(i)``), and
every job runs on one side and then at once on the other; the side that
goes first alternates from job to job.  Running the two sides job by job
puts them in the same seconds of machine noise, which whole-run pairs of
one checkout do not share.

From each side's per-job median times the script prints ``jobs_per_s``,
``job_p50_ms`` and ``job_tail_ms`` as ``bench/run.py`` computes them, the
ratio this/other, and the per-job medians and ratios of the slowest jobs
(by the other checkout's median).  It exits 1 if any check failed on
either side.

Usage:
    python scripts/ab_jobs.py OTHER_CHECKOUT WORKLOAD SEED [--passes N]
    (WORKLOAD is certify, witness or complete)
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

from harness import ROOT, cli, job_list, parse_args

import run as bench  # bench/run.py, on sys.path once harness is imported
import spans

# The slowest jobs listed one per line.
SLOWEST = 10
METRICS = ("jobs_per_s", "job_p50_ms", "job_tail_ms")

# A worker imports nilscope from the checkout given first, so that the
# ``from nilscope import cli`` of harness finds that package already loaded.
WORKER = """
import sys
sys.path.insert(0, sys.argv[1])
import nilscope.cli
sys.path.insert(0, sys.argv[2])
import ab_jobs
ab_jobs.serve(sys.argv[3], int(sys.argv[4]))
"""


def serve(workload: str, seed: int) -> None:
    """Worker loop: print the job ids, then for each job id read from stdin
    run that job once and print its wall time in ns and its failure or null."""
    with job_list(workload, seed, "ab-jobs-") as jobs:
        runner = bench.Runner(cli, spans.Tracer())
        by_id = {job.id: job for job in jobs}
        print(json.dumps(list(by_id)), flush=True)
        for line in sys.stdin:
            failed = len(runner.failures)
            wall, _ = runner.run(by_id[line.strip()])
            error = runner.failures[-1] if len(runner.failures) > failed else None
            print(json.dumps([wall, error]), flush=True)


class Worker:
    def __init__(self, checkout: Path, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(checkout / "src"), str(ROOT / "scripts"),
             workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ids = json.loads(self.proc.stdout.readline())

    def run(self, job_id: str):
        self.proc.stdin.write(job_id + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    args = parse_args(__doc__, argv, passes=10, other=True)
    if not (args.other / "src" / "nilscope" / "cli.py").is_file():
        print(f"error: no nilscope sources under {args.other}/src", file=sys.stderr)
        return 2
    sides = {"other": args.other.resolve(), "this": ROOT}
    workers = {}
    try:
        for side, checkout in sides.items():
            workers[side] = Worker(checkout, args.workload, args.seed)
        ids = workers["this"].ids
        times = {side: {job_id: [] for job_id in ids} for side in sides}
        failures = []
        turn = 0
        for p in range(-1, args.passes):  # pass -1 warms up
            order = list(ids)
            random.Random(max(p, 0)).shuffle(order)
            for job_id in order:
                turn += 1
                for side in (("other", "this"), ("this", "other"))[turn % 2]:
                    wall, error = workers[side].run(job_id)
                    if error is not None:
                        failures.append(f"{side} {error}")
                    if p >= 0:
                        times[side][job_id].append(wall)
    finally:
        for worker in workers.values():
            worker.close()

    metrics = {side: bench.end_to_end(times[side], 0.0)[0] for side in sides}
    print(f"{'side':<8}" + "".join(f"{m:>14}" for m in METRICS))
    for side in sides:
        print(f"{side:<8}" + "".join(f"{metrics[side][m][0]:>14.3f}" for m in METRICS))
    ratio = [metrics["this"][m][0] / metrics["other"][m][0] for m in METRICS]
    print(f"{'ratio':<8}" + "".join(f"{r:>14.3f}" for r in ratio))
    medians = {side: {j: statistics.median(t) / 1e6 for j, t in times[side].items()} for side in sides}
    print(f"\n{'job':<32}{'other_ms':>12}{'this_ms':>12}{'ratio':>8}")
    for job_id in sorted(ids, key=medians["other"].get, reverse=True)[:SLOWEST]:
        a, b = medians["other"][job_id], medians["this"][job_id]
        print(f"{job_id:<32}{a:>12.3f}{b:>12.3f}{b / a:>8.3f}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
