#!/usr/bin/env python3
"""Print the time of one benchmark workload per job family.

The job list comes from ``bench/workloads.py`` (imported, not changed).
Every job runs ``--passes`` times, in process, through
``nilscope.cli.main`` from the ``src/`` of this checkout, inside a
temporary directory that is deleted afterwards.  A job's time is the
median of its runs in milliseconds; a family is the job id without its
trailing ``-<int>``.  One line per family, in order of first appearance,

    family jobs sum_ms

where ``sum_ms`` is the sum of its jobs' median times, then
``total jobs sum_ms``.  The times are wall clock: compare two checkouts
by alternating runs on the same machine, not by one run each.

Usage:
    python scripts/family_times.py WORKLOAD SEED [--passes N]
    (WORKLOAD is certify, witness or complete)
"""

from __future__ import annotations

import re
import statistics
import sys
import time

from harness import job_list, parse_args, run_quiet


def job_times(workload: str, seed: int, passes: int) -> dict[str, list[float]]:
    """Wall times in ms of each job's runs, keyed by job id in job-list order."""
    with job_list(workload, seed, "family-times-") as jobs:
        times = {job.id: [] for job in jobs}
        for _ in range(passes):
            for job in jobs:
                t0 = time.perf_counter_ns()
                run_quiet(job)
                times[job.id].append((time.perf_counter_ns() - t0) / 1e6)
    return times


def main(argv=None) -> int:
    args = parse_args(__doc__, argv, passes=5)
    families: dict[str, list[float]] = {}
    for job_id, runs in job_times(args.workload, args.seed, args.passes).items():
        families.setdefault(re.sub(r"-\d+$", "", job_id), []).append(statistics.median(runs))
    for family, medians in families.items():
        print(f"{family} {len(medians)} {sum(medians):.3f}")
    every = [t for medians in families.values() for t in medians]
    print(f"total {len(every)} {sum(every):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
