#!/usr/bin/env python3
"""Print the peak resident set size after each pass of one benchmark workload.

The job list comes from ``bench/workloads.py``, and every job is run and
checked by the ``Runner`` of ``bench/run.py`` (both imported, not
changed), in process, through ``nilscope.cli.main`` from the ``src/`` of
this checkout, inside a temporary directory that is deleted afterwards.
Pass i runs the jobs in the benchmark's order for its pass i (shuffled by
``random.Random(i)``).  After each pass one line,

    pass peak_rss_mb failures

where ``peak_rss_mb`` is this process's ``ru_maxrss`` in MB, as the
benchmark reads it, and ``failures`` counts the failed jobs so far.  The
benchmark reads it once, after all its passes, so the plateau that the
later passes reach sets its value, not the first pass.

Usage:
    python scripts/rss_passes.py WORKLOAD SEED [--passes N]
    (WORKLOAD is certify, witness or complete)
"""

from __future__ import annotations

import random
import resource
import sys

from harness import cli, job_list, parse_args

import run as bench  # bench/run.py, on sys.path once harness is imported
import spans


def rss_passes(workload: str, seed: int, passes: int):
    """Yield (pass, peak RSS in MB, failed jobs so far) after each pass."""
    with job_list(workload, seed, "rss-passes-") as jobs:
        runner = bench.Runner(cli, spans.Tracer())
        for i in range(passes):
            order = list(jobs)
            random.Random(i).shuffle(order)
            for job in order:
                runner.run(job)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            yield i, peak, len(runner.failures)


def main(argv=None) -> int:
    args = parse_args(__doc__, argv, passes=16)
    for i, peak, failures in rss_passes(args.workload, args.seed, args.passes):
        print(f"{i} {peak:.1f} {failures}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
