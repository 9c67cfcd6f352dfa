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

import argparse
import os
import random
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from nilscope import cli  # noqa: E402

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def rss_passes(workload: str, seed: int, passes: int):
    """Yield (pass, peak RSS in MB, failed jobs so far) after each pass."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="rss-passes-") as tmp:
        os.chdir(tmp)
        try:
            jobs = workloads.WORKLOADS[workload](seed, Path("."))
            runner = bench.Runner(cli, spans.Tracer())
            for i in range(passes):
                order = list(jobs)
                random.Random(i).shuffle(order)
                for job in order:
                    runner.run(job)
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                yield i, peak, len(runner.failures)
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--passes", type=int, default=16)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    for i, peak, failures in rss_passes(args.workload, args.seed, args.passes):
        print(f"{i} {peak:.1f} {failures}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
