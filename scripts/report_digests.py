#!/usr/bin/env python3
"""Print the sha256 of every ``--out`` report of one benchmark workload.

The job list comes from ``bench/workloads.py`` (imported, not changed).
Each job runs once, in process, through ``nilscope.cli.main`` from the
``src/`` of this checkout, inside a temporary directory that is deleted
afterwards.  The inputs and reports are named relative to that directory,
so no path of the run reaches a report.  One line per job,

    job_id exit_code sha256

("-" when a job wrote no report), then ``total sha256`` over those lines.
Two checkouts that print the same total wrote byte-identical reports.
Given several seeds, the script prints these lines for each seed in
turn, as one run per seed would.

Usage:
    python scripts/report_digests.py WORKLOAD SEED [SEED ...]
    (WORKLOAD is certify, witness or complete)
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from harness import job_list, parse_args, run_quiet


def digests(workload: str, seed: int):
    """Yield (job id, exit code, sha256 of the report or "-") for each job."""
    with job_list(workload, seed, "report-digests-") as jobs:
        for job in jobs:
            rc = run_quiet(job)
            out = Path(job.out)
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else "-"
            yield job.id, rc, digest


def main(argv=None) -> int:
    args = parse_args(__doc__, argv, seeds=True)
    for seed in args.seed:
        total = hashlib.sha256()
        for job_id, rc, digest in digests(args.workload, seed):
            line = f"{job_id} {rc} {digest}"
            print(line)
            total.update(f"{line}\n".encode())
        print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
