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

Usage:
    python scripts/report_digests.py WORKLOAD SEED
    (WORKLOAD is certify, witness or complete)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from nilscope import cli  # noqa: E402

import workloads  # noqa: E402


def digests(workload: str, seed: int):
    """Yield (job id, exit code, sha256 of the report or "-") for each job."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        os.chdir(tmp)
        try:
            for job in workloads.WORKLOADS[workload](seed, Path(".")):
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        rc = cli.main(job.argv)
                    except SystemExit as exc:  # argparse rejects flags this way
                        rc = exc.code
                out = Path(job.out)
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else "-"
                yield job.id, rc, digest
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for job_id, rc, digest in digests(args.workload, args.seed):
        line = f"{job_id} {rc} {digest}"
        print(line)
        total.update(f"{line}\n".encode())
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
