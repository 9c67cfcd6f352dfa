"""In-process runs of one benchmark workload's job list, for the scripts here.

Importing this module puts the ``src/`` and ``bench/`` of this checkout
first on ``sys.path``, so ``cli`` is the ``nilscope.cli`` of this checkout
and ``workloads`` is ``bench/workloads.py`` (imported, not changed).
``job_list`` writes a workload's inputs into a temporary directory under
the checkout's ``.bench_work/``, where ``bench/run.py`` works too, so the
reports go to the same file system as in a benchmark run; the directory
is the working directory while the jobs run and is deleted afterwards;
the inputs and reports are named relative to it, so no path of the run
reaches a report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from nilscope import cli  # noqa: E402

import workloads  # noqa: E402


def parse_args(doc: str, argv, passes: int | None = None, seeds: bool = False,
               other: bool = False):
    """WORKLOAD SEED (with ``seeds``, one or more SEEDs, as the list ``seed``), and
    ``--passes N`` (at least 1) when ``passes`` gives its default; with ``other``,
    a first argument OTHER_CHECKOUT, as the ``Path`` ``other``.  The first
    paragraph of ``doc`` describes the script."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    if other:
        parser.add_argument("other", type=Path, metavar="OTHER_CHECKOUT")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int, nargs="+" if seeds else None)
    if passes is not None:
        parser.add_argument("--passes", type=int, default=passes)
    args = parser.parse_args(argv)
    if passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    return args


@contextlib.contextmanager
def job_list(workload: str, seed: int, prefix: str):
    """The jobs of one workload at one seed, run from a temporary directory
    under ``.bench_work/``."""
    cwd = os.getcwd()
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=prefix, dir=work) as tmp:
        os.chdir(tmp)
        try:
            yield workloads.WORKLOADS[workload](seed, Path("."))
        finally:
            os.chdir(cwd)


def run_quiet(job):
    """Exit code of one job through ``cli.main``, with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(job.argv)
        except SystemExit as exc:  # argparse rejects flags this way
            return exc.code
