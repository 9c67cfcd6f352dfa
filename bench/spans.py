"""Spans around calls into nilscope's layers, recorded from outside ``src/``.

A traced job replaces public names at the sites where one nilscope module
imports another (for example ``proximality.dist_arr`` or
``cubes.nil_dist``) with wrappers that record a span: its name, start and
end in ns, the span that was open when it started and the job it belongs
to.  The originals are put back after every traced job, so an untraced job
runs the unmodified code.  A site whose name no longer exists is listed
as missing, not an error, so the benchmark outlives refactors of ``src/``.

Spans stay in memory until the run ends.  ``layer_totals`` turns the
spans of one job into per-layer counts and self times; the self time of a
span is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np


def _out_size(args, kwargs, out) -> dict:
    return {"rows": int(np.size(out))}


def _out_rows(args, kwargs, out) -> dict:
    return {"rows": math.prod(np.shape(out)[:-1])}


def _shift_mask_elems(args, kwargs, out) -> dict:
    u, s = args[0], args[1]
    return {"elems": len(u.values) - abs(int(s))}


def _report_stats(args, kwargs, out) -> dict:
    width = max(out.k_hi - out.k_lo + 1, 0)
    return {
        "violations": len(out.violations),
        "hypotheses": out.hypothesis_count,
        "tuples": out.scanned * width,
    }


def _pped_stats(args, kwargs, out) -> dict:
    horizon = kwargs.get("horizon", args[2] if len(args) > 2 else None)
    cells = 0 if out.early_exit else (2 * int(horizon) + 1) ** 3
    return {"early_exit": int(out.early_exit), "grid_cells": cells}


def _search_stats(args, kwargs, out) -> dict:
    spec = args[0]
    budget = kwargs.get("budget", args[3] if len(args) > 3 else None)
    k = budget.perturb_samples
    return {"heisenberg": int(spec.kind == "heisenberg"), "pairs": k * k}


# (module, attribute, span name, counter).  A dotted attribute names a
# class attribute.  Several sites may share a span name when they reach
# the same kernel: cubes.dist_point is heisenberg.dist_arr against one
# fixed point.
SITES = (
    ("nilscope.cli", "build_parser", "cli.build_parser", None),
    ("nilscope.cli", "_load_config", "cli.load_config", None),
    ("nilscope.cli", "_load_sequence", "cli.load_sequence", None),
    ("nilscope.cli", "_load_points_file", "cli.load_points", None),
    ("nilscope.cli", "_load_pair", "cli.load_pair", None),
    ("nilscope.cli", "_emit", "cli.emit", None),
    ("nilscope.cli", "_atomic_write", "cli.atomic_write", None),
    ("nilscope.nilsequence", "SequenceSample.from_csv", "nilsequence.from_csv", None),
    ("nilscope.nilsequence", "generate", "nilsequence.generate", None),
    ("nilscope.nilsequence", "quadratic_phase", "nilsequence.generate", None),
    ("nilscope.regularity", "run_test", "regularity.run_test", _report_stats),
    ("nilscope.regularity", "shift_mask", "regularity.shift_mask", _shift_mask_elems),
    ("nilscope.regularity", "RegularityReport.to_dict", "regularity.to_dict", None),
    ("nilscope.cubes", "pped_search", "cubes.pped_search", _pped_stats),
    ("nilscope.cubes", "pped_complete", "cubes.pped_complete", None),
    ("nilscope.cubes", "dist_point", "heisenberg.dist_arr", _out_size),
    ("nilscope.cubes", "nil_dist", "heisenberg.dist", None),
    ("nilscope.cubes", "translate", "systems.translate", None),
    ("nilscope.cubes", "translate_arr", "systems.translate_arr", _out_rows),
    ("nilscope.cubes", "rotation_orbit", "systems.rotation_orbit", _out_rows),
    ("nilscope.proximality", "rp_search", "proximality.rp_search", _search_stats),
    ("nilscope.proximality", "rp2_search", "proximality.rp2_search", _search_stats),
    ("nilscope.proximality", "rpds_search", "proximality.rpds_search", _search_stats),
    ("nilscope.proximality", "dist_arr", "heisenberg.dist_arr", _out_size),
    ("nilscope.proximality", "translate_arr", "systems.translate_arr", _out_rows),
    ("nilscope.proximality", "rotation_orbit", "systems.rotation_orbit", _out_rows),
)

ROOT = "job"
_PAIR_SEARCHES = ("proximality.rp_search", "proximality.rp2_search")


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    job: str
    info: dict | None = None


@dataclass
class Tracer:
    """Records spans while installed; ``job`` labels the spans of one job."""

    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)
    _resolved: list[tuple[object, str, str, object]] | None = None
    job: str = ""

    def _sites(self):
        if self._resolved is None:
            self._resolved = []
            for module_name, attr, span_name, counter in SITES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or leaf not in vars(owner):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._resolved.append((owner, leaf, span_name, counter))
        return self._resolved

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.job)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.info = counter(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for owner, leaf, span_name, counter in self._sites():
            raw = vars(owner)[leaf]
            self._saved.append((owner, leaf, raw))
            if isinstance(raw, classmethod):
                bound = getattr(owner, leaf)
                setattr(owner, leaf, staticmethod(self._wrap(bound, span_name, counter)))
            else:
                setattr(owner, leaf, self._wrap(raw, span_name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def run(self, job: str, fn, *args, root: str = ROOT):
        """Call fn under a root span, with every site wrapped; spans carry ``job``."""
        self.job = job
        self.install()
        try:
            return self._wrap(fn, root, None)(*args)
        finally:
            self.uninstall()

    def totals_since(self, first: int) -> dict[str, float]:
        """``layer_totals`` of the spans recorded since index ``first``."""
        return layer_totals(self.spans[first:], first)

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.job, s.info] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": rows}, fh)


def layer_totals(spans: list[Span], base: int) -> dict[str, float]:
    """Per-layer sums for the spans of one job; ``base`` is the first span's index.

    Keys are ``<span>.calls``, ``<span>.self_ns`` and ``<span>.<counter>``,
    plus ``cubes.pped_search.grid_self_ns`` (self time of the searches that
    scanned the full grid), ``gauge_calls_in_search`` (heisenberg.dist_arr
    spans directly under a Heisenberg rp or rp2 search) and ``search_pairs``
    (K^2 of those searches).
    """
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= base:
            covered[s.parent - base] += s.end - s.start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    def pair_search(span):
        return span.name in _PAIR_SEARCHES and (span.info or {}).get("heisenberg")

    for s, child_ns in zip(spans, covered):
        self_ns = s.end - s.start - child_ns
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_ns", self_ns)
        for key, value in (s.info or {}).items():
            add(f"{s.name}.{key}", value)
        if s.name == "cubes.pped_search" and (s.info or {}).get("grid_cells"):
            add("cubes.pped_search.grid_self_ns", self_ns)
        if pair_search(s):
            add("search_pairs", s.info["pairs"])
        if s.name == "heisenberg.dist_arr" and s.parent >= base and pair_search(spans[s.parent - base]):
            add("gauge_calls_in_search", 1)
    return out
