"""The benchmark's workloads: seeded inputs, fixed job lists and output checks.

A job is one ``nilscope`` CLI invocation.  Each workload writes its inputs
from the seed, then returns its jobs in a fixed order; only the numbers
inside the input files change with the seed, never the job shapes, so the
work a job does stays comparable across seeds.  Every job has a check that
reads the job's report and returns None or the reason it failed.  The
checks use ``oracle`` only, never nilscope.

- ``certify``: ``regtest`` on five sequence families.  Mask-bound clean
  scans and violation-rich scans share the regularity engine, so a faster
  mask cannot hide a slower violation extraction or report.  Also the
  order-2 ``--calibrate`` job of the positive control (3x3 grid, N=2000,
  S=60).  Only ``regularity`` and ``cli`` work here.
- ``witness``: ``rp-search``, ``rp2-search`` and ``rpds-search``.  Fiber
  pairs are pruned after a few perturbation pairs; factor-mismatch pairs
  evaluate all K^2 pairs through batched ``heisenberg.dist_arr`` calls; the
  torus pairs run the same proximality driver without the gauge.
- ``complete``: ``pped-complete`` and ``pped-test`` on orbit octuples.
  ``cubes`` reaches the gauge through many short distance tables and
  scalar ``dist``/``translate`` calls; octuples with a displaced eighth
  vertex scan the full (2H+1)^3 grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

Check = Callable[[int, "dict | None"], "str | None"]

# The criterion-06 bound separating fiber pairs from factor-mismatch pairs.
RP_BOUND = 0.05
# Slack for comparing a reported distance with its recomputation.
CLOSE = 1e-9


@dataclass
class Job:
    id: str
    argv: list[str]
    out: str
    check: Check


def _argv(command: str, out: str, *flags) -> list[str]:
    return [command, *map(str, flags), "--workers", "1", "--out", out]


def _require(cond: bool, reason: str) -> str | None:
    return None if cond else reason


def _exit_ok(rc: int, payload, want_rc: int) -> str | None:
    if payload is None:
        return f"exit {rc}, no report"
    return _require(rc == want_rc, f"exit {rc}, want {want_rc}")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# regtest jobs: (id, family, N, order, shift_max, delta, M, eps).  N is the
# half-width of the sequence window.  The job median and the tail
# (the 11th slowest job) each fall inside a cluster of jobs of about the
# same cost, not in a gap between clusters, where one job's noise would
# decide them.
CLEAN = 0.05, 5  # delta, M of the mask-bound scans: nearly every hypothesis trivial
RICH = 0.3, 1  # delta, M of the violation-rich scans
REGTESTS = (
    ("o2-theta2000-s60", "theta", 2000, 2, 60, *CLEAN, 0.3),
    # About 85k violations and a 10 MB report: extraction and serialisation.
    ("o1-rot1000-s60-rich", "rot", 1000, 1, 60, *RICH, 0.3),
    # The tail cluster, about 0.3 s each: mask-bound order-2 scans and
    # violation-rich scans with 20k to 40k violations.
    ("o2-theta1000-s60", "theta", 1000, 2, 60, *CLEAN, 0.3),
    ("o2-quad1000-s60", "quad", 1000, 2, 60, *CLEAN, 0.3),
    ("o2-noise1000-s60", "noise", 1000, 2, 60, *CLEAN, 0.3),
    ("o2-dist1000-s60", "dist", 1000, 2, 60, *CLEAN, 0.3),
    ("o2-rot2d1000-s60", "rot2d", 1000, 2, 60, *CLEAN, 0.3),
    ("o1-rot1000-s28-rich", "rot", 1000, 1, 28, *RICH, 0.3),
    ("o1-rot1000-s30-rich", "rot", 1000, 1, 30, *RICH, 0.3),
    ("o1-rot1000-s32-rich", "rot", 1000, 1, 32, *RICH, 0.3),
    ("o1-dist1000-s28-rich", "dist", 1000, 1, 28, 0.2, 2, 0.3),
    ("o1-dist1000-s30-rich", "dist", 1000, 1, 30, 0.2, 2, 0.3),
    ("o2-noise300-s6-rich", "noise", 300, 2, 6, 0.8, 0, 0.3),
    ("o2-noise320-s6-rich", "noise", 320, 2, 6, 0.8, 0, 0.3),
) + tuple(
    # The median cluster: short order-1 scans of every family.
    (f"o1-{family}500-s{S}-d{delta}", family, 500, 1, S, delta, M, 0.3)
    for family in ("theta", "quad", "noise", "dist", "rot")
    for S in (28, 30)
    for delta, M in ((0.05, 5), (0.08, 4), (0.1, 3))
)
CALIBRATE = ("calibrate-theta2000-s60", "theta", 2000, 2, 60, (5, 10, 25), (0.02, 0.05, 0.1), 0.3)
# Tuples per job whose hypothesis and conclusion are re-evaluated directly.
SAMPLED_TUPLES = 64


def _sequence(family: str, N: int, rng: np.random.Generator, ns, sy, NilPoint):
    """One sequence of the family; the seed moves its parameters, not its size."""
    heis = sy.SystemSpec(
        kind="heisenberg",
        alpha=oracle.DEFAULT_ALPHA + 1e-3 * rng.uniform(-1, 1),
        beta=oracle.DEFAULT_BETA + 1e-3 * rng.uniform(-1, 1),
        gamma0=float(rng.random()),
    )
    if family == "theta":
        return ns.generate(heis, ns.ObservableSpec(kind="vertical_theta", m_freq=1), N).values
    if family == "dist":
        base = NilPoint(*rng.random(3))
        return ns.generate(heis, ns.ObservableSpec(kind="distance_to_base", base=base), N).values
    if family == "quad":
        return ns.quadratic_phase(0.3 + 0.2 * rng.random(), N).values
    if family in ("rot", "rot2d"):
        # The violation count of a rotation scan jumps with the rotation's
        # Diophantine behaviour at |s| <= S, so the seed moves the rotation
        # by at most 1e-6, which keeps every seed's job the same size.
        dims = 1 if family == "rot" else 2
        spec = sy.SystemSpec(
            kind="torus_rotation",
            alpha=oracle.DEFAULT_ALPHA + 1e-6 * rng.uniform(-1, 1),
            beta=oracle.DEFAULT_BETA + 1e-6 * rng.uniform(-1, 1),
            dims=dims,
        )
        obs = ns.ObservableSpec(kind="torus_character", k1=1, k2=dims - 1)
        return ns.generate(spec, obs, N).values
    if family == "noise":
        vals = rng.uniform(-1, 1, 2 * N + 1) + 1j * rng.uniform(-1, 1, 2 * N + 1)
        return vals / np.maximum(1.0, np.abs(vals))
    raise ValueError(family)


def _regtest_check(seq, order, S, eps, rng_seed, grid=None) -> Check:
    n_min, u = seq

    def check(rc, payload):
        if payload is None:
            return f"exit {rc}, no report"
        report = payload["report"]
        viols = report["violations"]
        want = 1 if viols else 0
        if rc != want:
            return f"exit {rc} with {len(viols)} violations"
        M, delta = payload["M"], payload["delta"]
        if grid is not None:
            tried = {(e["M"], e["delta"]) for e in payload["calibrate"]["entries"]}
            if tried != {(m, d) for m in grid[0] for d in grid[1]} or (M, delta) not in tried:
                return "calibration grid does not match the request"
        margin = oracle.regularity_margin(order, M, S)
        k_lo, k_hi = report["k_lo"], report["k_hi"]
        if (k_lo, k_hi) != (n_min + margin, n_min + len(u) - 1 - margin):
            return f"k range [{k_lo}, {k_hi}] is not the clipped window"
        if viols:
            k = np.array([v["k"] for v in viols])
            q = np.array([v["m"] + v["n"] + (v["p"] or 0) for v in viols])
            gap = np.array([v["gap"] for v in viols])
            expect = np.abs(u[k + q - n_min] - u[k - n_min]) - eps
            if not (np.all(expect >= 0) and np.allclose(gap, expect, rtol=0, atol=1e-12)):
                return "a reported gap does not match the input"
        keys = {(v["k"], v["m"], v["n"], v["p"]) for v in viols}
        rng = np.random.default_rng(rng_seed)
        picks = [viols[i] for i in rng.integers(0, len(viols), min(len(viols), SAMPLED_TUPLES))]
        tuples = [(v["k"], v["m"], v["n"], v["p"]) for v in picks]
        for _ in range(SAMPLED_TUPLES):
            m, n = (int(s) for s in rng.integers(-S, S + 1, 2))
            p = int(rng.integers(-S, S + 1)) if order == 2 else None
            tuples.append((int(rng.integers(k_lo, k_hi + 1)), m, n, p))
        for k, m, n, p in tuples:
            hyp = all(
                oracle.condition_holds(u, n_min, k, s, M, delta)
                for s in oracle.hypothesis_shifts(order, m, n, p)
            )
            q = m + n + (p or 0)
            fails = abs(u[k + q - n_min] - u[k - n_min]) >= eps
            if ((k, m, n, p) in keys) != (hyp and fails):
                return f"tuple k={k} m={m} n={n} p={p} misreported"
        return None

    return check


def certify(seed: int, root: Path):
    from nilscope import nilsequence as ns, systems as sy
    from nilscope.heisenberg import NilPoint

    rng = np.random.default_rng([seed, 1])
    seqs = {}
    for family, N in sorted({(job[1], job[2]) for job in REGTESTS + (CALIBRATE,)}):
        path = root / f"{family}{N}.csv"
        oracle.write_sequence_csv(path, -N, _sequence(family, N, rng, ns, sy, NilPoint))
        seqs[family, N] = path, oracle.read_sequence_csv(path)

    jobs = []
    for i, (jid, family, N, order, S, delta, M, eps) in enumerate(REGTESTS):
        path, seq = seqs[family, N]
        out = str(root / f"{jid}.json")
        argv = _argv(
            "regtest", out, "--input", path, "--order", order, "--eps", eps,
            "--delta", delta, "--M", M, "--shift-max", S,
        )
        jobs.append(Job(jid, argv, out, _regtest_check(seq, order, S, eps, [seed, i])))
    jid, family, N, order, S, M_grid, delta_grid, eps = CALIBRATE
    path, seq = seqs[family, N]
    out = str(root / f"{jid}.json")
    argv = _argv(
        "regtest", out, "--input", path, "--order", order, "--eps", eps,
        "--calibrate", "--M-grid", ",".join(map(str, M_grid)),
        "--delta-grid", ",".join(map(str, delta_grid)), "--shift-max", S,
    )
    grid = (M_grid, delta_grid)
    jobs.append(Job(jid, argv, out, _regtest_check(seq, order, S, eps, [seed, 99], grid)))
    return jobs


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

RP2_LADDER = (25, 50, 100)
RP2_LADDER_BUDGET = ("--perturb-samples", 6, "--perturb-radius", 0.03)


def _point_arg(p) -> str:
    return ",".join(repr(float(c)) for c in p)


def _search_check(system, relation, x, y, within=None, ladder=None) -> Check:
    """Check a proximality record by recomputing its objective from the witness.

    ``within`` is (low, high) bounds on eps_achieved; ``ladder`` is a dict
    shared by the rungs of one pair, n_max -> eps, which must not increase
    as n_max grows.
    """

    def check(rc, payload):
        bad = _exit_ok(rc, payload, 0)
        if bad:
            return bad
        if not payload["exhausted"]:
            return "search cut short (exhausted: false)"
        if payload["relation"] != relation:
            return f"relation {payload['relation']}"
        eps = payload["eps_achieved"]
        n_max = payload["budget"]["n_max"]
        m, n = payload["m"], payload["n"]
        if max(abs(m), abs(n)) > n_max:
            return f"witness shift ({m}, {n}) outside n_max {n_max}"
        got = oracle.witness_eps(system, relation, x, y, payload["x_prime"], payload["y_prime"], m, n)
        if abs(got - eps) > CLOSE:
            return f"eps_achieved {eps} but the witness gives {got}"
        if within is not None and not within[0] <= eps <= within[1]:
            return f"eps_achieved {eps} outside [{within[0]}, {within[1]}]"
        if ladder is not None:
            ladder[n_max] = eps
            rungs = sorted(ladder.items())
            for (small, low), (big, high) in zip(rungs, rungs[1:]):
                if high > low + 1e-15:
                    return f"floor rose from {low} at n_max {small} to {high} at n_max {big}"
        return None

    return check


def witness(seed: int, root: Path):
    rng = np.random.default_rng([seed, 2])
    nil = oracle.NilSystem()
    torus = oracle.TorusSystem()
    jobs = []

    def nil_point():
        # An orbit point of a random base: T^n b with the exact closed form.
        return nil.orbit(tuple(rng.random(3)), int(rng.integers(-500, 501)))

    def add(jid, command, system, relation, x, y, flags=(), **kw):
        out = str(root / f"{jid}.json")
        extra = ("--system", "torus-rotation") if system is torus else ()
        argv = _argv(command, out, "--x", _point_arg(x), "--y", _point_arg(y), *extra, *flags)
        jobs.append(Job(jid, argv, out, _search_check(system, relation, x, y, **kw)))

    # Fiber pairs and torus rp pairs make the median cluster; the nine torus
    # rp2 jobs make the tail cluster.
    for i in range(40):
        x = nil_point()
        y = (x[0], x[1], (x[2] + rng.uniform(0.1, 0.5)) % 1.0)
        add(f"rp-fiber-{i}", "rp-search", nil, "RP", x, y, within=(0.0, RP_BOUND))
    for i in range(3):
        x = nil_point()
        y = ((x[0] + rng.uniform(0.2, 0.5)) % 1.0, x[1], x[2])
        add(f"rp-mismatch-{i}", "rp-search", nil, "RP", x, y, within=(RP_BOUND, math.inf))
    for i in range(4):
        x, y = nil_point(), nil_point()
        while nil.dist(x, y) <= RP_BOUND:
            y = nil_point()
        ladder: dict[int, float] = {}
        for n_max in RP2_LADDER:
            flags = ("--n-max", n_max, *RP2_LADDER_BUDGET)
            add(f"rp2-ladder-{i}-n{n_max}", "rp2-search", nil, "RP2", x, y, flags, ladder=ladder)
    x, y = nil_point(), nil_point()
    add("rp2-default", "rp2-search", nil, "RP2", x, y)
    for i, flags in enumerate(((),) * 2 + (("--n-max", 100, "--perturb-samples", 8),) * 2):
        x, y = nil_point(), nil_point()
        add(f"rpds-{i}", "rpds-search", nil, "RPDS", x, y, flags)
    for i in range(6):
        x, y = tuple(rng.random(2)), tuple(rng.random(2))
        add(f"torus-rp-{i}", "rp-search", torus, "RP", x, y)
    for i in range(9):
        # Pairs at sup distance 0.4: a close pair would end its search after a
        # few perturbation pairs and fall out of the tail cluster.
        x = tuple(rng.random(2))
        y = oracle.torus_orbit((0.4 * rng.choice((-1, 1)), rng.uniform(-0.4, 0.4)), x, 1)
        add(f"torus-rp2-{i}", "rp2-search", torus, "RP2", x, y, ("--n-max", 100))
    for i in range(4):
        x, y = tuple(rng.random(2)), tuple(rng.random(2))
        add(f"torus-rpds-{i}", "rpds-search", torus, "RPDS", x, y, ("--n-max", 100))
    return jobs


# ---------------------------------------------------------------------------
# complete
# ---------------------------------------------------------------------------

RECOVERY_TOL = 1e-6  # criterion 04: x7 within this gauge distance of the true vertex


def _octuple(system, rng, reach: int):
    base = tuple(rng.random(3))
    mnp = tuple(int(v) for v in rng.integers(-reach, reach + 1, 3))
    verts = [system.orbit(base, (v & 1) * mnp[0] + ((v >> 1) & 1) * mnp[1] + (v >> 2) * mnp[2])
             for v in range(8)]
    return verts


def _write_points(path: Path, points) -> None:
    path.write_text(json.dumps({"points": [list(p) for p in points]}))


def _witness_residual(system, verts, payload, upto: int) -> float:
    w = payload["witness"]
    targets = {v: verts[v] for v in range(1, upto)}
    return oracle.pped_objective(system, verts[0], targets, (w["m"], w["n"], w["p"]))


def _complete_check(system, verts) -> Check:
    def check(rc, payload):
        bad = _exit_ok(rc, payload, 0)
        if bad:
            return bad
        if payload["status"] != "ok":
            return f"status {payload['status']}"
        miss = system.dist(payload["x7"], verts[7])
        if not miss <= RECOVERY_TOL:
            return f"x7 misses the true vertex by {miss}"
        got = _witness_residual(system, verts, payload, 7)
        return _require(abs(got - payload["residual"]) <= CLOSE, "residual does not match witness")

    return check


def _pped_test_check(system, verts, member: bool) -> Check:
    def check(rc, payload):
        bad = _exit_ok(rc, payload, 0 if member else 1)
        if bad:
            return bad
        if payload["below_tol"] != member:
            return f"below_tol {payload['below_tol']} on a {'member' if member else 'non-member'}"
        if not member and payload["early_exit"]:
            return "early exit without a witness"
        got = _witness_residual(system, verts, payload, 8)
        return _require(abs(got - payload["residual"]) <= CLOSE, "residual does not match witness")

    return check


def complete(seed: int, root: Path):
    rng = np.random.default_rng([seed, 3])
    nil = oracle.NilSystem()
    jobs = []

    def add(jid, command, points, check, horizon):
        inp = root / f"{jid}.in.json"
        _write_points(inp, points)
        out = str(root / f"{jid}.json")
        jobs.append(Job(jid, _argv(command, out, "--input", inp, "--horizon", horizon), out, check))

    for i in range(150):
        verts = _octuple(nil, rng, 50)
        add(f"complete-h60-{i}", "pped-complete", verts[:7], _complete_check(nil, verts), 60)
    for i in range(40):
        verts = _octuple(nil, rng, 200)
        add(f"test-h200-member-{i}", "pped-test", verts, _pped_test_check(nil, verts, True), 200)
    # The sixteen H=60 scans make the tail cluster.
    for i, horizon in enumerate((60,) * 16 + (200,) * 2):
        verts = _octuple(nil, rng, 50)
        x, y, z = verts[7]
        verts[7] = (x, y, (z + rng.uniform(0.25, 0.5)) % 1.0)
        check = _pped_test_check(nil, verts, False)
        add(f"test-h{horizon}-displaced-{i}", "pped-test", verts, check, horizon)
    return jobs


WORKLOADS = {"certify": certify, "witness": witness, "complete": complete}
