"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same tests by name.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nilscope import cli
from nilscope import cubes as cb
from nilscope import heisenberg as h
from nilscope import nilsequence as ns
from nilscope import proximality as px
from nilscope import regularity as rg
from nilscope import systems as sy

DATA = Path(__file__).parent / "data"


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_group_law_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    A, B, C = (rng.uniform(-10, 10, size=(100_000, 3)) for _ in range(3))

    assoc = np.abs(h.mul_arr(h.mul_arr(A, B), C) - h.mul_arr(A, h.mul_arr(B, C))).max()
    assert assoc < 1e-12

    inv_res = np.abs(h.mul_arr(A, h.inv_arr(A))).max()
    assert inv_res < 1e-12
    ident = np.abs(h.mul_arr(A, np.zeros(3)) - A).max()
    assert ident == 0.0

    # commutator: centrality exact, value matches the product form
    comm_z = A[:, 0] * B[:, 1] - A[:, 1] * B[:, 0]
    prod = h.mul_arr(h.mul_arr(A, B), h.mul_arr(h.inv_arr(A), h.inv_arr(B)))
    assert np.abs(prod[:, 2] - comm_z).max() < 1e-12
    assert np.abs(prod[:, :2]).max() < 1e-12
    k = h.commutator(h.GroupElement(*A[0]), h.GroupElement(*B[0]))
    assert k.x == 0.0 and k.y == 0.0

    G = rng.uniform(-10, 10, size=(10_000, 3))
    gammas = rng.integers(-3, 4, size=(10_000, 3)).astype(float)
    coset = h.dist_arr(h.reduce_arr(G), h.reduce_arr(h.mul_arr(G, gammas))).max()
    assert coset < 1e-9

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"assoc {assoc:.1e}, inverse {inv_res:.1e}, coset {coset:.1e}, {elapsed:.2f}s")


def test_criterion_02_orbit_oracle(spec):
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 10, 1000, 10_000, -1, -10, -1000, -10_000):
        p = h.reduce(h.IDENTITY)
        t = spec.translation if n > 0 else h.inv(spec.translation)
        for _ in range(abs(n)):
            p = h.reduce(h.mul(t, p.as_group()))
        worst = max(worst, h.dist(p, sy.system_for(spec).advance(h.reduce(h.IDENTITY), n)))
    assert worst < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(2, f"iterated-vs-closed-form max err {worst:.2e} over n up to 1e4, {elapsed:.2f}s")


def test_criterion_03_pgram_membership(spec):
    rng = np.random.default_rng(3)
    worst_member = 0.0
    for _ in range(10_000):
        base = h.NilPoint(*rng.random(3))
        m, n = (int(v) for v in rng.integers(-1000, 1001, 2))
        worst_member = max(worst_member, cb.pgram_residual(cb.sample_pgram(spec, base, m, n)))
    assert worst_member < 1e-9

    least_fail = math.inf
    for _ in range(10_000):
        base = h.NilPoint(*rng.random(3))
        m, n = (int(v) for v in rng.integers(-1000, 1001, 2))
        q = cb.sample_pgram(spec, base, m, n)
        off = 0.01 + 0.49 * float(rng.random())
        vid = int(rng.integers(0, 4))
        verts = list(q.vertices)
        v = verts[vid]
        if rng.random() < 0.5:
            verts[vid] = h.NilPoint((v.x + off) % 1.0, v.y, v.z)
        else:
            verts[vid] = h.NilPoint(v.x, (v.y + off) % 1.0, v.z)
        least_fail = min(least_fail, cb.pgram_residual(cb.Quad(*verts)))
    assert least_fail > 5e-3
    _report(3, f"10^4 members max {worst_member:.1e}; 10^4 perturbed min {least_fail:.2e}")


def test_criterion_04_completion(spec):
    rng = np.random.default_rng(4)
    worst_recovery = 0.0
    worst_spread = 0.0
    for _ in range(1000):
        base = h.NilPoint(*rng.random(3))
        m, n, p = (int(v) for v in rng.integers(-50, 51, 3))
        o = cb.sample_pped(spec, base, m, n, p)
        res = cb.pped_complete(spec, o.vertices[:7], horizon=60)
        worst_recovery = max(worst_recovery, h.dist(res.x7, o.v7))
        worst_spread = max(worst_spread, res.spread)
    assert worst_recovery < 1e-6
    assert worst_spread < 1e-4
    _report(4, f"10^3 completions: recovery {worst_recovery:.2e}, spread {worst_spread:.2e}")


def test_criterion_05_cube_symmetry_suite(spec):
    rng = np.random.default_rng(5)
    for _ in range(100):
        base = h.NilPoint(*rng.random(3))
        m, n, p = (int(v) for v in rng.integers(-300, 301, 3))
        o = cb.sample_pped(spec, base, m, n, p)
        for axis in (1, 2, 3):
            for side in (0, 1):
                assert cb.pgram_residual(cb.face(o, axis, side)) < 1e-9

    q = cb.sample_pgram(spec, h.NilPoint(*rng.random(3)), 123, -456)
    for pid in range(cb.n_square_perms()):
        assert cb.pgram_residual(cb.euclid_perm_quad(q, pid)) < 1e-9
    o = cb.sample_pped(spec, h.NilPoint(*rng.random(3)), 12, -7, 19)
    for pid in range(cb.n_cube_perms()):
        oo = cb.euclid_perm_oct(o, pid)
        for axis in (1, 2, 3):
            for side in (0, 1):
                assert cb.pgram_residual(cb.face(oo, axis, side)) < 1e-9

    x = h.NilPoint(*rng.random(3))
    a, b = h.NilPoint(*rng.random(3)), h.NilPoint(*rng.random(3))
    assert cb.pgram_residual(cb.Quad(x, x, x, x)) == 0.0
    assert cb.pgram_residual(cb.Quad(a, b, a, b)) == 0.0
    _report(5, "faces, 8+48 euclidean permutations, diagonal and (a,b,a,b) all exact")


def test_criterion_06_rp_fiber_witness(spec):
    rng = np.random.default_rng(6)
    doubled = px.SearchBudget(
        n_max=2 * px.DEFAULT_BUDGET.n_max,
        perturb_samples=px.DEFAULT_BUDGET.perturb_samples,
        perturb_radius=px.DEFAULT_BUDGET.perturb_radius,
    )
    worst_eps = 0.0
    for i in range(20):
        offset = 0.1 + 0.4 * i / 19
        x = h.NilPoint(*rng.random(3))
        y = h.NilPoint(x.x, x.y, (x.z + offset) % 1.0)
        rec = px.rp_search(spec, x, y)
        assert rec.eps_achieved <= 0.05
        rec2 = px.rp_search(spec, x, y, doubled)
        assert rec2.eps_achieved <= rec.eps_achieved + 1e-15
        worst_eps = max(worst_eps, rec.eps_achieved)

    least_mismatch_eps = math.inf
    for i in range(20):
        x = h.NilPoint(*rng.random(3))
        dx = 0.2 + 0.3 * float(rng.random())
        y = h.NilPoint((x.x + dx) % 1.0, x.y, x.z)
        rec = px.rp_search(spec, x, y)
        least_mismatch_eps = min(least_mismatch_eps, rec.eps_achieved)
    assert least_mismatch_eps >= 0.05
    _report(
        6,
        f"fiber eps max {worst_eps:.4f} <= 0.05 (nonincreasing at 2x n_max); "
        f"mismatch eps min {least_mismatch_eps:.3f} >= 0.05",
    )


def test_criterion_07_rp2_empirical_floor(spec):
    pinned = json.loads((DATA / "rp2_floors.json").read_text())
    ladder = pinned["n_max_ladder"]
    worst_ratio = math.inf
    worst_drift = 0.0
    for row in pinned["pairs"]:
        x = h.NilPoint(*row["x"])
        y = h.NilPoint(*row["y"])
        d0 = h.dist(x, y)
        floors = []
        for n_max, expected in zip(ladder, row["floors"]):
            budget = px.SearchBudget(
                n_max=n_max,
                perturb_samples=pinned["perturb_samples"],
                perturb_radius=pinned["perturb_radius"],
            )
            got = px.rp2_search(spec, x, y, budget).eps_achieved
            worst_drift = max(worst_drift, abs(got - expected))
            floors.append(got)
        assert floors[1] <= floors[0] + 1e-15 and floors[2] <= floors[1] + 1e-15
        assert min(floors) >= 0.1 * d0
        worst_ratio = min(worst_ratio, min(floors) / d0)
    assert worst_drift < 1e-9
    _report(
        7,
        f"20 pairs: floors reproduce pinned values to {worst_drift:.1e}; "
        f"worst floor/d0 = {worst_ratio:.3f} >= 0.1 across doubled budgets",
    )


def test_criterion_08_order2_positive_control(spec):
    t0 = time.monotonic()
    obs = ns.ObservableSpec(kind="vertical_theta", m_freq=1, j_trunc=6)
    u = ns.generate(spec, obs, 2000)
    cal = rg.calibrate(
        u, eps=0.3, M_grid=[5, 10, 25], delta_grid=[0.02, 0.05, 0.1], shift_max=60, order=2
    )
    elapsed = time.monotonic() - t0
    assert len(cal.report.violations) == 0
    assert cal.report.hypothesis_count >= 100
    assert not cal.report.vacuous
    assert elapsed < 60.0
    _report(
        8,
        f"(M={cal.M}, delta={cal.delta}): 0 violations, "
        f"hypothesis_count={cal.report.hypothesis_count}, {elapsed:.1f}s < 60s",
    )


def test_criterion_09_negative_controls():
    t0 = time.monotonic()
    u = ns.quadratic_phase(math.sqrt(2) - 1, 1000)
    rep1 = rg.run_test(
        u, rg.RegularityParams(order=1, eps=0.3, delta=0.3, M=1, shift_max=30)
    )
    assert len(rep1.violations) >= 1

    gen = np.random.default_rng(20260809)
    vals = gen.uniform(-1, 1, 601) + 1j * gen.uniform(-1, 1, 601)
    vals /= np.maximum(1.0, np.abs(vals))
    ur = ns.SequenceSample(values=vals, n_min=-300)
    rep2 = rg.run_test(
        ur, rg.RegularityParams(order=2, eps=0.2, delta=1.0, M=0, shift_max=8)
    )
    assert len(rep2.violations) >= 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(
        9,
        f"quadratic phase: {len(rep1.violations)} order-1 violations; "
        f"pseudorandom: {len(rep2.violations)} order-2 violations; {elapsed:.1f}s < 10s",
    )


def test_criterion_10_engine_equivalence():
    master = np.random.default_rng(10)
    for draw in range(100):
        gen = np.random.default_rng(int(master.integers(0, 2**63)))
        vals = gen.uniform(-1, 1, 401) + 1j * gen.uniform(-1, 1, 401)
        u = ns.SequenceSample(values=vals, n_min=-200)
        order = 1 + draw % 2
        shift_max = int(gen.integers(1, 5)) if order == 1 else int(gen.integers(1, 3))
        params = rg.RegularityParams(
            order=order,
            eps=float(gen.uniform(0.1, 0.9)),
            delta=float(gen.uniform(0.3, 1.6)),
            M=int(gen.integers(0, 3)),
            shift_max=shift_max,
        )
        fast = rg.run_test(u, params)
        slow = rg.naive_test(u, params)
        for name in ("k", "shifts", "gap"):
            got, want = getattr(fast.violations, name), getattr(slow.violations, name)
            assert np.array_equal(got, want), f"draw {draw}: violation {name} columns differ"
        assert fast.hypothesis_count == slow.hypothesis_count
    _report(10, "engine and naive oracle agree on 100 seeded draws at N=200")


def test_criterion_11_cli_determinism(tmp_path, spec):
    base = h.NilPoint(0.21, 0.34, 0.55)
    o = cb.sample_pped(spec, base, 9, -4, 17)
    seven = tmp_path / "seven.json"
    seven.write_text(json.dumps({"points": [list(p.as_tuple()) for p in o.vertices[:7]]}))
    seq = tmp_path / "seq.csv"
    assert cli.main(
        ["generate", "--observable", "vertical-theta", "--m-freq", "1", "--n", "400",
         "--out", str(seq)]
    ) == 0

    outputs = {}
    for workers in (1, 4):
        reg = tmp_path / f"reg{workers}.json"
        comp = tmp_path / f"comp{workers}.json"
        rp2 = tmp_path / f"rp2{workers}.json"
        assert cli.main(
            ["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
             "--delta", "0.05", "--M", "5", "--shift-max", "10",
             "--workers", str(workers), "--out", str(reg)]
        ) == 0
        assert cli.main(
            ["pped-complete", "--input", str(seven), "--horizon", "30",
             "--workers", str(workers), "--out", str(comp)]
        ) == 0
        assert cli.main(
            ["rp2-search", "--x", "0.3,0.4,0.2", "--y", "0.3,0.4,0.7",
             "--n-max", "50", "--perturb-samples", "8",
             "--workers", str(workers), "--out", str(rp2)]
        ) == 0
        outputs[workers] = (reg.read_bytes(), comp.read_bytes(), rp2.read_bytes())
    assert outputs[1] == outputs[4]
    _report(11, "regtest, pped-complete, rp2-search byte-identical at workers 1 and 4")
