import itertools
import types

import numpy as np
import pytest

from nilscope import heisenberg as h
from nilscope import proximality as px
from nilscope import systems as sy

SMALL = px.SearchBudget(n_max=40, perturb_samples=8, perturb_radius=0.05)


def fiber_pair(offset=0.5):
    x = h.NilPoint(0.3, 0.4, 0.2)
    y = h.NilPoint(0.3, 0.4, (0.2 + offset) % 1.0)
    return x, y


class TestTrivialWitness:
    @pytest.mark.parametrize("search", [px.rp_search, px.rp2_search, px.rpds_search])
    def test_equal_points_give_zero(self, spec, search):
        p = h.NilPoint(0.3, 0.4, 0.5)
        record = search(spec, p, p, SMALL)
        assert record.eps_achieved < 1e-12
        assert (record.m, record.n) == (0, 0)
        assert record.x_prime == p and record.y_prime == p
        assert record.exhausted


class TestRP:
    def test_fiber_pair_witnessed(self, spec):
        x, y = fiber_pair(0.5)
        record = px.rp_search(spec, x, y)
        assert record.eps_achieved <= 0.05

    def test_monotone_in_n_max(self, spec):
        x, y = fiber_pair(0.3)
        eps = []
        for n_max in (50, 100, 200):
            budget = px.SearchBudget(n_max=n_max, perturb_samples=8, perturb_radius=0.05)
            eps.append(px.rp_search(spec, x, y, budget).eps_achieved)
        assert eps[1] <= eps[0] + 1e-15
        assert eps[2] <= eps[1] + 1e-15

    def test_monotone_in_perturb_samples(self, spec):
        x, y = fiber_pair(0.4)
        eps = []
        for k in (4, 8, 16):
            budget = px.SearchBudget(n_max=40, perturb_samples=k, perturb_radius=0.05)
            eps.append(px.rp_search(spec, x, y, budget).eps_achieved)
        assert eps[1] <= eps[0] + 1e-15
        assert eps[2] <= eps[1] + 1e-15

    def test_torus_mismatch_floor(self, spec):
        x = h.NilPoint(0.3, 0.4, 0.2)
        y = h.NilPoint(0.6, 0.4, 0.2)  # factor mismatch 0.3
        record = px.rp_search(spec, x, y, SMALL)
        assert record.eps_achieved >= 0.1

    def test_factor_bound_invariant(self, spec, rng):
        # eps >= torus mismatch of the projections minus 2 * radius
        # (projection is 1-Lipschitz for the gauge).
        for _ in range(10):
            x = h.NilPoint(*rng.random(3))
            y = h.NilPoint(*rng.random(3))
            record = px.rp_search(spec, x, y, SMALL)
            fx, fy = sy.System.factor(np.array([x.as_tuple(), y.as_tuple()]))
            mismatch = sy.RotationSystem.dist(fx, fy)
            assert record.eps_achieved >= mismatch - 2 * SMALL.perturb_radius - 1e-12

    def test_symmetry(self, spec, rng):
        for _ in range(5):
            x = h.NilPoint(*rng.random(3))
            y = h.NilPoint(*rng.random(3))
            a = px.rp_search(spec, x, y, SMALL)
            b = px.rp_search(spec, y, x, SMALL)
            assert abs(a.eps_achieved - b.eps_achieved) < 1e-12

    def test_determinism(self, spec):
        x, y = fiber_pair(0.25)
        a = px.rp_search(spec, x, y, SMALL, seed=3)
        b = px.rp_search(spec, x, y, SMALL, seed=3)
        assert a == b

    def test_seed_changes_samples_not_contract(self, spec):
        x, y = fiber_pair(0.25)
        a = px.rp_search(spec, x, y, SMALL, seed=0)
        b = px.rp_search(spec, x, y, SMALL, seed=1)
        assert a.eps_achieved > 0 and b.eps_achieved > 0

    @pytest.mark.parametrize("seed", [-1, 2**43])
    def test_seed_out_of_range_rejected(self, spec, seed):
        x, y = fiber_pair(0.25)
        with pytest.raises(ValueError, match="seed"):
            px.rp_search(spec, x, y, SMALL, seed=seed)

    def test_largest_seed_keeps_distinct_offsets(self, spec):
        budget = px.SearchBudget(n_max=10, perturb_samples=16)
        offs = px._offsets(sy.system_for(spec), budget, px.SEED_LIMIT - 1)
        assert len(np.unique(offs, axis=0)) == len(offs)

    def test_time_cap_marks_not_exhausted(self, spec, monkeypatch):
        # The clock jumps past any cap after its first reading (the
        # deadline), so the cap expires right after the first pair.
        readings = itertools.chain([0.0], itertools.repeat(1e9))
        monkeypatch.setattr(px, "time", types.SimpleNamespace(monotonic=lambda: next(readings)))
        x, y = fiber_pair(0.5)
        budget = px.SearchBudget(n_max=400, perturb_samples=64, perturb_radius=0.05, time_cap_ms=1)
        record = px.rp_search(spec, x, y, budget)
        assert not record.exhausted

    def test_point_type_must_match_system(self):
        rot = sy.SystemSpec(kind="torus_rotation")
        with pytest.raises(ValueError):
            px.rp_search(rot, h.NilPoint(0, 0, 0), h.NilPoint(0, 0, 0), SMALL)
        heis = sy.default_heisenberg()
        with pytest.raises(ValueError):
            px.rp_search(heis, sy.TorusPoint((0.1, 0.2)), sy.TorusPoint((0.3, 0.4)), SMALL)

    def test_rotation_distinct_pair_floor(self):
        # Rotations are equicontinuous: eps cannot drop below the torus
        # separation minus the perturbation allowance.
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        x = sy.TorusPoint((0.1, 0.6))
        y = sy.TorusPoint((0.45, 0.6))
        record = px.rp_search(rot, x, y, SMALL)
        d = sy.RotationSystem.dist(np.array(x.coords), np.array(y.coords))
        assert record.eps_achieved >= d - 2 * SMALL.perturb_radius - 1e-12


class TestRPShift:
    """RP has one time axis: its record reports m = 0 and the shift in n."""

    @pytest.mark.parametrize(
        "spec, x, y",
        [
            (sy.default_heisenberg(), *fiber_pair(0.5)),
            (sy.default_heisenberg(), h.NilPoint(0.3, 0.4, 0.2), h.NilPoint(0.6, 0.4, 0.2)),
            (sy.SystemSpec(kind="torus_rotation", dims=1), sy.TorusPoint((0.1,)), sy.TorusPoint((0.45,))),
            (sy.SystemSpec(kind="torus_rotation"), sy.TorusPoint((0.1, 0.6)), sy.TorusPoint((0.45, 0.2))),
        ],
        ids=["heisenberg-fibre", "heisenberg-mismatch", "torus1", "torus2"],
    )
    def test_m_is_zero_and_n_attains_eps(self, spec, x, y):
        record = px.rp_search(spec, x, y, SMALL)
        assert record.m == 0
        assert abs(record.n) <= SMALL.n_max
        # The objective at the reported shift is the reported eps.
        system = sy.system_for(spec)
        xp, yp = system.row(record.x_prime), system.row(record.y_prime)
        at_n = system.dist(system.orbit(xp, record.n), system.orbit(yp, record.n))
        base = max(system.dist(xp, system.row(x)), system.dist(yp, system.row(y)))
        assert max(float(base), float(at_n)) == record.eps_achieved


class TestRP2:
    def test_positive_floor_on_distinct_points(self, spec):
        x, y = fiber_pair(0.5)
        d0 = h.dist(x, y)
        budgets = [
            px.SearchBudget(n_max=n, perturb_samples=6, perturb_radius=0.03)
            for n in (25, 50, 100)
        ]
        floors = [px.rp2_search(spec, x, y, b).eps_achieved for b in budgets]
        assert floors[1] <= floors[0] + 1e-15
        assert floors[2] <= floors[1] + 1e-15
        assert min(floors) >= 0.1 * d0

    def test_rotation_isometry_floor(self, rng):
        # On a rotation every orbit distance equals the initial one, so
        # for separations above four perturbation radii the floor stays
        # at least half the torus distance.
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        for _ in range(5):
            x = sy.TorusPoint(tuple(rng.random(2)))
            y = sy.TorusPoint(tuple(rng.random(2)))
            d = sy.RotationSystem.dist(np.array(x.coords), np.array(y.coords))
            if d < 4 * SMALL.perturb_radius:
                continue
            record = px.rp2_search(rot, x, y, SMALL)
            assert record.eps_achieved >= 0.5 * d

    def test_heisenberg_factor_mismatch_floor(self, spec):
        x = h.NilPoint(0.1, 0.2, 0.3)
        y = h.NilPoint(0.5, 0.2, 0.3)
        record = px.rp2_search(spec, x, y, SMALL)
        fx, fy = sy.System.factor(np.array([x.as_tuple(), y.as_tuple()]))
        tor = sy.RotationSystem.dist(fx, fy)
        assert record.eps_achieved >= 0.5 * tor - SMALL.perturb_radius


class TestRPDS:
    def test_dominates_rp2_on_fiber_pairs(self, spec):
        # The strict ordering holds where witnesses are fine-scale; at
        # coarse scales only the quasi-triangle bound below is a theorem
        # (the gauge has no exact triangle inequality).
        for offset in (0.2, 0.35, 0.5):
            x, y = fiber_pair(offset)
            r2 = px.rp2_search(spec, x, y, SMALL)
            rs = px.rpds_search(spec, x, y, SMALL)
            assert rs.eps_achieved >= r2.eps_achieved - 1e-12

    def test_rp2_bounded_by_rpds_quasi_triangle(self, spec, rng):
        # d(a, b) <= d(a, y) + d(b, y) + d(a, y) d(b, y) for the
        # symmetrized gauge, so an RPDS witness at eps yields RP2-type
        # closeness at 2 eps + eps^2.
        for _ in range(8):
            x = h.NilPoint(*rng.random(3))
            y = h.NilPoint(*rng.random(3))
            r2 = px.rp2_search(spec, x, y, SMALL)
            rs = px.rpds_search(spec, x, y, SMALL)
            e = rs.eps_achieved
            assert r2.eps_achieved <= 2 * e + e * e + 1e-9

    def test_positive_floor(self, spec):
        x, y = fiber_pair(0.5)
        record = px.rpds_search(spec, x, y, SMALL)
        assert record.eps_achieved > 0.05


def brute_inner(system, xp, yp, yrow, N, relation):
    """A pair's inner minimum and its first minimal shifts, over the full grid."""
    ns = np.arange(-N, N + 1)
    span2 = np.arange(-2 * N, 2 * N + 1)
    if relation == "RP":
        d = system.dist(system.orbit(xp, ns), system.orbit(yp, ns))
        return float(d.min()), 0, min(ns[d == d.min()], key=lambda s: (abs(s), s))
    ox = system.orbit(xp, span2)
    oy = system.orbit(yp, span2)
    if relation == "RP2":
        f = system.dist(ox, oy)
    else:
        f = np.maximum(system.dist(ox, yrow), system.dist(oy, yrow))
    # Every cell of the (m, n) square: the m, n and m+n lookups, then
    # the first minimal cell in (|m| + |n|, m, n) order.
    M, Nn = np.meshgrid(ns, ns, indexing="ij")
    grid = np.maximum(np.maximum(f[M + 2 * N], f[Nn + 2 * N]), f[M + Nn + 2 * N])
    inner = float(grid.min())
    ties = zip(M[grid == inner], Nn[grid == inner])
    m, n = min(ties, key=lambda c: (abs(c[0]) + abs(c[1]), c[0], c[1]))
    return inner, m, n


def full_scan_record(spec, x, y, budget, relation):
    """The best record over every perturbation pair, each scanned in full."""
    system = sy.system_for(spec)
    offsets = px._offsets(system, budget, 0)
    xrow, yrow = system.row(x), system.row(y)
    xp = system.translate(offsets, xrow)
    yp = system.translate(offsets, yrow)
    ii, jj, base = px._pair_order(system.dist(xp, xrow), system.dist(yp, yrow))
    best = None
    for i, j, b in zip(ii, jj, base):
        inner, m, n = brute_inner(system, xp[i], yp[j], yrow, budget.n_max, relation)
        eps = max(float(b), inner)
        if best is None or eps < best[0]:
            best = (eps, m, n, i, j)
    eps, m, n, i, j = best
    return px.WitnessRecord(
        eps, int(m), int(n), system.point(xp[i]), system.point(yp[j]), relation, True
    )


def factor_skips(monkeypatch, search, spec, x, y, budget):
    """Run a search; return its record and every pair it visited before its break.

    Each visited pair (i, j) comes with the record it met, the best eps
    before it (the bound handed to the next evaluated pair, or the final
    record when no pair is evaluated after it), and whether the factor
    bound skipped it.
    """
    called, seen = {}, {}
    run = px._run_search

    def recording_run(*args):
        *head, objective = args
        seen["head"] = head

        def recording(i, j, bound):
            called[i, j] = bound
            return objective(i, j, bound)

        return run(*head, recording)

    with monkeypatch.context() as m:
        m.setattr(px, "_run_search", recording_run)
        record = search(spec, x, y, budget)
    system, x, y, xp, yp = seen["head"][:5]
    ii, jj, base = px._pair_order(system.dist(xp, system.row(x)), system.dist(yp, system.row(y)))
    before = []
    best = record.eps_achieved
    for i, j in reversed(list(zip(ii, jj))):
        best = called.get((i, j), best)
        before.append(best)
    visited = []
    for p, (i, j, b, best) in enumerate(zip(ii, jj, base, reversed(before))):
        if p and b >= best:
            break
        visited.append((i, j, best, (i, j) not in called))
    return record, system, xp, yp, visited


TORUS1 = sy.SystemSpec(kind="torus_rotation", dims=1)
TORUS2 = sy.SystemSpec(kind="torus_rotation")
SEARCHES = {"RP": px.rp_search, "RP2": px.rp2_search, "RPDS": px.rpds_search}


def orbit_rounding(k, n_max):
    """The factor bound's float margin at shifts |s| <= k n_max (see _factor_bound)."""
    return (k * n_max * max(sy.DEFAULT_ALPHA, sy.DEFAULT_BETA) + 4) * 2.0**-50


def make_point(spec, coords):
    if spec.kind == "heisenberg":
        return h.NilPoint(*coords)
    return sy.TorusPoint(tuple(coords[: spec.dims]))


class TestPruning:
    """The bound on the (m, n) grid never changes a search record."""

    @pytest.mark.parametrize("kind", ["random", "ties", "constant"])
    def test_bounded_grid_matches_full_grid(self, rng, kind):
        N = 12
        for _ in range(30):
            if kind == "random":
                f = rng.random(4 * N + 1)
            elif kind == "ties":
                f = rng.integers(0, 4, 4 * N + 1) / 4.0
            else:
                f = np.full(4 * N + 1, rng.random())
            # k = 1 is the RP shift n, k = 2 the RP2/RPDS times (m, n, m+n);
            # the table covers shifts [-kN, kN].
            for k in (1, 2):
                table = f[(2 - k) * N : (2 + k) * N + 1]
                full = px._pair_min(table, N, k)
                bounds = np.concatenate([f, [full[0] - 1e-3, 0.0, 2.0], rng.random(5)])
                for bound in bounds:
                    got = px._pair_min(table, N, k, float(bound))
                    assert got == (full if full[0] < bound else None)

    @pytest.mark.parametrize(
        "search, relation",
        [(px.rp2_search, "RP2"), (px.rpds_search, "RPDS"), (px.rp_search, "RP")],
    )
    @pytest.mark.parametrize("system", ["heisenberg", "torus"])
    def test_records_match_unpruned_scan(self, spec, monkeypatch, search, relation, system):
        if system == "heisenberg":
            x, y = h.NilPoint(0.1, 0.2, 0.3), h.NilPoint(0.5, 0.2, 0.7)
        else:
            spec = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
            x, y = sy.TorusPoint((0.1, 0.6)), sy.TorusPoint((0.5, 0.2))
        budget = px.SearchBudget(n_max=30, perturb_samples=6, perturb_radius=0.05)
        pruned = []
        run = px._run_search

        def counting_run(*args):
            *head, objective = args

            def counting(i, j, bound):
                found = objective(i, j, bound)
                pruned.append(found is None)
                return found

            return run(*head, counting)

        monkeypatch.setattr(px, "_run_search", counting_run)
        record = search(spec, x, y, budget)
        monkeypatch.setattr(px, "_run_search", run)
        assert record == full_scan_record(spec, x, y, budget, relation)
        assert any(pruned)

    @pytest.mark.parametrize("relation", ["RP", "RP2", "RPDS"])
    @pytest.mark.parametrize("system", ["heisenberg", "torus1", "torus2"])
    def test_factor_bound_skips_are_sound(self, spec, monkeypatch, rng, relation, system):
        # Every pair the factor bound skips has a brute-force inner minimum,
        # over the full grid, at or above the record it was skipped against.
        spec = {"heisenberg": spec, "torus1": TORUS1, "torus2": TORUS2}[system]
        # At half strength the RPDS bound only cuts once the orbits come close
        # to the midpoint of x' and y', which takes a longer horizon.
        n_max, samples = (150, 12) if relation == "RPDS" else (30, 8)
        budget = px.SearchBudget(n_max=n_max, perturb_samples=samples, perturb_radius=0.05)
        pairs = [
            ((0.3, 0.4, 0.2), (0.3, 0.4, 0.7)),  # fibre
            ((0.1, 0.2, 0.3), (0.4, 0.2, 0.3)),  # factor mismatch
            *((rng.random(3), rng.random(3)) for _ in range(3)),
        ]
        n_skipped = 0
        for cx, cy in pairs:
            x, y = make_point(spec, cx), make_point(spec, cy)
            _, sys_, xp, yp, visited = factor_skips(
                monkeypatch, SEARCHES[relation], spec, x, y, budget
            )
            for i, j, best, skipped in visited:
                if skipped:
                    inner = brute_inner(sys_, xp[i], yp[j], sys_.row(y), n_max, relation)[0]
                    assert inner >= best
                    n_skipped += 1
        assert n_skipped

    @pytest.mark.parametrize(
        "relation, n_max", [("RP", 3), ("RP2", 3), ("RP", 100_000), ("RP2", 200)]
    )
    def test_factor_bound_within_ulps_of_record(self, monkeypatch, rng, relation, n_max):
        # On the circle with y = x + 0.3, four samples at radius 0.06 give the
        # offsets 0, 0, -0.03 and 0.03.  The pairs (0, 2) and (3, 0) have the
        # same offset difference but other points, so whichever comes second
        # meets a record set by the first: its factor bound sits within the
        # rounding of that record, and so does its inner minimum, on either
        # side.  The rounding grows with n_max.  The skips must stay sound.
        budget = px.SearchBudget(n_max=n_max, perturb_samples=4, perturb_radius=0.06)
        margin = orbit_rounding(1 if relation == "RP" else 2, n_max)
        for c in rng.random(6):
            x, y = sy.TorusPoint((c,)), sy.TorusPoint(((c + 0.3) % 1.0,))
            _, sys_, xp, yp, visited = factor_skips(
                monkeypatch, SEARCHES[relation], TORUS1, x, y, budget
            )
            # Row 1 repeats row 0 (zero offset), so pairs through it repeat others.
            gaps = [
                float(sy.RotationSystem.dist(xp[i], yp[j])) - best
                for i, j, best, _ in visited[1:]
                if 1 not in (i, j)
            ]
            assert min(map(abs, gaps)) <= (8 * np.spacing(0.3) if n_max < 10 else margin)
            for i, j, best, skipped in visited:
                if skipped:
                    inner = brute_inner(sys_, xp[i], yp[j], sys_.row(y), n_max, relation)[0]
                    assert inner >= best


def pair_min_oracle(f, n_max, k):
    """Every cell of the (m, n) square in a literal double loop: (cost, |m| + |n|, m, n).

    The cost is the max of f at the cell's vertex shifts, n alone for k = 1
    (m = 0) and m, n, m+n for k = 2; the smallest key is the minimum with
    its tie-break.
    """
    off = k * n_max
    best = None
    for m in range(-n_max, n_max + 1) if k == 2 else [0]:
        for n in range(-n_max, n_max + 1):
            cost = max(f[s + off] for s in ([n] if k == 1 else [m, n, m + n]))
            key = (float(cost), abs(m) + abs(n), m, n)
            if best is None or key < best:
                best = key
    return best


class TestPairMinOracle:
    """_pair_min against a literal loop over every cell, at bounds around the minimum."""

    # 121 shifts per axis: a full kept set is read through Hankel blocks,
    # and a bound at a low quantile keeps few enough shifts to gather.
    N = 60

    def tables(self, rng, kind, size):
        for _ in range(3):
            if kind == "random":
                yield rng.random(size)
            elif kind == "quarter-steps":
                yield rng.integers(0, 4, size) / 4.0
            else:
                yield np.full(size, rng.random())

    @pytest.mark.parametrize("kind", ["random", "quarter-steps", "constant"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("chunk", [None, 3 * (2 * N + 1)], ids=["one-block", "row-blocks"])
    def test_matches_double_loop(self, rng, monkeypatch, kind, k, chunk):
        N = self.N
        if chunk is not None:
            monkeypatch.setattr(px, "_GRID_CHUNK", chunk)
        gathered = set()
        for f in self.tables(rng, kind, 2 * k * N + 1):
            cost, _, m, n = pair_min_oracle(f, N, k)
            head = f[(k - 1) * N : (k + 1) * N + 1]
            # Bounds that keep shifts on both sides of the gather/Hankel choice.
            few, many = np.sort(head)[[px._GATHER_MAX // 2, px._GATHER_MAX + 10]]
            for bound in (0.0, np.nextafter(cost, -np.inf), cost):
                assert px._pair_min(f, N, k, float(bound)) is None
            for bound in (np.nextafter(cost, np.inf), few, many, 2.0, np.inf):
                if bound > cost:
                    assert px._pair_min(f, N, k, float(bound)) == (cost, m, n)
                    gathered.add(np.count_nonzero(head < bound) <= px._GATHER_MAX)
        if k == 2 and kind != "constant":
            assert gathered == {True, False}


class TestPairOrder:
    def test_matches_the_lexsort_order_on_ties(self):
        # The stable sort of the flat costs against the three-key lexsort
        # (cost, i, j) that defines the order, on costs with many ties.
        gen = np.random.default_rng(7)
        for _ in range(2000):
            K = int(gen.integers(1, 17))
            bx, by = gen.integers(0, 4, (2, K)) / 4.0
            ii, jj = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
            ii, jj = ii.ravel(), jj.ravel()
            base = np.maximum(bx[ii], by[jj])
            order = np.lexsort((jj, ii, base))
            got = px._pair_order(bx, by)
            for a, b in zip(got, (ii[order], jj[order], base[order])):
                assert np.array_equal(a, b)


class TestRotationInfimum:
    """On a rotation every orbit distance is the initial one, so RP and RP2
    minimise max(d(x, x'), d(y, y'), d(x', y')) over the radius-r ball, which
    is at least max(d/3, d - 2r) for d = d(x, y) by the triangle inequality."""

    @pytest.mark.parametrize("search", [px.rp_search, px.rp2_search])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_floor_and_nonincreasing_excess(self, rng, search, dims):
        spec = sy.SystemSpec(kind="torus_rotation", dims=dims)
        slack = orbit_rounding(1 if search is px.rp_search else 2, 20)
        for _ in range(4):
            x = sy.TorusPoint(tuple(rng.random(dims)))
            y = sy.TorusPoint(tuple(rng.random(dims)))
            d = sy.RotationSystem.dist(np.array(x.coords), np.array(y.coords))
            for r in (0.01, 0.05, 0.2):
                floor = max(d / 3, d - 2 * r)
                excess = []
                for K in (4, 16, 64):
                    budget = px.SearchBudget(n_max=20, perturb_samples=K, perturb_radius=r)
                    excess.append(search(spec, x, y, budget).eps_achieved - floor)
                assert min(excess) >= -slack
                assert excess[2] <= excess[1] <= excess[0]


class TestWitnessToCube:
    def test_trivial_record_constant_cube(self, spec):
        p = h.NilPoint(0.3, 0.4, 0.5)
        record = px.rp2_search(spec, p, p, SMALL)
        oct_, residual = px.witness_to_cube(record, spec, p, p)
        assert residual < 1e-12
        assert all(h.dist(v, p) < 1e-12 for v in oct_.vertices)

    def test_residual_bounded_by_witness(self, spec, rng):
        for offset in (0.2, 0.4):
            x, y = fiber_pair(offset)
            record = px.rp2_search(spec, x, y, SMALL)
            oct_, residual = px.witness_to_cube(record, spec, x, y)
            assert residual <= 8 * record.eps_achieved + 1e-12

    def test_structure_matches_doubling_pattern(self, spec):
        x, y = fiber_pair(0.3)
        record = px.rp2_search(spec, x, y, SMALL)
        oct_, _ = px.witness_to_cube(record, spec, x, y)
        assert oct_.v0 == x and oct_.v1 == y
        assert oct_.v2 == oct_.v3 and oct_.v4 == oct_.v5 and oct_.v6 == oct_.v7

    def test_rejects_wrong_relation(self, spec):
        x, y = fiber_pair(0.2)
        record = px.rp_search(spec, x, y, SMALL)
        with pytest.raises(ValueError):
            px.witness_to_cube(record, spec)

    def test_rotation_witness_same_bound(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        x = sy.TorusPoint((0.15, 0.6))
        y = sy.TorusPoint((0.18, 0.63))
        record = px.rp2_search(rot, x, y, SMALL)
        oct_, residual = px.witness_to_cube(record, rot, x, y)
        assert residual <= 8 * record.eps_achieved + 1e-12
        assert all(isinstance(v, sy.TorusPoint) for v in oct_.vertices)


class TestBudgetValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            px.SearchBudget(n_max=0)
        with pytest.raises(ValueError):
            px.SearchBudget(perturb_samples=0)
        with pytest.raises(ValueError):
            px.SearchBudget(perturb_radius=0.0)
        with pytest.raises(ValueError):
            px.SearchBudget(time_cap_ms=0)

    def test_rejects_sizes_beyond_their_bounds(self):
        for samples in (1025, 1 << 20):
            with pytest.raises(ValueError, match="^perturb_samples must be <= 1024$"):
                px.SearchBudget(perturb_samples=samples)
        with pytest.raises(ValueError, match="^n_max must be <= 500000$"):
            px.SearchBudget(n_max=500_001)
        budget = px.SearchBudget(n_max=500_000, perturb_samples=1024)
        assert (budget.n_max, budget.perturb_samples) == (500_000, 1024)

    @pytest.mark.parametrize("radius", [np.inf, 1e300, 1.0 + 1e-9, np.nan])
    def test_rejects_radius_beyond_the_space(self, radius):
        with pytest.raises(ValueError, match="perturb_radius"):
            px.SearchBudget(perturb_radius=radius)
        assert px.SearchBudget(perturb_radius=1.0).perturb_radius == 1.0

    def test_offsets_prefix_nested(self, spec):
        system = sy.system_for(spec)
        o8 = px._offsets(system, px.SearchBudget(n_max=10, perturb_samples=8), seed=0)
        o16 = px._offsets(system, px.SearchBudget(n_max=10, perturb_samples=16), seed=0)
        assert np.array_equal(o16[:8], o8)

    def test_offsets_within_gauge_ball(self, spec):
        system = sy.system_for(spec)
        offs = px._offsets(system, px.SearchBudget(n_max=10, perturb_samples=64, perturb_radius=0.07), 0)
        for row in offs:
            assert h.sym_norm(h.GroupElement(*row)) <= 0.07 + 1e-12
