import itertools

import numpy as np
import pytest

from nilscope import cubes as cb
from nilscope import heisenberg as h
from nilscope import systems as sy


def random_point(rng):
    return h.NilPoint(*rng.random(3))


class TestSampling:
    def test_zero_shifts_give_diagonal(self, spec, rng):
        x = random_point(rng)
        q = cb.sample_pgram(spec, x, 0, 0)
        assert q.vertices == (x, x, x, x)
        o = cb.sample_pped(spec, x, 0, 0, 0)
        assert o.vertices == (x,) * 8

    def test_n_zero_gives_ab_pattern(self, spec, rng):
        x = random_point(rng)
        q = cb.sample_pgram(spec, x, 3, 0)
        tx = sy.system_for(spec).advance(x, 3)
        assert q.vertices == (x, tx, x, tx)
        assert cb.pgram_residual(q) == 0.0

    def test_p_zero_duplicates_quad(self, spec, rng):
        x = random_point(rng)
        o = cb.sample_pped(spec, x, 5, -2, 0)
        q = cb.sample_pgram(spec, x, 5, -2)
        assert o.vertices == q.vertices + q.vertices

    def test_sampled_quads_pass(self, spec, rng):
        for _ in range(300):
            m, n = (int(v) for v in rng.integers(-1000, 1001, 2))
            q = cb.sample_pgram(spec, random_point(rng), m, n)
            assert cb.pgram_residual(q) < 1e-9

    def test_faces_of_sampled_oct_are_sampled_quads(self, spec, rng):
        x = random_point(rng)
        m, n, p = 7, -3, 11
        o = cb.sample_pped(spec, x, m, n, p)
        assert cb.face(o, 1, 0).vertices == cb.sample_pgram(spec, x, m, n).vertices
        assert cb.face(o, 2, 0).vertices == cb.sample_pgram(spec, x, m, p).vertices
        assert cb.face(o, 3, 0).vertices == cb.sample_pgram(spec, x, n, p).vertices


class TestVertexShifts:
    def test_square(self):
        assert cb.vertex_shifts((3, -5)) == [0, 3, -5, -2]

    def test_cube_is_sampling_order(self):
        m, n, p = 7, -3, 11
        assert cb.vertex_shifts((m, n, p)) == [0, m, n, m + n, p, m + p, n + p, m + n + p]

    def test_broadcast_arrays(self):
        a = np.arange(3)[:, None]
        b = np.array([10, 20])[None, :]
        shifts = cb.vertex_shifts((a, b))
        assert shifts[0] == 0
        np.testing.assert_array_equal(shifts[1], a)
        np.testing.assert_array_equal(shifts[2], b)
        np.testing.assert_array_equal(shifts[3], [[10, 20], [11, 21], [12, 22]])


class TestPgramResidual:
    def test_exact_flat_parallelogram(self):
        quad = cb.Quad(
            sy.TorusPoint((0.0, 0.0)),
            sy.TorusPoint((0.3, 0.0)),
            sy.TorusPoint((0.0, 0.4)),
            sy.TorusPoint((0.3, 0.4)),
        )
        assert cb.pgram_residual(quad) == 0.0

    def test_diagonal_exact(self, rng):
        x = random_point(rng)
        assert cb.pgram_residual(cb.Quad(x, x, x, x)) == 0.0

    def test_ab_pattern_exact(self, rng):
        a, b = random_point(rng), random_point(rng)
        assert cb.pgram_residual(cb.Quad(a, b, a, b)) == 0.0

    def test_swap_middle_preserves_membership(self, spec, rng):
        q = cb.sample_pgram(spec, random_point(rng), 17, -40)
        swapped = cb.Quad(q.v0, q.v2, q.v1, q.v3)
        assert cb.pgram_residual(swapped) < 1e-9

    def test_perturbed_vertex_fails(self, spec, rng):
        for _ in range(100):
            q = cb.sample_pgram(spec, random_point(rng), int(rng.integers(-500, 501)), 7)
            off = 0.01 + 0.48 * float(rng.random())
            bad = h.NilPoint((q.v2.x + off) % 1.0, q.v2.y, q.v2.z)
            assert cb.pgram_residual(cb.Quad(q.v0, q.v1, bad, q.v3)) > 5e-3


class TestFaces:
    def test_bottom_face_indices(self, spec, rng):
        o = cb.sample_pped(spec, random_point(rng), 1, 2, 3)
        assert cb.face(o, 1, 0).vertices == o.vertices[:4]
        assert cb.face(o, 3, 1).vertices == (o.v1, o.v3, o.v5, o.v7)

    def test_all_faces_pass_for_sampled(self, spec, rng):
        for _ in range(50):
            mnp = tuple(int(v) for v in rng.integers(-200, 201, 3))
            o = cb.sample_pped(spec, random_point(rng), *mnp)
            for axis in (1, 2, 3):
                for side in (0, 1):
                    assert cb.pgram_residual(cb.face(o, axis, side)) < 1e-9

    def test_invalid_face_rejected(self, spec, rng):
        o = cb.sample_pped(spec, random_point(rng), 1, 1, 1)
        with pytest.raises(ValueError):
            cb.face(o, 0, 0)
        with pytest.raises(ValueError):
            cb.face(o, 1, 2)


class TestEuclidPerms:
    def test_identity(self, spec, rng):
        q = cb.sample_pgram(spec, random_point(rng), 4, 9)
        assert cb.euclid_perm_quad(q, 0) == q
        o = cb.sample_pped(spec, random_point(rng), 4, 9, -2)
        assert cb.euclid_perm_oct(o, 0) == o

    def test_counts(self):
        assert cb.n_square_perms() == 8
        assert cb.n_cube_perms() == 48

    def test_out_of_range_ids(self, spec, rng):
        q = cb.sample_pgram(spec, random_point(rng), 1, 1)
        with pytest.raises(ValueError):
            cb.euclid_perm_quad(q, 8)
        o = cb.sample_pped(spec, random_point(rng), 1, 1, 1)
        with pytest.raises(ValueError):
            cb.euclid_perm_oct(o, 48)
        with pytest.raises(ValueError):
            cb.euclid_perm_oct(o, -1)

    def test_reflection_is_shifted_negated_sample(self, spec, rng):
        # Reflecting the m-axis maps the sample at (m, n) to the sample at
        # (-m, n) from the shifted base T^m x.
        x = random_point(rng)
        m, n = 23, -11
        q = cb.sample_pgram(spec, x, m, n)
        reflected = cb.euclid_perm_quad(q, 1)  # sigma=id, reflect axis 1
        expected = cb.sample_pgram(spec, sy.system_for(spec).advance(x, m), -m, n)
        for u, v in zip(reflected.vertices, expected.vertices):
            assert h.dist(u, v) < 1e-9
        assert cb.pgram_residual(reflected) < 1e-9

    def test_all_square_perms_preserve_membership(self, spec, rng):
        q = cb.sample_pgram(spec, random_point(rng), 31, -17)
        for pid in range(cb.n_square_perms()):
            assert cb.pgram_residual(cb.euclid_perm_quad(q, pid)) < 1e-9

    def test_axis_swap_preserves_pped_residual(self, spec, rng):
        x = random_point(rng)
        o = cb.sample_pped(spec, x, 6, -9, 13)
        # sigma swapping the first two axes is the third permutation block
        swapped = cb.euclid_perm_oct(o, 2 * 8)
        r = cb.pped_search(spec, swapped, horizon=20).residual
        assert r < 1e-9

    def test_all_cube_perms_preserve_face_membership(self, spec, rng):
        o = cb.sample_pped(spec, random_point(rng), 6, -9, 13)
        for pid in range(cb.n_cube_perms()):
            oo = cb.euclid_perm_oct(o, pid)
            for axis in (1, 2, 3):
                for side in (0, 1):
                    assert cb.pgram_residual(cb.face(oo, axis, side)) < 1e-9


class TestPpedResidual:
    def test_sampled_oct_in_range(self, spec, rng):
        for _ in range(10):
            mnp = tuple(int(v) for v in rng.integers(-15, 16, 3))
            o = cb.sample_pped(spec, random_point(rng), *mnp)
            w = cb.pped_search(spec, o, horizon=15)
            assert w.residual < 1e-9
            assert (w.m, w.n, w.p) == mnp or w.residual < 1e-9

    def test_constant_oct(self, spec, rng):
        x = random_point(rng)
        o = cb.Oct(*(x,) * 8)
        w = cb.pped_search(spec, o, horizon=5)
        assert w.residual < 1e-12
        assert (w.m, w.n, w.p) == (0, 0, 0)

    def test_duplicated_quad_passes(self, spec, rng):
        q = cb.sample_pgram(spec, random_point(rng), 9, -14)
        o = cb.Oct(*q.vertices, *q.vertices)
        assert cb.pped_search(spec, o, horizon=15).residual < 1e-6

    def test_central_perturbation_floor(self, spec):
        # Pinned by the first oracle run at horizon 50 with the default
        # system: central offset 0.4 on v7 leaves a floor above 0.1.
        base = h.NilPoint(0.21, 0.34, 0.55)
        o = cb.sample_pped(spec, base, 9, -4, 17)
        bad = h.NilPoint(o.v7.x, o.v7.y, (o.v7.z + 0.4) % 1.0)
        w = cb.pped_search(spec, cb.Oct(*o.vertices[:7], bad), horizon=50)
        assert w.residual >= 0.1
        assert not w.early_exit

    def test_necessary_condition_faces(self, spec, rng):
        # Octs certified at 1e-6 have every face parallelogram within 1e-3.
        for _ in range(20):
            mnp = tuple(int(v) for v in rng.integers(-30, 31, 3))
            o = cb.sample_pped(spec, random_point(rng), *mnp)
            if cb.pped_search(spec, o, horizon=30).residual < 1e-6:
                for axis in (1, 2, 3):
                    for side in (0, 1):
                        assert cb.pgram_residual(cb.face(o, axis, side)) < 1e-3

    def test_horizon_validation(self, spec, rng):
        o = cb.sample_pped(spec, random_point(rng), 1, 1, 1)
        with pytest.raises(ValueError):
            cb.pped_search(spec, o, horizon=0)

    def test_sampled_transitivity(self, spec, rng):
        # Gluing two sampled parallelepipeds along a common face stays
        # witness-checkable at the doubled horizon.
        H = 25
        system = sy.system_for(spec)
        for _ in range(10):
            x = random_point(rng)
            m, n = (int(v) for v in rng.integers(-H, H + 1, 2))
            p, q = (int(v) for v in rng.integers(-H // 2, H // 2 + 1, 2))
            u = cb.sample_pgram(spec, x, m, n)
            v = cb.Quad(*(system.advance(pt, p) for pt in u.vertices))
            w = cb.Quad(*(system.advance(pt, q) for pt in v.vertices))
            r_uv = cb.pped_search(spec, cb.Oct(*u.vertices, *v.vertices), horizon=H).residual
            r_vw = cb.pped_search(spec, cb.Oct(*v.vertices, *w.vertices), horizon=H).residual
            r_uw = cb.pped_search(spec, cb.Oct(*u.vertices, *w.vertices), horizon=2 * H).residual
            # 10x contract from sampled inputs, with a tiny absolute floor
            # guarding the all-machine-epsilon regime.
            assert r_uw < max(10 * max(r_uv, r_vw), 5e-13)


class TestSearchPaths:
    """The candidate and grid paths of the witness search against a brute force."""

    H = 6

    @pytest.fixture(params=["member", "displaced"])
    def octuple(self, request, spec):
        o = cb.sample_pped(spec, h.NilPoint(0.21, 0.34, 0.55), 2, -3, 4)
        if request.param == "member":
            return o
        # Central offsets on v6 and v7, so both target sets see one.
        v6, v7 = (h.NilPoint(v.x, v.y, (v.z + dz) % 1.0) for v, dz in ((o.v6, 0.3), (o.v7, 0.4)))
        return cb.Oct(*o.vertices[:6], v6, v7)

    @pytest.fixture(params=[7, 6], ids=["pped_search", "pped_complete"])
    def tables(self, request, spec, octuple):
        targets = {v: octuple.vertices[v] for v in range(1, request.param + 1)}
        return cb._Tables(sy.system_for(spec), octuple.v0, targets, self.H)

    def lookups(self, tables):
        """Every (m, n, p) in lexicographic order with its table lookups."""
        out = {}
        for m, n, p in itertools.product(range(-self.H, self.H + 1), repeat=3):
            shifts = {1: m, 2: n, 3: m + n, 4: p, 5: m + p, 6: n + p, 7: m + n + p}
            out[(m, n, p)] = [D[shifts[v] + off] for v, (off, D) in tables.items()]
        return out

    def thresholds(self, lookups):
        objective = np.array([max(ls) for ls in lookups.values()])
        # The last threshold lies above every cell: the whole grid is below it.
        return [1e-3, *np.quantile(objective, [0.01, 0.2]), objective.max() + 1.0]

    def test_enumerate_below(self, tables):
        """`_cells_below`, the completion spread's enumeration, against a brute force."""
        lookups = self.lookups(tables)
        for threshold in self.thresholds(lookups):
            want = [mnp for mnp, ls in lookups.items() if max(ls) < threshold]
            axis = [
                sum(1 for s in range(-self.H, self.H + 1)
                    if v not in tables or tables[v][1][s + tables[v][0]] < threshold)
                for v in (1, 2)
            ]
            for cap in (len(want) - 1, len(want), 10**6):
                if cap < 0:
                    continue
                got = cb._cells_below(tables, self.H, threshold, cap)
                if len(want) > cap or axis[0] * axis[1] > 4 * cap:
                    assert got is None
                else:
                    assert got == want

    def test_nothing_is_below_zero(self, tables):
        assert cb._cells_below(tables, self.H, 0.0, 4096) == []

    def test_grid_scan(self, tables, monkeypatch):
        # Rounded tables make many objective ties for the tie-break.
        rounded = {v: (off, np.round(D, 1)) for v, (off, D) in tables.items()}
        axes = [np.arange(-self.H, self.H + 1)] * 3
        for tabs in (tables, rounded):
            lookups = self.lookups(tabs)
            objective = {mnp: max(ls) for mnp, ls in lookups.items()}
            argmin = min(
                ((float(obj), mnp) for mnp, obj in objective.items()),
                key=lambda t: (t[0], cb._order_key(*t[1])),
            )
            assert cb._cube_min(tabs, axes) == argmin
            for tol in self.thresholds(lookups):
                below = min(
                    ((float(obj), mnp) for mnp, obj in objective.items() if obj < tol),
                    key=lambda t: cb._order_key(*t[1]),
                    default=None,
                )
                want = (below, argmin if argmin[0] < tol else None)
                assert (cb._cube_min(tabs, axes, tol, True), cb._cube_min(tabs, axes, tol)) == want
                # Blocks of three m values.
                with monkeypatch.context() as mp:
                    mp.setattr(cb, "_GRID_CHUNK", 3 * (2 * self.H + 1) ** 2)
                    got = cb._cube_min(tabs, axes, tol, True), cb._cube_min(tabs, axes, tol)
                    assert got == want


class TestPrunedSearchOracle:
    """The pruned witness search against a full-grid brute force."""

    SPECS = [
        sy.default_heisenberg(),
        sy.SystemSpec(kind="torus_rotation"),
        sy.SystemSpec(kind="torus_rotation", alpha=0.001, beta=0.0013),
    ]

    @staticmethod
    def brute_force(tables, H, resid_tol):
        m, n, p = np.meshgrid(*[np.arange(-H, H + 1)] * 3, indexing="ij")
        shifts = {1: m, 2: n, 3: m + n, 4: p, 5: m + p, 6: n + p, 7: m + n + p}
        obj = np.zeros(m.shape)
        for v, (off, D) in tables.items():
            obj = np.maximum(obj, D[shifts[v] + off])
        obj, m, n, p = (a.ravel() for a in (obj, m, n, p))
        order = np.lexsort((p, n, m, np.abs(m) + np.abs(n) + np.abs(p)))
        below = order[obj[order] < resid_tol]
        i = below[0] if below.size else order[np.argmin(obj[order])]
        return float(obj[i]), (int(m[i]), int(n[i]), int(p[i])), bool(below.size)

    def octuple(self, spec, rng, H):
        system = sy.system_for(spec)
        base = system.point(rng.random(3 if spec.kind == "heisenberg" else spec.dims))
        mnp = (int(v) for v in rng.integers(-H, H + 1, 3))
        rows = [system.row(v) for v in cb.sample_pped(spec, base, *mnp).vertices]
        for v in rng.choice(np.arange(1, 8), rng.integers(0, 4), replace=False):
            rows[v] = (rows[v] + rng.normal(0, 0.2, rows[v].shape)) % 1.0
        if rng.random() < 0.3:
            rows = [np.round(r, 1) % 1.0 for r in rows]
        return cb.Oct(*(system.point(r) for r in rows))

    def test_matches_full_grid(self, rng):
        for spec in self.SPECS:
            system = sy.system_for(spec)
            for H in (15, 30):
                for resid_tol in (1e-3, 0.05, 0.05):
                    o = self.octuple(spec, rng, H)
                    for last in (7, 6):
                        targets = {v: o.vertices[v] for v in range(1, last + 1)}
                        residual, mnp, early, tables = cb._search(
                            system, o.v0, targets, H, resid_tol)
                        assert (residual, mnp, early) == self.brute_force(tables, H, resid_tol)
                        if last == 7:
                            w = cb.pped_search(spec, o, H, resid_tol)
                            got = w.residual, (w.m, w.n, w.p), w.early_exit
                            assert got == (residual, mnp, early)


class TestShellOutward:
    """The early exit feeds m by |m| and stops once every m left lies beyond the hit."""

    @staticmethod
    def count_blocks(monkeypatch):
        blocks = []
        scan = cb._cube_blocks

        def counted(*args, **kwargs):
            for block in scan(*args, **kwargs):
                blocks.append(block[1].size)
                yield block

        monkeypatch.setattr(cb, "_cube_blocks", counted)
        return blocks

    def test_member_witness_at_origin_takes_one_block(self, spec, rng, monkeypatch):
        o = cb.sample_pped(spec, random_point(rng), 17, -40, 91)
        blocks = self.count_blocks(monkeypatch)
        w = cb.pped_search(spec, o, horizon=200, resid_tol=1.0)
        assert (w.m, w.n, w.p, w.early_exit) == (0, 0, 0, True)
        assert len(blocks) == 1

    def test_far_shell_against_shell_order(self, rng, monkeypatch):
        H = 24
        shifts = cb.vertex_shifts((H,) * 3)
        tables = {v: (shifts[v], rng.random(2 * shifts[v] + 1)) for v in range(1, 8)}
        # No cell with |n| <= 5 or |p| <= 5 is below 1, so hits lie on shells
        # >= 12; small m lookups keep most m, out to |m| = H.
        for v in (2, 4):
            tables[v][1][H - 5 : H + 6] += 1.0
        tables[1][1][:] *= 0.2
        axes = [np.arange(-H, H + 1)] * 3
        grid = np.meshgrid(*axes, indexing="ij")
        objective = np.max([D[s + off] for (off, D), s in
                            zip(tables.values(), cb.vertex_shifts(grid)[1:])], axis=0)
        for quantile in (1e-3, 1e-2, 0.05):
            tol = float(np.quantile(objective, quantile))
            want = TestPrunedSearchOracle.brute_force(tables, H, tol)
            shell = sum(map(abs, want[1]))
            assert want[2] and shell >= 12
            assert cb._cube_min(tables, axes, tol, True) == want[:2]
            with monkeypatch.context() as mp:
                blocks = self.count_blocks(mp)
                mp.setattr(cb, "_GRID_CHUNK", 1)  # one m per block
                assert cb._cube_min(tables, axes, tol, True) == want[:2]
            kept = [m for m in range(-H, H + 1) if tables[1][1][m + H] < tol]
            assert len(blocks) == sum(abs(m) <= shell for m in kept) < len(kept)


class TestFloorTablesOracle:
    """Searches on floor tables equal the same queries on fully exact tables."""

    SPECS = [sy.default_heisenberg(), sy.SystemSpec(kind="torus_rotation")]

    @staticmethod
    def exact_tables(system, base, targets, H):
        # One distance call per vertex over its own orbit: no floor, no fill.
        shifts = cb.vertex_shifts((H,) * 3)
        base = system.row(base)
        return {
            v: (off, system.dist(system.orbit(base, np.arange(-off, off + 1)), system.row(t)))
            for v, t in targets.items()
            for off in [shifts[v]]
        }

    @staticmethod
    def search(tables, H, resid_tol):
        span = np.arange(-H, H + 1)
        hit = cb._cube_min(tables, [span] * 3, resid_tol, True)
        if hit is not None:
            return *hit, True
        return *cb._cube_min(tables, [span] * 3), False

    def completion(self, spec, seven, H, resid_tol):
        system = sy.system_for(spec)
        base = system.row(seven[0])
        tables = self.exact_tables(system, seven[0], {v: seven[v] for v in range(1, 7)}, H)
        residual, mnp, _ = self.search(tables, H, resid_tol)
        x7 = system.orbit(base, sum(mnp))
        near = cb._cells_below(tables, H, max(2.0 * residual, 1e-12), 4096)
        spread = None
        if near is not None:
            alts = system.orbit(base, np.array([sum(c) for c in near], dtype=np.int64))
            spread = float(system.dist(x7, alts).max(initial=0.0))
        status = "ok" if residual < resid_tol else "inconclusive"
        return cb.CompletionResult(system.point(x7), residual, mnp, spread, status)

    @staticmethod
    def octuples(spec, rng, H):
        """Member, displaced (v6 and v7 moved) and random octuples."""
        system = sy.system_for(spec)
        heis = spec.kind == "heisenberg"
        base = system.point(rng.random(system.ndim))
        mnp = (int(v) for v in rng.integers(-H, H + 1, 3))
        rows = [system.row(v) for v in cb.sample_pped(spec, base, *mnp).vertices]
        # On X only the central coordinates move, so every face stays exact
        # and the completion runs; on a torus v6 and the random points
        # fail a face, and only the search runs.
        move = np.array([0.0, 0.0, 1.0]) if heis else np.ones(system.ndim)
        displaced = rows[:6] + [(rows[6] + 0.3 * move) % 1.0, (rows[7] + 0.4 * move) % 1.0]
        scrambled = [np.append(r[:2], rng.random()) if heis else rng.random(system.ndim)
                     for r in rows]
        return {name: [system.point(r) for r in rs]
                for name, rs in (("member", rows), ("displaced", displaced), ("random", scrambled))}

    def test_argmin_reading_a_floor_is_refilled(self, spec, rng, monkeypatch):
        """At H=200 the argmin of a displaced octuple can read an entry still at
        its floor; the search then fills below its bound and scans again."""
        system, H = sy.system_for(spec), 200
        span = np.arange(-H, H + 1)
        exact_at, reads_floor = cb._Tables.exact_at, []

        def probe(tables, ns):
            reads_floor.append(not exact_at(tables, ns))
            return not reads_floor[-1]

        monkeypatch.setattr(cb._Tables, "exact_at", probe)
        for _ in range(8):
            mnp = (int(x) for x in rng.integers(-50, 51, 3))
            o = cb.sample_pped(spec, random_point(rng), *mnp)
            v7 = h.NilPoint(o.v7.x, o.v7.y, (o.v7.z + rng.uniform(0.25, 0.5)) % 1.0)
            o = cb.Oct(*o.vertices[:7], v7)
            exact = self.exact_tables(system, o.v0, {v: o.vertices[v] for v in range(1, 8)}, H)
            # The argmin on exact tables, below the next float above the seed grid's best.
            seed = [np.sort(span[np.argsort(exact[1 << j][1][span + H])[:12]]) for j in range(3)]
            bound = np.nextafter(cb._cube_min(exact, seed)[0], np.inf)
            w = cb.pped_search(spec, o, H)
            want = (*cb._cube_min(exact, [span] * 3, bound), False)
            assert (w.residual, (w.m, w.n, w.p), w.early_exit) == want
        assert any(reads_floor) and not all(reads_floor)

    def test_matches_exact_tables(self, rng):
        inconclusive_spreads = 0
        for spec in self.SPECS:
            system = sy.system_for(spec)
            for H in (3, 15, 60):
                for name, o in self.octuples(spec, rng, H).items():
                    targets = {v: o[v] for v in range(1, 8)}
                    exact = self.exact_tables(system, o[0], targets, H)
                    built = cb._Tables(system, o[0], targets, H)
                    assert all(np.array_equal(built[v][1], exact[v][1]) for v in targets)
                    for resid_tol in (1e-3, 0.05, 1.0):
                        w = cb.pped_search(spec, cb.Oct(*o), H, resid_tol)
                        got = w.residual, (w.m, w.n, w.p), w.early_exit
                        want = self.search(exact, H, resid_tol)
                        assert got == want, (spec.kind, name, H, resid_tol)
                        seven = o[:7]
                        if any(not cb.pgram_residual(cb.Quad(*(seven[i] for i in ids))) < 1e-6
                               for _, ids in cb.COMPLETION_FACES):
                            continue
                        res = cb.pped_complete(spec, seven, H, resid_tol=resid_tol)
                        assert res == self.completion(spec, seven, H, resid_tol)
                        if 2 * res.residual > resid_tol and res.spread is not None:
                            inconclusive_spreads += 1
        # The spread's fill above resid_tol was checked.
        assert inconclusive_spreads


class TestRotationCrossCheck:
    def test_formula_membership_agrees_with_residual(self, rng):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)

        def formula_member(quad, tol):
            # independent first-principles check: s, t read off v1, v2
            s = np.asarray(quad.v1.coords) - np.asarray(quad.v0.coords)
            t = np.asarray(quad.v2.coords) - np.asarray(quad.v0.coords)
            v3 = (np.asarray(quad.v0.coords) + s + t) % 1.0
            delta = np.abs(v3 - np.asarray(quad.v3.coords))
            return bool(np.minimum(delta, 1 - delta).max() < tol)

        members = 0
        nonmembers = 0
        while members < 500 or nonmembers < 500:
            if members < 500:
                x, s, t = (sy.TorusPoint(tuple(rng.random(2))) for _ in range(3))
                quad = cb.Quad(
                    x,
                    sy.TorusPoint(tuple((np.asarray(x.coords) + s.coords) % 1.0)),
                    sy.TorusPoint(tuple((np.asarray(x.coords) + t.coords) % 1.0)),
                    sy.TorusPoint(
                        tuple((np.asarray(x.coords) + np.asarray(s.coords) + t.coords) % 1.0)
                    ),
                )
                assert cb.pgram_residual(quad) < 1e-9
                assert formula_member(quad, 1e-9)
                members += 1
            pts = [sy.TorusPoint(tuple(rng.random(2))) for _ in range(4)]
            quad = cb.Quad(*pts)
            if cb.pgram_residual(quad) > 1e-3:
                assert not formula_member(quad, 1e-3)
                nonmembers += 1


class TestCompletion:
    def test_recovers_hidden_vertex(self, spec, rng):
        for _ in range(20):
            mnp = tuple(int(v) for v in rng.integers(-25, 26, 3))
            o = cb.sample_pped(spec, random_point(rng), *mnp)
            res = cb.pped_complete(spec, o.vertices[:7], horizon=30)
            assert res.status == "ok"
            assert h.dist(res.x7, o.v7) < 1e-6

    def test_constant_seven(self, spec, rng):
        x = random_point(rng)
        res = cb.pped_complete(spec, (x,) * 7, horizon=5)
        assert res.status == "ok"
        assert h.dist(res.x7, x) < 1e-12
        assert res.witness_mnp == (0, 0, 0)

    def test_face_precondition_rejection_names_face(self, spec, rng):
        o = cb.sample_pped(spec, random_point(rng), 3, 5, 7)
        seven = list(o.vertices[:7])
        seven[1] = h.NilPoint((seven[1].x + 0.25) % 1.0, seven[1].y, seven[1].z)
        with pytest.raises(cb.FacePreconditionError) as err:
            cb.pped_complete(spec, seven, horizon=10)
        assert err.value.face_name == "axis1-low"
        assert err.value.vertex_ids == (0, 1, 2, 3)

    def test_horizon_is_checked_before_the_faces(self, spec, rng):
        o = cb.sample_pped(spec, random_point(rng), 3, 5, 7)
        seven = list(o.vertices[:7])
        seven[1] = h.NilPoint((seven[1].x + 0.25) % 1.0, seven[1].y, seven[1].z)
        with pytest.raises(ValueError, match="^horizon: must be >= 1$") as err:
            cb.pped_complete(spec, seven, horizon=0)
        assert not isinstance(err.value, cb.FacePreconditionError)

    def test_horizon_beyond_the_shift_limit_is_refused(self, spec, rng):
        # The tables read T^s v0 at |s| <= 3H, and orbits are trusted to |s| <= 10^6.
        o = cb.sample_pped(spec, random_point(rng), 3, 5, 7)
        for search in (lambda H: cb.pped_search(spec, o, horizon=H),
                       lambda H: cb.pped_complete(spec, o.vertices[:7], horizon=H)):
            with pytest.raises(ValueError, match="^horizon: must be <= 333333$"):
                search(333_334)

    def test_spread_and_near_witness_consistency(self, spec, rng):
        # Witnesses within 2x of the best residual complete to nearby
        # eighth vertices (strong parallelepiped structure).
        for _ in range(30):
            mnp = tuple(int(v) for v in rng.integers(-20, 21, 3))
            o = cb.sample_pped(spec, random_point(rng), *mnp)
            res = cb.pped_complete(spec, o.vertices[:7], horizon=25)
            assert res.spread <= max(10 * res.residual, 1e-10)

    def test_truncated_spread_is_reported(self, spec, rng):
        # Random central coordinates keep every face a parallelogram but
        # leave a residual near 0.2, so more than 4096 witnesses lie within
        # twice of it: the spread is unknown, not 0.
        o = cb.sample_pped(spec, random_point(rng), 3, 5, 7)
        seven = [h.NilPoint(v.x, v.y, float(rng.random())) for v in o.vertices[:7]]
        res = cb.pped_complete(spec, seven, horizon=20)
        assert res.residual > 0.1
        assert res.spread is None

    def test_wrong_arity_rejected(self, spec, rng):
        with pytest.raises(ValueError):
            cb.pped_complete(spec, (random_point(rng),) * 6, horizon=5)
