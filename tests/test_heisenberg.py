
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilscope import heisenberg as h

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def elements(draw_coord=coord):
    return st.builds(h.GroupElement, draw_coord, draw_coord, draw_coord)


class TestGroupLaw:
    def test_product_example(self):
        assert h.mul(h.GroupElement(1, 0, 0), h.GroupElement(0, 1, 0)) == h.GroupElement(1, 1, 1)

    def test_half_square(self):
        g = h.GroupElement(0.5, 0.5, 0.0)
        assert h.mul(g, g) == h.GroupElement(1.0, 1.0, 0.25)

    @given(elements())
    def test_identity(self, g):
        assert h.mul(g, h.IDENTITY) == g
        assert h.mul(h.IDENTITY, g) == g

    @given(elements(), elements(), elements())
    def test_associativity(self, a, b, c):
        lhs = h.mul(h.mul(a, b), c)
        rhs = h.mul(a, h.mul(b, c))
        assert max(abs(x - y) for x, y in zip(lhs.as_tuple(), rhs.as_tuple())) < 1e-12

    def test_inverse_example(self):
        assert h.inv(h.GroupElement(1, 1, 0)) == h.GroupElement(-1, -1, 1)
        assert h.inv(h.IDENTITY) == h.IDENTITY

    @given(elements())
    def test_inverse_law(self, g):
        e = h.mul(g, h.inv(g))
        assert max(abs(c) for c in e.as_tuple()) < 1e-12
        e2 = h.mul(h.inv(g), g)
        assert max(abs(c) for c in e2.as_tuple()) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            h.GroupElement(float("nan"), 0, 0)
        with pytest.raises(ValueError):
            h.GroupElement(0, float("inf"), 0)


class TestReduce:
    def test_worked_example(self):
        p = h.reduce(h.GroupElement(1.25, -0.5, 0.3))
        assert p == h.NilPoint(0.25, 0.5, 0.55)

    def test_idempotent_on_canonical(self):
        p = h.NilPoint(0.25, 0.5, 0.55)
        assert h.reduce(p.as_group()) == p

    @given(elements())
    def test_idempotent(self, g):
        p = h.reduce(g)
        assert h.reduce(p.as_group()) == p

    @given(
        elements(),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_coset_invariance(self, g, a, b, c):
        # Equality on X is measured by the gauge: coordinates of inputs
        # straddling a lattice boundary may differ while the cosets agree.
        gamma = h.GroupElement(float(a), float(b), float(c))
        p = h.reduce(g)
        q = h.reduce(h.mul(g, gamma))
        assert h.dist(p, q) < 1e-9

    def test_boundary_rounding_stays_half_open(self):
        # -5e-17 + 1 rounds to exactly 1.0; the representative must stay below.
        p = h.reduce(h.GroupElement(-5e-17, -5e-17, -5e-17))
        assert 0.0 <= p.x < 1.0 and 0.0 <= p.y < 1.0 and 0.0 <= p.z < 1.0

    def test_array_path_matches_scalar(self, rng):
        gs = rng.uniform(-10, 10, size=(500, 3))
        arr = h.reduce_arr(gs)
        for row, g in zip(arr, gs):
            p = h.reduce(h.GroupElement(*g))
            assert np.allclose(row, p.as_tuple(), atol=1e-12)

    def test_nilpoint_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            h.NilPoint(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            h.NilPoint(0.0, -0.1, 0.0)


class TestDist:
    def test_zero_on_equal(self):
        p = h.reduce(h.GroupElement(0.37, 0.11, 0.93))
        assert h.dist(p, p) < 1e-15

    def test_pinned_fiber_value(self):
        # Central separation 0.5 between fiber points; direct evaluation of
        # the gauge formula gives exactly 0.5.
        p = h.reduce(h.GroupElement(0.1, 0.1, 0.1))
        q = h.reduce(h.GroupElement(0.1, 0.1, 0.6))
        d = h.dist(p, q)
        assert 0.0 < d <= 0.5
        assert abs(d - 0.5) < 1e-12

    def test_symmetric(self, rng):
        for _ in range(300):
            p = h.NilPoint(*rng.random(3))
            q = h.NilPoint(*rng.random(3))
            assert abs(h.dist(p, q) - h.dist(q, p)) < 1e-12

    def test_separates_points(self, rng):
        for _ in range(100):
            p = h.NilPoint(*rng.random(3))
            q = h.NilPoint(*rng.random(3))
            if p != q:
                assert h.dist(p, q) > 0

    def test_sym_norm_inverse_invariant(self, rng):
        for _ in range(200):
            g = h.GroupElement(*rng.uniform(-5, 5, 3))
            assert abs(h.sym_norm(g) - h.sym_norm(h.inv(g))) < 1e-12

    def test_continuity_lipschitz_sample(self, rng):
        # |dist(p, q) - dist(p', q)| stays within an empirical Lipschitz
        # multiple of the coordinate perturbation.
        worst_ratio = 0.0
        for _ in range(200):
            base = rng.random(3) * 0.9 + 0.05
            q = h.NilPoint(*rng.random(3))
            p = h.NilPoint(*base)
            step = rng.uniform(-1e-4, 1e-4, 3)
            p2 = h.NilPoint(*(base + step))
            delta = abs(h.dist(p, q) - h.dist(p2, q))
            move = np.abs(step).max()
            if move > 0:
                worst_ratio = max(worst_ratio, delta / move)
        assert worst_ratio < 10.0

    def test_dist_dominates_torus_mismatch(self, rng):
        # The gauge never reports less than the factor-torus mismatch.
        for _ in range(200):
            p = h.NilPoint(*rng.random(3))
            q = h.NilPoint(*rng.random(3))
            dx = abs(p.x - q.x)
            dy = abs(p.y - q.y)
            tor = max(min(dx, 1 - dx), min(dy, 1 - dy))
            assert h.dist(p, q) >= tor - 1e-12

    def test_stacked_call_matches_separate_calls(self, rng):
        # The witness search takes both base distances in one (2, K) call.
        xp, yp, x, y = rng.random((16, 3)), rng.random((16, 3)), rng.random(3), rng.random(3)
        both = h.dist_arr(np.stack((xp, yp)), np.stack((x, y))[:, None])
        assert both.shape == (2, 16)
        assert np.array_equal(both, np.stack((h.dist_arr(xp, x), h.dist_arr(yp, y))))


def window_gauge(p, q, ab=range(-2, 3), cs=range(-2, 3)):
    """Brute-force gauge: min of the symmetrized norm over a lattice window.

    Each lattice element goes through ``mul_arr``/``inv_arr``, the float
    operation order the closed form must reproduce bit for bit.
    """
    best = np.full(np.broadcast_shapes(p.shape, q.shape)[:-1], np.inf)
    for a in ab:
        for b in ab:
            for c in cs:
                u = h.mul_arr(p, h.inv_arr(h.mul_arr(q, np.array([a, b, c], dtype=float))))
                norm = np.abs(u[..., 2] - 0.5 * u[..., 0] * u[..., 1])
                np.maximum(norm, np.abs(u[..., 0]), out=norm)
                np.maximum(norm, np.abs(u[..., 1]), out=norm)
                np.minimum(best, norm, out=best)
    return best


class TestGaugeOracle:
    """dist_arr against the brute-force {-2..2}^3 window."""

    def check(self, p, q, wide=True):
        got = h.dist_arr(p, q)
        assert np.array_equal(got, window_gauge(p, q))
        if wide:
            # No lattice element outside the window does better.
            assert np.all(window_gauge(p, q, range(-2, 3), range(-8, 9)) >= got)

    def test_random_pairs(self, rng):
        p = rng.random((100_000, 3))
        q = rng.random((100_000, 3))
        self.check(p, q, wide=False)
        self.check(p[:5_000], q[:5_000])

    def test_corner_pairs(self):
        vals = np.array([0.0, 1e-12, 0.5, np.nextafter(1.0, 0.0)])
        grid = np.stack(np.meshgrid(*[vals] * 6, indexing="ij"), axis=-1).reshape(-1, 6)
        self.check(grid[:, :3], grid[:, 3:])

    def test_near_tie_pairs(self, rng):
        # Put the symmetrized central coordinate of p * q^{-1} at k + 1/2,
        # give or take a few ulps, so two values of c nearly tie.
        q = rng.random((10_000, 3))
        p = rng.random((10_000, 3))
        t = q[:, 2] + 0.5 * (p[:, 0] - q[:, 0]) * (p[:, 1] + q[:, 1]) + 0.5
        t += rng.integers(-4, 5, len(t)) * np.spacing(1.0)
        p[:, 2] = t - np.floor(t)
        self.check(p, q)

    def test_broadcast_point(self, rng):
        p = rng.random((500, 3))
        q = rng.random(3)
        assert np.array_equal(h.dist_arr(p, q), window_gauge(p, q))


class TestFloor:
    """floor_arr is at most the gauge bit for bit: it needs no margin."""

    def check(self, p, q):
        floor, gauge = h.floor_arr(p, q), h.dist_arr(p, q)
        assert np.all(floor <= gauge)
        # Equal wherever the gauge's candidate is decided by |ux| or |uy|,
        # so a floor raised by one ulp fails above.
        assert np.any(floor == gauge)

    def test_random_pairs(self, rng):
        self.check(rng.random((100_000, 3)), rng.random((100_000, 3)))

    def test_edge_pairs(self):
        # Coordinate 0, the largest double below 1, px == qx, and
        # |px - qx| = 0.5 (0 against 0.5, 0.25 against 0.75).
        vals = np.array([0.0, 1e-12, 0.25, 0.5, 0.75, h._BELOW_ONE])
        grid = np.stack(np.meshgrid(*[vals] * 6, indexing="ij"), axis=-1).reshape(-1, 6)
        self.check(grid[:, :3], grid[:, 3:])

    def test_broadcast_targets(self, rng):
        # The cube tables' layout: one orbit against a column of targets.
        p, q = rng.random((300, 3)), rng.random((7, 1, 3))
        assert np.array_equal(h.floor_arr(p, q), np.stack([h.floor_arr(p, t[0]) for t in q]))
        self.check(p, q)
