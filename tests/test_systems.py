import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilscope import cubes as cb
from nilscope import heisenberg as h
from nilscope import proximality as px
from nilscope import systems as sy


class TestSpec:
    def test_default_is_rationally_independent(self, spec):
        assert not spec.rationally_dependent

    def test_rational_alpha_flagged(self):
        assert sy.SystemSpec(alpha=0.25).rationally_dependent
        assert sy.SystemSpec(alpha=1 / 3 + 1e-13).rationally_dependent

    def test_equal_frequencies_flagged(self):
        a = math.sqrt(2) - 1
        assert sy.SystemSpec(alpha=a, beta=a).rationally_dependent

    def test_overflowing_sum_is_never_tested(self):
        # alpha + beta overflows to inf only when both are integer-valued,
        # and the alpha test flags that first.
        assert sy.SystemSpec(alpha=1e308, beta=1e308).rationally_dependent
        assert sy.SystemSpec(alpha=-1e308, beta=1e308).rationally_dependent

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            sy.SystemSpec(kind="circle")
        with pytest.raises(ValueError):
            sy.SystemSpec(dims=3)


class TestSpecCost:
    def test_rational_search_runs_only_when_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sy, "_near_rational", lambda value: calls.append(value) or False)
        spec = sy.SystemSpec()
        assert calls == []
        assert not spec.rationally_dependent
        assert calls == [spec.alpha, spec.beta, spec.alpha + spec.beta, spec.alpha - spec.beta]


class TestStep:
    def test_zero_translation_fixes(self):
        frozen = sy.SystemSpec(alpha=0.0, beta=0.0, gamma0=0.0)
        p = h.NilPoint(0.3, 0.4, 0.5)
        assert sy.system_for(frozen).advance(p, 1) == p

    def test_base_point_moves_to_translation(self, spec):
        e = h.reduce(h.IDENTITY)
        assert sy.system_for(spec).advance(e, 1) == h.reduce(spec.translation)

    def test_iteration_matches_closed_form(self, spec):
        system = sy.system_for(spec)
        p = h.reduce(h.IDENTITY)
        for _ in range(10_000):
            p = system.advance(p, 1)
        q = system.advance(h.reduce(h.IDENTITY), 10_000)
        assert h.dist(p, q) < 1e-6

    def test_requires_heisenberg(self):
        rot = sy.SystemSpec(kind="torus_rotation")
        with pytest.raises(ValueError):
            sy.system_for(rot).advance(h.NilPoint(0, 0, 0), 1)


class TestOrbitPoint:
    def test_zero_power(self, spec):
        assert sy.system_for(spec).advance(h.NilPoint(0.0, 0.0, 0.0), 0) == h.NilPoint(0.0, 0.0, 0.0)

    def test_half_half_square(self):
        s2 = sy.SystemSpec(alpha=0.5, beta=0.5, gamma0=0.0)
        assert sy.system_for(s2).advance(h.NilPoint(0.0, 0.0, 0.0), 2) == h.NilPoint(0.0, 0.0, 0.25)

    @pytest.mark.parametrize("n", [1, 10, 1000, -1, -10, -1000])
    def test_matches_iteration_both_signs(self, spec, n):
        p = h.reduce(h.IDENTITY)
        t = spec.translation if n > 0 else h.inv(spec.translation)
        for _ in range(abs(n)):
            p = h.reduce(h.mul(t, p.as_group()))
        assert h.dist(p, sy.system_for(spec).advance(h.reduce(h.IDENTITY), n)) < 1e-6

    @given(st.integers(-1000, 1000))
    def test_negative_power_is_inverse_power(self, n):
        spec = sy.default_heisenberg(gamma0=0.123)
        system = sy.system_for(spec)
        direct = system.advance(h.reduce(h.IDENTITY), -n)
        via_inv = h.reduce(h.inv(h.GroupElement(*system.powers(n))))
        assert h.dist(direct, via_inv) < 1e-9

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_cocycle(self, m, n):
        spec = sy.default_heisenberg()
        system = sy.system_for(spec)
        combined = system.advance(h.reduce(h.IDENTITY), m + n)
        t_m, t_n = h.GroupElement(*system.powers(m)), h.GroupElement(*system.powers(n))
        product = h.reduce(h.mul(t_m, t_n))
        assert h.dist(combined, product) < 1e-9

    def test_array_matches_scalar(self, spec):
        system = sy.system_for(spec)
        ns = np.arange(-200, 201)
        arr = system.orbit(np.zeros(3), ns)
        for row, n in zip(arr, ns):
            assert np.allclose(row, system.advance(h.reduce(h.IDENTITY), int(n)).as_tuple(), atol=1e-10)


class TestFactor:
    def test_projection_drops_center(self):
        assert sy.System.factor(np.array([0.25, 0.5, 0.55])).tolist() == [0.25, 0.5]

    def test_fibers_project_equal(self):
        p = np.array([0.2, 0.7, 0.1])
        q = np.array([0.2, 0.7, 0.9])
        assert np.array_equal(sy.System.factor(p), sy.System.factor(q))

    def test_equivariance(self, spec, rng):
        system = sy.system_for(spec)
        rot = sy.system_for(sy.SystemSpec(kind="torus_rotation", alpha=spec.alpha, beta=spec.beta))
        for _ in range(500):
            p = system.row(h.NilPoint(*rng.random(3)))
            lhs = sy.System.factor(system.orbit(p, 1))
            rhs = rot.orbit(sy.System.factor(p), 1)
            assert rot.dist(lhs, rhs) < 1e-12

    def test_central_translation_commutes_with_step(self, spec, rng):
        system = sy.system_for(spec)
        for _ in range(200):
            p = h.NilPoint(*rng.random(3))
            c = float(rng.random())
            shifted = h.reduce(h.mul(p.as_group(), h.GroupElement(0.0, 0.0, c)))
            lhs = system.advance(shifted, 1)
            rhs = h.reduce(h.mul(system.advance(p, 1).as_group(), h.GroupElement(0.0, 0.0, c)))
            assert h.dist(lhs, rhs) < 1e-12


class TestRotation:
    def test_zero_rotation(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=0.0, beta=0.0)
        p = sy.TorusPoint((0.3, 0.9))
        assert sy.system_for(rot).advance(p, 1) == p

    def test_wraparound(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=0.2, dims=1)
        p = sy.TorusPoint((0.9,))
        q = sy.system_for(rot).advance(p, 1)
        assert abs(q.coords[0] - 0.1) < 1e-12

    @given(st.integers(1, 10_000))
    def test_nfold_equals_single_multiple(self, n):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        p = sy.TorusPoint((0.25, 0.8))
        stepped = p
        # closed form: add n*alpha directly
        direct = sy.system_for(rot).advance(p, n)
        expected = tuple((c + n * v) % 1.0 for c, v in zip(p.coords, rot.rotation_vector))
        assert all(
            min(abs(a - b), 1 - abs(a - b)) < 1e-9 for a, b in zip(direct.coords, expected)
        )

    @pytest.mark.parametrize("dims", [1, 2])
    def test_dist_matches_reduction_over_coordinates(self, rng, dims):
        a, b = rng.random((500, dims)), rng.random((7, 1, dims))
        frac = (a - b) - np.floor(a - b)
        want = np.minimum(frac, 1.0 - frac).max(axis=-1)
        assert np.array_equal(sy.RotationSystem.dist(a, b), want)

    def test_dist_of_rows_of_different_dimension_is_refused(self):
        with pytest.raises(ValueError, match="^torus points of different dimension$"):
            sy.RotationSystem.dist(np.zeros((3, 1)), np.zeros((3, 2)))

    def test_dimension_mismatch_rejected(self):
        rot = sy.SystemSpec(kind="torus_rotation", dims=2)
        with pytest.raises(ValueError):
            sy.system_for(rot).advance(sy.TorusPoint((0.5,)), 1)


CIRCLE = sy.SystemSpec(kind="torus_rotation", dims=1)
PLANE_POINT = sy.TorusPoint((0.1, 0.2))


class TestPointCheck:
    """A point of the wrong dimension is refused by name, never broadcast."""

    @pytest.mark.parametrize("call, name, ndim", [
        (lambda: sy.system_for(CIRCLE).advance(PLANE_POINT, 1), "point", 1),
        (lambda: cb.sample_pped(CIRCLE, PLANE_POINT, 1, 2, 3), "base", 1),
        (lambda: cb.pped_search(CIRCLE, cb.Oct(*[PLANE_POINT] * 8), horizon=3), "v0", 1),
        (lambda: px.rp_search(sy.SystemSpec(kind="torus_rotation", dims=2),
                              sy.TorusPoint((0.1,)), sy.TorusPoint((0.3,))), "x", 2),
    ], ids=["advance", "sample_pped", "pped_search", "rp_search"])
    def test_wrong_dimension_names_the_point(self, call, name, ndim):
        message = f"^{name}: a torus_rotation system needs {ndim}-coordinate points$"
        with pytest.raises(ValueError, match=message):
            call()


KIND_SCALARS = {
    # kind: scalar distance of two points
    "heisenberg": h.dist,
    "torus_rotation": lambda p, q: float(sy.RotationSystem.dist(np.array(p.coords), np.array(q.coords))),
}


class TestSystemProtocol:
    """Single points go through the one array kernel per kind, bit for bit."""

    @pytest.fixture(params=sorted(KIND_SCALARS))
    def kind(self, request):
        return request.param

    @staticmethod
    def make(kind, rng, k=200):
        spec = sy.SystemSpec(kind=kind)
        system = sy.system_for(spec)
        rows = rng.random((k, system.ndim)) * 0.37
        return spec, system, rows

    def test_scalar_orbit_is_array_kernel(self, kind, rng):
        spec, system, rows = self.make(kind, rng)
        ns = rng.integers(-600, 601, len(rows))
        for row, n in zip(rows, ns):
            p = system.point(row)
            expected = system.orbit(system.row(p), np.array([n]))[0]
            assert np.array_equal(system.row(system.advance(p, int(n))), expected)
            assert np.array_equal(system.orbit(row, n), expected)

    def test_scalar_dist_is_array_kernel(self, kind, rng):
        _, system, rows = self.make(kind, rng)
        scalar = KIND_SCALARS[kind]
        other = rng.random(rows.shape)
        kernel = system.dist(rows, other)
        for prow, qrow, d in zip(rows, other, kernel):
            p, q = system.point(prow), system.point(qrow)
            assert scalar(p, q) == d
            assert float(system.dist(system.row(p), system.row(q))) == d

    def test_reduce_is_reduce_arr(self, rng):
        g = (rng.random((500, 3)) - 0.5) * 20.0 * 0.37
        reduced = h.reduce_arr(g)
        for row, r in zip(g, reduced):
            assert h.reduce(h.GroupElement(*row)).as_tuple() == tuple(r)

    def test_factor_commutes_with_orbit(self, kind, rng):
        spec, system, rows = self.make(kind, rng, k=50)
        rot = sy.system_for(sy.SystemSpec(kind="torus_rotation", alpha=spec.alpha, beta=spec.beta))
        ns = np.arange(-300, 301)
        for row in rows:
            lhs = system.factor(system.orbit(row, ns))
            rhs = rot.orbit(system.factor(row), ns)
            assert rot.dist(lhs, rhs).max() < 1e-12

    def test_floor_bounds_dist(self, kind, rng):
        _, system, rows = self.make(kind, rng, k=10_000)
        other = rng.random(rows.shape)
        floor, dist = system.floor(rows, other), system.dist(rows, other)
        assert np.all(floor <= dist)
        if kind == "torus_rotation":
            # On a torus the floor is the distance: every table entry is exact.
            assert system.floor is system.dist
            assert np.array_equal(floor, dist)

    def test_dist_symmetric_and_zero_on_diagonal(self, kind, rng):
        _, system, rows = self.make(kind, rng, k=10_000)
        other = rng.random(rows.shape)
        # Symmetric in exact arithmetic; the two float evaluation orders
        # differ by a few ulps.
        assert np.abs(system.dist(rows, other) - system.dist(other, rows)).max() < 1e-15
        assert system.dist(rows, rows).max() < 1e-15
