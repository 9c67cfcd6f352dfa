import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilscope import heisenberg as h
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
        assert sy.step(frozen, p) == p

    def test_base_point_moves_to_translation(self, spec):
        e = h.reduce(h.IDENTITY)
        assert sy.step(spec, e) == h.reduce(spec.translation)

    def test_iteration_matches_closed_form(self, spec):
        p = h.reduce(h.IDENTITY)
        for _ in range(10_000):
            p = sy.step(spec, p)
        q = sy.orbit_point(spec, 10_000)
        assert h.dist(p, q) < 1e-6

    def test_requires_heisenberg(self):
        rot = sy.SystemSpec(kind="torus_rotation")
        with pytest.raises(ValueError):
            sy.step(rot, h.NilPoint(0, 0, 0))


class TestOrbitPoint:
    def test_zero_power(self, spec):
        assert sy.orbit_point(spec, 0) == h.NilPoint(0.0, 0.0, 0.0)

    def test_half_half_square(self):
        s2 = sy.SystemSpec(alpha=0.5, beta=0.5, gamma0=0.0)
        assert sy.orbit_point(s2, 2) == h.NilPoint(0.0, 0.0, 0.25)

    @pytest.mark.parametrize("n", [1, 10, 1000, -1, -10, -1000])
    def test_matches_iteration_both_signs(self, spec, n):
        p = h.reduce(h.IDENTITY)
        t = spec.translation if n > 0 else h.inv(spec.translation)
        for _ in range(abs(n)):
            p = h.reduce(h.mul(t, p.as_group()))
        assert h.dist(p, sy.orbit_point(spec, n)) < 1e-6

    @given(st.integers(-1000, 1000))
    def test_negative_power_is_inverse_power(self, n):
        spec = sy.default_heisenberg(gamma0=0.123)
        direct = sy.orbit_point(spec, -n)
        via_inv = h.reduce(h.inv(sy._power(spec, n)))
        assert h.dist(direct, via_inv) < 1e-9

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_cocycle(self, m, n):
        spec = sy.default_heisenberg()
        combined = sy.orbit_point(spec, m + n)
        product = h.reduce(h.mul(sy._power(spec, m), sy._power(spec, n)))
        assert h.dist(combined, product) < 1e-9

    def test_array_matches_scalar(self, spec):
        ns = np.arange(-200, 201)
        arr = sy.orbit_points_arr(spec, ns)
        for row, n in zip(arr, ns):
            assert np.allclose(row, sy.orbit_point(spec, int(n)).as_tuple(), atol=1e-10)


class TestFactor:
    def test_projection_drops_center(self):
        assert sy.factor_pi(h.NilPoint(0.25, 0.5, 0.55)) == sy.TorusPoint((0.25, 0.5))

    def test_fibers_project_equal(self):
        p = h.NilPoint(0.2, 0.7, 0.1)
        q = h.NilPoint(0.2, 0.7, 0.9)
        assert sy.factor_pi(p) == sy.factor_pi(q)

    def test_equivariance(self, spec, rng):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=spec.alpha, beta=spec.beta)
        for _ in range(500):
            p = h.NilPoint(*rng.random(3))
            lhs = sy.factor_pi(sy.step(spec, p))
            rhs = sy.rotation_step(rot, sy.factor_pi(p))
            assert sy.torus_dist(lhs, rhs) < 1e-12

    def test_central_translation_commutes_with_step(self, spec, rng):
        for _ in range(200):
            p = h.NilPoint(*rng.random(3))
            c = float(rng.random())
            shifted = h.reduce(h.mul(p.as_group(), h.GroupElement(0.0, 0.0, c)))
            lhs = sy.step(spec, shifted)
            rhs = h.reduce(h.mul(sy.step(spec, p).as_group(), h.GroupElement(0.0, 0.0, c)))
            assert h.dist(lhs, rhs) < 1e-12


class TestRotation:
    def test_zero_rotation(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=0.0, beta=0.0)
        p = sy.TorusPoint((0.3, 0.9))
        assert sy.rotation_step(rot, p) == p

    def test_wraparound(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=0.2, dims=1)
        p = sy.TorusPoint((0.9,))
        q = sy.rotation_step(rot, p)
        assert abs(q.coords[0] - 0.1) < 1e-12

    @given(st.integers(1, 10_000))
    def test_nfold_equals_single_multiple(self, n):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        p = sy.TorusPoint((0.25, 0.8))
        stepped = p
        # closed form: add n*alpha directly
        direct = sy.rotation_step(rot, p, n)
        expected = tuple((c + n * v) % 1.0 for c, v in zip(p.coords, rot.rotation_vector))
        assert all(
            min(abs(a - b), 1 - abs(a - b)) < 1e-9 for a, b in zip(direct.coords, expected)
        )

    def test_dimension_mismatch_rejected(self):
        rot = sy.SystemSpec(kind="torus_rotation", dims=2)
        with pytest.raises(ValueError):
            sy.rotation_step(rot, sy.TorusPoint((0.5,)))


KIND_SCALARS = {
    # kind: (scalar orbit step, its array form, scalar distance)
    "heisenberg": (sy.translate, sy.translate_arr, h.dist),
    "torus_rotation": (sy.rotation_step, sy.rotation_orbit, sy.torus_dist),
}


class TestSystemProtocol:
    """The scalar forms are thin wrappers over one array kernel per kind."""

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
        scalar, array, _ = KIND_SCALARS[kind]
        ns = rng.integers(-600, 601, len(rows))
        for row, n in zip(rows, ns):
            p = system.point(row)
            expected = array(spec, p, np.array([n]))[0]
            assert np.array_equal(system.row(scalar(spec, p, int(n))), expected)
            assert np.array_equal(system.orbit(row, n), expected)

    def test_scalar_dist_is_array_kernel(self, kind, rng):
        spec, system, rows = self.make(kind, rng)
        _, _, scalar = KIND_SCALARS[kind]
        other = rng.random(rows.shape)
        kernel = system.dist(rows, other)
        for prow, qrow, d in zip(rows, other, kernel):
            p, q = system.point(prow), system.point(qrow)
            assert scalar(p, q) == d
            assert sy.point_dist(spec, p, q) == d

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
