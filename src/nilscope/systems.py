"""Dynamical systems on the Heisenberg nilmanifold and on tori.

A system is translation by a fixed element: on X = G/Gamma the map
T(p) = reduce(t * p) with t = (alpha, beta, gamma0), and on the
d-torus the rotation p -> p + (alpha, beta, ...) mod 1.  The torus
rotation doubles as the maximal equicontinuous factor of the
Heisenberg system: forgetting the central coordinate is a factor map
onto the 2-torus rotation by (alpha, beta), and the fibers of that
projection are exactly the central circles.

Powers of the translation have the closed form

    t^n = (n a, n b, n c + n(n-1)/2 * a b)

valid for every integer n (it matches inv(t^{-n}) for n < 0), so long
orbits never accumulate iteration drift.

Each kind of system is one ``System`` object, ``HeisenbergSystem`` or
``RotationSystem``, built from a ``SystemSpec`` by ``system_for``; this
is the only place that tells the kinds apart.  Its kernels act on
coordinate arrays of shape (..., ndim): ``powers(ns)`` gives the group
elements of T^n, ``translate(g, coords)`` translates on the left by g
and reduces (so ``orbit(coords, ns)`` is ``translate(powers(ns), coords)``
and the proximality perturbations are ``translate(offsets, coords)``),
``dist`` is the gauge or the sup circle distance, ``floor`` a bit-exact
lower bound on it (``dist`` itself on tori), ``factor`` gives the maximal
equicontinuous factor, ``ball`` moves a cube onto the distance ball of
the same radius, ``character`` evaluates e(k1 x + k2 y) on the factor,
and ``row``/``rows``/``point`` convert points.  ``row`` (``rows`` for
several at once) is the one check of a point: its type and its
coordinate count must match the kind.  A single
point moves by ``advance(p, n)``, which is ``orbit`` on its row, so
scalar and array forms agree bit for bit.

Default parameters alpha = sqrt(2)-1, beta = sqrt(3)-1 make 1, alpha,
beta rationally independent at machine precision, hence a minimal base
rotation and a minimal nilsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heisenberg import GroupElement, NilPoint, dist_arr, floor_arr, mul_arr, reduce_arr

__all__ = [
    "SystemSpec",
    "TorusPoint",
    "System",
    "HeisenbergSystem",
    "RotationSystem",
    "system_for",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "default_heisenberg",
    "factor_pi",
]

DEFAULT_ALPHA = math.sqrt(2.0) - 1.0
DEFAULT_BETA = math.sqrt(3.0) - 1.0

#: Denominator bound for the rational-dependence diagnostic.
_RATIONAL_DENOM_BOUND = 10**6

_TWO_PI = 2.0 * math.pi


def _near_rational(value: float) -> bool:
    """True when a bounded-denominator fraction explains value to far below 1/q^2.

    Continued-fraction convergents of a generic irrational approximate it
    to about 1/q^2, so only errors much smaller than that scale signal a
    genuine rational value (up to machine fuzz).
    """
    if not math.isfinite(value):
        return False
    approx = Fraction(value).limit_denominator(_RATIONAL_DENOM_BOUND)
    q = approx.denominator
    return abs(value - float(approx)) < 1e-6 / (q * q)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the d-torus with componentwise canonical coordinates in [0, 1)."""

    coords: tuple[float, ...]

    def __post_init__(self):
        for c in self.coords:
            if not (0.0 <= c < 1.0):
                raise ValueError(f"torus coordinate {c!r} outside [0, 1)")

    @property
    def dims(self) -> int:
        return len(self.coords)

    def as_tuple(self) -> tuple[float, ...]:
        return self.coords


@dataclass(frozen=True)
class SystemSpec:
    """Parameters of a system: a Heisenberg translation or a torus rotation.

    ``gamma0`` is ignored for torus rotations; ``dims`` (1 or 2) only
    applies to torus rotations.  ``rationally_dependent`` flags a small
    integer relation among 1, alpha, beta found by a bounded
    denominator search when read; minimality of the default systems
    relies on its absence.
    """

    kind: str = "heisenberg"
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    gamma0: float = 0.0
    dims: int = 2

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        for name in ("alpha", "beta", "gamma0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def rationally_dependent(self) -> bool:
        return (
            _near_rational(self.alpha)
            or (self.dims == 2 and _near_rational(self.beta))
            or (self.dims == 2 and _near_rational(self.alpha + self.beta))
            or (self.dims == 2 and _near_rational(self.alpha - self.beta))
        )

    @property
    def translation(self) -> GroupElement:
        return GroupElement(self.alpha, self.beta, self.gamma0)

    @property
    def rotation_vector(self) -> tuple[float, ...]:
        return (self.alpha,) if self.dims == 1 else (self.alpha, self.beta)


def default_heisenberg(gamma0: float = 0.0) -> SystemSpec:
    """The default minimal Heisenberg nilsystem."""
    return SystemSpec(kind="heisenberg", gamma0=gamma0)


# ---------------------------------------------------------------------------
# One System per kind
# ---------------------------------------------------------------------------


class System:
    """The kernels of one system kind on coordinate arrays (see module docs).

    Subclasses provide ``kind``, ``point_type``, ``ndim``, ``central``
    (whether coordinates end with a central coordinate), ``powers``,
    ``translate``, ``dist``, ``floor``, ``point`` and ``character``.
    """

    kind: str
    point_type: type
    central: bool

    def __init__(self, spec: SystemSpec):
        self.spec = spec

    def orbit(self, coords: np.ndarray, ns) -> np.ndarray:
        """Canonical coordinates of T^n coords for each integer n; shape ns.shape + (ndim,)."""
        return self.translate(self.powers(ns), coords)

    def row(self, p, name: str = "point") -> np.ndarray:
        """Coordinates of a point of this kind and dimension; ValueError naming it otherwise."""
        return np.array(self._coords(p, name), dtype=np.float64)

    def rows(self, points, names) -> np.ndarray:
        """``row`` of each point, names[i] naming points[i], as one (len, ndim) array."""
        return np.array([self._coords(p, name) for p, name in zip(points, names)], dtype=np.float64)

    def _coords(self, p, name: str) -> tuple:
        coords = p.as_tuple() if isinstance(p, self.point_type) else ()
        if len(coords) != self.ndim:
            raise ValueError(f"{name}: a {self.kind} system needs {self.ndim}-coordinate points")
        return coords

    def advance(self, p, n: int):
        """T^n p as a point."""
        return self.point(self.orbit(self.row(p), n))

    @staticmethod
    def factor(coords: np.ndarray) -> np.ndarray:
        """Factor coordinates: the abelian coordinates, which come first.

        On X that forgets the central coordinate; a torus point (at most
        two coordinates) is its own factor.
        """
        return coords[..., :2]

    @staticmethod
    def ball(cube: np.ndarray) -> np.ndarray:
        """The sup-metric ball is the cube itself."""
        return cube


class HeisenbergSystem(System):
    """The nilsystem p -> reduce(t * p) on X = G/Gamma."""

    kind = "heisenberg"
    point_type = NilPoint
    ndim = 3
    central = True
    dist = staticmethod(dist_arr)
    floor = staticmethod(floor_arr)

    def powers(self, ns) -> np.ndarray:
        """Closed-form t^n for an array of integers n; shape ns.shape + (3,)."""
        spec = self.spec
        ns = np.asarray(ns, dtype=np.float64)
        out = ns[..., None] * np.array((spec.alpha, spec.beta, spec.gamma0))
        out[..., 2] += ns * (ns - 1.0) / 2.0 * (spec.alpha * spec.beta)
        return out

    @staticmethod
    def translate(g: np.ndarray, coords: np.ndarray) -> np.ndarray:
        return reduce_arr(mul_arr(g, coords))

    @staticmethod
    def point(row) -> NilPoint:
        return NilPoint(*(float(c) for c in row))

    @staticmethod
    def ball(cube: np.ndarray) -> np.ndarray:
        # The cube [-r, r]^3 in (dx, dy, dz') with the central coordinate
        # polarized as dz = dz' + dx*dy/2, so each point has symmetrized
        # norm at most r.
        out = cube.copy()
        out[..., 2] += 0.5 * cube[..., 0] * cube[..., 1]
        return out

    @staticmethod
    def character(coords: np.ndarray, k1: int, k2: int) -> np.ndarray:
        return np.exp(1j * _TWO_PI * (k1 * coords[..., 0] + k2 * coords[..., 1]))


class RotationSystem(System):
    """The rotation p -> p + (alpha, beta, ...) mod 1 on the 1- or 2-torus."""

    kind = "torus_rotation"
    point_type = TorusPoint
    central = False

    @property
    def ndim(self) -> int:
        return self.spec.dims

    def powers(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.float64)
        return ns[..., None] * np.asarray(self.spec.rotation_vector, dtype=np.float64)

    @staticmethod
    def translate(g: np.ndarray, coords: np.ndarray) -> np.ndarray:
        out = g + coords
        out -= np.floor(out)
        out[out >= 1.0] = 0.0
        return out

    @staticmethod
    def dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sup metric on the torus: the elementwise max of its one or two circle distances."""
        if np.shape(a)[-1] != np.shape(b)[-1]:
            raise ValueError("torus points of different dimension")
        delta = a - b
        frac = delta - np.floor(delta)
        d = np.minimum(frac, 1.0 - frac)
        return np.maximum(d[..., 0], d[..., -1])

    floor = dist

    @staticmethod
    def point(row) -> TorusPoint:
        return TorusPoint(tuple(float(c) for c in row))

    @staticmethod
    def character(coords: np.ndarray, k1: int, k2: int) -> np.ndarray:
        if k2 and coords.shape[-1] == 1:
            raise ValueError(f"k2 = {k2} needs a second torus coordinate (dims = 1)")
        # k . x as a matrix product, which rounds differently from the
        # Heisenberg k1*x + k2*y; each kind keeps its own order so that
        # generated sequences stay bit-identical.
        ks = np.asarray((k1, k2)[: coords.shape[-1]], dtype=np.float64)
        return np.exp(1j * _TWO_PI * (coords @ ks))


_KINDS = {cls.kind: cls for cls in (HeisenbergSystem, RotationSystem)}


def system_for(spec: SystemSpec) -> System:
    """The System object of the spec's kind."""
    return _KINDS[spec.kind](spec)


def factor_pi(p: NilPoint) -> TorusPoint:
    """Projection to the maximal equicontinuous factor: forget the central coordinate."""
    return RotationSystem.point(System.factor(np.array(p.as_tuple(), dtype=np.float64)))
