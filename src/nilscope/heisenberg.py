"""Exact arithmetic for the 3-dimensional Heisenberg group and its nilmanifold.

The group G is R^3 with the polarized product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x*y'),

a 2-step nilpotent Lie group whose commutator subgroup G2 = {(0, 0, z)}
coincides with the center.  The integer points form a discrete cocompact
lattice Gamma, and the compact quotient X = G/Gamma is the simplest
nilmanifold that is not a torus.  Points of X are kept as the unique
right-coset representative with all coordinates in [0, 1).

The distance on X is a right-invariant gauge: for canonical representatives
p, q we minimize the symmetrized box norm

    ||(x, y, z)||_sym = max(|x|, |y|, |z - x*y/2|)

of p * (q * gamma)^{-1} over all lattice elements gamma = (a, b, c).  The
minimum is attained in the window {-2, ..., 2}^3 and is computed from 8
candidates.  With s, t = +-1 the signs of px - qx and py - qy (both in
(-1, 1)), the lift a = -s gives |ux| >= 1 (computed: 1 less a few
ulps), as does |a| >= 2, and likewise for b; the nearer lifts in {0, s}
x {0, t} give a norm of at most 1/2 plus a few ulps.  So these four
(a, b) alone can attain the minimum, each with the two integers c next
to its symmetrized central coordinate at c = 0, since c only shifts that
coordinate.  The symmetrized central coordinate makes ||g|| =
||g^{-1}||, so in exact arithmetic the gauge is
symmetric and 0 on the diagonal.  In float64 both hold to a few ulps: on
10^5 random pairs d(p, q) and d(q, p) differ for about a third, by up to
about 7e-16, and d(p, p) reaches about 6e-17.  It separates points, is
continuous, and is compatible with the quotient topology, which is all
the regional-proximality machinery needs.  It is *not* a geodesic metric,
and its triangle inequality is not relied upon anywhere.  It is at least
the circle sup-distance of the factor coordinates (x, y), to a few ulps
in float64, since the first two coordinates of p * (q * gamma)^{-1} are
lifts of their difference and the norm takes their absolute values;
``floor_arr`` forms those lifts in ``dist_arr``'s own float operations,
so its factor floor is at most the gauge bit for bit, with no margin.
The witness searches bound pairs by that factor distance and, for RPDS,
use the triangle inequality of the torus sup metric on the factor,
never that of the gauge.  Left translation (the dynamics) is
deliberately not an isometry of this gauge.

Scalar operations work on the frozen dataclasses below; the ``*_arr``
variants operate on (..., 3) float arrays for the scan engines, and the
scalar ``mul``, ``inv``, ``reduce`` and ``dist`` are wrappers over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement",
    "NilPoint",
    "IDENTITY",
    "mul",
    "inv",
    "commutator",
    "reduce",
    "dist",
    "sym_norm",
    "mul_arr",
    "inv_arr",
    "reduce_arr",
    "dist_arr",
    "floor_arr",
]

@dataclass(frozen=True)
class GroupElement:
    """A Heisenberg group element in global (x, y, z) coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("group element coordinates must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class NilPoint:
    """A point of X = G/Gamma as its canonical representative in [0, 1)^3."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.x, self.y, self.z):
            if not (0.0 <= c < 1.0):
                raise ValueError(f"NilPoint coordinate {c!r} outside [0, 1)")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def as_group(self) -> GroupElement:
        return GroupElement(self.x, self.y, self.z)


IDENTITY = GroupElement(0.0, 0.0, 0.0)

# Largest double strictly below 1.0; used to keep half-open reduction
# half-open when a coordinate rounds up to exactly 1.0.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a * b.  A wrapper over ``mul_arr``."""
    return GroupElement(*mul_arr(a.as_tuple(), b.as_tuple()).tolist())


def inv(a: GroupElement) -> GroupElement:
    """Group inverse; mul(a, inv(a)) is the identity exactly in real arithmetic.
    A wrapper over ``inv_arr``."""
    return GroupElement(*inv_arr(a.as_tuple()).tolist())


def commutator(a: GroupElement, b: GroupElement) -> GroupElement:
    """Commutator a b a^-1 b^-1, always central.

    Evaluated in closed form so the abelianized coordinates are exactly
    zero regardless of rounding in the inputs.
    """
    return GroupElement(0.0, 0.0, a.x * b.y - a.y * b.x)


def reduce(g: GroupElement) -> NilPoint:
    """Canonical right-coset representative of g modulo the integer lattice.

    Right-multiplying by gamma = (a, b, c) sends (x, y, z) to
    (x + a, y + b, z + c + x*b), so a = -floor(x), b = -floor(y) and then
    c = -floor(z + x*b) land every coordinate in [0, 1).  A wrapper over
    ``reduce_arr``.
    """
    return NilPoint(*reduce_arr(np.array(g.as_tuple(), dtype=np.float64)).tolist())


def sym_norm(g: GroupElement) -> float:
    """Symmetrized box gauge max(|x|, |y|, |z - xy/2|); equals sym_norm(inv(g))."""
    return max(abs(g.x), abs(g.y), abs(g.z - 0.5 * g.x * g.y))


# Lattice candidates (module docs): a, b times the signs of px - qx, py - qy; c - c0.
_GAUGE_A = np.array([0.0, 1.0, 0.0, 1.0])
_GAUGE_B = np.array([0.0, 0.0, 1.0, 1.0])
_GAUGE_C = np.array([-0.0, 1.0])  # -0.0 keeps c0 as it is, bit for bit


def dist(p: NilPoint, q: NilPoint) -> float:
    """Gauge distance on X: min over the lattice of the symmetrized norm."""
    return float(dist_arr(np.array(p.as_tuple()), np.array(q.as_tuple())))


# ---------------------------------------------------------------------------
# Array kernels.  Shapes are (..., 3); the formulas mirror the scalar ops.
# ---------------------------------------------------------------------------


def mul_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Group product on (..., 3) arrays (broadcasting)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.float64)
    out[..., 0] = a[..., 0] + b[..., 0]
    out[..., 1] = a[..., 1] + b[..., 1]
    out[..., 2] = a[..., 2] + b[..., 2] + a[..., 0] * b[..., 1]
    return out


def inv_arr(a: np.ndarray) -> np.ndarray:
    """Group inverse on (..., 3) arrays."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    out[..., 0] = -a[..., 0]
    out[..., 1] = -a[..., 1]
    out[..., 2] = -a[..., 2] + a[..., 0] * a[..., 1]
    return out


def reduce_arr(g: np.ndarray) -> np.ndarray:
    """Canonical representatives of (..., 3) group elements."""
    g = np.asarray(g, dtype=np.float64)
    x0 = g[..., 0]
    y0 = g[..., 1]
    b = -np.floor(y0)
    z1 = g[..., 2] + x0 * b
    out = np.empty_like(g)
    out[..., 0] = x0 - np.floor(x0)
    out[..., 1] = y0 + b
    out[..., 2] = z1 - np.floor(z1)
    np.copyto(out, _BELOW_ONE, where=out >= 1.0)
    return out


def dist_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise gauge distance between (..., 3) canonical-coordinate arrays.

    Each candidate u = p * (q * gamma)^{-1} is evaluated in the float
    operation order of ``mul_arr``/``inv_arr``, so its norm is bit for bit
    the one a brute-force scan over the lattice window would give (x - y
    rounds as x + (-y) does).  The candidates lie on a leading axis.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    qx, qy, qz = q[..., 0], q[..., 1], q[..., 2]
    dy = py - qy
    lead = (-1,) + (1,) * dy.ndim   # the candidate axis, before the broadcast shape
    # Where px == qx, copysign still gives a lift of +-1: a candidate with |ux| = 1.
    b = np.copysign(_GAUGE_B.reshape(lead), dy)
    gx = qx + np.copysign(_GAUGE_A.reshape(lead), px - qx)     # (4, ...)
    gy = qy + b
    qxb = qx * b
    gxy = gx * gy
    pgy = px * gy
    ux = px - gx
    uy = py - gy
    half = 0.5 * ux * uy

    def central(c):
        # Symmetrized central coordinate of the candidates with lattice c.
        return ((pz + (gxy - ((qz + c) + qxb))) - pgy) - half

    n = np.abs(central(np.floor(central(0.0)) + _GAUGE_C.reshape((2,) + lead)))
    n = np.minimum(n[0], n[1])
    np.maximum(n, np.abs(ux), out=n)
    np.maximum(n, np.abs(uy), out=n)
    n = np.minimum(n[:2], n[2:])
    return np.minimum(n[0], n[1])


def floor_arr(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """max(min_a |ux_a|, min_b |uy_b|), which every gauge candidate is at least.

    The minima run over the gauge's own lifts {0, s} (module docs), in its
    float operations, so each is the gauge's bit for bit.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out = []
    for c in (0, 1):
        pc, qc = p[..., c], q[..., c]
        d = pc - qc
        u = np.copysign(1.0, d)
        u += qc  # the lift q + s
        np.abs(np.subtract(pc, u, out=u), out=u)
        out.append(np.minimum(np.abs(d, out=d), u, out=u))
    return np.maximum(out[0], out[1], out=out[0])
