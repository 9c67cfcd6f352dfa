"""Reference arithmetic the benchmark uses to make inputs and check outputs.

Nothing here imports nilscope: the inputs the benchmark feeds the CLI and
the checks it applies to the CLI's reports must not move when the code
under test changes.

- Heisenberg orbits are evaluated exactly with ``fractions.Fraction`` from
  the float system parameters, then rounded once to float.
- The gauge is the brute-force minimum of the symmetrized box norm
  ``max(|x|, |y|, |z - xy/2|)`` of ``p * (q * gamma)^-1`` over the lattice
  window ``gamma in {-2..2}^3``, the definition in the nilscope docs.
- Torus rotations use the flat sup metric on the circle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_BELOW_ONE = math.nextafter(1.0, 0.0)

# The default Heisenberg translation of the nilscope CLI (alpha, beta, gamma0).
DEFAULT_ALPHA = math.sqrt(2.0) - 1.0
DEFAULT_BETA = math.sqrt(3.0) - 1.0

_WINDOW = np.array(
    [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)],
    dtype=np.float64,
)


def _unit(v: Fraction) -> float:
    w = float(v - math.floor(v))
    return _BELOW_ONE if w >= 1.0 else w


def nil_orbit(system: tuple[float, float, float], base, n: int) -> tuple[float, float, float]:
    """Canonical coordinates of T^n base on the Heisenberg nilmanifold.

    t^n = (n a, n b, n c + n(n-1)/2 a b), multiplied on the left of base and
    reduced into [0, 1)^3 by a right lattice element, all in exact arithmetic.
    """
    a, b, c = (Fraction(v) for v in system)
    x0, y0, z0 = (Fraction(v) for v in base)
    X = n * a
    Y = n * b
    Z = n * c + Fraction(n * (n - 1), 2) * a * b
    gx, gy, gz = X + x0, Y + y0, Z + z0 + X * y0
    fy = math.floor(gy)
    z1 = gz - gx * fy
    return (_unit(gx), _unit(gy), _unit(z1))


def torus_orbit(vector: tuple[float, ...], base, n: int) -> tuple[float, ...]:
    """Canonical coordinates of base + n * vector on the torus."""
    return tuple(_unit(Fraction(c) + n * Fraction(v)) for c, v in zip(base, vector))


def nil_dist(p, q) -> float:
    """Gauge distance between two canonical points of the nilmanifold."""
    px_, py_, pz_ = (float(v) for v in p)
    qx = q[0] + _WINDOW[:, 0]
    qy = q[1] + _WINDOW[:, 1]
    qz = q[2] + _WINDOW[:, 2] + q[0] * _WINDOW[:, 1]
    # inverse of (qx, qy, qz) is (-qx, -qy, -qz + qx qy); then p * that.
    ux = px_ - qx
    uy = py_ - qy
    uz = pz_ - qz + qx * qy - px_ * qy
    norm = np.maximum(np.maximum(np.abs(ux), np.abs(uy)), np.abs(uz - 0.5 * ux * uy))
    return float(norm.min())


def torus_dist(p, q) -> float:
    """Sup over coordinates of the circle distance."""
    best = 0.0
    for a, b in zip(p, q):
        d = abs(a - b) % 1.0
        best = max(best, min(d, 1.0 - d))
    return best


class NilSystem:
    """The default Heisenberg system, as the CLI runs it without --alpha/--beta."""

    params = (DEFAULT_ALPHA, DEFAULT_BETA, 0.0)

    def orbit(self, base, n: int):
        return nil_orbit(self.params, base, n)

    def dist(self, p, q) -> float:
        return nil_dist(p, q)


class TorusSystem:
    """The default 2-torus rotation, as the CLI runs it for --system torus-rotation."""

    params = (DEFAULT_ALPHA, DEFAULT_BETA)

    def orbit(self, base, n: int):
        return torus_orbit(self.params, base, n)

    def dist(self, p, q) -> float:
        return torus_dist(p, q)


def pped_objective(system, v0, targets: dict[int, tuple], mnp: tuple[int, int, int]) -> float:
    """Max distance from T^{shift_v} v0 to each target vertex v of an octuple.

    Vertex v carries the shift b1*m + b2*n + b3*p for the bits (b1, b2, b3)
    of v, the indexing the parallelepiped commands document.
    """
    m, n, p = mnp
    worst = 0.0
    for v, target in targets.items():
        shift = (v & 1) * m + ((v >> 1) & 1) * n + ((v >> 2) & 1) * p
        worst = max(worst, system.dist(system.orbit(v0, shift), target))
    return worst


def witness_eps(system, relation: str, x, y, xp, yp, m: int, n: int) -> float:
    """The objective a proximality record claims, recomputed from its witness.

    Every relation pays the perturbation cost max(d(x', x), d(y', y)).  RP
    adds d(T^n x', T^n y'); RP2 adds the same at the times m, n and m+n;
    RPDS adds d(T^s x', y) and d(T^s y', y) at those three times.
    """
    eps = max(system.dist(xp, x), system.dist(yp, y))
    times = (n,) if relation == "RP" else (m, n, m + n)
    for s in times:
        a = system.orbit(xp, s)
        b = system.orbit(yp, s)
        if relation == "RPDS":
            eps = max(eps, system.dist(a, y), system.dist(b, y))
        else:
            eps = max(eps, system.dist(a, b))
    return eps


def read_sequence_csv(path) -> tuple[int, np.ndarray]:
    """(n_min, complex values) of an ``n,re,im`` file with contiguous n."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ns = rows[:, 0].astype(np.int64)
    if not np.array_equal(ns, np.arange(ns[0], ns[0] + len(ns))):
        raise ValueError(f"{path}: indices are not contiguous")
    return int(ns[0]), rows[:, 1] + 1j * rows[:, 2]


def write_sequence_csv(path, n_min: int, values: np.ndarray) -> None:
    """Write values in the CLI's sequence format; repr keeps every float exact."""
    lines = ["n,re,im"]
    for i, v in enumerate(values):
        lines.append(f"{n_min + i},{float(v.real)!r},{float(v.imag)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def regularity_margin(order: int, M: int, S: int) -> int:
    """How far from the window edge the first base index k may sit."""
    return max(M + S, 2 * S) if order == 1 else max(M + 2 * S, 3 * S)


def hypothesis_shifts(order: int, m: int, n: int, p: int | None) -> tuple[int, ...]:
    if order == 1:
        return (m, n)
    return (m, n, m + n, p, m + p, n + p)


def condition_holds(values: np.ndarray, n_min: int, k: int, s: int, M: int, delta: float) -> bool:
    """max over i in [k-M, k+M] of |u_{i+s} - u_i| < delta."""
    i = np.arange(k - M, k + M + 1) - n_min
    return bool(np.abs(values[i + s] - values[i]).max() < delta)
