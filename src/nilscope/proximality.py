"""Witness searches for the regionally proximal relations.

Two points are regionally proximal (RP) when arbitrarily small
perturbations x', y' of them can be brought epsilon-close by a common
power of T; bi-regional proximality (RP2) asks for closeness at the
three times m, n and m+n simultaneously, and the strong variant (RPDS)
asks for both orbits to return epsilon-close to the *unperturbed* y at
those three times.  On the Heisenberg system RP identifies exactly the
fibers of the projection to the maximal equicontinuous factor, while
RP2 is the identity, so distinct points exhibit a strictly positive
empirical floor.  On torus rotations all three relations are trivial
and every distance is shift-invariant, which makes rotations the
reference case for floor calibration.

A search minimizes, over a deterministic low-discrepancy set of
perturbations and all time shifts within the budget, the max of the
defining distances of the relation.  The minimum is an upper bound on
the true infimum: small values are witnesses, large values are
empirical floors, never proofs of failure.  One search body
(``_search``) serves all three relations; they differ only in the
number k of time axes (1 for RP's n, 2 for the RP2/RPDS times m, n,
m+n) and in what a pair compares.

Pairs are visited in order of their perturbation cost.  A pair is first
cut by the kind's ``floor``, the circle sup-distance d_Z of the factor
coordinates: the factor map is equivariant onto a rotation, an isometry
of d_Z, and the distance is at least d_Z.  So at every time shift the
RP and RP2 costs are at least d_Z(pi x', pi y'), and the RPDS cost,
which measures both orbits against y, at least half of it (triangle
inequality on Z).  A pair whose bound, less a margin for the orbit
rounding that grows with n_max (see ``_factor_bound``), is at or above
the best value so far is skipped, and its tables are not built.
``_pair_min`` scans each remaining pair's time shifts below the best
value so far.  Every vertex reads the pair's one cost table f: RP's
minimum is a 1-d argmin, and an RP2/RPDS cell (m, n) costs
max(f(m), f(n), f(m+n)), so only the m with f(m) below the bound are
kept, and a pair with none is dropped.  Few kept shifts are gathered cell
by cell, many read as row blocks of a Hankel view of f over their span,
whose other rows and columns read f at or above the bound.  Neither cut
changes the record, because the pair loop only accepts a strict
improvement and every tie of an improving minimum lies inside the
scanned part of the grid.

Determinism: the perturbation offsets are a Halton point set in group
coordinates scaled to the perturbation radius, shared between the two
base points, so records are reproducible and the objective is symmetric
in (x, y).  The seed selects a disjoint stretch of the Halton stream
and must lie in [0, 2**43), so that every index fits in int64.  The
scanned set grows with n_max, perturb_samples and time_cap_ms, and
best-so-far retention makes eps_achieved nonincreasing in those
components; enlarging perturb_radius grows the searched region but
reshapes the finite sample, so monotonicity in the radius holds only up
to sampling resolution.  time_cap_ms is a wall-clock deadline, so a
record that it cuts short (``exhausted`` False) depends on timing.

The searches are kind-agnostic: perturbations (left translation by the
offsets), orbits and distances come from the ``systems.System`` of the
spec, so one driver serves the Heisenberg nilsystem and torus rotations.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .cubes import _GRID_CHUNK, Oct, vertex_shifts
from .systems import _SHIFT_LIMIT, System, SystemSpec, system_for

__all__ = [
    "SearchBudget",
    "WitnessRecord",
    "DEFAULT_BUDGET",
    "SEED_LIMIT",
    "rp_search",
    "rp2_search",
    "rpds_search",
    "witness_to_cube",
]

_HALTON_PRIMES = (2, 3, 5)
_SEED_STRIDE = 1 << 20
SEED_LIMIT = 1 << 43  # seed * _SEED_STRIDE + sample index stays below 2**63
# Time axes of each relation: RP's shift n; the RP2 and RPDS times m, n (and m+n).
_AXES = {"RP": 1, "RP2": 2, "RPDS": 2}
# Kept shifts up to which gathering cells beats Hankel blocks (replayed witness
# pair scans: the gather is faster below about 96, the blocks above about 128).
_GATHER_MAX = 96


@dataclass(frozen=True)
class SearchBudget:
    """Scan bounds for a proximality witness search.

    The tables of RP2 and RPDS read T^s x' at |s| <= 2 n_max, so n_max is
    at most half the orbit shift limit ``systems._SHIFT_LIMIT`` (500,000).
    The pair loop holds about six K x K arrays of 8-byte entries for K =
    perturb_samples (pair bases, their order and the factor bounds), so
    K <= 1024 keeps them near 50 MB (the peak that tracemalloc reads for
    a search at n_max = 10); it also keeps each seed's samples inside its
    stride of the Halton stream.
    """

    n_max: int = 200
    perturb_samples: int = 16
    perturb_radius: float = 0.05
    time_cap_ms: int = 60_000

    def __post_init__(self):
        if self.n_max <= 0 or self.perturb_samples <= 0:
            raise ValueError("n_max and perturb_samples must be positive")
        if self.n_max > _SHIFT_LIMIT // 2:
            raise ValueError(f"n_max must be <= {_SHIFT_LIMIT // 2}")
        if self.perturb_samples > 1024:
            raise ValueError("perturb_samples must be <= 1024")
        # Every distance here is below 1, so a larger ball is the whole space.
        if not 0 < self.perturb_radius <= 1:
            raise ValueError("perturb_radius must be in (0, 1]")
        if self.time_cap_ms <= 0:
            raise ValueError("time_cap_ms must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class WitnessRecord:
    """Best witness found by a proximality search.

    ``eps_achieved`` is the minimized max of the relation's defining
    distances; ``exhausted`` records whether the full budget was
    scanned (False when the time cap cut the scan short).  For RP the
    single time shift is reported in ``n`` and ``m`` is 0.
    """

    eps_achieved: float
    m: int
    n: int
    x_prime: object
    y_prime: object
    relation: str
    exhausted: bool


def _halton(index: np.ndarray, base: int) -> np.ndarray:
    result = np.zeros(index.shape, dtype=np.float64)
    f = 1.0
    i = index.astype(np.int64).copy()
    while np.any(i > 0):
        f /= base
        result += f * (i % base)
        i //= base
    return result


def _offsets(system: System, budget: SearchBudget, seed: int) -> np.ndarray:
    """Perturbation offsets: row 0 is zero, the rest fill the radius ball.

    A Halton point set in the cube [-r, r]^ndim, moved onto the distance
    ball of radius r by ``system.ball``.  Each seed owns a fixed stride of
    the Halton stream, which keeps the set a prefix of itself as
    perturb_samples grows, so enlarging it only ever extends the scanned set.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**43), got {seed}")
    idx = np.arange(1, budget.perturb_samples) + seed * _SEED_STRIDE
    cube = np.stack([_halton(idx, p) for p in _HALTON_PRIMES[: system.ndim]], axis=-1)
    pts = system.ball((2.0 * cube - 1.0) * budget.perturb_radius)
    return np.vstack([np.zeros((1, system.ndim)), pts])


def _pair_order(bx: np.ndarray, by: np.ndarray):
    """(i, j) pairs sorted by max(bx[i], by[j]), ties in (i, j) order."""
    base = np.maximum(bx[:, None], by[None]).ravel()
    order = np.argsort(base, kind="stable")  # flat index i * len(by) + j breaks ties
    ii, jj = np.divmod(order, len(by))
    return ii, jj, base[order]


def _pair_min(f: np.ndarray, n_max: int, k: int, bound: float = np.inf):
    """Minimize max of f at the vertex shifts of (n_1, ..., n_k), |n_j| <= n_max.

    ``f`` covers shifts [-k n_max, k n_max] and serves every vertex of the
    pair scan: k = 1 is RP's shift n, k = 2 the RP2/RPDS times m, n, m+n.
    Returns (inner, m, n), m = 0 for k = 1, ties of the computed costs
    resolved by (|m| + |n|, m, n); None unless the minimum is below bound.
    On a torus rotation every shift has the same exact cost, but the
    computed costs round apart, so m and n are float noise among them.
    """
    if k == 1:
        at = np.flatnonzero(f == f.min()) - n_max  # the shifts at the minimum, ascending
        n = at[np.abs(at).argmin()]
        return (float(f[n + n_max]), 0, int(n)) if f[n + n_max] < bound else None
    head = f[n_max : 3 * n_max + 1]  # f(m) for |m| <= n_max
    kept = np.flatnonzero(head < bound)  # m + n_max for each m with f(m) below bound
    if not len(kept):
        return None
    if len(kept) <= _GATHER_MAX:
        # f(m + n) sits at f[(m + n_max) + (n + n_max)].
        blocks = [(kept, kept, f[kept[:, None] + kept])]
    else:
        # A Hankel view, box[i, j] = f[span[i] + span[j]], in blocks of about _GRID_CHUNK cells.
        span = np.arange(kept[0], kept[-1] + 1)
        box = np.lib.stride_tricks.as_strided(f[2 * span[0] :], (len(span),) * 2, f.strides * 2)
        step = max(1, _GRID_CHUNK // len(span))
        blocks = ((span[i : i + step], span, box[i : i + step]) for i in range(0, len(span), step))
    best = (bound,)  # sorts after every (inner, |m| + |n|, m, n) with inner < bound
    for rows, cols, obj in blocks:
        obj = np.maximum(obj, head[rows, None])
        np.maximum(obj, head[cols], out=obj)
        flat = obj.ravel()
        v = flat[flat.argmin()]
        if v <= best[0]:
            # The cells at the minimum come in lexicographic (m, n) order.
            m, n = np.divmod(np.flatnonzero(flat == v), len(cols))
            m, n = rows[m] - n_max, cols[n] - n_max
            shell = np.abs(m) + np.abs(n)
            t = shell.argmin()
            best = min(best, (float(v), int(shell[t]), int(m[t]), int(n[t])))
    return None if len(best) == 1 else (best[0], *best[2:])


def _factor_bound(system, xp, yp, budget, relation):
    """K x K lower bounds on the inner minimum of each pair, less their margin.

    Entry (i, j) is at most the pair objective at every time shift, as
    computed.  ``system.floor`` is d_Z, the circle sup-distance of the
    factor coordinates; the factor map is equivariant onto a rotation,
    an isometry of d_Z, and the distance is at least d_Z.  So RP and RP2
    cost at least d_Z(pi x', pi y') at every shift.  RPDS measures both
    orbits against the unperturbed y, so by the triangle inequality on Z
    the larger of its two return distances is at least half of that.

    The margin covers the float rounding, with u = 2**-53 and
    a = max(|alpha|, |beta|).  A factor coordinate of the orbit at shift
    s is s*alpha (or s*beta), plus the coordinate, reduced mod 1: three
    roundings, at most (2|s| a + 2) u off the exact rotation; |s| <= k n_max
    (k = 1 for RP, 2 for RP2 and RPDS).  Both orbits move; the distance
    on the orbits rounds by at most 4u.  The bound itself rounds by at
    most 2u: ``floor_arr`` rounds twice, at q + a and at p - (q + a),
    each by at most u on lifts below 2 (the torus distance by 1.5u).  So
    the computed objective is at least the computed bound less
    (4 k n_max a + 10) u, and the margin (k n_max a + 4) * 2**-50 is
    more than twice that (for RPDS, four times the halved slack).
    """
    k = _AXES[relation]
    a = max(abs(system.spec.alpha), abs(system.spec.beta))
    margin = (k * budget.n_max * a + 4.0) * 2.0**-50
    bound = system.floor(xp[:, None], yp[None])
    return (0.5 if relation == "RPDS" else 1.0) * bound - margin


def _run_search(system, x, y, xp, yp, budget, relation, pair_objective):
    """Shared scan driver: perturbation pairs in base-cost order, best-so-far.

    ``xp`` and ``yp`` are the coordinates of the perturbed points x', y'.
    ``pair_objective(i, j, bound)`` returns (inner, m, n), or None when it
    can tell that inner >= bound (the best eps so far; inf for the first
    pair), since such a pair cannot improve the record.  A pair whose
    factor bound (``_factor_bound``) is already at or above the best eps
    is skipped without calling it, for the same reason.
    """
    deadline = time.monotonic() + budget.time_cap_ms / 1000.0
    bx, by = system.dist(np.stack((xp, yp)), np.stack((system.row(x), system.row(y)))[:, None])
    ii, jj, base = _pair_order(bx, by)
    lower = _factor_bound(system, xp, yp, budget, relation)

    best = None  # (eps, m, n, i, j)
    exhausted = True
    for i, j, b in zip(ii, jj, base):
        if best is not None and b >= best[0]:
            break
        # The first pair is always evaluated, so a cap that expires during
        # set-up still yields a record (marked not exhausted).
        if best is not None and time.monotonic() > deadline:
            exhausted = False
            break
        if best is not None and lower[i, j] >= best[0]:
            continue
        found = pair_objective(int(i), int(j), np.inf if best is None else best[0])
        if found is None:
            continue
        inner, m, n = found
        eps = max(float(b), inner)
        if best is None or eps < best[0]:
            best = (eps, m, n, int(i), int(j))

    eps, m, n, i, j = best
    return WitnessRecord(
        eps_achieved=eps,
        m=m,
        n=n,
        x_prime=system.point(xp[i]),
        y_prime=system.point(yp[j]),
        relation=relation,
        exhausted=exhausted,
    )


def _search(spec: SystemSpec, x, y, budget: SearchBudget, seed: int, relation: str):
    """The witness search of a relation, over its k = _AXES[relation] time axes.

    Each perturbed point gets one cached table over the shifts
    [-k n_max, k n_max]: its orbit for RP and RP2, its return distance to
    the unperturbed y for RPDS.  A pair's cost at a shift is the distance
    of the two orbits, or for RPDS the larger of the two returns.
    """
    system = system_for(spec)
    offsets = _offsets(system, budget, seed)
    rows = system.rows((x, y), ("x", "y"))
    xp, yp = system.translate(offsets, rows[:, None])
    N, k = budget.n_max, _AXES[relation]
    span = np.arange(-k * N, k * N + 1)
    if relation == "RPDS":
        table, cost = (lambda p: system.dist(system.orbit(p, span), rows[1])), np.maximum
    else:
        table, cost = (lambda p: system.orbit(p, span)), system.dist
    table_x = functools.cache(lambda i: table(xp[i]))
    table_y = functools.cache(lambda j: table(yp[j]))

    def objective(i: int, j: int, bound: float):
        return _pair_min(cost(table_x(i), table_y(j)), N, k, bound)

    return _run_search(system, x, y, xp, yp, budget, relation, objective)


def rp_search(
    spec: SystemSpec, x, y, budget: SearchBudget = DEFAULT_BUDGET, seed: int = 0
) -> WitnessRecord:
    """Regional-proximality witness: one common shift n brings x', y' together."""
    return _search(spec, x, y, budget, seed, "RP")


def rp2_search(
    spec: SystemSpec, x, y, budget: SearchBudget = DEFAULT_BUDGET, seed: int = 0
) -> WitnessRecord:
    """Bi-regional-proximality witness: closeness at times m, n and m+n."""
    return _search(spec, x, y, budget, seed, "RP2")


def rpds_search(
    spec: SystemSpec, x, y, budget: SearchBudget = DEFAULT_BUDGET, seed: int = 0
) -> WitnessRecord:
    """Strong bi-regional-proximality witness: returns to y itself.

    Both perturbed orbits must pass epsilon-close to the unperturbed y
    at times m, n and m+n, so the per-shift cost is the pointwise max
    of the two return distances.
    """
    return _search(spec, x, y, budget, seed, "RPDS")


def witness_to_cube(
    record: WitnessRecord,
    spec: SystemSpec,
    x=None,
    y=None,
) -> tuple[Oct, float]:
    """Assemble the octuple (x, y, a, a, b, b, c, c) from an RP2 witness.

    The proxies are a = T^m x', b = T^n x', c = T^{m+n} x'.  The
    returned residual is the max vertexwise distance between the
    octuple and the configuration the witness certifies, namely
    (x', y', T^m x', T^m y', T^n x', T^n y', T^{m+n} x', T^{m+n} y');
    it is bounded by the witness distances, hence at most
    8 * eps_achieved.  Callers wanting an independent membership score
    can run cubes.pped_search on the octuple.
    """
    if record.relation != "RP2":
        raise ValueError(f"witness_to_cube needs an RP2 record, got {record.relation}")
    system = system_for(spec)
    xp, yp = record.x_prime, record.y_prime
    x0 = x if x is not None else xp
    y0 = y if y is not None else yp
    shifts = np.array(vertex_shifts((record.m, record.n))[1:])
    xs = system.orbit(system.row(xp), shifts)
    ys = system.orbit(system.row(yp), shifts)
    a, b, c = (system.point(row) for row in xs)
    oct_ = Oct(x0, y0, a, a, b, b, c, c)
    got = np.array([system.row(v) for v in oct_.vertices])
    certified = np.array([system.row(xp), system.row(yp), xs[0], ys[0], xs[1], ys[1], xs[2], ys[2]])
    return oct_, float(system.dist(got, certified).max())
