"""Dynamical parallelograms and parallelepipeds.

The parallelogram set of a system is the closure in X^4 of the orbit
configurations (x, T^m x, T^n x, T^{m+n} x); the parallelepiped set is
the closure in X^8 of (x, T^m x, T^n x, T^{m+n} x, T^p x, T^{m+p} x,
T^{n+p} x, T^{m+n+p} x).  Vertex v of an octuple carries the shift
b1*m + b2*n + b3*p where (b1, b2, b3) are the bits of v (bit 0 <-> m,
bit 1 <-> n, bit 2 <-> p).  ``vertex_shifts`` is this indexing for any
number of axes; the witness search and the regularity scans share it.

Membership tests are asymmetric by design:

- Parallelogram membership is *exact*: a quadruple is a parallelogram
  iff its projections to the maximal equicontinuous factor satisfy
  pi(v0) - pi(v1) - pi(v2) + pi(v3) = 0 on the torus, so the residual
  of that combination decides membership outright for the distal
  minimal systems implemented here.

- Parallelepiped membership is a one-sided witness search: a small
  residual at horizon H certifies proximity to the closure, while a
  large residual is never a disproof (the closure is not decidable
  from finite data).

The witness search exploits that each vertex of a sampled octuple
depends only on its total shift: the objective for (m, n, p) is a max
of seven table lookups D_v[shift_v], so the horizon cube can be scanned
with array arithmetic.  Scan order is by shells of |m| + |n| + |p| with
lexicographic (m, n, p) inside a shell; the search early-exits at the
first witness below ``resid_tol`` and otherwise returns the global
argmin (ties broken by shell order).  One block scan serves three
queries: the early exit and the argmin (``_cube_min``), and the cells
below twice the residual behind the completion spread
(``_cells_below``).  It is exact while pruning: a cell's
objective is at least each of its single-axis lookups D_1[m], D_2[n],
D_4[p], so an axis value whose lookup is at or above the bound cannot
lie under any cell below it, and an axis left empty ends the scan
before any block is formed.  The early exit takes resid_tol as the
bound; the argmin takes the next float above U, the best objective over
each axis's 12 smallest lookups, which keeps every cell tied at the
minimum.  A kept sub-grid of one cell, as a member octuple leaves at
resid_tol, is read by scalar lookups; a larger one is scanned in blocks
of about 2**21 cells, on one thread.  The tie-break takes, in each
block, the first qualifying cell of the smallest shell; a block's axes
ascend, so its cells are in lexicographic order and no cell is sorted.
The early exit feeds m to the blocks in order of |m|, and stops once
every m left lies beyond the best shell.

A table entry holds a floor, the kind's bit-exact lower bound on the
distance (on X the circle distance of the factor coordinates), until a
query's bound lies above it and it is filled: below resid_tol for the
early exit; for U each single-axis table and the seed grid's entries;
below twice the residual for the spread (none left to fill when that
is at most resid_tol).  A cell that reads a floor is at or above the
bound, so every query keeps the cells that exact tables would.  The
argmin scan reads floors below its bound too; floors only
under-estimate, so a winner that reads none is the exact argmin, and
otherwise the entries below the bound are filled and the scan repeated.

The module is kind-agnostic: orbits, distances and factor coordinates
come from the ``systems.System`` of the spec, so the same code serves
the Heisenberg nilsystem and torus rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .systems import _SHIFT_LIMIT, RotationSystem, System, SystemSpec, system_for

__all__ = [
    "Quad",
    "Oct",
    "CompletionResult",
    "PpedWitness",
    "FacePreconditionError",
    "DEFAULT_HORIZON",
    "DEFAULT_RESID_TOL",
    "DEFAULT_FACE_TOL",
    "DEFAULT_PGRAM_TOL",
    "vertex_shifts",
    "sample_pgram",
    "sample_pped",
    "pgram_residual",
    "face",
    "COMPLETION_FACES",
    "euclid_perm_quad",
    "euclid_perm_oct",
    "n_square_perms",
    "n_cube_perms",
    "pped_search",
    "pped_complete",
]

DEFAULT_HORIZON = 200
DEFAULT_RESID_TOL = 1e-3
DEFAULT_FACE_TOL = 1e-6
DEFAULT_PGRAM_TOL = 1e-9

_GRID_CHUNK = 1 << 21  # target cells per scan block


@dataclass(frozen=True)
class Quad:
    """A quadruple of points: a parallelogram candidate."""

    v0: object
    v1: object
    v2: object
    v3: object

    @property
    def vertices(self) -> tuple:
        return (self.v0, self.v1, self.v2, self.v3)


@dataclass(frozen=True)
class Oct:
    """An octuple of points: a parallelepiped candidate."""

    v0: object
    v1: object
    v2: object
    v3: object
    v4: object
    v5: object
    v6: object
    v7: object

    @property
    def vertices(self) -> tuple:
        return (self.v0, self.v1, self.v2, self.v3, self.v4, self.v5, self.v6, self.v7)


@dataclass(frozen=True)
class PpedWitness:
    """Outcome of a parallelepiped witness search."""

    residual: float
    m: int
    n: int
    p: int
    early_exit: bool


@dataclass(frozen=True)
class CompletionResult:
    """Eighth vertex recovered from seven, with uniqueness diagnostics.

    ``spread`` is the largest distance between the returned x7 and the
    completions produced by any witness whose objective is within twice
    the best residual; on systems with a strong parallelepiped
    structure it stays comparable to the residual itself.  It is None
    when there are too many such witnesses to enumerate: more than 4096
    cells of the horizon cube lie below twice the residual, or the
    (m, n) values that pass the single-axis test span more than
    4 * 4096 pairs.  ``status``
    is "ok" when the residual beat the tolerance and "inconclusive"
    otherwise (never "not a parallelepiped": the search is one-sided).
    """

    x7: object
    residual: float
    witness_mnp: tuple[int, int, int]
    spread: float | None
    status: str


class FacePreconditionError(ValueError):
    """A completion input whose named face fails the parallelogram test."""

    def __init__(self, face_name: str, vertex_ids: tuple[int, ...], residual: float, tol: float):
        self.face_name = face_name
        self.vertex_ids = vertex_ids
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"face {face_name} {vertex_ids} has parallelogram residual "
            f"{residual:.3e} >= {tol:.3e}"
        )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def vertex_shifts(ns) -> list:
    """The shift at each vertex of {0,1}^k, in vertex order: bit j stands for ns[j].

    (m, n) gives [0, m, n, m+n]; (m, n, p) gives [0, m, n, m+n, p, m+p,
    n+p, m+n+p].  The entries may be ints or broadcastable arrays.
    """
    out = [0]
    for n in ns:
        out += [s + n for s in out]
    return out


def _orbit_points(spec: SystemSpec, base, shifts: list[int]) -> list:
    system = system_for(spec)
    return [system.point(row) for row in system.orbit(system.row(base, "base"), np.array(shifts))]


def sample_pgram(spec: SystemSpec, base, m: int, n: int) -> Quad:
    """The orbit quadruple (x, T^m x, T^n x, T^{m+n} x)."""
    return Quad(*_orbit_points(spec, base, vertex_shifts((m, n))))


def sample_pped(spec: SystemSpec, base, m: int, n: int, p: int) -> Oct:
    """The orbit octuple with shifts b1*m + b2*n + b3*p at vertex (b1, b2, b3)."""
    return Oct(*_orbit_points(spec, base, vertex_shifts((m, n, p))))


# ---------------------------------------------------------------------------
# Exact parallelogram test
# ---------------------------------------------------------------------------


def _pgram_residuals(coords: np.ndarray) -> np.ndarray:
    """The parallelogram residual of each quadruple of a (..., 4, ndim) coordinate array."""
    f = System.factor(coords)
    return RotationSystem.dist(f[..., 0, :] - f[..., 2, :], f[..., 1, :] - f[..., 3, :])


def pgram_residual(q: Quad) -> float:
    """Torus distance of pi(v0) - pi(v1) - pi(v2) + pi(v3) from zero.

    Zero exactly on parallelograms; for the distal minimal systems here
    a residual below tolerance decides membership.  The combination is
    evaluated as (v0 - v2) - (v1 - v3) so the diagonal and (a, b, a, b)
    patterns cancel exactly in float arithmetic.  The factor of every
    system here is a rotation, so the distance is the torus sup metric.
    A wrapper over the face kernel ``_pgram_residuals``.
    """
    return float(_pgram_residuals(np.array([v.as_tuple() for v in q.vertices], dtype=np.float64)))


# ---------------------------------------------------------------------------
# Faces and euclidean permutations
# ---------------------------------------------------------------------------

# axis a of an octuple fixes vertex bit 3 - a, so axis=1 side=0 is the
# bottom quadruple (v0, v1, v2, v3) and axis=3 side=1 is (v1, v3, v5, v7).
_FACE_INDEX = {
    (axis, side): tuple(v for v in range(8) if (v >> (3 - axis)) & 1 == side)
    for axis in (1, 2, 3)
    for side in (0, 1)
}

#: The three faces whose parallelogram property makes seven vertices completable.
COMPLETION_FACES = tuple((f"axis{a}-low", _FACE_INDEX[(a, 0)]) for a in (1, 2, 3))


def face(o: Oct, axis: int, side: int) -> Quad:
    """The requested combinatorial cube face, vertices in cube order."""
    if axis not in (1, 2, 3) or side not in (0, 1):
        raise ValueError(f"invalid face axis={axis} side={side}")
    verts = o.vertices
    return Quad(*(verts[i] for i in _FACE_INDEX[(axis, side)]))


def _label_map(k: int, sigma: tuple[int, ...], refl: int) -> tuple[int, ...]:
    # Output bit j reads input bit sigma[j], then the reflection mask is
    # XORed per output axis.
    out = []
    for v in range(1 << k):
        w = 0
        for j in range(k):
            bit = (v >> sigma[j]) & 1
            bit ^= (refl >> j) & 1
            w |= bit << j
        out.append(w)
    return tuple(out)


def _perm_tables(k: int) -> list[tuple[int, ...]]:
    # permutations yields the axis permutations in lexicographic order.
    return [_label_map(k, sigma, refl)
            for sigma in itertools.permutations(range(k)) for refl in range(1 << k)]


#: (name, shape, vertex label maps by perm_id) of the symmetries of the k-cube, k = 2 and 3.
_SYMMETRIES = {2: ("square", Quad, _perm_tables(2)), 3: ("cube", Oct, _perm_tables(3))}


def _euclid_perm(k: int, cube, perm_id: int):
    name, shape, maps = _SYMMETRIES[k]
    if not 0 <= perm_id < len(maps):
        raise ValueError(f"{name} perm_id must be in [0, {len(maps)}), got {perm_id}")
    label_map = maps[perm_id]
    out = [None] * len(label_map)
    for v, point in enumerate(cube.vertices):
        out[label_map[v]] = point
    return shape(*out)


def n_square_perms() -> int:
    return len(_SYMMETRIES[2][2])


def n_cube_perms() -> int:
    return len(_SYMMETRIES[3][2])


def euclid_perm_quad(q: Quad, perm_id: int) -> Quad:
    """One of the 8 euclidean symmetries of the square acting on vertex labels.

    perm_id = sigma_index * 4 + reflection_mask, with axis permutations
    in lexicographic order; id 0 is the identity.
    """
    return _euclid_perm(2, q, perm_id)


def euclid_perm_oct(o: Oct, perm_id: int) -> Oct:
    """One of the 48 euclidean symmetries of the cube acting on vertex labels.

    perm_id = sigma_index * 8 + reflection_mask, with axis permutations
    in lexicographic order; id 0 is the identity.
    """
    return _euclid_perm(3, o, perm_id)


# ---------------------------------------------------------------------------
# Parallelepiped witness search
# ---------------------------------------------------------------------------

class _Tables(dict):
    """Tables {v: (offset, D)}, each D a row of one (vertex, shift) array of floors.

    One orbit of v0 over [-3H, 3H] serves the tables and ``advance``.
    An entry is exact once filled (see module docs); each fill is one call.
    The entries whose floor is below ``bound`` are filled at once, and
    ``below`` is the largest bound filled under so far.
    """

    def __init__(self, system: System, base, targets: dict, horizon: int, bound=np.inf):
        shifts = vertex_shifts((horizon,) * 3)
        offs = [shifts[v] for v in targets]
        self.top, self.dist, self.reach = max(offs), system.dist, 3 * horizon
        span = np.arange(-self.reach, self.reach + 1)
        cols = slice(self.reach - self.top, self.reach + self.top + 1)  # the shifts |s| <= top
        self.whole = system.orbit(system.row(base, "v0"), span)
        self.orbit = self.whole[cols]
        self.rows = system.rows(targets.values(), [f"v{v}" for v in targets])
        self.D = system.floor(self.orbit, self.rows[:, None])
        # Entries still at their floor; a torus floor is its distance.
        band = np.abs(span[cols]) <= np.array(offs)[:, None]
        self.todo = band & (system.floor is not system.dist)
        super().__init__((v, (off, self.D[i, self.top - off : self.top + off + 1]))
                         for i, (v, off) in enumerate(zip(targets, offs)))
        self.below = -np.inf
        self.fill_below(bound)

    def fill_below(self, bound: float):
        """Make exact every entry whose floor is below bound: none is left once bound <= below."""
        if bound > self.below:
            self.fill(self.D < bound)
            self.below = bound

    def advance(self, shifts):
        """Coordinates of T^s v0 for each shift s, |s| <= 3H (rows of the one orbit)."""
        return self.whole[self.reach + shifts]

    def fill(self, where):
        """Make exact, in one distance call, the entries of a (vertex, shift) mask."""
        i, j = np.nonzero(self.todo & where)
        if len(i):
            self.D[i, j] = self.dist(self.orbit[j], self.rows[i])
            self.todo[i, j] = False

    def fill_rows(self, vertices, width: int):
        """Make exact the entries |s| <= width of whole tables, in one broadcast call."""
        i = [k for k, v in enumerate(self) if v in vertices]
        cols = slice(self.top - width, self.top + width + 1)
        self.D[i, cols] = self.dist(self.orbit[cols], self.rows[i, None])
        self.todo[i, cols] = False

    def exact_at(self, ns) -> bool:
        """Whether every lookup of the cell ns reads an exact entry."""
        shifts = vertex_shifts(ns)
        return not any(self.todo[i, shifts[v] + self.top] for i, v in enumerate(self))


def _order_key(*ns: int) -> tuple[int, ...]:
    """Scan order of a cell: shell sum |n_j|, then lexicographic."""
    return (sum(abs(n) for n in ns), *ns)


def _prune_axes(tables, axes, bound: float):
    """The axes without the values whose single-bit lookup is >= bound (exact).

    None at the first axis left empty: no cell is below bound.
    """
    kept = []
    for j, axis in enumerate(axes):
        table = tables.get(1 << j)
        if table is not None:
            off, D = table
            axis = axis[D[axis + off] < bound]
        if not len(axis):
            return None
        kept.append(axis)
    return kept


def _cube_blocks(tables, kept, sort: bool = False):
    """Yield (grids, objective) for blocks of about _GRID_CHUNK cells of the grid.

    Blocks cut kept[0] (each cut sorted with ``sort``); grids[j] is the
    block's axis j shaped to broadcast.
    A cell's objective is max_v D_v[vertex_shifts(ns)[v] + off_v] over the
    tables {v: (off_v, D_v)}; each vertex gathers only over its bits' axes,
    and only the shifts of the tables' vertices are formed.  A block's
    cells come in lexicographic order.  No block when kept is None.
    """
    if kept is None:
        return
    k = len(kept)
    rows = max(1, _GRID_CHUNK // math.prod(len(a) for a in kept[1:]))
    for i in range(0, len(kept[0]), rows):
        head = kept[0][i : i + rows]
        block = [np.sort(head) if sort else head, *kept[1:]]
        grids = [a.reshape((1,) * j + (-1,) + (1,) * (k - 1 - j)) for j, a in enumerate(block)]
        obj = None
        for v, (off, D) in tables.items():
            lookup = D[sum((g for j, g in enumerate(grids) if v >> j & 1), off)]
            obj = lookup if obj is None else np.maximum(obj, lookup)
        # Only tables that miss an axis need the (slow) broadcast.
        shape = tuple(len(a) for a in block)
        yield grids, obj if obj.shape == shape else np.broadcast_to(obj, shape)


def _lone_cell(tables, kept):
    """(objective, ns) by scalar lookups when the kept grid is one cell, else None."""
    if kept is None or any(len(a) != 1 for a in kept):
        return None
    cell = tuple(int(a[0]) for a in kept)
    shifts = vertex_shifts(cell)
    return float(max(D[shifts[v] + off] for v, (off, D) in tables.items())), cell


def _cube_min(tables, axes, bound: float = np.inf, first: bool = False):
    """Best cell of the grid axes[0] x ... x axes[k-1] with objective below bound.

    Returns (objective, ns) for the minimum, ties broken by
    ``_order_key``, or with ``first`` for the first cell in that order;
    None when no cell is below bound.  The axes must ascend: a block's
    cells then come in lexicographic order, so its candidate is the
    first qualifying cell on the smallest shell, and nothing is sorted.
    """
    kept = _prune_axes(tables, axes, bound)
    lone = _lone_cell(tables, kept)
    if lone is not None:
        return lone if lone[0] < bound else None
    if first and kept is not None:
        kept[0] = kept[0][np.argsort(np.abs(kept[0]), kind="stable")]
    best, best_key, seen = None, None, 0
    for grids, obj in _cube_blocks(tables, kept, sort=first):
        seen += obj.shape[0]
        vmin = obj.min()
        if vmin < bound:
            shell = sum(np.abs(g) for g in grids)
            shell[obj >= bound if first else obj != vmin] = np.iinfo(np.int64).max
            at = np.unravel_index(shell.argmin(), obj.shape)
            cell = tuple(int(g.ravel()[c]) for g, c in zip(grids, at))
            val = float(obj[at])
            key = _order_key(*cell) if first else (val, _order_key(*cell))
            if best is None or key < best_key:
                best, best_key = (val, cell), key
        if first and best is not None and seen < len(kept[0]) and abs(kept[0][seen]) > best_key[0]:
            break
    return best


def _cells_below(tables, horizon: int, threshold: float, cap: int):
    """Every (m, n, p) in the horizon cube with objective below threshold.

    Lexicographic order; None when there are more than cap such cells,
    or when the first two pruned axes span more than 4 * cap pairs.
    """
    kept = _prune_axes(tables, [np.arange(-horizon, horizon + 1)] * 3, threshold)
    if kept is None:
        return []
    if len(kept[0]) * len(kept[1]) > 4 * cap:
        return None
    lone = _lone_cell(tables, kept)
    if lone is not None:
        return [lone[1]] if lone[0] < threshold else []
    cells = []
    for grids, obj in _cube_blocks(tables, kept):
        idx = np.nonzero(obj < threshold)
        if len(cells) + len(idx[0]) > cap:
            return None
        cells += zip(*(g.ravel()[c].tolist() for g, c in zip(grids, idx)))
    return cells


def _check_horizon(horizon: int) -> None:
    """1 <= horizon <= _SHIFT_LIMIT // 3 (333,333): the tables read one orbit
    T^s v0 over |s| <= 3H, the shift of vertex 7 at the cube's corners."""
    if horizon < 1:
        raise ValueError("horizon: must be >= 1")
    if horizon > _SHIFT_LIMIT // 3:
        raise ValueError(f"horizon: must be <= {_SHIFT_LIMIT // 3}")


def _search(system, base, targets, horizon, resid_tol):
    """Shared search core (see module docs); returns (residual, (m, n, p), early_exit, tables)."""
    tables = _Tables(system, base, targets, horizon, resid_tol)
    span = np.arange(-horizon, horizon + 1)
    hit = _cube_min(tables, [span] * 3, resid_tol, first=True)
    if hit is not None:
        return *hit, True, tables
    tables.fill_rows((1, 2, 4), horizon)
    seed = []
    for j in range(3):
        off, D = tables[1 << j]
        seed.append(np.sort(span[np.argsort(D[span + off])[:12]]))
    where = np.zeros_like(tables.todo)
    touched = vertex_shifts((seed[0][:, None, None], seed[1][:, None], seed[2]))
    for i, v in enumerate(tables):
        where[i, np.ravel(touched[v]) + tables.top] = True
    tables.fill(where)
    bound = np.nextafter(_cube_min(tables, seed)[0], np.inf)
    best = _cube_min(tables, [span] * 3, bound)
    if not tables.exact_at(best[1]):
        tables.fill_below(bound)
        best = _cube_min(tables, [span] * 3, bound)
    return *best, False, tables


def pped_search(
    spec: SystemSpec,
    o: Oct,
    horizon: int = DEFAULT_HORIZON,
    resid_tol: float = DEFAULT_RESID_TOL,
) -> PpedWitness:
    """Witness search for parallelepiped proximity of an octuple.

    Minimizes over (m, n, p) in the horizon cube the max distance from
    the octuple sampled at (m, n, p) from o.v0 to the corresponding
    vertices of o.  Early-exits at the first shell-order witness below
    resid_tol.
    """
    _check_horizon(horizon)
    targets = {v: o.vertices[v] for v in range(1, 8)}
    residual, mnp, early, _ = _search(system_for(spec), o.v0, targets, horizon, resid_tol)
    return PpedWitness(residual, mnp[0], mnp[1], mnp[2], early)


#: Vertex ids of the completion faces, one row per face.
_COMPLETION_IDS = np.array([ids for _, ids in COMPLETION_FACES])


def pped_complete(
    spec: SystemSpec,
    seven,
    horizon: int = DEFAULT_HORIZON,
    face_tol: float = DEFAULT_FACE_TOL,
    resid_tol: float = DEFAULT_RESID_TOL,
) -> CompletionResult:
    """Complete seven vertices to a parallelepiped.

    Requires the three low faces spanned by vertices 0..6 to pass the
    exact parallelogram test at face_tol; raises FacePreconditionError
    naming the first failing face otherwise.  The eighth vertex is
    T^{m+n+p} v0 for the witness minimizing the max mismatch on
    vertices 0..6.
    """
    _check_horizon(horizon)
    seven = tuple(seven)
    if len(seven) != 7:
        raise ValueError(f"need exactly 7 vertices, got {len(seven)}")
    coords = np.array([p.as_tuple() for p in seven], dtype=np.float64)
    faces = _pgram_residuals(coords[_COMPLETION_IDS]).tolist()
    for (name, ids), r in zip(COMPLETION_FACES, faces):
        if not r < face_tol:
            raise FacePreconditionError(name, ids, r, face_tol)

    targets = {v: seven[v] for v in range(1, 7)}
    system = system_for(spec)
    residual, mnp, _, tables = _search(system, seven[0], targets, horizon, resid_tol)
    x7 = tables.advance(sum(mnp))

    # Uniqueness diagnostic: completions from all witnesses within twice
    # the best residual; None when they are too many to enumerate.
    threshold = max(2.0 * residual, 1e-12)
    tables.fill_below(threshold)
    near = _cells_below(tables, horizon, threshold, cap=4096)
    spread = None
    if near is not None:
        alts = tables.advance(np.array([sum(cand) for cand in near], dtype=np.int64))
        spread = float(system.dist(x7, alts).max(initial=0.0))

    status = "ok" if residual < resid_tol else "inconclusive"
    return CompletionResult(system.point(x7), residual, mnp, spread, status)
