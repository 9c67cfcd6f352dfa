"""Windowed arithmetic-regularity certification of bounded complex sequences.

A sequence is almost periodic exactly when for every eps > 0 there are
M >= 1 and delta > 0 such that for all k, m, n: if |u_{i+m} - u_i| < delta
and |u_{i+n} - u_i| < delta for every i in [k-M, k+M], then
|u_{k+m+n} - u_k| < eps.  The order-2 analogue characterizes 2-step
sequences: the hypothesis asks the six conditions at shifts m, n, m+n,
p, m+p, n+p and the conclusion is |u_{k+m+n+p} - u_k| < eps.

The tests here scan a finite window, so verdicts are window-relative:
"no violation in window" is evidence, not proof.  The k range is
clipped so every accessed index exists; there is no wraparound or
padding.  Reports expose the number of hypothesis-satisfying tuples so
vacuous passes are visible.

Engine: one table per threshold t (delta, eps) holds |u_{i+q} - u_i| >= t
for q in [0, (d+1)S], one difference row per q; a shift s < 0 reads row
|s| moved back by |s|.  The hypothesis mask of a shift s over k is a
window test on row |s| of the delta table (an OR over the 2M+1 columns,
whose span doubles each pass), packed into bytes; the rows of every
shift in [-D, D] are two views of one table, a slice for s >= 0 and a
strided window view for s < 0, packed in one call.  Masks combine per
shift tuple with bitwise ANDs, so the per-tuple work is a handful of
vectorized byte operations.  ``run_test`` is the one entry to the scan;
``calibrate`` builds the tables once for its whole grid and hands them
to it.

An order-d shift tuple sits on the cube {0,1}^(d+1) as a parallelepiped
does (``cubes.vertex_shifts``): hypotheses at every vertex but 0 and the
all-ones one, the conclusion at the all-ones one.  One recursive scan
serves every order; it runs in one thread, as threads made every
measured scan slower.  Violations stay columns from the scan to the
report (``ViolationColumns``: base index, shifts, gap), extracted at
once for all tuples that share their first d shifts: one flat search of
their packed violation rows finds the nonzero bytes, in row-major order,
and only those bytes are unpacked.  ``RegularityReport.violations`` is
those columns; the CLI writes its JSON and CSV reports from them,
formatting each distinct value of a column once.
``naive_test`` is the independent oracle: the same semantics as
literal nested loops, which collect the same columns, so its report is
built and read exactly as the engine's is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cubes import vertex_shifts
from .nilsequence import SequenceSample

__all__ = [
    "RegularityParams",
    "RegularityReport",
    "ViolationColumns",
    "CalibrationResult",
    "run_test",
    "naive_test",
    "calibrate",
]


@dataclass(frozen=True)
class RegularityParams:
    """Window-relative regularity test parameters.

    ``k_range`` optionally restricts the base indices k (inclusive
    bounds); it is intersected with the largest range for which every
    accessed index k +- M +- shifts stays inside the sample window.
    """

    order: int
    eps: float
    delta: float
    M: int
    shift_max: int
    k_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if not (self.eps > 0 and self.delta > 0):
            raise ValueError("eps and delta must be positive")
        if self.M < 0:
            raise ValueError("M must be >= 0")
        if self.shift_max < 1:
            raise ValueError("shift_max must be >= 1")
        if self.k_range is not None and self.k_range[0] > self.k_range[1]:
            raise ValueError("empty k_range")

    @property
    def margin(self) -> int:
        """Distance from the window edge needed so every access is in range."""
        s = self.shift_max
        return max(self.M + self.order * s, (self.order + 1) * s)


@dataclass(frozen=True, eq=False)
class ViolationColumns:
    """Violations as columns, in scan order: base index ``k`` (int64),
    ``shifts`` (int64, one row of order + 1 shifts m, n[, p] per
    violation) and ``gap`` (float64)."""

    k: np.ndarray
    shifts: np.ndarray
    gap: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


@dataclass(eq=False)
class RegularityReport:
    """Scan outcome: violations plus non-vacuity accounting.

    ``violations`` holds the violations as columns, in scan order.
    ``hypothesis_count`` counts (k, shifts) combinations satisfying the
    hypothesis (each had its conclusion checked); ``scanned`` counts
    shift tuples examined; ``vacuous`` flags hypothesis_count == 0.
    """

    violations: ViolationColumns
    hypothesis_count: int
    scanned: int
    k_lo: int
    k_hi: int

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def vacuous(self) -> bool:
        return self.hypothesis_count == 0

    def to_dict(self) -> dict:
        """The report as a dict; ``violations`` stays the ``ViolationColumns``,
        which ``cli`` writes as a list of {k, m, n, p, gap} objects."""
        return {
            "violations": self.violations,
            "hypothesis_count": self.hypothesis_count,
            "scanned": self.scanned,
            "vacuous": self.vacuous,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
        }


def _effective_k_range(u: SequenceSample, params: RegularityParams) -> tuple[int, int]:
    lo = u.n_min + params.margin
    hi = u.n_max - params.margin
    if params.k_range is not None:
        lo = max(lo, params.k_range[0])
        hi = min(hi, params.k_range[1])
    if lo > hi:
        raise ValueError(
            f"no valid base indices: window [{u.n_min}, {u.n_max}] with margin "
            f"{params.margin} leaves nothing of k_range {params.k_range}"
        )
    return lo, hi


def _threshold_tables(values: np.ndarray, thresholds, Q: int) -> dict:
    """For each threshold t, the (Q+1, L) bool table |u[i+q] - u[i]| >= t
    (row q, column i; True past the end), built one row q at a time.  A
    shift q < 0 reads row |q| at i - |q|: a - b == -(b - a) bit for bit."""
    L = len(values)
    tables = {t: np.ones((Q + 1, L), dtype=bool) for t in thresholds}
    for q in range(min(Q, L - 1) + 1):
        d = np.abs(values[q:] - values[: L - q])
        for t, table in tables.items():
            np.greater_equal(d, t, out=table[q, : L - q])
    return tables


def _window_free(table: np.ndarray, M: int) -> np.ndarray:
    """free[q, j] is True when row q of table holds no True in columns [j, j + 2M]:
    sample values are finite, so that is max |u_{i+q} - u_i| < t over the window.
    Each pass doubles the span of the OR; the last ORs two overlapping spans."""
    w, span, hit = 2 * M + 1, 1, table
    while 2 * span <= w:
        hit = hit[:, :-span] | hit[:, span:]
        span *= 2
    if span < w:
        hit = hit[:, : span - w] | hit[:, w - span :]
    return ~hit


def _shift_rows(table: np.ndarray, start: int, nbits: int, D: int) -> np.ndarray:
    """Packed rows for the shifts s in [-D, D]: row |s| of table, nbits wide,
    from column start (at least D), moved back by |s| for s < 0.  Read from
    start every W - 1 entries, the flat table of width W gives table[j, start - j:]."""
    back = np.lib.stride_tricks.sliding_window_view(table.ravel()[start:], nbits)
    back = back[:: table.shape[1] - 1][D:0:-1]
    return np.packbits(np.concatenate((back, table[: D + 1, start : start + nbits])), axis=1)


# ---------------------------------------------------------------------------
# Packed-mask scan
# ---------------------------------------------------------------------------


def _scan(u: SequenceSample, params: RegularityParams, tables: dict, lo: int, hi: int):
    """Order-d scan of every shift tuple in [-S, S]^(d+1) at k in [lo, hi]: (columns, hypotheses).

    The first d shifts are fixed one nonempty row at a time, in
    lexicographic order; the last, t, is a block of 2S+1 packed rows.
    ``row`` holds the hypotheses at the nonzero vertices of the fixed
    shifts, ``block`` row t those at t plus each of their vertex shifts
    (the lower subcube).  Fixing one more shift a extends ``block`` with
    the vertices a + s, but for the all-ones one: that is the conclusion.
    The violations of each full tuple prefix are extracted at once, row
    by row and k ascending within a row, and joined into columns at the end.
    """
    S, d, M, eps = params.shift_max, params.order, params.M, params.eps
    nbits, b = hi - lo + 1, lo - u.n_min
    PM = _shift_rows(_window_free(tables[params.delta][: d * S + 1], M), b - M, nbits, d * S)
    VQ = _shift_rows(tables[eps], b, nbits, (d + 1) * S)

    def rows(table, s):
        """Rows t in [-S, S] of a table indexed by shift, at shifts s + t."""
        mid = len(table) // 2 + s
        return table[mid - S : mid + S + 1]

    chunks = [(np.zeros(0, np.int64), np.zeros((0, d + 1), np.int64), np.zeros(0))]
    hyp = 0

    def visit(ns: tuple, row, block):
        nonlocal hyp
        cand = block & row
        if len(ns) == d:
            hyp += int(np.bitwise_count(cand).sum())
            viol = cand & rows(VQ, sum(ns))
            # Unpack only the nonzero bytes, row-major; the packed padding bits are 0.
            r, byte = np.divmod(np.flatnonzero(viol.ravel() != 0), viol.shape[1])
            if len(r):
                hit, bit = np.divmod(np.flatnonzero(np.unpackbits(viol[r, byte]).view(bool)), 8)
                r, idx = r[hit], 8 * byte[hit] + bit
                shifts = np.empty((len(idx), d + 1), dtype=np.int64)
                shifts[:, :-1] = ns
                shifts[:, -1] = r - S
                i = b + idx
                diff = u.values[i + shifts.sum(axis=1)] - u.values[i]
                # hypot, not np.abs: it matches the scalar abs of naive_test bit for bit.
                chunks.append((lo + idx, shifts, np.hypot(diff.real, diff.imag) - eps))
            return
        shifts = vertex_shifts(ns)
        if len(ns) + 1 == d:
            shifts = shifts[:-1]  # a + sum(ns) + t is the conclusion
        for a_idx in np.flatnonzero(cand.any(axis=1)):
            a = int(a_idx) - S
            ext = block
            for s in shifts:
                ext = ext & rows(PM, a + s)
            visit((*ns, a), cand[a_idx], ext)

    # No coordinate fixed yet: no hypothesis on the row.
    visit((), np.uint8(0xFF), rows(PM, 0))
    return ViolationColumns(*(np.concatenate(c) for c in zip(*chunks))), hyp


def run_test(u: SequenceSample, params: RegularityParams, tables: dict | None = None):
    """Regularity scan of order params.order with the packed-mask engine; ``tables``
    (``_threshold_tables`` of u at delta and eps, Q >= (order+1) S) lets ``calibrate``
    share one set across its grid."""
    lo, hi = _effective_k_range(u, params)
    S, d = params.shift_max, params.order
    if tables is None:
        tables = _threshold_tables(u.values, (params.delta, params.eps), (d + 1) * S)
    columns, hyp = _scan(u, params, tables, lo, hi)
    return RegularityReport(columns, hyp, scanned=(2 * S + 1) ** (d + 1), k_lo=lo, k_hi=hi)


def naive_test(u: SequenceSample, params: RegularityParams) -> RegularityReport:
    """Oracle with literal loop semantics; identical reports to the engine."""
    lo, hi = _effective_k_range(u, params)
    vals = u.values
    n0 = u.n_min
    S = params.shift_max
    M = params.M
    delta = params.delta
    eps = params.eps

    def cond(k: int, s: int) -> bool:
        for i in range(k - M, k + M + 1):
            if abs(vals[i + s - n0] - vals[i - n0]) >= delta:
                return False
        return True

    ks, tuples, gaps = [], [], []
    hyp = 0
    scanned = 0
    for ns in itertools.product(range(-S, S + 1), repeat=params.order + 1):
        scanned += 1
        shifts = vertex_shifts(ns)
        for k in range(lo, hi + 1):
            if all(cond(k, s) for s in shifts[1:-1]):
                hyp += 1
                gap = abs(vals[k + shifts[-1] - n0] - vals[k - n0]) - eps
                if gap >= 0:
                    ks.append(k)
                    tuples.append(ns)
                    gaps.append(gap)
    columns = ViolationColumns(
        np.array(ks, dtype=np.int64),
        np.array(tuples, dtype=np.int64).reshape(-1, params.order + 1),
        np.array(gaps, dtype=np.float64),
    )
    return RegularityReport(columns, hyp, scanned, k_lo=lo, k_hi=hi)


@dataclass
class CalibrationResult:
    """Best (M, delta) for a target eps, with the winning report."""

    M: int
    delta: float
    report: RegularityReport
    entries: list[dict] = field(default_factory=list)


def calibrate(
    u: SequenceSample,
    eps: float,
    M_grid,
    delta_grid,
    shift_max: int,
    order: int = 2,
    k_range: tuple[int, int] | None = None,
) -> CalibrationResult:
    """Search the (M, delta) grid for witnesses of the regularity property.

    Returns the zero-violation pair maximizing hypothesis_count; if
    none, the pair with fewest violations.  Ties prefer smaller M, then
    larger delta.  Every grid point slices one set of threshold tables.
    """
    M_grid = list(M_grid)
    delta_grid = list(delta_grid)
    if not M_grid or not delta_grid:
        raise ValueError("calibration grids must be nonempty")
    entries = []
    best = None  # (key tuple, M, delta, report)
    tables = None
    for M in M_grid:
        for delta in delta_grid:
            params = RegularityParams(
                order=order, eps=eps, delta=delta, M=M, shift_max=shift_max, k_range=k_range
            )
            if tables is None:
                tables = _threshold_tables(u.values, (*delta_grid, eps), (order + 1) * shift_max)
            report = run_test(u, params, tables)
            nviol = report.violation_count
            entries.append(
                {
                    "M": M,
                    "delta": delta,
                    "violations": nviol,
                    "hypothesis_count": report.hypothesis_count,
                    "vacuous": report.vacuous,
                }
            )
            key = (
                1 if nviol == 0 else 0,
                report.hypothesis_count if nviol == 0 else -nviol,
                -M,
                delta,
            )
            if best is None or key > best[0]:
                best = (key, M, delta, report)
    return CalibrationResult(M=best[1], delta=best[2], report=best[3], entries=entries)
