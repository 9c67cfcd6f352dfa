"""Command-line front end.

Subcommands:

    generate        write a sequence sample (CSV or JSON)
    regtest         order-1/2 arithmetic-regularity certification
    pgram-test      exact parallelogram membership of a quadruple
    pped-test       parallelepiped witness search for an octuple
    pped-complete   recover the eighth vertex from seven
    rp-search       regional-proximality witness search
    rp2-search      bi-regional-proximality witness search
    rpds-search     strong bi-regional-proximality witness search

Exit codes compose in shell pipelines: 0 = pass/clean, 1 = finding
(violations, non-membership, failed precondition), 2 = usage or
validation error.  Validation always happens before any output is
touched, outputs are written atomically (below), and written reports
contain no timing fields, so identical configurations produce
byte-identical outputs regardless of worker count.  The one
exception is the proximality searches' ``time_cap_ms``, a wall-clock
deadline: a search that it cuts short reports ``exhausted: false``, and
its record depends on how far the scan got in time.

An output goes to a temp file beside it, ``<out>.<pid>.tmp``, created
with mode 0o600 only if that name is free (never through a symlink),
and is then renamed over ``<out>``; when the name is taken, a
``tempfile.mkstemp`` name takes its place.  A missing directory of
``<out>`` is made first.

``main`` hands the flags after a subcommand's name to that subcommand's
parser alone; anything else, and any flag that parser leaves over, goes
to the full parser, so help, messages and exit codes are its own.
A config file (``--config``, ``key = value`` lines, ``#`` comments)
supplies defaults; explicit flags win.  ``main`` reads it once, into the
one ``_Resolver`` that every command is handed.  Every command runs
single-threaded: ``--workers`` (default 1) is checked by every
subcommand, before anything else is read past the config (below 1 exits
2), and otherwise ignored.  Every point, from a point file, a pair file
or a flag, goes through ``_point``, which accepts only numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import cubes, nilsequence, proximality, regularity, systems
from .heisenberg import NilPoint
from .systems import SystemSpec, TorusPoint

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Validation failure; the message names the offending field."""


# ---------------------------------------------------------------------------
# Small plumbing
# ---------------------------------------------------------------------------


# A report's temp file is always a new file: never one already there,
# never the target of a symlink.
_TMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
              | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_CLOEXEC", 0))


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:  # a write may take only part of what it is given
        view = view[os.write(fd, view) :]


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of ``chunks`` to path as UTF-8, in order, through
    ``<path>.<pid>.tmp`` and a rename (module docs)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, _TMP_FLAGS, 0o600)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(tmp, _TMP_FLAGS, 0o600)
    except FileExistsError:
        head, tail = os.path.split(path)
        fd, tmp = tempfile.mkstemp(dir=head or ".", prefix=tail, suffix=".tmp")
    try:
        try:
            for chunk in chunks:
                _write_all(fd, chunk.encode())
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# Rows per "".join of a written report: large reports go out in chunks
# of bounded size, never as one string spliced into another.
_CHUNK = 8192

# json's text for the floats that float.__repr__ writes otherwise.
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _column_text(col: np.ndarray, fmt, head: str = "", tail: str = "") -> list[str]:
    """head + fmt(v) + tail for every entry v of col, fmt called once per distinct value.

    An integer column whose range is at most four times its length finds
    its distinct values in a presence table over [min, max]; any other
    column sorts its bit patterns with np.unique (so -0.0 is not 0.0)."""
    lo, hi = (int(col.min()), int(col.max())) if col.dtype.kind == "i" else (0, np.inf)
    if hi - lo < 4 * len(col):
        off = col - lo
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[off] = True
        values, inverse = np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[off]
    else:
        bits, inverse = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        values = bits.view(col.dtype)
    texts = np.array([f"{head}{fmt(v)}{tail}" for v in values.tolist()], dtype=object)
    return texts[inverse].tolist()


def _row_chunks(columns: list[list[str]], first: str, cut: int = 0, end: str = ""):
    """``first``, then rows of one text of each column, joined ``_CHUNK`` rows
    at a time; the last row's final ``cut`` characters give way to ``end``."""
    count, width = len(columns[0]), len(columns)
    pieces = [""] * (width * count)
    for c, texts in enumerate(columns):
        pieces[c::width] = texts
    pieces[0] = first + pieces[0]
    pieces[-1] = pieces[-1][: len(pieces[-1]) - cut] + end
    step = _CHUNK * width
    for i in range(0, len(pieces), step):
        yield "".join(pieces[i : i + step])


def _violations_json(columns: regularity.ViolationColumns, indent: str):
    """Chunks of the violation list as json.dumps(sort_keys=True, indent=2)
    writes it under a key indented by ``indent``.  Each column's texts carry
    its key; the last column's also close the row and open the next one."""
    if not len(columns):
        return ["[]"]
    inner = f"{indent}    "
    opening = f",\n{indent}  {{\n{inner}\"gap\": "
    close = f",\n{inner}\"p\": null" if columns.shifts.shape[1] == 2 else ""  # order 1: no p
    ints = [columns.k, *columns.shifts.T]
    tails = [""] * (len(ints) - 1) + [f"{close}\n{indent}  }}{opening}"]
    texts = [_column_text(columns.gap, lambda g: _JSON_NONFINITE.get(r := repr(g), r))]
    for key, col, tail in zip("kmnp", ints, tails):
        texts.append(_column_text(col, str, f',\n{inner}"{key}": ', tail))
    return _row_chunks(texts, f"[{opening[1:]}", len(opening), f"\n{indent}]")


def _json_chunks(obj):
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` in chunks.

    json writes everything but violation columns, which stand in it as
    placeholders; the columns' chunks go out in their place.
    """
    spliced = []

    def placeholder(o):
        if not isinstance(o, regularity.ViolationColumns):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        spliced.append(o)
        return f"\0violations {len(spliced)}"

    text = json.dumps(obj, sort_keys=True, indent=2, default=placeholder) + "\n"
    done = 0
    for i, columns in enumerate(spliced, start=1):
        mark = f'"\\u0000violations {i}"'
        at = text.index(mark, done)
        key = text[text.rfind("\n", 0, at) + 1 : at]  # '<indent>"violations": '
        yield text[done:at]
        yield from _violations_json(columns, key[: len(key) - len(key.lstrip(" "))])
        done = at + len(mark)
    yield text[done:]


def _dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    return "".join(_json_chunks(obj))


def _read_text(path: str, field: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"{field}: cannot read {path}: {exc}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = {}
    text = _read_text(path, "config")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config: line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key.replace("-", "_").lower()] = value  # argparse dests are lowercase: M -> m
    return cfg


class _Resolver:
    """Flag -> config -> default resolution with typed conversion."""

    NAMES = {"m": "M", "m_grid": "M_grid"}  # messages name config keys, in their case

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(args.config)
        # Every command checks the worker count, and none uses it (see module docs).
        if self.get("workers", 1, int) < 1:
            raise UsageError("workers: must be >= 1")

    def get(self, name: str, default, cast):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config:
            raw = self.config[name]
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise self.error(name, f"cannot parse config value {raw!r}") from None
        return default

    def error(self, name: str, message: str) -> UsageError:
        return UsageError(f"{self.NAMES.get(name, name)}: {message}")

    def require(self, name: str, cast):
        value = self.get(name, None, cast)
        if value is None:
            raise self.error(name, "required")
        return value

    def grid(self, name: str, default: str, cast) -> list:
        """A comma-separated list of cast values from a flag, config or default."""
        raw = self.get(name, default, str)
        try:
            return [cast(p) for p in raw.split(",") if p.strip()]
        except ValueError:
            raise self.error(name, f"cannot parse grid value {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _point(coords, field: str):
    """The point of a list of numbers: 3 make a NilPoint, 1 or 2 a TorusPoint.

    Only JSON numbers count (``true``/``false`` do not); the point's own
    constructor checks that each coordinate lies in [0, 1).
    """
    if not (isinstance(coords, list) and all(type(c) in (int, float) for c in coords)):
        raise UsageError(f"{field}: point {coords!r}: want a list of reals")
    if not 1 <= len(coords) <= 3:
        raise UsageError(f"{field}: point {coords}: want 1, 2 or 3 coordinates")
    try:
        coords = tuple(map(float, coords))
        return NilPoint(*coords) if len(coords) == 3 else TorusPoint(coords)
    except (ValueError, OverflowError) as exc:  # a JSON integer may not fit a double
        raise UsageError(f"{field}: {exc}") from None


def _point_flag(res: _Resolver, name: str):
    """The point of a flag or config value of comma-separated reals, or None if not given."""
    raw = res.get(name, None, str)
    if not raw:
        return None
    try:
        coords = [float(part) for part in raw.split(",")]
    except ValueError:
        coords = raw  # not reals: _point refuses it, quoting the text
    return _point(coords, name)


def _read_json(path: str):
    try:
        return json.loads(_read_text(path, "input"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"input: {path} is not valid JSON: {exc}") from None


def _load_points_file(path: str, expected: int):
    payload = _read_json(path)
    rows = payload.get("points") if isinstance(payload, dict) else payload
    if not isinstance(rows, list) or len(rows) != expected:
        raise UsageError(f"input: {path}: expected {expected} points")
    points = [_point(row, "input") for row in rows]
    if len({len(p.as_tuple()) for p in points}) != 1:
        raise UsageError(f"input: {path}: mixed point dimensions")
    return points


def _check_points(spec: SystemSpec, points, field: str) -> None:
    try:
        systems.system_for(spec).rows(points, [field] * len(points))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_sequence(path: str) -> nilsequence.SequenceSample:
    text = _read_text(path, "input")
    try:
        if path.endswith(".json"):
            return nilsequence.SequenceSample.from_json(text)
        return nilsequence.SequenceSample.from_csv(text)
    except (ValueError, OverflowError) as exc:  # a JSON integer may not fit a double
        raise UsageError(f"input: {path}: {exc}") from None


def _flag_fields(cls):
    """The fields of a spec dataclass that have flags: those with a default, but ``kind``."""
    fields = dataclasses.fields(cls)
    return [f for f in fields if f.name != "kind" and f.default is not dataclasses.MISSING]


def _spec(cls, res: _Resolver, field: str, **given):
    """cls from ``given`` and each flag field's flag, config value or default; ValueError names field."""
    values = {f.name: res.get(f.name, f.default, type(f.default)) for f in _flag_fields(cls)}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise UsageError(f"{field}: {exc}") from None


def _system_from(res: _Resolver) -> SystemSpec:
    kind = res.get("system", SystemSpec.kind, str).replace("-", "_")
    return _spec(SystemSpec, res, "system", kind=kind)


def _print(payload: dict, res: _Resolver, summary: str) -> None:
    """The payload as JSON on stdout with ``--json``, else the summary line."""
    if res.args.json:
        sys.stdout.writelines(_json_chunks(payload))
    else:
        print(summary)


def _emit(payload: dict, res: _Resolver, summary: str) -> None:
    out = res.get("out", None, str)
    if out:
        _atomic_write(out, _json_chunks(payload))
    _print(payload, res, summary)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(res: _Resolver) -> int:
    observable = res.require("observable", str).replace("-", "_")
    N = res.get("n", 1000, int)
    if N < 1:
        raise UsageError("n: must be >= 1")
    out = res.require("out", str)
    spec = _system_from(res)

    if observable == "quadratic_phase":
        sample = nilsequence.quadratic_phase(spec.alpha, N)
    else:
        base = _point_flag(res, "base")
        if base is not None and not isinstance(base, NilPoint):
            raise UsageError("base: need 3 coordinates")
        given = {} if base is None else {"base": base}
        obs = _spec(nilsequence.ObservableSpec, res, "observable", kind=observable, **given)
        try:
            sample = nilsequence.generate(spec, obs, N)
        except ValueError as exc:
            raise UsageError(f"observable: {exc}") from None

    # regtest picks its parser by the same suffix rule.
    text = sample.to_json() if out.endswith(".json") else sample.to_csv()
    _atomic_write(out, [text])
    bound = float(np.abs(sample.values).max())
    summary = (
        f"wrote {len(sample.values)} samples (n in [{sample.n_min}, {sample.n_max}]) "
        f"to {out}; observable={observable} max|u|={bound:.6g}"
    )
    payload = {"command": "generate", "observable": observable, "rows": len(sample.values),
               "n_min": sample.n_min, "n_max": sample.n_max, "max_abs": bound, "out": out}
    _print(payload, res, summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# regtest
# ---------------------------------------------------------------------------


def _violations_csv(columns: regularity.ViolationColumns):
    """Chunks of rows k,m,n,p,gap under a header; p is empty at order 1, gap is repr(float)."""
    header = "k,m,n,p,gap\n"
    if not len(columns):
        return [header]
    shifts = [_column_text(col, str, ",") for col in columns.shifts.T]
    gap_head = ",," if len(shifts) == 2 else ","
    gaps = _column_text(columns.gap, float.__repr__, gap_head, "\n")
    return _row_chunks([_column_text(columns.k, str), *shifts, gaps], header)


def cmd_regtest(res: _Resolver) -> int:
    u = _load_sequence(res.require("input", str))
    order = res.require("order", int)
    eps = res.require("eps", float)
    shift_max = res.get("shift_max", 10, int)
    k_range = (res.get("k_min", None, int), res.get("k_max", None, int))
    if k_range.count(None) == 1:
        raise UsageError("k_range: give both k_min and k_max or neither")
    k_range = None if None in k_range else k_range

    calibrate_mode = res.get("calibrate", False, _parse_bool)
    payload: dict = {
        "command": "regtest",
        "order": order,
        "eps": eps,
        "shift_max": shift_max,
        "input_meta": u.meta,
    }
    try:
        if calibrate_mode:
            M_grid = res.grid("m_grid", "5,10,25", int)
            delta_grid = res.grid("delta_grid", "0.02,0.05,0.1", float)
            cal = regularity.calibrate(
                u, eps, M_grid, delta_grid, shift_max, order=order, k_range=k_range
            )
            report, M, delta = cal.report, cal.M, cal.delta
            payload["calibrate"] = {"M_grid": M_grid, "delta_grid": delta_grid, "entries": cal.entries}
        else:
            delta = res.require("delta", float)
            M = res.require("m", int)
            params = regularity.RegularityParams(
                order=order, eps=eps, delta=delta, M=M, shift_max=shift_max, k_range=k_range
            )
            report = regularity.run_test(u, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    payload.update({"M": M, "delta": delta})
    nviol = report.violation_count
    payload["report"] = report.to_dict()
    payload["verdict"] = "pass" if nviol == 0 else "violations"

    csv_out = res.get("csv", None, str)
    if csv_out:
        _atomic_write(csv_out, _violations_csv(report.violations))

    summary = (
        f"order-{order} scan: {nviol} violation(s), hypothesis_count="
        f"{report.hypothesis_count}, scanned={report.scanned} tuples, "
        f"k in [{report.k_lo}, {report.k_hi}]"
        + (f", calibrated (M={M}, delta={delta})" if calibrate_mode else "")
    )
    _emit(payload, res, summary)
    return EXIT_OK if nviol == 0 else EXIT_FINDING


# ---------------------------------------------------------------------------
# cube commands
# ---------------------------------------------------------------------------


def cmd_pgram_test(res: _Resolver) -> int:
    points = _load_points_file(res.require("input", str), 4)
    tol = res.get("tol", cubes.DEFAULT_PGRAM_TOL, float)
    residual = cubes.pgram_residual(cubes.Quad(*points))
    member = bool(residual < tol)
    payload = {
        "command": "pgram-test",
        "residual": residual,
        "tol": tol,
        "member": member,
        "points": [list(p.as_tuple()) for p in points],
    }
    _emit(payload, res, f"pgram residual {residual:.3e} (tol {tol:.1e}): "
          + ("member", "not certified")[not member])
    return EXIT_OK if member else EXIT_FINDING


def _cube_job(res: _Resolver, count: int):
    """(spec, points, horizon, resid_tol) of a parallelepiped command, checked."""
    points = _load_points_file(res.require("input", str), count)
    spec = _system_from(res)
    _check_points(spec, points, "input")
    horizon = res.get("horizon", cubes.DEFAULT_HORIZON, int)  # the search checks it
    return spec, points, horizon, res.get("resid_tol", cubes.DEFAULT_RESID_TOL, float)


def cmd_pped_test(res: _Resolver) -> int:
    spec, points, horizon, resid_tol = _cube_job(res, 8)
    try:  # the search checks the horizon before any work
        witness = cubes.pped_search(spec, cubes.Oct(*points), horizon, resid_tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    below = witness.residual < resid_tol
    payload = {
        "command": "pped-test",
        "residual": witness.residual,
        "witness": {"m": witness.m, "n": witness.n, "p": witness.p},
        "early_exit": witness.early_exit,
        "horizon": horizon,
        "resid_tol": resid_tol,
        "below_tol": bool(below),
    }
    _emit(
        payload,
        res,
        f"pped residual {witness.residual:.3e} at (m,n,p)=({witness.m},{witness.n},{witness.p}), "
        f"horizon {horizon}: " + ("witness found" if below else "inconclusive"),
    )
    return EXIT_OK if below else EXIT_FINDING


def cmd_pped_complete(res: _Resolver) -> int:
    spec, points, horizon, resid_tol = _cube_job(res, 7)
    face_tol = res.get("face_tol", cubes.DEFAULT_FACE_TOL, float)
    try:
        result = cubes.pped_complete(spec, points, horizon, face_tol, resid_tol)
    except cubes.FacePreconditionError as exc:
        payload = {
            "command": "pped-complete",
            "error": "face_precondition",
            "face": exc.face_name,
            "vertices": list(exc.vertex_ids),
            "residual": exc.residual,
            "face_tol": exc.tol,
        }
        _emit(payload, res, f"rejected: face {exc.face_name} {exc.vertex_ids} "
              f"residual {exc.residual:.3e} >= {exc.tol:.1e}")
        return EXIT_FINDING
    except ValueError as exc:  # the horizon, checked before the faces
        raise UsageError(str(exc)) from None
    payload = {
        "command": "pped-complete",
        "x7": list(result.x7.as_tuple()),
        "residual": result.residual,
        "witness": {"m": result.witness_mnp[0], "n": result.witness_mnp[1], "p": result.witness_mnp[2]},
        "spread": result.spread,
        "status": result.status,
        "horizon": horizon,
        "face_tol": face_tol,
        "resid_tol": resid_tol,
    }
    spread = "truncated" if result.spread is None else f"{result.spread:.3e}"
    _emit(
        payload,
        res,
        f"x7 = {list(result.x7.as_tuple())} residual {result.residual:.3e} "
        f"spread {spread} [{result.status}]",
    )
    return EXIT_OK if result.status == "ok" else EXIT_FINDING


# ---------------------------------------------------------------------------
# proximality commands
# ---------------------------------------------------------------------------


def _load_pair(res: _Resolver, spec: SystemSpec):
    input_path = res.get("input", None, str)
    if input_path:
        payload = _read_json(input_path)
        if not (isinstance(payload, dict) and "x" in payload and "y" in payload):
            raise UsageError(f"input: {input_path}: expected JSON with x, y")
        x, y = _point(payload["x"], "x"), _point(payload["y"], "y")
    else:
        x, y = _point_flag(res, "x"), _point_flag(res, "y")
        if x is None or y is None:
            raise UsageError("x/y: give --x and --y, or --input pair.json")
    _check_points(spec, (x, y), "x/y")
    return x, y


def _cmd_prox(res: _Resolver, which: str) -> int:
    spec = _system_from(res)
    x, y = _load_pair(res, spec)
    budget = _spec(proximality.SearchBudget, res, "budget")
    seed = res.get("seed", 0, int)
    try:  # the search checks the seed before any work
        record = getattr(proximality, f"{which}_search")(spec, x, y, budget, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = {
        "command": f"{which}-search",
        "relation": record.relation,
        "eps_achieved": record.eps_achieved,
        "m": record.m,
        "n": record.n,
        "x_prime": list(record.x_prime.as_tuple()),
        "y_prime": list(record.y_prime.as_tuple()),
        "exhausted": record.exhausted,
        "budget": dataclasses.asdict(budget),
        "seed": seed,
    }
    _emit(
        payload,
        res,
        f"{record.relation}: eps_achieved={record.eps_achieved:.6g} at "
        f"(m,n)=({record.m},{record.n}), exhausted={record.exhausted}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key = value config file; flags win")
    sp.add_argument("--json", action="store_true", help="print the JSON payload to stdout")
    sp.add_argument("--out", help="write the JSON payload to this path (atomically)")
    sp.add_argument("--workers", type=int, help="ignored, must be >= 1: every command is single-threaded")


def _add_fields(sp: argparse.ArgumentParser, cls) -> None:
    """One flag per flag field of a spec dataclass, typed by its default."""
    for f in _flag_fields(cls):
        sp.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=type(f.default))


def _add_system(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--system", choices=[kind.replace("_", "-") for kind in systems._KINDS])
    _add_fields(sp, SystemSpec)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="nilscope",
        description="2-step nilsystem structures: cubes, proximality, regularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a sequence sample")
    g.add_argument("--observable", required=True,
                   choices=["torus-character", "vertical-theta", "distance-to-base",
                            "quadratic-phase"])
    g.add_argument("--n", type=int, help="window half-length N (indices -N..N)")
    _add_fields(g, nilsequence.ObservableSpec)
    g.add_argument("--base", help="x,y,z of the distance observable's base point")
    _add_system(g)
    _add_common(g)
    g.set_defaults(func=cmd_generate, out_required=True)

    r = sub.add_parser("regtest", help="arithmetic-regularity certification")
    r.add_argument("--input", help="sequence file (CSV n,re,im or JSON)")
    r.add_argument("--order", type=int, choices=[1, 2])
    r.add_argument("--eps", type=float)
    r.add_argument("--delta", type=float)
    r.add_argument("--M", dest="m", type=int)
    r.add_argument("--shift-max", dest="shift_max", type=int)
    r.add_argument("--k-min", dest="k_min", type=int)
    r.add_argument("--k-max", dest="k_max", type=int)
    r.add_argument("--calibrate", action="store_true", default=None,
                   help="search the (M, delta) grid instead of a single pair")
    r.add_argument("--M-grid", dest="m_grid")
    r.add_argument("--delta-grid", dest="delta_grid")
    r.add_argument("--csv", help="write violations as CSV rows k,m,n,p,gap")
    _add_common(r)
    r.set_defaults(func=cmd_regtest)

    q = sub.add_parser("pgram-test", help="exact parallelogram membership")
    q.add_argument("--input", help="JSON file with 4 points")
    q.add_argument("--tol", type=float)
    _add_common(q)
    q.set_defaults(func=cmd_pgram_test)

    o = sub.add_parser("pped-test", help="parallelepiped witness search")
    o.add_argument("--input", help="JSON file with 8 points")
    o.add_argument("--horizon", type=int)
    o.add_argument("--resid-tol", dest="resid_tol", type=float)
    _add_system(o)
    _add_common(o)
    o.set_defaults(func=cmd_pped_test)

    c = sub.add_parser("pped-complete", help="recover the eighth vertex from seven")
    c.add_argument("--input", help="JSON file with 7 points")
    c.add_argument("--horizon", type=int)
    c.add_argument("--face-tol", dest="face_tol", type=float)
    c.add_argument("--resid-tol", dest="resid_tol", type=float)
    _add_system(c)
    _add_common(c)
    c.set_defaults(func=cmd_pped_complete)

    for which in ("rp", "rp2", "rpds"):
        s = sub.add_parser(f"{which}-search", help=f"{which.upper()} witness search")
        s.add_argument("--x", help="x point as x,y,z")
        s.add_argument("--y", help="y point as x,y,z")
        s.add_argument("--input", help="JSON file with fields x, y")
        _add_fields(s, proximality.SearchBudget)
        s.add_argument("--seed", type=int)
        _add_system(s)
        _add_common(s)
        s.set_defaults(func=functools.partial(_cmd_prox, which=which))

    parser.commands = sub.choices  # name -> subparser, for main's direct dispatch
    return parser


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``parser.parse_args(argv)``, in one pass when argv[0] names a subcommand (module docs)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, argv)
    try:
        res = _Resolver(args)
        if getattr(args, "out_required", False) and res.get("out", None, str) is None:
            parser.error("--out is required")  # exits 2
        return args.func(res)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
