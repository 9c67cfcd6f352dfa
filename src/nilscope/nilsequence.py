"""Observables on the nilmanifold and the sequences they generate.

A bounded complex sequence u_n = f(T^n e) for a continuous f on a
nilsystem inherits the structure of the system: rotations give almost
periodic sequences, the Heisenberg system gives genuinely 2-step
sequences.  Three observable families are provided:

- ``torus_character``: exp(2*pi*i*(k1*x + k2*y)) of the factor
  projection, a genuine function on X since it ignores the central
  coordinate; on a rotation it generates the classical almost periodic
  exponentials.

- ``vertical_theta``: F(g) = exp(2*pi*i*m*z) * phi(x, y) with the
  truncated theta-type sum

      phi(x, y) = sum_{|j| <= J} exp(-pi*m*(y + j)^2) * exp(2*pi*i*j*m*x),

  which satisfies phi(x, y+1) = exp(-2*pi*i*m*x) * phi(x, y), the exact
  twist that makes F invariant under the integer lattice, hence a
  well-defined function on X that sees the central coordinate.  The
  truncation error decays like exp(-pi*m*(J-3)^2) under lattice moves
  of size up to 3, far below 1e-8 at the default J = 6.  Negative
  frequencies use the complex conjugate of the |m| case (the stated sum
  diverges for m < 0).

- ``distance_to_base``: the gauge distance to a fixed point, a real
  continuous observable.

``quadratic_phase`` (exp(2*pi*i*n^2*alpha)) does not arise from an
observable here but is the canonical control: a basic 2-step sequence
that is not almost periodic.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .heisenberg import NilPoint, dist_arr
from .systems import HeisenbergSystem, RotationSystem, SystemSpec, TorusPoint, system_for

__all__ = [
    "ObservableSpec",
    "SequenceSample",
    "eval_observable",
    "observable_bound",
    "generate",
    "quadratic_phase",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ObservableSpec:
    """A continuous observable on the nilmanifold (or torus)."""

    kind: str = "torus_character"
    base: NilPoint = field(default_factory=lambda: NilPoint(0.0, 0.0, 0.0))
    m_freq: int = 1
    j_trunc: int = 6
    k1: int = 1
    k2: int = 0

    def __post_init__(self):
        if self.kind not in ("distance_to_base", "vertical_theta", "torus_character"):
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.j_trunc < 3:
            raise ValueError("j_trunc must be >= 3")
        if self.kind == "vertical_theta" and self.m_freq == 0:
            raise ValueError("vertical_theta requires m_freq != 0")


@dataclass
class SequenceSample:
    """A finite window of a complex sequence, indices n in [n_min, n_min + len - 1]."""

    values: np.ndarray
    n_min: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sequence values must be finite")
        if not -(2**63) <= self.n_min <= self.n_max < 2**63:
            raise ValueError(
                f"indices [{self.n_min}, {self.n_max}] outside the int64 range [-2^63, 2^63)"
            )

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    @property
    def indices(self) -> np.ndarray:
        return self.n_min + np.arange(len(self.values), dtype=np.int64)

    # -- serialization ------------------------------------------------

    def to_csv(self) -> str:
        lines = ["n,re,im"]
        for n, v in zip(self.indices, self.values):
            lines.append(f"{n},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "SequenceSample":
        """Rows n,re,im under that header, in any order of n: one ``np.loadtxt``
        call, or on any error or warning the row loop, which names the line."""
        lines = text.splitlines()
        if not lines or lines[0].strip().lower() != "n,re,im":
            raise ValueError("line 1: expected header 'n,re,im'")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=1, dtype=_CSV_ROW)
            ns, vals = rows["n"], rows["re"].astype(np.complex128)
            vals.imag = rows["im"]
        except Exception:  # the row loop names the line, or reads what loadtxt refuses
            ns, vals = _parse_rows(lines)
        order = np.argsort(ns)
        ns = ns[order]
        vals = vals[order]
        if not np.array_equal(np.diff(ns), np.ones(len(ns) - 1, dtype=ns.dtype)):
            raise ValueError("indices must form a contiguous ascending range")
        return cls(values=vals, n_min=int(ns[0]))

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "n_min": self.n_min,
            "values": [[v.real, v.imag] for v in self.values],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SequenceSample":
        """An object with an integer ``n_min`` and ``values`` as [re, im] rows of
        reals; ValueError naming the field otherwise."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object with n_min and values")
        # json gives int, float, bool, str, None, list or dict: bool is not a number.
        n_min, rows = payload.get("n_min"), payload.get("values")
        if type(n_min) is not int:
            raise ValueError(f"n_min: expected an integer, got {n_min!r}")
        if not isinstance(rows, list) or any(
            type(r) is not list or len(r) != 2 or {type(c) for c in r} - {int, float} for r in rows
        ):
            raise ValueError("values: expected a list of [re, im] rows of reals")
        vals = np.array([complex(re, im) for re, im in rows])
        return cls(values=vals, n_min=n_min, meta=payload.get("meta", {}))


_CSV_ROW = np.dtype([("n", np.int64), ("re", np.float64), ("im", np.float64)])


def _parse_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The data rows of a sequence CSV, one line at a time; errors name the line."""
    ns, vals = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            ns.append(int(parts[0]))
            vals.append(complex(float(parts[1]), float(parts[2])))
            if not -(2**63) <= ns[-1] < 2**63:
                raise ValueError("index outside the int64 range [-2^63, 2^63)")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not ns:
        raise ValueError("no data rows")
    return np.asarray(ns), np.asarray(vals)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _theta_arr(obs: ObservableSpec, coords: np.ndarray) -> np.ndarray:
    m = abs(obs.m_freq)
    x = coords[..., 0]
    y = coords[..., 1]
    z = coords[..., 2]
    phi = np.zeros(x.shape, dtype=np.complex128)
    for j in range(-obs.j_trunc, obs.j_trunc + 1):
        phi += np.exp(-math.pi * m * (y + j) ** 2) * np.exp(1j * _TWO_PI * j * m * x)
    out = np.exp(1j * _TWO_PI * m * z) * phi
    return np.conj(out) if obs.m_freq < 0 else out


def _eval_arr(obs: ObservableSpec, coords: np.ndarray) -> np.ndarray:
    """Observable values on an (N, 3) array of nil coordinates: canonical ones, or, for
    the characters and theta, global group coordinates, which are not reduced first."""
    if obs.kind == "distance_to_base":
        return dist_arr(coords, np.array(obs.base.as_tuple())).astype(np.complex128)
    if obs.kind == "torus_character":
        return HeisenbergSystem.character(coords, obs.k1, obs.k2)
    return _theta_arr(obs, coords)


def eval_observable(obs: ObservableSpec, p) -> complex:
    """Observable value at a single point (NilPoint, or TorusPoint for characters)."""
    coords = np.array(p.as_tuple(), dtype=np.float64)
    if isinstance(p, TorusPoint):
        if obs.kind != "torus_character":
            raise ValueError(f"{obs.kind} needs a NilPoint")
        return complex(RotationSystem.character(coords, obs.k1, obs.k2))
    return complex(_eval_arr(obs, coords[None])[0])


def observable_bound(obs: ObservableSpec) -> float:
    """Numeric sup bound for |f| over the nilmanifold."""
    if obs.kind == "torus_character":
        return 1.0
    if obs.kind == "distance_to_base":
        # The gauge of any canonical representative is at most 1 and the
        # lattice minimum only improves it.
        return 1.0
    m = abs(obs.m_freq)
    ys = np.linspace(0.0, 1.0, 2001)
    mags = np.zeros_like(ys)
    for j in range(-obs.j_trunc, obs.j_trunc + 1):
        mags += np.exp(-math.pi * m * (ys + j) ** 2)
    return float(mags.max()) + 1e-9


def _window(N: int) -> np.ndarray:
    """The indices -N..N of a generated sample; checked before any other input."""
    if N < 1:
        raise ValueError("n: must be >= 1")
    return np.arange(-N, N + 1)


def generate(spec: SystemSpec, obs: ObservableSpec, N: int) -> SequenceSample:
    """The sequence u_n = f(T^n e) on the window n in [-N, N]."""
    ns = _window(N)
    system = system_for(spec)
    coords = system.orbit(np.zeros(system.ndim), ns)
    if obs.kind == "torus_character":
        values = system.character(coords, obs.k1, obs.k2)
    elif system.central:
        values = _eval_arr(obs, coords)
    else:
        raise ValueError("rotation systems support the torus_character observable")
    meta = {
        "generator": "observable",
        "system": spec.kind,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "gamma0": spec.gamma0,
        "observable": obs.kind,
        "params": {
            "m_freq": obs.m_freq,
            "j_trunc": obs.j_trunc,
            "k1": obs.k1,
            "k2": obs.k2,
            "base": list(obs.base.as_tuple()),
        },
        "N": N,
    }
    return SequenceSample(values=values, n_min=-N, meta=meta)


def quadratic_phase(alpha: float, N: int) -> SequenceSample:
    """The sequence exp(2*pi*i*n^2*alpha) on [-N, N]."""
    ns = _window(N).astype(np.float64)
    phase = (ns * ns) * alpha
    phase -= np.floor(phase)
    values = np.exp(1j * _TWO_PI * phase)
    meta = {"generator": "quadratic_phase", "alpha": alpha, "N": N}
    return SequenceSample(values=values, n_min=-N, meta=meta)
