import json
import math

import numpy as np
import pytest

from nilscope import heisenberg as h
from nilscope import nilsequence as ns
from nilscope import systems as sy


class TestObservables:
    def test_distance_to_base_zero_at_base(self):
        base = h.NilPoint(0.3, 0.6, 0.1)
        obs = ns.ObservableSpec(kind="distance_to_base", base=base)
        assert abs(ns.eval_observable(obs, base)) < 1e-15

    def test_trivial_character_constant(self, rng):
        obs = ns.ObservableSpec(kind="torus_character", k1=0, k2=0)
        for _ in range(20):
            p = h.NilPoint(*rng.random(3))
            assert ns.eval_observable(obs, p) == 1.0

    def test_character_ignores_center(self, rng):
        obs = ns.ObservableSpec(kind="torus_character", k1=2, k2=-1)
        p = h.NilPoint(0.3, 0.4, 0.1)
        q = h.NilPoint(0.3, 0.4, 0.8)
        assert ns.eval_observable(obs, p) == ns.eval_observable(obs, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            ns.ObservableSpec(kind="bogus")
        with pytest.raises(ValueError):
            ns.ObservableSpec(kind="vertical_theta", m_freq=0)
        with pytest.raises(ValueError):
            ns.ObservableSpec(kind="vertical_theta", j_trunc=2)

    def test_reduced_invariance_per_contract(self, rng):
        # reduce() is coset-invariant, so this holds to rounding noise.
        obs = ns.ObservableSpec(kind="vertical_theta", m_freq=1, j_trunc=6)
        for _ in range(100):
            g = h.GroupElement(*rng.uniform(-3, 3, 3))
            gamma = h.GroupElement(*(float(v) for v in rng.integers(-3, 4, 3)))
            f1 = ns.eval_observable(obs, h.reduce(g))
            f2 = ns.eval_observable(obs, h.reduce(h.mul(g, gamma)))
            assert abs(f1 - f2) < 1e-8

    def test_raw_invariance_truncation_scaling(self, rng):
        # The raw (unreduced) evaluation exposes the theta truncation:
        # J = 6 is invariant below 1e-8 and doubling J from 3 gains far
        # more than 1e3.
        def worst(J):
            obs = ns.ObservableSpec(kind="vertical_theta", m_freq=1, j_trunc=J)
            w = 0.0
            gen = np.random.default_rng(5)
            for _ in range(150):
                g = h.GroupElement(*gen.uniform(-0.5, 1.5, 3))
                gamma = h.GroupElement(*(float(v) for v in gen.integers(-3, 4, 3)))
                w = max(
                    w,
                    abs(
                        ns.eval_observable_raw(obs, g)
                        - ns.eval_observable_raw(obs, h.mul(g, gamma))
                    ),
                )
            return w

        w3, w6 = worst(3), worst(6)
        assert w6 < 1e-8
        assert w3 / max(w6, 1e-300) >= 1e3

    def test_negative_frequency_is_conjugate(self, rng):
        pos = ns.ObservableSpec(kind="vertical_theta", m_freq=2)
        neg = ns.ObservableSpec(kind="vertical_theta", m_freq=-2)
        for _ in range(20):
            p = h.NilPoint(*rng.random(3))
            assert ns.eval_observable(neg, p) == np.conj(ns.eval_observable(pos, p))

    def test_bound_holds(self, spec):
        for kind, kwargs in (
            ("vertical_theta", {"m_freq": 1}),
            ("torus_character", {"k1": 3, "k2": -2}),
            ("distance_to_base", {}),
        ):
            obs = ns.ObservableSpec(kind=kind, **kwargs)
            u = ns.generate(spec, obs, 400)
            assert np.abs(u.values).max() <= ns.observable_bound(obs) + 1e-12


class TestGenerate:
    def test_constant_observable_constant_sequence(self, spec):
        obs = ns.ObservableSpec(kind="torus_character", k1=0, k2=0)
        u = ns.generate(spec, obs, 50)
        assert np.all(u.values == 1.0)

    def test_window_and_indexing(self, spec):
        obs = ns.ObservableSpec(kind="torus_character")
        u = ns.generate(spec, obs, 10)
        assert u.n_min == -10 and u.n_max == 10 and len(u.values) == 21
        assert u.value_at(0) == ns.eval_observable(obs, h.NilPoint(0.0, 0.0, 0.0))
        with pytest.raises(IndexError):
            u.value_at(11)

    def test_rotation_character_closed_form(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        obs = ns.ObservableSpec(kind="torus_character", k1=2, k2=1)
        u = ns.generate(rot, obs, 200)
        nsarr = np.arange(-200, 201)
        freq = 2 * rot.alpha + 1 * rot.beta
        exact = np.exp(2j * np.pi * nsarr * freq)
        assert np.abs(u.values - exact).max() < 1e-9

    def test_generation_equivariance_index_shift(self, spec):
        # Generating from the shifted base point T^k e matches shifting
        # the index window of the base generation.
        obs = ns.ObservableSpec(kind="vertical_theta", m_freq=1)
        N, k = 150, 37
        u = ns.generate(spec, obs, N + abs(k))
        shifted_vals = []
        for n in range(-N, N + 1):
            p = sy.system_for(spec).advance(h.NilPoint(0.0, 0.0, 0.0), n + k)
            shifted_vals.append(ns.eval_observable(obs, p))
        window = u.values[(-N + k) - u.n_min : (N + k) - u.n_min + 1]
        assert np.abs(np.asarray(shifted_vals) - window).max() < 1e-6

    def test_rejects_bad_inputs(self, spec):
        obs = ns.ObservableSpec(kind="torus_character")
        with pytest.raises(ValueError):
            ns.generate(spec, obs, 0)
        rot = sy.SystemSpec(kind="torus_rotation")
        with pytest.raises(ValueError):
            ns.generate(rot, ns.ObservableSpec(kind="vertical_theta", m_freq=1), 10)

    def test_one_torus_character_refuses_k2(self):
        circle = sy.SystemSpec(kind="torus_rotation", dims=1)
        with pytest.raises(ValueError, match="k2"):
            ns.generate(circle, ns.ObservableSpec(kind="torus_character", k1=1, k2=1), 10)
        with pytest.raises(ValueError, match="k2"):
            ns.eval_observable(ns.ObservableSpec(kind="torus_character", k2=1), sy.TorusPoint((0.3,)))
        u = ns.generate(circle, ns.ObservableSpec(kind="torus_character", k1=1, k2=0), 10)
        assert np.allclose(u.values, np.exp(2j * np.pi * u.indices * circle.alpha))


class TestQuadraticPhase:
    def test_alpha_zero_constant(self):
        u = ns.quadratic_phase(0.0, 20)
        assert np.all(u.values == 1.0)

    def test_half_alpha_parity_pattern(self):
        # n^2/2 mod 1 is 0 for even n and 1/2 for odd n, so values
        # alternate between 1 and -1 by parity; brute force confirms.
        u = ns.quadratic_phase(0.5, 16)
        for n in range(-16, 17):
            expected = np.exp(1j * np.pi * (n * n % 2))
            assert abs(u.value_at(n) - expected) < 1e-12

    def test_bounded_modulus_one(self):
        u = ns.quadratic_phase(math.sqrt(2) - 1, 500)
        assert np.abs(np.abs(u.values) - 1.0).max() < 1e-12


class TestSerialization:
    def test_csv_roundtrip_exact(self, spec):
        u = ns.generate(spec, ns.ObservableSpec(kind="vertical_theta", m_freq=1), 50)
        v = ns.SequenceSample.from_csv(u.to_csv())
        assert v.n_min == u.n_min
        assert np.array_equal(v.values, u.values)

    def test_json_roundtrip(self, spec):
        u = ns.generate(spec, ns.ObservableSpec(kind="torus_character"), 30)
        v = ns.SequenceSample.from_json(u.to_json())
        assert v.n_min == u.n_min
        assert np.abs(v.values - u.values).max() < 1e-15
        assert v.meta["observable"] == "torus_character"

    def test_csv_errors_name_line(self):
        with pytest.raises(ValueError, match="line 1"):
            ns.SequenceSample.from_csv("bogus header\n1,2,3\n")
        with pytest.raises(ValueError, match="line 3"):
            ns.SequenceSample.from_csv("n,re,im\n0,1.0,0.0\n1,notanumber,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            ns.SequenceSample.from_csv("n,re,im\n0,1.0\n")

    def test_csv_requires_contiguous_indices(self):
        with pytest.raises(ValueError, match="contiguous"):
            ns.SequenceSample.from_csv("n,re,im\n0,1.0,0.0\n2,1.0,0.0\n")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ns.SequenceSample(values=np.array([1.0, np.nan]), n_min=0)


def loop_from_csv(text):
    """The row-by-row CSV reader that ``SequenceSample.from_csv`` replaced, as
    the reference for its one-call read: (n_min, values) or the error."""
    lines = text.splitlines()
    if not lines or lines[0].strip().lower() != "n,re,im":
        raise ValueError("line 1: expected header 'n,re,im'")
    ns_, vals = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            ns_.append(int(parts[0]))
            vals.append(complex(float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not ns_:
        raise ValueError("no data rows")
    order = np.argsort(ns_)
    ns_ = np.asarray(ns_)[order]
    vals = np.asarray(vals)[order]
    if not np.array_equal(np.diff(ns_), np.ones(len(ns_) - 1, dtype=ns_.dtype)):
        raise ValueError("indices must form a contiguous ascending range")
    return ns.SequenceSample(values=vals, n_min=int(ns_[0]))


def outcome(read, text):
    """(n_min, bit patterns of the values) or (error type, message)."""
    try:
        u = read(text)
    except Exception as exc:  # the reference's every error is part of its behaviour
        return type(exc).__name__, str(exc)
    return u.n_min, u.values.view(np.int64).tolist()


class TestCsvRead:
    """``from_csv`` against the row-by-row reader: the same values bit for bit, or the same error."""

    ROWS = "0,0.5,-0.25\n1,-0.0,1e-300\n2,0.1,0.30000000000000004\n"
    CORPUS = [
        "n,re,im\n" + ROWS,
        "n,re,im\n\n0,0.5,-0.25\n\n1,1.0,2.0\n\n",  # blank lines
        "n,re,im\n0,0.5,-0.25\n   \n1,1.0,2.0\n",  # whitespace-only line
        "n,re,im\n \t\n",  # only whitespace rows
        "n,re,im\r\n0,0.5,-0.25\r\n1,1.0,2.0\r\n",  # CRLF
        " N,Re,IM \n0,1,2\n",
        "n,re,im\n+5,1,2\n6,1,2\n",
        "n,re,im\n 5 , 1.5 ,\t2\n",
        "n,re,im\n1_0,1,2\n11,1,2\n",
        "n,re,im\n0,1_0.5,2\n",
        "n,re,im\n5.0,1,2\n",
        "n,re,im\n٣,1,2\n4,1,2\n",
        "n,re,im\n0,١.٥,2\n",
        'n,re,im\n"5",1,2\n',
        'n,re,im\n5,"1",2\n',
        "n,re,im\n0,1,2 # c\n",
        "n,re,im\n0,1\n",
        "n,re,im\n0,1,2,3\n",
        "n,re,im\n0,1,2\n1,1\n",
        "n,re,im\n0,,2\n",
        "n,re,im\n0,nan,2\n",
        "n,re,im\n0,1,-inf\n",
        "n,re,im\n0,1e400,2\n",
        "n,re,im\n0,1e-400,2\n",
        "n,re,im\n0,0x1p3,2\n",
        "n,re,im\n0,1d5,2\n",
        "n,re,im\n3,1,2\n1,3,4\n2,5,6\n",  # unsorted
        "n,re,im\n1,1,2\n1,3,4\n2,5,6\n",  # duplicate
        "n,re,im\n0,1,2\n2,3,4\n",  # gap
        "n,re,im\n-9223372036854775808,1,2\n",
        "n,re,im\n",
        "n,re,im",
        "",
        "n;re;im\n0;1;2\n",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus(self, text):
        assert outcome(ns.SequenceSample.from_csv, text) == outcome(loop_from_csv, text)

    def test_random_digit_strings(self, monkeypatch):
        gen = np.random.default_rng(14)
        x = (gen.standard_normal(500) * 10.0 ** gen.integers(-300, 300, 500)).tolist()
        re_ = [repr(v) for v in x] + [f"{v:.25e}" for v in x[:250]] + [f"{v:.3g}" for v in x[:250]]
        im_ = [f"{v:.20f}" for v in gen.uniform(-1, 1, len(re_))]
        rows = [f"{n},{a},{b}" for n, a, b in zip(gen.permutation(len(re_)) - 400, re_, im_)]
        text = "n,re,im\n" + "\n".join(rows) + "\n"
        want = outcome(loop_from_csv, text)
        monkeypatch.setattr(ns, "_parse_rows", None)  # the one-call read alone
        assert outcome(ns.SequenceSample.from_csv, text) == want
        assert want[0] == -400


class TestIndexRange:
    """Indices beyond int64 are refused with the line that holds them, at both ends."""

    @pytest.mark.parametrize("text, line", [
        ("n,re,im\n99999999999999999999,1,2\n", 2),
        (f"n,re,im\n{-2**63 - 1},1,2\n{-2**63},1,2\n", 2),
        (f"n,re,im\n{2**63 - 1},1,2\n{2**63},1,2\n", 3),
    ])
    def test_beyond_int64_names_the_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: index outside the int64 range"):
            ns.SequenceSample.from_csv(text)

    @pytest.mark.parametrize("n_min", [-2**63, 2**63 - 2])
    def test_int64_edges_accepted(self, n_min):
        u = ns.SequenceSample.from_csv(f"n,re,im\n{n_min + 1},3,4\n{n_min},1,2\n")
        assert (u.n_min, u.n_max) == (n_min, n_min + 1)
        assert u.values.tolist() == [1 + 2j, 3 + 4j]

    @pytest.mark.parametrize("n_min", [-2**63, 2**63 - 2])
    def test_csv_roundtrip_at_the_edges(self, n_min):
        u = ns.SequenceSample(values=[1 + 2j, 3 + 4j], n_min=n_min)
        assert u.indices.dtype == np.int64
        assert u.indices.tolist() == [n_min, n_min + 1]
        v = ns.SequenceSample.from_csv(u.to_csv())
        assert (v.n_min, v.values.tolist()) == (n_min, [1 + 2j, 3 + 4j])

    @pytest.mark.parametrize("n_min, length", [(2**63 + 1, 1), (2**63 - 1, 2), (-2**63 - 1, 3)])
    def test_window_beyond_int64_refused(self, n_min, length):
        text = json.dumps({"n_min": n_min, "values": [[1.0, 0.0]] * length})
        with pytest.raises(ValueError, match="outside the int64 range"):
            ns.SequenceSample.from_json(text)
        with pytest.raises(ValueError, match="outside the int64 range"):
            ns.SequenceSample(values=np.ones(length), n_min=n_min)
