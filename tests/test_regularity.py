import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilscope import nilsequence as ns
from nilscope import regularity as rg
from nilscope import systems as sy


def sample(values, n_min=None):
    values = np.asarray(values, dtype=complex)
    if n_min is None:
        n_min = -(len(values) // 2)
    return ns.SequenceSample(values=values, n_min=n_min)


def random_sample(rng, N=100):
    vals = rng.uniform(-1, 1, 2 * N + 1) + 1j * rng.uniform(-1, 1, 2 * N + 1)
    return sample(vals)


def assert_same_violations(fast, slow):
    """The engine's violation columns equal the oracle's, array for array."""
    for name, dtype in (("k", np.int64), ("shifts", np.int64), ("gap", np.float64)):
        got, want = getattr(fast.violations, name), getattr(slow.violations, name)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            rg.RegularityParams(order=3, eps=0.1, delta=0.1, M=1, shift_max=2)
        with pytest.raises(ValueError):
            rg.RegularityParams(order=1, eps=0.0, delta=0.1, M=1, shift_max=2)
        with pytest.raises(ValueError):
            rg.RegularityParams(order=1, eps=0.1, delta=0.1, M=-1, shift_max=2)
        with pytest.raises(ValueError):
            rg.RegularityParams(order=1, eps=0.1, delta=0.1, M=1, shift_max=0)
        with pytest.raises(ValueError):
            rg.RegularityParams(order=1, eps=0.1, delta=0.1, M=1, shift_max=2, k_range=(5, 1))

    def test_margin_pinned(self):
        for M in (0, 1, 3, 7, 20):
            for S in (1, 2, 5, 9):
                p1 = rg.RegularityParams(order=1, eps=0.1, delta=0.1, M=M, shift_max=S)
                p2 = rg.RegularityParams(order=2, eps=0.1, delta=0.1, M=M, shift_max=S)
                assert p1.margin == max(M + S, 2 * S)
                assert p2.margin == max(M + 2 * S, 3 * S)

    def test_window_too_small_rejected(self):
        u = sample(np.ones(11))
        params = rg.RegularityParams(order=2, eps=0.1, delta=0.1, M=2, shift_max=4)
        with pytest.raises(ValueError):
            rg.run_test(u, params)

    def test_k_range_clipped(self, rng):
        u = random_sample(rng, 50)
        params = rg.RegularityParams(
            order=1, eps=0.5, delta=0.5, M=1, shift_max=3, k_range=(-1000, 1000)
        )
        report = rg.run_test(u, params)
        assert report.k_lo == -50 + params.margin
        assert report.k_hi == 50 - params.margin

    def test_disjoint_k_range_rejected(self, rng):
        u = random_sample(rng, 50)
        params = rg.RegularityParams(
            order=1, eps=0.5, delta=0.5, M=1, shift_max=3, k_range=(200, 300)
        )
        with pytest.raises(ValueError):
            rg.run_test(u, params)


class TestOrder2:
    def test_constant_sequence_clean(self):
        u = sample(np.full(201, 0.7 + 0.2j))
        params = rg.RegularityParams(order=2, eps=0.3, delta=0.01, M=5, shift_max=5)
        report = rg.run_test(u, params)
        assert report.violation_count == 0
        assert not report.vacuous
        assert report.scanned == 11**3

    def test_alternating_sequence_clean(self):
        # Hypothesis forces even shifts, where the conclusion is exact.
        vals = [(-1.0) ** n for n in range(-64, 65)]
        u = sample(np.asarray(vals), n_min=-64)
        params = rg.RegularityParams(order=2, eps=0.5, delta=0.5, M=2, shift_max=6)
        report = rg.run_test(u, params)
        assert report.violation_count == 0
        assert report.hypothesis_count > 0
        brute = rg.naive_test(u, params)
        assert brute.violation_count == 0
        assert brute.hypothesis_count == report.hypothesis_count

    def test_pseudorandom_has_violations(self):
        gen = np.random.default_rng(20260809)
        vals = gen.uniform(-1, 1, 401) + 1j * gen.uniform(-1, 1, 401)
        vals /= np.maximum(1.0, np.abs(vals))
        u = sample(vals)
        params = rg.RegularityParams(order=2, eps=0.2, delta=1.0, M=0, shift_max=6)
        report = rg.run_test(u, params)
        assert len(report.violations) >= 1
        assert (report.violations.gap >= 0).all()

    def test_violations_subset_of_hypothesis(self, rng):
        u = random_sample(rng, 60)
        params = rg.RegularityParams(order=2, eps=0.4, delta=1.2, M=0, shift_max=3)
        report = rg.run_test(u, params)
        assert len(report.violations) <= report.hypothesis_count


class TestOrder1:
    def test_rotation_character_clean_at_calibrated_params(self):
        rot = sy.SystemSpec(kind="torus_rotation", alpha=sy.DEFAULT_ALPHA, beta=sy.DEFAULT_BETA)
        u = ns.generate(rot, ns.ObservableSpec(kind="torus_character", k1=1, k2=0), 500)
        cal = rg.calibrate(u, eps=0.3, M_grid=[2, 5], delta_grid=[0.05, 0.1], shift_max=25, order=1)
        assert len(cal.report.violations) == 0
        assert cal.report.hypothesis_count > 0

    def test_quadratic_phase_violations(self):
        u = ns.quadratic_phase(math.sqrt(2) - 1, 1000)
        params = rg.RegularityParams(order=1, eps=0.3, delta=0.3, M=1, shift_max=30)
        report = rg.run_test(u, params)
        assert len(report.violations) >= 1

    def test_constant_clean(self):
        u = sample(np.ones(101))
        params = rg.RegularityParams(order=1, eps=0.1, delta=0.1, M=2, shift_max=4)
        report = rg.run_test(u, params)
        assert report.violation_count == 0


class TestOrderSeparation:
    def test_theta_sequence_is_order2_not_order1(self, spec):
        # The central observable on the Heisenberg system: violations at
        # order 1 but a clean order-2 verdict with non-trivial
        # hypothesis support, at identical (eps, delta, M).
        u = ns.generate(spec, ns.ObservableSpec(kind="vertical_theta", m_freq=1), 2000)
        p1 = rg.RegularityParams(order=1, eps=0.3, delta=0.3, M=1, shift_max=60)
        rep1 = rg.run_test(u, p1)
        assert len(rep1.violations) > 0
        p2 = rg.RegularityParams(order=2, eps=0.3, delta=0.3, M=1, shift_max=60)
        rep2 = rg.run_test(u, p2)
        assert rep2.violation_count == 0
        trivial = rep2.k_hi - rep2.k_lo + 1
        assert rep2.hypothesis_count > trivial

    def test_quadratic_phase_is_order2_not_order1(self):
        u = ns.quadratic_phase(math.sqrt(2) - 1, 1500)
        p1 = rg.RegularityParams(order=1, eps=0.3, delta=0.3, M=1, shift_max=50)
        assert len(rg.run_test(u, p1).violations) > 0
        p2 = rg.RegularityParams(order=2, eps=0.3, delta=0.3, M=1, shift_max=50)
        rep2 = rg.run_test(u, p2)
        assert rep2.violation_count == 0
        assert rep2.hypothesis_count > rep2.k_hi - rep2.k_lo + 1


class TestEngineOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_reports(self, seed):
        gen = np.random.default_rng(seed)
        u = random_sample(gen, 60)
        order = 1 + seed % 2
        params = rg.RegularityParams(
            order=order,
            eps=float(gen.uniform(0.1, 0.8)),
            delta=float(gen.uniform(0.3, 1.5)),
            M=int(gen.integers(0, 3)),
            shift_max=int(gen.integers(1, 5)),
        )
        self.assert_identical(u, params)

    def test_identical_reports_sparse_rows(self):
        # Period 5 plus a complex bump: only the 25 (m, n) rows with both
        # shifts divisible by 5 have a hypothesis, and the bump gives some
        # of them dozens of violations whose gaps must match bit for bit.
        gen = np.random.default_rng(11)
        n = np.arange(-60, 61)
        vals = np.exp(2j * np.pi * n / 5)
        bump = np.abs(n) <= 15
        vals[bump] += 0.25 * np.exp(2j * np.pi * gen.uniform(size=bump.sum()))
        u = sample(vals, n_min=-60)
        params = rg.RegularityParams(order=1, eps=0.1, delta=0.6, M=3, shift_max=12)
        fast = self.assert_identical(u, params)
        assert len(set(map(tuple, fast.violations.shifts.tolist()))) < 25 < len(fast.violations)

    def test_identical_reports_dense_and_sparse_leaves(self):
        # Period 5 plus a drift of 0.01 per step on n < 0 and three spikes on
        # n > 0.  Shifts of 5 and 10 hold the delta hypothesis on the drift,
        # so their leaves have rows of over 64 consecutive violations there;
        # a shift of 15 breaks it, and its leaf has only the spikes' few.
        gen = np.random.default_rng(4)
        n = np.arange(-120, 121)
        vals = np.exp(2j * np.pi * gen.uniform(size=5))[n % 5] + np.where(n < 0, 0.01 * n, 0)
        vals[[160, 190, 215]] += 0.1
        u = sample(vals, n_min=-120)
        params = rg.RegularityParams(order=1, eps=0.08, delta=0.12, M=0, shift_max=15)
        fast = self.assert_identical(u, params)
        rows = {}
        for (m, n), k in zip(fast.violations.shifts.tolist(), fast.violations.k.tolist()):
            rows.setdefault((m, n), []).append(k)

        def longest_run(ks):
            starts = np.flatnonzero(np.diff(ks, prepend=ks[0] - 2) != 1)
            return int(np.diff(np.append(starts, len(ks))).max())

        assert max(longest_run(ks) for (m, _), ks in rows.items() if m == -10) > 64
        sparse = [ks for (m, _), ks in rows.items() if m == 15]
        assert sparse and max(map(len, sparse)) < 10

    # eps 3 is past every |u_a - u_b| <= 2 sqrt(2), so nothing violates.
    @pytest.mark.parametrize("order, eps", [(1, 0.4), (2, 0.4), (1, 3.0), (2, 3.0)])
    def test_identical_columns(self, order, eps):
        gen = np.random.default_rng(30 + order)
        u = random_sample(gen, 40)
        params = rg.RegularityParams(order=order, eps=eps, delta=1.2, M=1, shift_max=2)
        fast, slow = rg.run_test(u, params), rg.naive_test(u, params)
        for rep in (fast, slow):
            assert len(rep.violations) == rep.violation_count
        assert (len(fast.violations) > 0) == (eps < 3)
        assert fast.violations.shifts.shape == (len(fast.violations), order + 1)
        assert_same_violations(fast, slow)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 10: the threshold tables compare np.abs, the oracle scalar abs, "
        "and on complex values the two round apart at a threshold equal to a modulus",
    )
    def test_threshold_at_a_complex_modulus(self):
        gen = np.random.default_rng(1)
        u = sample(gen.standard_normal(40) + 1j * gen.standard_normal(40), n_min=0)
        params = rg.RegularityParams(order=1, eps=1e9, delta=1.251449239332214, M=0, shift_max=1)
        assert rg.naive_test(u, params).hypothesis_count == 143
        self.assert_identical(u, params)

    @staticmethod
    def assert_identical(u, params):
        fast = rg.run_test(u, params)
        slow = rg.naive_test(u, params)
        assert_same_violations(fast, slow)
        assert fast.hypothesis_count == slow.hypothesis_count
        assert fast.scanned == slow.scanned
        assert (fast.k_lo, fast.k_hi) == (slow.k_lo, slow.k_hi)
        return fast


class TestScanKernels:
    @staticmethod
    def prefix_count_window_free(table, M):
        """The prefix-count form: a window is free when its count is equal at both ends."""
        c = np.zeros((len(table), table.shape[1] + 1), dtype=np.int32)
        np.cumsum(table, axis=1, out=c[:, 1:])
        return c[:, 2 * M + 1 :] == c[:, : -(2 * M + 1)]

    @pytest.mark.parametrize("M", [0, 1, 3, 7, 8, 15, 16, 25])
    def test_window_free_matches_prefix_count(self, M):
        # 2M + 1 sits just below and just past powers of two (1, 3, 7, 15, 17, 31, 33, 51).
        gen = np.random.default_rng(M)
        for density in (0.0, 0.005, 0.02, 0.2):
            for width in (2 * M + 1, 2 * M + 2, 130):
                table = gen.random((6, width)) < density
                got = rg._window_free(table, M)
                want = self.prefix_count_window_free(table, M)
                assert got.shape == want.shape == (6, width - 2 * M)
                assert got.dtype == bool
                assert np.array_equal(got, want)

    @staticmethod
    def stacked_shift_rows(table, start, nbits, D):
        rows = [table[abs(s), start + min(s, 0) : start + min(s, 0) + nbits] for s in range(-D, D + 1)]
        return np.packbits(np.stack(rows), axis=1)

    @pytest.mark.parametrize("D", [1, 2, 5])
    @pytest.mark.parametrize("nbits", [1, 7, 8, 13, 40])
    def test_shift_rows_match_stacked_rows(self, D, nbits):
        gen = np.random.default_rng(10 * D + nbits)
        width = D + nbits + 4
        table = gen.random((D + 3, width)) < 0.5
        # start == D is the smallest start a scan uses; the last start ends at the edge.
        for start in (D, D + 1, width - nbits):
            want = self.stacked_shift_rows(table, start, nbits, D)
            assert want.shape == (2 * D + 1, (nbits + 7) // 8)
            assert np.array_equal(rg._shift_rows(table, start, nbits, D), want)

    def test_shift_rows_of_non_contiguous_tables(self):
        gen = np.random.default_rng(3)
        big = gen.random((12, 90)) < 0.5
        for table in (big[1:8, 5:60], big[:, ::3], np.asfortranarray(big[:7])):
            assert not table.flags.c_contiguous
            for start, nbits in ((6, 11), (6, 16), (9, len(table[0]) - 9)):
                want = self.stacked_shift_rows(table, start, nbits, 6)
                assert np.array_equal(rg._shift_rows(table, start, nbits, 6), want)

    # A width hi - lo + 1 of 8q + r, r in 1..7, leaves the last packed byte
    # partial, so violations at the last base indices sit in its padding byte.
    @given(
        order=st.sampled_from([1, 2]),
        q=st.integers(0, 3),
        r=st.integers(1, 7),
        S=st.integers(1, 3),
        M=st.integers(0, 2),
        eps=st.floats(0.05, 0.9),
        delta=st.floats(0.2, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_run_test_matches_naive_in_partial_bytes(self, order, q, r, S, M, eps, delta, seed):
        S = min(S, 2) if order == 2 else S  # keeps the order-2 oracle quick
        width = 8 * q + r
        margin = rg.RegularityParams(order, eps, delta, M, S).margin
        gen = np.random.default_rng(seed)
        # Few levels, so both hypotheses and failed conclusions are common.
        levels = np.array([0.0, 0.3, 1.0, 0.3j])
        values = levels[gen.integers(0, len(levels), 2 * margin + width + 3)]
        n_min = -margin - 1
        lo = n_min + margin + int(gen.integers(0, 4))
        params = rg.RegularityParams(order, eps, delta, M, S, k_range=(lo, lo + width - 1))
        u = sample(values, n_min=n_min)
        fast = rg.run_test(u, params)
        slow = rg.naive_test(u, params)
        assert fast.k_hi - fast.k_lo + 1 == width
        assert_same_violations(fast, slow)
        assert fast.hypothesis_count == slow.hypothesis_count


class TestInvariants:
    def test_monotone_in_eps(self, rng):
        u = random_sample(rng, 60)
        counts = []
        for eps in (0.1, 0.3, 0.9):
            params = rg.RegularityParams(order=2, eps=eps, delta=1.0, M=0, shift_max=3)
            counts.append(len(rg.run_test(u, params).violations))
        assert counts[0] >= counts[1] >= counts[2]

    def test_monotone_in_delta(self, rng):
        u = random_sample(rng, 60)
        counts = []
        for delta in (1.5, 0.8, 0.2):
            params = rg.RegularityParams(order=2, eps=0.3, delta=delta, M=0, shift_max=3)
            counts.append(len(rg.run_test(u, params).violations))
        assert counts[0] >= counts[1] >= counts[2]

    def test_monotone_in_M(self, rng):
        u = random_sample(rng, 60)
        counts = []
        for M in (0, 1, 2):
            params = rg.RegularityParams(order=2, eps=0.3, delta=1.0, M=M, shift_max=3)
            counts.append(len(rg.run_test(u, params).violations))
        assert counts[0] >= counts[1] >= counts[2]

    def test_shift_symmetry_per_k(self, rng):
        # The hypothesis is symmetric under permuting (m, n, p), so the
        # violating k sets agree across permuted tuples.
        u = random_sample(rng, 50)
        params = rg.RegularityParams(order=2, eps=0.25, delta=1.1, M=0, shift_max=3)
        report = rg.run_test(u, params)
        by_tuple = {}
        for (m, n, p), k in zip(report.violations.shifts.tolist(), report.violations.k.tolist()):
            by_tuple.setdefault((m, n, p), set()).add(k)
        for (m, n, p), ks in by_tuple.items():
            for perm in ((n, m, p), (p, n, m), (m, p, n)):
                assert by_tuple.get(perm, set()) == ks

    def test_zero_shift_tuple_never_violates(self, rng):
        u = random_sample(rng, 50)
        params = rg.RegularityParams(order=2, eps=1e-9, delta=2.5, M=0, shift_max=2)
        report = rg.run_test(u, params)
        assert report.violations.shifts.any(axis=1).all()


class TestCalibrate:
    def test_constant_picks_first_grid_point(self):
        u = sample(np.ones(201))
        cal = rg.calibrate(u, eps=0.2, M_grid=[5, 10], delta_grid=[0.02, 0.05], shift_max=5)
        # all grid points are clean with equal hypothesis counts except
        # that larger M shrinks nothing here; tie-break takes smaller M,
        # then larger delta.
        assert cal.M == 5
        assert cal.delta == 0.05
        assert cal.report.violation_count == 0

    def test_pseudorandom_has_no_clean_pair(self):
        gen = np.random.default_rng(7)
        vals = gen.uniform(-1, 1, 301) + 1j * gen.uniform(-1, 1, 301)
        u = sample(vals)
        cal = rg.calibrate(u, eps=0.05, M_grid=[0], delta_grid=[2.5], shift_max=3)
        assert len(cal.report.violations) > 0
        assert all(e["violations"] > 0 for e in cal.entries)

    def test_empty_grid_rejected(self, rng):
        u = random_sample(rng, 50)
        with pytest.raises(ValueError):
            rg.calibrate(u, eps=0.1, M_grid=[], delta_grid=[0.1], shift_max=2)


    @pytest.mark.parametrize("order", [1, 2])
    def test_shared_tables_match_run_test(self, order):
        gen = np.random.default_rng(order)
        u = sample(gen.uniform(-1, 1, 121) + 1j * gen.uniform(-1, 1, 121))
        M_grid, delta_grid, k_range = [0, 2], [0.9, 1.6, 0.9], (-30, 25)
        cal = rg.calibrate(u, 1.2, M_grid, delta_grid, shift_max=3, order=order, k_range=k_range)
        entries = []
        for M in M_grid:
            for delta in delta_grid:
                params = rg.RegularityParams(order, 1.2, delta, M, 3, k_range)
                report = rg.run_test(u, params)
                entries.append({"M": M, "delta": delta, "violations": report.violation_count,
                                "hypothesis_count": report.hypothesis_count,
                                "vacuous": report.vacuous})
                if (M, delta) == (cal.M, cal.delta):
                    chosen = report
        assert cal.entries == entries
        assert sum(e["violations"] > 0 for e in entries) not in (0, len(entries))
        got = cal.report
        assert (got.hypothesis_count, got.scanned, got.k_lo, got.k_hi) == (
            chosen.hypothesis_count, chosen.scanned, chosen.k_lo, chosen.k_hi)
        assert_same_violations(got, chosen)

    def test_grid_points_go_through_run_test(self, monkeypatch):
        tables = []
        real_run_test = rg.run_test

        def counting_run_test(u, params, shared=None):
            tables.append(shared)
            return real_run_test(u, params, shared)

        monkeypatch.setattr(rg, "run_test", counting_run_test)
        u = ns.quadratic_phase(0.37, 100)
        rg.calibrate(u, 0.3, (2, 4), (0.02, 0.05, 0.1), shift_max=5, order=2)
        assert len(tables) == 6
        assert tables[0] is not None and all(t is tables[0] for t in tables)

    def test_difference_rows_computed_once(self, monkeypatch):
        """The order-2 S=60 grid computes Q+1 = 181 rows |u_{i+q} - u_i| in all,
        not 602 (241 masks, 361 conclusions) at each of its 9 points."""
        u = ns.quadratic_phase(0.37, 200)
        rows = []
        real_abs = np.abs

        def counting_abs(x, *args, **kwargs):
            if np.iscomplexobj(x):
                rows.append(len(x))
            return real_abs(x, *args, **kwargs)

        monkeypatch.setattr(np, "abs", counting_abs)
        cal = rg.calibrate(u, 0.3, (5, 10, 25), (0.02, 0.05, 0.1), shift_max=60, order=2)
        assert len(cal.entries) == 9
        assert len(rows) == 181
