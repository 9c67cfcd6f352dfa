import json
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nilscope import cli, cubes, heisenberg as h, nilsequence, regularity as rg, systems as sy


def run(argv):
    return cli.main(argv)


def write_points(path, points):
    payload = {"points": [list(p.as_tuple()) for p in points]}
    Path(path).write_text(json.dumps(payload))


@pytest.fixture()
def oct_fixture(tmp_path, spec):
    base = h.NilPoint(0.21, 0.34, 0.55)
    o = cubes.sample_pped(spec, base, 9, -4, 17)
    path = tmp_path / "oct.json"
    write_points(path, o.vertices)
    return path, o


class TestGenerate:
    def test_row_count_and_exit(self, tmp_path, capsys):
        out = tmp_path / "seq.csv"
        code = run(
            ["generate", "--observable", "torus-character", "--k1", "1", "--k2", "0",
             "--n", "1000", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2002  # header + 2001 rows

    def test_vertical_theta_bounded(self, tmp_path):
        out = tmp_path / "theta.csv"
        code = run(
            ["generate", "--observable", "vertical-theta", "--m-freq", "1",
             "--n", "2000", "--out", str(out)]
        )
        assert code == 0
        from nilscope import nilsequence as nseq

        u = nseq.SequenceSample.from_csv(out.read_text())
        bound = nseq.observable_bound(nseq.ObservableSpec(kind="vertical_theta", m_freq=1))
        assert np.abs(u.values).max() <= bound

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--observable", "torus-character"])
        assert exc.value.code == 2

    def test_one_torus_character_with_k2_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["generate", "--observable", "torus-character", "--system", "torus-rotation",
                    "--dims", "1", "--k1", "1", "--k2", "1", "--n", "10", "--out", str(out)])
        assert code == 2
        assert "observable: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_is_read_once(self, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"observable = torus-character\nn = 10\nout = {out}\n")
        reads = []
        read = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path, field: reads.append(path) or read(path, field))
        assert run(["generate", "--observable", "torus-character", "--config", str(cfg)]) == 0
        assert reads == [str(cfg)]
        assert out.exists()

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_out_suffix_round_trips_through_regtest(self, tmp_path, suffix):
        seq = tmp_path / f"seq{suffix}"
        assert run(["generate", "--observable", "vertical-theta", "--n", "50",
                    "--out", str(seq)]) == 0
        assert seq.read_text().startswith("{" if suffix == ".json" else "n,re,im\n")
        assert run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                    "--delta", "0.05", "--M", "3", "--shift-max", "4"]) in (0, 1)

    def test_format_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--observable", "torus-character", "--format", "json",
                 "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_bad_observable_params(self, tmp_path):
        code = run(
            ["generate", "--observable", "vertical-theta", "--m-freq", "0",
             "--n", "10", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "observable", ["torus-character", "vertical-theta", "distance-to-base", "quadratic-phase"]
    )
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_usage_error(self, tmp_path, capsys, observable, n):
        out = tmp_path / "x.csv"
        assert run(["generate", "--observable", observable, "--n", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: n: must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("observable", ["vertical-theta", "distance-to-base"])
    def test_nil_observable_on_a_rotation_is_usage_error(self, tmp_path, capsys, observable):
        out = tmp_path / "x.csv"
        code = run(["generate", "--observable", observable, "--system", "torus-rotation",
                    "--n", "10", "--out", str(out)])
        assert code == 2
        assert "observable: " in capsys.readouterr().err
        assert not out.exists()


class TestRegtest:
    def make_sequence(self, tmp_path, kind="constant"):
        out = tmp_path / "seq.csv"
        if kind == "constant":
            rows = ["n,re,im"] + [f"{n},1.0,0.0" for n in range(-100, 101)]
            out.write_text("\n".join(rows) + "\n")
        elif kind == "quadratic":
            run(["generate", "--observable", "quadratic-phase", "--n", "500",
                 "--out", str(out)])
        return out

    def test_constant_passes(self, tmp_path):
        seq = self.make_sequence(tmp_path)
        code = run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                    "--delta", "0.1", "--M", "3", "--shift-max", "4"])
        assert code == 0

    def test_quadratic_phase_order1_fails(self, tmp_path):
        seq = self.make_sequence(tmp_path, "quadratic")
        rep = tmp_path / "rep.json"
        csv_out = tmp_path / "viol.csv"
        code = run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--delta", "0.3", "--M", "1", "--shift-max", "30",
                    "--out", str(rep), "--csv", str(csv_out)])
        assert code == 1
        payload = json.loads(rep.read_text())
        assert payload["verdict"] == "violations"
        assert payload["report"]["violations"]
        assert "elapsed_ms" not in payload["report"]
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "k,m,n,p,gap"
        assert len(lines) == len(payload["report"]["violations"]) + 1
        # order-1 rows leave p empty
        assert lines[1].split(",")[3] == ""

    def test_nonexistent_file_exit2(self, tmp_path, capsys):
        code = run(["regtest", "--input", str(tmp_path / "nope.csv"), "--order", "1",
                    "--eps", "0.3", "--delta", "0.3", "--M", "1"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("n,re,im\n0,1.0,0.0\n1,zap,0.0\n")
        code = run(["regtest", "--input", str(bad), "--order", "1", "--eps", "0.3",
                    "--delta", "0.3", "--M", "1"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("n_min, code", [(2**63 + 1, 2), (2**63 - 99, 1), (-2**63, 1)])
    def test_indices_at_the_int64_edges(self, tmp_path, capsys, n_min, code):
        seq = tmp_path / "far.csv"
        seq.write_text("n,re,im\n" + "".join(f"{n_min + i},{i % 2},0\n" for i in range(99)))
        rep = tmp_path / "far.json"
        assert run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.01",
                    "--delta", "2", "--M", "1", "--shift-max", "2", "--out", str(rep)]) == code
        if code == 2:
            assert "line 2: index outside the int64 range" in capsys.readouterr().err
            return
        report = json.loads(rep.read_text())["report"]
        assert (report["k_lo"], report["k_hi"]) == (n_min + 4, n_min + 94)
        assert {v["k"] for v in report["violations"]} == set(range(n_min + 4, n_min + 95))

    def test_json_window_beyond_int64_exit2(self, tmp_path, capsys):
        seq = tmp_path / "far.json"
        seq.write_text(json.dumps({"n_min": 2**63 + 1, "values": [[1.0, 0.0]] * 9}))
        code = run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--delta", "0.3", "--M", "1", "--shift-max", "2"])
        assert code == 2
        assert "outside the int64 range" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, field", [
        ({"n_min": 0, "values": [1, 2, 3]}, "values"),
        ({"n_min": None, "values": [[1.0, 0.0]]}, "n_min"),
        ([[1.0, 0.0]], "object"),
        ({"n_min": 0, "values": [["a", 0]]}, "values"),
        ({"n_min": 0.5, "values": [[1.0, 0.0]]}, "n_min"),
        ({"n_min": 0, "values": [[10**400, 0]]}, "too large"),
    ], ids=["scalar-rows", "null-n_min", "top-level-list", "text-row", "fractional-n_min",
            "huge-int"])
    def test_malformed_json_sequence_exit2(self, tmp_path, capsys, payload, field):
        seq = tmp_path / "bad.json"
        seq.write_text(json.dumps(payload))
        code = run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--delta", "0.3", "--M", "1", "--shift-max", "2"])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_missing_required_field_exit2(self, tmp_path, capsys):
        seq = self.make_sequence(tmp_path)
        code = run(["regtest", "--input", str(seq), "--order", "1", "--delta", "0.1",
                    "--M", "1"])
        assert code == 2
        assert "eps" in capsys.readouterr().err

    def test_calibrate_mode(self, tmp_path):
        seq = self.make_sequence(tmp_path)
        rep = tmp_path / "cal.json"
        code = run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                    "--calibrate", "--M-grid", "2,4", "--delta-grid", "0.05,0.1",
                    "--shift-max", "3", "--out", str(rep)])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["calibrate"]["entries"]
        assert payload["M"] == 2

    def test_config_file_merging(self, tmp_path):
        seq = self.make_sequence(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {seq}\norder = 2\neps = 0.3\ndelta = 0.1\nm = 3\nshift_max = 4\n"
        )
        assert run(["regtest", "--config", str(cfg)]) == 0
        # flags win over config
        assert run(["regtest", "--config", str(cfg), "--order", "1"]) == 0

    def test_calibrate_from_config_file(self, tmp_path, capsys):
        seq = self.make_sequence(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {seq}\norder = 2\neps = 0.3\nshift_max = 4\ncalibrate = yes\n")
        assert run(["regtest", "--config", str(cfg)]) == 0
        assert "calibrated" in capsys.readouterr().out
        cfg.write_text(f"input = {seq}\norder = 2\neps = 0.3\ncalibrate = maybe\n")
        assert run(["regtest", "--config", str(cfg)]) == 2
        assert "calibrate: cannot parse config value 'maybe'" in capsys.readouterr().err

    def test_config_keys_named_as_the_flags(self, tmp_path):
        # The long option names --M and --M-grid, as docs/formats.md spells keys.
        seq = self.make_sequence(tmp_path)
        cfg = tmp_path / "run.cfg"
        rep = tmp_path / "rep.json"
        cfg.write_text("M = 1\ndelta = 0.3\n")
        assert run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--shift-max", "5", "--config", str(cfg), "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["M"] == 1
        cfg.write_text("M_grid = 1,2\n")
        assert run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--shift-max", "5", "--calibrate", "--config", str(cfg),
                    "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["calibrate"]["M_grid"] == [1, 2]

    @pytest.mark.parametrize("flag, value, name", [
        ("--delta-grid", "0.1,abc", "delta_grid"),
        ("--M-grid", "2,x", "M_grid"),
    ])
    def test_bad_grid_flag_names_its_field(self, tmp_path, capsys, flag, value, name):
        seq = self.make_sequence(tmp_path)
        code = run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                    "--shift-max", "3", "--calibrate", flag, value])
        assert code == 2
        assert f"error: {name}: cannot parse grid value {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("line, name, value", [
        ("M_grid = x", "M_grid", "x"),
        ("delta_grid = 0.1,abc", "delta_grid", "0.1,abc"),
    ])
    def test_bad_grid_config_line_names_its_field(self, tmp_path, capsys, line, name, value):
        seq = self.make_sequence(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                    "--shift-max", "3", "--calibrate", "--config", str(cfg)])
        assert code == 2
        assert f"error: {name}: cannot parse grid value {value!r}" in capsys.readouterr().err

    def test_missing_M_names_the_option(self, tmp_path, capsys):
        seq = self.make_sequence(tmp_path)
        code = run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--delta", "0.3", "--shift-max", "5"])
        assert code == 2
        assert "error: M: required" in capsys.readouterr().err


def bump_sequence(path):
    """A zero sequence on [-6, 6] with one complex bump at 0: two violations at S=1."""
    rows = ["n,re,im"] + [f"{n},{0.9 if n == 0 else 0.0},{0.2 if n == 0 else 0.0}" for n in range(-6, 7)]
    path.write_text("\n".join(rows) + "\n")
    return path


def plain(obj):
    """obj with every ViolationColumns replaced by the list of dicts json writes for it."""
    if isinstance(obj, rg.ViolationColumns):
        out = []
        for k, ns, gap in zip(obj.k.tolist(), obj.shifts.tolist(), obj.gap.tolist()):
            m, n, p = (*ns, None)[:3]
            out.append({"k": k, "m": m, "n": n, "p": p, "gap": gap})
        return out
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [plain(value) for value in obj]
    return obj


def reference_json(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"


class TestReportBytes:
    """The violation template writer against json.dumps(sort_keys=True, indent=2)."""

    EDGE_GAPS = [0.0, 5e-324, 2.5e-310, 1e16, 1e-7, 0.1, 0.6000000000000001, 1.5e300]

    @staticmethod
    def scan_payload(order):
        gen = np.random.default_rng(3)
        vals = gen.uniform(-1, 1, 81) + 1j * gen.uniform(-1, 1, 81)
        u = nilsequence.SequenceSample(values=vals, n_min=-40)
        params = rg.RegularityParams(order=order, eps=1.5, delta=1.2, M=1, shift_max=3)
        report = rg.run_test(u, params)
        assert report.violation_count > 0
        return {"command": "regtest", "order": order, "report": report.to_dict()}

    @pytest.mark.parametrize("order", [1, 2])
    def test_scan_reports(self, order):
        payload = self.scan_payload(order)
        assert cli._dump_json(payload) == reference_json(payload)

    def test_zero_violations(self):
        payload = self.scan_payload(1)
        empty = rg.ViolationColumns(np.zeros(0, np.int64), np.zeros((0, 2), np.int64), np.zeros(0))
        payload["report"]["violations"] = empty
        text = cli._dump_json(payload)
        assert text == reference_json(payload)
        assert '"violations": []' in text

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_edge_gaps(self, order, depth):
        gaps = np.array(self.EDGE_GAPS + [np.inf, np.nan])
        count = len(gaps)
        gen = np.random.default_rng(order)
        columns = rg.ViolationColumns(
            k=gen.integers(-5000, 5000, count),
            shifts=gen.integers(-60, 61, (count, order + 1)),
            gap=gaps,
        )
        assert (columns.k < 0).any() and (columns.shifts < 0).any()
        payload = {"hypothesis_count": 7, "violations": columns, "vacuous": False}
        for _ in range(depth):
            payload = {"a": [1.5, None], "report": payload, "z": "last"}
        assert cli._dump_json(payload) == reference_json(payload)

    def test_calibrate_payload(self, tmp_path, monkeypatch):
        seq = bump_sequence(tmp_path / "bump.csv")
        payloads = []
        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda payload, *a: payloads.append(payload) or real_emit(payload, *a))
        code = run(["regtest", "--input", str(seq), "--order", "1", "--eps", "0.3",
                    "--calibrate", "--M-grid", "0", "--delta-grid", "0.5,0.95",
                    "--shift-max", "1"])
        assert code == 1
        (payload,) = payloads
        assert payload["calibrate"]["entries"] and payload["report"]["violations"].k.size
        assert cli._dump_json(payload) == reference_json(payload)

    def test_out_equals_json_stdout(self, tmp_path, capsys):
        seq = bump_sequence(tmp_path / "bump.csv")
        rep = tmp_path / "rep.json"
        code = run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                    "--delta", "0.5", "--M", "0", "--shift-max", "1",
                    "--out", str(rep), "--json"])
        assert code == 1
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["report"]["violations"]
        assert rep.read_bytes() == stdout.encode()

    @pytest.mark.parametrize(
        "order, expected",
        [
            (1, "k,m,n,p,gap\n2,-1,-1,,0.6219544457292887\n-2,1,1,,0.6219544457292887\n"),
            (2, "k,m,n,p,gap\n3,-1,-1,-1,0.6219544457292887\n-3,1,1,1,0.6219544457292887\n"),
        ],
    )
    def test_csv_bytes(self, tmp_path, order, expected):
        seq = bump_sequence(tmp_path / "bump.csv")
        csv_out = tmp_path / "viol.csv"
        code = run(["regtest", "--input", str(seq), "--order", str(order), "--eps", "0.3",
                    "--delta", "0.5", "--M", "0", "--shift-max", "1", "--csv", str(csv_out)])
        assert code == 1
        assert csv_out.read_bytes() == expected.encode()


    @staticmethod
    def many_columns(order, gaps_kind, count=9000):
        """Columns of more than 8,192 violations, so the writer crosses a chunk boundary."""
        gen = np.random.default_rng([order, len(gaps_kind)])
        if gaps_kind == "repeated":
            gap = gen.choice([0.0, 0.25, 1e-7, 0.6000000000000001], count)
        else:
            gap = gen.uniform(0, 2, count)
        gap[[5, 17, 4000]] = [-0.0, 0.0, np.inf]
        return rg.ViolationColumns(
            k=gen.integers(-3000, 3000, count),
            shifts=gen.integers(-60, 61, (count, order + 1)),
            gap=gap,
        )

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("gaps_kind", ["repeated", "distinct"])
    def test_many_violations(self, tmp_path, order, gaps_kind):
        columns = self.many_columns(order, gaps_kind)
        payload = {"order": order, "report": {"violations": columns, "vacuous": False}, "z": [0.5]}
        want = reference_json(payload)
        assert len(list(cli._json_chunks(payload))) > 3  # prefix, two or more chunks, suffix
        assert cli._dump_json(payload) == want
        out = tmp_path / "rep.json"
        cli._atomic_write(str(out), cli._json_chunks(payload))
        assert out.read_bytes() == want.encode()
        row = "%s," * (order + 2) + "," * (2 - order) + "%r\n"
        rows = zip(columns.k.tolist(), *columns.shifts.T.tolist(), columns.gap.tolist())
        csv = "".join(["k,m,n,p,gap\n", *(row % r for r in rows)])
        assert "".join(cli._violations_csv(columns)) == csv

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunk_rows(self, order, rows, monkeypatch):
        payload = self.scan_payload(order)
        columns = payload["report"]["violations"]
        want_json, want_csv = reference_json(payload), "".join(cli._violations_csv(columns))
        monkeypatch.setattr(cli, "_CHUNK", rows)
        chunks = -(-len(columns) // rows)
        assert len(list(cli._violations_json(columns, "    "))) == chunks > 1
        assert len(list(cli._violations_csv(columns))) == chunks
        assert cli._dump_json(payload) == want_json
        assert "".join(cli._violations_csv(columns)) == want_csv

    @pytest.mark.parametrize(
        "values", [[-(2**62), 2**62], [2**62, -(2**62)], [2**63 - 1, -(2**63)], [0, 10**8]]
    )
    def test_wide_integer_column(self, values):
        tracemalloc.start()
        try:
            texts = cli._column_text(np.array(values, dtype=np.int64), str, "<", ">")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert texts == [f"<{v}>" for v in values]
        assert peak < 1 << 20  # no table over the range

    @pytest.mark.parametrize(
        "values, distinct",
        [
            ([3, -1, 3, 7, -1, 3, 3], 3),  # range within the presence table's reach
            ([10**12, 5, 10**12, -5], 3),  # range far wider than the column
            ([0.5, -0.0, 0.0, np.nan, 0.5, np.inf, -0.0, np.nan], 5),  # -0.0 is not 0.0
        ],
    )
    def test_fmt_once_per_distinct_value(self, values, distinct):
        calls = []

        def fmt(v):
            calls.append(v)
            return repr(v)

        texts = cli._column_text(np.array(values), fmt, "[", "]")
        assert texts == [f"[{v!r}]" for v in values]
        assert len(calls) == distinct

    def test_out_bytes_of_a_large_scan(self, tmp_path, monkeypatch):
        gen = np.random.default_rng(8)
        rows = ["n,re,im"] + [f"{n},{gen.uniform(-1, 1)!r},{gen.uniform(-1, 1)!r}" for n in range(-70, 71)]
        seq = tmp_path / "noise.csv"
        seq.write_text("\n".join(rows) + "\n")
        payloads = []
        real_emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda payload, *a: payloads.append(payload) or real_emit(payload, *a))
        rep = tmp_path / "rep.json"
        code = run(["regtest", "--input", str(seq), "--order", "1", "--eps", "1e-9",
                    "--delta", "3", "--M", "0", "--shift-max", "4", "--out", str(rep)])
        assert code == 1
        (payload,) = payloads
        assert payload["report"]["violations"].k.size > 8192
        assert rep.read_bytes() == reference_json(payload).encode()


class TestCubeCommands:
    def test_pgram_member(self, tmp_path, spec):
        q = cubes.sample_pgram(spec, h.NilPoint(0.1, 0.9, 0.3), 40, -17)
        path = tmp_path / "quad.json"
        write_points(path, q.vertices)
        assert run(["pgram-test", "--input", str(path)]) == 0

    def test_pgram_nonmember(self, tmp_path, spec):
        q = cubes.sample_pgram(spec, h.NilPoint(0.1, 0.9, 0.3), 40, -17)
        verts = list(q.vertices)
        verts[3] = h.NilPoint((verts[3].x + 0.2) % 1.0, verts[3].y, verts[3].z)
        path = tmp_path / "quad.json"
        write_points(path, verts)
        assert run(["pgram-test", "--input", str(path)]) == 1

    def test_pped_test(self, tmp_path, oct_fixture):
        path, _ = oct_fixture
        out = tmp_path / "pped.json"
        code = run(["pped-test", "--input", str(path), "--horizon", "25", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["witness"] == {"m": 9, "n": -4, "p": 17}

    def test_pped_complete_roundtrip(self, tmp_path, oct_fixture, spec):
        path, o = oct_fixture
        seven = tmp_path / "seven.json"
        write_points(seven, o.vertices[:7])
        out = tmp_path / "done.json"
        code = run(["pped-complete", "--input", str(seven), "--horizon", "25",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        x7 = h.NilPoint(*payload["x7"])
        assert h.dist(x7, o.v7) < 1e-6

    def test_pped_complete_truncated_spread(self, tmp_path, oct_fixture, capsys):
        _, o = oct_fixture
        rng = np.random.default_rng(7)
        verts = [h.NilPoint(v.x, v.y, float(rng.random())) for v in o.vertices[:7]]
        seven = tmp_path / "seven.json"
        write_points(seven, verts)
        out = tmp_path / "done.json"
        code = run(["pped-complete", "--input", str(seven), "--horizon", "20",
                    "--resid-tol", "1.0", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["spread"] is None
        assert "spread truncated [ok]" in capsys.readouterr().out

    def test_pped_complete_bad_face(self, tmp_path, oct_fixture, capsys):
        path, o = oct_fixture
        verts = list(o.vertices[:7])
        verts[2] = h.NilPoint((verts[2].x + 0.3) % 1.0, verts[2].y, verts[2].z)
        seven = tmp_path / "seven.json"
        write_points(seven, verts)
        out = tmp_path / "rej.json"
        code = run(["pped-complete", "--input", str(seven), "--horizon", "10",
                    "--out", str(out), "--json"])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["error"] == "face_precondition"
        assert payload["face"] in ("axis1-low", "axis2-low", "axis3-low")

    @pytest.mark.parametrize("command, count", [("pped-test", 8), ("pped-complete", 7)])
    def test_zero_horizon_is_usage_error_before_the_faces(self, tmp_path, oct_fixture, capsys,
                                                          command, count):
        _, o = oct_fixture
        verts = list(o.vertices[:count])
        verts[2] = h.NilPoint((verts[2].x + 0.3) % 1.0, verts[2].y, verts[2].z)
        path = tmp_path / "points.json"
        write_points(path, verts)
        out = tmp_path / "out.json"
        assert run([command, "--input", str(path), "--horizon", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: horizon: must be >= 1\n"
        assert not out.exists()

    def test_points_of_another_kind_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "oct.json"
        write_points(path, [sy.TorusPoint((0.1 * k, 0.5)) for k in range(8)])
        assert run(["pped-test", "--input", str(path)]) == 2
        assert "heisenberg system needs 3-coordinate points" in capsys.readouterr().err

    def test_wrong_point_count(self, tmp_path, spec, capsys):
        q = cubes.sample_pgram(spec, h.NilPoint(0.1, 0.9, 0.3), 4, 2)
        path = tmp_path / "quad.json"
        write_points(path, q.vertices)
        assert run(["pped-test", "--input", str(path)]) == 2

    @pytest.mark.parametrize("rows", [[[0.1], [0.2, 0.3]] * 2, [[0.1, 0.2, 0.3], [0.2, 0.3]] * 2],
                             ids=["torus", "nil-torus"])
    def test_mixed_point_dimensions_are_usage_error(self, tmp_path, capsys, rows):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"points": rows}))
        assert run(["pgram-test", "--input", str(path)]) == 2
        assert "mixed point dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("command, count", [("pgram-test", 4), ("pped-test", 8), ("pped-complete", 7)])
    @pytest.mark.parametrize(
        "row",
        [1, ["a", 0, 0], ["0.1", "0.2", "0.3"], [0.1, False, 0.3], {"0.1": 1, "0.2": 2, "0.3": 3}],
        ids=["scalar", "text", "strings", "false", "object"],
    )
    def test_malformed_point_rows_are_usage_error(self, tmp_path, capsys, command, count, row):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [row] * count}))
        assert run([command, "--input", str(path)]) == 2
        assert "want a list of reals" in capsys.readouterr().err


class TestProxCommands:
    def test_rp_trivial(self, tmp_path):
        out = tmp_path / "rp.json"
        code = run(["rp-search", "--x", "0.3,0.4,0.5", "--y", "0.3,0.4,0.5",
                    "--n-max", "20", "--perturb-samples", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["eps_achieved"] < 1e-12

    def test_pair_file_input(self, tmp_path):
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"x": [0.3, 0.4, 0.2], "y": [0.3, 0.4, 0.7]}))
        out = tmp_path / "rp.json"
        code = run(["rp-search", "--input", str(pair), "--n-max", "50",
                    "--perturb-samples", "8", "--out", str(out)])
        assert code == 0

    def test_malformed_pair_file_is_usage_error(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        for payload in (
            {"x": ["a", 0.1, 0.2], "y": [0.3, 0.4, 0.7]},
            {"x": ["0.3", "0.4", "0.2"], "y": [0.3, 0.4, 0.7]},
            {"x": [0.3, 0.4, 0.2], "y": {"0.3": 1, "0.4": 2, "0.7": 3}},
        ):
            pair.write_text(json.dumps(payload))
            assert run(["rp-search", "--input", str(pair)]) == 2
            assert "want a list of reals" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["0.3,zap,0.2", "0.3,1.5,0.2", "nan,0.4,0.2"])
    def test_bad_point_flag_is_usage_error(self, x, capsys):
        assert run(["rp-search", "--x", x, "--y", "0.3,0.4,0.7"]) == 2
        assert capsys.readouterr().err.startswith("error: x: ")

    @pytest.mark.parametrize("seed", [-1, 2**43])
    def test_seed_out_of_range_is_usage_error(self, seed, capsys):
        code = run(["rp-search", "--x", "0.3,0.4,0.2", "--y", "0.3,0.4,0.7", f"--seed={seed}"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_pair_is_usage_error(self, capsys):
        assert run(["rp2-search", "--x", "0.1,0.2,0.3"]) == 2

    def test_point_dimension_must_match_system(self, capsys):
        code = run(["rp-search", "--system", "torus-rotation", "--x", "0.1", "--y", "0.2"])
        assert code == 2
        assert "needs 2-coordinate points" in capsys.readouterr().err

    def test_bad_budget_is_usage_error(self, capsys):
        code = run(["rp-search", "--x", "0.1,0.2,0.3", "--y", "0.4,0.5,0.6",
                    "--n-max", "0"])
        assert code == 2

    @pytest.mark.parametrize("radius", ["inf", "1e300"])
    def test_perturb_radius_beyond_the_space_is_usage_error(self, tmp_path, capsys, radius):
        out = tmp_path / "rp.json"
        code = run(["rp-search", "--x", "0.1,0.2,0.3", "--y", "0.4,0.5,0.6",
                    "--perturb-radius", radius, "--out", str(out)])
        assert code == 2
        assert "budget: perturb_radius" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rp-search", "rp2-search", "rpds-search"])
    def test_budget_from_config_file(self, tmp_path, capsys, command):
        pair = ["--x", "0.3,0.4,0.2", "--y", "0.3,0.4,0.7"]
        budget = {"n_max": 30, "perturb_samples": 6, "perturb_radius": 0.04,
                  "time_cap_ms": 50000, "seed": 7}

        def search(name, *argv):
            out = tmp_path / f"{name}.json"
            assert run([command, *pair, *argv, "--out", str(out)]) == 0
            return out.read_bytes()

        def flags(**changes):
            items = {**budget, **changes}.items()
            return [f"--{key.replace('_', '-')}={value}" for key, value in items]

        cfg = tmp_path / "budget.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in budget.items()))
        assert search("config", "--config", str(cfg)) == search("flags", *flags())
        # A flag wins over the config value.
        won = search("config-n20", "--config", str(cfg), "--n-max", "20")
        assert won == search("flags-n20", *flags(n_max=20))
        assert json.loads(won)["budget"]["n_max"] == 20

        cfg.write_text("n_max = x\n")
        capsys.readouterr()
        assert run([command, *pair, "--config", str(cfg)]) == 2
        assert "n_max" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rp-search", "rp2-search", "rpds-search"])
    def test_zero_workers_is_usage_error(self, command, capsys):
        code = run([command, "--x", "0.3,0.4,0.2", "--y", "0.3,0.4,0.7", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err


class TestParser:
    def test_one_parser_serves_failed_and_valid_calls(self, tmp_path, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def spy():
            built.append(build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        with pytest.raises(SystemExit) as exc:
            run(["rp-search", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        out = tmp_path / "rp.json"
        code = run(["rp-search", "--x", "0.3,0.4,0.5", "--y", "0.3,0.4,0.5",
                    "--n-max", "20", "--perturb-samples", "4", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["eps_achieved"] < 1e-12
        assert len(built) == 2 and built[0] is built[1]


class TestDispatch:
    """main reads a subcommand's flags with its own parser, as the full parser would."""

    ARGVS = [
        ["generate", "--observable", "torus-character", "--n", "10", "--k1", "2", "--out", "s.csv"],
        ["regtest", "--input", "s.csv", "--order", "2", "--eps", "0.3", "--delta", "0.1",
         "--M", "3", "--calibrate", "--M-grid", "1,2", "--json"],
        ["pgram-test", "--input", "q.json", "--tol", "1e-6"],
        ["pped-test", "--input", "o.json", "--horizon", "5", "--resid-tol", "0.1",
         "--system", "torus-rotation", "--dims", "1"],
        ["pped-complete", "--input", "s.json", "--horizon", "60", "--face-tol=1e-5",
         "--workers", "2", "--out", "c.json"],
        ["pped-complete"],
        ["rp-search", "--x", "0.1,0.2,0.3", "--y", "0.1,0.2,0.4", "--n-max", "20", "--seed", "3"],
        ["rp2-search", "--input", "pair.json", "--config", "c.cfg"],
        ["rpds-search", "--x", "0.1,0.2", "--y", "0.3,0.4", "--system", "torus-rotation"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv))
    def test_direct_dispatch_gives_the_full_parsers_namespace(self, argv):
        parser = cli.build_parser()
        args = cli._parse(parser, argv)
        assert args == parser.parse_args(argv)
        assert args.command == argv[0] and callable(args.func)

    def test_every_subcommand_is_in_the_table(self):
        assert {argv[0] for argv in self.ARGVS} == set(cli.build_parser().commands)

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["pped-test", "-h"], 0), ([], 2), (["bogus"], 2),
        (["rp-search", "--bogus"], 2), (["pped-test", "--horizon", "x"], 2),
        (["pped-complete", "extra"], 2), (["generate", "--n", "3"], 2),
    ], ids=lambda arg: (" ".join(arg) or "no-command") if isinstance(arg, list) else None)
    def test_help_and_errors_are_the_full_parsers(self, argv, code, capsys):
        with pytest.raises(SystemExit) as want:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            cli.main(argv)
        assert got.value.code == want.value.code == code
        assert capsys.readouterr() == expected


class TestAtomicWrite:
    """Reports go out through <out>.<pid>.tmp and a rename."""

    PAYLOAD = {"command": "pped-test", "residual": 1.5e-17, "witness": {"m": 1, "n": -2, "p": 3},
               "points": [[0.1, 0.2, 0.3]], "spread": None, "below_tol": True}

    def test_report_is_the_dump_and_no_temp_is_left(self, tmp_path):
        out = tmp_path / "r.json"
        cli._atomic_write(str(out), cli._json_chunks(self.PAYLOAD))
        assert out.read_bytes() == cli._dump_json(self.PAYLOAD).encode()
        assert os.listdir(tmp_path) == ["r.json"]

    def test_report_mode_is_owner_only(self, tmp_path):
        out = tmp_path / "r.json"
        cli._atomic_write(str(out), ["x\n"])
        assert stat.S_IMODE(out.stat().st_mode) == 0o600

    def test_a_chunk_that_raises_leaves_no_file(self, tmp_path):
        def chunks():
            yield "{\n"
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError, match="midway"):
            cli._atomic_write(str(tmp_path / "r.json"), chunks())
        assert os.listdir(tmp_path) == []

    def test_a_missing_parent_is_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "r.json"
        cli._atomic_write(str(out), ["x\n"])
        assert out.read_text() == "x\n"
        assert os.listdir(out.parent) == ["r.json"]

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_a_taken_temp_name_is_neither_followed_nor_truncated(self, tmp_path, kind):
        out = tmp_path / "r.json"
        taken = tmp_path / f"r.json.{os.getpid()}.tmp"
        victim = tmp_path / "victim"
        victim.write_text("keep")
        if kind == "file":
            taken.write_text("keep")
        else:
            taken.symlink_to(victim)
        cli._atomic_write(str(out), ["report\n"])
        assert out.read_text() == "report\n"
        assert victim.read_text() == "keep"
        assert taken.is_symlink() if kind == "symlink" else taken.read_text() == "keep"
        assert sorted(os.listdir(tmp_path)) == sorted(["r.json", taken.name, "victim"])


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path, oct_fixture, monkeypatch):
        path, o = oct_fixture
        seven = tmp_path / "seven.json"
        write_points(seven, o.vertices[:7])
        seq = tmp_path / "seq.csv"
        run(["generate", "--observable", "vertical-theta", "--m-freq", "1", "--n", "300",
             "--out", str(seq)])

        outputs = {}
        for workers in (1, 4):
            tag = f"w{workers}"
            reg = tmp_path / f"reg_{tag}.json"
            comp = tmp_path / f"comp_{tag}.json"
            rp2 = tmp_path / f"rp2_{tag}.json"
            assert run(["regtest", "--input", str(seq), "--order", "2", "--eps", "0.3",
                        "--delta", "0.05", "--M", "5", "--shift-max", "8",
                        "--workers", str(workers), "--out", str(reg)]) == 0
            assert run(["pped-complete", "--input", str(seven), "--horizon", "25",
                        "--workers", str(workers), "--out", str(comp)]) == 0
            assert run(["rp2-search", "--x", "0.3,0.4,0.2", "--y", "0.3,0.4,0.7",
                        "--n-max", "40", "--perturb-samples", "6",
                        "--workers", str(workers), "--out", str(rp2)]) == 0
            outputs[tag] = (reg.read_bytes(), comp.read_bytes(), rp2.read_bytes())
        assert outputs["w1"] == outputs["w4"]

    @pytest.mark.parametrize("command", ["generate", "regtest", "pgram-test", "pped-test",
                                         "pped-complete", "rp-search", "rp2-search",
                                         "rpds-search"])
    def test_zero_workers_is_usage_error_on_every_subcommand(self, tmp_path, capsys, spec,
                                                             command):
        o = cubes.sample_pped(spec, h.NilPoint(0.21, 0.34, 0.55), 9, -4, 17)
        seq = tmp_path / "seq.csv"
        seq.write_text("n,re,im\n" + "".join(f"{n},1.0,0.0\n" for n in range(-20, 21)))
        points = tmp_path / "points.json"
        count = {"pgram-test": 4, "pped-test": 8, "pped-complete": 7}.get(command, 0)
        write_points(points, o.vertices[:count])
        out = tmp_path / "out.json"
        argv = {
            "generate": ["--observable", "torus-character", "--n", "10"],
            "regtest": ["--input", str(seq), "--order", "1", "--eps", "0.3", "--delta", "0.3",
                        "--M", "1", "--shift-max", "2"],
        }.get(command, ["--x", "0.3,0.4,0.2", "--y", "0.3,0.4,0.7"] if count == 0
              else ["--input", str(points)])
        assert run([command, *argv, "--workers", "0", "--out", str(out)]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_env_var_is_ignored(self, tmp_path, monkeypatch, oct_fixture):
        monkeypatch.setenv("NILSCOPE_WORKERS", "0")
        path, _ = oct_fixture
        assert run(["pped-test", "--input", str(path), "--horizon", "20"]) == 0
