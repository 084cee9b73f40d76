"""Command-line interface: formats, exit codes, golden regression."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sgwhiten as sg
from sgwhiten import cli
from sgwhiten import filter_design as fd
from sgwhiten import sim_harness as sim
from sgwhiten.cli import (FileFormatError, build_parser, main, read_csv_column,
                          write_csv, write_filter_file)
from sgwhiten.detector import DB_FLOOR

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main([str(a) for a in args])


def _fmt_reference(value) -> str:
    """The row writer's per-value formatting, kept as the byte reference."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_rows_reference(path, header, rows, comments=()):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_reference(v) for v in row) + "\n")


def read_column_reference(path, column):
    """The line-by-line column reader, kept as the reference for
    ``read_csv_column``: values, accepted files and error messages."""
    lineno = 0

    def data_lines(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if line.rstrip("\n") and not line.startswith("#"):
                yield line

    with open(path, encoding="utf-8") as fh:
        header = None
        values = []
        for fields in csv.reader(data_lines(fh)):
            if header is None:
                header = fields
                if column not in header:
                    raise FileFormatError(
                        f"{path}: missing required column {column!r}")
                idx = header.index(column)
                continue
            if len(fields) != len(header):
                raise FileFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(fields)}")
            try:
                values.append(float(fields[idx]))
            except ValueError as exc:
                raise FileFormatError(
                    f"{path}: line {lineno}: bad value for {column!r}: "
                    f"{fields[idx]!r}") from exc
        if header is None:
            raise FileFormatError(f"{path}: empty CSV")
    return np.asarray(values)


_FIELDS = st.one_of(
    st.floats().map(repr), st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["1_0", " 2 ", "nan", "-inf", "-0.0", "5e-324", "abc", "",
                     "1.5.2", '"3.25"', '" 7 "', '"a,b"', '"4\n.5"', '"x', "#9"]))
_NOISE_LINES = st.sampled_from(["# note, with a comma", "#", "#x", "", "   ",
                                "\t", " # indented"])


@st.composite
def csv_texts(draw):
    """CSV text with comment, blank and whitespace-only lines, quoted headers
    and fields, LF or CRLF newlines, an optional final newline, and rows that
    are short, long or hold values ``float`` rejects."""
    header = draw(st.lists(st.sampled_from(["n", "y", '"y,z"', " x"]),
                           max_size=2, unique=True))
    # "z" stands for a header without the column.
    header.insert(draw(st.integers(0, len(header))),
                  draw(st.sampled_from(["x", "x", '"x"', "z"])))
    width = len(header)
    lines = draw(st.lists(st.sampled_from(["# note, with a comma", "#", ""]),
                          max_size=2))
    if draw(st.integers(0, 9)):
        lines.append(",".join(header))
    good = st.lists(st.floats(allow_nan=False).map(repr), min_size=width,
                    max_size=width).map(",".join)
    lines += draw(st.lists(st.one_of(
        good, good, st.lists(_FIELDS, max_size=width + 1).map(",".join),
        _NOISE_LINES), max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = newline if lines and draw(st.booleans()) else ""
    return newline.join(lines) + final


def _outcome(reader, path):
    try:
        values = reader(path, "x")
    except Exception as exc:  # noqa: BLE001 - the type is compared too
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "in.csv"


class TestReadCsvColumn:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    @example(text="")
    @example(text="x\n")
    @example(text="# c\r\n\r\n  \r\nx,y\r\n1_0, 2 \r\n-0.0,nan")
    @example(text='n,"x"\n1,"2\n.5"\n#c\n3,bad\n')
    @example(text='x\n"x\n\n')
    def test_matches_line_reader(self, csv_path, text):
        csv_path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_csv_column, csv_path) \
            == _outcome(read_column_reference, csv_path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   1e16, -1e16, 1e-5, np.inf, -np.inf]
        x = np.concatenate([special, rng.normal(size=3000),
                            rng.normal(size=3000) * 10.0 ** rng.integers(
                                -300, 300, size=3000)])
        rng.shuffle(x)
        assert len(x) > 4096 and np.signbit(x).any() and (x == 0).sum() == 2
        path = tmp_path / "x.csv"
        write_csv(path, ("n", "x"), [np.arange(len(x)), x], comments=("c",))
        assert read_csv_column(path, "x").tobytes() == x.tobytes()


class TestWriteCsv:
    @pytest.mark.parametrize("repeats", [1, 900])
    def test_bytes_match_row_writer(self, tmp_path, repeats):
        # 900 repeats give 9900 rows, more than two of the writer's row blocks.
        floats = np.tile([0.1, -0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324,
                          2.2250738585072014e-308 / 3, DB_FLOOR, 1 / 3,
                          -12345.678901234567], repeats)
        n = len(floats)
        columns = [np.arange(n), list(range(100, 100 + n)), floats,
                   floats.astype(np.float32), np.arange(n) % 3 == 0,
                   [f"s{i}" for i in range(n)],
                   (np.arange(n) % 256).astype(np.uint8)]
        header = ("a", "b", "c", "d", "e", "f", "g")
        comments = ("first comment", "second, with a comma")
        write_csv(tmp_path / "cols.csv", header, columns, comments=comments)
        write_rows_reference(tmp_path / "rows.csv", header, zip(*columns),
                             comments=comments)
        assert (tmp_path / "cols.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()

    def test_empty_columns_write_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ("x", "y"), [[], []])
        assert (tmp_path / "empty.csv").read_bytes() == b"x,y\n"

    @pytest.mark.parametrize("header, columns", [
        (("x", "y"), [np.arange(4), np.arange(5.0)]),
        (("x", "y", "z"), [np.arange(4), np.arange(4.0)]),
        (("x",), [np.arange(4), np.arange(4.0)]),
    ], ids=["column-lengths", "too-few-columns", "too-many-columns"])
    def test_shape_mismatch_rejected_before_writing(self, tmp_path, header,
                                                    columns):
        path = tmp_path / "sub" / "out.csv"
        with pytest.raises(ValueError, match="header fields"):
            write_csv(path, header, columns)
        assert not path.parent.exists()


class TestDesign:
    def test_preset_a_stdout_and_artifact(self, tmp_path, capsys):
        rc = run(["design", "--preset", "A", "--M", 17, "--L", 5,
                  "--out", tmp_path])
        assert rc == 0
        out = capsys.readouterr().out
        wng = float(out.split("WNG=")[1].split()[0])
        assert wng == pytest.approx(0.2103, abs=5e-4)
        doc = json.loads((tmp_path / "filter_A.json").read_text())
        assert doc["M"] == 17 and doc["L"] == 5 and doc["d"] == 0
        assert len(doc["h"]) == 17

    def test_golden_artifact_bytes(self, tmp_path):
        rc = run(["design", "--preset", "A", "--M", 17, "--L", 5,
                  "--out", tmp_path])
        assert rc == 0
        assert (tmp_path / "filter_A.json").read_bytes() \
            == (GOLDEN / "filter_A.json").read_bytes()

    def test_roundtrip_exact(self, tmp_path, presets):
        rc = run(["design", "--preset", "E", "--M", 17, "--L", 5,
                  "--out", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "filter_E.json").read_text())
        assert np.array_equal(np.asarray(doc["h"]), presets["E"].h)

    def test_kept_design_writes_the_same_bytes(self, tmp_path):
        for lab in fd.PRESET_LABELS:
            kept, fresh = tmp_path / f"kept_{lab}.json", tmp_path / f"fresh_{lab}.json"
            filt = fd.design_preset(lab)
            assert fd.design_preset(lab) is filt
            write_filter_file(filt, kept)
            write_filter_file(fd.design.__wrapped__(filt.spec, label=lab), fresh)
            assert kept.read_bytes() == fresh.read_bytes()

    def test_pole_budget_validation_fails(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"design": {"omega_list": list(np.linspace(0.2, 3.0, 9))}}))
        rc = run(["design", "--preset", "E", "--M", 17, "--L", 5,
                  "--config", config, "--out", tmp_path])
        assert rc == 2

    def test_missing_m_names_field(self, tmp_path, capsys):
        rc = run(["design", "--preset", "A", "--L", 5, "--out", tmp_path])
        assert rc == 2
        assert "'M'" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # collapse_runs was accepted once but never read.
        config = tmp_path / "config.json"
        for section, key in (("design", "bogus_key"),
                             ("detector", "collapse_runs")):
            config.write_text(json.dumps({section: {key: 1}}))
            rc = run(["design", "--preset", "A", "--M", 17, "--L", 5,
                      "--config", config, "--out", tmp_path])
            assert rc == 2
            assert key in capsys.readouterr().err

    def test_custom_noise_model_from_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"design": {
            "noise": {"kind": "wide-band", "omega_c": 0.6884,
                      "omega_d": math.pi, "ts": 1.0}}}))
        rc = run(["design", "--M", 17, "--L", 5, "--config", config,
                  "--out", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "filter_custom.json").read_text())
        assert doc["wng"] == pytest.approx(0.2119, abs=2e-3)

    @pytest.mark.parametrize("noise", [
        {"kind": "narrow-band", "poles": [{"omega": 1.0}]},
        {"kind": "narrow-band", "poles": [[-1e-6, 1.0]]},
        {"kind": "narrow-band", "poles": 5},
        {"kind": "gauss-markov", "lam": "abc"},
        {"kind": "white", "ts": "x"},
        {"kind": "narrow-band", "poles": [{"sigma": math.nan, "omega": 1.0}]},
        5,
    ], ids=["pole-without-sigma", "pole-as-list", "poles-not-a-list", "lam-string",
            "ts-string", "pole-nan-sigma", "not-an-object"])
    def test_malformed_noise_model_is_validation_error(self, tmp_path, capsys,
                                                        noise):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"design": {"noise": noise}}))
        rc = run(["design", "--M", 17, "--L", 5, "--config", config,
                  "--out", tmp_path])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        # Damping too weak: the whitening inverse misses its residual bound.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"design": {"sigma_nb": -1e-14}}))
        rc = run(["design", "--preset", "E", "--M", 17, "--L", 5,
                  "--config", config, "--out", tmp_path])
        assert rc == 3

    @pytest.mark.parametrize("source", ["preset", "config"])
    def test_nan_sampling_period_rejected(self, tmp_path, capsys, source):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"design": {"noise": {"kind": "white"}}}))
        route = (["--preset", "A"] if source == "preset"
                 else ["--config", config])
        out = tmp_path / "out"
        rc = run(["design", "--M", 17, "--L", 5, "--ts", "nan", *route,
                  "--out", out])
        assert rc == 2
        assert "sampling period" in capsys.readouterr().err
        assert not out.exists()


class TestResponse:
    @pytest.fixture()
    def filter_a(self, tmp_path):
        run(["design", "--preset", "A", "--M", 17, "--L", 5, "--out", tmp_path])
        return tmp_path / "filter_A.json"

    def test_dc_row_unity(self, tmp_path, filter_a):
        rc = run(["response", filter_a, "--grid", 64, "--out", tmp_path])
        assert rc == 0
        mags = read_csv_column(tmp_path / "response_A.csv", "magnitude")
        omegas = read_csv_column(tmp_path / "response_A.csv", "omega")
        assert omegas[0] == 0.0
        assert mags[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_point_grid(self, tmp_path, filter_a):
        run(["response", filter_a, "--grid", 2, "--out", tmp_path])
        omegas = read_csv_column(tmp_path / "response_A.csv", "omega")
        assert np.allclose(omegas, [0.0, math.pi])

    def test_notch_depths_in_decibels(self, tmp_path):
        run(["design", "--preset", "E", "--M", 17, "--L", 5, "--out", tmp_path])
        rc = run(["response", tmp_path / "filter_E.json", "--grid", 4096,
                  "--out", tmp_path])
        assert rc == 0
        omegas = read_csv_column(tmp_path / "response_E.csv", "omega")
        db = read_csv_column(tmp_path / "response_E.csv", "db")
        for null in (0.8608, 1.6022, math.pi):
            assert db[np.argmin(np.abs(omegas - null))] <= -40.0

    def test_json_format(self, tmp_path, filter_a):
        rc = run(["response", filter_a, "--grid", 16, "--format", "json",
                  "--out", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "response_A.json").read_text())
        assert len(doc["omega"]) == 16

    def test_unreadable_file(self, tmp_path):
        rc = run(["response", tmp_path / "nope.json", "--out", tmp_path])
        assert rc == 4

    def test_invalid_filter_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["response", bad, "--out", tmp_path]) == 4


class TestFilterCommand:
    @pytest.fixture()
    def filter_a(self, tmp_path):
        run(["design", "--preset", "A", "--M", 17, "--L", 5, "--out", tmp_path])
        return tmp_path / "filter_A.json"

    def test_constant_passthrough(self, tmp_path, filter_a):
        data = tmp_path / "in.csv"
        write_csv(data, ("x",), [[3.25] * 40])
        rc = run(["filter", filter_a, "--input", data, "--out", tmp_path])
        assert rc == 0
        y = read_csv_column(tmp_path / "filtered.csv", "y")
        assert len(y) == 40 - 16
        assert np.allclose(y, 3.25, atol=1e-10)

    def test_short_input_rejected(self, tmp_path, filter_a):
        data = tmp_path / "in.csv"
        write_csv(data, ("x",), [[1.0] * 10])
        assert run(["filter", filter_a, "--input", data, "--out", tmp_path]) == 2

    def test_malformed_row_reports_line(self, tmp_path, filter_a, capsys):
        data = tmp_path / "in.csv"
        data.write_text("x\n1.0\n2.0\nnot-a-number\n4.0\n")
        rc = run(["filter", filter_a, "--input", data, "--out", tmp_path])
        assert rc == 4
        assert "line 4" in capsys.readouterr().err

    def test_wrong_field_count_reports_line(self, tmp_path, filter_a, capsys):
        data = tmp_path / "in.csv"
        data.write_text("x\n1.0\n# note, with a comma\n\n2.0,7\n")
        rc = run(["filter", filter_a, "--input", data, "--out", tmp_path])
        assert rc == 4
        assert "line 5" in capsys.readouterr().err

    def test_missing_column(self, tmp_path, filter_a, capsys):
        data = tmp_path / "in.csv"
        write_csv(data, ("value",), [[1.0] * 20])
        rc = run(["filter", filter_a, "--input", data, "--out", tmp_path])
        assert rc == 4
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["taps-length", "even-M", "non-finite",
                                      "non-numeric", "L-string", "M-bool",
                                      "ts-string"])
    def test_bad_filter_file_rejected(self, tmp_path, case, capsys):
        doc = json.loads((GOLDEN / "filter_A.json").read_text())
        # These files are run with --d, which re-derives the taps from L and ts.
        flags = ["--d", 1] if case in ("L-string", "ts-string") else []
        if case == "L-string":
            doc["L"] = "5"
        elif case == "ts-string":
            doc["ts"] = "x"
        elif case == "M-bool":
            doc["M"] = True
            doc["h"] = doc["h"][:1]
        elif case == "taps-length":
            doc["h"] = doc["h"][:-2]
        elif case == "even-M":
            doc["M"] = 16
            doc["h"] = doc["h"][:16]
        elif case == "non-finite":
            doc["h"][3] = float("nan")
        else:
            doc["h"][3] = "tap"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        data = tmp_path / "in.csv"
        write_csv(data, ("x",), [np.arange(40.0)])
        rc = run(["filter", bad, "--input", data, *flags, "--out", tmp_path])
        assert rc == 4
        assert "file error" in capsys.readouterr().err
        assert not (tmp_path / "filtered.csv").exists()

    def test_golden_output_bytes(self, tmp_path):
        rc = run(["filter", GOLDEN / "filter_A.json",
                  "--input", GOLDEN / "trace_low_white_seed0.csv",
                  "--out", tmp_path])
        assert rc == 0
        assert (tmp_path / "filtered.csv").read_bytes() \
            == (GOLDEN / "filtered_A.csv").read_bytes()

    def test_derivative_flag_rederives_taps(self, tmp_path, filter_a):
        data = tmp_path / "in.csv"
        write_csv(data, ("x",), [np.arange(40.0)])
        rc = run(["filter", filter_a, "--input", data, "--d", 1,
                  "--out", tmp_path])
        assert rc == 0
        y = read_csv_column(tmp_path / "filtered.csv", "y")
        assert np.allclose(y, 1.0, atol=1e-9)


class TestSimulate:
    def test_repeat_seed_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = run(["simulate", "--scenario", "low-white", "--seed", 3,
                      "--out", out])
            assert rc == 0
        name = "trace_low-white_seed3.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "table.json").read_bytes() \
            == (out2 / "table.json").read_bytes()

    def test_unknown_scenario(self, tmp_path, capsys):
        rc = run(["simulate", "--scenario", "turquoise", "--out", tmp_path])
        assert rc == 2
        assert "turquoise" in capsys.readouterr().err

    def test_outputs_present(self, tmp_path):
        rc = run(["simulate", "--scenario", "high-white", "--seeds", 2,
                  "--out", tmp_path])
        assert rc == 0
        for seed in (0, 1):
            assert (tmp_path / f"trace_high-white_seed{seed}.csv").exists()
            assert (tmp_path / f"detections_high-white_seed{seed}.json").exists()
        assert (tmp_path / "table.csv").exists()
        table = json.loads((tmp_path / "table.json").read_text())
        assert set(table["median_peak_db"]) == {"high-white"}

    def test_matched_column_e_dominates(self, tmp_path):
        rc = run(["simulate", "--scenario", "matched-colored", "--seeds", 4,
                  "--out", tmp_path])
        assert rc == 0
        table = json.loads((tmp_path / "table.json").read_text())
        row = table["median_peak_db"]["matched-colored"]
        assert max(row, key=row.get) == "E"

    def test_trace_columns(self, tmp_path):
        run(["simulate", "--scenario", "matched-colored", "--seed", 0,
             "--out", tmp_path])
        path = tmp_path / "trace_matched-colored_seed0.csv"
        header = [line for line in path.read_text().splitlines()
                  if not line.startswith("#")][0].split(",")
        assert header[:2] == ["n", "x"]
        for lab in sg.PRESET_LABELS:
            for col in (f"y_{lab}", f"zdb_{lab}", f"ddb_{lab}", f"det_{lab}"):
                assert col in header

    def test_table_uses_configured_masks(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": {
            "foreground_keep": [1, 2], "background_zero": [0, 1, 2]}}))
        rc = run(["simulate", "--scenario", "low-white", "--seeds", 3,
                  "--config", config, "--out", tmp_path])
        assert rc == 0
        table = json.loads((tmp_path / "table.json").read_text())
        docs = [json.loads((tmp_path / f"detections_low-white_seed{s}.json")
                           .read_text()) for s in range(3)]
        for lab in sg.PRESET_LABELS:
            peaks = [doc["filters"][lab]["peak_snr_db"]["quad-medium"]
                     for doc in docs]
            assert table["median_peak_db"]["low-white"][lab] \
                == float(np.median(peaks))

    def test_one_detection_pass(self, tmp_path, monkeypatch):
        # One shared bank and residual pass for all six presets, over both
        # seeds, and no per-preset bank pass.
        calls = {"bank": 0, "shared": 0, "design": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim, "run_bank", counted("bank", sim.run_bank))
        monkeypatch.setattr(sim, "residuals_and_rows",
                            counted("shared", sim.residuals_and_rows))
        monkeypatch.setattr(fd, "design_preset",
                            counted("design", fd.design_preset))
        rc = run(["simulate", "--scenario", "high-white", "--seeds", 2,
                  "--out", tmp_path])
        assert rc == 0
        assert calls == {"bank": 0, "shared": 1, "design": 6}

    @pytest.mark.parametrize("args", [["--seeds", 0], ["--config", "empty"]],
                             ids=["seeds-0", "config-empty-list"])
    def test_empty_seed_set_is_validation_error(self, tmp_path, capsys, args):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": {"seeds": []}}))
        args = [config if a == "empty" else a for a in args]
        out = tmp_path / "out"
        rc = run(["simulate", "--scenario", "low-white", *args, "--out", out])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("detector", [
        {"foreground_keep": [-1]}, {"background_zero": [-1]},
        {"foreground_keep": []}, {"foreground_keep": [7]},
        {"foreground_keep": [2.5]}, {"foreground_keep": ["2"]},
        {"background_zero": [9]}, {"epsilon": float("nan")},
        {"gamma_db": float("nan")},
    ], ids=["fore-negative", "back-negative", "fore-empty", "fore-7",
            "fore-float", "fore-string", "back-9", "epsilon-nan", "gamma-nan"])
    def test_bad_detector_config_is_validation_error(self, tmp_path, capsys,
                                                     detector):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": detector}))
        out = tmp_path / "out"
        rc = run(["simulate", "--scenario", "low-white", "--seed", 1,
                  "--config", config, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert "validation error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_amplitude_is_validation_error(self, tmp_path, capsys,
                                                      amplitude):
        # json.load reads NaN and Infinity.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": {"amplitude": amplitude}}))
        out = tmp_path / "out"
        rc = run(["simulate", "--scenario", "low-white", "--seed", 1,
                  "--config", config, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert "validation error: pulse amplitude must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_flag_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        rc = run(["simulate", "--scenario", "low-white", "--seed", 1,
                  "--gamma-db", value, "--out", out])
        assert rc == 2
        assert "gamma_db must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_zero_even_without_detections(self, tmp_path):
        # Detection content is data, not process status.
        rc = run(["simulate", "--scenario", "mismatched-colored", "--seed", 5,
                  "--out", tmp_path])
        assert rc == 0


class TestDetectionCsv:
    """The det_<lab> and ddb_<lab> detection columns of the simulate trace CSV.

    Every preset fires on this trace, so no comparison is of empty sets.
    """

    @pytest.fixture
    def trace_csv(self, tmp_path):
        rc = run(["simulate", "--scenario", "low-white", "--seed", 2,
                  "--out", tmp_path])
        assert rc == 0
        trace = sg.build_trace("low-white", seed=2,
                               amplitude=sim.DEFAULT_AMPLITUDE)
        return tmp_path / "trace_low-white_seed2.csv", trace

    def test_schema_and_roundtrip(self, trace_csv, presets):
        # det_<lab> flags exactly each preset's run_detector events.
        path, trace = trace_csv
        n = read_csv_column(path, "n")
        for lab, filt in presets.items():
            report = sg.run_detector(filt, trace)
            det = read_csv_column(path, f"det_{lab}")
            assert len(det) == len(report.z)
            assert len(report.events) > 0
            assert np.array_equal(n[det > 0], report.events)

    def test_decision_column_explains_flags(self, trace_csv, presets):
        # ddb_<lab> is the floored decision statistic; the flags are its
        # crossings of gamma.
        path, trace = trace_csv
        for lab, filt in presets.items():
            report = sg.run_detector(filt, trace)
            ddb = read_csv_column(path, f"ddb_{lab}")
            det = read_csv_column(path, f"det_{lab}")
            assert np.array_equal(ddb, np.maximum(report.decision_db, DB_FLOOR))
            assert np.array_equal(det > 0, ddb > report.gamma_db)


class TestGoldenTrace:
    def test_seeded_trace_matches_fixture(self):
        # Committed trace: low-white, seed 0, default amplitude and gap.
        # Comparison is on parsed numbers, which round-trip bit for bit.
        x_golden = read_csv_column(GOLDEN / "trace_low_white_seed0.csv", "x")
        trace = sg.build_trace("low-white", seed=0)
        assert np.array_equal(trace.x, x_golden)


class TestConfigTypes:
    """Integer config values are JSON integers and flags JSON booleans;
    anything else is a config error, never a silently converted value."""

    COMMANDS = {"design": ["--preset", "A"],
                "simulate": ["--scenario", "low-white"],
                "response": [GOLDEN / "filter_A.json"]}

    @pytest.mark.parametrize("command, section, key, value", [
        ("design", "design", "M", 17.9),
        ("design", "design", "L", "5"),
        ("design", "design", "L", True),
        ("design", "design", "d", 0.5),
        ("simulate", "scenario", "seeds", "12"),
        ("simulate", "scenario", "seeds", 2.5),
        ("simulate", "scenario", "seeds", [0, 1.0]),
        ("simulate", "scenario", "gap", 10.6),
        ("response", "output", "grid", 100.7),
        ("simulate", "scenario", "colored_white_noise", "false"),
        ("simulate", "scenario", "amplitude", "10"),
        ("simulate", "detector", "gamma_db", True),
        ("simulate", "detector", "epsilon", [1e-9]),
        ("design", "design", "ts", "2"),
    ], ids=["M-float", "L-string", "L-bool", "d-float", "seeds-string", "seeds-float",
            "seed-float", "gap-float", "grid-float", "colored-string",
            "amplitude-string", "gamma-bool", "epsilon-list", "ts-string"])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, command,
                                        section, key, value):
        doc = {"design": {"M": 17, "L": 5}}
        doc.setdefault(section, {})[key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = run([command, *self.COMMANDS[command], "--config", config,
                  "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err and repr(key) in err
        assert not out.exists()


    def test_json_int_accepted_for_float_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"design": {"M": 17, "L": 5, "ts": 1},
                                      "scenario": {"amplitude": 10},
                                      "detector": {"gamma_db": 20, "epsilon": 1}}))
        assert run(["design", "--preset", "A", "--config", config,
                    "--out", tmp_path]) == 0
        assert (tmp_path / "filter_A.json").read_bytes() \
            == (GOLDEN / "filter_A.json").read_bytes()
        assert run(["simulate", "--scenario", "low-white", "--config", config,
                    "--out", tmp_path]) == 0
        table = json.loads((tmp_path / "table.json").read_text())
        assert (table["amplitude"], table["gamma_db"]) == (10.0, 20.0)


class TestEntryPoint:
    def test_parser_is_built_once_and_keeps_no_values(self, tmp_path,
                                                      monkeypatch):
        seen = {}
        for name, command in cli.COMMANDS.items():
            def spy(args, config, command=command, name=name):
                seen.setdefault(name, []).append(vars(args))
                return command(args, config)
            monkeypatch.setitem(cli.COMMANDS, name, spy)
        assert build_parser() is build_parser()
        sim_out, filt_out = tmp_path / "sim", tmp_path / "filt"
        assert run(["simulate", "--scenario", "low-white", "--seed", 3,
                    "--gamma-db", 30, "--M", 17, "--out", sim_out]) == 0
        assert run(["filter", GOLDEN / "filter_A.json",
                    "--input", GOLDEN / "trace_low_white_seed0.csv",
                    "--out", filt_out]) == 0
        assert run(["simulate", "--scenario", "low-white", "--seed", 3,
                    "--out", sim_out]) == 0
        assert seen["filter"] == [{
            "command": "filter", "config": None, "out": str(filt_out),
            "filter_file": str(GOLDEN / "filter_A.json"),
            "input": str(GOLDEN / "trace_low_white_seed0.csv"), "d": None}]
        first, second = seen["simulate"]
        assert (first["gamma_db"], second["gamma_db"]) == (30.0, None)
        assert {k: v for k, v in first.items() if k != "gamma_db"} \
            == {k: v for k, v in second.items() if k != "gamma_db"}
        assert (filt_out / "filtered.csv").read_bytes() \
            == (GOLDEN / "filtered_A.csv").read_bytes()
        table = json.loads((sim_out / "table.json").read_text())
        assert table["gamma_db"] == 20.0

    def test_console_script(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "sgwhiten.cli", "design", "--preset", "A",
             "--M", "17", "--L", "5", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 0
        wng = float(result.stdout.split("WNG=")[1].split()[0])
        assert wng == pytest.approx(0.2103, abs=5e-4)

    def test_help_lists_commands(self):
        result = subprocess.run(
            [sys.executable, "-m", "sgwhiten.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        for cmd in ("design", "response", "filter", "simulate"):
            assert cmd in result.stdout
