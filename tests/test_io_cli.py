"""File formats and the command-line interface, end to end."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvafit import dataio
from dvafit.cli import main
from dvafit.curves import CapacityVoltageSeries
from dvafit.errors import ConfigError, InputDataError
from dvafit.features import ArealFeatures, derive_features
from dvafit.fitting import FitConfig, StartRecord
from dvafit.model import ElectrodeParams

from conftest import DATA_DIR

CONFIG = str(DATA_DIR / "config.json")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _make_report(cell_id="cellA", theta=None, echo=None):
    theta = theta or ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.80)
    return dataio.Report(
        cell_id=cell_id,
        seed=7,
        theta=theta,
        features=derive_features(theta),
        diagnostics=dataio.FitDiagnostics(
            objective=1.25e-6,
            rmse_voltage=0.1 + 1.0 / 3.0,
            rmse_dvdq=0.015,
            converged=True,
            iterations=41,
            lam=0.5,
            start_records=(
                StartRecord(theta0=(2.9, 2.7, 0.03, 0.92), objective=2.5e-6),
                StartRecord(theta0=(3.1, 2.9, 0.05, 0.95), objective=1.25e-6),
            ),
        ),
        inputs=(dataio.InputFile("full_cell", "cell.csv", "0" * 64),),
        config_echo=echo if echo is not None else {"fit": {"seed": 7}},
    )


class TestFormatFloat:
    def test_integral_values_stay_float_literals(self):
        assert dataio.format_float(1.0) == "1.0"
        assert dataio.format_float(-3.0) == "-3.0"
        assert dataio.format_float(0.5) == "0.5"

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputDataError, match="non-finite"):
                dataio.format_float(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_text_round_trips_exactly(self, x):
        assert float(dataio.format_float(x)) == x


class TestDumpsCanonical:
    def test_sorted_keys_and_stability(self):
        obj = {"b": 2, "a": [1.5, {"z": None, "y": True}], "c": "text"}
        first = dataio.dumps_canonical(obj)
        second = dataio.dumps_canonical(obj)
        assert first == second
        assert first.index('"a"') < first.index('"b"') < first.index('"c"')
        assert first.endswith("\n")

    def test_json_round_trip_preserves_floats(self):
        obj = {"vals": [0.1, 1.0 / 3.0, 1e-300, 2.0**-45]}
        back = json.loads(dataio.dumps_canonical(obj))
        assert back["vals"] == obj["vals"]

    def test_empty_containers(self):
        assert dataio.dumps_canonical({}) == "{}\n"
        assert dataio.dumps_canonical([]) == "[]\n"

    def test_unserializable_rejected(self):
        with pytest.raises(InputDataError, match="unserializable"):
            dataio.dumps_canonical({"a": object()})
        with pytest.raises(InputDataError, match="non-string"):
            dataio.dumps_canonical({1: "a"})


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        path = _write(tmp_path / "f.txt", "abc")
        assert dataio.sha256_of(path) == hashlib.sha256(b"abc").hexdigest()


class TestFullCellIo:
    def test_write_parse_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        q = np.sort(rng.uniform(0.001, 2.0, 40))
        v = np.sort(rng.uniform(3.0, 4.2, 40))
        series = CapacityVoltageSeries(
            q=q, v=v, direction="discharge", c_rate=0.05, temperature_label="25C"
        )
        path = tmp_path / "cell.csv"
        dataio.write_full_cell(series, path)
        back = dataio.parse_full_cell(path)
        assert np.array_equal(back.q, series.q)
        assert np.array_equal(back.v, series.v)
        assert back.direction == "discharge"
        assert back.c_rate == 0.05
        assert back.temperature_label == "25C"
        assert back.q_unit == "Ah"

    def test_time_current_schema_integrates_capacity(self, tmp_path):
        path = _write(
            tmp_path / "log.csv",
            "# direction = charge\n"
            "# c_rate = 0.05\n"
            "time_s,current_a,voltage_v\n"
            "0.0,1.0,3.0\n"
            "900.0,1.0,3.1\n"
            "1800.0,1.0,3.2\n"
            "2700.0,1.0,3.35\n"
            "3600.0,1.0,3.5\n",
        )
        series = dataio.parse_full_cell(path)
        assert np.array_equal(series.q, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert series.q_full == 1.0

    def test_discharge_current_sign_ignored(self, tmp_path):
        path = _write(
            tmp_path / "log.csv",
            "time_s,current_a,voltage_v\n"
            "0.0,-2.0,4.2\n"
            "1800.0,-2.0,3.9\n"
            "3600.0,-2.0,3.6\n",
        )
        series = dataio.parse_full_cell(path)
        assert series.q[-1] == 2.0

    def test_non_monotone_time_names_line(self, tmp_path):
        path = _write(
            tmp_path / "log.csv",
            "time_s,current_a,voltage_v\n"
            "0.0,1.0,3.0\n"
            "10.0,1.0,3.1\n"
            "10.0,1.0,3.2\n",
        )
        with pytest.raises(InputDataError, match=r"log\.csv:4: time must be strictly increasing"):
            dataio.parse_full_cell(path)

    def test_three_row_file_is_representable(self, tmp_path):
        path = _write(
            tmp_path / "short.csv",
            "capacity_ah,voltage_v\n0.0,3.0\n0.5,3.5\n1.0,4.0\n",
        )
        series = dataio.parse_full_cell(path)
        assert len(series.q) == 3

    def test_unknown_header_names_line(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "# a = b\nwrong,header\n0,1\n")
        with pytest.raises(InputDataError, match=r"bad\.csv:2: unrecognized header"):
            dataio.parse_full_cell(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = _write(
            tmp_path / "bad.csv", "capacity_ah,voltage_v\n0.0,3.0\n0.5,3.5,9.9\n"
        )
        with pytest.raises(InputDataError, match=r"bad\.csv:3: expected 2"):
            dataio.parse_full_cell(path)

    def test_non_numeric_row_names_line(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "capacity_ah,voltage_v\n0.0,oops\n")
        with pytest.raises(InputDataError, match=r"bad\.csv:2:"):
            dataio.parse_full_cell(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "empty.csv", "# only = metadata\n")
        with pytest.raises(InputDataError, match="no header row"):
            dataio.parse_full_cell(path)
        path = _write(tmp_path / "norows.csv", "capacity_ah,voltage_v\n")
        with pytest.raises(InputDataError, match="no data rows"):
            dataio.parse_full_cell(path)

    @pytest.mark.parametrize("header", ["capacity_ah,voltage_v", "time_s,current_a,voltage_v"])
    def test_non_numeric_c_rate_names_file_and_key(self, tmp_path, header):
        rows = "0.0,3.0\n1.0,3.5\n" if header.count(",") == 1 else "0.0,1.0,3.0\n3600.0,1.0,3.5\n"
        path = _write(tmp_path / "cell.csv", f"# c_rate = fast\n{header}\n{rows}")
        with pytest.raises(InputDataError, match=r"cell\.csv: metadata 'c_rate' must be a number"):
            dataio.parse_full_cell(path)


class TestReferenceCurveIo:
    def test_write_parse_round_trip(self, tmp_path):
        from dvafit.synth import analytic_reference_curves

        u_pos, _ = analytic_reference_curves(n_points=257)
        path = tmp_path / "u_pos.csv"
        dataio.write_reference_curve(u_pos, path)
        back = dataio.parse_reference_curve(path)
        assert back.electrode_role == "positive"
        assert back.direction == "delithiation"
        assert back.c_rate == u_pos.c_rate
        assert back.source_voltage_window == u_pos.source_voltage_window
        assert np.array_equal(back.potential, u_pos.potential)
        # Normalization divides the written capacities by their span, so
        # the grid is recovered to rounding, not bitwise.
        assert np.max(np.abs(back.stoich_grid - u_pos.stoich_grid)) < 1e-12

    def test_missing_role_metadata_rejected(self, tmp_path):
        path = _write(
            tmp_path / "u.csv",
            "# direction = lithiation\n"
            "capacity_mah,potential_v\n0,1.0\n1,0.8\n2,0.6\n3,0.4\n",
        )
        with pytest.raises(InputDataError, match="electrode_role"):
            dataio.parse_reference_curve(path)

    def test_window_defaults_to_potential_range(self, tmp_path):
        path = _write(
            tmp_path / "u.csv",
            "# electrode_role = negative\n# direction = lithiation\n"
            "capacity_mah,potential_v\n0,1.0\n1,0.8\n2,0.6\n3,0.4\n",
        )
        curve = dataio.parse_reference_curve(path)
        assert curve.source_voltage_window == (0.4, 1.0)

    def test_wrong_header_rejected(self, tmp_path):
        path = _write(
            tmp_path / "u.csv",
            "# electrode_role = negative\n# direction = lithiation\n"
            "stoich,potential_v\n0,1.0\n1,0.8\n",
        )
        with pytest.raises(InputDataError, match="unrecognized header"):
            dataio.parse_reference_curve(path)

    @pytest.mark.parametrize("key", ["c_rate", "v_min", "v_max"])
    def test_non_numeric_metadata_names_file_and_key(self, tmp_path, key):
        meta = {"c_rate": "0.05", "v_min": "0.4", "v_max": "1.0", key: "n/a"}
        path = _write(
            tmp_path / "u.csv",
            "# electrode_role = negative\n# direction = lithiation\n"
            + "".join(f"# {k} = {v}\n" for k, v in meta.items())
            + "capacity_mah,potential_v\n0,1.0\n1,0.8\n2,0.6\n3,0.4\n",
        )
        with pytest.raises(InputDataError, match=rf"u\.csv: metadata '{key}' must be a number"):
            dataio.parse_reference_curve(path)


def _read_rows(read, path, n_cols, increasing):
    """What one reader makes of a file: (metadata, header, header line, data
    shape, data bytes), or the message of the InputDataError it raises."""
    try:
        csv = read(path)
        data = dataio._csv_rows(path, csv, n_cols, increasing)
    except InputDataError as exc:
        return str(exc)
    return csv.meta, csv.header, csv.header_lineno, data.shape, data.tobytes()


# Values in the syntaxes a cycler export might use, plus text that only one
# of float() and np.loadtxt might read.
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "1_000", "1e400", "-1e400", "1e-400", "-nan", "+inf", "Infinity", "NaN", ".5", "5.",
        "-0", "0x10", "1d5", "1e5j", "\u0661", "\ufeff1", "1.0#x", "", '"1"', "1 2", "1\x00",
    ]),
)
_PADS = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
_ROWS = st.lists(st.tuples(_PADS, _VALUES, _PADS).map("".join), min_size=1, max_size=4).map(",".join)
_OTHER_LINES = st.one_of(
    st.sampled_from([
        "", "   ", "\t", "\x0c", "\u2028", "#", "#=", "# c_rate = 0.5", " # direction = charge",
        "# electrode_role = negative", "capacity_ah,voltage_v",
    ]),
    st.text(alphabet="0123456789.,-+eE_#= \t\x0c\x00nafi\u2028\u0661", max_size=8),
)
_HEADERS = st.sampled_from([
    dataio.FULL_CELL_HEADER, dataio.FULL_CELL_TIME_HEADER, dataio.REFERENCE_HEADER,
    " time_s, current_a, voltage_v", "",
])


@st.composite
def _csv_texts(draw):
    """A data file: metadata, a header, then rows that are either clean (an
    increasing first column, so the whole file can parse) or drawn from the
    adversarial pieces above, joined by mixed line ends."""
    lines = draw(st.lists(st.sampled_from(["# direction = charge", "# c_rate = 0.05", ""]), max_size=3))
    lines.append(draw(_HEADERS))
    width = draw(st.sampled_from([2, 3]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    noise = draw(st.sampled_from([0, 1, 5]))  # adversarial rows per ten
    for i in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) >= noise:
            lines.append(",".join([repr(float(i))] + [repr(draw(finite)) for _ in range(width - 1)]))
        else:
            lines.append(draw(st.one_of(_ROWS, _OTHER_LINES)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestCsvReader:
    """The reader converts all data rows with one np.loadtxt call and falls
    back to the row loop (``_read_csv_loop``) when it cannot vouch for the
    file; the loop is the reference it must match."""

    # Each expectation is what the row-loop reader returned for the file.
    NAMED = {
        "underscore": (
            "capacity_ah,voltage_v\n0.0,3.0\n1_000,3.5\n", 2, False,
            ({}, "capacity_ah,voltage_v", 1, [[0.0, 3.0], [1000.0, 3.5]]),
        ),
        "form_feed_in_row": (
            "capacity_ah,voltage_v\n0.0,3.0\n0.5,\x0c3.5\n1.0\x0c,4.0\n", 2, False,
            ({}, "capacity_ah,voltage_v", 1, [[0.0, 3.0], [0.5, 3.5], [1.0, 4.0]]),
        ),
        "cr_line_ends": (
            "# c_rate = 0.05\rtime_s,current_a,voltage_v\r0.0,1.0,3.0\r10.0,1.0,3.1\r", 3, True,
            ({"c_rate": "0.05"}, "time_s,current_a,voltage_v", 2, [[0.0, 1.0, 3.0], [10.0, 1.0, 3.1]]),
        ),
        "crlf_line_ends": (
            "# c_rate = 0.05\r\ntime_s,current_a,voltage_v\r\n0.0,1.0,3.0\r\n10.0,1.0,3.1\r\n", 3, True,
            ({"c_rate": "0.05"}, "time_s,current_a,voltage_v", 2, [[0.0, 1.0, 3.0], [10.0, 1.0, 3.1]]),
        ),
        "blank_line": (
            "capacity_ah,voltage_v\n0.0,3.0\n\n0.5,3.5\n", 2, False,
            ({}, "capacity_ah,voltage_v", 1, [[0.0, 3.0], [0.5, 3.5]]),
        ),
        "whitespace_line": (
            "capacity_ah,voltage_v\n0.0,3.0\n \t\x0c\n0.5,3.5\n", 2, False,
            ({}, "capacity_ah,voltage_v", 1, [[0.0, 3.0], [0.5, 3.5]]),
        ),
        "metadata_after_header": (
            "# direction = lithiation\ncapacity_mah,potential_v\n# electrode_role = negative\n"
            "0,1.0\n1,0.8\n", 2, False,
            ({"direction": "lithiation", "electrode_role": "negative"}, "capacity_mah,potential_v", 2,
             [[0.0, 1.0], [1.0, 0.8]]),
        ),
        "inline_hash": (
            "capacity_ah,voltage_v\n0.0,3.0\n0.5,1.0#x\n", 2, False,
            "{path}:3: could not convert string to float: '1.0#x'",
        ),
        "trailing_comma": (
            "capacity_ah,voltage_v\n0.0,3.0\n0.5,3.5,\n", 2, False,
            "{path}:3: expected 2 comma-separated values, got 3",
        ),
        "empty_field": (
            "capacity_ah,voltage_v\n0.0,3.0\n,3.5\n", 2, False,
            "{path}:3: could not convert string to float: ''",
        ),
        "nan_inf_overflow": (
            "capacity_ah,voltage_v\n0.0,nan\n0.5,inf\n1.0,1e400\n", 2, False,
            ({}, "capacity_ah,voltage_v", 1, [[0.0, np.nan], [0.5, np.inf], [1.0, np.inf]]),
        ),
        "header_only": ("capacity_ah,voltage_v\n", 2, False, "{path}: no data rows"),
        "header_and_blank_lines": ("capacity_ah,voltage_v\n\n\n", 2, False, "{path}: no data rows"),
        "time_repeat_after_blank": (
            "time_s,current_a,voltage_v\n0.0,1.0,3.0\n\n10.0,1.0,3.1\n\n10.0,1.0,3.2\n", 3, True,
            "{path}:6: time must be strictly increasing",
        ),
    }

    @pytest.mark.parametrize("name", NAMED)
    def test_named_case_reads_as_the_row_loop_did(self, tmp_path, name):
        text, n_cols, increasing, expected = self.NAMED[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, str):
            expected = expected.format(path=path)
        else:
            meta, header, header_lineno, rows = expected
            data = np.array(rows, dtype=float)
            expected = (meta, header, header_lineno, data.shape, data.tobytes())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _read_rows(dataio._read_csv, path, n_cols, increasing) == expected
        assert caught == []
        assert _read_rows(dataio._read_csv_loop, path, n_cols, increasing) == expected

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_texts(), n_cols=st.sampled_from([2, 3]), increasing=st.booleans())
    def test_reads_like_the_row_loop(self, tmp_path_factory, text, n_cols, increasing):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _read_rows(dataio._read_csv, path, n_cols, increasing)
        assert fast == _read_rows(dataio._read_csv_loop, path, n_cols, increasing)

    @pytest.mark.parametrize(
        "name",
        ["example_cell.csv", "rate_check_c20.csv", "rate_check_c100.csv", "u_pos.csv", "u_neg.csv", "log"],
    )
    def test_clean_file_takes_one_loadtxt_call(self, tmp_path, monkeypatch, name):
        path = DATA_DIR / name
        n_cols, increasing = 2, False
        if name == "log":  # the cycler schema, whose time axis is checked too
            t = np.linspace(0.0, 3600.0, 50)
            path, n_cols, increasing = tmp_path / "log.csv", 3, True
            np.savetxt(path, np.column_stack([t, np.full_like(t, 1.5), t / 1000.0]), fmt="%.17g",
                       delimiter=",", comments="", header=dataio.FULL_CELL_TIME_HEADER)
        want = _read_rows(dataio._read_csv_loop, path, n_cols, increasing)

        def no_loop(path):
            raise AssertionError("the row loop ran on a clean file")

        monkeypatch.setattr(dataio, "_read_csv_loop", no_loop)
        assert _read_rows(dataio._read_csv, path, n_cols, increasing) == want

    @pytest.mark.parametrize("where", ["start", "body"])
    @pytest.mark.parametrize("parse", [dataio.parse_full_cell, dataio.parse_reference_curve])
    def test_non_utf8_file_is_an_input_error_naming_it(self, tmp_path, where, parse):
        header = dataio.FULL_CELL_HEADER if parse is dataio.parse_full_cell else dataio.REFERENCE_HEADER
        text = f"# electrode_role = negative\n# direction = lithiation\n{header}\n".encode()
        rows = b"".join(b"%d,%d\n" % (i, 5000 - i) for i in range(5000))
        if where == "start":
            raw = b"\xff\xfe" + "capacity_ah,voltage_v\n0,1\n".encode("utf-16-le")
        else:  # past the first read buffer, so np.loadtxt meets it
            raw = text + rows + b"\xff,1\n"
        path = tmp_path / "cell.csv"
        path.write_bytes(raw)
        with pytest.raises(InputDataError, match=r"cell\.csv: not UTF-8 text"):
            parse(path)


class TestLoadConfig:
    def test_bundled_config(self):
        cfg = dataio.load_config(CONFIG)
        assert cfg.fit.lam == 0.5
        assert cfg.fit.resample_points == 500
        assert cfg.fit.starts == 16
        assert cfg.fit.seed == 0
        assert cfg.fit.smoothing.window_length == 25
        assert cfg.fit.smoothing.poly_order == 3
        assert cfg.areal_basis_cm2 is None
        # Relative curve paths resolve against the config directory.
        assert cfg.u_pos_path == str(DATA_DIR / "u_pos.csv")
        assert cfg.u_neg_path == str(DATA_DIR / "u_neg.csv")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            dataio.load_config(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.json", "{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            dataio.load_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = _write(tmp_path / "list.json", "[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            dataio.load_config(path)

    def test_missing_curves_rejected(self, tmp_path):
        path = _write(tmp_path / "c.json", "{}")
        with pytest.raises(ConfigError, match="reference_curves"):
            dataio.load_config(path)

    def test_dangling_curve_path_rejected(self, tmp_path):
        path = _write(
            tmp_path / "c.json",
            json.dumps(
                {"reference_curves": {"positive": "missing.csv", "negative": "missing.csv"}}
            ),
        )
        with pytest.raises(ConfigError, match="does not exist"):
            dataio.load_config(path)

    def test_lambda_key_maps_to_lam(self, tmp_path):
        cfg_obj = {
            "reference_curves": {
                "positive": str(DATA_DIR / "u_pos.csv"),
                "negative": str(DATA_DIR / "u_neg.csv"),
            },
            "fit": {"lambda": 0.3, "starts": 4},
        }
        path = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        cfg = dataio.load_config(path)
        assert cfg.fit.lam == 0.3
        assert cfg.fit.starts == 4
        assert cfg.fit == replace(FitConfig(), lam=0.3, starts=4)

    def test_bounds_and_design_blocks(self, tmp_path):
        cfg_obj = {
            "reference_curves": {
                "positive": str(DATA_DIR / "u_pos.csv"),
                "negative": str(DATA_DIR / "u_neg.csv"),
            },
            "fit": {"bounds": {"qn": [2.0, 4.0], "qp": [2.0, 4.0], "x0": [0.0, 0.2], "y0": [0.8, 1.0]}},
            "design": {
                "positive": {
                    "loading_mg_cm2": 18.5,
                    "active_fraction": 0.94,
                    "n_faces": 28,
                    "area_per_face_cm2": 79.2,
                    "q_theor_mah_g": 279.5,
                }
            },
        }
        path = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        cfg = dataio.load_config(path)
        assert cfg.fit.bounds.qn == (2.0, 4.0)
        assert cfg.design_pos.n_faces == 28
        assert cfg.design_neg is None

        cfg_obj["fit"]["bounds"] = {"qn": [2.0, 4.0]}
        path2 = _write(tmp_path / "c2.json", json.dumps(cfg_obj))
        with pytest.raises(ConfigError, match="bounds"):
            dataio.load_config(path2)

    BOUNDS = {"qn": [2.0, 4.0], "qp": [2.0, 4.0], "x0": [0.0, 0.2], "y0": [0.8, 1.0]}
    DESIGN = {"loading_mg_cm2": 9.0, "active_fraction": 0.96, "n_faces": 28,
              "area_per_face_cm2": 79.2, "q_theor_mah_g": 360.0}

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("fit.starts", "many", r"fit\.starts: expected a number, got 'many'"),
            ("fit", [], r"fit: expected an object"),
            ("reference_curves", ["u_pos.csv"], r"reference_curves: expected an object"),
            ("reference_curves.positive", 3, r"reference_curves\.positive: expected a path"),
            ("areal_basis_cm2", "big", r"areal_basis_cm2: expected a number"),
            ("fit.bounds", dict(BOUNDS, qn=[2.0, 3.0, 4.0]), r"fit\.bounds\.qn: expected \[lo, hi\]"),
            ("fit.bounds", dict(BOUNDS, qn=[2.0, "x"]), r"fit\.bounds\.qn: expected a number"),
            ("design.negative", dict(DESIGN, loading_mg_cm2="heavy"),
             r"design\.negative\.loading_mg_cm2: expected a number, got 'heavy'"),
            ("design", ["positive"], r"design: expected an object"),
            ("output_dir", 7, r"output_dir: expected a path"),
            # Integer settings take integral JSON numbers only, never a bool.
            ("fit.starts", 2.7, r"fit\.starts: expected an integer, got 2\.7"),
            ("fit.resample_points", 500.0, r"fit\.resample_points: expected an integer, got 500\.0"),
            ("fit.seed", True, r"fit\.seed: expected an integer, got True"),
            ("fit.max_iterations", "500", r"fit\.max_iterations: expected an integer, got '500'"),
            ("fit.smoothing", {"window_length": 25.5}, r"window_length: expected an integer, got 25\.5"),
            ("fit.smoothing", {"poly_order": 3.0}, r"poly_order: expected an integer, got 3\.0"),
            ("fit.smoothing", {"window_length": True}, r"window_length: expected an integer, got True"),
            ("design.negative", dict(DESIGN, n_faces=28.5),
             r"design\.negative\.n_faces: expected an integer, got 28\.5"),
            ("fit.seed", -1, r"seed must be >= 0, got -1"),
            ("fit.smoothing", {"enabled": "false"}, r"enabled: expected true or false, got 'false'"),
        ],
    )
    def test_malformed_value_rejected_naming_key(self, tmp_path, key, value, match):
        cfg_obj = {
            "reference_curves": {
                "positive": str(DATA_DIR / "u_pos.csv"),
                "negative": str(DATA_DIR / "u_neg.csv"),
            },
            "fit": {"lambda": 0.5},
        }
        *parents, last = key.split(".")
        target = cfg_obj
        for name in parents:
            target = target.setdefault(name, {})
        target[last] = value
        path = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        with pytest.raises(ConfigError, match=match):
            dataio.load_config(path)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_smoothing_enabled_bool_loads(self, tmp_path, enabled):
        cfg_obj = json.loads((DATA_DIR / "config.json").read_text())
        cfg_obj["reference_curves"] = {
            "positive": str(DATA_DIR / "u_pos.csv"),
            "negative": str(DATA_DIR / "u_neg.csv"),
        }
        cfg_obj["fit"]["smoothing"] = {"enabled": enabled}
        path = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        assert dataio.load_config(path).fit.smoothing.enabled is enabled

    def test_bad_smoothing_key_rejected(self, tmp_path):
        cfg_obj = {
            "reference_curves": {
                "positive": str(DATA_DIR / "u_pos.csv"),
                "negative": str(DATA_DIR / "u_neg.csv"),
            },
            "fit": {"smoothing": {"bogus": 1}},
        }
        path = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        with pytest.raises(ConfigError, match="bad fit settings"):
            dataio.load_config(path)


GOLDEN_REPORT = """\
{
  "cell_id": "cellA",
  "config_echo": {
    "fit": {
      "seed": 7
    }
  },
  "features": {
    "anomalies": [],
    "areal": null,
    "npr_conventional": 1.0535714285714286,
    "npr_practical": 1.5815277777777776,
    "q_full": 1.8,
    "q_li": 2.7352499999999997,
    "q_sei": 0.064750000000000127,
    "qn_excess": 1.0467500000000001,
    "x100_tilde": 0.64516949152542369,
    "y100_tilde": 0.29714285714285704
  },
  "fit": {
    "converged": true,
    "iterations": 41,
    "lambda": 0.5,
    "objective": 1.2500000000000001e-06,
    "rmse_dvdq": 0.014999999999999999,
    "rmse_voltage": 0.43333333333333335,
    "start_records": [
      {
        "objective": 2.5000000000000002e-06,
        "theta0": [
          2.8999999999999999,
          2.7000000000000002,
          0.029999999999999999,
          0.92000000000000004
        ]
      },
      {
        "objective": 1.2500000000000001e-06,
        "theta0": [
          3.1000000000000001,
          2.8999999999999999,
          0.050000000000000003,
          0.94999999999999996
        ]
      }
    ]
  },
  "inputs": [
    {
      "name": "full_cell",
      "path": "cell.csv",
      "sha256": "0000000000000000000000000000000000000000000000000000000000000000"
    }
  ],
  "schema_version": 1,
  "seed": 7,
  "theta": {
    "q_full": 1.8,
    "qn_tilde": 2.9500000000000002,
    "qp_tilde": 2.7999999999999998,
    "x0_tilde": 0.035000000000000003,
    "y0_tilde": 0.93999999999999995
  },
  "toolkit_version": "0.1.0"
}
"""


class TestReportIo:
    def test_serialized_bytes_are_pinned(self):
        assert dataio.serialize_report(_make_report()) == GOLDEN_REPORT

    def test_areal_features_and_anomalies_round_trip(self):
        report = _make_report()
        features = replace(
            report.features,
            anomalies=("q_sei < 0", "x100_tilde > 1"),
            areal=ArealFeatures(
                q_full=1.5, qp_tilde=2.5, qn_tilde=2.75, q_sei=0.125, q_li=2.25, qn_excess=1.0 / 3.0
            ),
        )
        report = replace(report, features=features)
        text = dataio.serialize_report(report)
        obj = json.loads(text)
        assert obj["features"]["anomalies"] == ["q_sei < 0", "x100_tilde > 1"]
        assert obj["features"]["areal"] == {
            "q_full": 1.5, "qp_tilde": 2.5, "qn_tilde": 2.75,
            "q_sei": 0.125, "q_li": 2.25, "qn_excess": 1.0 / 3.0,
        }
        back = dataio.parse_report(text)
        assert back == report
        assert dataio.serialize_report(back) == text

    def test_serialize_parse_serialize_byte_identical(self):
        report = _make_report()
        text = dataio.serialize_report(report)
        again = dataio.serialize_report(dataio.parse_report(text))
        assert text == again

    def test_file_round_trip_equality(self, tmp_path):
        report = _make_report()
        path = tmp_path / "r.json"
        dataio.write_report(report, path)
        assert dataio.read_report(path) == report

    def test_unsupported_schema_rejected(self):
        text = dataio.serialize_report(_make_report())
        obj = json.loads(text)
        obj["schema_version"] = 2
        with pytest.raises(InputDataError, match="schema_version"):
            dataio.parse_report(json.dumps(obj))

    def test_missing_section_rejected(self):
        obj = json.loads(dataio.serialize_report(_make_report()))
        del obj["theta"]
        with pytest.raises(InputDataError, match="missing key 'theta'"):
            dataio.parse_report(json.dumps(obj))

    def test_garbage_rejected(self):
        with pytest.raises(InputDataError, match="not valid JSON"):
            dataio.parse_report("report?")

    @pytest.mark.parametrize(
        "section, key, value, match",
        [
            ("theta", "qn_tilde", None, r"report theta: missing key 'qn_tilde'"),
            ("features", "q_sei", None, r"report features: missing key 'q_sei'"),
            ("fit", "objective", None, r"report fit: missing key 'objective'"),
            ("theta", "x0_tilde", "abc", r"report theta: bad value for 'x0_tilde'"),
            ("features", "q_li", [1.0], r"report features: bad value for 'q_li'"),
            ("fit", "iterations", "many", r"report fit: bad value for 'iterations'"),
            ("fit", "start_records", 3, r"report fit: 'start_records' must be a list"),
            ("features", "areal", 1.5, r"report features.areal: expected an object"),
        ],
    )
    def test_malformed_section_rejected_naming_key(self, section, key, value, match):
        obj = json.loads(dataio.serialize_report(_make_report()))
        if value is None:
            del obj[section][key]
        else:
            obj[section][key] = value
        with pytest.raises(InputDataError, match=match):
            dataio.parse_report(json.dumps(obj))

    def test_malformed_start_record_rejected(self):
        obj = json.loads(dataio.serialize_report(_make_report()))
        obj["fit"]["start_records"][1]["theta0"] = 2.9
        with pytest.raises(InputDataError, match=r"fit.start_records: bad value for 'theta0'"):
            dataio.parse_report(json.dumps(obj))
        obj["fit"]["start_records"] = [{"theta0": [2.9]}]
        with pytest.raises(InputDataError, match=r"fit.start_records: missing key 'objective'"):
            dataio.parse_report(json.dumps(obj))

    def test_optional_keys_read_as_their_defaults(self):
        obj = json.loads(dataio.serialize_report(_make_report()))
        for key in ("inputs", "config_echo", "toolkit_version"):
            del obj[key]
        for key in ("anomalies", "areal"):
            del obj["features"][key]
        del obj["fit"]["start_records"]
        report = dataio.parse_report(json.dumps(obj))
        assert report.inputs == () and report.config_echo == {}
        assert report.toolkit_version == ""
        assert report.features.anomalies == () and report.features.areal is None
        assert report.diagnostics.start_records == ()

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda o: o.update(config_echo=[1]), r"report config_echo: expected an object"),
            (lambda o: o["inputs"][0].pop("sha256"), r"report inputs: missing key 'sha256'"),
            (lambda o: o.update(inputs=[3]), r"report inputs: expected an object"),
            (lambda o: o["fit"]["start_records"][0].update(theta0=[2.9, 2.7, 0.03]),
             r"report fit.start_records: bad value for 'theta0'"),
            (lambda o: o["features"].update(areal={}), r"report features.areal: missing key"),
            (lambda o: o.update(seed=1e400), r"report top level: bad value for 'seed'"),
        ],
    )
    def test_malformed_nested_value_rejected_naming_path(self, edit, match):
        obj = json.loads(dataio.serialize_report(_make_report()))
        edit(obj)
        with pytest.raises(InputDataError, match=match):
            dataio.parse_report(json.dumps(obj))

    def test_section_that_is_not_an_object_rejected(self):
        obj = json.loads(dataio.serialize_report(_make_report()))
        obj["theta"] = [2.95, 2.80]
        with pytest.raises(InputDataError, match="report theta: expected an object"):
            dataio.parse_report(json.dumps(obj))
        with pytest.raises(InputDataError, match="top level: expected an object"):
            dataio.parse_report("[]")


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fit_out")
    code = main(
        ["fit", "--config", CONFIG, "--out-dir", str(out_dir), str(DATA_DIR / "example_cell.csv")]
    )
    return code, out_dir / "example_cell.report.json"


class TestCliFit:
    def test_recovers_bundled_truth(self, fit_run):
        code, report_path = fit_run
        assert code == 0
        assert report_path.exists()
        report = dataio.read_report(report_path)
        truth = json.loads((DATA_DIR / "example_truth.json").read_text())["theta"]
        assert report.diagnostics.converged
        assert report.theta.qn_tilde == pytest.approx(truth["qn_tilde"], rel=2e-3)
        assert report.theta.qp_tilde == pytest.approx(truth["qp_tilde"], rel=2e-3)
        assert report.theta.q_full == pytest.approx(truth["q_full"], rel=2e-3)
        assert report.theta.x0_tilde == pytest.approx(truth["x0_tilde"], abs=2e-3)
        assert report.theta.y0_tilde == pytest.approx(truth["y0_tilde"], abs=2e-3)

    def test_reruns_are_byte_identical(self, fit_run, tmp_path):
        _, report_path = fit_run
        code = main(
            ["fit", "--config", CONFIG, "--out-dir", str(tmp_path), str(DATA_DIR / "example_cell.csv")]
        )
        assert code == 0
        assert (tmp_path / "example_cell.report.json").read_bytes() == report_path.read_bytes()

    def test_report_carries_input_hashes(self, fit_run):
        _, report_path = fit_run
        report = dataio.read_report(report_path)
        roles = {f.name for f in report.inputs}
        assert roles == {"full_cell", "u_pos", "u_neg"}
        for f in report.inputs:
            assert f.sha256 == dataio.sha256_of(f.path)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["fit", "--config", CONFIG, "--out-dir", str(tmp_path), "nope.csv"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["exit_code"] == 2
        assert "nope.csv" in err["message"]

    def test_bad_config_exits_5(self, tmp_path, capsys):
        cfg = _write(tmp_path / "bad.json", "{broken")
        code = main(["fit", "--config", cfg, str(DATA_DIR / "example_cell.csv")])
        assert code == 5
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"

    def test_iteration_starved_fit_exits_3_with_report(self, tmp_path, capsys):
        cfg_obj = json.loads((DATA_DIR / "config.json").read_text())
        cfg_obj["reference_curves"] = {
            "positive": str(DATA_DIR / "u_pos.csv"),
            "negative": str(DATA_DIR / "u_neg.csv"),
        }
        cfg_obj["fit"] = {"starts": 2, "max_iterations": 1, "seed": 0}
        cfg = _write(tmp_path / "starved.json", json.dumps(cfg_obj))
        code = main(
            ["fit", "--config", cfg, "--out-dir", str(tmp_path), str(DATA_DIR / "example_cell.csv")]
        )
        assert code == 3
        report = dataio.read_report(tmp_path / "example_cell.report.json")
        assert not report.diagnostics.converged
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "NonConvergenceError"

    def test_misaligned_directions_warn(self, tmp_path, capsys):
        text = (DATA_DIR / "example_cell.csv").read_text()
        assert "# direction = charge" in text
        flipped = _write(
            tmp_path / "flipped.csv", text.replace("# direction = charge", "# direction = discharge")
        )
        code = main(["fit", "--config", CONFIG, "--out-dir", str(tmp_path), flipped])
        assert code == 0
        assert "not aligned" in capsys.readouterr().err


class TestCliBadValues:
    @pytest.mark.parametrize(
        "argv, match",
        [
            (["synth", "--theta", "1,2"], "--theta expects 4 comma-separated numbers"),
            (["synth", "--degrade", "0.1,abc,0.1"], "--degrade expects 3 comma-separated numbers"),
            (["correct", "--x-window", "0", "--y-window", "0,1"], "--x-window expects 2"),
            (["correct", "--x-window", "0,1", "--y-window", "0,1,1"], "--y-window expects 2"),
        ],
    )
    def test_malformed_flag_exits_5(self, tmp_path, capsys, argv, match):
        target = {"synth": ["--out-dir", str(tmp_path / "out")], "correct": ["--report", "r.json"]}
        assert main(argv + target[argv[0]]) == ConfigError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ConfigError" and match in record["message"]
        assert not (tmp_path / "out").exists()

    def test_malformed_config_value_exits_5(self, tmp_path, capsys):
        cfg_obj = json.loads((DATA_DIR / "config.json").read_text())
        cfg_obj["reference_curves"] = {
            "positive": str(DATA_DIR / "u_pos.csv"),
            "negative": str(DATA_DIR / "u_neg.csv"),
        }
        cfg_obj["fit"]["starts"] = "many"
        cfg = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        cell = str(DATA_DIR / "example_cell.csv")
        code = main(["fit", "--config", cfg, "--out-dir", str(tmp_path), cell])
        assert code == ConfigError.exit_code
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError" and "fit.starts" in record["message"]

    def test_fractional_smoothing_window_exits_5(self, tmp_path, capsys):
        cfg_obj = json.loads((DATA_DIR / "config.json").read_text())
        cfg_obj["reference_curves"] = {
            "positive": str(DATA_DIR / "u_pos.csv"),
            "negative": str(DATA_DIR / "u_neg.csv"),
        }
        cfg_obj["fit"]["smoothing"] = {"window_length": 25.5}
        cfg = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        cell = str(DATA_DIR / "example_cell.csv")
        code = main(["fit", "--config", cfg, "--out-dir", str(tmp_path), cell])
        assert code == ConfigError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ConfigError" and "window_length" in record["message"]

    def test_string_smoothing_enabled_exits_5(self, tmp_path, capsys):
        cfg_obj = json.loads((DATA_DIR / "config.json").read_text())
        cfg_obj["reference_curves"] = {
            "positive": str(DATA_DIR / "u_pos.csv"),
            "negative": str(DATA_DIR / "u_neg.csv"),
        }
        cfg_obj["fit"]["smoothing"] = {"enabled": "false"}
        cfg = _write(tmp_path / "c.json", json.dumps(cfg_obj))
        cell = str(DATA_DIR / "example_cell.csv")
        code = main(["fit", "--config", cfg, "--out-dir", str(tmp_path), cell])
        assert code == ConfigError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ConfigError" and "enabled" in record["message"]

    def test_non_numeric_metadata_exits_2(self, tmp_path, capsys):
        text = (DATA_DIR / "rate_check_c20.csv").read_text()
        assert "# c_rate = " in text
        lines = ["# c_rate = fast" if ln.startswith("# c_rate") else ln for ln in text.splitlines()]
        slow = _write(tmp_path / "slow.csv", "\n".join(lines) + "\n")
        code = main(["check-rate", slow, str(DATA_DIR / "rate_check_c100.csv")])
        assert code == InputDataError.exit_code
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "slow.csv" in record["message"] and "'c_rate'" in record["message"]


class TestCliSynth:
    def test_writes_deterministic_dataset(self, tmp_path):
        args = [
            "synth", "--seed", "3", "--n-cells", "2", "--samples", "200",
            "--noise-sigma-v", "0.001", "--v-max", "4.1",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        for name in ("u_pos.csv", "u_neg.csv", "cell_000.csv", "cell_001.csv",
                     "cell_000.truth.json", "cell_001.truth.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        truth = json.loads((d1 / "cell_000.truth.json").read_text())
        series = dataio.parse_full_cell(d1 / "cell_000.csv")
        assert series.q_full == pytest.approx(truth["theta"]["q_full"], rel=1e-12)

    def test_explicit_theta_with_aged_twin(self, tmp_path):
        code = main([
            "synth", "--out-dir", str(tmp_path), "--samples", "200",
            "--theta", "2.6,3.2,0.04,0.95", "--v-max", "4.1",
            "--degrade", "0.03,0.08,0.15",
        ])
        assert code == 0
        aged_truth = json.loads((tmp_path / "cell_000.truth_aged.json").read_text())
        assert aged_truth["injected"] == {"lam_pe": 0.03, "lam_ne": 0.08, "lli": 0.15}
        pristine = json.loads((tmp_path / "cell_000.truth.json").read_text())["theta"]
        aged = aged_truth["theta"]
        assert aged["qp_tilde"] == pytest.approx(0.97 * pristine["qp_tilde"], rel=1e-12)
        assert aged["qn_tilde"] == pytest.approx(0.92 * pristine["qn_tilde"], rel=1e-12)
        assert (tmp_path / "cell_000_aged.csv").exists()


class TestCliReports:
    @pytest.fixture()
    def report_paths(self, tmp_path):
        paths = []
        for i, x0 in enumerate((0.02, 0.035, 0.05)):
            theta = ElectrodeParams(2.95, 2.80, x0, 0.94 - i * 0.01, 1.80)
            p = tmp_path / f"r{i}.json"
            dataio.write_report(_make_report(cell_id=f"cell{i}", theta=theta), p)
            paths.append(str(p))
        return paths

    def test_features_command_recomputes(self, report_paths, capsys):
        assert main(["features", report_paths[0]]) == 0
        out = json.loads(capsys.readouterr().out)
        theta = dataio.read_report(report_paths[0]).theta
        assert out["cells"][0]["cell_id"] == "cell0"
        assert out["cells"][0]["features"]["q_sei"] == derive_features(theta).q_sei
        assert out["cells"][0]["features"]["areal"] is None

    def test_features_command_with_areal_basis(self, report_paths, capsys):
        assert main(["features", "--areal-basis-cm2", "1000", report_paths[0]]) == 0
        out = json.loads(capsys.readouterr().out)
        features = out["cells"][0]["features"]
        assert features["areal"]["q_full"] == features["q_full"]

    def test_batch_command_writes_summary_and_correlation(self, report_paths, tmp_path, capsys):
        s_path, c_path = tmp_path / "summary.csv", tmp_path / "corr.csv"
        code = main([
            "batch", "--metrics", "q_sei,q_li", "--summary-out", str(s_path),
            "--correlation-out", str(c_path), "--batch-id", "pilot", *report_paths,
        ])
        assert code == 0
        lines = s_path.read_text().strip().splitlines()
        assert lines[0].startswith("batch_id,metric,count")
        assert len(lines) == 3
        assert lines[1].split(",")[:3] == ["pilot", "q_sei", "3"]
        corr = c_path.read_text().strip().splitlines()
        assert corr[0] == "metric,q_sei,q_li"
        assert len(corr) == 3
        diag = float(corr[1].split(",")[1])
        assert diag == 1.0

    @pytest.mark.parametrize("command", ["features", "batch"])
    def test_malformed_report_exits_2(self, report_paths, tmp_path, capsys, command):
        obj = json.loads(dataio.serialize_report(dataio.read_report(report_paths[0])))
        del obj["features"]["q_sei"]
        bad = _write(tmp_path / "bad.report.json", json.dumps(obj))
        argv = {
            "features": ["features", bad],
            "batch": ["batch", "--metrics", "q_sei", "--summary-out", str(tmp_path / "s.csv"),
                      *report_paths, bad],
        }[command]
        assert main(argv) == InputDataError.exit_code
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "InputDataError"
        assert "features: missing key 'q_sei'" in err["message"]

    @pytest.mark.parametrize("command", ["features", "batch", "correct", "smooth"])
    def test_bad_report_error_names_the_file(self, report_paths, tmp_path, capsys, command):
        obj = json.loads(Path(report_paths[0]).read_text())
        del obj["features"]["q_sei"]
        bad = _write(tmp_path / "bad.report.json", json.dumps(obj))
        cell = str(DATA_DIR / "example_cell.csv")
        argv = {
            "features": ["features", report_paths[1], bad],
            "batch": ["batch", "--metrics", "q_sei", "--summary-out", str(tmp_path / "s.csv"),
                      report_paths[1], bad],
            "correct": ["correct", "--report", bad, "--x-window", "0,1", "--y-window", "0,1"],
            "smooth": ["smooth", cell, "--out", str(tmp_path / "s.csv"),
                       "--report", bad, "--config", CONFIG],
        }[command]
        assert main(argv) == InputDataError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["message"].startswith(f"{bad}: report features: missing key 'q_sei'")
        assert report_paths[1] not in record["message"]

    @pytest.mark.parametrize("command", ["features", "batch"])
    def test_non_utf8_report_exits_2_naming_the_file(self, report_paths, tmp_path, capsys, command):
        bad = tmp_path / "bad.report.json"
        bad.write_bytes(b"\xff\xfe" + Path(report_paths[0]).read_text().encode("utf-16-le"))
        argv = {
            "features": ["features", str(bad)],
            "batch": ["batch", "--metrics", "q_sei", "--summary-out", str(tmp_path / "s.csv"), str(bad)],
        }[command]
        assert main(argv) == InputDataError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["message"].startswith(f"{bad}: not UTF-8 text")

    @pytest.mark.parametrize(
        "echo, message",
        [
            (["areal_basis_cm2"], "report config_echo: expected an object"),
            ({"areal_basis_cm2": "big"}, "config_echo: bad value for 'areal_basis_cm2'"),
        ],
    )
    def test_batch_command_malformed_config_echo_exits_2(
        self, report_paths, tmp_path, capsys, echo, message
    ):
        obj = json.loads(Path(report_paths[0]).read_text())
        obj["config_echo"] = echo
        bad = _write(tmp_path / "bad.report.json", json.dumps(obj))
        code = main(["batch", "--metrics", "q_sei", "--summary-out", str(tmp_path / "s.csv"), bad])
        assert code == InputDataError.exit_code
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert message in err["message"]

    def test_batch_command_empty_metrics_exits_5(self, report_paths, tmp_path, capsys):
        code = main([
            "batch", "--metrics", " , ", "--summary-out", str(tmp_path / "s.csv"), *report_paths,
        ])
        assert code == 5

    def test_correct_command_full_window_identity(self, report_paths, capsys):
        assert main([
            "correct", "--report", report_paths[0],
            "--x-window", "0,1", "--y-window", "0,1",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        theta = dataio.read_report(report_paths[0]).theta
        assert out["q_p"] == theta.qp_tilde
        assert out["q_n"] == theta.qn_tilde
        assert out["anchored"] is False and out["x0"] is None

    def test_correct_command_anchor(self, report_paths, capsys):
        assert main([
            "correct", "--report", report_paths[0],
            "--x-window", "0,1", "--y-window", "0,1", "--anchor",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        theta = dataio.read_report(report_paths[0]).theta
        assert out["anchored"] is True
        assert out["x100"] == theta.x100_tilde


class TestCliSmooth:
    def test_smoothed_columns(self, tmp_path):
        out = tmp_path / "smoothed.csv"
        code = main(["smooth", str(DATA_DIR / "example_cell.csv"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "capacity_ah,voltage_v,dvdq_v_per_ah"
        series = dataio.parse_full_cell(DATA_DIR / "example_cell.csv")
        assert len(lines) == 1 + len(series.q)

    def test_model_decomposition_columns(self, fit_run, tmp_path):
        _, report_path = fit_run
        out = tmp_path / "decomp.csv"
        code = main([
            "smooth", str(DATA_DIR / "example_cell.csv"), "--out", str(out),
            "--resample", "200", "--report", str(report_path), "--config", CONFIG,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "capacity_ah", "voltage_v", "dvdq_v_per_ah", "voltage_model_v",
            "dvdq_model_v_per_ah", "dvdq_pos_v_per_ah", "dvdq_neg_v_per_ah",
        ]
        assert len(lines) == 1 + 200
        for line in lines[1:]:
            vals = dict(zip(header, (float(v) for v in line.split(","))))
            assert vals["dvdq_model_v_per_ah"] == pytest.approx(
                vals["dvdq_pos_v_per_ah"] + vals["dvdq_neg_v_per_ah"], rel=1e-12, abs=1e-15
            )
            assert abs(vals["voltage_model_v"] - vals["voltage_v"]) < 0.01

    def test_half_specified_decomposition_exits_5(self, tmp_path, capsys):
        code = main([
            "smooth", str(DATA_DIR / "example_cell.csv"),
            "--out", str(tmp_path / "x.csv"), "--config", CONFIG,
        ])
        assert code == 5
        assert "both --report and --config" in capsys.readouterr().err


class TestCliCheckRate:
    def test_bundled_pair_passes(self, capsys):
        code = main([
            "check-rate", str(DATA_DIR / "rate_check_c20.csv"), str(DATA_DIR / "rate_check_c100.csv"),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert out["ratio"] == pytest.approx(0.99206, abs=5e-5)

    def test_scaled_copy_fails_with_error_record(self, tmp_path, capsys):
        slow = dataio.parse_full_cell(DATA_DIR / "rate_check_c20.csv")
        shrunk = CapacityVoltageSeries(
            q=slow.q * 0.9, v=slow.v, direction=slow.direction, c_rate=slow.c_rate
        )
        path = tmp_path / "shrunk.csv"
        dataio.write_full_cell(shrunk, path)
        code = main(["check-rate", str(path), str(DATA_DIR / "rate_check_c100.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["passed"] is False
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["exit_code"] == 1 and "near-equilibrium" in err["message"]

    def test_non_utf8_csv_exits_2_naming_the_file(self, tmp_path, capsys):
        slow = tmp_path / "slow.csv"
        slow.write_bytes(b"\xff\xfe" + "capacity_ah,voltage_v\n0,1\n".encode("utf-16-le"))
        code = main(["check-rate", str(slow), str(DATA_DIR / "rate_check_c100.csv")])
        assert code == InputDataError.exit_code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["message"].startswith(f"{slow}: not UTF-8 text")


class TestRuntimeImports:
    def test_import_and_features_load_no_scipy(self, tmp_path):
        # scipy is a test dependency only; importing any of it at run time
        # would put its start-up cost back on every CLI call.
        report = tmp_path / "r.json"
        dataio.write_report(_make_report(), report)
        code = (
            "import json, sys\n"
            "import dvafit\n"
            "from dvafit.cli import main\n"
            f"rc = main(['features', {str(report)!r}])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(json.dumps({'rc': rc, 'scipy': loaded}))\n"
        )
        src = str(DATA_DIR.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert json.loads(done.stdout.strip().splitlines()[-1]) == {"rc": 0, "scipy": []}
