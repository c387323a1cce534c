"""File formats and the command-line interface, end to end."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvafit import dataio
from dvafit.cli import main
from dvafit.curves import CapacityVoltageSeries
from dvafit.errors import ConfigError, InputDataError
from dvafit.features import derive_features
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


class TestReportIo:
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
