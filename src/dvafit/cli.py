"""Command-line interface.

Subcommands: fit, features, batch, synth, correct, smooth, check-rate.
Failures print one machine-readable JSON error record per line on
stderr and map to documented exit codes: 0 success, 1 failed rate
check, 2 input/schema error, 3 non-convergence, 4 infeasibility,
5 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import batch as batchmod
from . import dataio
from ._version import __version__
from .curves import (
    SmoothingConfig,
    capacity_at_rate_check,
    differentiate,
    resample,
    smooth,
)
from .errors import ConfigError, DvafitError, InputDataError, NonConvergenceError
from .features import CorrectionInputs, correct_to_true, derive_features
from .fitting import fit
from .model import ElectrodeParams, evaluate, param_vector
from .synth import (
    DegradationSpec,
    SynthSpec,
    analytic_reference_curves,
    degrade,
    generate,
    implied_v_min,
    random_feasible_theta,
)

# Full-cell direction -> required (positive, negative) reference directions.
_ALIGNED_DIRECTIONS = {
    "charge": ("delithiation", "lithiation"),
    "discharge": ("lithiation", "delithiation"),
}


def _emit_error(exc: Exception, context: str = "") -> None:
    code = exc.exit_code if isinstance(exc, DvafitError) else 1
    record = {
        "error": type(exc).__name__,
        "exit_code": code,
        "message": str(exc),
    }
    if context:
        record["input"] = context
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _warn(message: str) -> None:
    sys.stderr.write(f"warning: {message}\n")


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _check_direction_alignment(series, u_pos, u_neg) -> None:
    expected = _ALIGNED_DIRECTIONS.get(series.direction)
    if expected is None:
        return
    want_pos, want_neg = expected
    if u_pos.direction != want_pos or u_neg.direction != want_neg:
        _warn(
            f"reference-curve directions (pos={u_pos.direction}, neg={u_neg.direction}) "
            f"are not aligned with the {series.direction} full-cell data; "
            f"expected pos={want_pos}, neg={want_neg}. Half-cell hysteresis will "
            "bias the fit."
        )


def _cmd_fit(args) -> int:
    cfg = dataio.load_config(args.config)
    u_pos = dataio.parse_reference_curve(cfg.u_pos_path)
    u_neg = dataio.parse_reference_curve(cfg.u_neg_path)
    out_dir = args.out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)

    first_failure = 0
    for path in args.inputs:
        try:
            series = dataio.parse_full_cell(path)
            _check_direction_alignment(series, u_pos, u_neg)
            result = fit(series, u_pos, u_neg, cfg.fit)
            features = derive_features(result.theta) if result.theta.is_feasible else None
            if features is not None and cfg.areal_basis_cm2 is not None:
                record = batchmod.CellRecord(
                    cell_id=_stem(path),
                    batch_id="cli",
                    theta=result.theta,
                    features=features,
                    areal_basis_cm2=cfg.areal_basis_cm2,
                )
                features = batchmod.normalize_areal(record)
            if features is None:
                raise NonConvergenceError(
                    f"{path}: no feasible fit found "
                    f"(best objective {result.objective:.6g})"
                )
            report = dataio.Report(
                cell_id=_stem(path),
                seed=cfg.fit.seed,
                theta=result.theta,
                features=features,
                diagnostics=dataio.diagnostics_from_result(result, cfg.fit.lam),
                inputs=(
                    dataio.InputFile("full_cell", path, dataio.sha256_of(path)),
                    dataio.InputFile("u_pos", cfg.u_pos_path, dataio.sha256_of(cfg.u_pos_path)),
                    dataio.InputFile("u_neg", cfg.u_neg_path, dataio.sha256_of(cfg.u_neg_path)),
                ),
                config_echo=cfg.echo,
            )
            out_path = os.path.join(out_dir, _stem(path) + ".report.json")
            dataio.write_report(report, out_path)
            if not result.converged:
                _emit_error(
                    NonConvergenceError(
                        f"fit did not converge (objective {result.objective:.6g}); "
                        f"report written for diagnosis"
                    ),
                    context=path,
                )
                first_failure = first_failure or NonConvergenceError.exit_code
            print(
                f"{_stem(path)}: converged={result.converged} "
                f"objective={result.objective:.6g} -> {out_path}"
            )
        except DvafitError as exc:
            _emit_error(exc, context=path)
            first_failure = first_failure or exc.exit_code
    return first_failure


def _cmd_features(args) -> int:
    cells = []
    for path in args.reports:
        report = dataio.read_report(path)
        features = derive_features(report.theta)
        if args.areal_basis_cm2 is not None:
            record = batchmod.CellRecord(
                cell_id=report.cell_id,
                batch_id="cli",
                theta=report.theta,
                features=features,
                areal_basis_cm2=args.areal_basis_cm2,
            )
            features = batchmod.normalize_areal(record)
        cells.append(
            {"cell_id": report.cell_id, "features": features}
        )
    sys.stdout.write(dataio.dumps_canonical({"cells": cells}))
    return 0


def _records_from_reports(paths, batch_id: str):
    """One CellRecord per report, and the paths of the reports whose fit
    did not converge."""
    records, unconverged = [], []
    for path in paths:
        report = dataio.read_report(path)
        try:
            # The config's rule for the key: a finite number, or null for none.
            basis = dataio._decode(
                float | None, report.config_echo.get("areal_basis_cm2"),
                "report config_echo", "areal_basis_cm2", InputDataError,
            )
            records.append(
                batchmod.CellRecord(
                    cell_id=report.cell_id,
                    batch_id=batch_id,
                    theta=report.theta,
                    features=report.features,
                    areal_basis_cm2=1.0 if basis is None else basis,
                )
            )
        except InputDataError as exc:
            raise InputDataError(f"{path}: {exc}") from None
        if not report.diagnostics.converged:
            unconverged.append(path)
    return records, unconverged


def _write_summary_csv(path, summaries) -> None:
    lines = ["batch_id,metric,count,mean,std,min,q1,median,q3,max"]
    for batch_id, s in summaries:
        std = dataio.format_float(s.std) if s.std is not None else ""
        lines.append(
            ",".join(
                [
                    batch_id,
                    s.metric,
                    str(s.count),
                    dataio.format_float(s.mean),
                    std,
                    dataio.format_float(s.minimum),
                    dataio.format_float(s.q1),
                    dataio.format_float(s.median),
                    dataio.format_float(s.q3),
                    dataio.format_float(s.maximum),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_correlation_csv(path, corr) -> None:
    lines = ["metric," + ",".join(corr.metrics)]
    for name, row in zip(corr.metrics, corr.matrix):
        cells = ["" if np.isnan(v) else dataio.format_float(float(v)) for v in row]
        lines.append(name + "," + ",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_batch(args) -> int:
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ConfigError("--metrics needs at least one metric name")
    records, unconverged = _records_from_reports(args.reports, args.batch_id)
    if unconverged:
        _warn(
            f"{len(unconverged)} of {len(records)} reports did not converge "
            f"(fit.converged false) and are included: " + ", ".join(unconverged)
        )
    summaries = [(args.batch_id, batchmod.summarize(records, m)) for m in metrics]
    _write_summary_csv(args.summary_out, summaries)
    print(f"wrote {args.summary_out} ({len(records)} cells, {len(metrics)} metrics)")
    if args.correlation_out:
        corr = batchmod.correlate(records, metrics)
        _write_correlation_csv(args.correlation_out, corr)
        if corr.degenerate:
            _warn(
                "zero-variance metrics with undefined correlations: "
                + ", ".join(corr.degenerate)
            )
        print(f"wrote {args.correlation_out}")
    return 0


def _parse_floats(text: str, flag: str, count: int) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ConfigError(f"{flag} expects {count} comma-separated numbers, got {text!r}")
    return values


def _cmd_synth(args) -> int:
    fixed_theta = None
    if args.theta:
        qn, qp, x0, y0 = _parse_floats(args.theta, "--theta", 4)
        fixed_theta = ElectrodeParams(
            qn_tilde=qn, qp_tilde=qp, x0_tilde=x0, y0_tilde=y0, q_full=min(qn, qp)
        )
    d = DegradationSpec(*_parse_floats(args.degrade, "--degrade", 3)) if args.degrade else None
    os.makedirs(args.out_dir, exist_ok=True)
    u_pos, u_neg = analytic_reference_curves(staging_amplitude=args.staging_amplitude)
    dataio.write_reference_curve(u_pos, os.path.join(args.out_dir, "u_pos.csv"))
    dataio.write_reference_curve(u_neg, os.path.join(args.out_dir, "u_neg.csv"))

    rng = np.random.default_rng(args.seed)
    for i in range(args.n_cells):
        if fixed_theta is not None:
            theta = fixed_theta
        else:
            theta = random_feasible_theta(rng, u_pos, u_neg, args.v_max)
        v_min = implied_v_min(theta, u_pos, u_neg)
        spec = SynthSpec(
            theta_true=theta,
            noise_sigma_v=args.noise_sigma_v,
            sample_count=args.samples,
            seed=args.seed + i,
            v_min=v_min,
            v_max=args.v_max,
        )
        series, theta_true = generate(spec, u_pos, u_neg)
        name = f"cell_{i:03d}"
        dataio.write_full_cell(series, os.path.join(args.out_dir, name + ".csv"))
        truth = {
            "cell_id": name,
            "theta": theta_true,
            "v_min": v_min,
            "v_max": args.v_max,
            "noise_sigma_v": args.noise_sigma_v,
            "seed": spec.seed,
        }
        with open(os.path.join(args.out_dir, name + ".truth.json"), "w", encoding="utf-8") as fh:
            fh.write(dataio.dumps_canonical(truth))

        if d is not None:
            theta_aged = degrade(theta_true, d, u_pos, u_neg, v_min, args.v_max)
            aged_spec = SynthSpec(
                theta_true=theta_aged,
                noise_sigma_v=args.noise_sigma_v,
                sample_count=args.samples,
                seed=spec.seed + 100000,
                v_min=v_min,
                v_max=args.v_max,
            )
            aged_series, theta_aged = generate(aged_spec, u_pos, u_neg)
            dataio.write_full_cell(
                aged_series, os.path.join(args.out_dir, name + "_aged.csv")
            )
            truth_aged = {
                "cell_id": name + "_aged",
                "theta": theta_aged,
                "injected": d,
                "v_min": v_min,
                "v_max": args.v_max,
                "noise_sigma_v": args.noise_sigma_v,
                "seed": aged_spec.seed,
            }
            with open(
                os.path.join(args.out_dir, name + ".truth_aged.json"), "w", encoding="utf-8"
            ) as fh:
                fh.write(dataio.dumps_canonical(truth_aged))
    print(f"wrote {args.n_cells} synthetic cell(s) to {args.out_dir}")
    return 0


def _cmd_correct(args) -> int:
    x_lo, x_hi = _parse_floats(args.x_window, "--x-window", 2)
    y_lo, y_hi = _parse_floats(args.y_window, "--y-window", 2)
    report = dataio.read_report(args.report)
    c = CorrectionInputs(x_min=x_lo, x_max=x_hi, y_min=y_lo, y_max=y_hi)
    corrected = correct_to_true(report.theta, c, anchor=args.anchor)
    out = {"cell_id": report.cell_id, "window": c, **corrected._asdict()}
    sys.stdout.write(dataio.dumps_canonical(out))
    return 0


def _cmd_smooth(args) -> int:
    series = dataio.parse_full_cell(args.input)
    if args.resample:
        series = resample(series, args.resample)
    cfg = SmoothingConfig(
        window_length=args.window, poly_order=args.poly, enabled=not args.no_smoothing
    )
    smoothed = smooth(series, cfg)
    dvdq = differentiate(series, cfg)
    header = "capacity_ah,voltage_v,dvdq_v_per_ah"
    columns = [series.q, smoothed.v, dvdq]

    if args.report and args.config:
        cfg_toolkit = dataio.load_config(args.config)
        u_pos = dataio.parse_reference_curve(cfg_toolkit.u_pos_path)
        u_neg = dataio.parse_reference_curve(cfg_toolkit.u_neg_path)
        vec = param_vector(dataio.read_report(args.report).theta)
        model = evaluate(vec, series.q, u_pos, u_neg)
        header += ",voltage_model_v,dvdq_model_v_per_ah,dvdq_pos_v_per_ah,dvdq_neg_v_per_ah"
        columns += [
            model.voltage,
            model.dvdq_pos + model.dvdq_neg,
            model.dvdq_pos,
            model.dvdq_neg,
        ]
    elif args.report or args.config:
        raise ConfigError("model decomposition needs both --report and --config")

    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(dataio.format_float(float(v)) for v in row))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_check_rate(args) -> int:
    slow = dataio.parse_full_cell(args.slow)
    ref = dataio.parse_full_cell(args.reference)
    result = capacity_at_rate_check(slow, ref, tol=args.tol)
    sys.stdout.write(
        dataio.dumps_canonical(
            {
                "ratio": result.ratio,
                "passed": result.passed,
                "tolerance": args.tol,
                "q_slow_ah": slow.q_full,
                "q_reference_ah": ref.q_full,
            }
        )
    )
    if not result.passed:
        _emit_error(
            DvafitError(
                f"slow-rate capacity ratio {result.ratio:.4f} deviates from 1 "
                f"by more than {args.tol:.2%}; data is not near-equilibrium"
            ),
            context=args.slow,
        )
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvafit",
        description="Differential voltage analysis of battery formation data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit electrode parameters to full-cell files")
    p.add_argument("--config", required=True, help="toolkit configuration JSON")
    p.add_argument("--out-dir", default="", help="report output directory (overrides config)")
    p.add_argument("inputs", nargs="+", help="full-cell CSV files")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("features", help="recompute features from stored reports")
    p.add_argument("--areal-basis-cm2", type=float, default=None)
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("batch", help="aggregate reports into summary statistics")
    p.add_argument("--metrics", required=True, help="comma-separated metric names")
    p.add_argument("--summary-out", required=True, help="summary CSV path")
    p.add_argument("--correlation-out", default="", help="correlation CSV path")
    p.add_argument("--batch-id", default="batch", help="label for the summary rows")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("synth", help="write synthetic datasets with known ground truth")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-cells", type=int, default=1)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--noise-sigma-v", type=float, default=0.0)
    p.add_argument("--v-max", type=float, default=4.2)
    p.add_argument("--staging-amplitude", type=float, default=0.03)
    p.add_argument(
        "--theta", default="", help="explicit qn,qp,x0,y0 (default: random feasible draw)"
    )
    p.add_argument(
        "--degrade", default="", help="also write an aged twin: lam_pe,lam_ne,lli"
    )
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("correct", help="window-correct fitted parameters from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--x-window", required=True, help="x_min,x_max of the negative reference")
    p.add_argument("--y-window", required=True, help="y_min,y_max of the positive reference")
    p.add_argument("--anchor", action="store_true", help="pin absolutes via x100/y0 assumption")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("smooth", help="emit smoothed voltage and dV/dQ columns")
    p.add_argument("input", help="full-cell CSV file")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=25)
    p.add_argument("--poly", type=int, default=3)
    p.add_argument("--no-smoothing", action="store_true")
    p.add_argument("--resample", type=int, default=0, help="resample to N uniform points first")
    p.add_argument("--report", default="", help="report JSON for model decomposition")
    p.add_argument("--config", default="", help="toolkit config for model decomposition")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("check-rate", help="screen a slow-rate curve against a reference")
    p.add_argument("slow", help="candidate near-equilibrium CSV (e.g. C/20)")
    p.add_argument("reference", help="slower reference CSV (e.g. C/100)")
    p.add_argument("--tol", type=float, default=0.01)
    p.set_defaults(func=_cmd_check_rate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DvafitError as exc:
        _emit_error(exc)
        return exc.exit_code
    except OSError as exc:
        _emit_error(InputDataError(str(exc)))
        return InputDataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
