"""One benchmark workload in one process: set-up, timed phase, checks.

``run.py`` starts this file once per run and reads the JSON it writes to
``--result``.  To run a workload by hand, from the repository root:

    python3 perfbench/workloads.py --workload eol_fit --seed 1 --seconds 15 \\
        --trace 0 --workdir perfbench/out/scratch --result /dev/stdout

Set-up synthesizes one formation line of cells from ``--seed`` and writes
its input files.  The timed phase then carries every cell of the line
through the workload's pipeline, one cell after another in this single
process, and aggregates the line; it repeats whole lines until at least
``--seconds`` have passed (or exactly ``--rounds`` lines).  The outputs of
every line are checked after the line, outside the timed phase.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import dvafit  # noqa: E402
from dvafit import (  # noqa: E402
    CellRecord,
    DegradationSpec,
    DvafitError,
    FitConfig,
    SmoothingConfig,
    SynthSpec,
)
from dvafit.dataio import FitDiagnostics, InputFile, Report  # noqa: E402
from dvafit.fitting import StartRecord, residuals  # noqa: E402

import checks  # noqa: E402
from spans import Layers, Tracer  # noqa: E402

WORKLOADS = ("eol_fit", "aging_refit", "line_ingest")

V_MAX = 4.1
AREA_CM2 = 14 * 79.20  # 14 positive faces of 79.20 cm^2
METRICS = ("areal_q_sei", "areal_q_li", "npr_practical", "qn_tilde", "qp_tilde")

# Two formation lines of one cell design.  Line B lost more lithium in
# formation (lower y0), the drift the batch summaries are meant to show.
# Cells scatter around the line's nominal state by CAPACITY_SPREAD
# (relative) and STOICH_SPREAD (absolute).
NOMINAL = {
    "A": {"qn": 3.0, "qp": 2.7, "x0": 0.04, "y0": 0.935},
    "B": {"qn": 3.0, "qp": 2.7, "x0": 0.04, "y0": 0.905},
}
CAPACITY_SPREAD = 0.03
STOICH_SPREAD = 0.01

# Cells (eol_fit, line_ingest) or pristine/aged pairs (aging_refit) per line,
# and rows of the cycler logs, at full size and for the self-test.
SIZES = {
    "full": {"eol_fit": 18, "aging_refit": 14, "line_ingest": 16, "log_rows": 24000, "ref_rows": 12000},
    "small": {"eol_fit": 3, "aging_refit": 3, "line_ingest": 6, "log_rows": 3000, "ref_rows": 1500},
}

if not os.path.abspath(dvafit.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"dvafit was imported from {dvafit.__file__}, not from {SRC}")


def _fit_config_echo(cfg: FitConfig) -> dict:
    return {
        "areal_basis_cm2": AREA_CM2,
        "fit": {
            "lambda": cfg.lam,
            "resample_points": cfg.resample_points,
            "starts": cfg.starts,
            "seed": cfg.seed,
            "max_iterations": cfg.max_iterations,
            "tol_step": cfg.tol_step,
            "tol_objective": cfg.tol_objective,
        },
    }


def _write_summary_csv(path, summaries) -> None:
    """Box-plot summaries in the layout ``dvafit batch`` writes."""
    lines = ["batch_id,metric,count,mean,std,min,q1,median,q3,max"]
    for metric, per_batch in summaries.items():
        for batch_id, s in per_batch.items():
            std = repr(s.std) if s.std is not None else ""
            stats = ",".join(repr(v) for v in (s.minimum, s.q1, s.median, s.q3, s.maximum))
            lines.append(f"{batch_id},{metric},{s.count},{s.mean!r},{std},{stats}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_correlation_csv(path, corr) -> None:
    lines = ["metric," + ",".join(corr.metrics)]
    for name, row in zip(corr.metrics, corr.matrix):
        lines.append(name + "," + ",".join("" if np.isnan(v) else repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Aggregate:
    summaries: dict  # metric -> {batch_id: BatchSummary}
    correlation: object  # CorrelationResult


@dataclass(frozen=True)
class FitOutput:
    """What one fitted curve leaves behind for the checks."""

    series: object  # parsed CapacityVoltageSeries
    result: object  # FitResult
    record: CellRecord
    report_path: str


@dataclass(frozen=True)
class FitCell:
    cell_id: str
    batch_id: str
    csv_path: str
    report_path: str
    truth: object  # ElectrodeParams the curve was synthesized from


class Workload:
    """Shared set-up helpers, the `dvafit fit` pipeline and line aggregation.

    Subclasses set ``sigma``, the injected voltage noise in V, and define
    ``setup``, ``run_cell`` and ``check``.
    """

    def __init__(self, layers: Layers, seed: int, workdir: str, size: str):
        self.L = layers
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.sizes = SIZES[size]
        self.cells: list = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def draw_theta(self, batch_id, u_pos, u_neg):
        n = NOMINAL[batch_id]
        return self.L.random_feasible_theta(
            self.rng,
            u_pos,
            u_neg,
            V_MAX,
            qn_range=(n["qn"] * (1 - CAPACITY_SPREAD), n["qn"] * (1 + CAPACITY_SPREAD)),
            qp_range=(n["qp"] * (1 - CAPACITY_SPREAD), n["qp"] * (1 + CAPACITY_SPREAD)),
            x0_range=(n["x0"] - STOICH_SPREAD, n["x0"] + STOICH_SPREAD),
            y0_range=(n["y0"] - STOICH_SPREAD, n["y0"] + STOICH_SPREAD),
        )

    def synth_curve(self, theta, u_pos, u_neg, samples, name):
        """Charge curve for ``theta`` with noise, written as a full-cell CSV."""
        spec = SynthSpec(
            theta_true=theta,
            noise_sigma_v=self.sigma,
            sample_count=samples,
            seed=int(self.rng.integers(2**31)),
            v_min=self.L.implied_v_min(theta, u_pos, u_neg),
            v_max=V_MAX,
        )
        series, truth = self.L.generate(spec, u_pos, u_neg)
        path = self.path(name + ".csv")
        self.L.write_full_cell(series, path)
        return path, truth

    def fit_pipeline(self, cell: FitCell, u_pos, u_neg, cfg) -> FitOutput:
        """parse_full_cell -> fit -> derive_features -> normalize_areal ->
        write_report, the order `dvafit fit` uses."""
        L = self.L
        series = L.parse_full_cell(cell.csv_path)
        result = L.fit(series, u_pos, u_neg, cfg)
        features = L.derive_features(result.theta)
        record = CellRecord(
            cell_id=cell.cell_id,
            batch_id=cell.batch_id,
            theta=result.theta,
            features=features,
            areal_basis_cm2=AREA_CM2,
        )
        record = replace(record, features=L.normalize_areal(record))
        report = Report(
            cell_id=cell.cell_id,
            seed=cfg.seed,
            theta=result.theta,
            features=record.features,
            diagnostics=L.diagnostics_from_result(result, cfg.lam),
            inputs=(InputFile("full_cell", cell.csv_path, L.sha256_of(cell.csv_path)),),
            config_echo=_fit_config_echo(cfg),
        )
        L.write_report(report, cell.report_path)
        if not result.converged:
            raise dvafit.NonConvergenceError(f"{cell.cell_id}: fit did not converge")
        return FitOutput(series=series, result=result, record=record, report_path=cell.report_path)

    def check_fit_output(self, cell: FitCell, out: FitOutput, u_pos, u_neg, cfg) -> list[str]:
        ss_fit = float(np.sum(residuals(out.result.theta, out.series, u_pos, u_neg, cfg) ** 2))
        ss_truth = float(np.sum(residuals(cell.truth, out.series, u_pos, u_neg, cfg) ** 2))
        failures = checks.check_fit(
            cell.cell_id, out.result.theta, cell.truth, self.sigma,
            out.result.rmse_voltage, ss_fit, ss_truth,
        )
        with open(out.report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        return failures + checks.check_report_features(cell.cell_id, report, cell.truth, self.sigma)

    def run_aggregate(self, outputs) -> Aggregate:
        return self.aggregate([out.record for out in outputs])

    def aggregate(self, records) -> Aggregate:
        """Per-batch summaries and the correlation matrix, written as CSVs."""
        summaries = {m: self.L.summarize_by_batch(records, m) for m in METRICS}
        corr = self.L.correlate(records, METRICS)
        _write_summary_csv(self.path("summary.csv"), summaries)
        _write_correlation_csv(self.path("correlation.csv"), corr)
        return Aggregate(summaries=summaries, correlation=corr)

    @staticmethod
    def check_aggregate(agg: Aggregate, records, thetas) -> list[str]:
        """Library aggregates over ``records`` against numpy over the
        benchmark's own metric values for ``thetas`` (same order)."""
        own = [checks.own_metric_values(t, AREA_CM2) for t in thetas]
        batches = sorted({r.batch_id for r in records})
        values = {
            m: {
                b: np.array([o[m] for o, r in zip(own, records) if r.batch_id == b])
                for b in batches
            }
            for m in METRICS
        }
        matrix = np.array([[o[m] for m in METRICS] for o in own])
        return checks.check_summaries(agg.summaries, values) + checks.check_correlation(
            agg.correlation, METRICS, matrix
        )


class EolFit(Workload):
    """Formation-line fits: analytic curves with staging steps, 500 samples,
    1 mV noise, default FitConfig."""

    sigma = 0.001
    samples = 500

    def setup(self):
        self.u_pos, self.u_neg = self.L.analytic_reference_curves()
        self.cfg = FitConfig()
        for i in range(self.sizes["eol_fit"]):
            batch_id = "AB"[i % 2]
            cell_id = f"cell_{i:03d}"
            theta = self.draw_theta(batch_id, self.u_pos, self.u_neg)
            csv_path, truth = self.synth_curve(theta, self.u_pos, self.u_neg, self.samples, cell_id)
            self.cells.append(
                FitCell(cell_id, batch_id, csv_path, self.path(cell_id + ".report.json"), truth)
            )

    def run_cell(self, cell: FitCell) -> FitOutput:
        return self.fit_pipeline(cell, self.u_pos, self.u_neg, self.cfg)

    def check(self, cells, outputs, agg) -> list[str]:
        failures = []
        for cell, out in zip(cells, outputs):
            failures += self.check_fit_output(cell, out, self.u_pos, self.u_neg, self.cfg)
        records = [out.record for out in outputs]
        return failures + self.check_aggregate(agg, records, [out.result.theta for out in outputs])


@dataclass(frozen=True)
class AgingCell:
    cell_id: str
    pristine: FitCell
    aged: FitCell
    injected: DegradationSpec


@dataclass(frozen=True)
class AgingOutput:
    pristine: FitOutput
    aged: FitOutput
    degradation: object  # DegradationMetrics


class AgingRefit(Workload):
    """Pristine and aged twins on the bundled reference curves: 2000 samples,
    2 mV noise, four starts on a 2000-point grid, then degradation()."""

    sigma = 0.002
    samples = 2000
    # Injected LAM_PE, LAM_NE and LLI are drawn from this range.
    LOSS_RANGE = (0.03, 0.12)

    def setup(self):
        L = self.L
        self.u_pos = L.parse_reference_curve(os.path.join(ROOT, "data", "u_pos.csv"))
        self.u_neg = L.parse_reference_curve(os.path.join(ROOT, "data", "u_neg.csv"))
        self.cfg = FitConfig(starts=4, resample_points=2000)
        for i in range(self.sizes["aging_refit"]):
            batch_id = "AB"[i % 2]
            cell_id = f"cell_{i:03d}"
            theta = self.draw_theta(batch_id, self.u_pos, self.u_neg)
            injected, aged = self.draw_aged(theta)
            twins = []
            for state, params in (("pristine", theta), ("aged", aged)):
                name = f"{cell_id}_{state}"
                csv_path, truth = self.synth_curve(params, self.u_pos, self.u_neg, self.samples, name)
                twins.append(FitCell(name, state, csv_path, self.path(name + ".report.json"), truth))
            self.cells.append(AgingCell(cell_id, twins[0], twins[1], injected))

    def draw_aged(self, theta, max_draws=50):
        """Losses and the aged state; redraws losses that leave no discharged
        state at the pristine v_min (degrade() then raises)."""
        v_min = self.L.implied_v_min(theta, self.u_pos, self.u_neg)
        for _ in range(max_draws):
            injected = DegradationSpec(*self.rng.uniform(*self.LOSS_RANGE, size=3))
            try:
                return injected, self.L.degrade(theta, injected, self.u_pos, self.u_neg, v_min, V_MAX)
            except dvafit.InfeasibilityError:
                continue
        raise dvafit.GenerationError(f"no feasible aged state in {max_draws} draws")

    def run_cell(self, cell: AgingCell) -> AgingOutput:
        pristine = self.fit_pipeline(cell.pristine, self.u_pos, self.u_neg, self.cfg)
        aged = self.fit_pipeline(cell.aged, self.u_pos, self.u_neg, self.cfg)
        metrics = self.L.degradation(pristine.result.theta, aged.result.theta)
        return AgingOutput(pristine=pristine, aged=aged, degradation=metrics)

    def run_aggregate(self, outputs) -> Aggregate:
        return self.aggregate([o.record for out in outputs for o in (out.pristine, out.aged)])

    def check(self, cells, outputs, agg) -> list[str]:
        failures = []
        for cell, out in zip(cells, outputs):
            failures += self.check_fit_output(cell.pristine, out.pristine, self.u_pos, self.u_neg, self.cfg)
            failures += self.check_fit_output(cell.aged, out.aged, self.u_pos, self.u_neg, self.cfg)
            failures += checks.check_degradation(
                cell.cell_id, out.degradation, cell.injected, self.sigma
            )
        fits = [o for out in outputs for o in (out.pristine, out.aged)]
        return failures + self.check_aggregate(
            agg, [o.record for o in fits], [o.result.theta for o in fits]
        )


@dataclass(frozen=True)
class IngestCell:
    cell_id: str
    batch_id: str
    log_path: str
    ref_path: str
    report_path: str
    truth: object  # ElectrodeParams stored in the cell's report
    q_log: float  # charge integral of the log's current profile, Ah
    q_ref: float  # the same for the reference log
    v_rise: float  # last minus first voltage of the log, V


@dataclass(frozen=True)
class IngestOutput:
    q_log: float
    q_ref: float
    rate: object  # RateCheckResult
    q_grid: np.ndarray
    dvdq: np.ndarray
    record: CellRecord


class LineIngest(Workload):
    """Cycler logs parsed, rate-screened, resampled and differentiated, and
    each cell's stored report read back; no fitting."""

    sigma = 0.001
    RESAMPLE_POINTS = 1000
    RATE_TOL = 0.01
    # Every third pair is built to fail the rate screen.
    FAIL_EVERY = 3
    PASS_RATIO = (0.993, 0.999)
    FAIL_RATIO = (0.95, 0.985)
    LOG_HOURS = 20.0  # C/20-like log
    REF_HOURS = 100.0  # C/100-like reference

    def setup(self):
        L = self.L
        self.u_pos, self.u_neg = L.analytic_reference_curves()
        self.smoothing = SmoothingConfig()
        for i in range(self.sizes["line_ingest"]):
            batch_id = "AB"[i % 2]
            cell_id = f"cell_{i:03d}"
            theta = self.draw_theta(batch_id, self.u_pos, self.u_neg)
            failing = i % self.FAIL_EVERY == self.FAIL_EVERY - 1
            ratio = self.rng.uniform(*(self.FAIL_RATIO if failing else self.PASS_RATIO))
            log_path = self.path(cell_id + ".log.csv")
            ref_path = self.path(cell_id + ".ref.csv")
            q_log, v_rise = self.write_log(
                theta, ratio * theta.q_full, self.LOG_HOURS, self.sizes["log_rows"], log_path
            )
            q_ref, _ = self.write_log(
                theta, theta.q_full, self.REF_HOURS, self.sizes["ref_rows"], ref_path
            )
            report_path = self.path(cell_id + ".report.json")
            self.write_stored_report(cell_id, batch_id, theta, report_path)
            self.cells.append(
                IngestCell(cell_id, batch_id, log_path, ref_path, report_path, theta, q_log, q_ref, v_rise)
            )

    def write_log(self, theta, q_total, hours, rows, path):
        """A charge step in the cycler schema (time_s,current_a,voltage_v).

        Samples are logged at a jittered interval; the current tapers
        linearly, so the charge integral has a closed form that the
        trapezoid rule reproduces.  Returns (charge integral, voltage rise).
        """
        span = hours * 3600.0
        step = span / (rows - 1)
        t = np.linspace(0.0, span, rows)
        t[1:-1] += self.rng.uniform(-0.3, 0.3, rows - 2) * step
        taper = self.rng.uniform(0.0, 0.2)
        i0 = 3600.0 * q_total / (span * (1.0 - 0.5 * taper))
        current = i0 * (1.0 - taper * t / span)
        q = i0 * (t - 0.5 * taper * t**2 / span) / 3600.0
        v = self.L.predict_voltage(theta, q, self.u_pos, self.u_neg)
        v = v + self.rng.normal(0.0, self.sigma, rows)
        header = (
            f"# cycler log\n# direction = charge\n# c_rate = {1.0 / hours!r}\n"
            "# temperature_label = 25C\ntime_s,current_a,voltage_v"
        )
        np.savetxt(path, np.column_stack([t, current, v]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        q_end = i0 * (t[-1] - 0.5 * taper * t[-1] ** 2 / span) / 3600.0
        return float(q_end), float(v[-1] - v[0])

    def write_stored_report(self, cell_id, batch_id, theta, path):
        """The report an earlier `dvafit fit` of this cell would have left."""
        L = self.L
        record = CellRecord(
            cell_id=cell_id,
            batch_id=batch_id,
            theta=theta,
            features=L.derive_features(theta),
            areal_basis_cm2=AREA_CM2,
        )
        cfg = FitConfig()
        diagnostics = FitDiagnostics(
            objective=float(self.rng.uniform(0.05, 0.2)),
            rmse_voltage=self.sigma,
            rmse_dvdq=float(self.rng.uniform(0.05, 0.2)),
            converged=True,
            iterations=int(self.rng.integers(800, 1600)),
            lam=cfg.lam,
            start_records=tuple(
                StartRecord(theta0=tuple(self.rng.uniform(0.0, 3.0, 4)), objective=float(o))
                for o in self.rng.uniform(0.05, 1.0, cfg.starts)
            ),
        )
        report = Report(
            cell_id=cell_id,
            seed=cfg.seed,
            theta=theta,
            features=L.normalize_areal(record),
            diagnostics=diagnostics,
            inputs=(InputFile("full_cell", cell_id + ".csv", "0" * 64),),
            config_echo=_fit_config_echo(cfg),
        )
        L.write_report(report, path)

    def run_cell(self, cell: IngestCell) -> IngestOutput:
        L = self.L
        series = L.parse_full_cell(cell.log_path)
        reference = L.parse_full_cell(cell.ref_path)
        rate = L.capacity_at_rate_check(series, reference, self.RATE_TOL)
        uniform = L.resample(series, self.RESAMPLE_POINTS)
        dvdq = L.differentiate(uniform, self.smoothing)
        report = L.read_report(cell.report_path)
        record = CellRecord(
            cell_id=report.cell_id,
            batch_id=cell.batch_id,
            theta=report.theta,
            features=L.derive_features(report.theta),
            areal_basis_cm2=AREA_CM2,
        )
        record = replace(record, features=L.normalize_areal(record))
        return IngestOutput(
            q_log=series.q_full, q_ref=reference.q_full, rate=rate,
            q_grid=uniform.q, dvdq=dvdq, record=record,
        )

    def check(self, cells, outputs, agg) -> list[str]:
        failures = []
        for cell, out in zip(cells, outputs):
            failures += checks.check_q_full(cell.cell_id + " log", out.q_log, cell.q_log)
            failures += checks.check_q_full(cell.cell_id + " reference", out.q_ref, cell.q_ref)
            failures += checks.check_rate(cell.cell_id, out.rate, cell.q_log, cell.q_ref, self.RATE_TOL)
            failures += checks.check_dvdq(cell.cell_id, out.q_grid, out.dvdq, cell.v_rise, self.sigma)
        return failures + self.check_aggregate(
            agg, [out.record for out in outputs], [cell.truth for cell in cells]
        )


WORKLOAD_CLASSES = {"eol_fit": EolFit, "aging_refit": AgingRefit, "line_ingest": LineIngest}


@dataclass
class RunResult:
    correct: bool
    failures: list
    attempted: int
    failed: int
    rounds: int
    timed_s: float
    cells_per_s: float
    cell_p50_s: float
    t_first_cell: float
    per_layer: dict | None


def run_workload(wl: Workload, seconds: float, rounds: int | None) -> RunResult:
    """Timed phase: whole lines until ``seconds`` have passed, or ``rounds`` lines.

    A cell whose pipeline raises a dvafit error, or whose fit does not
    converge, counts as failed and is left out of the line's aggregate.
    """
    L = wl.L
    cell_times = []
    failures = []
    attempted = failed = 0
    timed = 0.0
    done_rounds = 0
    t_first = time.monotonic()
    while True:
        ok_cells, outputs = [], []
        round_start = time.perf_counter()
        for i, cell in enumerate(wl.cells):
            L.set_phase("timed", f"line{done_rounds}/{i}")
            start = time.perf_counter()
            try:
                with L.span("cell"):
                    out = wl.run_cell(cell)
            except DvafitError as exc:
                failed += 1
                print(f"cell {i} failed: {exc}", file=sys.stderr)
            else:
                ok_cells.append(cell)
                outputs.append(out)
            cell_times.append(time.perf_counter() - start)
            attempted += 1
        L.set_phase("timed", f"line{done_rounds}/aggregate")
        with L.span("aggregate"):
            agg = wl.run_aggregate(outputs)
        timed += time.perf_counter() - round_start
        done_rounds += 1
        failures += wl.check(ok_cells, outputs, agg)
        if (rounds is not None and done_rounds >= rounds) or (rounds is None and timed >= seconds):
            break
    return RunResult(
        correct=not failures,
        failures=failures,
        attempted=attempted,
        failed=failed,
        rounds=done_rounds,
        timed_s=timed,
        cells_per_s=(attempted - failed) / timed,
        cell_p50_s=statistics.median(cell_times),
        t_first_cell=t_first,
        per_layer=None,
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None, help="run exactly this many lines")
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default=None, help="JSON-lines file for the spans")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    layers = Layers(tracer)
    wl = WORKLOAD_CLASSES[args.workload](layers, args.seed, args.workdir, args.size)
    with layers.span("setup"):
        wl.setup()
    result = run_workload(wl, args.seconds, args.rounds)
    if tracer is not None:
        result.per_layer = tracer.metrics(result.attempted)
        if args.trace_out:
            tracer.write(args.trace_out)
    for line in result.failures[:20]:
        print("check failed: " + line, file=sys.stderr)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result.__dict__, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
