"""Self-test of the benchmark at small size.

    python3 perfbench/selftest.py

Runs every workload to its end through ``run.py`` (traced, which also runs
the untraced child) and checks the result line, then shows that each
correctness check fails when one output is perturbed: a theta shifted by
5 %, a summary median offset, a flipped rate verdict, and so on.  Prints
one line per test and exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads as W  # noqa: E402
from spans import Layers, per_layer_metric_units  # noqa: E402

END_TO_END = ("cells_per_s", "cell_p50_s", "setup_s", "peak_rss_mb")
FAILED = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILED.append(name)


def expect_caught(name: str, failures: list[str], needle: str) -> None:
    """A perturbed output must produce a failure message containing ``needle``."""
    expect(name, any(needle in f for f in failures), f"no failure mentions {needle!r}: {failures[:3]}")


def run_line(workload: str, trace: int) -> dict | None:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def test_end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    expect("BENCHMARK.json per_layer matches the traced metrics",
           declared == set(per_layer_metric_units()),
           f"symmetric difference {sorted(declared ^ set(per_layer_metric_units()))}")
    expect("BENCHMARK.json end_to_end names", [m["name"] for m in spec["end_to_end"]] == list(END_TO_END))
    for workload in W.WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, tuple(per_layer_metric_units()))):
            line = run_line(workload, trace)
            ok = (
                line is not None
                and line["correct"] is True
                and line["attempted"] >= 1
                and line["failed"] == 0
                and list(line["metrics"]) == list(names)
                and all(isinstance(m["value"], float) for m in line["metrics"].values())
            )
            expect(f"{workload} --trace {trace} runs to its end and passes its checks", ok,
                   json.dumps(line)[:300])
        if line is not None and workload != "line_ingest":
            expect(f"{workload} traced fit metrics are non-zero",
                   line["metrics"]["fitting.nfev"]["value"] > 0
                   and line["metrics"]["fitting.start_hit_ratio"]["value"] > 0)


def small_round(name: str, workdir: str):
    wl = W.WORKLOAD_CLASSES[name](Layers(None), 5, os.path.join(workdir, name), "small")
    os.makedirs(wl.workdir, exist_ok=True)
    wl.setup()
    outputs = [wl.run_cell(cell) for cell in wl.cells]
    return wl, outputs, wl.run_aggregate(outputs)


def shifted(out, **changes):
    """A FitOutput whose fitted theta has ``changes`` applied."""
    theta = replace(out.result.theta, **changes)
    return replace(out, result=replace(out.result, theta=theta))


def with_report_offset(out, key, offset):
    with open(out.report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["features"][key] += offset
    path = out.report_path + ".perturbed"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return replace(out, report_path=path)


def swap(items, index, new):
    items = list(items)
    items[index] = new
    return items


def test_aggregate_checks(label, wl, cells, outputs, agg):
    metric = W.METRICS[0]
    batch = sorted(agg.summaries[metric])[0]
    summary = agg.summaries[metric][batch]
    summaries = dict(agg.summaries)
    summaries[metric] = {**agg.summaries[metric], batch: replace(summary, median=summary.median + 1e-3)}
    expect_caught(f"{label}: summary median offset is caught",
                  wl.check(cells, outputs, replace(agg, summaries=summaries)), "median")

    matrix = agg.correlation.matrix.copy()
    matrix[0, 1] += 0.01
    bad = replace(agg, correlation=replace(agg.correlation, matrix=matrix))
    failures = wl.check(cells, outputs, bad)
    expect_caught(f"{label}: perturbed correlation is caught", failures, "differs from numpy")
    expect_caught(f"{label}: asymmetric correlation is caught", failures, "not symmetric")

    matrix = agg.correlation.matrix.copy()
    matrix[0, 0] = 0.999
    bad = replace(agg, correlation=replace(agg.correlation, matrix=matrix))
    expect_caught(f"{label}: non-unit diagonal is caught", wl.check(cells, outputs, bad), "diagonal")


def test_fit_checks(wl, outputs, agg):
    cells = wl.cells
    base = wl.check(cells, outputs, agg)
    expect("eol_fit: unperturbed outputs pass", base == [], str(base[:3]))
    out = outputs[0]
    theta = out.result.theta
    rq, ax = W.checks.fit_tolerances(wl.sigma)

    bad = swap(outputs, 0, shifted(out, qn_tilde=theta.qn_tilde * 1.05))
    expect_caught("eol_fit: Qn shifted by 5 % is caught", wl.check(cells, bad, agg), "qn_tilde")
    bad = swap(outputs, 0, shifted(out, qp_tilde=theta.qp_tilde * 0.95))
    expect_caught("eol_fit: Qp shifted by 5 % is caught", wl.check(cells, bad, agg), "qp_tilde")
    bad = swap(outputs, 0, shifted(out, y0_tilde=theta.y0_tilde * 0.95))
    expect_caught("eol_fit: y0 shifted by 5 % is caught", wl.check(cells, bad, agg), "y0_tilde")
    bad = swap(outputs, 0, shifted(out, x0_tilde=theta.x0_tilde + 2 * ax))
    expect_caught("eol_fit: x0 shifted by twice its tolerance is caught", wl.check(cells, bad, agg), "x0_tilde")
    # Inside the recovery tolerance, but no longer the least-squares minimum.
    bad = swap(outputs, 0, shifted(out, qn_tilde=theta.qn_tilde * (1 + 0.5 * rq)))
    expect_caught("eol_fit: a fit worse than the truth is caught", wl.check(cells, bad, agg),
                  "residual sum of squares")
    bad = swap(outputs, 0, replace(out, result=replace(out.result, rmse_voltage=5 * wl.sigma)))
    expect_caught("eol_fit: RMSE outside the noise band is caught", wl.check(cells, bad, agg), "RMSE")
    for key in ("q_sei", "q_li", "npr_practical"):
        bad = swap(outputs, 0, with_report_offset(out, key, 0.05))
        expect_caught(f"eol_fit: report {key} offset is caught", wl.check(cells, bad, agg), f"report {key}")
    test_aggregate_checks("eol_fit", wl, cells, outputs, agg)


def test_aging_checks(wl, outputs, agg):
    cells = wl.cells
    base = wl.check(cells, outputs, agg)
    expect("aging_refit: unperturbed outputs pass", base == [], str(base[:3]))
    out = outputs[0]
    for name in ("lam_pe", "lam_ne", "lli"):
        deg = replace(out.degradation, **{name: getattr(out.degradation, name) + 0.05})
        bad = swap(outputs, 0, replace(out, degradation=deg))
        expect_caught(f"aging_refit: {name} off by 0.05 is caught", wl.check(cells, bad, agg), name)
    aged = shifted(out.aged, qp_tilde=out.aged.result.theta.qp_tilde * 1.05)
    bad = swap(outputs, 0, replace(out, aged=aged))
    expect_caught("aging_refit: aged Qp shifted by 5 % is caught", wl.check(cells, bad, agg), "qp_tilde")


def test_ingest_checks(wl, outputs, agg):
    cells = wl.cells
    base = wl.check(cells, outputs, agg)
    expect("line_ingest: unperturbed outputs pass", base == [], str(base[:3]))
    verdicts = {out.rate.passed for out in outputs}
    expect("line_ingest: the line holds both passing and failing rate checks", verdicts == {True, False})
    out = outputs[0]
    bad = swap(outputs, 0, replace(out, q_log=out.q_log * (1 + 1e-6)))
    expect_caught("line_ingest: q_full off by 1e-6 is caught", wl.check(cells, bad, agg), "parsed q_full")
    rate = out.rate._replace(passed=not out.rate.passed)
    bad = swap(outputs, 0, replace(out, rate=rate))
    expect_caught("line_ingest: flipped rate verdict is caught", wl.check(cells, bad, agg), "passed=")
    rate = out.rate._replace(ratio=out.rate.ratio * 1.001)
    bad = swap(outputs, 0, replace(out, rate=rate))
    expect_caught("line_ingest: rate ratio off by 0.1 % is caught", wl.check(cells, bad, agg), "ratio")
    bad = swap(outputs, 0, replace(out, dvdq=out.dvdq * 1.05))
    expect_caught("line_ingest: dV/dQ scaled by 5 % is caught", wl.check(cells, bad, agg), "integral of dV/dQ")
    test_aggregate_checks("line_ingest", wl, cells, outputs, agg)


def main() -> int:
    test_end_to_end()
    workdir = os.path.join(W.BENCH_DIR, "out", f"selftest-p{os.getpid()}")
    try:
        test_fit_checks(*small_round("eol_fit", workdir))
        test_aging_checks(*small_round("aging_refit", workdir))
        test_ingest_checks(*small_round("line_ingest", workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
