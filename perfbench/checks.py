"""Correctness checks the benchmark makes apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
Expected values come from the benchmark's own arithmetic: the paper's closed
forms on the truth parameters, numpy statistics over values the benchmark
holds in memory, and the analytic charge integral of the current profile it
wrote.  No dvafit function is called here; the workloads pass in what the
program returned.
"""

from __future__ import annotations

import numpy as np

# Tolerances scale with the injected voltage noise sigma (in V), each set
# at 2 to 3 times the largest error seen in trial runs (36 fits of eol_fit,
# 84 of aging_refit, 48 cycler logs).  The
# relative capacity tolerance is Q_RTOL_PER_V * sigma and the absolute
# stoichiometry tolerance STOICH_ATOL_PER_V * sigma: 1 % and 0.006 at
# sigma = 1 mV, 2 % and 0.012 at 2 mV.  A 5 % error fails either.
Q_RTOL_PER_V = 10.0
STOICH_ATOL_PER_V = 6.0
# Absolute tolerances on LAM_PE / LAM_NE and on LLI, per volt of noise.
LAM_ATOL_PER_V = 15.0
LLI_ATOL_PER_V = 2.5
# The fit's voltage RMSE must lie within this band, in units of sigma.  With
# 2 mV noise on 2000 samples the smoothed dV/dQ channel dominates the
# objective, and the voltage RMSE of a fit whose objective beat the truth's
# reached 2.1 sigma; a fit stuck in a wrong minimum sits at tens of sigma.
RMSE_BAND = (0.5, 4.0)
# Tolerance of quantities that should agree up to float rounding.
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-12
# Bound on |integral of dV/dQ - voltage rise|, in units of sigma: the
# smoothed end points each carry part of one sample's noise.
RISE_SIGMAS = 6.0


def fit_tolerances(sigma: float) -> tuple[float, float]:
    """(relative capacity tolerance, absolute stoichiometry tolerance)."""
    return Q_RTOL_PER_V * sigma, STOICH_ATOL_PER_V * sigma


def _close(actual: float, expected: float, rtol=EXACT_RTOL, atol=EXACT_ATOL) -> bool:
    return bool(np.isfinite(actual)) and abs(actual - expected) <= atol + rtol * abs(expected)


def closed_forms(qn, qp, x0, y0, q_full) -> dict[str, float]:
    """q_sei, q_li and practical N:P from the paper's formulas."""
    return {
        "q_sei": qp * (1.0 - y0) - qn * x0,
        "q_li": x0 * qn + y0 * qp,
        "npr_practical": qn * (1.0 - x0) / q_full,
    }


def closed_form_bounds(qn, qp, x0, y0, q_full, rq, ax) -> dict[str, float]:
    """First-order error bounds on :func:`closed_forms` given parameter
    errors of at most ``rq`` (relative, capacities) and ``ax`` (absolute,
    stoichiometries)."""
    return {
        "q_sei": (1.0 - y0) * qp * rq + qp * ax + x0 * qn * rq + qn * ax,
        "q_li": x0 * qn * rq + qn * ax + y0 * qp * rq + qp * ax,
        "npr_practical": qn * (1.0 - x0) / q_full * (rq + ax / (1.0 - x0)),
    }


def _params(theta) -> tuple[float, float, float, float, float]:
    return theta.qn_tilde, theta.qp_tilde, theta.x0_tilde, theta.y0_tilde, theta.q_full


def check_fit(cell, theta, truth, sigma, rmse_voltage, ss_fit, ss_truth) -> list[str]:
    """Parameter recovery, objective dominance and residual level of a fit."""
    rq, ax = fit_tolerances(sigma)
    out = []
    for name in ("qn_tilde", "qp_tilde"):
        got, want = getattr(theta, name), getattr(truth, name)
        if not abs(got / want - 1.0) <= rq:
            out.append(f"{cell}: {name} {got:.6g} off truth {want:.6g} by more than {rq:.2%}")
    for name in ("x0_tilde", "y0_tilde"):
        got, want = getattr(theta, name), getattr(truth, name)
        if not abs(got - want) <= ax:
            out.append(f"{cell}: {name} {got:.6g} off truth {want:.6g} by more than {ax:.3g}")
    if not ss_fit <= ss_truth * (1.0 + EXACT_RTOL):
        out.append(f"{cell}: residual sum of squares {ss_fit:.8g} at the fit exceeds {ss_truth:.8g} at the truth")
    lo, hi = RMSE_BAND
    if not lo * sigma <= rmse_voltage <= hi * sigma:
        out.append(
            f"{cell}: voltage RMSE {rmse_voltage:.4g} V outside [{lo}, {hi}] x sigma ({sigma} V)"
        )
    return out


def check_report_features(cell, report: dict, truth, sigma) -> list[str]:
    """The report's q_sei, q_li and npr_practical against the closed forms.

    ``report`` is the report file as parsed JSON.  Values must match the
    closed forms on the report's own theta up to rounding, and the closed
    forms on the truth within the error the fit tolerances allow.
    """
    rq, ax = fit_tolerances(sigma)
    t = report["theta"]
    own = closed_forms(t["qn_tilde"], t["qp_tilde"], t["x0_tilde"], t["y0_tilde"], t["q_full"])
    true = closed_forms(*_params(truth))
    bound = closed_form_bounds(*_params(truth), rq, ax)
    out = []
    for name, expected in true.items():
        got = report["features"][name]
        if not _close(got, own[name]):
            out.append(f"{cell}: report {name} {got!r} differs from its closed form {own[name]!r}")
        if not abs(got - expected) <= bound[name]:
            out.append(
                f"{cell}: report {name} {got:.6g} off the truth's closed form "
                f"{expected:.6g} by more than {bound[name]:.3g}"
            )
    return out


def check_degradation(cell, metrics, injected, sigma) -> list[str]:
    """LAM_PE, LAM_NE and LLI from two fits against the injected losses."""
    tol = {
        "lam_pe": LAM_ATOL_PER_V * sigma,
        "lam_ne": LAM_ATOL_PER_V * sigma,
        "lli": LLI_ATOL_PER_V * sigma,
    }
    out = []
    for name, bound in tol.items():
        got, want = getattr(metrics, name), getattr(injected, name)
        if not abs(got - want) <= bound:
            out.append(f"{cell}: {name} {got:.5g} off injected {want:.5g} by more than {bound:.3g}")
    return out


def check_q_full(cell, parsed_q_full, expected_q_full) -> list[str]:
    if _close(parsed_q_full, expected_q_full):
        return []
    return [f"{cell}: parsed q_full {parsed_q_full!r} Ah, charge integral {expected_q_full!r} Ah"]


def check_rate(cell, result, q_slow, q_ref, tol) -> list[str]:
    """Rate-check ratio and verdict against the capacities the pair was built with."""
    ratio = q_slow / q_ref
    out = []
    if not _close(result.ratio, ratio):
        out.append(f"{cell}: rate-check ratio {result.ratio!r}, built with {ratio!r}")
    if result.passed != (abs(1.0 - ratio) <= tol):
        out.append(f"{cell}: rate check passed={result.passed} for a pair built at ratio {ratio:.5f}")
    return out


def check_dvdq(cell, q_grid, dvdq, v_rise, sigma) -> list[str]:
    """Trapezoid integral of dV/dQ over the grid against the voltage rise."""
    integral = float(np.sum(0.5 * (dvdq[1:] + dvdq[:-1]) * np.diff(q_grid)))
    bound = RISE_SIGMAS * sigma
    if abs(integral - v_rise) <= bound:
        return []
    return [f"{cell}: integral of dV/dQ {integral:.6g} V, voltage rise {v_rise:.6g} V (bound {bound:.3g})"]


def own_metric_values(theta, area_cm2) -> dict[str, float]:
    """Batch metrics of one cell from its parameters, by the benchmark's arithmetic."""
    qn, qp, x0, y0, q_full = _params(theta)
    f = closed_forms(qn, qp, x0, y0, q_full)
    to_areal = 1000.0 / area_cm2
    return {
        "areal_q_sei": f["q_sei"] * to_areal,
        "areal_q_li": f["q_li"] * to_areal,
        "npr_practical": f["npr_practical"],
        "qn_tilde": qn,
        "qp_tilde": qp,
    }


def check_summaries(summaries, values) -> list[str]:
    """Library box-plot summaries against numpy.

    ``summaries`` maps metric -> {batch_id: BatchSummary}; ``values`` maps
    metric -> {batch_id: array of the benchmark's own values}.
    """
    out = []
    for metric, per_batch in values.items():
        got_batches = summaries.get(metric, {})
        if sorted(got_batches) != sorted(per_batch):
            out.append(f"summary {metric}: batches {sorted(got_batches)} != {sorted(per_batch)}")
            continue
        for batch_id, vals in per_batch.items():
            s = got_batches[batch_id]
            q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
            expected = {
                "mean": np.mean(vals),
                "minimum": np.min(vals),
                "q1": q1,
                "median": med,
                "q3": q3,
                "maximum": np.max(vals),
            }
            if len(vals) > 1:
                expected["std"] = np.std(vals, ddof=1)
            if s.count != len(vals):
                out.append(f"summary {metric}/{batch_id}: count {s.count} != {len(vals)}")
            for field, want in expected.items():
                got = getattr(s, field)
                if got is None or not _close(got, float(want)):
                    out.append(f"summary {metric}/{batch_id}: {field} {got!r} != numpy {float(want)!r}")
    return out


def check_correlation(corr, metrics, values) -> list[str]:
    """Correlation matrix against numpy; symmetric with a unit diagonal.

    ``values`` is an (n_cells, n_metrics) array of the benchmark's own values.
    """
    out = []
    m = np.asarray(corr.matrix, dtype=float)
    if tuple(corr.metrics) != tuple(metrics):
        return [f"correlation metrics {corr.metrics} != {tuple(metrics)}"]
    want = np.corrcoef(values, rowvar=False)
    if m.shape != want.shape:
        return [f"correlation shape {m.shape} != {want.shape}"]
    if not np.allclose(m, want, rtol=EXACT_RTOL * 100, atol=1e-9):
        worst = float(np.max(np.abs(m - want)))
        out.append(f"correlation matrix differs from numpy by up to {worst:.3g}")
    if not np.max(np.abs(m - m.T)) <= EXACT_ATOL:
        out.append("correlation matrix is not symmetric")
    if not np.all(np.diag(m) == 1.0):
        out.append(f"correlation diagonal {np.diag(m).tolist()} is not all ones")
    return out
