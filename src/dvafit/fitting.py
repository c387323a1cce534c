"""Electrode-parameter estimation from measured full-cell curves.

Minimizes the weighted two-channel objective

    sum_i  lam * E(q_i)^2 + (1 - lam) * (dE/dq)(q_i)^2

over (qn, qp, x0, y0), where E is the model-minus-measured voltage error
on a uniform capacity grid.  Bounded trust-region least squares from
multiple Latin-hypercube starts; everything is deterministic under the
configured seed.  Stoichiometry excursions beyond [0, 1] are penalized
smoothly inside the objective (the model kernel clips and returns the
excursion), so the optimizer can cross infeasible regions without crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares
from scipy.stats import qmc

from .curves import (
    CapacityVoltageSeries,
    ReferencePotentialCurve,
    SmoothingConfig,
    differentiate,
    resample,
    validate_full_cell,
)
from .errors import ConfigError
from .model import ElectrodeParams, cell_voltage, clipped_profiles, electrode_dvdq, param_vector

# Penalty residual per unit of stoichiometry excursion beyond [0, 1],
# applied per grid point.  Large against voltage errors (order 0.1 V) so
# infeasible minima never win, small enough to keep the landscape smooth.
PENALTY_V_PER_UNIT = 10.0


@dataclass(frozen=True)
class ParameterBounds:
    """Box bounds for (qn_tilde, qp_tilde, x0_tilde, y0_tilde)."""

    qn: tuple[float, float]
    qp: tuple[float, float]
    x0: tuple[float, float]
    y0: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in self.as_dict().items():
            if not lo < hi:
                raise ConfigError(f"bounds for {name} must satisfy lo < hi, got ({lo}, {hi})")
        if self.qn[0] <= 0 or self.qp[0] <= 0:
            raise ConfigError("capacity bounds must be positive")
        if not (0.0 <= self.x0[0] and self.x0[1] < 1.0):
            raise ConfigError(f"x0 bounds must lie in [0, 1), got {self.x0}")
        if not (0.0 < self.y0[0] and self.y0[1] <= 1.0):
            raise ConfigError(f"y0 bounds must lie in (0, 1], got {self.y0}")

    @classmethod
    def default(cls, q_full: float) -> "ParameterBounds":
        """Healthy-cell defaults: capacities in [q_full, 5 q_full],
        discharged-state stoichiometries near their extremes."""
        return cls(
            qn=(q_full, 5.0 * q_full),
            qp=(q_full, 5.0 * q_full),
            x0=(0.0, 0.3),
            y0=(0.7, 1.0),
        )

    def as_dict(self) -> dict[str, tuple[float, float]]:
        return {"qn": self.qn, "qp": self.qp, "x0": self.x0, "y0": self.y0}

    def lower(self) -> np.ndarray:
        return np.array([self.qn[0], self.qp[0], self.x0[0], self.y0[0]])

    def upper(self) -> np.ndarray:
        return np.array([self.qn[1], self.qp[1], self.x0[1], self.y0[1]])


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    ``lam`` weights the voltage channel against the differential-voltage
    channel; 0.5 exercises both.  ``bounds=None`` derives healthy-cell
    defaults from the measured capacity.  ``tol_step`` and
    ``tol_objective`` map onto the trust-region step and cost tolerances.
    """

    lam: float = 0.5
    resample_points: int = 500
    bounds: ParameterBounds | None = None
    starts: int = 16
    seed: int = 0
    max_iterations: int = 500
    tol_step: float = 1e-10
    tol_objective: float = 1e-10
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if self.resample_points < 16:
            raise ConfigError(f"resample_points must be >= 16, got {self.resample_points}")
        if self.starts < 1:
            raise ConfigError(f"starts must be >= 1, got {self.starts}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tol_step <= 0 or self.tol_objective <= 0:
            raise ConfigError("tolerances must be positive")


class StartRecord(NamedTuple):
    """One multi-start trajectory: where it began, how well it ended."""

    theta0: tuple[float, float, float, float]
    objective: float


@dataclass(frozen=True)
class ResidualSeries:
    """Unweighted per-sample residuals of the returned fit."""

    q: np.ndarray
    voltage: np.ndarray  # model - measured, V
    dvdq: np.ndarray  # model - smoothed measured, V/Ah


@dataclass(frozen=True)
class FitResult:
    theta: ElectrodeParams
    rmse_voltage: float
    rmse_dvdq: float
    objective: float
    converged: bool
    iterations: int  # scipy nfev summed over starts; excludes finite-difference Jacobian calls
    start_records: tuple[StartRecord, ...]
    residual_series: ResidualSeries


class _Problem(NamedTuple):
    """Measured data prepared once per fit: uniform interior grid,
    raw voltage channel, smoothed differential channel."""

    q_grid: np.ndarray
    v_meas: np.ndarray
    dvdq_meas: np.ndarray
    q_full: float


def _prepare(measured: CapacityVoltageSeries, cfg: FitConfig) -> _Problem:
    validate_full_cell(measured)
    if measured.v[-1] < measured.v[0]:
        # Voltage falls across the capacity range: a discharge counted from
        # the top of charge.  Re-count it from the discharged state so the
        # model's q = 0 is the low-voltage end, whatever the label says.
        measured = replace(measured, q=measured.q_full - measured.q[::-1], v=measured.v[::-1])
    # Two extra points so the residual grid is the open interior of
    # [0, q_full]: the model error is defined strictly between the
    # voltage cutoffs.
    uniform = resample(measured, cfg.resample_points + 2)
    dvdq = differentiate(uniform, cfg.smoothing)
    return _Problem(
        q_grid=uniform.q[1:-1],
        v_meas=uniform.v[1:-1],
        dvdq_meas=dvdq[1:-1],
        q_full=measured.q_full,
    )


def _channels(vec, prob, u_pos, u_neg):
    """Voltage error, differential error, and feasibility excursion.

    The model is evaluated on stoichiometries clipped to [0, 1]; the
    excursion channel carries what clipping removed, so infeasibility
    shows up as penalty rather than NaN.
    """
    x, y, excursion = clipped_profiles(vec, prob.q_grid)
    dvdq_pos, dvdq_neg = electrode_dvdq(vec, x, y, u_pos, u_neg)
    return (
        cell_voltage(x, y, u_pos, u_neg) - prob.v_meas,
        dvdq_pos + dvdq_neg - prob.dvdq_meas,
        excursion,
    )


def _stacked(vec, prob, u_pos, u_neg, lam):
    e_v, e_d, exc = _channels(vec, prob, u_pos, u_neg)
    return np.concatenate(
        [np.sqrt(lam) * e_v, np.sqrt(1.0 - lam) * e_d, PENALTY_V_PER_UNIT * exc]
    )


def residuals(
    theta: ElectrodeParams,
    measured: CapacityVoltageSeries,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    cfg: FitConfig,
) -> np.ndarray:
    """Stacked residual vector whose sum of squares is the fit objective.

    Layout: [sqrt(lam)*E, sqrt(1-lam)*dE/dq, penalty], each block over
    the uniform interior capacity grid.  The penalty block is zero for
    feasible ``theta``.
    """
    prob = _prepare(measured, cfg)
    return _stacked(param_vector(theta), prob, u_pos, u_neg, cfg.lam)


def _theta_from_vec(vec, q_full: float) -> ElectrodeParams:
    qn, qp, x0, y0 = (float(v) for v in vec)
    return ElectrodeParams(qn_tilde=qn, qp_tilde=qp, x0_tilde=x0, y0_tilde=y0, q_full=q_full)


def fit(
    measured: CapacityVoltageSeries,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    cfg: FitConfig = FitConfig(),
) -> FitResult:
    """Estimate electrode parameters from one measured full-cell curve.

    Runs bounded trust-region least squares from ``cfg.starts``
    Latin-hypercube initializations and keeps the lowest final objective
    (ties broken by voltage RMSE, then by parameter tuple, for
    determinism).  Never raises on optimization failure: if every start
    diverges or ends infeasible the result carries ``converged=False``
    and the best-effort parameters.
    """
    prob = _prepare(measured, cfg)
    bounds = cfg.bounds if cfg.bounds is not None else ParameterBounds.default(prob.q_full)
    lo, hi = bounds.lower(), bounds.upper()

    sampler = qmc.LatinHypercube(d=4, seed=cfg.seed)
    starts = qmc.scale(sampler.random(n=cfg.starts), lo, hi)

    def objective_fn(vec):
        return _stacked(vec, prob, u_pos, u_neg, cfg.lam)

    candidates = []
    records = []
    total_nfev = 0
    for x0_vec in starts:
        sol = least_squares(
            objective_fn,
            x0_vec,
            bounds=(lo, hi),
            method="trf",
            x_scale=np.array([prob.q_full, prob.q_full, 0.1, 0.1]),
            xtol=cfg.tol_step,
            ftol=cfg.tol_objective,
            gtol=1e-12,
            max_nfev=cfg.max_iterations,
        )
        total_nfev += sol.nfev
        obj = float(2.0 * sol.cost)  # least_squares cost is half the square sum
        records.append(StartRecord(theta0=tuple(float(v) for v in x0_vec), objective=obj))
        candidates.append((obj, tuple(float(v) for v in sol.x), sol.status))

    def rank(c):
        obj, vec, _ = c
        e_v, _, _ = _channels(vec, prob, u_pos, u_neg)
        return (obj, float(np.sqrt(np.mean(e_v**2))), vec)

    best_obj, best_vec, best_status = min(candidates, key=rank)
    theta = _theta_from_vec(best_vec, prob.q_full)

    e_v, e_d, _ = _channels(best_vec, prob, u_pos, u_neg)
    converged = best_status >= 1 and theta.is_strictly_feasible
    return FitResult(
        theta=theta,
        rmse_voltage=float(np.sqrt(np.mean(e_v**2))),
        rmse_dvdq=float(np.sqrt(np.mean(e_d**2))),
        objective=best_obj,
        converged=converged,
        iterations=total_nfev,
        start_records=tuple(records),
        residual_series=ResidualSeries(q=prob.q_grid, voltage=e_v, dvdq=e_d),
    )


@dataclass(frozen=True)
class BatchItemFailure:
    """Structured record of one failed batch item; never aborts the batch."""

    index: int
    error_kind: str
    message: str


def fit_batch(
    measured_list,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    cfg: FitConfig = FitConfig(),
) -> list:
    """Independent fits over a batch, order-preserving.

    Items that fail validation come back as :class:`BatchItemFailure` in
    place; the remaining fits are unaffected.  Runs sequentially so
    results are bitwise-reproducible under the configured seed.
    """
    out = []
    for i, measured in enumerate(measured_list):
        try:
            out.append(fit(measured, u_pos, u_neg, cfg))
        except Exception as exc:
            out.append(
                BatchItemFailure(index=i, error_kind=type(exc).__name__, message=str(exc))
            )
    return out
