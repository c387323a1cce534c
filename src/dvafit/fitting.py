"""Electrode-parameter estimation from measured full-cell curves.

Minimizes the weighted two-channel objective

    sum_i  lam * E(q_i)^2 + (1 - lam) * (dE/dq)(q_i)^2

over (qn, qp, x0, y0), where E is the model-minus-measured voltage error
on a uniform capacity grid, from multiple Latin-hypercube starts;
everything is deterministic under the configured seed.  Stoichiometry
excursions beyond [0, 1] are penalized smoothly inside the objective (the
model kernel clips and returns the excursion), so the optimizer can cross
infeasible regions without crashing.

All starts advance in lockstep as one batched bounded Levenberg-Marquardt
problem: each iteration makes one batched kernel call for the trial
points of every start still running and one batched solve of their
damped normal equations.  That kernel call finds each point's interval
on the reference curves once and returns the curves' slopes and
curvatures with the residual; where a start accepted its step, the
analytic Jacobian is built from those, with no second evaluation.  Every
operation works row by row, so a start ends exactly where it would end
if it ran alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .curves import (
    CapacityVoltageSeries,
    ReferencePotentialCurve,
    SmoothingConfig,
    differentiate,
    resample,
    validate_full_cell,
)
from .errors import ConfigError, require_int
from .model import CurveDerivatives, ElectrodeParams, ModelTerms, evaluate, jacobian, param_vector

# Penalty residual per unit of stoichiometry excursion beyond [0, 1],
# applied per grid point.  Large against voltage errors (order 0.1 V) so
# infeasible minima never win, small enough to keep the landscape smooth.
PENALTY_V_PER_UNIT = 10.0

# Levenberg-Marquardt damping of a start's first step, relative to the
# diagonal of J^T J.  Cautious first steps keep starts from jumping onto a
# bound; on formation-line cells more starts then reach the best objective
# than with 1e-3.
INITIAL_DAMPING = 10.0

# The solver's model Hessian is J^T J / stretch, with stretch a power of 2
# in [1, MAX_STRETCH].  Far from a fit, in large-residual valleys, the
# objective can fall along the Gauss-Newton step like a straight line
# while J^T J predicts a parabola, so every step falls short; a start whose
# accepted steps beat the prediction by half again lengthens its steps.
MAX_STRETCH = 64.0


# How a config error describes a bound that is not a pair.
_LO_HI = {"expected": "[lo, hi]"}


@dataclass(frozen=True)
class ParameterBounds:
    """Box bounds for (qn_tilde, qp_tilde, x0_tilde, y0_tilde)."""

    qn: tuple[float, float] = field(metadata=_LO_HI)
    qp: tuple[float, float] = field(metadata=_LO_HI)
    x0: tuple[float, float] = field(metadata=_LO_HI)
    y0: tuple[float, float] = field(metadata=_LO_HI)

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
    defaults from the measured capacity.  A start stops when its step,
    scaled per parameter, is below ``tol_step`` relative to its position,
    when a well-predicted step lowers its objective by less than
    ``tol_objective`` relative, or after ``max_iterations`` residual
    evaluations.
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
        for name in ("resample_points", "starts", "seed", "max_iterations"):
            require_int(getattr(self, name), name)
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if self.resample_points < 16:
            raise ConfigError(f"resample_points must be >= 16, got {self.resample_points}")
        if self.starts < 1:
            raise ConfigError(f"starts must be >= 1, got {self.starts}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
    # Residual evaluations summed over starts, the initial one of each
    # start included; Jacobian evaluations are analytic and not counted.
    iterations: int
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


def _errors(terms: ModelTerms, prob: _Problem):
    """Voltage error, differential error, and feasibility excursion.

    The model is evaluated on stoichiometries clipped to [0, 1]; the
    excursion channel carries what clipping removed, so infeasibility
    shows up as penalty rather than NaN.
    """
    return (
        terms.voltage - prob.v_meas,
        terms.dvdq_pos + terms.dvdq_neg - prob.dvdq_meas,
        terms.excursion,
    )


def _channels(vec, prob, u_pos, u_neg):
    """:func:`_errors` at one parameter vector or a batch of them, as the
    kernel takes it."""
    return _errors(evaluate(vec, prob.q_grid, u_pos, u_neg), prob)


def _block_weights(lam):
    return np.array([np.sqrt(lam), np.sqrt(1.0 - lam), PENALTY_V_PER_UNIT])


def _trial(vec, prob, u_pos, u_neg, lam) -> tuple[np.ndarray, CurveDerivatives]:
    """The stacked residual at ``vec``, (3N,) for one vector and (S, 3N)
    for a batch, and the curve derivatives its Jacobian needs, from one
    kernel evaluation."""
    terms = evaluate(vec, prob.q_grid, u_pos, u_neg)
    w_v, w_d, w_exc = _block_weights(lam)
    e_v, e_d, exc = _errors(terms, prob)
    return np.concatenate([w_v * e_v, w_d * e_d, w_exc * exc], axis=-1), terms.derivatives


def _stacked(vec, prob, u_pos, u_neg, lam):
    """The stacked residual at ``vec``; see :func:`residuals`."""
    return _trial(vec, prob, u_pos, u_neg, lam)[0]


def _stacked_jacobian(vec, prob, u_pos, u_neg, lam):
    """Jacobian of :func:`_stacked` with respect to (qn, qp, x0, y0), same
    block layout: (3N, 4) for one vector, (S, 3N, 4) for a batch."""
    derivs = _trial(vec, prob, u_pos, u_neg, lam)[1]
    return _jacobian_t(vec, derivs, prob, lam).swapaxes(-1, -2)


def _jacobian_t(vec, derivs, prob, lam):
    # The transposed Jacobian, (4, 3N) or (S, 4, 3N), as the kernel lays it
    # out, from the curve derivatives of the evaluation at ``vec``.
    jac = jacobian(vec, prob.q_grid, derivs)
    jac *= _block_weights(lam)[:, None]
    return jac.reshape(jac.shape[:-2] + (3 * prob.q_grid.size,))


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


class _Solution(NamedTuple):
    """Where every start of a lockstep solve ended, one row per start."""

    x: np.ndarray  # (S, 4) final vectors, inside the bounds
    objective: np.ndarray  # (S,) sum of squared residuals at x
    status: np.ndarray  # (S,) 0 budget spent, 2 objective test, 3 step test, 4 both
    nfev: np.ndarray  # (S,) residual evaluations


_EYE = np.eye(4)


def _normal_equations(x, derivs, r, prob, lam):
    """J^T J and J^T r at accepted points, from the curve derivatives and
    residuals their evaluation gave; the Jacobian is not kept."""
    jac_t = _jacobian_t(x, derivs, prob, lam)
    return jac_t @ jac_t.swapaxes(-1, -2), (jac_t @ r[..., None])[..., 0]


def _rows(derivs: CurveDerivatives, rows) -> CurveDerivatives:
    return CurveDerivatives._make(a[rows] for a in derivs)


def _solve(starts, lo, hi, x_scale, prob, u_pos, u_neg, cfg) -> _Solution:
    """Bounded Levenberg-Marquardt from every row of ``starts`` at once.

    Per start and iteration: solve the damped normal equations
    (H + mu * max(diag H, 1 / x_scale^2)) step = -J^T r with
    H = J^T J / stretch, freezing each parameter that sits on a bound with
    its descent direction pointing out; project the step into [lo, hi];
    accept it if it lowers the objective.  mu follows Nielsen's gain-ratio
    rule; stretch doubles after an accepted step whose gain ratio exceeds
    1.5, halves after one below 0.5 and returns to 1 after a rejected one.
    A start stops on its own step or objective test, or with the others
    when the evaluation budget is spent: every running start makes one
    residual evaluation per iteration.
    """
    lam = cfg.lam
    x_out = np.array(starts, dtype=float)
    r, derivs = _trial(x_out, prob, u_pos, u_neg, lam)
    obj_out = np.einsum("si,si->s", r, r)
    status_out = np.zeros(len(x_out), dtype=int)
    nfev_out = np.full(len(x_out), cfg.max_iterations)
    if cfg.max_iterations == 1:
        return _Solution(x_out, obj_out, status_out, nfev_out)

    # State of the running starts only; a start's row leaves when it stops.
    idx = np.arange(len(x_out))
    x, obj = x_out.copy(), obj_out.copy()
    jtj, grad = _normal_equations(x, derivs, r, prob, lam)
    mu = np.full(len(x), INITIAL_DAMPING)
    growth = np.full(len(x), 2.0)  # mu's factor after a rejection
    stretch = np.ones(len(x))
    floor = 1.0 / x_scale**2
    tol_x = cfg.tol_step

    for nfev in range(2, cfg.max_iterations + 1):
        free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
        h = jtj / stretch[:, None, None]
        damping = mu[:, None] * np.maximum(np.diagonal(h, axis1=1, axis2=2), floor)
        m = np.where(free[:, :, None] & free[:, None, :], h + damping[:, :, None] * _EYE, _EYE)
        step = np.linalg.solve(m, np.where(free, -grad, 0.0)[..., None])[..., 0]
        x_new = np.minimum(np.maximum(x + step, lo), hi)
        r_new, derivs = _trial(x_new, prob, u_pos, u_neg, lam)
        obj_new = np.einsum("si,si->s", r_new, r_new)

        dx = x_new - x
        actual = obj - obj_new
        predicted = -np.einsum("si,si->s", dx, 2.0 * grad + (h @ dx[..., None])[..., 0])
        ratio = actual / np.where(predicted > 0.0, predicted, np.inf)
        accept = actual > 0.0
        mu *= np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), growth)
        growth = np.where(accept, 2.0, 2.0 * growth)
        factor = np.where(ratio > 1.5, 2.0, np.where(ratio < 0.5, 0.5, 1.0))
        stretch = np.where(accept, np.clip(stretch * factor, 1.0, MAX_STRETCH), 1.0)

        small_obj = accept & (actual < cfg.tol_objective * obj) & (ratio > 0.25)
        dx_norm, x_norm = (
            np.sqrt(np.einsum("si,si->s", v, v)) for v in (dx / x_scale, x / x_scale)
        )
        small_step = dx_norm < tol_x * (tol_x + x_norm)
        x = np.where(accept[:, None], x_new, x)
        obj = np.where(accept, obj_new, obj)

        stop = small_obj | small_step
        if stop.any():
            done = idx[stop]
            x_out[done], obj_out[done], nfev_out[done] = x[stop], obj[stop], nfev
            status_out[done] = np.where(small_step, np.where(small_obj, 4, 3), 2)[stop]
            run = ~stop
            idx, x, obj, jtj, grad = idx[run], x[run], obj[run], jtj[run], grad[run]
            mu, growth, stretch = mu[run], growth[run], stretch[run]
            accept, r_new, derivs = accept[run], r_new[run], _rows(derivs, run)
            if not idx.size:
                break
        if accept.any() and nfev < cfg.max_iterations:
            jtj[accept], grad[accept] = _normal_equations(
                x[accept], _rows(derivs, accept), r_new[accept], prob, lam
            )
    # Starts still running have spent their budget: status 0.
    x_out[idx], obj_out[idx] = x, obj
    return _Solution(x_out, obj_out, status_out, nfev_out)


def _latin_hypercube(n: int, lo: np.ndarray, hi: np.ndarray, seed: int) -> np.ndarray:
    """``n`` points in the box [lo, hi], one in each of ``n`` equal slices
    of every axis, placed at random within their cells.  It draws from
    ``default_rng(seed)`` in the order scipy's
    ``qmc.LatinHypercube(d, seed=seed).random(n)`` does, and scales as
    ``qmc.scale`` does, so the points are bitwise scipy's."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, len(lo)))
    perms = np.tile(np.arange(1, n + 1), (len(lo), 1))
    for row in perms:
        rng.shuffle(row)
    return ((perms.T - u) / n) * (hi - lo) + lo


def fit(
    measured: CapacityVoltageSeries,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    cfg: FitConfig = FitConfig(),
) -> FitResult:
    """Estimate electrode parameters from one measured full-cell curve.

    Runs the bounded least-squares solve from ``cfg.starts``
    Latin-hypercube initializations, all advanced together, and keeps the
    lowest final objective (ties broken by voltage RMSE, then by parameter
    tuple, for determinism).  Never raises on optimization failure: if
    every start diverges or ends infeasible the result carries
    ``converged=False`` and the best-effort parameters.
    """
    prob = _prepare(measured, cfg)
    bounds = cfg.bounds if cfg.bounds is not None else ParameterBounds.default(prob.q_full)
    lo, hi = bounds.lower(), bounds.upper()

    starts = _latin_hypercube(cfg.starts, lo, hi, cfg.seed)
    x_scale = np.array([prob.q_full, prob.q_full, 0.1, 0.1])
    sol = _solve(starts, lo, hi, x_scale, prob, u_pos, u_neg, cfg)

    # Every candidate's channels in one batched call, for the tie-break
    # and for the winner's residual series.
    e_v, e_d, _ = _channels(sol.x, prob, u_pos, u_neg)
    rmse_v = np.sqrt(np.mean(e_v**2, axis=-1))
    rmse_d = np.sqrt(np.mean(e_d**2, axis=-1))
    best = min(
        range(len(starts)),
        key=lambda i: (float(sol.objective[i]), float(rmse_v[i]), tuple(sol.x[i].tolist())),
    )
    theta = _theta_from_vec(sol.x[best], prob.q_full)
    converged = sol.status[best] >= 1 and theta.is_strictly_feasible
    return FitResult(
        theta=theta,
        rmse_voltage=float(rmse_v[best]),
        rmse_dvdq=float(rmse_d[best]),
        objective=float(sol.objective[best]),
        converged=bool(converged),
        iterations=int(sol.nfev.sum()),
        start_records=tuple(
            StartRecord(theta0=tuple(float(v) for v in x0), objective=float(obj))
            for x0, obj in zip(starts, sol.objective)
        ),
        residual_series=ResidualSeries(
            q=prob.q_grid, voltage=e_v[best].copy(), dvdq=e_d[best].copy()
        ),
    )
