"""Synthetic ground-truth data generation and brute-force fit oracles.

Provides an analytic half-cell curve family (smooth strictly monotone
potentials with optional localized staging steps on the negative
electrode), a forward-model dataset generator with Gaussian voltage
noise, a degradation injector that re-anchors the discharged state, and
an exhaustive grid oracle for cross-checking the optimizer.  Everything
is deterministic under the caller's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import (
    CapacityVoltageSeries,
    ReferencePotentialCurve,
    interpolate_potential,
    potential_slope,
)
from .errors import ConfigError, GenerationError, InfeasibilityError
from .fitting import FitConfig, ParameterBounds, _channels, _prepare
from .model import ElectrodeParams, evaluate, param_vector, predict_voltage

# Capacity tolerance of the window root solves, Ah.
Q_SOLVE_TOL_AH = 1e-9
# Stoichiometry tolerance of the degradation re-anchoring solve.
ANCHOR_SOLVE_TOL = 1e-10
# Largest acceptable gap between a spec's v_min and the voltage the
# model actually produces in the discharged state.
V_MIN_CONSISTENCY_TOL = 1e-6
# Relative tolerance and iteration cap of the root solves: scipy.optimize's
# defaults, which the ports below keep so their roots are bitwise scipy's.
ROOT_RTOL = 4 * np.finfo(float).eps
ROOT_MAXITER = 100


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic full-cell measurement.

    ``theta_true.q_full`` is treated as provisional: generation solves
    the capacity reaching ``v_max`` and returns the reconciled
    parameters.  ``v_min`` must agree with the voltage implied by
    (x0, y0); use :func:`implied_v_min` when building specs.
    ``curve_family`` is provenance metadata ("analytic" or "files");
    the curves themselves are passed to :func:`generate` explicitly.
    """

    theta_true: ElectrodeParams
    noise_sigma_v: float
    sample_count: int
    seed: int
    v_min: float
    v_max: float
    curve_family: str = "analytic"

    def __post_init__(self):
        if self.noise_sigma_v < 0:
            raise ConfigError(f"noise_sigma_v must be >= 0, got {self.noise_sigma_v}")
        if self.sample_count < 64:
            raise ConfigError(f"sample_count must be >= 64, got {self.sample_count}")
        if not self.v_min < self.v_max:
            raise ConfigError(f"need v_min < v_max, got ({self.v_min}, {self.v_max})")


@dataclass(frozen=True)
class DegradationSpec:
    """Fractional losses to inject into a pristine parameter set."""

    lam_pe: float
    lam_ne: float
    lli: float

    def __post_init__(self):
        for name, val in (("lam_pe", self.lam_pe), ("lam_ne", self.lam_ne), ("lli", self.lli)):
            if not 0.0 <= val <= 0.9:
                raise ConfigError(f"{name} must be in [0, 0.9], got {val}")


def _negative_potential(x, staging_amplitude=0.03, staging_width=0.02):
    """Graphite-like half-cell potential, strictly decreasing on [0, 1].

    Exponential knee at low stoichiometry plus two localized tanh steps
    standing in for staging transitions; between the steps the curve is
    plateau-like, giving the dV/dQ signal its peaks.
    """
    x = np.asarray(x, dtype=float)
    steps = np.tanh((x - 0.18) / staging_width) + np.tanh((x - 0.55) / staging_width)
    return 0.10 + 0.85 * np.exp(-15.0 * x) - 0.02 * x - staging_amplitude * steps


def _positive_potential(y):
    """Layered-oxide-like potential, strictly decreasing on [0, 1], mostly
    featureless apart from one broad shoulder."""
    y = np.asarray(y, dtype=float)
    return 4.35 - 0.65 * y - 0.20 * y**2 - 0.10 * np.tanh((y - 0.5) / 0.15)


def analytic_reference_curves(
    n_points: int = 1001,
    staging_amplitude: float = 0.03,
    staging_width: float = 0.02,
) -> tuple[ReferencePotentialCurve, ReferencePotentialCurve]:
    """Build the (positive, negative) analytic reference curves.

    ``staging_amplitude=0`` removes the negative-electrode steps, giving
    a featureless pair for identifiability experiments.  The node grid
    must resolve the steps, so keep ``n_points`` well above
    1/staging_width.
    """
    s = np.linspace(0.0, 1.0, n_points)
    p_pos = _positive_potential(s)
    p_neg = _negative_potential(s, staging_amplitude, staging_width)
    u_pos = ReferencePotentialCurve(
        electrode_role="positive",
        direction="delithiation",
        c_rate=0.01,
        stoich_grid=s,
        potential=p_pos,
        source_voltage_window=(float(p_pos.min()), float(p_pos.max())),
        capacity_basis_mah=3000.0,
    )
    u_neg = ReferencePotentialCurve(
        electrode_role="negative",
        direction="lithiation",
        c_rate=0.01,
        stoich_grid=s,
        potential=p_neg,
        source_voltage_window=(float(p_neg.min()), float(p_neg.max())),
        capacity_basis_mah=3000.0,
    )
    return u_pos, u_neg


def implied_v_min(
    theta: ElectrodeParams,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
) -> float:
    """Full-cell voltage in the discharged state (q = 0) for ``theta``."""
    return float(evaluate(param_vector(theta), 0.0, u_pos, u_neg).voltage)


def _max_feasible_capacity(theta: ElectrodeParams) -> float:
    """Capacity at which the first electrode runs out of stoichiometry."""
    return min(
        theta.qn_tilde * (1.0 - theta.x0_tilde),
        theta.qp_tilde * theta.y0_tilde,
    )


def _bisect(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` on [a, b] by bisection; ``f(a)`` and ``f(b)`` must
    not share a sign.  The loop of scipy.optimize.bisect, step for step."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    # Signs are compared, not multiplied: a product of tiny values
    # underflows to zero.
    if (fa < 0) == (fb < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    dm = b - a
    for _ in range(ROOT_MAXITER):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if (fm < 0) == (fa < 0):
            a = xm
        if fm == 0 or abs(dm) < xtol + ROOT_RTOL * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge in {ROOT_MAXITER} iterations")


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` on [a, b] by Brent's method (inverse quadratic
    interpolation, secant and bisection steps); ``f(a)`` and ``f(b)`` must
    not share a sign.  The loop of scipy.optimize.brentq, step for step."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # In C the step comes out inf or nan, and the test below
                # then takes the bisection step.
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {ROOT_MAXITER} iterations")


def _solve_q_at_voltage(
    theta: ElectrodeParams,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    v_target: float,
) -> float:
    """Capacity where the (strictly increasing) model voltage hits v_target."""

    vec = param_vector(theta)

    def voltage_error(q):
        # q stays in [0, q_hi] by construction; clipping only absorbs the
        # last-bit rounding of the boundary itself.
        return float(evaluate(vec, q, u_pos, u_neg).voltage) - v_target

    q_hi = _max_feasible_capacity(theta)
    if voltage_error(0.0) > 0.0:
        raise GenerationError(
            f"target voltage {v_target} V is below the discharged-state voltage"
        )
    if voltage_error(q_hi) < 0.0:
        raise GenerationError(
            f"target voltage {v_target} V exceeds the model maximum "
            f"{voltage_error(q_hi) + v_target:.4f} V at the feasibility boundary"
        )
    return float(_bisect(voltage_error, 0.0, q_hi, Q_SOLVE_TOL_AH))


def generate(
    spec: SynthSpec,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
) -> tuple[CapacityVoltageSeries, ElectrodeParams]:
    """Forward-model a synthetic measured curve for ``spec``.

    Solves Q_full from V(Q_full) = v_max, samples the model voltage on a
    uniform capacity grid, and adds i.i.d. Gaussian voltage noise under
    the spec seed.  Returns the series together with the reconciled
    ground-truth parameters (q_full overwritten by the solved value).
    """
    theta = spec.theta_true
    v0 = implied_v_min(theta, u_pos, u_neg)
    if abs(v0 - spec.v_min) > V_MIN_CONSISTENCY_TOL:
        raise GenerationError(
            f"spec v_min {spec.v_min} V does not match the discharged-state voltage "
            f"{v0:.6f} V implied by (x0, y0); adjust the spec (see implied_v_min)"
        )
    q_full = _solve_q_at_voltage(theta, u_pos, u_neg, spec.v_max)
    theta_out = replace(theta, q_full=q_full)
    theta_out.require_feasible()

    q = np.linspace(0.0, q_full, spec.sample_count)
    v = predict_voltage(theta_out, q, u_pos, u_neg)
    rng = np.random.default_rng(spec.seed)
    if spec.noise_sigma_v > 0:
        v = v + rng.normal(0.0, spec.noise_sigma_v, size=v.shape)
    series = CapacityVoltageSeries(
        q=q, v=v, direction="charge", c_rate=0.01, temperature_label="synthetic"
    )
    return series, theta_out


def degrade(
    theta: ElectrodeParams,
    d: DegradationSpec,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    v_min: float,
    v_max: float,
) -> ElectrodeParams:
    """Apply fractional losses and re-anchor the discharged state.

    Capacities shrink by the loss fractions; the new (x0, y0) are pinned
    by two conditions: the aged lithium inventory x0*qn + y0*qp equals
    (1 - lli) times the pristine inventory, and the discharged-state
    voltage equals v_min.  The aged q_full is re-solved against v_max.
    The loss fractions alone fix only the total inventory; anchoring at
    v_min is this harness's convention for where that inventory sits.
    """
    qn_aged = (1.0 - d.lam_ne) * theta.qn_tilde
    qp_aged = (1.0 - d.lam_pe) * theta.qp_tilde
    li_aged = (1.0 - d.lli) * (
        theta.x0_tilde * theta.qn_tilde + theta.y0_tilde * theta.qp_tilde
    )

    def y0_of(x0):
        return (li_aged - x0 * qn_aged) / qp_aged

    def anchor_error(x0):
        # Strictly increasing in x0: raising x0 lowers y0, and both
        # potentials move the discharged voltage upward.
        vec = (qn_aged, qp_aged, x0, y0_of(x0))
        return float(evaluate(vec, 0.0, u_pos, u_neg).voltage) - v_min

    eps = 1e-12
    x_lo = max(0.0, (li_aged - qp_aged) / qn_aged)
    x_hi = min(1.0 - eps, li_aged / qn_aged - eps)
    if not x_lo < x_hi:
        raise InfeasibilityError(
            "degraded inventory leaves no admissible discharged stoichiometry"
        )
    if anchor_error(x_lo) > 0.0 or anchor_error(x_hi) < 0.0:
        raise InfeasibilityError(
            f"no discharged state on the aged curves reaches v_min = {v_min} V"
        )
    x0_aged = float(_brentq(anchor_error, x_lo, x_hi, ANCHOR_SOLVE_TOL))
    y0_aged = float(y0_of(x0_aged))

    provisional = ElectrodeParams(
        qn_tilde=qn_aged,
        qp_tilde=qp_aged,
        x0_tilde=x0_aged,
        y0_tilde=y0_aged,
        q_full=min(qn_aged, qp_aged),  # placeholder until the window solve
    )
    q_full_aged = _solve_q_at_voltage(provisional, u_pos, u_neg, v_max)
    return replace(provisional, q_full=q_full_aged).require_feasible()


def random_feasible_theta(
    rng: np.random.Generator,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    v_max: float,
    qn_range: tuple[float, float] = (2.2, 3.6),
    qp_range: tuple[float, float] = (2.2, 3.6),
    x0_range: tuple[float, float] = (0.01, 0.10),
    y0_range: tuple[float, float] = (0.88, 0.99),
    feasibility_margin: float = 0.005,
    max_draws: int = 200,
) -> ElectrodeParams:
    """Draw electrode parameters whose window solve stays strictly feasible.

    Rejection-samples until the capacity reaching ``v_max`` leaves at
    least ``feasibility_margin`` of stoichiometry headroom on both
    electrodes; q_full in the result is the solved value.
    """
    for _ in range(max_draws):
        qn = rng.uniform(*qn_range)
        qp = rng.uniform(*qp_range)
        x0 = rng.uniform(*x0_range)
        y0 = rng.uniform(*y0_range)
        candidate = ElectrodeParams(
            qn_tilde=qn, qp_tilde=qp, x0_tilde=x0, y0_tilde=y0, q_full=min(qn, qp)
        )
        try:
            q_full = _solve_q_at_voltage(candidate, u_pos, u_neg, v_max)
        except GenerationError:
            continue
        theta = replace(candidate, q_full=q_full)
        if (
            theta.x100_tilde <= 1.0 - feasibility_margin
            and theta.y100_tilde >= feasibility_margin
        ):
            return theta
    raise GenerationError(
        f"no strictly feasible parameters found in {max_draws} draws for v_max={v_max}"
    )


def grid_oracle(
    measured: CapacityVoltageSeries,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
    bounds: ParameterBounds,
    n_per_axis: int,
    lam: float = 0.5,
) -> tuple[ElectrodeParams, float]:
    """Exhaustive objective minimum over an n^4 bounded parameter grid.

    Evaluates the same objective the optimizer minimizes (identical
    resampling and smoothing defaults) at every feasible grid point and
    returns the best.  The per-electrode structure of the model keeps
    this tractable: voltage profiles are precomputed per (qn, x0) and
    (qp, y0) pair, then combined via quadratic expansion.
    """
    if n_per_axis < 5:
        raise ConfigError(f"n_per_axis must be >= 5, got {n_per_axis}")
    cfg = FitConfig(lam=lam)
    prob = _prepare(measured, cfg)
    q = prob.q_grid

    qn_axis = np.linspace(*bounds.qn, n_per_axis)
    qp_axis = np.linspace(*bounds.qp, n_per_axis)
    x0_axis = np.linspace(*bounds.x0, n_per_axis)
    y0_axis = np.linspace(*bounds.y0, n_per_axis)

    # Negative-side profiles over all (qn, x0) pairs; feasible means the
    # whole window stays inside [0, 1] (profiles are monotone, so the
    # endpoints decide).
    qn_g, x0_g = np.meshgrid(qn_axis, x0_axis, indexing="ij")
    qn_f, x0_f = qn_g.ravel(), x0_g.ravel()
    x_prof = x0_f[:, None] + q[None, :] / qn_f[:, None]
    ok_x = (x_prof[:, 0] >= 0.0) & (x0_f + prob.q_full / qn_f <= 1.0)

    qp_g, y0_g = np.meshgrid(qp_axis, y0_axis, indexing="ij")
    qp_f, y0_f = qp_g.ravel(), y0_g.ravel()
    y_prof = y0_f[:, None] - q[None, :] / qp_f[:, None]
    ok_y = (y_prof[:, 0] <= 1.0) & (y0_f - prob.q_full / qp_f >= 0.0)

    if not (np.any(ok_x) and np.any(ok_y)):
        raise InfeasibilityError("no feasible grid point inside the given bounds")

    qn_f, x0_f, x_prof = qn_f[ok_x], x0_f[ok_x], x_prof[ok_x]
    qp_f, y0_f, y_prof = qp_f[ok_y], y0_f[ok_y], y_prof[ok_y]

    u_neg_prof = interpolate_potential(u_neg, x_prof)
    u_pos_prof = interpolate_potential(u_pos, y_prof)
    du_neg = potential_slope(u_neg, x_prof) / qn_f[:, None]
    du_pos = -potential_slope(u_pos, y_prof) / qp_f[:, None]

    # Voltage error E = a_j - c_i with a_j the positive profile and
    # c_i the negative profile plus the measurement; sum(E^2) expands to
    # A_j - 2*(c_i . a_j) + C_i, a pair of matrix products.
    c_v = u_neg_prof + prob.v_meas[None, :]
    a_v = u_pos_prof
    c_d = du_neg + prob.dvdq_meas[None, :]
    a_d = du_pos
    sq_v = (
        np.sum(a_v**2, axis=1)[None, :]
        - 2.0 * (c_v @ a_v.T)
        + np.sum(c_v**2, axis=1)[:, None]
    )
    sq_d = (
        np.sum(a_d**2, axis=1)[None, :]
        - 2.0 * (c_d @ a_d.T)
        + np.sum(c_d**2, axis=1)[:, None]
    )
    total = lam * sq_v + (1.0 - lam) * sq_d

    i_best, j_best = np.unravel_index(int(np.argmin(total)), total.shape)
    vec = (
        float(qn_f[i_best]),
        float(qp_f[j_best]),
        float(x0_f[i_best]),
        float(y0_f[j_best]),
    )
    # Recompute the winner through the optimizer's own residual path so
    # the returned objective is exactly comparable to FitResult.objective
    # (the expansion above is accurate but not bit-identical).
    e_v, e_d, _ = _channels(vec, prob, u_pos, u_neg)
    objective = float(lam * np.sum(e_v**2) + (1.0 - lam) * np.sum(e_d**2))
    theta_best = ElectrodeParams(
        qn_tilde=vec[0], qp_tilde=vec[1], x0_tilde=vec[2], y0_tilde=vec[3], q_full=prob.q_full
    )
    return theta_best, objective
