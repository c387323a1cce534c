"""Forward model: stoichiometry/capacity transforms and predicted voltage.

All quantities live on the observable-window ("tilde") basis: electrode
capacities and discharged-state stoichiometries are estimates relative to
the stoichiometry range actually covered by the reference curves, not the
true crystallographic values.  Everything here is pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ReferencePotentialCurve
from .errors import InfeasibilityError


@dataclass(frozen=True)
class ElectrodeParams:
    """The four fitted quantities plus the measured full-cell capacity.

    ``q_full`` comes from the measured data (last capacity sample) and
    is never fitted.  Feasibility (charged-state stoichiometries inside
    [0, 1]) is a queryable property rather than a construction invariant
    because optimizers legitimately propose infeasible candidates.
    """

    qn_tilde: float  # negative electrode capacity, Ah (observable-window basis)
    qp_tilde: float  # positive electrode capacity, Ah
    x0_tilde: float  # negative stoichiometry, fully discharged
    y0_tilde: float  # positive stoichiometry, fully discharged
    q_full: float  # measured full-cell capacity, Ah

    def __post_init__(self):
        if not (self.qn_tilde > 0 and self.qp_tilde > 0 and self.q_full > 0):
            raise InfeasibilityError(
                f"capacities must be positive: qn={self.qn_tilde}, "
                f"qp={self.qp_tilde}, q_full={self.q_full}"
            )
        if not 0.0 <= self.x0_tilde < 1.0:
            raise InfeasibilityError(f"x0_tilde must be in [0, 1), got {self.x0_tilde}")
        if not 0.0 < self.y0_tilde <= 1.0:
            raise InfeasibilityError(f"y0_tilde must be in (0, 1], got {self.y0_tilde}")

    @property
    def x100_tilde(self) -> float:
        """Negative stoichiometry in the fully charged state."""
        return self.x0_tilde + self.q_full / self.qn_tilde

    @property
    def y100_tilde(self) -> float:
        """Positive stoichiometry in the fully charged state."""
        return self.y0_tilde - self.q_full / self.qp_tilde

    @property
    def is_feasible(self) -> bool:
        return self.x100_tilde <= 1.0 and self.y100_tilde >= 0.0

    @property
    def is_strictly_feasible(self) -> bool:
        return self.x100_tilde < 1.0 and self.y100_tilde > 0.0

    def require_feasible(self) -> "ElectrodeParams":
        if not self.is_feasible:
            raise InfeasibilityError(
                f"infeasible parameters: x100={self.x100_tilde:.6g}, "
                f"y100={self.y100_tilde:.6g} must lie in [0, 1]"
            )
        return self

    def scaled(self, k: float) -> "ElectrodeParams":
        """Common capacity scaling (unit changes, areal normalization)."""
        return ElectrodeParams(
            qn_tilde=self.qn_tilde * k,
            qp_tilde=self.qp_tilde * k,
            x0_tilde=self.x0_tilde,
            y0_tilde=self.y0_tilde,
            q_full=self.q_full * k,
        )


@dataclass(frozen=True)
class StoichPair:
    """Electrode stoichiometries at one shared-capacity point.

    ``q`` may be negative: capacity present in an electrode but below the
    full-cell minimum-voltage cutoff ("virtual capacity").
    """

    x_tilde: float
    y_tilde: float
    q: float


def _as_numeric(value):
    return value if np.isscalar(value) else np.asarray(value, dtype=float)


def x_of_q(p: ElectrodeParams, q):
    """Negative-electrode stoichiometry at capacity ``q`` (may be virtual)."""
    return p.x0_tilde + _as_numeric(q) / p.qn_tilde


def y_of_q(p: ElectrodeParams, q):
    """Positive-electrode stoichiometry at capacity ``q``."""
    return p.y0_tilde - _as_numeric(q) / p.qp_tilde


def q_of_x(p: ElectrodeParams, x_tilde):
    """Shared-basis capacity at negative stoichiometry; inverse of x_of_q."""
    return p.qn_tilde * (_as_numeric(x_tilde) - p.x0_tilde)


def q_of_y(p: ElectrodeParams, y_tilde):
    """Shared-basis capacity at positive stoichiometry; inverse of y_of_q."""
    return p.qp_tilde * (p.y0_tilde - _as_numeric(y_tilde))


def charged_stoichiometries(p: ElectrodeParams) -> StoichPair:
    """Stoichiometries in the fully charged state (q = q_full)."""
    p.require_feasible()
    return StoichPair(x_tilde=p.x100_tilde, y_tilde=p.y100_tilde, q=p.q_full)


def stoich_profiles(p: ElectrodeParams, q_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_tilde, y_tilde) over a capacity grid, without range checks."""
    q = np.asarray(q_grid, dtype=float)
    return p.x0_tilde + q / p.qn_tilde, p.y0_tilde - q / p.qp_tilde


def param_vector(p: ElectrodeParams) -> tuple[float, float, float, float]:
    """(qn, qp, x0, y0): the optimizer's parameter layout, which the kernel takes."""
    return (p.qn_tilde, p.qp_tilde, p.x0_tilde, p.y0_tilde)


# The kernel: the one place that maps q onto the two electrodes and
# evaluates the electrode-balance identity.  It takes the raw vector because
# optimizer candidates need not be valid ElectrodeParams.


def clipped_profiles(vec, q_grid):
    """(x, y) over ``q_grid`` clipped to [0, 1], and the per-point excursion
    the clip removed: the fit penalizes it, the predictions raise on it."""
    qn, qp, x0, y0 = vec
    q = np.asarray(q_grid, dtype=float)
    x, y = x0 + q / qn, y0 - q / qp
    excursion = np.maximum(x - 1.0, 0.0) + np.maximum(-x, 0.0)
    excursion = excursion + np.maximum(y - 1.0, 0.0) + np.maximum(-y, 0.0)
    return np.clip(x, 0.0, 1.0), np.clip(y, 0.0, 1.0), excursion


def cell_voltage(x, y, u_pos: ReferencePotentialCurve, u_neg: ReferencePotentialCurve):
    """U_pos(y) - U_neg(x); x and y are already in [0, 1], so no range check."""
    return u_pos._interpolator(y) - u_neg._interpolator(x)


def clipped_voltage(vec, q_grid, u_pos: ReferencePotentialCurve, u_neg: ReferencePotentialCurve):
    """Cell voltage over ``q_grid`` with the stoichiometries clipped to [0, 1]."""
    x, y, _ = clipped_profiles(vec, q_grid)
    return cell_voltage(x, y, u_pos, u_neg)


def electrode_dvdq(vec, x, y, u_pos: ReferencePotentialCurve, u_neg: ReferencePotentialCurve):
    """Chain-rule dV/dq terms (-U_pos'(y)/qp, -U_neg'(x)/qn); dV/dq is their sum."""
    return -u_pos._slope(y) / vec[1], -u_neg._slope(x) / vec[0]


def _profiles_in_window(p, q_grid):
    x, y, excursion = clipped_profiles(param_vector(p), q_grid)
    bad = excursion > 0.0
    if np.any(bad):
        q = np.asarray(q_grid, dtype=float).ravel()
        i = int(np.argmax(bad))
        x_i, y_i = stoich_profiles(p, q[i])
        raise InfeasibilityError(
            f"stoichiometry out of [0, 1] at q={q[i]:.6g} Ah "
            f"(x={x_i:.6g}, y={y_i:.6g})",
            offending_q=float(q[i]),
        )
    return x, y


def predict_voltage(
    p: ElectrodeParams,
    q_grid,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
) -> np.ndarray:
    """Predicted full-cell voltage U_pos(y(q)) - U_neg(x(q)) over ``q_grid``."""
    x, y = _profiles_in_window(p, q_grid)
    return cell_voltage(x, y, u_pos, u_neg)


def predict_dvdq(
    p: ElectrodeParams,
    q_grid,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
) -> np.ndarray:
    """Analytic dV/dq from the interpolant slopes (chain rule).

    Computed from the interpolant derivatives rather than by differencing
    the predicted voltage, so the differential channel of the fit
    objective carries no grid-resolution noise.
    """
    x, y = _profiles_in_window(p, q_grid)
    dvdq_pos, dvdq_neg = electrode_dvdq(param_vector(p), x, y, u_pos, u_neg)
    return dvdq_pos + dvdq_neg
