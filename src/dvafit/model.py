"""Forward model: stoichiometry/capacity transforms and predicted voltage.

All quantities live on the observable-window ("tilde") basis: electrode
capacities and discharged-state stoichiometries are estimates relative to
the stoichiometry range actually covered by the reference curves, not the
true crystallographic values.  Everything here is pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# optimizer candidates need not be valid ElectrodeParams: one vector of
# shape (4,), or a batch of shape (S, 4) whose rows are evaluated at once.
# The batch-of-one case runs the same code, so its rows match exactly.


def _unclipped_profiles(vec, q_grid):
    q = np.asarray(q_grid, dtype=float)
    vec = np.asarray(vec, dtype=float)
    # Each parameter gets one trailing axis per q axis, so a batch of
    # vectors broadcasts against the grid to (S,) + q.shape.
    qn, qp, x0, y0 = np.moveaxis(vec, -1, 0).reshape((4,) + vec.shape[:-1] + (1,) * q.ndim)
    return q, qn, qp, x0 + q / qn, y0 - q / qp


def _clip(x, y):
    return np.minimum(np.maximum(x, 0.0), 1.0), np.minimum(np.maximum(y, 0.0), 1.0)


class CurveDerivatives(NamedTuple):
    """Slopes and curvatures of the two curves at the clipped
    stoichiometries: what :func:`jacobian` needs besides the parameters."""

    slope_pos: np.ndarray  # U_pos'(y)
    slope_neg: np.ndarray  # U_neg'(x)
    curv_pos: np.ndarray  # U_pos''(y)
    curv_neg: np.ndarray  # U_neg''(x)


class ModelTerms(NamedTuple):
    """The clipped kernel over a grid; arrays have shape (S,) + q.shape
    for a batch of S vectors and q.shape for one vector."""

    voltage: np.ndarray  # U_pos(y) - U_neg(x)
    dvdq_pos: np.ndarray  # -U_pos'(y) / qp; dV/dq is dvdq_pos + dvdq_neg
    dvdq_neg: np.ndarray  # -U_neg'(x) / qn
    excursion: np.ndarray  # stoichiometry the clip to [0, 1] removed
    derivatives: CurveDerivatives


def evaluate(
    vec, q_grid, u_pos: ReferencePotentialCurve, u_neg: ReferencePotentialCurve
) -> ModelTerms:
    """The forward model at stoichiometries clipped to [0, 1].

    One interval search per point and curve gives U, U' and U'' there.
    The values and slopes make the model; the slopes and curvatures are
    kept in ``derivatives``, which is all :func:`jacobian` needs at the
    same vector, so a solver that asks for the Jacobian at a point it has
    just evaluated does not search again.
    """
    _, qn, qp, x, y = _unclipped_profiles(vec, q_grid)
    xc, yc = _clip(x, y)
    u_neg_x, slope_neg, curv_neg = u_neg._evaluate(xc, (0, 1, 2))
    u_pos_y, slope_pos, curv_pos = u_pos._evaluate(yc, (0, 1, 2))
    return ModelTerms(
        u_pos_y - u_neg_x,
        -slope_pos / qp,
        -slope_neg / qn,
        np.abs(x - xc) + np.abs(y - yc),
        CurveDerivatives(slope_pos, slope_neg, curv_pos, curv_neg),
    )


def jacobian(vec, q_grid, derivatives: CurveDerivatives) -> np.ndarray:
    """Partial derivatives of :func:`evaluate` with respect to (qn, qp, x0, y0).

    ``derivatives`` is the ``derivatives`` field of
    ``evaluate(vec, q_grid, ...)``: the trial evaluation's slopes and
    curvatures, so the Jacobian evaluates no curve and searches no
    interval.  Shape (S, 4, 3, N) for a batch of S vectors over N grid
    points, (4, 3, N) for one vector: per parameter, the derivatives of
    voltage, of dV/dq (dvdq_pos + dvdq_neg) and of excursion.  With
    x = x0 + q/qn and y = y0 - q/qp, a clipped stoichiometry does not move
    with the parameters, so the interpolant terms lose their stoichiometry
    derivative there while the dV/dq terms keep the derivative of 1/qn and
    1/qp; the excursion moves as +x or -x (+y or -y) on the side that was
    clipped.
    """
    q, qn, qp, x, y = _unclipped_profiles(vec, q_grid)
    xc, yc = _clip(x, y)
    s_pos, s_neg, curv_pos, curv_neg = derivatives
    # dx/dx0 = dy/dy0 = 1; in_x and in_y are 0 where the clip holds.
    dx_dqn, dy_dqp = -q / qn**2, q / qp**2
    in_x = (x == xc).astype(float)
    in_y = (y == yc).astype(float)
    jac = np.empty(x.shape[:-1] + (4, 3) + x.shape[-1:])
    d_qn, d_qp, d_x0, d_y0 = (jac[..., k, :, :] for k in range(4))

    d_x0[..., 0, :] = -s_neg * in_x
    d_y0[..., 0, :] = s_pos * in_y
    d_qn[..., 0, :] = d_x0[..., 0, :] * dx_dqn
    d_qp[..., 0, :] = d_y0[..., 0, :] * dy_dqp

    d_x0[..., 1, :] = -(curv_neg * in_x) / qn
    d_y0[..., 1, :] = -(curv_pos * in_y) / qp
    d_qn[..., 1, :] = d_x0[..., 1, :] * dx_dqn + s_neg / qn**2
    d_qp[..., 1, :] = d_y0[..., 1, :] * dy_dqp + s_pos / qp**2

    # Sign of the excursion's growth: +1 past 1, -1 below 0, 0 inside.
    sign_x, sign_y = np.sign(x - xc), np.sign(y - yc)
    d_qn[..., 2, :] = sign_x * dx_dqn
    d_qp[..., 2, :] = sign_y * dy_dqp
    d_x0[..., 2, :] = sign_x
    d_y0[..., 2, :] = sign_y
    return jac


def _in_window(p, q_grid, u_pos, u_neg) -> ModelTerms:
    x, y = stoich_profiles(p, q_grid)
    bad = ~((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0))  # NaN is outside too
    if np.any(bad):
        q = np.asarray(q_grid, dtype=float).ravel()
        i = int(np.argmax(bad.ravel()))
        x_i, y_i = stoich_profiles(p, q[i])
        raise InfeasibilityError(
            f"stoichiometry out of [0, 1] at q={q[i]:.6g} Ah "
            f"(x={x_i:.6g}, y={y_i:.6g})",
            offending_q=float(q[i]),
        )
    return evaluate(param_vector(p), q_grid, u_pos, u_neg)


def predict_voltage(
    p: ElectrodeParams,
    q_grid,
    u_pos: ReferencePotentialCurve,
    u_neg: ReferencePotentialCurve,
) -> np.ndarray:
    """Predicted full-cell voltage U_pos(y(q)) - U_neg(x(q)) over ``q_grid``."""
    return _in_window(p, q_grid, u_pos, u_neg).voltage


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
    terms = _in_window(p, q_grid, u_pos, u_neg)
    return terms.dvdq_pos + terms.dvdq_neg
