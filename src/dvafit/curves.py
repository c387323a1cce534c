"""Potential and voltage curve handling.

Reference (half-cell) potential curves are stored against normalized
stoichiometry on [0, 1]; full-cell data is stored against capacity.  All
interpolation is monotone-preserving piecewise cubic (Fritsch-Carlson
slope limiting, via scipy's PCHIP), so interpolated potentials never
overshoot the node range and differential-voltage signals derived from
them carry no spurious peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.signal import savgol_filter

from .errors import ConfigError, InfeasibilityError, InputDataError

# Potentials may poke past the declared acquisition window by at most this
# much (cycler set-point overshoot); anything larger is rejected.
WINDOW_SLACK_V = 1e-3

# Fraction of retrograde (capacity-decreasing) rows tolerated before an
# input log is considered unrepairable.
MAX_RETROGRADE_FRACTION = 0.05


def _readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SmoothingConfig:
    """Savitzky-Golay filter settings.

    ``window_length`` must be odd and at least ``poly_order + 2``.  With
    ``enabled=False`` the smoothing ops pass data through and derivatives
    fall back to central differences.
    """

    window_length: int = 25
    poly_order: int = 3
    enabled: bool = True

    def __post_init__(self):
        if self.window_length % 2 == 0:
            raise ConfigError(f"window_length must be odd, got {self.window_length}")
        if self.window_length < self.poly_order + 2:
            raise ConfigError(
                f"window_length {self.window_length} must be >= poly_order + 2 "
                f"({self.poly_order + 2})"
            )
        if self.poly_order < 0:
            raise ConfigError(f"poly_order must be >= 0, got {self.poly_order}")


@dataclass(frozen=True)
class ReferencePotentialCurve:
    """Half-cell near-equilibrium potential vs normalized stoichiometry.

    The stoichiometry axis is the observable window of the source
    measurement mapped onto [0, 1]; ``capacity_basis_mah`` is the measured
    half-cell capacity that was normalized away.  Potential is vs Li/Li+
    and non-increasing in stoichiometry for both electrode roles.
    Instances are immutable and safe to share across threads.
    """

    electrode_role: str  # "positive" | "negative"
    direction: str  # "lithiation" | "delithiation"
    c_rate: float
    stoich_grid: np.ndarray
    potential: np.ndarray
    source_voltage_window: tuple[float, float]
    capacity_basis_mah: float

    def __post_init__(self):
        object.__setattr__(self, "stoich_grid", _readonly(self.stoich_grid))
        object.__setattr__(self, "potential", _readonly(self.potential))
        object.__setattr__(
            self,
            "source_voltage_window",
            (float(self.source_voltage_window[0]), float(self.source_voltage_window[1])),
        )
        s, p = self.stoich_grid, self.potential
        if self.electrode_role not in ("positive", "negative"):
            raise InputDataError(f"unknown electrode_role {self.electrode_role!r}")
        if self.direction not in ("lithiation", "delithiation"):
            raise InputDataError(f"unknown direction {self.direction!r}")
        if s.ndim != 1 or p.shape != s.shape:
            raise InputDataError("stoich_grid and potential must be equal-length 1-D")
        if len(s) < 4:
            raise InputDataError(f"need >= 4 nodes, got {len(s)}")
        if not np.all(np.diff(s) > 0):
            raise InputDataError("stoich_grid must be strictly increasing")
        if s[0] != 0.0 or s[-1] != 1.0:
            raise InputDataError(
                f"stoich_grid must span [0, 1] exactly, got [{s[0]}, {s[-1]}]"
            )
        if not np.all(np.isfinite(p)):
            raise InputDataError("potential contains non-finite values")
        if np.any(np.diff(p) > 0):
            i = int(np.argmax(np.diff(p) > 0))
            raise InputDataError(
                f"potential must be non-increasing in stoichiometry; "
                f"rises at node {i} (s={s[i]:.6g})"
            )
        v_lo, v_hi = self.source_voltage_window
        if not v_lo < v_hi:
            raise InputDataError(f"voltage window must satisfy v_lo < v_hi, got ({v_lo}, {v_hi})")
        if p.min() < v_lo - WINDOW_SLACK_V or p.max() > v_hi + WINDOW_SLACK_V:
            raise InputDataError(
                f"potential range [{p.min():.6g}, {p.max():.6g}] V exceeds declared "
                f"window ({v_lo}, {v_hi}) V by more than {WINDOW_SLACK_V * 1e3:.0f} mV"
            )
        if self.capacity_basis_mah <= 0:
            raise InputDataError("capacity_basis_mah must be positive")

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Interior breakpoints, and per interval the rows U, U' and U''
        are evaluated from: the left breakpoint, (c3, c2, c1, c0) of the
        PCHIP cubic c3 + c2 t + c1 t^2 + c0 t^3 in t = s - left, then 2 c1,
        3 c0 and 6 c0, the coefficients scipy's ``derivative()`` and
        ``derivative(2)`` build."""
        pchip = PchipInterpolator(self.stoich_grid, self.potential)
        c = pchip.c
        rows = (pchip.x[:-1], c[3], c[2], c[1], c[0], 2.0 * c[1], 3.0 * c[0], 6.0 * c[0])
        return pchip.x[1:-1].copy(), tuple(np.ascontiguousarray(r) for r in rows)

    def _evaluate(self, s, orders: tuple[int, ...]) -> list[np.ndarray]:
        """U (order 0), U' (1) and U'' (2) at stoichiometry ``s``, in the
        order ``orders`` lists them.

        One interval search serves every term.  ``s`` must already lie in
        [0, 1]: there is no range check.  The sums are grouped as scipy's
        PPoly evaluation groups them, so the values equal the
        PchipInterpolator's and its derivatives'.
        """
        interior, (left, c3, c2, c1, c0, d1, d0, e0) = self._pieces
        # Interval i holds [x_i, x_i+1); s = 1 falls in the last one.
        i = np.searchsorted(interior, s, side="right")
        t = s - left[i]
        t2 = t * t
        terms = []
        for order in orders:
            if order == 0:
                terms.append(((c3[i] + c2[i] * t) + c1[i] * t2) + c0[i] * (t2 * t))
            elif order == 1:
                terms.append((c2[i] + d1[i] * t) + d0[i] * t2)
            else:
                terms.append(d1[i] + e0[i] * t)
        return terms


@dataclass(frozen=True)
class CapacityVoltageSeries:
    """Measured full-cell curve: strictly increasing capacity with voltage.

    Structural checks (shape, finiteness, monotone capacity) run at
    construction; the full-cell fitting preconditions (length >= 16,
    capacity anchored at zero) are enforced by :func:`validate_full_cell`
    so that short parsed files remain representable.
    """

    q: np.ndarray
    v: np.ndarray
    direction: str  # "charge" | "discharge"
    c_rate: float
    temperature_label: str = ""
    q_unit: str = "Ah"  # "Ah" | "mAh/cm^2"

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "v", _readonly(self.v))
        if self.direction not in ("charge", "discharge"):
            raise InputDataError(f"unknown direction {self.direction!r}")
        if self.q.ndim != 1 or self.v.shape != self.q.shape:
            raise InputDataError("q and v must be equal-length 1-D")
        if len(self.q) < 2:
            raise InputDataError("series needs at least 2 samples")
        if not np.all(np.isfinite(self.v)) or not np.all(np.isfinite(self.q)):
            raise InputDataError("series contains non-finite values")
        if not np.all(np.diff(self.q) > 0):
            i = int(np.argmax(np.diff(self.q) <= 0))
            raise InputDataError(f"capacity must be strictly increasing (violated at row {i + 1})")

    @property
    def q_full(self) -> float:
        """Measured full capacity: the last (largest) capacity sample."""
        return float(self.q[-1])


def validate_full_cell(series: CapacityVoltageSeries) -> CapacityVoltageSeries:
    """Enforce the full-cell ingestion invariants needed before fitting."""
    if len(series.q) < 16:
        raise InputDataError(f"full-cell series needs >= 16 samples, got {len(series.q)}")
    if abs(series.q[0]) > 1e-9:
        raise InputDataError(
            f"full-cell capacity must start at 0 (fully discharged), got {series.q[0]:.6g}"
        )
    return series


def build_reference_curve(
    raw_capacity_mah,
    raw_potential_v,
    *,
    electrode_role: str,
    direction: str,
    c_rate: float,
    voltage_window: tuple[float, float],
) -> ReferencePotentialCurve:
    """Build a normalized reference curve from raw half-cell capacity data.

    Rows are stable-sorted by capacity, duplicate-capacity rows are
    collapsed by averaging their potentials, and the capacity axis is
    normalized to stoichiometry on [0, 1].  Logging artifacts are only
    repaired up to a point: if more than 5% of rows run retrograde the
    input is rejected with the offending row indices.
    """
    cap = np.asarray(raw_capacity_mah, dtype=float)
    pot = np.asarray(raw_potential_v, dtype=float)
    if cap.ndim != 1 or pot.shape != cap.shape:
        raise InputDataError("capacity and potential must be equal-length 1-D")
    if len(cap) < 4:
        raise InputDataError(f"need >= 4 raw points, got {len(cap)}")
    if not np.all(np.isfinite(cap)) or not np.all(np.isfinite(pot)):
        raise InputDataError("raw data contains non-finite values")

    retro = np.where(np.diff(cap) < 0)[0] + 1
    # A monotonically decreasing log is just reversed acquisition order,
    # not an artifact; flip it rather than counting every row retrograde.
    if len(retro) == len(cap) - 1:
        cap, pot = cap[::-1], pot[::-1]
        retro = np.where(np.diff(cap) < 0)[0] + 1
    if len(retro) > MAX_RETROGRADE_FRACTION * len(cap):
        raise InputDataError(
            f"{len(retro)} of {len(cap)} rows have retrograde capacity "
            f"(limit {MAX_RETROGRADE_FRACTION:.0%}); offending rows: {retro.tolist()}"
        )

    order = np.argsort(cap, kind="stable")
    cap, pot = cap[order], pot[order]

    uniq, inverse, counts = np.unique(cap, return_inverse=True, return_counts=True)
    pot_avg = np.zeros_like(uniq)
    np.add.at(pot_avg, inverse, pot)
    pot_avg /= counts

    if len(uniq) < 4:
        raise InputDataError(f"only {len(uniq)} distinct capacity values after dedup; need >= 4")
    span = uniq[-1] - uniq[0]
    if span <= 0:
        raise InputDataError("capacity span is zero; cannot normalize")
    s = (uniq - uniq[0]) / span
    # Pin the endpoints so the [0, 1] invariant is exact.
    s[0], s[-1] = 0.0, 1.0

    return ReferencePotentialCurve(
        electrode_role=electrode_role,
        direction=direction,
        c_rate=float(c_rate),
        stoich_grid=s,
        potential=pot_avg,
        source_voltage_window=voltage_window,
        capacity_basis_mah=float(span),
    )


def _lookup_in_window(curve: ReferencePotentialCurve, order: int, s):
    s_arr = np.asarray(s, dtype=float)
    bad = (s_arr < 0.0) | (s_arr > 1.0)
    if np.any(bad):
        offender = float(np.atleast_1d(s_arr)[np.atleast_1d(bad)][0])
        raise InfeasibilityError(
            f"stoichiometry {offender:.6g} outside [0, 1] for {curve.electrode_role} curve",
            offending_s=offender,
        )
    (out,) = curve._evaluate(s_arr, (order,))
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def interpolate_potential(curve: ReferencePotentialCurve, s) -> np.ndarray | float:
    """Potential (V vs Li/Li+) at stoichiometry ``s``; exact at nodes.

    ``s`` outside [0, 1] raises InfeasibilityError.
    """
    return _lookup_in_window(curve, 0, s)


def potential_slope(curve: ReferencePotentialCurve, s) -> np.ndarray | float:
    """dU/ds of the monotone interpolant at stoichiometry ``s``; same range rule."""
    return _lookup_in_window(curve, 1, s)


def _check_spacing(q: np.ndarray):
    dq = np.diff(q)
    ratio = dq.max() / dq.min()
    if ratio > 1.5:
        raise InputDataError(
            f"capacity spacing ratio {ratio:.3g} exceeds 1.5; resample to a uniform grid first"
        )


def savgol_smooth_array(v: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """SG smoothing on a uniform grid; endpoints use one-sided window fits."""
    if not cfg.enabled:
        return np.asarray(v, dtype=float)
    if cfg.window_length > len(v):
        raise ConfigError(
            f"smoothing window {cfg.window_length} longer than series ({len(v)} samples)"
        )
    # mode="interp" fits the window polynomial one-sidedly at the edges,
    # preserving series length and alignment.
    return savgol_filter(np.asarray(v, dtype=float), cfg.window_length, cfg.poly_order, mode="interp")


def savgol_derivative_array(v: np.ndarray, delta: float, cfg: SmoothingConfig) -> np.ndarray:
    """SG first derivative on a uniform grid with spacing ``delta``."""
    if cfg.window_length > len(v):
        raise ConfigError(
            f"smoothing window {cfg.window_length} longer than series ({len(v)} samples)"
        )
    return savgol_filter(
        np.asarray(v, dtype=float),
        cfg.window_length,
        cfg.poly_order,
        deriv=1,
        delta=delta,
        mode="interp",
    )


def smooth(series: CapacityVoltageSeries, cfg: SmoothingConfig) -> CapacityVoltageSeries:
    """Savitzky-Golay smoothing of voltage over capacity; capacity unchanged."""
    if not cfg.enabled:
        return series
    _check_spacing(series.q)
    v_s = savgol_smooth_array(series.v, cfg)
    return replace(series, v=v_s)


def differentiate(series: CapacityVoltageSeries, cfg: SmoothingConfig) -> np.ndarray:
    """dV/dq of a measured series, same length as the input.

    Uses the SG derivative when smoothing is enabled, otherwise central
    differences (one-sided at the endpoints).
    """
    _check_spacing(series.q)
    if not cfg.enabled:
        return np.gradient(series.v, series.q)
    delta = (series.q[-1] - series.q[0]) / (len(series.q) - 1)
    return savgol_derivative_array(series.v, delta, cfg)


def resample(series: CapacityVoltageSeries, n: int) -> CapacityVoltageSeries:
    """Resample onto a uniform capacity grid of ``n`` points spanning the series."""
    if n < 16:
        raise ConfigError(f"resample count must be >= 16, got {n}")
    grid = np.linspace(series.q[0], series.q[-1], n)
    v = PchipInterpolator(series.q, series.v)(grid)
    return replace(series, q=grid, v=v)


class RateCheckResult(NamedTuple):
    passed: bool
    ratio: float


def capacity_at_rate_check(
    series_slow: CapacityVoltageSeries,
    series_ref: CapacityVoltageSeries,
    tol: float = 0.01,
) -> RateCheckResult:
    """Check a slow-rate capacity against a near-equilibrium reference.

    ``ratio`` is max(q_slow)/max(q_ref); the check passes when the ratio
    is within ``tol`` of unity.  The tolerance is policy, not physics:
    1% reflects the common C/20-vs-C/100 screen.
    """
    if series_slow.direction != series_ref.direction:
        raise InputDataError(
            f"direction mismatch: {series_slow.direction} vs {series_ref.direction}"
        )
    ratio = series_slow.q_full / series_ref.q_full
    return RateCheckResult(passed=abs(1.0 - ratio) <= tol, ratio=ratio)
