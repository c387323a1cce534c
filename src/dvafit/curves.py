"""Potential and voltage curve handling.

Reference (half-cell) potential curves are stored against normalized
stoichiometry on [0, 1]; full-cell data is stored against capacity.  All
interpolation is monotone-preserving piecewise cubic Hermite (PCHIP:
Fritsch-Butland node slopes, built here in numpy with the same rules and
arithmetic as scipy's ``PchipInterpolator``), so interpolated potentials
never overshoot the node range and differential-voltage signals derived
from them carry no spurious peaks.  Smoothing and differentiation are
Savitzky-Golay filters with polynomial fits at the edges, as scipy's
``savgol_filter(mode="interp")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InfeasibilityError, InputDataError, require_int

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
        require_int(self.window_length, "window_length")
        require_int(self.poly_order, "poly_order")
        if not isinstance(self.enabled, bool):
            # "false" or 0 would read as a truth value and leave smoothing on.
            raise ConfigError(f"enabled: expected true or false, got {self.enabled!r}")
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
        return _pchip_pieces(self.stoich_grid, self.potential)

    @cached_property
    def _table(self) -> _BucketTable | None:
        return _bucket_table(self._pieces[0])

    def _evaluate(self, s, orders: tuple[int, ...]) -> list[np.ndarray]:
        """U (order 0), U' (1) and U'' (2) at stoichiometry ``s``, in the
        order ``orders`` lists them.  ``s`` must already lie in [0, 1]:
        there is no range check.

        The interval of each point comes from the curve's bucket table,
        built once on first use, unless the grid is too uneven for one
        (see :func:`_bucket_table`); either way it is the interval
        ``np.searchsorted`` finds, so the values are the same bits.
        """
        return _evaluate_pieces(self._pieces, s, orders, self._table)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, kept to the shape of the
    data: zero if it disagrees in sign with the end secant, at most three
    times that secant where the secants change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_pieces(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The monotone cubic (PCHIP) interpolant through strictly increasing
    ``x`` and ``y``: the interior breakpoints, and per interval the rows
    U, U' and U'' are evaluated from.  Those are the left breakpoint,
    (c3, c2, c1, c0) of the cubic c3 + c2 t + c1 t^2 + c0 t^3 in
    t = x - left, then 2 c1, 3 c0 and 6 c0.

    Node slopes are the weighted harmonic mean of the two adjacent secants
    inside, zero where those differ in sign or one is flat, and
    :func:`_pchip_end_slope` at the ends.  The slopes and the cubic Hermite
    coefficients take the same operations in the same order as scipy's
    ``PchipInterpolator``, so the pieces are bitwise its ``x`` and ``c``.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if len(x) == 2:
        d[:] = m[0]
    else:
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0 = t / h
    c1 = (m - d[:-1]) / h - t
    c2, c3 = d[:-1], y[:-1]
    return x[1:-1].copy(), (x[:-1], c3, c2, c1, c0, 2.0 * c1, 3.0 * c0, 6.0 * c0)


# A stoichiometry grid gets a bucket table when no bucket holds more than
# this many interior nodes; each one costs a gather and a compare per point.
MAX_BUCKET_NODES = 4


class _BucketTable(NamedTuple):
    """Constant-time interval lookup for breakpoints spanning [0, 1].

    With B intervals, a value v in [0, 1] falls in bucket ``int(v * B)``,
    one of B + 1 (v = 1 alone reaches bucket B).  ``first[b]`` counts the
    interior breakpoints in buckets below b; ``nodes`` is the interior
    breakpoints followed by +inf.
    """

    first: np.ndarray  # (B + 1,) intp
    nodes: np.ndarray  # (B,) interior breakpoints, then +inf
    depth: int  # most interior breakpoints any bucket holds


def _bucket_table(interior: np.ndarray) -> _BucketTable | None:
    """The bucket table for the interior breakpoints of a grid spanning
    [0, 1], or None when a bucket would hold more than
    :data:`MAX_BUCKET_NODES` of them (a grid far from uniform), where
    ``np.searchsorted`` is the cheaper search."""
    n_intervals = interior.size + 1
    counts = np.bincount((interior * n_intervals).astype(np.intp), minlength=n_intervals + 1)
    depth = int(counts.max())
    if depth > MAX_BUCKET_NODES:
        return None
    return _BucketTable(np.cumsum(counts) - counts, np.append(interior, np.inf), depth)


def _intervals(interior: np.ndarray, s, table: _BucketTable | None):
    """``np.searchsorted(interior, s, side="right")``: for each ``s``, the
    number of interior breakpoints at or below it.

    A table replaces the binary search with ``table.depth`` gathers and
    compares per point and gives the same integers: rounding is monotone,
    so ``int(v * B)`` never decreases as v grows.  Every breakpoint in a
    bucket below the bucket of s is then below s, every one in a bucket
    above it is above s, and only the breakpoints sharing its bucket are
    compared, in order.  This holds for s in [0, 1] and for any s whose
    bucket index fits an intp: a bucket outside [0, B] clips to the end
    bucket, whose breakpoints all compare the same way.  A single point
    (0-d ``s``) takes the binary search, which costs less there than the
    table's numpy calls.
    """
    if table is None or np.ndim(s) == 0:
        return np.searchsorted(interior, s, side="right")
    bucket = (s * (table.first.size - 1)).astype(np.intp)
    i = np.take(table.first, bucket, mode="clip")
    for _ in range(table.depth):
        i += s >= np.take(table.nodes, i)
    return i


def _evaluate_pieces(
    pieces, s, orders: tuple[int, ...], table: _BucketTable | None = None
) -> list[np.ndarray]:
    """Orders 0, 1 and 2 of the :func:`_pchip_pieces` interpolant at ``s``,
    in the order ``orders`` lists them.

    One interval search serves every term: a lookup in ``table``, the
    :func:`_bucket_table` of the breakpoints, when there is one, else a
    binary search (one-shot interpolants such as :func:`resample`, where
    building a table would cost more than it saves, and uneven grids).
    Both find the same interval.  Points outside the breakpoints extend
    the end cubics.  The sums are grouped as scipy's PPoly evaluation
    groups them, so the values equal the PchipInterpolator's and its
    derivatives'.
    """
    interior, (left, c3, c2, c1, c0, d1, d0, e0) = pieces
    # Interval i holds [x_i, x_i+1); the last breakpoint falls in the last one.
    i = _intervals(interior, s, table)
    t = s - left[i]
    t2 = t * t
    c2_i, d1_i = c2[i], d1[i]  # each serves two orders
    terms = []
    for order in orders:
        if order == 0:
            terms.append(((c3[i] + c2_i * t) + c1[i] * t2) + c0[i] * (t2 * t))
        elif order == 1:
            terms.append((c2_i + d1_i * t) + d0[i] * t2)
        else:
            terms.append(d1_i + e0[i] * t)
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
    bad = ~((s_arr >= 0.0) & (s_arr <= 1.0))  # NaN is outside too
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

    ``s`` outside [0, 1], or NaN, raises InfeasibilityError.
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


def _savgol(v: np.ndarray, window: int, order: int, deriv: int, delta: float) -> np.ndarray:
    """Savitzky-Golay filter of a uniform series with spacing ``delta``:
    the ``deriv``-th derivative of the degree-``order`` polynomial fitted
    by least squares to each ``window`` samples, as scipy's
    ``savgol_filter(mode="interp")`` computes it.

    Interior points take the centred window.  The first and last
    ``window // 2`` points take the polynomial fitted to the first or last
    ``window`` samples, so the output keeps the input's length and
    alignment.  A derivative above the polynomial degree is zero.
    """
    if deriv > order:
        return np.zeros_like(v)
    half = window // 2
    # Offsets from the centre in descending order, as scipy's savgol_coeffs
    # lays them out for a convolution; the least-squares weights then come
    # out bitwise equal to scipy's.
    offsets = np.arange(half, half - window, -1, dtype=float)
    target = np.zeros(order + 1)
    target[deriv] = math.factorial(deriv) / delta**deriv
    weights = np.linalg.lstsq(offsets ** np.arange(order + 1)[:, None], target, rcond=None)[0]
    out = np.empty_like(v)
    out[half : len(v) - half] = np.convolve(v, weights, mode="valid")
    steps = np.arange(window)
    for start, rows in ((0, steps[:half]), (len(v) - window, steps[window - half :])):
        poly = np.polyfit(steps, v[start : start + window], order)
        out[start + rows] = np.polyval(np.polyder(poly, deriv), rows) / delta**deriv
    return out


def _check_window(v: np.ndarray, cfg: SmoothingConfig) -> None:
    if cfg.window_length > len(v):
        raise ConfigError(
            f"smoothing window {cfg.window_length} longer than series ({len(v)} samples)"
        )


def savgol_smooth_array(v: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """SG smoothing on a uniform grid; endpoints use one-sided window fits."""
    v = np.asarray(v, dtype=float)
    if not cfg.enabled:
        return v
    _check_window(v, cfg)
    return _savgol(v, cfg.window_length, cfg.poly_order, 0, 1.0)


def savgol_derivative_array(v: np.ndarray, delta: float, cfg: SmoothingConfig) -> np.ndarray:
    """SG first derivative on a uniform grid with spacing ``delta``."""
    v = np.asarray(v, dtype=float)
    _check_window(v, cfg)
    return _savgol(v, cfg.window_length, cfg.poly_order, 1, delta)


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
    (v,) = _evaluate_pieces(_pchip_pieces(series.q, series.v), grid, (0,))
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
