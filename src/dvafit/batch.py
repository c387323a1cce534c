"""Batch-level statistics over per-cell fit outputs.

Areal normalization puts cells with different stack geometries on a
common mAh/cm^2 basis; summaries and Pearson correlation matrices are
the plot-ready aggregates for box-plot and correlation-panel views of a
formation batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, InputDataError
from .features import ArealFeatures, FeatureSet
from .model import ElectrodeParams


@dataclass(frozen=True)
class CellRecord:
    """One cell's fitted parameters and derived features.

    ``areal_basis_cm2`` is the total active area (n_faces times area per
    face) used to normalize capacities.
    """

    cell_id: str
    batch_id: str
    theta: ElectrodeParams
    features: FeatureSet
    areal_basis_cm2: float

    def __post_init__(self):
        if not self.cell_id or not self.batch_id:
            raise InputDataError("cell_id and batch_id must be non-empty")
        if self.areal_basis_cm2 <= 0:
            raise InputDataError(f"areal_basis_cm2 must be positive, got {self.areal_basis_cm2}")


@dataclass(frozen=True)
class BatchSummary:
    """Box-plot statistics for one metric over one set of records.

    ``std`` is the n-1 sample standard deviation; with a single record
    it is undefined and reported as None.
    """

    metric: str
    count: int
    mean: float
    std: float | None
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


# Metrics resolvable by name: derived features, fitted parameters, and
# the areal variants (available once normalize_areal has run).
_FEATURE_METRICS = (
    "q_sei",
    "q_li",
    "qn_excess",
    "npr_practical",
    "npr_conventional",
    "x100_tilde",
    "y100_tilde",
    "q_full",
)
_THETA_METRICS = ("qn_tilde", "qp_tilde", "x0_tilde", "y0_tilde")
_AREAL_METRICS = (
    "areal_q_full",
    "areal_qp_tilde",
    "areal_qn_tilde",
    "areal_q_sei",
    "areal_q_li",
    "areal_qn_excess",
)
KNOWN_METRICS = _FEATURE_METRICS + _THETA_METRICS + _AREAL_METRICS


def metric_value(record: CellRecord, metric: str) -> float:
    """Look up one named metric on a record."""
    if metric in _FEATURE_METRICS:
        return float(getattr(record.features, metric))
    if metric in _THETA_METRICS:
        return float(getattr(record.theta, metric))
    if metric in _AREAL_METRICS:
        areal = record.features.areal
        if areal is None:
            areal = _areal_features(record)
        return float(getattr(areal, metric.removeprefix("areal_")))
    raise ConfigError(f"unknown metric {metric!r}; known metrics: {', '.join(KNOWN_METRICS)}")


def _areal_features(record: CellRecord) -> ArealFeatures:
    to_areal = 1000.0 / record.areal_basis_cm2  # Ah -> mAh/cm^2
    f, t = record.features, record.theta
    return ArealFeatures(
        q_full=f.q_full * to_areal,
        qp_tilde=t.qp_tilde * to_areal,
        qn_tilde=t.qn_tilde * to_areal,
        q_sei=f.q_sei * to_areal,
        q_li=f.q_li * to_areal,
        qn_excess=f.qn_excess * to_areal,
    )


def normalize_areal(record: CellRecord) -> FeatureSet:
    """Feature set with the areal (mAh/cm^2) capacity variants filled in."""
    return replace(record.features, areal=_areal_features(record))


def _values(records, metric) -> np.ndarray:
    if callable(metric):
        return np.array([float(metric(r)) for r in records])
    return np.array([metric_value(r, metric) for r in records])


def summarize(records, metric: str | Callable[[CellRecord], float]) -> BatchSummary:
    """Box-plot statistics for ``metric`` over ``records``.

    ``metric`` is a known metric name or a callable on a record.
    Quartiles use linear interpolation between order statistics.
    """
    records = list(records)
    if not records:
        raise InputDataError("summarize needs at least one record")
    vals = _values(records, metric)
    q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
    return BatchSummary(
        metric=metric if isinstance(metric, str) else getattr(metric, "__name__", "custom"),
        count=len(vals),
        mean=float(np.mean(vals)),
        std=float(np.std(vals, ddof=1)) if len(vals) > 1 else None,
        minimum=float(np.min(vals)),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(np.max(vals)),
    )


def summarize_by_batch(records, metric) -> dict[str, BatchSummary]:
    """Per-batch summaries, keyed by batch_id, for side-by-side comparison."""
    records = list(records)
    by_batch: dict[str, list[CellRecord]] = {}
    for r in records:
        by_batch.setdefault(r.batch_id, []).append(r)
    return {bid: summarize(group, metric) for bid, group in sorted(by_batch.items())}


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson correlation matrix over named metrics.

    Zero-variance metrics make correlations undefined; their rows and
    columns hold NaN (missing, not zero) and the metric names appear in
    ``degenerate``.
    """

    metrics: tuple[str, ...]
    matrix: np.ndarray
    degenerate: tuple[str, ...]


def correlate(records, metrics) -> CorrelationResult:
    """Pearson correlation matrix of ``metrics`` over ``records``."""
    records = list(records)
    metrics = tuple(metrics)
    if len(records) < 3:
        raise InputDataError(f"correlate needs >= 3 records, got {len(records)}")
    if len(metrics) < 1:
        raise ConfigError("correlate needs at least one metric")
    cols = np.column_stack([_values(records, m) for m in metrics])
    # Decided on the raw values: centring a constant column can leave
    # rounding noise (0.1 - mean(0.1, 0.1, 0.1) is not always 0).
    degenerate = np.ptp(cols, axis=0) == 0.0
    centered = cols - cols.mean(axis=0)
    norms = np.sqrt(np.sum(centered**2, axis=0))
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe
    matrix = unit.T @ unit
    np.fill_diagonal(matrix, 1.0)
    matrix = np.clip(matrix, -1.0, 1.0)  # guard rounding just past +/-1
    matrix[degenerate, :] = np.nan
    matrix[:, degenerate] = np.nan
    return CorrelationResult(
        metrics=metrics,
        matrix=matrix,
        degenerate=tuple(m for m, bad in zip(metrics, degenerate) if bad),
    )
