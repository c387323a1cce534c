"""Batch aggregation: areal normalization, summaries, correlations."""

import dataclasses

import numpy as np
import pytest

from dvafit.batch import (
    KNOWN_METRICS,
    BatchSummary,
    CellRecord,
    correlate,
    metric_value,
    normalize_areal,
    summarize,
    summarize_by_batch,
)
from dvafit.errors import ConfigError, InputDataError
from dvafit.features import derive_features
from dvafit.model import ElectrodeParams

DEFAULT_THETA = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.80)


def _record(cell_id="c1", batch_id="b1", theta=DEFAULT_THETA, basis=1000.0, **feature_overrides):
    features = derive_features(theta)
    if feature_overrides:
        features = dataclasses.replace(features, **feature_overrides)
    return CellRecord(
        cell_id=cell_id,
        batch_id=batch_id,
        theta=theta,
        features=features,
        areal_basis_cm2=basis,
    )


def _records_with(values, metric_field="q_sei", batch_id="b1"):
    return [
        _record(cell_id=f"c{i}", batch_id=batch_id, **{metric_field: float(v)})
        for i, v in enumerate(values)
    ]


class TestCellRecord:
    def test_empty_ids_rejected(self):
        with pytest.raises(InputDataError, match="non-empty"):
            _record(cell_id="")
        with pytest.raises(InputDataError, match="non-empty"):
            _record(batch_id="")

    def test_nonpositive_basis_rejected(self):
        with pytest.raises(InputDataError, match="areal_basis_cm2"):
            _record(basis=0.0)


class TestMetricValue:
    def test_feature_and_theta_lookup(self):
        r = _record()
        assert metric_value(r, "q_sei") == r.features.q_sei
        assert metric_value(r, "qp_tilde") == r.theta.qp_tilde
        assert metric_value(r, "q_full") == r.theta.q_full

    def test_all_known_metrics_resolve(self):
        r = _record()
        for m in KNOWN_METRICS:
            assert np.isfinite(metric_value(r, m))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError, match="unknown metric"):
            metric_value(_record(), "specific_energy")

    def test_areal_lookup_matches_normalized_record(self):
        r = _record(basis=2217.6)
        normalized = dataclasses.replace(r, features=normalize_areal(r))
        for m in ("areal_q_full", "areal_qp_tilde", "areal_q_sei"):
            assert metric_value(r, m) == metric_value(normalized, m)


class TestNormalizeAreal:
    def test_published_scale_positive(self):
        # 10.78 Ah over a 28-face stack of 79.20 cm^2 faces.
        theta = ElectrodeParams(6.73, 10.78, 0.02, 0.93, 5.0)
        r = _record(theta=theta, basis=28 * 79.20)
        areal = normalize_areal(r).areal
        assert areal.qp_tilde == pytest.approx(4.861, abs=5e-4)

    def test_published_scale_negative(self):
        # 3.16 Ah over a 14-face stack of 79.56 cm^2 faces.
        theta = ElectrodeParams(3.16, 3.50, 0.02, 0.93, 1.5)
        r = _record(theta=theta, basis=14 * 79.56)
        areal = normalize_areal(r).areal
        assert areal.qn_tilde == pytest.approx(2.837, abs=5e-4)

    def test_unit_basis_is_identity_scale(self):
        # 1000 cm^2 makes Ah -> mAh/cm^2 a multiply by exactly 1.
        r = _record(basis=1000.0)
        areal = normalize_areal(r).areal
        assert areal.q_full == r.features.q_full
        assert areal.q_sei == r.features.q_sei
        assert areal.qn_excess == r.features.qn_excess


class TestSummarize:
    def test_single_record_degenerates_cleanly(self):
        s = summarize([_record(q_sei=0.21)], "q_sei")
        assert s.count == 1 and s.std is None
        assert s.mean == s.median == s.minimum == s.maximum == 0.21

    def test_five_point_box_stats(self):
        def spread(record):
            return record.features.q_sei

        s = summarize(_records_with([1, 2, 3, 4, 5]), spread)
        assert s.metric == "spread"
        assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert s.mean == 3.0
        assert s.std == pytest.approx(np.sqrt(2.5), rel=1e-15)

    def test_matches_numpy_reference(self):
        vals = np.random.default_rng(4).normal(0.5, 0.05, 20)
        s = summarize(_records_with(vals), "q_sei")
        assert s.mean == pytest.approx(float(np.mean(vals)), rel=1e-15)
        assert s.std == pytest.approx(float(np.std(vals, ddof=1)), rel=1e-15)
        assert s.median == pytest.approx(float(np.median(vals)), rel=1e-15)

    def test_order_invariant(self):
        records = _records_with(list(range(1, 21)))
        assert summarize(records, "q_sei") == summarize(records[::-1], "q_sei")

    def test_empty_rejected(self):
        with pytest.raises(InputDataError, match="at least one"):
            summarize([], "q_sei")


class TestSummarizeByBatch:
    def test_groups_and_sorts_by_batch(self):
        records = _records_with([1, 2, 3], batch_id="lineB") + _records_with(
            [10, 20], batch_id="lineA"
        )
        out = summarize_by_batch(records, "q_sei")
        assert list(out) == ["lineA", "lineB"]
        assert out["lineA"].count == 2 and out["lineA"].mean == 15.0
        assert out["lineB"] == summarize(records[:3], "q_sei")


class TestCorrelate:
    def test_needs_three_records(self):
        with pytest.raises(InputDataError, match="3 records"):
            correlate(_records_with([1, 2]), ("q_sei",))

    def test_needs_a_metric(self):
        with pytest.raises(ConfigError, match="at least one metric"):
            correlate(_records_with([1, 2, 3]), ())

    def test_hand_computed_coefficient(self):
        # x = (1,2,3,4), y = (2,1,4,3): r = 3/5 exactly.
        records = [
            _record(cell_id=f"c{i}", q_sei=float(x), q_li=float(y))
            for i, (x, y) in enumerate(zip([1, 2, 3, 4], [2, 1, 4, 3]))
        ]
        out = correlate(records, ("q_sei", "q_li"))
        assert out.matrix[0, 1] == pytest.approx(0.6, rel=1e-12)
        assert out.degenerate == ()

    def test_affine_relation_saturates(self):
        records = [
            _record(cell_id=f"c{i}", q_sei=float(x), q_li=2.0 * x + 1.0, qn_excess=-x)
            for i, x in enumerate([0.1, 0.2, 0.4, 0.7])
        ]
        out = correlate(records, ("q_sei", "q_li", "qn_excess"))
        assert out.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert out.matrix[0, 2] == pytest.approx(-1.0, abs=1e-12)

    def test_matrix_shape_properties(self):
        rng = np.random.default_rng(8)
        records = [
            _record(
                cell_id=f"c{i}",
                q_sei=rng.normal(0.2, 0.05),
                q_li=rng.normal(2.5, 0.1),
                qn_excess=rng.normal(0.4, 0.02),
            )
            for i in range(12)
        ]
        out = correlate(records, ("q_sei", "q_li", "qn_excess"))
        m = out.matrix
        assert m.shape == (3, 3)
        assert np.array_equal(np.diag(m), np.ones(3))
        assert np.allclose(m, m.T, atol=1e-12)
        assert np.all(m >= -1.0) and np.all(m <= 1.0)

    def test_duplicate_metric_correlates_perfectly(self):
        out = correlate(_records_with([1, 2, 3, 5]), ("q_sei", "q_sei"))
        assert out.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_marked_degenerate(self):
        # 0.25 survives the mean exactly; a value like 0.2 would leave
        # ~1e-17 of rounding variance and dodge the degeneracy check.
        records = [
            _record(cell_id=f"c{i}", q_sei=0.25, q_li=float(v))
            for i, v in enumerate([1, 2, 4])
        ]
        out = correlate(records, ("q_sei", "q_li"))
        assert out.degenerate == ("q_sei",)
        assert np.isnan(out.matrix[0, 0]) and np.isnan(out.matrix[0, 1])
        assert np.isnan(out.matrix[1, 0])
        assert out.matrix[1, 1] == 1.0

    def test_constant_with_rounding_noise_marked_degenerate(self):
        # Over three records, 0.1 and 0.7 minus their own mean leave
        # ~1e-17 and ~1e-16 of variance; they are still constants.
        records = _records_with([1, 2, 4])
        out = correlate(records, ("q_sei", lambda r: 0.1, lambda r: 0.7))
        assert len(out.degenerate) == 2
        assert out.matrix[0, 0] == 1.0
        assert np.all(np.isnan(out.matrix[1:, :])) and np.all(np.isnan(out.matrix[:, 1:]))
