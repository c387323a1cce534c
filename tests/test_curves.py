"""Curve representation, ingestion, interpolation, smoothing, resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from dvafit.curves import (
    CapacityVoltageSeries,
    ReferencePotentialCurve,
    SmoothingConfig,
    build_reference_curve,
    capacity_at_rate_check,
    differentiate,
    interpolate_potential,
    potential_slope,
    resample,
    smooth,
    validate_full_cell,
)
from dvafit.dataio import parse_reference_curve
from dvafit.errors import ConfigError, InfeasibilityError, InputDataError
from dvafit.synth import analytic_reference_curves


def _series(q, v, direction="charge"):
    return CapacityVoltageSeries(
        q=np.asarray(q, float), v=np.asarray(v, float), direction=direction, c_rate=0.01
    )


def _curve(s, p, role="positive", window=None):
    if window is None:
        window = (float(np.min(p)), float(np.max(p)))
    return ReferencePotentialCurve(
        electrode_role=role,
        direction="delithiation" if role == "positive" else "lithiation",
        c_rate=0.01,
        stoich_grid=s,
        potential=p,
        source_voltage_window=window,
        capacity_basis_mah=100.0,
    )


# ---------------------------------------------------------------------------
# type invariants


class TestReferencePotentialCurve:
    def test_accepts_flat_potential(self):
        s = np.linspace(0, 1, 5)
        c = _curve(s, np.full(5, 3.7), window=(3.6, 3.8))
        assert np.all(c.potential == 3.7)

    def test_rejects_short_grid(self):
        with pytest.raises(InputDataError, match=">= 4"):
            _curve(np.array([0.0, 0.5, 1.0]), np.array([4.0, 3.5, 3.0]))

    def test_rejects_grid_not_spanning_unit_interval(self):
        s = np.linspace(0.1, 1.0, 5)
        with pytest.raises(InputDataError, match=r"span \[0, 1\]"):
            _curve(s, 4.0 - s)

    def test_rejects_non_increasing_grid(self):
        s = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(InputDataError, match="strictly increasing"):
            _curve(s, 4.0 - s)

    def test_rejects_rising_potential(self):
        s = np.linspace(0, 1, 5)
        p = np.array([4.0, 3.8, 3.9, 3.5, 3.0])
        with pytest.raises(InputDataError, match="non-increasing"):
            _curve(s, p)

    def test_rejects_potential_outside_declared_window(self):
        s = np.linspace(0, 1, 5)
        with pytest.raises(InputDataError, match="exceeds declared"):
            _curve(s, 4.0 - s, window=(3.2, 3.8))

    def test_window_slack_of_one_millivolt_tolerated(self):
        s = np.linspace(0, 1, 5)
        c = _curve(s, 4.0 - s, window=(3.0005, 3.9995))
        assert c.source_voltage_window == (3.0005, 3.9995)

    def test_rejects_inverted_window(self):
        s = np.linspace(0, 1, 5)
        with pytest.raises(InputDataError, match="v_lo < v_hi"):
            _curve(s, 4.0 - s, window=(4.2, 3.0))

    def test_rejects_non_finite_potential(self):
        s = np.linspace(0, 1, 5)
        p = 4.0 - s
        p[2] = np.nan
        with pytest.raises(InputDataError, match="non-finite"):
            _curve(s, p)

    def test_arrays_are_immutable(self):
        s = np.linspace(0, 1, 5)
        c = _curve(s, 4.0 - s)
        with pytest.raises(ValueError):
            c.potential[0] = 0.0


class TestCapacityVoltageSeries:
    def test_rejects_non_monotone_capacity_with_row_index(self):
        with pytest.raises(InputDataError, match="row 2"):
            _series([0.0, 0.5, 0.4, 1.0], [3.0, 3.2, 3.3, 3.5])

    def test_rejects_non_finite(self):
        with pytest.raises(InputDataError, match="non-finite"):
            _series([0.0, 0.5, 1.0], [3.0, np.inf, 3.5])

    def test_q_full_is_last_sample(self):
        ser = _series([0.0, 1.0, 2.5], [3.0, 3.3, 4.1])
        assert ser.q_full == 2.5

    def test_validate_full_cell_needs_16_samples(self):
        ser = _series([0.0, 0.5, 1.0], [3.0, 3.2, 3.5])
        with pytest.raises(InputDataError, match=">= 16"):
            validate_full_cell(ser)

    def test_validate_full_cell_needs_zero_start(self):
        q = np.linspace(0.1, 1.0, 20)
        with pytest.raises(InputDataError, match="start at 0"):
            validate_full_cell(_series(q, 3.0 + q))


class TestSmoothingConfig:
    def test_rejects_even_window(self):
        with pytest.raises(ConfigError, match="odd"):
            SmoothingConfig(window_length=10, poly_order=3)

    def test_rejects_window_below_order_plus_two(self):
        with pytest.raises(ConfigError, match="poly_order"):
            SmoothingConfig(window_length=3, poly_order=3)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"window_length": 25.5}, "window_length"),
            ({"window_length": 25.0}, "window_length"),
            ({"window_length": True}, "window_length"),
            ({"poly_order": 3.0}, "poly_order"),
            ({"poly_order": False}, "poly_order"),
        ],
    )
    def test_rejects_non_integers(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            SmoothingConfig(**kwargs)

    @pytest.mark.parametrize("enabled", ["false", "true", 0, 1, None, np.False_])
    def test_enabled_takes_only_a_bool(self, enabled):
        with pytest.raises(ConfigError, match="enabled: expected true or false"):
            SmoothingConfig(enabled=enabled)

    def test_accepts_numpy_integers(self):
        cfg = SmoothingConfig(window_length=np.int64(11), poly_order=np.int32(2))
        assert cfg.window_length == 11 and cfg.poly_order == 2


# ---------------------------------------------------------------------------
# build_reference_curve


class TestBuildReferenceCurve:
    def test_linear_normalization(self):
        # s = (capacity - min) / span, capacity_basis = span.
        c = build_reference_curve(
            [0.0, 1.0, 2.0, 4.0],
            [4.3, 3.9, 3.0, 2.8],
            electrode_role="positive",
            direction="delithiation",
            c_rate=0.05,
            voltage_window=(2.8, 4.3),
        )
        assert np.array_equal(c.stoich_grid, [0.0, 0.25, 0.5, 1.0])
        assert c.capacity_basis_mah == 4.0

    def test_duplicate_capacity_rows_average_potential(self):
        c = build_reference_curve(
            [0.0, 1.0, 1.0, 2.0, 3.0],
            [4.3, 3.90, 3.92, 3.0, 2.5],
            electrode_role="positive",
            direction="delithiation",
            c_rate=0.05,
            voltage_window=(2.5, 4.3),
        )
        assert len(c.stoich_grid) == 4
        assert c.potential[1] == pytest.approx((3.90 + 3.92) / 2, rel=1e-15)

    def test_reversed_row_order_gives_identical_curve(self):
        cap = np.linspace(0.0, 50.0, 40)
        pot = 0.6 - 0.5 * (cap / 50.0) ** 0.8
        kw = dict(
            electrode_role="negative",
            direction="delithiation",
            c_rate=0.05,
            voltage_window=(0.0, 0.7),
        )
        a = build_reference_curve(cap, pot, **kw)
        b = build_reference_curve(cap[::-1], pot[::-1], **kw)
        assert np.array_equal(a.stoich_grid, b.stoich_grid)
        assert np.array_equal(a.potential, b.potential)
        assert a.capacity_basis_mah == b.capacity_basis_mah

    def test_rejects_heavily_retrograde_log_with_row_indices(self):
        cap = np.array([0.0, 1.0, 0.5, 2.0, 1.5, 3.0, 2.5, 4.0, 3.5, 5.0])
        pot = np.linspace(4.3, 3.0, 10)
        with pytest.raises(InputDataError, match="retrograde") as err:
            build_reference_curve(
                cap,
                pot,
                electrode_role="positive",
                direction="delithiation",
                c_rate=0.05,
                voltage_window=(3.0, 4.3),
            )
        assert "2" in str(err.value)

    def test_few_retrograde_rows_are_repaired(self):
        # One row logged late: capacity runs backwards once, but its
        # potential (3.03 V) is consistent with the sorted position
        # between the 48.3 mAh (3.044 V) and 49.15 mAh (3.022 V) rows.
        cap = np.concatenate([np.linspace(0.0, 50.0, 60), [49.0]])
        pot = np.concatenate([np.linspace(4.3, 3.0, 60), [3.03]])
        c = build_reference_curve(
            cap,
            pot,
            electrode_role="positive",
            direction="delithiation",
            c_rate=0.05,
            voltage_window=(3.0, 4.3),
        )
        assert len(c.stoich_grid) == 61
        assert np.all(np.diff(c.stoich_grid) > 0)
        assert np.all(np.diff(c.potential) <= 0)

    def test_idempotent_on_own_output(self):
        cap = np.linspace(0.0, 37.0, 25)
        pot = 4.2 - 1.1 * (cap / 37.0) ** 1.3
        kw = dict(
            electrode_role="positive",
            direction="delithiation",
            c_rate=0.05,
            voltage_window=(3.0, 4.3),
        )
        once = build_reference_curve(cap, pot, **kw)
        again = build_reference_curve(once.stoich_grid, once.potential, **kw)
        assert np.array_equal(once.stoich_grid, again.stoich_grid)
        assert np.array_equal(once.potential, again.potential)

    def test_rejects_too_few_distinct_capacities(self):
        with pytest.raises(InputDataError, match="distinct"):
            build_reference_curve(
                [0.0, 1.0, 1.0, 2.0],
                [4.0, 3.6, 3.6, 3.0],
                electrode_role="positive",
                direction="delithiation",
                c_rate=0.05,
                voltage_window=(3.0, 4.0),
            )


# ---------------------------------------------------------------------------
# interpolation


class TestInterpolatePotential:
    def test_exact_at_nodes(self):
        s = np.linspace(0, 1, 13)
        p = 4.1 - 0.9 * s**1.7
        c = _curve(s, p)
        for si, pi in zip(s, p):
            assert interpolate_potential(c, si) == pi

    def test_linear_data_reproduced(self):
        s = np.linspace(0, 1, 21)
        c = _curve(s, 4.2 - 1.0 * s)
        assert interpolate_potential(c, 0.375) == pytest.approx(3.825, abs=1e-9)

    def test_decreasing_cubic_reproduced_to_1e6(self):
        s = np.linspace(0, 1, 101)

        def f(t):
            return 4.2 - 0.3 * t - 0.2 * t**2 - 0.1 * t**3

        c = _curve(s, f(s))
        sq = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
        assert np.max(np.abs(interpolate_potential(c, sq) - f(sq))) <= 1e-6

    def test_out_of_domain_raises_naming_offender(self):
        s = np.linspace(0, 1, 5)
        c = _curve(s, 4.0 - s)
        with pytest.raises(InfeasibilityError, match="1.25") as err:
            interpolate_potential(c, np.array([0.5, 1.25]))
        assert err.value.offending_s == 1.25
        with pytest.raises(InfeasibilityError):
            potential_slope(c, -0.01)

    def test_never_overshoots_node_range_and_stays_monotone(self):
        # Steep knee data is where a non-monotone cubic would overshoot.
        s = np.linspace(0, 1, 31)
        p = 0.1 + 0.85 * np.exp(-12.0 * s)
        c = _curve(s, p, role="negative")
        dense = np.linspace(0.0, 1.0, 10_000)
        out = interpolate_potential(c, dense)
        assert out.min() >= p.min() and out.max() <= p.max()
        assert np.all(np.diff(out) <= 0)

    def test_bitwise_stable_under_query_order(self):
        s = np.linspace(0, 1, 31)
        c = _curve(s, 4.2 - 1.2 * s**1.4)
        dense = np.linspace(0.0, 1.0, 2000)
        perm = np.random.default_rng(0).permutation(len(dense))
        direct = interpolate_potential(c, dense)
        shuffled = np.empty_like(direct)
        shuffled[perm] = interpolate_potential(c, dense[perm])
        assert np.array_equal(direct, shuffled)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_monotone_curves_never_overshoot(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        s = np.sort(rng.uniform(0, 1, n - 2))
        s = np.concatenate([[0.0], s, [1.0]])
        s = np.unique(s)
        if len(s) < 4:
            return
        p = 4.2 - np.cumsum(rng.uniform(0.0, 0.1, len(s)))
        c = _curve(s, p)
        dense = np.linspace(0, 1, 2000)
        out = interpolate_potential(c, dense)
        assert out.min() >= p.min() - 1e-12 and out.max() <= p.max() + 1e-12
        assert np.all(np.diff(out) <= 1e-12)


# ---------------------------------------------------------------------------
# smoothing and differentiation


class TestPchipCoefficients:
    """The coefficient evaluator the forward model uses against scipy's
    PchipInterpolator and its derivatives, kept as the reference."""

    @pytest.fixture(scope="class")
    def curves(self, data_dir):
        bundled = [parse_reference_curve(data_dir / f"u_{r}.csv") for r in ("pos", "neg")]
        return bundled + list(analytic_reference_curves())

    def test_matches_scipy_with_derivatives(self, curves):
        rng = np.random.default_rng(0)
        for curve in curves:
            ref = PchipInterpolator(curve.stoich_grid, curve.potential, extrapolate=False)
            nodes = curve.stoich_grid
            s_random = rng.random(5000)
            s = np.concatenate([s_random, nodes, [0.0, 1.0]])
            u, slope, curvature = curve._evaluate(s, (0, 1, 2))
            for got, want in ((u, ref(s)), (slope, ref.derivative()(s))):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale
            # U'' jumps at the nodes, so compare it away from them only.
            n = s_random.size
            want = ref.derivative(2)(s_random)
            assert np.max(np.abs(curvature[:n] - want)) <= 1e-13 * np.max(np.abs(want))


class TestSmooth:
    def test_reproduces_quadratic_exactly(self):
        q = np.linspace(0, 2, 100)
        v = 3.0 + 0.5 * q - 0.1 * q**2
        out = smooth(_series(q, v), SmoothingConfig(window_length=11, poly_order=3))
        assert np.max(np.abs(out.v - v)) <= 1e-12

    def test_disabled_is_passthrough(self):
        q = np.linspace(0, 1, 50)
        v = 3.0 + np.random.default_rng(1).normal(0, 0.01, 50)
        ser = _series(q, v)
        out = smooth(ser, SmoothingConfig(enabled=False))
        assert out is ser

    def test_reduces_millivolt_noise_on_quadratic(self):
        q = np.linspace(0, 2, 400)
        clean = 3.0 + 0.5 * q - 0.1 * q**2
        noise = np.random.default_rng(3).normal(0.0, 1e-3, q.size)
        out = smooth(_series(q, clean + noise), SmoothingConfig(11, 3))
        rms_before = np.sqrt(np.mean(noise**2))
        rms_after = np.sqrt(np.mean((out.v - clean) ** 2))
        assert rms_after < rms_before

    def test_window_longer_than_series_rejected(self):
        q = np.linspace(0, 1, 20)
        with pytest.raises(ConfigError, match="longer than series"):
            smooth(_series(q, 3.0 + q), SmoothingConfig(25, 3))

    def test_uneven_spacing_rejected(self):
        q = np.concatenate([np.linspace(0, 1, 30), [1.5, 3.0]])
        with pytest.raises(InputDataError, match="spacing ratio"):
            smooth(_series(q, 3.0 + q), SmoothingConfig(11, 3))


class TestDifferentiate:
    def test_linear_voltage_gives_constant_slope(self):
        q = np.linspace(0, 2, 80)
        d = differentiate(_series(q, 3.0 + 0.4 * q), SmoothingConfig())
        assert np.max(np.abs(d - 0.4)) <= 1e-9

    def test_constant_voltage_gives_zero(self):
        q = np.linspace(0, 2, 80)
        d = differentiate(_series(q, np.full_like(q, 3.6)), SmoothingConfig())
        assert np.max(np.abs(d)) <= 1e-12

    def test_sine_derivative_within_1e3(self):
        q = np.linspace(0, 3, 501)
        d = differentiate(_series(q, np.sin(q) + 2.0), SmoothingConfig())
        assert np.max(np.abs(d - np.cos(q))) <= 1e-3

    def test_disabled_falls_back_to_central_differences(self):
        q = np.linspace(0, 2, 60)
        v = 3.0 + 0.3 * q**2
        d = differentiate(_series(q, v), SmoothingConfig(enabled=False))
        assert np.array_equal(d, np.gradient(v, q))

    def test_integrating_derivative_recovers_voltage(self):
        from scipy.integrate import cumulative_trapezoid

        q = np.linspace(0, 1.8, 500)
        v = 3.0 + 0.6 * q - 0.05 * q**2 + 0.02 * np.sin(4.0 * q)
        d = differentiate(_series(q, v), SmoothingConfig())
        recovered = cumulative_trapezoid(d, q, initial=0.0) + v[0]
        assert np.max(np.abs(recovered - v)) <= 0.5e-3


class TestResample:
    def test_uniform_series_nodes_preserved(self):
        q = np.linspace(0, 2, 40)
        v = 3.0 + 0.5 * q - 0.1 * q**2
        out = resample(_series(q, v), 40)
        assert np.max(np.abs(out.v - v)) <= 1e-12

    def test_linear_voltage_stays_on_line(self):
        q = np.linspace(0, 2, 25)
        out = resample(_series(q, 3.0 + 0.7 * q), 333)
        assert np.max(np.abs(out.v - (3.0 + 0.7 * out.q))) <= 1e-12

    def test_round_trip_through_500_points(self, analytic_curves):
        from dvafit.model import ElectrodeParams, predict_voltage

        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.80)
        q = np.linspace(0.0, theta.q_full, 301)
        v = predict_voltage(theta, q, u_pos, u_neg)
        back = resample(resample(_series(q, v), 500), 301)
        assert np.max(np.abs(back.v - v)) <= 0.1e-3

    def test_rejects_small_counts(self):
        q = np.linspace(0, 1, 30)
        with pytest.raises(ConfigError, match=">= 16"):
            resample(_series(q, 3.0 + q), 8)


# ---------------------------------------------------------------------------
# rate check


class TestCapacityAtRateCheck:
    def _pair(self, q_slow, q_ref):
        q1 = np.linspace(0, q_slow, 30)
        q2 = np.linspace(0, q_ref, 30)
        return _series(q1, 3.0 + q1), _series(q2, 3.0 + q2)

    def test_rate_pair_within_one_percent_passes(self):
        slow, ref = self._pair(2.50, 2.52)
        result = capacity_at_rate_check(slow, ref, tol=0.01)
        assert result.passed
        assert result.ratio == pytest.approx(2.50 / 2.52, rel=1e-12)
        assert round(result.ratio, 4) == 0.9921

    def test_identical_series_ratio_one(self):
        slow, _ = self._pair(2.50, 2.52)
        result = capacity_at_rate_check(slow, slow)
        assert result.passed and result.ratio == 1.0

    def test_large_deficit_fails(self):
        slow, ref = self._pair(2.30, 2.52)
        result = capacity_at_rate_check(slow, ref, tol=0.01)
        assert not result.passed
        assert result.ratio == pytest.approx(0.9127, abs=5e-5)

    def test_direction_mismatch_rejected(self):
        slow, ref = self._pair(2.50, 2.52)
        ref = CapacityVoltageSeries(
            q=ref.q, v=ref.v, direction="discharge", c_rate=ref.c_rate
        )
        with pytest.raises(InputDataError, match="direction mismatch"):
            capacity_at_rate_check(slow, ref)
