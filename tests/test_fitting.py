"""Parameter estimation: residual structure, fit quality, determinism."""

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative
from scipy.stats import qmc

from dvafit.curves import CapacityVoltageSeries, SmoothingConfig, differentiate, resample
from dvafit.errors import ConfigError
from dvafit.fitting import (
    FitConfig,
    ParameterBounds,
    _prepare,
    _solve,
    _stacked,
    _stacked_jacobian,
    fit,
    residuals,
)
from dvafit.model import (
    ElectrodeParams,
    evaluate,
    param_vector,
    predict_dvdq,
    predict_voltage,
)
from dvafit.synth import SynthSpec, generate, implied_v_min

LINEAR_THETA = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.9)


def _linear_series(u_pos, u_neg, theta=LINEAR_THETA, n=200, v_offset=0.0):
    q = np.linspace(0.0, theta.q_full, n)
    v = predict_voltage(theta, q, u_pos, u_neg) + v_offset
    return CapacityVoltageSeries(q=q, v=v, direction="charge", c_rate=0.01)


def _synth_series(u_pos, u_neg, theta, seed=0, noise=0.0, n=500, v_max=4.2):
    spec = SynthSpec(
        theta_true=theta,
        noise_sigma_v=noise,
        sample_count=n,
        seed=seed,
        v_min=implied_v_min(theta, u_pos, u_neg),
        v_max=v_max,
    )
    return generate(spec, u_pos, u_neg)


class TestConfigs:
    def test_lambda_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError, match="lam"):
            FitConfig(lam=1.5)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ConfigError, match="lo < hi"):
            ParameterBounds(qn=(2.0, 2.0), qp=(1.0, 2.0), x0=(0.0, 0.1), y0=(0.9, 1.0))
        with pytest.raises(ConfigError, match="x0"):
            ParameterBounds(qn=(1.0, 2.0), qp=(1.0, 2.0), x0=(0.0, 1.0), y0=(0.9, 1.0))

    @pytest.mark.parametrize("key", ["resample_points", "starts", "seed", "max_iterations"])
    @pytest.mark.parametrize("value", [2.7, 16.0, True, "16"])
    def test_integer_settings_reject_non_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}: expected an integer"):
            FitConfig(**{key: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            FitConfig(seed=-1)

    def test_default_bounds_scale_with_capacity(self):
        b = ParameterBounds.default(2.3)
        assert b.qn == (2.3, 11.5) and b.qp == (2.3, 11.5)


class TestResiduals:
    def test_vanish_at_true_parameters_on_linear_curves(self, linear_curves):
        u_pos, u_neg = linear_curves
        series = _linear_series(u_pos, u_neg)
        r = residuals(LINEAR_THETA, series, u_pos, u_neg, FitConfig())
        assert np.max(np.abs(r)) <= 1e-10

    def test_lambda_one_zeroes_differential_block(self, linear_curves):
        u_pos, u_neg = linear_curves
        # Measured from a different theta: both channels mismatch.
        other = ElectrodeParams(1.2, 1.1, 0.05, 0.95, 0.9)
        series = _linear_series(u_pos, u_neg, theta=other)
        cfg = FitConfig(lam=1.0)
        r = residuals(LINEAR_THETA, series, u_pos, u_neg, cfg)
        n = cfg.resample_points
        assert np.any(r[:n] != 0.0)
        assert np.all(r[n : 2 * n] == 0.0)

    def test_lambda_zero_ignores_constant_voltage_offset(self, linear_curves):
        u_pos, u_neg = linear_curves
        series = _linear_series(u_pos, u_neg, v_offset=5e-3)
        cfg = FitConfig(lam=0.0)
        r = residuals(LINEAR_THETA, series, u_pos, u_neg, cfg)
        n = cfg.resample_points
        assert np.all(r[:n] == 0.0)  # voltage block weighted out
        assert np.max(np.abs(r[n : 2 * n])) <= 1e-10  # offsets vanish under d/dq

    def test_penalty_block_zero_for_feasible_parameters(self, linear_curves):
        u_pos, u_neg = linear_curves
        series = _linear_series(u_pos, u_neg)
        cfg = FitConfig()
        r = residuals(LINEAR_THETA, series, u_pos, u_neg, cfg)
        assert np.all(r[2 * cfg.resample_points :] == 0.0)

    def test_infeasible_parameters_raise_nothing_and_carry_penalty(self, linear_curves):
        u_pos, u_neg = linear_curves
        bad = ElectrodeParams(0.6, 1.0, 0.0, 1.0, 0.9)  # x100 = 1.5
        series = _linear_series(u_pos, u_neg)
        cfg = FitConfig()
        r = residuals(bad, series, u_pos, u_neg, cfg)
        assert np.any(r[2 * cfg.resample_points :] > 0.0)

    def test_stacking_identity(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, theta_true = _synth_series(u_pos, u_neg, theta)
        probe = ElectrodeParams(3.0, 2.9, 0.04, 0.95, theta_true.q_full)
        sum_v = np.sum(residuals(probe, series, u_pos, u_neg, FitConfig(lam=1.0)) ** 2)
        sum_d = np.sum(residuals(probe, series, u_pos, u_neg, FitConfig(lam=0.0)) ** 2)
        lam = 0.3
        mixed = np.sum(residuals(probe, series, u_pos, u_neg, FitConfig(lam=lam)) ** 2)
        expected = lam * sum_v + (1.0 - lam) * sum_d
        assert mixed == pytest.approx(expected, rel=1e-12)

    def test_blocks_equal_public_model_minus_measurement(self, analytic_curves):
        # The objective and predict_voltage/predict_dvdq share one kernel,
        # so the channels agree exactly, not just to round-off.
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, theta_true = _synth_series(u_pos, u_neg, theta, noise=1e-3)
        probe = ElectrodeParams(3.0, 2.9, 0.04, 0.95, theta_true.q_full)
        n = FitConfig().resample_points
        uniform = resample(series, n + 2)
        grid = uniform.q[1:-1]
        dvdq_meas = differentiate(uniform, SmoothingConfig())[1:-1]
        r_v = residuals(probe, series, u_pos, u_neg, FitConfig(lam=1.0))
        r_d = residuals(probe, series, u_pos, u_neg, FitConfig(lam=0.0))
        expected_v = predict_voltage(probe, grid, u_pos, u_neg) - uniform.v[1:-1]
        expected_d = predict_dvdq(probe, grid, u_pos, u_neg) - dvdq_meas
        assert np.array_equal(r_v[:n], expected_v)
        assert np.array_equal(r_d[n : 2 * n], expected_d)


def _jacobian_points(theta_true):
    qf = theta_true.q_full
    return {
        "truth": np.array(param_vector(theta_true)),
        "x_side": np.array([1.2 * qf, 3.0 * qf, 0.25, 0.95]),  # x100 = 1.08
        "y_side": np.array([2.0 * qf, 1.02 * qf, 0.05, 0.90]),  # y100 = -0.08
    }


class TestJacobian:
    # Every entry within 1e-6 of the largest |J| entry: a 3-point
    # difference with a 1e-7 relative step is good to about 1e-8 of the
    # scale here, and a wrong term is off by order one.
    TOL = 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("point", ["truth", "x_side", "y_side"])
    def test_matches_central_differences(self, analytic_curves, lam, point):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, theta_true = _synth_series(u_pos, u_neg, theta)
        vec = _jacobian_points(theta_true)[point]
        cfg = FitConfig(lam=lam)
        prob = _prepare(series, cfg)
        args = (prob, u_pos, u_neg, lam)

        # The penalty is active on the intended side only.
        qn, qp, x0, y0 = vec
        x, y = x0 + prob.q_grid / qn, y0 - prob.q_grid / qp
        exc = evaluate(vec, prob.q_grid, u_pos, u_neg).excursion
        assert np.any(exc > 0.0) == (point != "truth")
        assert np.all(x < 1.0) == (point != "x_side")
        assert np.all(y > 0.0) == (point != "y_side")

        jac = _stacked_jacobian(vec, *args)
        ref = approx_derivative(_stacked, vec, method="3-point", rel_step=1e-7, args=args)
        assert jac.shape == ref.shape == (3 * cfg.resample_points, 4)
        assert np.max(np.abs(jac - ref)) <= self.TOL * np.max(np.abs(jac))


    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_batched_rows_equal_single_vector_calls(self, analytic_curves, lam):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, theta_true = _synth_series(u_pos, u_neg, theta)
        cfg = FitConfig(lam=lam)
        args = (_prepare(series, cfg), u_pos, u_neg, lam)
        points = list(_jacobian_points(theta_true).values())
        batch = np.stack(points)
        r_batch, jac_batch = _stacked(batch, *args), _stacked_jacobian(batch, *args)
        n = 3 * cfg.resample_points
        assert r_batch.shape == (3, n) and jac_batch.shape == (3, n, 4)
        for k, vec in enumerate(points):
            assert np.array_equal(r_batch[k], _stacked(vec, *args))
            assert np.array_equal(jac_batch[k], _stacked_jacobian(vec, *args))


class TestSolve:
    @pytest.mark.parametrize("starts", [16, 4])
    def test_starts_do_not_couple(self, analytic_curves, starts):
        # Each start must end exactly where it ends when solved alone: the
        # lockstep batch shares arrays and calls, never arithmetic.
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, _ = _synth_series(u_pos, u_neg, theta, noise=1e-3)
        cfg = FitConfig(starts=starts)
        prob = _prepare(series, cfg)
        bounds = ParameterBounds.default(prob.q_full)
        lo, hi = bounds.lower(), bounds.upper()
        x0 = qmc.scale(qmc.LatinHypercube(d=4, seed=cfg.seed).random(n=starts), lo, hi)
        x_scale = np.array([prob.q_full, prob.q_full, 0.1, 0.1])
        args = (lo, hi, x_scale, prob, u_pos, u_neg, cfg)
        together = _solve(x0, *args)
        assert np.all((together.x >= lo) & (together.x <= hi))
        assert np.any(together.nfev != together.nfev[0])  # starts stopped apart
        for i in range(starts):
            alone = _solve(x0[i : i + 1], *args)
            assert np.array_equal(alone.x[0], together.x[i]), i
            assert alone.objective[0] == together.objective[i], i
            assert alone.status[0] == together.status[i], i
            assert alone.nfev[0] == together.nfev[i], i


class TestFit:
    def test_noise_free_round_trip(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, truth = _synth_series(u_pos, u_neg, theta)
        res = fit(series, u_pos, u_neg, FitConfig(seed=1))
        assert res.converged
        assert res.theta.qn_tilde == pytest.approx(truth.qn_tilde, rel=2e-3)
        assert res.theta.qp_tilde == pytest.approx(truth.qp_tilde, rel=2e-3)
        assert res.theta.x0_tilde == pytest.approx(truth.x0_tilde, abs=2e-3)
        assert res.theta.y0_tilde == pytest.approx(truth.y0_tilde, abs=2e-3)
        assert res.objective >= 0.0
        assert len(res.residual_series.q) == FitConfig().resample_points

    def test_discharge_counted_from_top_of_charge(self, analytic_curves):
        # The same curve logged as a discharge: capacity counts from the
        # charged state and the voltage falls.  The fit must recover the
        # parameters of the charge fit, not pin the capacities at a bound.
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        charge, truth = _synth_series(u_pos, u_neg, theta)
        discharge = CapacityVoltageSeries(
            q=charge.q_full - charge.q[::-1],
            v=charge.v[::-1],
            direction="discharge",
            c_rate=charge.c_rate,
        )
        cfg = FitConfig(seed=1, starts=4)
        ref = fit(charge, u_pos, u_neg, cfg)
        res = fit(discharge, u_pos, u_neg, cfg)
        assert res.converged
        assert res.rmse_voltage <= 1e-4
        for name in ("qn_tilde", "qp_tilde", "x0_tilde", "y0_tilde"):
            assert getattr(res.theta, name) == pytest.approx(
                getattr(ref.theta, name), rel=1e-6
            ), name
        assert res.theta.qn_tilde == pytest.approx(truth.qn_tilde, rel=2e-3)

    def test_objective_not_above_any_start(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, truth = _synth_series(u_pos, u_neg, theta)
        cfg = FitConfig(seed=2, starts=6)
        res = fit(series, u_pos, u_neg, cfg)
        assert len(res.start_records) == 6
        for rec in res.start_records:
            # Best final objective beats every start's final objective and
            # every start's own initial objective.
            assert res.objective <= rec.objective + 1e-12
            theta0 = ElectrodeParams(*rec.theta0, q_full=truth.q_full)
            r0 = residuals(theta0, series, u_pos, u_neg, cfg)
            assert res.objective <= np.sum(r0**2) + 1e-12

    def test_deterministic_under_seed(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, _ = _synth_series(u_pos, u_neg, theta, n=300)
        cfg = FitConfig(seed=7, starts=4, resample_points=200)
        a = fit(series, u_pos, u_neg, cfg)
        b = fit(series, u_pos, u_neg, cfg)
        assert a.theta == b.theta
        assert a.objective == b.objective
        assert a.rmse_voltage == b.rmse_voltage
        assert np.array_equal(a.residual_series.voltage, b.residual_series.voltage)

    def test_rmse_dvdq_invariant_under_voltage_offset(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, _ = _synth_series(u_pos, u_neg, theta, n=300)
        shifted = CapacityVoltageSeries(
            q=series.q, v=series.v + 0.05, direction="charge", c_rate=0.01
        )
        cfg = FitConfig(lam=0.0, seed=3, starts=4, resample_points=200)
        a = fit(series, u_pos, u_neg, cfg)
        b = fit(shifted, u_pos, u_neg, cfg)
        assert abs(a.rmse_dvdq - b.rmse_dvdq) < 1e-9

    def test_scale_equivariance(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, _ = _synth_series(u_pos, u_neg, theta)
        doubled = CapacityVoltageSeries(
            q=series.q * 2.0, v=series.v, direction="charge", c_rate=0.01
        )
        cfg = FitConfig(seed=3)
        a = fit(series, u_pos, u_neg, cfg)
        b = fit(doubled, u_pos, u_neg, cfg)
        assert b.theta.qn_tilde / 2.0 == pytest.approx(a.theta.qn_tilde, rel=1e-4)
        assert b.theta.qp_tilde / 2.0 == pytest.approx(a.theta.qp_tilde, rel=1e-4)
        assert b.theta.x0_tilde == pytest.approx(a.theta.x0_tilde, abs=1e-4)
        assert b.theta.y0_tilde == pytest.approx(a.theta.y0_tilde, abs=1e-4)

    def test_exhausted_iteration_budget_reports_non_convergence(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        theta = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.0)
        series, _ = _synth_series(u_pos, u_neg, theta, n=300)
        res = fit(
            series, u_pos, u_neg,
            FitConfig(seed=0, starts=2, max_iterations=1, resample_points=200),
        )
        assert not res.converged  # never a crash

    def test_capacity_spread_recovered_statistically(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        rng = np.random.default_rng(11)
        sigma = 0.028  # 1% of the mean positive capacity
        series_list = []
        for i in range(20):
            qp_i = rng.normal(2.80, sigma)
            theta_i = ElectrodeParams(2.95, qp_i, 0.035, 0.94, 1.0)
            series_i, _ = _synth_series(u_pos, u_neg, theta_i, seed=100 + i, n=300)
            series_list.append(series_i)
        cfg = FitConfig(seed=2, starts=8, resample_points=300)
        out = [fit(series, u_pos, u_neg, cfg) for series in series_list]
        assert all(r.converged for r in out)
        fitted_std = np.std([r.theta.qp_tilde for r in out], ddof=1)
        assert abs(fitted_std - sigma) / sigma <= 0.30
