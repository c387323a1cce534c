"""Forward model: capacity/stoichiometry transforms and predicted signals."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvafit.errors import InfeasibilityError
from dvafit.model import (
    ElectrodeParams,
    charged_stoichiometries,
    predict_dvdq,
    predict_voltage,
    q_of_x,
    q_of_y,
    stoich_profiles,
    x_of_q,
    y_of_q,
)

from conftest import feasible_thetas


class TestElectrodeParams:
    def test_rejects_nonpositive_capacities(self):
        with pytest.raises(InfeasibilityError, match="positive"):
            ElectrodeParams(-1.0, 2.0, 0.0, 1.0, 1.0)
        with pytest.raises(InfeasibilityError, match="positive"):
            ElectrodeParams(2.0, 2.0, 0.0, 1.0, 0.0)

    def test_rejects_out_of_range_discharged_stoichiometries(self):
        with pytest.raises(InfeasibilityError, match="x0_tilde"):
            ElectrodeParams(2.0, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(InfeasibilityError, match="y0_tilde"):
            ElectrodeParams(2.0, 2.0, 0.0, 0.0, 1.0)

    def test_feasibility_flags(self):
        ok = ElectrodeParams(2.0, 2.0, 0.1, 0.9, 1.0)
        assert ok.is_feasible and ok.is_strictly_feasible
        # x100 lands exactly on 1: feasible but not strictly.
        edge = ElectrodeParams(2.0, 4.0, 0.0, 1.0, 2.0)
        assert edge.x100_tilde == 1.0
        assert edge.is_feasible and not edge.is_strictly_feasible
        bad = ElectrodeParams(1.0, 4.0, 0.5, 1.0, 1.0)
        assert not bad.is_feasible
        with pytest.raises(InfeasibilityError, match="infeasible"):
            bad.require_feasible()

    def test_scaled_multiplies_capacities_only(self):
        p = ElectrodeParams(2.7, 2.66, 0.02, 0.93, 2.3)
        k = p.scaled(2.0)
        assert (k.qn_tilde, k.qp_tilde, k.q_full) == (5.4, 5.32, 4.6)
        assert (k.x0_tilde, k.y0_tilde) == (p.x0_tilde, p.y0_tilde)


class TestTransforms:
    def test_x_of_q_basics(self):
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.5)
        assert x_of_q(p, 0.5) == 0.5
        assert x_of_q(p, 0.0) == p.x0_tilde

    def test_x_of_q_worked_value(self):
        p = ElectrodeParams(2.70, 2.66, 0.02, 0.93, 2.30)
        assert x_of_q(p, 2.30) == pytest.approx(0.87185, abs=1e-5)

    def test_y_of_q_basics(self):
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.25)
        assert y_of_q(p, 0.25) == 0.75
        assert y_of_q(p, 0.0) == p.y0_tilde

    def test_y_of_q_worked_value(self):
        p = ElectrodeParams(2.70, 2.66, 0.02, 0.93, 2.30)
        assert y_of_q(p, 2.30) == pytest.approx(0.06534, abs=1e-5)

    def test_q_of_x_at_discharged_state_is_zero(self):
        p = ElectrodeParams(2.70, 2.66, 0.02, 0.93, 2.30)
        assert q_of_x(p, p.x0_tilde) == 0.0
        assert q_of_y(p, p.y0_tilde) == 0.0

    def test_q_of_x_below_cutoff_is_negative_virtual_capacity(self):
        p = ElectrodeParams(1.0, 1.0, 0.25, 1.0, 0.5)
        assert q_of_x(p, 0.0) == -0.25

    def test_round_trip_over_100_random_capacities(self):
        p = ElectrodeParams(2.70, 2.66, 0.02, 0.93, 2.30)
        q = np.random.default_rng(5).uniform(-1.0, 3.0, 100)
        assert np.max(np.abs(q_of_x(p, x_of_q(p, q)) - q)) <= 1e-12
        assert np.max(np.abs(q_of_y(p, y_of_q(p, q)) - q)) <= 1e-12

    @settings(max_examples=200)
    @given(feasible_thetas(), st.floats(-2.0, 6.0))
    def test_inverse_pair_identities(self, p, q):
        assert q_of_x(p, x_of_q(p, q)) == pytest.approx(q, abs=1e-12)
        assert q_of_y(p, y_of_q(p, q)) == pytest.approx(q, abs=1e-12)

    @settings(max_examples=200)
    @given(feasible_thetas())
    def test_soc_endpoints(self, p):
        assert x_of_q(p, 0.0) == p.x0_tilde
        assert y_of_q(p, 0.0) == p.y0_tilde
        assert x_of_q(p, p.q_full) == pytest.approx(p.x100_tilde, abs=1e-15)
        assert y_of_q(p, p.q_full) == pytest.approx(p.y100_tilde, abs=1e-15)

    @settings(max_examples=100)
    @given(feasible_thetas(), st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    def test_scale_equivariance_of_stoichiometry_profiles(self, p, k):
        # Power-of-two scalings are exact in floats, so the profiles must
        # match bitwise at corresponding capacities.
        q = np.linspace(0.0, p.q_full, 23)
        x1, y1 = stoich_profiles(p, q)
        x2, y2 = stoich_profiles(p.scaled(k), q * k)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)


class TestChargedStoichiometries:
    def test_vanishing_window_returns_discharged_state(self):
        p = ElectrodeParams(1.0, 1.0, 0.1, 0.9, 1e-12)
        pair = charged_stoichiometries(p)
        assert pair.x_tilde == pytest.approx(p.x0_tilde, abs=1e-10)
        assert pair.y_tilde == pytest.approx(p.y0_tilde, abs=1e-10)

    def test_unit_capacity_example(self):
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.8)
        pair = charged_stoichiometries(p)
        assert pair.x_tilde == pytest.approx(0.8, abs=1e-12)
        assert pair.y_tilde == pytest.approx(0.2, abs=1e-12)
        assert pair.q == 0.8

    def test_worked_values(self, example_theta):
        pair = charged_stoichiometries(example_theta)
        assert pair.x_tilde == pytest.approx(0.87185, abs=1e-5)
        assert pair.y_tilde == pytest.approx(0.06534, abs=1e-5)

    def test_infeasible_rejected(self):
        p = ElectrodeParams(1.0, 4.0, 0.5, 1.0, 1.0)
        with pytest.raises(InfeasibilityError):
            charged_stoichiometries(p)


class TestPredictVoltage:
    def test_flat_curves_give_constant_difference(self, flat_curves):
        u_pos, u_neg = flat_curves
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.9)
        v = predict_voltage(p, np.linspace(0, 0.9, 50), u_pos, u_neg)
        assert np.max(np.abs(v - 3.9)) <= 1e-12

    def test_linear_curves_hand_value(self, linear_curves):
        u_pos, u_neg = linear_curves
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.9)
        v = predict_voltage(p, np.array([0.5]), u_pos, u_neg)
        # U_pos(0.5) - U_neg(0.5) = 3.8 - 0.35
        assert v[0] == pytest.approx(3.45, abs=1e-12)

    def test_infeasible_parameters_raise_with_offending_capacity(self, linear_curves):
        u_pos, u_neg = linear_curves
        p = ElectrodeParams(1.0, 4.0, 0.5, 1.0, 1.0)  # x100 = 1.5
        q = np.linspace(0, 1.0, 20)
        with pytest.raises(InfeasibilityError) as err:
            predict_voltage(p, q, u_pos, u_neg)
        assert err.value.offending_q is not None
        assert err.value.offending_q > 0.5  # x exceeds 1 past q = 0.5

    @pytest.mark.parametrize("predict", [predict_voltage, predict_dvdq])
    def test_nan_capacity_raises_without_warning(self, analytic_curves, predict):
        u_pos, u_neg = analytic_curves
        p = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibilityError, match="q=nan"):
                predict(p, np.array([0.5, np.nan]), u_pos, u_neg)

    def test_strictly_increasing_on_dense_grid(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        p = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.80)
        q = np.linspace(0.0, p.q_full, 2000)
        v = predict_voltage(p, q, u_pos, u_neg)
        assert np.all(np.diff(v) > 0)


class TestPredictDvdq:
    def test_linear_curves_constant_slope(self, linear_curves):
        u_pos, u_neg = linear_curves
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.9)
        d = predict_dvdq(p, np.linspace(0, 0.9, 50), u_pos, u_neg)
        # -(-0.8)/1 - (-0.5)/1
        assert np.max(np.abs(d - 1.3)) <= 1e-12

    def test_flat_curves_zero_slope(self, flat_curves):
        u_pos, u_neg = flat_curves
        p = ElectrodeParams(1.0, 1.0, 0.0, 1.0, 0.9)
        d = predict_dvdq(p, np.linspace(0, 0.9, 50), u_pos, u_neg)
        assert np.max(np.abs(d)) <= 1e-12

    def test_matches_finite_differences_of_voltage(self, analytic_curves):
        u_pos, u_neg = analytic_curves
        p = ElectrodeParams(2.95, 2.80, 0.035, 0.94, 1.80)
        q = np.linspace(0.0, p.q_full, 2001)
        v = predict_voltage(p, q, u_pos, u_neg)
        d = predict_dvdq(p, q, u_pos, u_neg)
        h = q[1] - q[0]
        central = (v[2:] - v[:-2]) / (2.0 * h)
        assert np.max(np.abs(d[1:-1] - central)) <= 1e-3
