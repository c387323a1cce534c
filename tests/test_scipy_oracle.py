"""The numpy code that stands in for scipy at run time, checked against scipy.

scipy is a test dependency only.  The PCHIP interpolant, the
Latin-hypercube starts, the trapezoid capacity sum and the two root
finders must equal scipy's bit for bit.  The Savitzky-Golay filter sums
its interior in another order than scipy, so it is held to a stated
tolerance there, and to equality at the edges.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator
from scipy.optimize import bisect, brentq
from scipy.signal import savgol_filter
from scipy.stats import qmc

from dvafit import synth
from dvafit.curves import (
    CapacityVoltageSeries,
    SmoothingConfig,
    _evaluate_pieces,
    _pchip_pieces,
    _savgol,
    differentiate,
    resample,
)
from dvafit.dataio import format_float, parse_full_cell, parse_reference_curve
from dvafit.fitting import _latin_hypercube
from dvafit.synth import (
    DegradationSpec,
    SynthSpec,
    _bisect,
    _brentq,
    analytic_reference_curves,
    degrade,
    generate,
    implied_v_min,
)

from conftest import DATA_DIR

# Largest savgol difference from scipy, relative to the largest absolute
# value of scipy's output, for windows up to 25.  The weights are bitwise
# scipy's; only the order of the interior sums differs.
SAVGOL_REL_TOL = 1e-12


def _random_grids(count, seed=0):
    """Non-uniform grids whose data has flat runs, sign changes and steps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 60))
        x = np.cumsum(rng.uniform(1e-3, 2.0, n))
        y = rng.normal(size=n)
        y[rng.random(n) < 0.3] = 0.0
        if rng.random() < 0.5:
            y = np.round(y)
        yield x, y


def _grids():
    for role in ("pos", "neg"):
        curve = parse_reference_curve(DATA_DIR / f"u_{role}.csv")
        yield curve.stoich_grid, curve.potential
    for curve in analytic_reference_curves():
        yield curve.stoich_grid, curve.potential
    yield from _random_grids(200)


class TestPchip:
    def test_pieces_are_scipys(self):
        for x, y in _grids():
            ref = PchipInterpolator(x, y)
            interior, (left, c3, c2, c1, c0, *_) = _pchip_pieces(x, y)
            assert np.array_equal(interior, ref.x[1:-1])
            assert np.array_equal(left, ref.x[:-1])
            for got, want in zip((c3, c2, c1, c0), ref.c[::-1]):
                assert np.array_equal(got, want)

    def test_values_are_scipys_inside_and_beyond(self):
        for x, y in _random_grids(50, seed=1):
            s = np.concatenate([np.linspace(x[0] - 1.0, x[-1] + 1.0, 301), x])
            (got,) = _evaluate_pieces(_pchip_pieces(x, y), s, (0,))
            assert np.array_equal(got, PchipInterpolator(x, y)(s))

    @pytest.mark.parametrize("n", [16, 333, 500, 2000])
    def test_resample_is_scipys(self, n):
        series = [parse_full_cell(DATA_DIR / name) for name in
                  ("example_cell.csv", "rate_check_c20.csv", "rate_check_c100.csv")]
        for x, y in _random_grids(30, seed=2):
            series.append(CapacityVoltageSeries(q=x, v=y, direction="charge", c_rate=0.1))
        for s in series:
            grid = np.linspace(s.q[0], s.q[-1], n)
            out = resample(s, n)
            assert np.array_equal(out.q, grid)
            assert np.array_equal(out.v, PchipInterpolator(s.q, s.v)(grid))


class TestLatinHypercube:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 123456789])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_starts_are_scipys(self, seed, n):
        lo = np.array([1.8, 1.8, 0.0, 0.7])
        hi = np.array([9.0, 9.0, 0.3, 1.0])
        want = qmc.scale(qmc.LatinHypercube(d=4, seed=seed).random(n=n), lo, hi)
        assert np.array_equal(_latin_hypercube(n, lo, hi, seed), want)


class TestTrapezoid:
    def test_time_log_capacity_is_scipys(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.cumsum(rng.uniform(0.5, 30.0, 2000))
        current = rng.normal(2.0, 0.5, t.size) * rng.choice([-1.0, 1.0], t.size)
        v = np.linspace(3.0, 4.2, t.size)
        rows = [f"{format_float(a)},{format_float(b)},{format_float(c)}"
                for a, b, c in zip(t, current, v)]
        path = tmp_path / "log.csv"
        path.write_text("time_s,current_a,voltage_v\n" + "\n".join(rows) + "\n")
        want = cumulative_trapezoid(np.abs(current), t, initial=0.0) / 3600.0
        assert np.array_equal(parse_full_cell(path).q, want)


def _traced(f, log):
    def g(x):
        log.append(x)
        return f(x)
    return g


class TestRootFinders:
    FUNCTIONS = [
        (lambda x: x**3 - 2.0, 0.0, 3.0),
        (lambda x: np.cos(x) - x, 0.0, 1.5),
        (lambda x: np.tanh(40.0 * (x - 0.3)), -1.0, 2.0),
        (lambda x: np.exp(x) - 1e3, 0.0, 10.0),
        (lambda x: (x - 0.5) ** 5, 0.0, 0.8),
        (lambda x: 1.0 if x > 0.25 else -1.0, 0.0, 1.0),
        (lambda x: np.arctan(5.0 * (x - 0.7)), -3.0, 1.0),
        (lambda x: x, -1.0, 0.0),
        # f(a) * f(m) underflows to zero here; comparing signs still closes on 0.3.
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
    ]

    @pytest.mark.parametrize("f, a, b", FUNCTIONS)
    @pytest.mark.parametrize("xtol", [0.3, 1e-3, 1e-9, 1e-12])
    @pytest.mark.parametrize("port, ref", [(_bisect, bisect), (_brentq, brentq)])
    def test_same_steps_and_root(self, f, a, b, xtol, port, ref):
        got_steps, want_steps = [], []
        got = port(_traced(f, got_steps), a, b, xtol)
        want = ref(_traced(f, want_steps), a, b, xtol=xtol)
        assert got == want
        assert got_steps == want_steps

    @pytest.mark.parametrize("f", [lambda x: x + 1.0, lambda x: 1e-200 * (x + 1.0)])
    @pytest.mark.parametrize("port, ref", [(_bisect, bisect), (_brentq, brentq)])
    def test_same_signs_rejected(self, f, port, ref):
        for solve in (lambda: ref(f, 0.0, 1.0), lambda: port(f, 0.0, 1.0, 1e-12)):
            with pytest.raises(ValueError, match="different signs"):
                solve()

    def test_synth_solves_are_scipys(self, monkeypatch):
        results = []

        def compare(port, ref):
            def run(f, a, b, xtol):
                got = port(f, a, b, xtol)
                results.append((ref.__name__, got, ref(f, a, b, xtol=xtol)))
                return got
            return run

        monkeypatch.setattr(synth, "_bisect", compare(_bisect, bisect))
        monkeypatch.setattr(synth, "_brentq", compare(_brentq, brentq))
        u_pos, u_neg = analytic_reference_curves()
        rng = np.random.default_rng(11)
        for _ in range(6):
            theta = synth.random_feasible_theta(rng, u_pos, u_neg, 4.1)
            v_min = implied_v_min(theta, u_pos, u_neg)
            spec = SynthSpec(theta_true=theta, noise_sigma_v=0.0, sample_count=64,
                             seed=0, v_min=v_min, v_max=4.1)
            _, theta = generate(spec, u_pos, u_neg)
            losses = DegradationSpec(*rng.uniform(0.0, 0.1, 3))
            degrade(theta, losses, u_pos, u_neg, v_min, 4.1)
        assert {name for name, _, _ in results} == {"bisect", "brentq"}
        for _, got, want in results:
            assert got == want


def _savgol_inputs():
    rng = np.random.default_rng(3)
    for n in (25, 60, 500, 3000):
        x = np.linspace(0.0, 2.0, n)
        yield rng.normal(size=n), x[1]
        yield 3.0 + np.sin(3.0 * x) + 1e-3 * rng.normal(size=n), x[1]


class TestSavgol:
    @pytest.mark.parametrize("window", [3, 5, 11, 25])
    @pytest.mark.parametrize("deriv", [0, 1])
    def test_close_to_scipy(self, window, deriv):
        for v, delta in _savgol_inputs():
            for order in range(min(window - 1, 6)):
                want = savgol_filter(v, window, order, deriv=deriv, delta=delta, mode="interp")
                got = _savgol(v, window, order, deriv, delta)
                half = window // 2
                assert np.array_equal(got[:half], want[:half])
                assert np.array_equal(got[-half:], want[-half:])
                scale = np.max(np.abs(want)) or 1.0
                assert np.max(np.abs(got - want)) <= SAVGOL_REL_TOL * scale

    def test_derivative_above_degree_is_zero(self):
        q = np.linspace(0.0, 2.0, 80)
        v = 3.0 + np.sin(q)
        delta = q[1] - q[0]
        want = savgol_filter(v, 5, 0, deriv=1, delta=delta, mode="interp")
        assert np.array_equal(want, np.zeros_like(v))
        assert np.array_equal(_savgol(v, 5, 0, 1, delta), want)
        series = CapacityVoltageSeries(q=q, v=v, direction="charge", c_rate=0.01)
        d = differentiate(series, SmoothingConfig(window_length=5, poly_order=0))
        assert np.array_equal(d, np.zeros_like(v))

