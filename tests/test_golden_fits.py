"""Fits pinned to the bit.

Three fits keep their fitted parameters (as ``float.hex``), objective,
evaluation count and every start's final objective: the bundled example
through ``dvafit fit``, an analytic-curve cell at the default settings and
a cell on the bundled curves with the 4-start, 2000-point settings.  A
change that claims to leave fits unchanged (a faster kernel, a new
interval search) must pass these as they stand.  The values were taken
with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; matrix products and LAPACK
solves may round differently under another BLAS build.
"""

import pytest

from dvafit import dataio
from dvafit.cli import main
from dvafit.fitting import FitConfig, fit
from dvafit.model import ElectrodeParams
from dvafit.synth import SynthSpec, analytic_reference_curves, generate, implied_v_min

from conftest import DATA_DIR

GOLDEN = {
    "example_cell": {
        "theta": ["0x1.799b45355dd74p+1", "0x1.66644d8e99e22p+1",
                  "0x1.1ebcbd5bd8ce1p-5", "0x1.e148d6a0acf2ap-1"],
        "objective": "0x1.8261f73acd776p-13",
        "iterations": 639,
        "starts": [
            "0x1.8261f73acdd46p-13", "0x1.c3b82e30d9626p+2", "0x1.8261f73acd906p-13",
            "0x1.c3b82e673ae26p+2", "0x1.8261f73acd882p-13", "0x1.8261f73acd872p-13",
            "0x1.8261f73acd9a7p-13", "0x1.8261f73acdc74p-13", "0x1.8261f73acd776p-13",
            "0x1.8261f73acd96ap-13", "0x1.8261f73acd93ap-13", "0x1.c3b82da12fdd2p+2",
            "0x1.c3b82d4dea1dap+2", "0x1.8261f73acd8f1p-13", "0x1.8261f73acda74p-13",
            "0x1.8261f73acd8cap-13",
        ],
    },
    "analytic_default": {
        "theta": ["0x1.868c15d84c49cp+1", "0x1.56f08973a2306p+1",
                  "0x1.71abd2afe523bp-5", "0x1.dc3d351ef087ep-1"],
        "objective": "0x1.16481b009665cp-3",
        "iterations": 614,
        "starts": [
            "0x1.16481b00968a1p-3", "0x1.16481b009665cp-3", "0x1.16481b00970cap-3",
            "0x1.16481b0096b9ep-3", "0x1.16481b00966ccp-3", "0x1.16481b0096a12p-3",
            "0x1.16481b00968adp-3", "0x1.16481b00966fcp-3", "0x1.16481b00966cdp-3",
            "0x1.16481b0096856p-3", "0x1.16481b00966efp-3", "0x1.07c119ac9107cp+3",
            "0x1.16481b009666ap-3", "0x1.16481b009665dp-3", "0x1.16481b00966c8p-3",
            "0x1.16481b00974f6p-3",
        ],
    },
    "bundled_4x2000": {
        "theta": ["0x1.7af41f1685d99p+1", "0x1.5e385cc84d7dfp+1",
                  "0x1.203c4657019d6p-5", "0x1.d24a3f0e3e3f0p-1"],
        "objective": "0x1.0cc35cc93ee89p+4",
        "iterations": 237,
        "starts": [
            "0x1.0cc35cc9bb64dp+4", "0x1.0cc35cf5ef955p+4", "0x1.0cc35ccb07a5cp+4",
            "0x1.0cc35cc93ee89p+4",
        ],
    },
}


def _pins(theta, objective, iterations, start_records):
    return {
        "theta": [float(v).hex() for v in
                  (theta.qn_tilde, theta.qp_tilde, theta.x0_tilde, theta.y0_tilde)],
        "objective": float(objective).hex(),
        "iterations": iterations,
        "starts": [float(s.objective).hex() for s in start_records],
    }


def _noisy_cell(u_pos, u_neg, theta, seed, samples):
    spec = SynthSpec(
        theta_true=theta,
        noise_sigma_v=1e-3,
        sample_count=samples,
        seed=seed,
        v_min=implied_v_min(theta, u_pos, u_neg),
        v_max=4.1,
    )
    return generate(spec, u_pos, u_neg)[0]


def test_cli_fit_of_the_bundled_example(tmp_path):
    argv = ["fit", "--config", str(DATA_DIR / "config.json"), "--out-dir", str(tmp_path),
            str(DATA_DIR / "example_cell.csv")]
    assert main(argv) == 0
    report = dataio.read_report(tmp_path / "example_cell.report.json")
    d = report.diagnostics
    assert _pins(report.theta, d.objective, d.iterations, d.start_records) == GOLDEN["example_cell"]


@pytest.mark.parametrize(
    "name, curves, theta, seed, samples, cfg",
    [
        ("analytic_default", "analytic", ElectrodeParams(3.05, 2.68, 0.045, 0.93, 1.0), 11, 500,
         FitConfig()),
        ("bundled_4x2000", "bundled", ElectrodeParams(2.96, 2.74, 0.035, 0.91, 1.0), 12, 1000,
         FitConfig(starts=4, resample_points=2000)),
    ],
)
def test_synthetic_cell(name, curves, theta, seed, samples, cfg):
    if curves == "analytic":
        u_pos, u_neg = analytic_reference_curves()
    else:
        u_pos, u_neg = (
            dataio.parse_reference_curve(DATA_DIR / f"u_{r}.csv") for r in ("pos", "neg")
        )
    series = _noisy_cell(u_pos, u_neg, theta, seed, samples)
    r = fit(series, u_pos, u_neg, cfg)
    assert _pins(r.theta, r.objective, r.iterations, r.start_records) == GOLDEN[name]
