"""Regenerate the bundled data/ fixtures.

Deterministic: running this twice produces byte-identical files.  The
rate-check pair encodes the published C/20 vs C/100 screen (2.50 Ah vs
2.52 Ah, ratio 0.992); the example cell is a noise-free synthetic
measurement with its ground truth stored alongside for round-trip tests
and the README walkthrough.
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dvafit import (  # noqa: E402
    ElectrodeParams,
    SynthSpec,
    analytic_reference_curves,
    generate,
    implied_v_min,
)
from dvafit.curves import CapacityVoltageSeries  # noqa: E402
from dvafit.dataio import (  # noqa: E402
    dumps_canonical,
    write_full_cell,
    write_reference_curve,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")

# Ground truth of the bundled example cell.
EXAMPLE_THETA = dict(qn_tilde=2.95, qp_tilde=2.80, x0_tilde=0.035, y0_tilde=0.94)
EXAMPLE_V_MAX = 4.20

# Published slow-rate screen: C/20 reaches 2.50 Ah, C/100 reaches 2.52 Ah.
RATE_Q_C20 = 2.50
RATE_Q_C100 = 2.52
C20_OVERPOTENTIAL_V = 0.005


def main():
    os.makedirs(DATA_DIR, exist_ok=True)
    u_pos, u_neg = analytic_reference_curves()
    write_reference_curve(u_pos, os.path.join(DATA_DIR, "u_pos.csv"))
    write_reference_curve(u_neg, os.path.join(DATA_DIR, "u_neg.csv"))

    theta = ElectrodeParams(q_full=1.0, **EXAMPLE_THETA)  # q_full solved below
    v_min = implied_v_min(theta, u_pos, u_neg)
    spec = SynthSpec(
        theta_true=theta,
        noise_sigma_v=0.0,
        sample_count=500,
        seed=20260815,
        v_min=v_min,
        v_max=EXAMPLE_V_MAX,
    )
    series, theta_true = generate(spec, u_pos, u_neg)
    write_full_cell(series, os.path.join(DATA_DIR, "example_cell.csv"))
    truth = {
        "cell_id": "example_cell",
        "theta": theta_true,
        "v_min": v_min,
        "v_max": EXAMPLE_V_MAX,
    }
    with open(os.path.join(DATA_DIR, "example_truth.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(truth))

    # Rate-check pair: same electrode state, capacity axis scaled to the
    # published totals; the faster curve carries a small constant
    # overpotential so the two files are distinguishable by more than
    # their endpoints.
    base, _ = generate(spec, u_pos, u_neg)
    c100 = CapacityVoltageSeries(
        q=base.q * (RATE_Q_C100 / base.q[-1]),
        v=base.v,
        direction="charge",
        c_rate=0.01,
        temperature_label="25C",
    )
    c20 = CapacityVoltageSeries(
        q=base.q * (RATE_Q_C20 / base.q[-1]),
        v=base.v + C20_OVERPOTENTIAL_V,
        direction="charge",
        c_rate=0.05,
        temperature_label="25C",
    )
    write_full_cell(c100, os.path.join(DATA_DIR, "rate_check_c100.csv"))
    write_full_cell(c20, os.path.join(DATA_DIR, "rate_check_c20.csv"))

    config = {
        "reference_curves": {"positive": "u_pos.csv", "negative": "u_neg.csv"},
        "fit": {
            "lambda": 0.5,
            "resample_points": 500,
            "starts": 16,
            "seed": 0,
            "max_iterations": 500,
            "tol_step": 1e-10,
            "tol_objective": 1e-10,
            "smoothing": {"window_length": 25, "poly_order": 3, "enabled": True},
        },
        "areal_basis_cm2": None,
        "output_dir": ".",
    }
    with open(os.path.join(DATA_DIR, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    print(f"fixtures written to {os.path.abspath(DATA_DIR)}")


if __name__ == "__main__":
    main()
