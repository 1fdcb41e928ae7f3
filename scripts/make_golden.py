#!/usr/bin/env python3
"""Regenerate tests/golden/bmt_regression.csv from the constant-field oracle.

The golden rows come from the closed-form oracle, not from the RK4
integrator, so the regression test checks the integrator against an
independent source.  Run from the repository root:

    python scripts/make_golden.py
"""

from pathlib import Path

import numpy as np

from grasspin.bmt import BMTState, ConstantFieldOracle, PAIRS
from grasspin.config import load_config
from grasspin.fields import constant_f_lower

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "bmt_regression.yaml"
GOLDEN = ROOT / "tests" / "golden" / "bmt_regression.csv"


def golden_lines() -> list[str]:
    """Header and rows of the golden CSV, built from the oracle."""
    cfg = load_config(str(CONFIG))
    f_lo = constant_f_lower(cfg.field.e_field, cfg.field.b_field)
    state0 = BMTState(cfg.x0, cfg.u0, cfg.spin_tensor_matrix())
    oracle = ConstantFieldOracle(state0, f_lo, cfg.params)

    record = np.arange(0, cfg.steps + 1, cfg.record_every)
    if record[-1] != cfg.steps:
        record = np.append(record, cfg.steps)
    times = record * cfg.h
    traj = oracle.sample(times[1:])

    header = (
        ["s"]
        + [f"x{m}" for m in range(4)]
        + [f"u{m}" for m in range(4)]
        + [f"S{m}{n}" for m, n in PAIRS]
        + ["uu", "us_max", "ss"]
    )
    lines = [",".join(header)]

    def row(s, x, u, spin, uu, us, ss):
        vals = [s, *x, *u, *[spin[m, n] for m, n in PAIRS], uu, us, ss]
        return ",".join(repr(float(v)) for v in vals)

    uu0, us0, ss0 = state0.invariants()
    lines.append(row(0.0, state0.x, state0.u, state0.spin, uu0, us0, ss0))
    for i in range(len(traj)):
        lines.append(
            row(traj.s[i], traj.x[i], traj.u[i], traj.spin[i],
                traj.uu[i], traj.us_max[i], traj.ss[i])
        )
    return lines


def main() -> None:
    lines = golden_lines()
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(lines) - 1} rows)")


if __name__ == "__main__":
    main()
