"""Micro-timings of single layers, beside the ROADMAP baseline.

Each figure is the median over repeats of the mean time per call, with the
repeat sized to about 20 ms.  Inputs come from the given seed.  Run alone
to print the comparison table:

    python3 bench/micro.py [--seed N]
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # pin BLAS threads before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

import inputs

# The ROADMAP "Baseline" table (2 cores, one BLAS thread).  A pair
# is a measured range.  The product rows there are for a 4-vector operand,
# which is batch 4 here.
BASELINE = {
    "grassmann.mul.n4.b4_us": 7.0,
    "grassmann.mul.n6.b4_us": 37.0,
    "grassmann.mul.n8.b4_us": (1000.0, 4700.0),
    "super_dynamics.eom_rhs.const_n4_us": 240.0,
    "super_dynamics.eom_rhs.const_n6_us": 900.0,
    "super_dynamics.integrate_super.step_n4_const_us": 1500.0,
    "super_dynamics.integrate_super.step_n4_grad_us": 2700.0,
    "super_dynamics.integrate_super.step_n6_const_us": 4100.0,
    "super_dynamics.integrate_super.step_n6_grad_us": 6300.0,
    "bmt.integrate_bmt.step_us": 261.0,
    "bmt.oracle.state_at_s": 1.2,
}


def per_call(fn, target_s: float = 0.02, repeat: int = 5) -> float:
    """Median over ``repeat`` repeats of the mean seconds per call."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    number = max(1, int(target_s / max(once, 1e-9)))
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def _even_element(rng, alg, batch=()):
    a = np.zeros(batch + (alg.dim,))
    a[..., alg.even_mask] = 0.3 * rng.normal(size=batch + (int(alg.even_mask.sum()),))
    a[..., 0] = 1.5
    return a


def _state(rng, alg, rows: int):
    from grasspin import SuperState

    u0 = inputs.boosted_velocity(rng, 1.2, 3.0)
    xi = inputs.orthogonal_rows(rng, u0, rows, 1.0)
    return SuperState.from_real(np.zeros(4), u0, xi, alg)


def _fields(rng):
    from grasspin import FieldConfig, constant_field

    c = inputs.constant_field_spec(rng)
    p = inputs.polynomial_field_spec(rng)["terms"]
    grad = FieldConfig.from_entries((t["component"], tuple(t["exponents"]), t["coefficient"]) for t in p)
    return {"const": constant_field(c["E"], c["B"]), "grad": grad}


def measure(seed: int) -> dict[str, float]:
    from grasspin import (BMTState, ConstantFieldOracle, DiscretePath, ModelParams, action,
                          algebra, constant_f_lower, eom_rhs, integrate_bmt, integrate_super)

    rng = np.random.default_rng(seed)
    us = 1e6
    out: dict[str, float] = {}

    for n in (4, 6, 8):
        alg = algebra(n)
        for b in (1, 4, 256):
            if b == 256 and n == 8:
                continue
            shape = () if b == 1 else (b,)
            a, c = rng.normal(size=shape + (alg.dim,)), rng.normal(size=shape + (alg.dim,))
            out[f"grassmann.mul.n{n}.b{b}_us"] = us * per_call(lambda: alg.mul(a, c))

    alg6 = algebra(6)
    even = _even_element(rng, alg6)
    out["grassmann.invert_even.n6_us"] = us * per_call(lambda: alg6.invert_even(even))

    fields = _fields(rng)
    alg4 = algebra(4)
    bodies = rng.uniform(-0.5, 0.5, size=4)
    souls = np.zeros((4, alg4.dim))
    souls[:, alg4.even_mask] = 0.05 * rng.normal(size=(4, int(alg4.even_mask.sum())))
    souls[:, 0] = 0.0
    grad = fields["grad"]
    out["fields.f_lower_coeffs.real_us"] = us * per_call(lambda: grad.f_lower_coeffs(bodies, None, alg4))
    out["fields.f_lower_coeffs.soul_us"] = us * per_call(lambda: grad.f_lower_coeffs(bodies, souls, alg4))

    par = ModelParams(1.0, 1.0, 1.2)
    h = 0.02
    for n in (4, 6):
        state = _state(rng, algebra(n), 2)
        for kind, fld in fields.items():
            out[f"super_dynamics.eom_rhs.{kind}_n{n}_us"] = us * per_call(
                lambda: eom_rhs(state, fld, par))
            k = 4
            out[f"super_dynamics.integrate_super.step_n{n}_{kind}_us"] = us / k * per_call(
                lambda: integrate_super(state, fld, par, h, k), repeat=3)

    u0 = inputs.boosted_velocity(rng, 1.2, 3.0)
    xi = inputs.orthogonal_rows(rng, u0, 2, 1.0)
    spin = np.zeros((4, 4))
    for val, (m, n) in zip(inputs.spin_pairs(xi), inputs.PAIRS):
        spin[m, n], spin[n, m] = val, -val
    bstate = BMTState(np.zeros(4), u0, spin)
    k = 100
    out["bmt.integrate_bmt.step_us"] = us / k * per_call(
        lambda: integrate_bmt(bstate, fields["const"], par, h, k))

    c = inputs.constant_field_spec(rng)
    oracle = ConstantFieldOracle(bstate, constant_f_lower(c["E"], c["B"]), par)
    h_ref = 2 * np.pi / 1000
    out["bmt.oracle.state_at_s"] = per_call(lambda: oracle.state_at(1000 * h_ref, h_ref), repeat=3)

    # 200-node path at N = 4 with every generator loaded and soul-carrying x.
    state = _state(rng, alg4, 4)
    s = h * np.arange(200)
    x = np.repeat(state.x[None], 200, axis=0)
    x[:, :, 0] += s[:, None] * state.v[None, :, 0]
    x[:, :, 3] = 0.01 * np.sin(s)[:, None]
    path = DiscretePath(alg4, s, x, np.repeat(state.xi[None], 200, axis=0))
    out["variational.action.p200_us"] = us * per_call(lambda: action(path, grad, par))
    return out


def baseline_report(measured: dict[str, float]) -> list[str]:
    """One line per baseline entry: measured, baseline, ratio, 2x flag."""
    lines = []
    for name, base in BASELINE.items():
        value = measured[name]
        lo, hi = base if isinstance(base, tuple) else (base, base)
        ratio = value / lo if value < lo else value / hi if value > hi else 1.0
        flag = "  FLAG >2x off" if ratio > 2.0 or ratio < 0.5 else ""
        shown = f"{lo:g}-{hi:g}" if lo != hi else f"{lo:g}"
        lines.append(f"{name}: {value:.4g} vs baseline {shown} (x{ratio:.2f}){flag}")
    return lines


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    result = measure(args.seed)
    for key, value in result.items():
        print(f"{key} = {value:.4g}")
    print("\n".join(baseline_report(result)))
