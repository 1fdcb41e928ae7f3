"""Command-line front end.

Subcommands: simulate-bmt, simulate-super, compare, verify.  All take
--config PATH (YAML, see configs/) and optional --out PATH for the CSV
payload.  compare also takes --threshold to override the configured compare
tolerance, and verify takes --seed to override the configured seed; any
other subcommand given either flag exits 2.

Exit codes: 0 pass, 1 threshold fail, 2 configuration error, 3 numerical
abort.  CSV goes to --out when given, else to stdout (the human summary
then moves to stderr), and all numbers carry full round-trip precision so
identical config + seed reproduce byte-identical output.

The argument parser is built once per process, at the first ``main`` call,
and reused by every later call.

simulate-super, compare and verify run in algebra(2) through ``_super_run``:
theta1 and theta2, which initial.spin.xi loads, are the only generators a run
reaches.  So output.coefficient_masks names slots of the theta1 theta2 block,
0 to 3, and algebra.n_generators sets only the algebra of verify's Maxwell
points.  A run whose
records and per-step monitors would exceed ``MAX_RECORD_BYTES`` (for verify,
both its runs) exits 2 before any state is built; a non-finite run exits 3.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bmt import BMTState, integrate_bmt
from .config import ConfigError, RunConfig, load_config
from .fields import maxwell_residual
from .grassmann import GrassmannNumber, algebra
from .minkowski import PAIRS, pack_pairs
from .super_dynamics import NumericalAbortError, SuperState, integrate_super, leading_order
from .variational import (
    MIN_INTERVALS, DiscretePath, PathVariation, euler_lagrange_residual, stationarity_residual,
)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Bytes that one Grassmann run may keep in records and monitors.
MAX_RECORD_BYTES = 10**9


def _emit_csv(out_path: str | None, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows.tolist())
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _summary_stream(out_path: str | None):
    return sys.stdout if out_path else sys.stderr


def _check_finite(*arrays) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericalAbortError("non-finite values in trajectory")


_STATE_HEADER = (
    ["s"]
    + [f"x{m}" for m in range(4)]
    + [f"u{m}" for m in range(4)]
    + [f"S{m}{n}" for m, n in PAIRS]
)


def _state_columns(s, x, u, spin) -> list:
    """The columns under ``_STATE_HEADER`` of states (R,), (R, 4), (R, 4, 4)."""
    return [s, x, u, pack_pairs(spin)]


def _potential_field(cfg: RunConfig):
    fld = cfg.build_field()
    if not hasattr(fld, "potential"):
        raise ConfigError("field.kind direct is only supported by verify")
    return fld


def _bmt_run(cfg: RunConfig, fld):
    state0 = BMTState(cfg.x0, cfg.u0, cfg.spin_tensor_matrix())
    return integrate_bmt(state0, fld, cfg.params, cfg.h, cfg.steps, cfg.record_every)


def _record_bytes(steps: int, record_every: int) -> int:
    """Bytes one ``integrate_super`` run in algebra(2) keeps until it returns:
    R records of x, v, xi (384 B) and monitors of steps + 1 states (<= 192 B;
    the map form of a constant field keeps 24 B, plus transient block arrays
    whose size does not grow with the run)."""
    records = len(range(0, steps, record_every)) + 1
    return records * 3 * 4 * 4 * 8 + (steps + 1) * 6 * 4 * 8


def _super_run(cfg: RunConfig, fld, h: float, steps: int, record_every: int):
    """cfg's xi rows integrated in algebra(2) and checked finite; refused
    before any state is built if over budget."""
    if cfg.xi_coeffs is None:
        raise ConfigError("initial.spin.xi is required for the full dynamics")
    size = _record_bytes(steps, record_every)
    if size > MAX_RECORD_BYTES:
        raise ConfigError(
            f"records of {steps} steps would take {size / 1e9:.1f} GB, above "
            f"{MAX_RECORD_BYTES / 1e9:.1f} GB; lower integrator.steps ({cfg.steps}) or raise "
            f"integrator.record_every ({cfg.record_every})")
    state0 = SuperState.from_real(cfg.x0, cfg.u0, cfg.xi_coeffs, algebra(2))
    traj = integrate_super(state0, fld, cfg.params, h, steps, record_every)
    _check_finite(traj.x, traj.v, traj.xi)
    return traj


# ----------------------------------------------------------------------
# simulate-bmt
# ----------------------------------------------------------------------


def _cmd_simulate_bmt(cfg: RunConfig, out_path: str | None) -> int:
    if cfg.spin_tensor is None:
        raise ConfigError("initial.spin.s_tensor is required by simulate-bmt")
    traj = _bmt_run(cfg, _potential_field(cfg))
    _emit_csv(
        out_path,
        _STATE_HEADER + ["uu", "us_max", "ss"],
        np.column_stack(_state_columns(traj.s, traj.x, traj.u, traj.spin)
                        + [traj.uu, traj.us_max, traj.ss]),
    )

    stream = _summary_stream(out_path)
    ok = True
    for name, series in (("uu_drift", traj.uu), ("us_drift", traj.us_max), ("ss_drift", traj.ss)):
        value, limit = float(np.max(np.abs(series - series[0]))), cfg.thresholds[name]
        ok = ok and value < limit
        print(f"{name}: {value:.3e} (limit {limit:.1e}) "
              f"{'ok' if value < limit else 'EXCEEDED'}", file=stream)
    return EXIT_OK if ok else EXIT_THRESHOLD


# ----------------------------------------------------------------------
# simulate-super
# ----------------------------------------------------------------------


def _cmd_simulate_super(cfg: RunConfig, out_path: str | None) -> int:
    traj = _super_run(cfg, _potential_field(cfg), cfg.h, cfg.steps, cfg.record_every)
    red = leading_order(traj)

    header = _STATE_HEADER + ["constraint", "lambda"]
    rec = traj.steps_recorded
    columns = _state_columns(traj.s, red.x, red.u, red.spin) + [
        traj.constraint_max[rec], traj.lambda_max[rec]]
    for mask in cfg.coefficient_masks:
        header += [f"{name}{m}_c{mask}" for name in ("x", "u", "xi") for m in range(4)]
        columns += [a[..., mask] for a in (traj.x, traj.v, traj.xi)]
    _emit_csv(out_path, header, np.column_stack(columns))

    con = float(np.max(traj.constraint_max))
    lam = float(np.max(traj.lambda_max))
    vv_drift = float(np.max(np.abs(traj.vv_body - traj.vv_body[0])))
    limit = cfg.thresholds["constraint"]
    stream = _summary_stream(out_path)
    zero_xi = [m for m in range(4) if not np.any(traj.xi[0, m])]
    if zero_xi:
        print(f"note: xi components {zero_xi} are identically zero", file=stream)
    print(f"constraint_max: {con:.3e} (limit {limit:.1e}) "
          f"{'ok' if con < limit else 'EXCEEDED'}", file=stream)
    print(f"lambda_max: {lam:.3e}", file=stream)
    print(f"vv_body_drift: {vv_drift:.3e}", file=stream)
    return EXIT_OK if con < limit else EXIT_THRESHOLD


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _cmd_compare(cfg: RunConfig, out_path: str | None, threshold: float | None) -> int:
    fld = _potential_field(cfg)
    traj = _super_run(cfg, fld, cfg.h, cfg.steps, cfg.record_every)
    red = leading_order(traj)
    btraj = _bmt_run(cfg, fld)

    dev_x = np.max(np.abs(red.x - btraj.x), axis=1)
    dev_u = np.max(np.abs(red.u - btraj.u), axis=1)
    dev_s = np.max(np.abs(red.spin - btraj.spin), axis=(1, 2))
    _emit_csv(out_path, ["s", "dev_x", "dev_u", "dev_spin"],
              np.column_stack([red.s, dev_x, dev_u, dev_s]))

    tol = threshold if threshold is not None else cfg.compare_threshold
    worst = float(max(dev_x.max(), dev_u.max(), dev_s.max()))
    stream = _summary_stream(out_path)
    print(f"max deviation x: {dev_x.max():.3e}", file=stream)
    print(f"max deviation u: {dev_u.max():.3e}", file=stream)
    print(f"max deviation spin: {dev_s.max():.3e}", file=stream)
    if not cfg.compare_enforce:
        print(f"threshold {tol:.1e} not enforced (reporting only)", file=stream)
        return EXIT_OK
    print(f"threshold {tol:.1e}: {'ok' if worst < tol else 'EXCEEDED'}", file=stream)
    return EXIT_OK if worst < tol else EXIT_THRESHOLD


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _random_even_points(rng, alg, count):
    """Mix of real and soul-carrying even evaluation points."""
    pts = []
    even_masks = np.flatnonzero(alg.even_mask)[1:]
    for k in range(count):
        body = rng.uniform(-2.0, 2.0, size=4)
        coeffs = np.zeros((4, alg.dim))
        coeffs[:, 0] = body
        if k % 4 == 0 and alg.n >= 2:
            for mu in range(4):
                coeffs[mu, rng.choice(even_masks)] += rng.uniform(-0.5, 0.5)
        pts.append(coeffs)
    return pts


def _cmd_verify(cfg: RunConfig, out_path: str | None, seed: int | None) -> int:
    fld = cfg.build_field()
    alg = algebra(cfg.n_generators)
    seed = cfg.seed if seed is None else seed
    vcfg = cfg.verify
    checks: list[tuple[str, bool, str]] = []

    # Maxwell residual at randomized points
    tol = vcfg["maxwell_tol"]
    count = vcfg["points"]
    worst = 0.0
    for coeffs in _random_even_points(np.random.default_rng(seed), alg, count):
        # the residual at a point lives in the generators the point loads
        sub, _, (coeffs,) = alg.subalgebra(coeffs)
        point = [GrassmannNumber(sub, coeffs[mu]) for mu in range(4)]
        res = maxwell_residual(fld, point)
        worst = max(worst, max(r.max_abs() for r in res))
    expect_fail = vcfg["expect_maxwell_fail"]
    if expect_fail:
        ok = worst > 0.1
        checks.append(("maxwell", ok, f"max residual {worst:.3e} expected to exceed 0.1"))
    else:
        ok = worst < tol
        checks.append(("maxwell", ok, f"max residual {worst:.3e} vs {tol:.1e}"))

    has_potential = hasattr(fld, "potential")
    if has_potential and cfg.xi_coeffs is not None:
        if cfg.steps < MIN_INTERVALS:
            raise ConfigError(f"integrator.steps must be >= {MIN_INTERVALS} for verify, "
                              f"got {cfg.steps}")
        size = _record_bytes(2 * cfg.steps, 1) + _record_bytes(cfg.steps, 1)
        if size > MAX_RECORD_BYTES:   # both runs are kept: refused before either starts
            raise ConfigError(
                f"verify's two runs would take {size / 1e9:.1f} GB, above "
                f"{MAX_RECORD_BYTES / 1e9:.1f} GB; lower integrator.steps ({cfg.steps})")
        traj = _super_run(cfg, fld, cfg.h, cfg.steps, 1)
        traj_f = _super_run(cfg, fld, cfg.h / 2.0, 2 * cfg.steps, 1)
        con_tol = vcfg["constraint_tol"]
        con = float(np.max(traj.constraint_max))
        checks.append(("constraint", con < con_tol, f"max |xi.v| {con:.3e} vs {con_tol:.1e}"))

        # the paths read the records in place; nothing writes to either
        path = DiscretePath(traj.alg, traj.s, traj.x, traj.xi)
        path_f = DiscretePath(traj_f.alg, traj_f.s, traj_f.x, traj_f.xi)
        n_var = vcfg["variations"]
        res_h, res_h2 = [], []
        # own stream: how many numbers the Maxwell points draw depends on N
        for spec in _variation_specs(np.random.default_rng([seed, 1]), n_var):
            res_h.append(
                stationarity_residual(path, fld, cfg.params, _materialize(spec, path.s))
            )
            res_h2.append(
                stationarity_residual(path_f, fld, cfg.params, _materialize(spec, path_f.s))
            )
        mean_h = float(np.mean(res_h))
        mean_h2 = float(np.mean(res_h2))
        lo, hi = vcfg["ratio_band"]
        cap = vcfg["stationarity_cap"]
        ratio = mean_h / mean_h2 if mean_h2 > 0 else float("inf")
        ok = (mean_h < cap) and (lo <= ratio <= hi or mean_h < 1e-12)
        checks.append(
            ("stationarity", ok,
             f"residual {mean_h:.3e} (cap {cap:.1e}), halving ratio {ratio:.2f} in [{lo}, {hi}]")
        )

        if out_path:
            el = euler_lagrange_residual(path, fld, cfg.params)
            _emit_csv(out_path, ["s", "x_residual", "xi_residual"],
                      np.column_stack([el.s, el.x_residual, el.xi_residual]))

    stream = sys.stdout
    all_ok = True
    for name, ok, detail in checks:
        all_ok = all_ok and ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", file=stream)
    return EXIT_OK if all_ok else EXIT_THRESHOLD


def _variation_specs(rng, n_var: int) -> list[dict]:
    """Random smooth bump descriptions, alternating even and odd targets."""
    specs = []
    for k in range(n_var):
        direction = rng.normal(size=4)
        direction /= np.max(np.abs(direction))
        specs.append({
            "kind": "x" if k % 2 == 0 else "xi",
            "mode": int(rng.integers(1, 4)),
            "direction": direction,
        })
    return specs


def _materialize(spec: dict, s_grid: np.ndarray) -> PathVariation:
    """Sample a bump spec on a grid; endpoints are zeroed exactly."""
    t = (s_grid - s_grid[0]) / (s_grid[-1] - s_grid[0])
    prof = np.sin(np.pi * spec["mode"] * t)[:, None] * spec["direction"][None, :]
    prof[0] = 0.0
    prof[-1] = 0.0
    if spec["kind"] == "x":
        return PathVariation(dx=prof)
    return PathVariation(dxi=prof)


# ----------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasspin",
        description="Spinning-particle dynamics with anticommuting spin variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name)
            for name in ("simulate-bmt", "simulate-super", "compare", "verify")}
    for sp in subs.values():
        sp.add_argument("--config", required=True, help="YAML run configuration")
        sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    subs["compare"].add_argument("--threshold", type=_positive_float, default=None,
                                 help="override the compare threshold")
    subs["verify"].add_argument("--seed", type=_seed, default=None,
                                help="override the configured random seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "simulate-bmt":
            return _cmd_simulate_bmt(cfg, args.out)
        if args.command == "simulate-super":
            return _cmd_simulate_super(cfg, args.out)
        if args.command == "compare":
            return _cmd_compare(cfg, args.out, args.threshold)
        return _cmd_verify(cfg, args.out, args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbortError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
