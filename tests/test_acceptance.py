"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Stated runtime budgets assume a desk-class machine; each line
reports the measured wall time next to its budget.
"""

import time

import numpy as np
import pytest

from grasspin import (
    BMTState,
    ConstantFieldOracle,
    DirectField,
    ModelParams,
    PathVariation,
    Polynomial,
    SuperState,
    algebra,
    anomalous_precession,
    constant_f_lower,
    constant_field,
    integrate_bmt,
    integrate_super,
    leading_order,
    spin_velocity_angle,
)
from grasspin.grassmann import GrassmannNumber
from grasspin.minkowski import EPS_UPPER, SIGNS
from grasspin.super_dynamics import eom_rhs
from grasspin.variational import DiscretePath, stationarity_residual

from conftest import _dspin, boosted_velocity, field_corpus, gradient_b_field, standard_state

PERIOD = 2 * np.pi
XI_ROWS = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def spin_from_rows(rows):
    lo1, lo2 = SIGNS * rows[0], SIGNS * rows[1]
    return 0.5 * (np.outer(lo1, lo2) - np.outer(lo2, lo1))


def report(num, name, ok, detail, elapsed, budget=None):
    tag = "PASS" if ok else "FAIL"
    extra = f"; {elapsed:.1f}s" + (f" of {budget:.0f}s budget" if budget else "")
    print(f"[{tag}] criterion {num:02d} {name}: {detail}{extra}")
    assert ok, f"criterion {num} {name}: {detail}"


# ----------------------------------------------------------------------
# shared heavy runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bmt_ten_periods():
    """Constant B, gamma = 2, 10 gyration periods at h = T/1000."""
    par = ModelParams(1.0, 1.0, 1.2)
    fld = constant_field([0, 0, 0], [0, 0, 1.0])
    st = BMTState(np.zeros(4), boosted_velocity(2.0), spin_from_rows(XI_ROWS))
    t0 = time.perf_counter()
    traj = integrate_bmt(st, fld, par, h=PERIOD / 1000, steps=10_000, record_every=100)
    elapsed = time.perf_counter() - t0
    return par, fld, st, traj, elapsed


@pytest.fixture(scope="module")
def equivalence_runs():
    """Projected full dynamics vs reduced dynamics, constant B, 10 periods."""
    runs = {}
    t0 = time.perf_counter()
    for mu_prime in (1.0, 1.2, 0.0):
        par = ModelParams(1.0, 1.0, mu_prime)
        fld = constant_field([0, 0, 0], [0, 0, 1.0])
        st = standard_state(algebra(4))
        traj = integrate_super(st, fld, par, h=PERIOD / 1000, steps=10_000,
                               record_every=100)
        red = leading_order(traj)
        bst = BMTState(np.zeros(4), boosted_velocity(2.0), spin_from_rows(XI_ROWS))
        btraj = integrate_bmt(bst, fld, par, h=PERIOD / 1000, steps=10_000,
                              record_every=100)
        runs[mu_prime] = (red, btraj)
    return runs, time.perf_counter() - t0


# ----------------------------------------------------------------------


def test_criterion_01_algebra_laws():
    t0 = time.perf_counter()
    worst = dict.fromkeys(("assoc", "dist", "supercomm", "inverse"), 0.0)
    for n in (4, 6):
        alg = algebra(n)
        rng = np.random.default_rng(100 + n)
        a, b, c = (rng.normal(size=(10_000, alg.dim)) for _ in range(3))
        scale = np.maximum(
            1.0,
            np.max(np.abs(a), 1) * np.max(np.abs(b), 1) * np.max(np.abs(c), 1),
        )[:, None]
        assoc = np.abs(alg.mul(alg.mul(a, b), c) - alg.mul(a, alg.mul(b, c))) / scale
        dist = np.abs(alg.mul(a + b, c) - (alg.mul(a, c) + alg.mul(b, c))) / scale
        worst["assoc"] = max(worst["assoc"], float(assoc.max()))
        worst["dist"] = max(worst["dist"], float(dist.max()))

        # supercommutativity on pure-parity slices of the same triples
        for pa in ("even", "odd"):
            for pb in ("even", "odd"):
                ap = np.where(alg.even_mask if pa == "even" else ~alg.even_mask, a, 0.0)
                bp = np.where(alg.even_mask if pb == "even" else ~alg.even_mask, b, 0.0)
                sign = -1.0 if pa == pb == "odd" else 1.0
                sc = np.maximum(1.0, np.max(np.abs(ap), 1) * np.max(np.abs(bp), 1))[:, None]
                diff = np.abs(alg.mul(ap, bp) - sign * alg.mul(bp, ap)) / sc
                worst["supercomm"] = max(worst["supercomm"], float(diff.max()))

        # round trip a * a^-1 = 1, scaled by operand size like the laws above:
        # coefficients of a^-1 carry roundoff relative to max|a^-1|
        even = np.where(alg.even_mask, rng.normal(size=(2000, alg.dim)), 0.0)
        even[:, 0] = np.where(np.abs(even[:, 0]) > 0.1, even[:, 0], 1.0)
        inv = alg.invert_even(even)
        unit = np.zeros(alg.dim)
        unit[0] = 1.0
        sc = np.maximum(1.0, np.max(np.abs(even), 1) * np.max(np.abs(inv), 1))[:, None]
        round_trip = np.abs(alg.mul(even, inv) - unit) / sc
        worst["inverse"] = max(worst["inverse"], float(round_trip.max()))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{law} {val:.2e}" for law, val in worst.items())
    report(1, "algebra-laws", all(v < 1e-12 for v in worst.values()),
           f"worst scaled defect {detail} (tol 1e-12)", elapsed, 10)


def test_criterion_02_maxwell_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    alg = algebra(4)
    worst = 0.0
    for name, fld in field_corpus():
        pts = rng.uniform(-2, 2, size=(100, 4))
        df = fld.df_lower_real(pts)
        res = np.einsum("mnrs,tnrs->tm", EPS_UPPER, df)
        worst = max(worst, float(np.max(np.abs(res))))
        # a few soul-carrying even points through the Grassmann path
        from grasspin.fields import maxwell_residual

        for _ in range(5):
            coeffs = np.zeros((4, alg.dim))
            coeffs[:, 0] = rng.uniform(-2, 2, size=4)
            coeffs[:, 3] = rng.uniform(-0.5, 0.5, size=4)   # theta1 theta2 soul
            point = [GrassmannNumber(alg, coeffs[mu]) for mu in range(4)]
            worst = max(worst, max(r.max_abs() for r in maxwell_residual(fld, point)))

    bad = DirectField({(1, 2): Polynomial.coordinate(3)})
    from grasspin.fields import maxwell_residual

    bad_res = max(
        r.max_abs() for r in maxwell_residual(bad, [0.0, 0.0, 0.0, 0.0])
    )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and bad_res > 0.1
    report(2, "maxwell-identity", ok,
           f"potential-derived max {worst:.2e} (tol 1e-12), non-closed {bad_res:.2f} (> 0.1)",
           elapsed, 1)


def _constraint_run(mu_prime, fld):
    par = ModelParams(1.0, 1.0, mu_prime)
    st = standard_state(algebra(4))
    return integrate_super(st, fld, par, h=1e-3, steps=10_000, record_every=2000)


def test_criterion_03_constraint_preservation():
    t0 = time.perf_counter()
    worst = 0.0
    for fld in (constant_field([0, 0, 0], [0, 0, 1.0]), gradient_b_field()):
        traj = _constraint_run(1.2, fld)
        worst = max(worst, float(traj.constraint_max.max()))
    elapsed = time.perf_counter() - t0
    report(3, "constraint-preservation", worst < 1e-9,
           f"max |xi.v| coefficient {worst:.2e} (tol 1e-9)", elapsed, 30)


def test_criterion_04_multiplier_degenerate_case():
    t0 = time.perf_counter()
    worst = 0.0
    for fld in (constant_field([0, 0, 0], [0, 0, 1.0]), gradient_b_field()):
        traj = _constraint_run(1.0, fld)
        worst = max(worst, float(traj.lambda_max.max()))
    elapsed = time.perf_counter() - t0
    report(4, "multiplier-degenerate-case", worst < 1e-14,
           f"max |lambda| coefficient {worst:.2e} (tol 1e-14) with mu' = e", elapsed)


def test_criterion_05_reduced_integrator_oracle(bmt_ten_periods):
    par, fld, st, traj, run_time = bmt_ten_periods
    t0 = time.perf_counter()
    f_lo = constant_f_lower([0, 0, 0], [0, 0, 1.0])
    oracle = ConstantFieldOracle(st, f_lo, par, refine=100)
    samp = oracle.sample(traj.s[1:], h_ref=PERIOD / 1000)
    err = max(
        np.max(np.abs(traj.x[1:] - samp.x)),
        np.max(np.abs(traj.u[1:] - samp.u)),
        np.max(np.abs(traj.spin[1:] - samp.spin)),
    )

    ref = oracle.sample(np.array([PERIOD]), h_ref=PERIOD / 2000)
    errs = []
    for steps in (200, 400):
        tr = integrate_bmt(st, fld, par, h=PERIOD / steps, steps=steps, record_every=steps)
        errs.append(
            max(
                np.max(np.abs(tr.x[-1] - ref.x[0])),
                np.max(np.abs(tr.u[-1] - ref.u[0])),
                np.max(np.abs(tr.spin[-1] - ref.spin[0])),
            )
        )
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0 + run_time
    ok = err < 1e-8 and 12.0 < ratio < 20.0
    report(5, "reduced-integrator-oracle", ok,
           f"10-period error {err:.2e} (tol 1e-8), halving ratio {ratio:.1f} in [12, 20]",
           elapsed, 10)


def test_criterion_06_equivalence_of_levels(equivalence_runs):
    runs, run_time = equivalence_runs
    t0 = time.perf_counter()
    devs = {}
    for mu_prime, (red, btraj) in runs.items():
        devs[mu_prime] = max(
            np.max(np.abs(red.x - btraj.x)),
            np.max(np.abs(red.u - btraj.u)),
            np.max(np.abs(red.spin - btraj.spin)),
        )

    # inhomogeneous field: measured, reported, no fixed threshold
    par = ModelParams(1.0, 1.0, 1.2)
    fld = gradient_b_field()
    st = standard_state(algebra(4))
    traj = integrate_super(st, fld, par, h=PERIOD / 1000, steps=2000, record_every=100)
    red = leading_order(traj)
    bst = BMTState(np.zeros(4), boosted_velocity(2.0), spin_from_rows(XI_ROWS))
    btraj = integrate_bmt(bst, fld, par, h=PERIOD / 1000, steps=2000, record_every=100)
    grad_dev = max(
        np.max(np.abs(red.x - btraj.x)),
        np.max(np.abs(red.u - btraj.u)),
        np.max(np.abs(red.spin - btraj.spin)),
    )
    elapsed = time.perf_counter() - t0 + run_time
    ok = all(d < 1e-6 for d in devs.values())
    detail = ", ".join(f"mu'={k:g}: {v:.2e}" for k, v in devs.items())
    report(6, "equivalence-of-levels", ok,
           f"constant-field deviations {detail} (tol 1e-6); "
           f"gradient-field deviation {grad_dev:.2e} (reported)", elapsed, 60)


def test_criterion_07_conserved_quantities(bmt_ten_periods):
    _, _, _, traj, _ = bmt_ten_periods
    t0 = time.perf_counter()
    uu = float(np.max(np.abs(traj.uu - traj.uu[0])))
    us = float(np.max(np.abs(traj.us_max - traj.us_max[0])))
    ss = float(np.max(np.abs(traj.ss - traj.ss[0])))
    elapsed = time.perf_counter() - t0
    ok = max(uu, us, ss) < 1e-8
    report(7, "conserved-quantities", ok,
           f"drifts u.u {uu:.2e}, u.S {us:.2e}, S.S {ss:.2e} (tol 1e-8)", elapsed)


def test_criterion_08_spin_transport_derivation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    alg = algebra(4)
    fld = gradient_b_field(0.07)
    worst = 0.0
    for _ in range(100):
        par = ModelParams(
            mass=float(rng.uniform(0.5, 2.0)),
            charge=float(rng.uniform(-1.5, 1.5)),
            mu_prime=float(rng.uniform(-1.5, 1.5)),
        )
        x_real = rng.uniform(-1, 1, size=4)
        p = rng.normal(size=3)
        u = np.concatenate([[np.sqrt(1 + p @ p)], p])
        rows = rng.normal(size=(2, 4))
        st = SuperState.from_real(x_real, u, rows, alg)
        _, _, dxi = eom_rhs(st, fld, par)
        dxi_lo = SIGNS[:, None] * np.stack([d.coeffs for d in dxi])
        xi_lo = SIGNS[:, None] * st.xi
        ds_block = 0.5 * (
            alg.mul(dxi_lo[:, None, :], xi_lo[None, :, :])
            + alg.mul(xi_lo[:, None, :], dxi_lo[None, :, :])
        )[..., 3]
        want = _dspin(fld.f_lower_real(x_real), u, spin_from_rows(rows), par)
        worst = max(worst, float(np.max(np.abs(ds_block - want))))
    elapsed = time.perf_counter() - t0
    report(8, "spin-transport-derivation", worst < 1e-12,
           f"max difference {worst:.2e} over 100 random states (tol 1e-12)", elapsed)


def test_criterion_09_action_stationarity():
    t0 = time.perf_counter()
    par = ModelParams(1.0, 1.0, 1.2)
    fld = constant_field([0, 0, 0], [0, 0, 1.0])
    alg = algebra(4)
    n_nodes = 2000
    h = PERIOD / n_nodes

    def solution(steps, step):
        traj = integrate_super(standard_state(alg), fld, par, h=step, steps=steps,
                               record_every=1)
        return DiscretePath.from_trajectory(traj)

    path = solution(n_nodes, h)
    path_fine = solution(2 * n_nodes, h / 2)

    rng = np.random.default_rng(999)
    specs = []
    for i in range(40):
        direction = rng.normal(size=4)
        direction /= np.max(np.abs(direction))
        specs.append(("x" if i < 20 else "xi", int(rng.integers(1, 5)), direction))

    def materialize(p, spec):
        kind, mode, direction = spec
        t = (p.s - p.s[0]) / (p.s[-1] - p.s[0])
        prof = np.sin(np.pi * mode * t)[:, None] * direction[None, :]
        prof[0] = 0.0
        prof[-1] = 0.0
        return PathVariation(dx=prof) if kind == "x" else PathVariation(dxi=prof)

    res = np.array([stationarity_residual(path, fld, par, materialize(path, s))
                    for s in specs])
    res_fine = np.array([stationarity_residual(path_fine, fld, par,
                                               materialize(path_fine, s))
                         for s in specs])
    ratio_even = float(np.mean(res[:20]) / np.mean(res_fine[:20]))
    ratio_odd = float(np.mean(res[20:]) / np.mean(res_fine[20:]))

    t_grid = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
    bad_x = path.x.copy()
    bad_x[:, 1, 0] += 0.02 * np.sin(np.pi * t_grid) ** 2
    bad = DiscretePath(alg, path.s.copy(), bad_x, path.xi.copy())
    res_bad = np.array([stationarity_residual(bad, fld, par, materialize(bad, s))
                        for s in specs])
    contrast = float(np.mean(res_bad) / np.mean(res))

    elapsed = time.perf_counter() - t0
    ok = 3.4 < ratio_even < 4.6 and 3.4 < ratio_odd < 4.6 and contrast > 10.0
    report(9, "action-stationarity", ok,
           f"halving ratios even {ratio_even:.2f}, odd {ratio_odd:.2f} in [3.4, 4.6]; "
           f"non-solution scores {contrast:.0f}x higher", elapsed, 60)


def test_criterion_10_anomalous_precession():
    t0 = time.perf_counter()
    fld = constant_field([0, 0, 0], [0, 0, 1.0])
    bst = BMTState(np.zeros(4), boosted_velocity(2.0), spin_from_rows(XI_ROWS))

    par_e = ModelParams(1.0, 1.0, 1.0)
    traj = integrate_bmt(bst, fld, par_e, h=PERIOD / 1000, steps=3000, record_every=20)
    _, rel = spin_velocity_angle(traj, axis=3)
    drift_per_period = float(np.max(np.abs(rel - rel[0]))) / 3.0

    rates = []
    anomalies = [0.0, 0.1, 0.2]
    for da in anomalies:
        par = ModelParams(1.0, 1.0, 1.0 + da)
        tr = integrate_bmt(bst, fld, par, h=PERIOD / 1000, steps=4000, record_every=25)
        rates.append(anomalous_precession(tr, axis=3))
    design = np.stack([np.array(anomalies), np.ones(3)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.array(rates), rcond=None)
    fit = design @ coef
    ss_res = float(np.sum((np.array(rates) - fit) ** 2))
    ss_tot = float(np.sum((np.array(rates) - np.mean(rates)) ** 2))
    r2 = 1.0 - ss_res / ss_tot

    elapsed = time.perf_counter() - t0
    ok = drift_per_period < 1e-6 and r2 > 0.999
    report(10, "anomalous-precession", ok,
           f"mu'=e drift {drift_per_period:.2e}/period (tol 1e-6); "
           f"linearity R^2 = {r2:.6f} (> 0.999)", elapsed)


def test_criterion_11_generator_count_independence(equivalence_runs):
    runs, _ = equivalence_runs
    t0 = time.perf_counter()
    par = ModelParams(1.0, 1.0, 1.2)
    fld = constant_field([0, 0, 0], [0, 0, 1.0])
    st6 = standard_state(algebra(6))
    traj6 = integrate_super(st6, fld, par, h=PERIOD / 1000, steps=10_000,
                            record_every=100)
    red6 = leading_order(traj6)
    red4, _ = runs[1.2]
    diff = max(
        np.max(np.abs(red4.x - red6.x)),
        np.max(np.abs(red4.u - red6.u)),
        np.max(np.abs(red4.spin - red6.spin)),
    )
    elapsed = time.perf_counter() - t0
    report(11, "generator-count-independence", diff < 1e-12,
           f"projected trajectories differ by {diff:.2e} for N = 4 vs 6 (tol 1e-12)",
           elapsed)
