"""Reduced spin-precession system, its constant-field oracle, diagnostics."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import grasspin.bmt
import grasspin.fields
from grasspin import (
    BMTState,
    ConstantFieldOracle,
    FieldConfig,
    ModelParams,
    Polynomial,
    SuperState,
    algebra,
    anomalous_precession,
    bmt_rhs,
    constant_f_lower,
    constant_field,
    eom_rhs,
    integrate_bmt,
    spin_vector,
    spin_velocity_angle,
)
from grasspin.bmt import PAIRS, _expm
from grasspin.fields import _gathered
from grasspin.minkowski import SIGNS, minkowski_dot, pack_pairs, unpack_pairs
from grasspin.polynomials import _monomials
from grasspin.super_dynamics import NumericalAbortError, _body_run, rk4

from conftest import _dspin, _du, boosted_velocity, field_corpus, gradient_b_field

CORPUS = dict(field_corpus())


def bench_polynomial_field():
    """A field shaped like the benchmark's polynomial fields: B along x3
    with a gradient along x2, plus three small quadratic terms in A, one of
    them a square."""
    b0, g = 1.1, 0.05
    return FieldConfig.from_entries([
        (1, (0, 0, 1, 0), 0.5 * b0), (1, (0, 0, 2, 0), g / 4.0),
        (2, (0, 1, 0, 0), -0.5 * b0), (2, (0, 1, 1, 0), -g / 2.0),
        (3, (0, 2, 0, 0), 0.012), (0, (0, 0, 1, 1), -0.008), (2, (1, 0, 0, 1), 0.015),
    ])


def spin_from_generators(c1, c2):
    lo1, lo2 = SIGNS * np.asarray(c1, float), SIGNS * np.asarray(c2, float)
    return 0.5 * (np.outer(lo1, lo2) - np.outer(lo2, lo1))


def planar_state(gamma=2.0):
    # generators spanning the (2, 3) plane give a rest-frame spin along
    # axis 1; boosted along axis 1 the spin vector stays in the gyration
    # plane: s = (gamma beta / 2, gamma / 2, 0, 0)
    c1 = np.array([0.0, 0.0, 1.0, 0.0])
    c2 = np.array([0.0, 0.0, 0.0, 1.0])
    return BMTState(np.zeros(4), boosted_velocity(gamma), spin_from_generators(c1, c2))


def dspin_outer(f_lo, u, spin, par):
    """Spin transport written with two np.outer calls: the reference that
    ``_dspin``'s broadcast form must reproduce bit for bit."""
    fmix = f_lo * SIGNS[None, :]
    t1 = fmix @ spin
    t1 = par.mu_prime * (t1 - t1.T)
    q = SIGNS * (u @ f_lo)
    p = q @ spin
    u_lo = SIGNS * u
    t2 = par.anomaly * (np.outer(p, u_lo) - np.outer(u_lo, p))
    return (t1 + t2) / par.mass


def rates_24(fld, par):
    """Rate of the 24-vector (x, u, spin.ravel()) from ``_du`` and ``_dspin``:
    the reference that steps the whole 4 x 4 spin tensor."""
    def rates(y, i):
        x, u, spin = y[:4], y[4:8], y[8:].reshape(4, 4)
        f_lo = fld._f_const if fld.constant else fld.f_lower_real(x)
        return np.concatenate([u, _du(f_lo, u, par), _dspin(f_lo, u, spin, par).ravel()])
    return rates


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in ["x", "u", "spin", "s"] for bad in [np.nan, np.inf, -np.inf]
] + [("x", "short"), ("u", "text"), ("spin", "short")])
def test_state_rejects_non_finite(name, bad):
    args = {"x": np.zeros(4), "u": boosted_velocity(2.0),
            "spin": unpack_pairs([0.0, 0.0, 0.0, 0.0, 0.0, 0.5]), "s": 0.0}
    message = "must be finite"
    if bad == "short":   # 3 entries, or 3 rows of the spin tensor
        args[name], message = args[name][:3], "must hold"
    elif bad == "text":
        args[name], message = ["a"] * 4, "must hold 4 real numbers"
    elif name == "s":
        args["s"] = bad
    elif name == "spin":
        args["spin"][2, 3], args["spin"][3, 2] = bad, -bad   # antisymmetric
    else:
        args[name][3] = bad
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        BMTState(**args)


class TestBmtRhs:
    def test_zero_field(self, params):
        fld = FieldConfig([Polynomial.zero()] * 4)
        st = planar_state()
        dx, du, dspin = bmt_rhs(st, fld, params)
        assert np.allclose(dx, st.u)
        assert np.all(du == 0.0) and np.all(dspin == 0.0)

    def test_no_anomaly_drops_velocity_coupling(self, params_no_anomaly):
        e3, b3 = [0.2, -0.1, 0.4], [1.0, 0.3, -0.5]
        fld = constant_field(e3, b3)
        f = constant_f_lower(e3, b3)
        st = planar_state()
        _, _, dspin = bmt_rhs(st, fld, params_no_anomaly)
        fmix = f * SIGNS[None, :]
        t1 = fmix @ st.spin
        want = params_no_anomaly.mu_prime * (t1 - t1.T) / params_no_anomaly.mass
        assert np.allclose(dspin, want, atol=1e-14)

    def test_du_contraction_oracle(self, params):
        b = 1.4
        fld = constant_field([0, 0, 0], [0, 0, b])
        st = planar_state(gamma=2.0)
        _, du, _ = bmt_rhs(st, fld, params)
        # index oracle: du^mu = (e/m) eta^{mu a} F_{a b} eta^{b c} u_c (lowered u)
        f = constant_f_lower([0, 0, 0], [0, 0, b])
        want = np.zeros(4)
        for m in range(4):
            for n in range(4):
                want[m] += (
                    params.charge / params.mass * SIGNS[m] * f[m, n] * st.u[n]
                )
        assert np.allclose(du, want, atol=1e-14)
        # proper-time gyration: du1 = (e B/m) u2, du2 = -(e B/m) u1
        assert du[1] == pytest.approx(params.charge * b * st.u[2] / params.mass)
        assert du[2] == pytest.approx(-params.charge * b * st.u[1] / params.mass)

    def test_dspin_matches_outer_product_form(self):
        rng = np.random.default_rng(12)
        fields = [constant_f_lower([0, 0, 0], [0, 0, 1.0])]
        fields += [unpack_pairs(rng.normal(size=6)) for _ in range(50)]
        for f in fields:
            u, spin = rng.normal(size=4), unpack_pairs(rng.normal(size=6))
            par = ModelParams(mass=rng.uniform(0.5, 2.0), charge=rng.normal(),
                              mu_prime=rng.normal())
            assert np.array_equal(_dspin(f, u, spin, par), dspin_outer(f, u, spin, par))


class TestPairRate:
    """``integrate_bmt``'s rate on the six spin pairs against the 4 x 4
    reference transport ``_du`` and ``_dspin``."""

    @staticmethod
    def assert_matches_reference(fld, f_lo, x, u, spin, par):
        # relative to the size of the terms each rate sums
        f, u_max, s = np.max(np.abs(f_lo)), np.max(np.abs(u)), np.max(np.abs(spin))
        dx, du, dspin = bmt_rhs(BMTState(x, u, spin), fld, par)
        assert np.array_equal(dx, u)
        du_scale = abs(par.charge) * f * u_max / par.mass
        assert np.max(np.abs(du - _du(f_lo, u, par))) <= 1e-15 * du_scale
        ds_scale = (abs(par.mu_prime) + abs(par.anomaly) * u_max**2) * f * s / par.mass
        assert np.max(np.abs(dspin - _dspin(f_lo, u, spin, par))) <= 1e-15 * ds_scale

    @staticmethod
    def random_params(rng):
        return ModelParams(mass=rng.uniform(0.5, 2.0), charge=rng.normal(),
                           mu_prime=rng.normal())

    def test_random_constant_fields(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            fld = constant_field(rng.normal(size=3), rng.normal(size=3))
            u, spin = rng.normal(size=4), unpack_pairs(rng.normal(size=6))
            self.assert_matches_reference(fld, fld._f_const, np.zeros(4), u, spin,
                                          self.random_params(rng))

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus_fields_at_random_points(self, name):
        fld = CORPUS[name]
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=4)
            u, spin = rng.normal(size=4), unpack_pairs(rng.normal(size=6))
            self.assert_matches_reference(fld, fld.f_lower_real(x), x, u, spin,
                                          self.random_params(rng))

    @pytest.mark.parametrize("mu_prime", [0.0, 1.2, 2.0])
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_trajectory_matches_24_vector_reference(self, name, mu_prime):
        fld = CORPUS[name]
        par = ModelParams(mass=1.0, charge=1.0, mu_prime=mu_prime)
        st = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                                 [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
        traj = integrate_bmt(st, fld, par, h=0.05, steps=16, record_every=1)
        _, rec = rk4(rates_24(fld, par), np.concatenate([st.x, st.u, st.spin.ravel()]),
                     0.05, 16, 1)
        for got, want in ((traj.x, rec[:, :4]), (traj.u, rec[:, 4:8]),
                          (traj.spin, rec[:, 8:].reshape(-1, 4, 4))):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_recorded_spin_exactly_antisymmetric(self, params):
        st = BMTState.from_pairs(np.zeros(4), boosted_velocity(1.5),
                                 [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
        traj = integrate_bmt(st, CORPUS["random_cubic"], params, h=0.05, steps=16)
        assert np.array_equal(traj.spin, -np.swapaxes(traj.spin, 1, 2))


class TestIntegrateBmt:
    def test_free_particle_straight_line(self, params):
        fld = FieldConfig([Polynomial.zero()] * 4)
        st = planar_state()
        traj = integrate_bmt(st, fld, params, h=0.05, steps=100, record_every=20)
        for i in range(len(traj)):
            assert np.allclose(traj.x[i], st.u * traj.s[i], atol=1e-12)
            assert np.allclose(traj.u[i], st.u)
            assert np.allclose(traj.spin[i], st.spin)

    def test_matches_oracle_over_ten_periods(self, params, b_field):
        period = 2 * np.pi
        h = period / 1000
        steps = 10_000
        st = planar_state()
        traj = integrate_bmt(st, b_field, params, h=h, steps=steps, record_every=500)
        oracle = ConstantFieldOracle(st, constant_f_lower([0, 0, 0], [0, 0, 1.0]), params)
        samp = oracle.sample(traj.s[1:], h_ref=h)
        err = max(
            np.max(np.abs(traj.x[1:] - samp.x)),
            np.max(np.abs(traj.u[1:] - samp.u)),
            np.max(np.abs(traj.spin[1:] - samp.spin)),
        )
        assert err < 1e-8

    def test_step_halving_fourth_order(self, params, b_field):
        period = 2 * np.pi
        st = planar_state()
        f = constant_f_lower([0, 0, 0], [0, 0, 1.0])
        oracle = ConstantFieldOracle(st, f, params)
        ref = oracle.sample(np.array([period]), h_ref=period / 2000)
        errs = []
        for steps in (200, 400):
            traj = integrate_bmt(st, b_field, params, h=period / steps, steps=steps,
                                 record_every=steps)
            errs.append(
                max(
                    np.max(np.abs(traj.x[-1] - ref.x[0])),
                    np.max(np.abs(traj.u[-1] - ref.u[0])),
                    np.max(np.abs(traj.spin[-1] - ref.spin[0])),
                )
            )
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_invariant_drift(self, params, b_field):
        st = planar_state()
        traj = integrate_bmt(st, b_field, params, h=1e-3, steps=10_000, record_every=1000)
        assert np.max(np.abs(traj.uu - traj.uu[0])) < 1e-8
        assert np.max(np.abs(traj.us_max - traj.us_max[0])) < 1e-8
        assert np.max(np.abs(traj.ss - traj.ss[0])) < 1e-8

    def test_constant_field_skips_field_evaluation(self, params, b_field, monkeypatch):
        # every real-point evaluation of F, by f_lower_real or a body stage,
        # gathers the monomials of F's value rows
        calls = []

        def counted(padded, index):
            calls.append(np.shape(padded))
            return _gathered(padded, index)

        varying = gradient_b_field()
        monkeypatch.setattr(grasspin.fields, "_gathered", counted)
        integrate_bmt(planar_state(), b_field, params, h=0.01, steps=10)
        assert calls == []
        integrate_bmt(planar_state(), varying, params, h=0.01, steps=10)
        assert len(calls) == 4 * 10
        varying.f_lower_real(np.zeros(4))
        assert len(calls) == 4 * 10 + 1

    @pytest.mark.parametrize("name", ["gradient_b", "random_cubic", "bench_polynomial"])
    def test_body_run_matches_stepped_power_form(self, params, name):
        # the varying-field body against the rate it replaced: F by the
        # power-form monomials of its value rows at each stage, stepped by rk4
        # and stacked; every array keeps its bits
        fld = CORPUS.get(name) or bench_polynomial_field()
        exps, cols = fld._program.value_rows()
        f_real, k_v = unpack_pairs(cols).reshape(-1, 16), -(params.charge / params.mass) * SIGNS
        seen = []

        def rates(z, i):
            v0, f = z[4:], (_monomials(z[:4], exps) @ f_real).reshape(4, 4)
            vf = np.dot(v0, f)
            seen.append((v0, f, vf))
            return np.concatenate((v0, k_v * vf))

        z0 = np.concatenate(([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5)))
        got = _body_run(fld, params, 0.005)(z0, 30)
        want = (rk4(rates, z0, 0.005, 30, 1)[1],
                *(np.reshape(a, (30, 4) + a.shape[1:]) for a in map(np.array, zip(*seen))))
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("record_every, record, step", [(10, 46, 460), (480, 1, 480)])
    def test_non_finite_run_raises(self, params, record_every, record, step):
        # random_cubic from the BMT state of scripts/timings.py: RK4 leaves its
        # stable range, u.u reads 4.14 at step 390 and the spin is NaN by step
        # 480, the last state, which is always recorded
        st = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                                 [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])
        with np.errstate(all="ignore"), pytest.raises(
                NumericalAbortError, match=rf"^non-finite state at record {record} \(step {step}\)$"):
            integrate_bmt(st, CORPUS["random_cubic"], params, h=0.005, steps=480,
                          record_every=record_every)

    @pytest.mark.parametrize("steps, record_every, name", [
        (0, 1, "steps"), (-1, 1, "steps"), (5, 0, "record_every"), (5, -2, "record_every"),
    ])
    def test_rejects_bad_step_counts(self, params, b_field, steps, record_every, name):
        with pytest.raises(ValueError, match=name):
            integrate_bmt(planar_state(), b_field, params, h=0.05, steps=steps,
                          record_every=record_every)


class TestOracle:
    def test_spin_generator_matches_4x4_transport(self):
        """The generator read off the pair maps equals the one assembled, pair
        by pair, from the 4 x 4 transport with the charge set to zero and mu'
        replaced by mu' - e."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = unpack_pairs(rng.normal(size=6))
            st = BMTState(np.zeros(4), rng.normal(size=4), unpack_pairs(rng.normal(size=6)))
            par = ModelParams(mass=rng.uniform(0.5, 2.0), charge=rng.normal(),
                              mu_prime=rng.normal())
            co_rotating = ModelParams(par.mass, 0.0, par.anomaly)
            want = np.stack([pack_pairs(_dspin(f, st.u, unpack_pairs(e), co_rotating))
                             for e in np.eye(6)], axis=1)
            got = ConstantFieldOracle(st, f, par)._gen[8:, 8:]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_time_zero_returns_initial(self, params):
        # bitwise, since the exponential of zero is exactly the identity
        st = planar_state()
        f = constant_f_lower([0.1, 0.2, 0.0], [0.0, 0.0, 1.0])
        out = ConstantFieldOracle(st, f, params).state_at(0.0)
        assert np.array_equal(out.x, st.x) and np.array_equal(out.u, st.u)
        assert np.array_equal(out.spin, st.spin)

    def test_zero_charge_straight_line(self):
        par = ModelParams(mass=1.0, charge=0.0, mu_prime=0.8)
        st = planar_state()
        f = constant_f_lower([0.3, 0.0, 0.0], [0.0, 0.0, 1.0])
        out = ConstantFieldOracle(st, f, par).state_at(3.7)
        assert np.allclose(out.u, st.u, atol=1e-13)
        assert np.allclose(out.x, st.x + 3.7 * st.u, atol=1e-12)

    def test_no_anomaly_angle_constant(self, params_no_anomaly):
        st = planar_state()
        f = constant_f_lower([0, 0, 0], [0, 0, 1.0])
        oracle = ConstantFieldOracle(st, f, params_no_anomaly)
        times = np.array([1.3, 4.1])
        samp = oracle.sample(times, h_ref=0.05)
        angles = []
        for i in range(2):
            state = samp.state(i)
            sv = spin_vector(state)
            angles.append(
                np.arctan2(sv[2], sv[1]) - np.arctan2(state.u[2], state.u[1])
            )
        delta = (angles[1] - angles[0] + np.pi) % (2 * np.pi) - np.pi
        assert abs(delta) < 1e-10

    def test_null_field_nilpotent_branch(self, params):
        # crossed E and B of equal strength: the generator is nilpotent
        f = constant_f_lower([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        st = BMTState(np.zeros(4), [1.0, 0, 0, 0], np.zeros((4, 4)))
        oracle = ConstantFieldOracle(st, f, params)
        out = oracle.state_at(2.0, h_ref=0.05)
        fine = integrate_bmt(st, constant_field([1, 0, 0], [0, 1, 0]), params,
                             h=2.0 / 4000, steps=4000, record_every=4000)
        assert np.allclose(out.u, fine.u[-1], atol=1e-9)
        assert np.allclose(out.x, fine.x[-1], atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, params, bad):
        f = constant_f_lower([0, 0, 0], [0, 0, 1.0])
        oracle = ConstantFieldOracle(planar_state(), f, params)
        with pytest.raises(ValueError, match="times"):
            oracle.sample(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="times"):
            oracle.state_at(bad)

    @pytest.mark.parametrize("times, record", [([0.0, 1e308], 1), ([0.0, 0.5, 1e308], 2), ([1e308], 0)])
    def test_non_finite_sample_raises(self, params, times, record):
        # t G overflows on constant_eb, so the state at s = 1e308 is NaN; the
        # first such sample is named, and state_at inherits the check
        oracle = ConstantFieldOracle(planar_state(), CORPUS["constant_eb"]._f_const, params)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalAbortError, match=rf"^non-finite state at sample {record} \(s = 1e\+308\)$"):
            oracle.sample(np.array(times))
        with np.errstate(all="ignore"), pytest.raises(
                NumericalAbortError, match=r"^non-finite state at sample 0 \(s = 1e\+308\)$"):
            oracle.state_at(1e308)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_field(self, params, bad):
        f = constant_f_lower([0, 0, 0], [0, 0, 1.0])
        f[1, 2], f[2, 1] = bad, -bad
        with pytest.raises(ValueError, match="f_lower must be finite"):
            ConstantFieldOracle(planar_state(), f, params)

    @pytest.mark.parametrize("times", [np.array([]), np.array([[0.5, 1.0]]), np.array(0.5)],
                             ids=["empty", "2d", "scalar"])
    def test_rejects_bad_shape(self, params, times):
        f = constant_f_lower([0, 0, 0], [0, 0, 1.0])
        oracle = ConstantFieldOracle(planar_state(), f, params)
        with pytest.raises(ValueError, match="sample times must be a non-empty 1-D array"):
            oracle.sample(times)

    @pytest.mark.parametrize("e3, b3, s_end", [
        pytest.param([0, 0, 0], [0, 0, 1.0], 2 * np.pi, id="magnetic"),
        pytest.param([0, 1.0, 0], [0, 0, 1.0], 3.0, id="crossed-null"),
        pytest.param([2.0, 0, 0], [0, 0, 0.5], 3.0, id="strong-e"),   # |u| grows to ~650
    ])
    def test_matches_dop853(self, params, e3, b3, s_end):
        f = constant_f_lower(e3, b3)
        st = planar_state()

        def rhs(_, y):
            u, spin = y[4:8], y[8:].reshape(4, 4)
            return np.concatenate([u, _du(f, u, params), _dspin(f, u, spin, params).ravel()])

        y0 = np.concatenate([st.x, st.u, st.spin.ravel()])
        sol = solve_ivp(rhs, (0.0, s_end), y0, method="DOP853", rtol=1e-12, atol=1e-12)
        assert sol.success
        want = sol.y[:, -1]
        out = ConstantFieldOracle(st, f, params).state_at(s_end)
        got = np.concatenate([out.x, out.u, out.spin.ravel()])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def oracle_generators() -> list[np.ndarray]:
    """The oracle's 14 x 14 generators for 16 constant fields: 4 general E + B,
    4 null (E perpendicular to B, |E| = |B|: a defective generator), 4 pure E
    and 4 pure B."""
    rng = np.random.default_rng(11)
    gens = []
    for kind in ("general", "null", "electric", "magnetic"):
        for _ in range(4):
            e, b = rng.normal(size=3), rng.normal(size=3)
            if kind == "null":
                b = np.cross(e, b)
                b *= np.linalg.norm(e) / np.linalg.norm(b)
            e, b = (0 * e if kind == "magnetic" else e), (0 * b if kind == "electric" else b)
            oracle = ConstantFieldOracle(planar_state(1.5), constant_f_lower(e, b),
                                         ModelParams(1.0, 1.0, 1.2))
            gens.append(oracle._gen)
    return gens


class TestExpm:
    """The oracle's exponential against references that share none of its
    arithmetic."""

    def test_matches_mpmath(self):
        # times 2^-10 ... 2^3 in one batch, so that t * gen is exact: the
        # 40-digit reference is mpmath's expm at the first time, squared for
        # each next one, block by block (the generator is block-diagonal).
        # At 2^4 a null field's body block, of norm 71, reads 1.1e-13, where
        # scipy reads 8.0e-14: the conditioning of a nearly defective
        # exponential, which other scalings and degrees left at 2.5e-14 or more
        mpmath = pytest.importorskip("mpmath")
        times = 2.0 ** np.arange(-10, 4)
        blocks = (slice(0, 8), slice(8, 14))
        with mpmath.workdps(40):
            for gen in oracle_generators():
                got = _expm(times[:, None, None] * gen)
                exps = [mpmath.expm(mpmath.matrix((times[0] * gen[b, b]).tolist())) for b in blocks]
                for got_t in got:
                    want = np.zeros((14, 14))
                    for b, e in zip(blocks, exps):
                        want[b, b] = np.array(e.tolist(), dtype=float)
                    assert np.max(np.abs(got_t - want)) <= 1e-13 * np.max(np.abs(want))
                    exps = [e * e for e in exps]

    def test_matches_scipy(self):
        # the kernel it replaced, whose own error reaches about 2e-12 here
        from scipy.linalg import expm

        times = np.concatenate(([1e-3, 0.05, 0.5], np.arange(2.0, 16.0)))
        for gen in oracle_generators():
            a = times[:, None, None] * gen
            got, want = _expm(a), expm(a)
            scale = np.max(np.abs(want), axis=(1, 2))
            assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-11 * scale)

    def test_null_field_body_block_exact(self):
        # in a null field A = eta F has A^3 = 0, so M = [[A, 1], [0, 0]] has
        # M^4 = 0 and exp(t M) = 1 + tM + (tM)^2/2 + (tM)^3/6, in rationals
        f = constant_f_lower([0.375, 0.5, 0.0], [0.0, 0.0, 0.625])
        m = np.zeros((8, 8), dtype=object)
        m[:4, :4] = [[Fraction(v) for v in row] for row in SIGNS[:, None] * f]
        m[:4, 4:] = np.eye(4, dtype=int)
        power = np.linalg.matrix_power
        assert not power(m[:4, :4], 3).any() and power(m[:4, :4], 2).any()
        times = [Fraction(1, 4), Fraction(1), Fraction(8)]
        got = _expm(np.array([float(t) * m for t in times], dtype=float))
        for got_t, t in zip(got, times):
            want = (np.eye(8, dtype=int) + t * m + (t * m) @ (t * m) / 2
                    + power(t * m, 3) / 6).astype(float)
            assert np.max(np.abs(got_t - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))

    def test_zero_is_identity(self):
        assert np.array_equal(_expm(np.zeros((3, 14, 14))), np.broadcast_to(np.eye(14), (3, 14, 14)))


class TestSpinVector:
    def test_rest_frame_example(self):
        sigma = 0.8
        st = BMTState.from_pairs(np.zeros(4), [1, 0, 0, 0], [0, 0, 0, sigma, 0, 0])
        assert np.allclose(spin_vector(st), [0, 0, 0, sigma], atol=1e-14)

    def test_zero_spin(self):
        st = BMTState(np.zeros(4), [1, 0, 0, 0], np.zeros((4, 4)))
        assert np.all(spin_vector(st) == 0.0)

    def test_orthogonal_to_velocity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.normal(size=3)
            u = np.concatenate([[np.sqrt(1 + p @ p)], p])
            spin = rng.normal(size=(4, 4))
            spin = spin - spin.T
            st = BMTState(np.zeros(4), u, spin)
            assert abs(minkowski_dot(u, spin_vector(st))) < 1e-12


class TestAnomalousPrecession:
    def test_no_anomaly_rate_zero(self, params_no_anomaly, b_field):
        st = planar_state()
        period = 2 * np.pi
        traj = integrate_bmt(st, b_field, params_no_anomaly, h=period / 1000,
                             steps=3000, record_every=20)
        rate = anomalous_precession(traj, axis=3)
        assert abs(rate) < 1e-6
        _, rel = spin_velocity_angle(traj, axis=3)
        assert np.max(np.abs(rel - rel[0])) / 3.0 < 1e-6   # per-period drift

    def test_zero_charge_rate_vs_refined_oracle(self, b_field):
        par = ModelParams(mass=1.0, charge=0.0, mu_prime=0.7)
        st = planar_state()
        runs = {}
        for steps, h in ((1000, 6e-3), (10_000, 6e-4)):
            traj = integrate_bmt(st, b_field, par, h=h, steps=steps,
                                 record_every=steps // 100)
            runs[h] = anomalous_precession(traj, axis=3)
        assert runs[6e-3] == pytest.approx(runs[6e-4], abs=1e-6)
        # pure-moment limit: the lab-frame spin precesses at mu' B gamma / m
        # in proper time up to the Thomas-free kinematics of constant u
        assert abs(runs[6e-3]) > 0.1

    def test_rate_linear_in_anomaly(self, b_field):
        st = planar_state()
        period = 2 * np.pi
        rates = []
        anomalies = [0.0, 0.1, 0.2]
        for da in anomalies:
            par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.0 + da)
            traj = integrate_bmt(st, b_field, par, h=period / 1000, steps=4000,
                                 record_every=25)
            rates.append(anomalous_precession(traj, axis=3))
        design = np.stack([np.array(anomalies), np.ones(3)], axis=1)
        coef, res, *_ = np.linalg.lstsq(design, np.array(rates), rcond=None)
        fit = design @ coef
        ss_res = np.sum((np.array(rates) - fit) ** 2)
        ss_tot = np.sum((np.array(rates) - np.mean(rates)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.999
        assert rates[0] == pytest.approx(0.0, abs=1e-6)

    def test_nonplanar_rejected(self, params):
        fld = constant_field([0, 0, 0.4], [0, 0, 1.0])   # E accelerates along axis 3
        st = planar_state()
        traj = integrate_bmt(st, fld, params, h=1e-2, steps=400, record_every=10)
        with pytest.raises(ValueError, match="planar"):
            anomalous_precession(traj, axis=3)


class TestDerivationCrossCheck:
    """The bracket normalization of the reduced spin transport is pinned by
    the anticommuting-variable derivative of (1/2) xi_mu xi_nu."""

    def test_random_states(self, alg4):
        rng = np.random.default_rng(2718)
        fld = gradient_b_field(0.07)
        for _ in range(100):
            par = ModelParams(
                mass=float(rng.uniform(0.5, 2.0)),
                charge=float(rng.uniform(-1.5, 1.5)),
                mu_prime=float(rng.uniform(-1.5, 1.5)),
            )
            x_real = rng.uniform(-1, 1, size=4)
            p = rng.normal(size=3)
            u = np.concatenate([[np.sqrt(1 + p @ p)], p])
            c1, c2 = rng.normal(size=4), rng.normal(size=4)
            st = SuperState.from_real(x_real, u, [c1, c2], alg4)
            _, _, dxi = eom_rhs(st, fld, par)
            dxi_lo = SIGNS[:, None] * np.stack([d.coeffs for d in dxi])
            xi_lo = SIGNS[:, None] * st.xi
            ds_full = 0.5 * (
                alg4.mul(dxi_lo[:, None, :], xi_lo[None, :, :])
                + alg4.mul(xi_lo[:, None, :], dxi_lo[None, :, :])
            )
            ds_block = ds_full[..., 3]   # theta1 theta2 coefficient
            f_lo = fld.f_lower_real(x_real)
            want = _dspin(f_lo, u, spin_from_generators(c1, c2), par)
            assert np.max(np.abs(ds_block - want)) < 1e-12
