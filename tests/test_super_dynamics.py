"""Full Grassmann-valued dynamics: multiplier, right-hand side, integration."""

import numpy as np
import pytest

from grasspin import (
    BMTState,
    ConstantFieldOracle,
    FieldConfig,
    ModelParams,
    Polynomial,
    SuperState,
    constant_f_lower,
    constant_field,
    constraint_value,
    eom_rhs,
    integrate_bmt,
    integrate_super,
    lambda_solve,
    leading_order,
)
from grasspin.grassmann import (
    EVEN, ODD, PRUNE_TOL, GrassmannAlgebra, GrassmannNumber, Parity, algebra,
)
from grasspin.minkowski import SIGNS
from grasspin.polynomials import PolyVectorEvaluator
import grasspin.super_dynamics as sd
from grasspin.super_dynamics import (
    LightlikeVelocityError, _body_gen, _const_monitors, _cut, _emul, _field, _gdot, _multiplier,
    _pack, _rhs, _soul_gen, _unpack, _xi_gen, multiplier_rate, rk4,
)

from conftest import (
    boosted_velocity, field_corpus, gradient_b_field, load_script, loaded_state, standard_state,
)


ZERO_FIELD = FieldConfig([Polynomial.zero()] * 4)


def full_algebra_rk4(st, fld, par, h, steps):
    """Reference RK4 through eom_rhs: every product in st.alg, no relabeling."""
    def rates(x, v, xi):
        _, dv, dxi = eom_rhs(SuperState(st.alg, x, v, xi), fld, par)
        return v, np.array([c.coeffs for c in dv]), np.array([c.coeffs for c in dxi])

    y = (st.x, st.v, st.xi)
    for _ in range(steps):
        k1 = rates(*y)
        k2 = rates(*(a + 0.5 * h * k for a, k in zip(y, k1)))
        k3 = rates(*(a + 0.5 * h * k for a, k in zip(y, k2)))
        k4 = rates(*(a + h * k for a, k in zip(y, k3)))
        y = tuple(a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + w)
                  for a, p, q, r, w in zip(y, k1, k2, k3, k4))
    return y


def _f_left(alg, f, w, pw):
    """Q_nu = sum_mu F_{mu nu} w^mu, for w of parity hint pw.

    F is antisymmetric, so F^{mu nu} w_nu = -SIGNS[mu] Q_mu.
    """
    return _emul(alg, f, w[..., :, None, :], pw).sum(axis=-3)


def _odd_contract(alg, q, xi):
    """sum_nu q^nu * xi^nu with even q the left factor, shape (..., dim)."""
    return alg.mul(q, xi, EVEN, ODD).sum(axis=-2)


def fixed_point_rhs(alg, fld, par, x, v, xi):
    """(dv, dlam/ds) by fixed-point iteration from dlam/ds = 0.

    dlam/ds enters dv only multiplied by xi, which raises the Grassmann
    degree by two per pass, so ceil(n/2) passes reach the exact fixed point
    in an algebra of n generators.
    """
    m, e, mup = par.mass, par.charge, par.mu_prime
    c_lam = (mup - e) / (2.0 * m)
    lower = SIGNS[:, None]
    f, df = _field(alg, fld, x, grad=True)
    _, inv_vv, q, lam = _multiplier(alg, f, v, xi, par)
    grad = 0.0
    a_dot_field = 0.0
    if df is not None:
        pair = alg.mul(xi[..., :, None, :], xi[..., None, :, :], ODD, ODD)
        grad = 0.5 * lower * _emul(alg, df, pair[..., None, :, :, :], EVEN).sum(axis=(-3, -2))
        f_dot = _emul(alg, v[..., :, None, None, :], df, EVEN).sum(axis=-4)
        r_dot = alg.mul(f_dot, v[..., :, None, :], EVEN, EVEN).sum(axis=-3)
        a_dot_field = _odd_contract(alg, r_dot, xi)
    dxi = (mup / m) * (-lower * _f_left(alg, f, xi, ODD)) - 2.0 * alg.mul(lam[..., None, :], v, ODD, EVEN)
    dv_base = (e / m) * (-lower * q) + (mup / (2.0 * m * m)) * grad
    a_dot_xi = _odd_contract(alg, q, dxi)
    lam_dot = np.zeros_like(lam)
    dv = dv_base
    for _ in range((alg.n + 1) // 2):
        a_dot_v = _odd_contract(alg, _f_left(alg, f, dv, EVEN), xi)
        vv_dot = 2.0 * _gdot(alg, v, dv, EVEN, EVEN)
        lam_dot = alg.mul(
            inv_vv,
            c_lam * (a_dot_field + a_dot_v + a_dot_xi) - alg.mul(lam, vv_dot, ODD, EVEN),
            EVEN,
            ODD,
        )
        dv = dv_base - (1.0 / m) * alg.mul(lam_dot[..., None, :], xi, ODD, ODD)
    return dv, lam_dot


def contraction_oracle(f_real, v_real, xi_coeffs, alg):
    """F^{mu nu} v_mu xi_nu by explicit index loops (real F, real v)."""
    out = np.zeros(alg.dim)
    for m in range(4):
        for n in range(4):
            f_up = SIGNS[m] * SIGNS[n] * f_real[m, n]
            out += f_up * (SIGNS[m] * v_real[m]) * (SIGNS[n] * xi_coeffs[n])
    return GrassmannNumber(alg, out)


@pytest.mark.parametrize("name", ["mass", "charge", "mu_prime"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "1", None])
def test_model_params_reject_non_finite(name, value):
    kwargs = {"mass": 1.0, "charge": 1.0, "mu_prime": 1.2, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be (finite|a real number)"):
        ModelParams(**kwargs)


class TestLambdaSolve:
    def test_no_anomaly_vanishes(self, alg4, b_field, params_no_anomaly):
        st = standard_state(alg4)
        assert lambda_solve(st, b_field, params_no_anomaly).is_zero()

    def test_zero_field_vanishes(self, alg4, params):
        st = standard_state(alg4)
        assert lambda_solve(st, ZERO_FIELD, params).is_zero()

    def test_constant_field_contraction(self, alg4):
        par = ModelParams(mass=1.3, charge=0.8, mu_prime=1.7)
        e3 = [0.2, -0.4, 0.1]
        b3 = [0.3, 0.9, -1.2]
        fld = constant_field(e3, b3)
        f_real = constant_f_lower(e3, b3)
        u = boosted_velocity(2.0)   # u.u = 1 so the inversion is trivial
        c = np.array([[0.1, 0.3, 1.0, -0.2], [0.0, -0.5, 0.4, 1.0]])
        st = SuperState.from_real(np.zeros(4), u, c, alg4)
        lam = lambda_solve(st, fld, par)
        want = contraction_oracle(f_real, u, st.xi, alg4) * (
            (par.mu_prime - par.charge) / (2 * par.mass)
        )
        assert (lam - want).max_abs() < 1e-13
        assert lam.parity() in (Parity.ODD, Parity.ZERO)

    def test_lightlike_velocity_rejected(self, alg4, b_field, params):
        st = SuperState.from_real(
            np.zeros(4), [1.0, 1.0, 0.0, 0.0], np.zeros((2, 4)), alg4
        )
        with pytest.raises(LightlikeVelocityError):
            lambda_solve(st, b_field, params)


class TestEomRhs:
    def test_zero_spin_reduces_to_lorentz(self, alg4, b_field, params):
        u = boosted_velocity(2.0)
        st = SuperState.from_real(np.zeros(4), u, np.zeros((2, 4)), alg4)
        dx, dv, dxi = eom_rhs(st, b_field, params)
        f = constant_f_lower([0, 0, 0], [0, 0, 1.0])
        want_dv = (params.charge / params.mass) * SIGNS * (f @ u)
        for mu in range(4):
            assert dx[mu] == float(u[mu])
            assert dv[mu].soul.is_zero()
            assert dv[mu].body == pytest.approx(want_dv[mu], abs=1e-14)
            assert dxi[mu].is_zero()

    def test_no_anomaly_constant_field(self, alg4, params_no_anomaly):
        e3, b3 = [0.1, 0.0, -0.2], [0.0, 0.4, 1.0]
        fld = constant_field(e3, b3)
        f = constant_f_lower(e3, b3)
        st = standard_state(alg4)
        _, dv, dxi = eom_rhs(st, fld, params_no_anomaly)
        coef = params_no_anomaly.charge / params_no_anomaly.mass
        want_dv = coef * SIGNS[:, None] * (f @ st.v)
        want_dxi = coef * SIGNS[:, None] * (f @ st.xi)
        for mu in range(4):
            assert np.max(np.abs(dv[mu].coeffs - want_dv[mu])) < 1e-14
            assert np.max(np.abs(dxi[mu].coeffs - want_dxi[mu])) < 1e-14

    def test_grading_of_all_terms(self, alg4, linear_field, params):
        st = standard_state(alg4)
        traj = integrate_super(st, linear_field, params, h=2e-3, steps=60, record_every=20)
        for i in range(len(traj)):
            traj.state(i).validate()
        lam, lam_dot = multiplier_rate(traj.state(len(traj) - 1), linear_field, params)
        assert lam.parity() in (Parity.ODD, Parity.ZERO)
        assert lam_dot.parity() in (Parity.ODD, Parity.ZERO)

    def test_multiplier_rate_matches_finite_difference(self, alg4, params):
        """Central difference of lam along one fine arc, stride-halved about
        a fixed state so the quadratic convergence is clean."""
        fld = gradient_b_field(0.08)
        st0 = standard_state(alg4)
        h = 5e-4
        mid = 8
        traj = integrate_super(st0, fld, params, h=h, steps=16, record_every=1)
        _, lam_dot = multiplier_rate(traj.state(mid), fld, params)
        errs = []
        for stride in (4, 2, 1):
            lam_prev = lambda_solve(traj.state(mid - stride), fld, params)
            lam_next = lambda_solve(traj.state(mid + stride), fld, params)
            fd = (lam_next - lam_prev) / (2.0 * stride * h)
            errs.append((fd - lam_dot).max_abs())
        assert errs[0] < 5e-5
        assert 3.4 < errs[0] / errs[1] < 4.6
        assert 3.4 < errs[1] / errs[2] < 4.6

    @pytest.mark.parametrize("n", [4, 6])
    def test_multiplier_rate_soul_of_e_matches_finite_difference(self, n):
        """The same check on the degree >= 3 grade of dlam/ds, where the soul
        of E in E dlam/ds = R0 acts; at n <= 2 that grade is empty.  Constant
        fields and gradient_b leave it at roundoff, so random_cubic is used."""
        fld = dict(field_corpus())["random_cubic"]
        par = ModelParams(mass=1.0, charge=1.0, mu_prime=2.0)
        h = 5e-4
        mid = 8
        traj = integrate_super(loaded_state(n), fld, par, h=h, steps=16, record_every=1)
        high = traj.alg.degree >= 3
        _, lam_dot = multiplier_rate(traj.state(mid), fld, par)
        assert np.max(np.abs(lam_dot.coeffs[high])) > 1e-2
        errs = []
        for stride in (4, 2, 1):
            lam_prev = lambda_solve(traj.state(mid - stride), fld, par)
            lam_next = lambda_solve(traj.state(mid + stride), fld, par)
            fd = (lam_next - lam_prev) / (2.0 * stride * h)
            errs.append(np.max(np.abs((fd - lam_dot).coeffs[high])))
        assert errs[0] < 1e-6
        assert 3.4 < errs[0] / errs[1] < 4.6
        assert 3.4 < errs[1] / errs[2] < 4.6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("name, fld", field_corpus(), ids=[n for n, _ in field_corpus()])
def test_rhs_matches_fixed_point_reference(name, fld, n):
    """dv and dlam/ds from E^-1 R0 equal the fixed-point iteration, on the
    constraint surface and off it (v.xi != 0, as at an RK4 stage)."""
    for mu_prime in (0.0, 1.2, 2.0):
        par = ModelParams(mass=1.0, charge=1.0, mu_prime=mu_prime)
        traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=4)
        st = traj.state(len(traj) - 1)
        alg = st.alg
        off = st.xi + 0.1 * st.xi[::-1]
        assert np.max(np.abs(_gdot(alg, st.v, off, EVEN, ODD))) > 0.1
        for xi in (st.xi, off):
            dv, _, _, lam_dot = _rhs(alg, fld, par, st.x, st.v, xi)[:4]
            want_dv, want_lam_dot = fixed_point_rhs(alg, fld, par, st.x, st.v, xi)
            for got, want in ((dv, want_dv), (lam_dot, want_lam_dot)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name, fld", field_corpus(), ids=[n for n, _ in field_corpus()])
def test_eom_rhs_at_soul_points_matches_module_equations(name, fld):
    """The module docstring's equations in GrassmannNumber arithmetic, index
    by index, at a state whose x carries a soul (N = 4, all generators)."""
    par = ModelParams(mass=1.3, charge=0.8, mu_prime=1.7)
    m, e, mup = par.mass, par.charge, par.mu_prime
    traj = integrate_super(loaded_state(4), fld, par, h=0.05, steps=4)
    st = traj.state(len(traj) - 1)
    alg = st.alg
    if name != "zero":
        assert np.any(st.x[:, 1:] != 0.0)
    x, v, xi = ([GrassmannNumber(alg, a[mu]) for mu in range(4)] for a in (st.x, st.v, st.xi))
    v_lo = [SIGNS[mu] * v[mu] for mu in range(4)]
    xi_lo = [SIGNS[mu] * xi[mu] for mu in range(4)]
    f = fld.field_tensor(x)                          # F_{mu nu}
    df = fld.field_derivative(x)                     # d_kappa F^{rho sigma}
    f_up = [[SIGNS[mu] * SIGNS[nu] * f[mu, nu] for nu in range(4)] for mu in range(4)]
    lam = lambda_solve(st, fld, par)
    lam_again, lam_dot = multiplier_rate(st, fld, par)
    assert np.array_equal(lam.coeffs, lam_again.coeffs)

    vv = sum((v_lo[mu] * v[mu] for mu in range(4)), alg.zero())
    a_con = sum((f_up[mu][nu] * v_lo[mu] * xi_lo[nu] for mu in range(4) for nu in range(4)),
                alg.zero())
    assert (lam - vv.inv() * a_con * ((mup - e) / (2 * m))).max_abs() < 1e-13

    _, dv, dxi = eom_rhs(st, fld, par)
    for mu in range(4):
        lorentz = sum((f_up[mu][nu] * v_lo[nu] for nu in range(4)), alg.zero())
        grad = sum((df[mu, r, s] * (0.5 * xi_lo[r] * xi_lo[s])
                    for r in range(4) for s in range(4)), alg.zero())
        want_dv = (e * lorentz + (mup / (2 * m)) * SIGNS[mu] * grad - lam_dot * xi[mu]) / m
        mag = sum((f_up[mu][nu] * xi_lo[nu] for nu in range(4)), alg.zero())
        want_dxi = (mup / m) * mag - 2.0 * lam * v[mu]
        assert (dv[mu] - want_dv).max_abs() < 1e-13
        assert (dxi[mu] - want_dxi).max_abs() < 1e-13


@pytest.mark.parametrize("n", [4, 8])
def test_emul_on_cut_tensor_equals_mul(n):
    """A body-only tensor cut to its body multiplies like its full coefficients."""
    alg = algebra(n)
    rng = np.random.default_rng(n)
    full = np.zeros((4, 4, alg.dim))
    full[..., 0] = rng.normal(size=(4, 4))
    cut = _cut(full)
    assert cut.shape == (4, 4, 1)
    w = rng.normal(size=(4, 1, alg.dim))
    assert np.array_equal(_emul(alg, cut, w), alg.mul(full, w))
    assert np.array_equal(_emul(alg, w, cut), alg.mul(w, full))
    full[1, 2, 3] = 0.5
    assert _cut(full) is full


@pytest.mark.parametrize("name", ["constant_eb", "gradient_b"])
def test_rhs_leading_axis_rides_along(name):
    """Three states stacked as (3, 4, dim) give each member the ``_rhs`` and
    ``_multiplier`` outputs of a batch of three copies of it, bitwise, and
    of the member alone to roundoff.  Not bitwise alone: a lone state's
    scalars multiply through a BLAS matrix-vector product and a batch's
    through a matrix product, which round differently."""
    fld = dict(field_corpus())[name]
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
    traj = integrate_super(loaded_state(4), fld, par, h=0.05, steps=6, record_every=2)
    alg, x, v, xi = traj.alg, traj.x[1:], traj.v[1:], traj.xi[1:]
    assert x.shape == (3, 4, alg.dim) and all(member[:, 1:].any() for member in x)

    def outputs(x, v, xi):
        f, _ = _field(alg, fld, x)
        return _rhs(alg, fld, par, x, v, xi) + _multiplier(alg, f, v, xi, par)

    batched = outputs(x, v, xi)
    for j in range(3):
        copies = outputs(*(np.repeat(a[j][None], 3, axis=0) for a in (x, v, xi)))
        alone = outputs(x[j], v[j], xi[j])
        for got, same, want in zip(batched, copies, alone, strict=True):
            assert np.array_equal(got[j], same[0])
            assert np.max(np.abs(got[j] - want)) <= 1e-15 * np.max(np.abs(want))


def test_rhs_evaluates_the_field_once(monkeypatch):
    """One ``_rhs`` call at a soul-carrying point takes F and dF from one
    pass of the field's program."""
    fld = gradient_b_field()
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
    traj = integrate_super(loaded_state(4), fld, par, h=0.05, steps=2)
    assert traj.x[-1][:, 1:].any()
    calls = []
    evaluate = PolyVectorEvaluator.eval_even
    monkeypatch.setattr(PolyVectorEvaluator, "eval_even",
                        lambda self, *a, **k: calls.append(1) or evaluate(self, *a, **k))
    _rhs(traj.alg, fld, par, traj.x[-1], traj.v[-1], traj.xi[-1])
    assert len(calls) == 1


@pytest.mark.parametrize("name, limit", [("gradient_b", 12), ("random_cubic", 15)])
def test_rhs_product_count(name, limit, monkeypatch):
    """One ``_rhs`` call at N = 4, every generator loaded and x carrying a
    soul, makes at most ``limit`` products, those inside the even inverses
    and the field's evaluation included."""
    fld = dict(field_corpus())[name]
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
    traj = integrate_super(loaded_state(4), fld, par, h=0.05, steps=4)
    assert traj.x[-1][:, 1:].any()
    calls = []
    mul = GrassmannAlgebra.mul
    monkeypatch.setattr(GrassmannAlgebra, "mul", lambda alg, *a: calls.append(1) or mul(alg, *a))
    _rhs(traj.alg, fld, par, traj.x[-1], traj.v[-1], traj.xi[-1])
    assert len(calls) <= limit


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("name, fld", field_corpus(), ids=[n for n, _ in field_corpus()])
def test_monitors_match_records(name, fld, n):
    """constraint_max and vv_body, read off the rate, equal |xi.v| and the
    body of v.v recomputed with ``_gdot`` from every record, within the
    roundoff floors that ``scripts/outputs.py`` judges them by."""
    outputs = load_script("outputs")
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
    traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=16, record_every=1)
    alg, x, v, xi = traj.alg, traj.x, traj.v, traj.xi
    constraint = np.max(np.abs(_gdot(alg, xi, v, ODD, EVEN)), axis=-1)
    vv_body = _gdot(alg, v, v, EVEN, EVEN)[:, 0]
    floor = outputs.floors({"x": x, "v": v, "xi": xi})["constraint_max"]
    assert np.all(np.abs(traj.constraint_max - constraint) <= outputs.LIMIT * floor)
    assert np.max(np.abs(traj.vv_body - vv_body)) <= outputs.LIMIT * np.max(np.abs(vv_body))


class TestConstProgram:
    """The map form of a constant field at k <= 2 against ``_rhs``."""

    @staticmethod
    def random_state(rng, alg):
        """x and v with theta1 theta2 souls at k = 2, xi on every generator."""
        y = np.zeros((3, 4, alg.dim))
        y[:2, :, 0] = rng.normal(size=(2, 4))
        y[1, 0, 0] += 3.0 * np.sign(y[1, 0, 0])      # v timelike
        if alg.n == 2:
            y[:2, :, 3] = rng.normal(size=(2, 4))
        y[2][:, alg.odd_mask] = rng.normal(size=(4, alg.n))
        return y

    @pytest.mark.parametrize("n", [1, 2])
    def test_terms_match_rhs(self, n):
        """The rate y.L + sigma of the per-stage generators, (dx, dv, dxi), with
        lam of the monitors and dlam/ds of the source, over random constant
        E + B fields and random mu', with mu' = e and mu' = 0 among them,
        relative to the size of the terms that each sums."""
        alg = algebra(n)
        rng = np.random.default_rng(16 + n)
        for case in range(60):
            fld = constant_field(rng.normal(size=3), rng.normal(size=3))
            m, e = rng.uniform(0.5, 2.0), rng.normal()
            mup = (rng.normal(), e, 0.0)[case % 3]
            par = ModelParams(mass=m, charge=e, mu_prime=mup)
            y = self.random_state(rng, alg)
            dv, dxi, lam, lam_dot = _rhs(alg, fld, par, *y)[:4]
            packed, f = _pack(alg, y), fld._f_const
            v0, xi_rows = packed[2], packed[4:]
            _, lam_p, vv_p = _const_monitors(f, par, packed)
            body = np.concatenate((packed[0], v0)) @ _body_gen(f, par)
            soul_gen, lam_dot_p = _soul_gen(f, par, v0, vv_p, xi_rows)
            soul = np.concatenate((packed[1], packed[3], (1.0,))) @ soul_gen
            dxi_p = xi_rows @ _xi_gen(f, par, v0, vv_p)
            got = _unpack(alg, np.stack((body[:4], soul[:4], body[4:], soul[4:8], *dxi_p)))
            assert np.array_equal(got[0], y[1])
            got_lam, got_lam_dot = np.zeros((2, alg.dim))
            got_lam[1:n + 1], got_lam_dot[1:n + 1] = lam_p[:n], lam_dot_p[:n]
            assert not np.any([t[n:] for t in (lam_p, lam_dot_p)])

            f, v, xi = np.max(np.abs(fld._f_const)), np.max(np.abs(y[1])), np.max(np.abs(y[2]))
            vv = abs(vv_p)
            lam_s = abs(mup - e) / (2.0 * m) * f * v * xi / vv
            lam_dot_s = lam_s * ((abs(mup) + abs(e)) / m * f + abs(e) / m * f * v * v / vv)
            scales = (abs(e) / m * f * v + lam_dot_s * xi / m, abs(mup) / m * f * xi + lam_s * v,
                      lam_s, lam_dot_s)
            for a, b, scale in zip((got[1], got[2], got_lam, got_lam_dot),
                                   (dv, dxi, lam, lam_dot), scales, strict=True):
                assert np.max(np.abs(a - b)) <= 1e-14 * scale
            assert vv == pytest.approx(abs(_gdot(alg, y[1], y[1], EVEN, EVEN)[0]), rel=1e-15)
            if mup == e:
                assert not got_lam.any() and not got_lam_dot.any()

    @pytest.mark.parametrize("mu_prime", [0.0, 1.0, 1.2, 2.0])
    def test_run_matches_full_algebra_reference(self, mu_prime):
        """A whole run on constant_eb at k = 2, monitors included, against RK4
        through eom_rhs in the N = 4 algebra, step by step."""
        fld = dict(field_corpus())["constant_eb"]
        par = ModelParams(mass=1.0, charge=1.0, mu_prime=mu_prime)
        c = np.array([[0.0, 0.3, 1.0, 0.0], [0.2, 0.0, -0.4, 1.0]])
        st = SuperState.from_real(np.zeros(4), boosted_velocity(2.0), c, algebra(4))
        h, steps = 0.05, 16
        traj = integrate_super(st, fld, par, h=h, steps=steps)
        assert np.any(traj.v[-1][:, 3] != 0.0) or mu_prime == 1.0
        ref = [st]
        for _ in range(steps):
            y = full_algebra_rk4(ref[-1], fld, par, h, 1)
            ref.append(SuperState(st.alg, *y))
        for name in ("x", "v", "xi"):
            want = np.array([getattr(r, name) for r in ref])
            assert np.max(np.abs(getattr(traj, name) - want)) <= 1e-13
        want_monitors = [
            [constraint_value(r).max_abs() for r in ref],
            [lambda_solve(r, fld, par).max_abs() for r in ref],
            [_gdot(st.alg, r.v, r.v, EVEN, EVEN)[0] for r in ref],
        ]
        for got, want in zip((traj.constraint_max, traj.lambda_max, traj.vv_body),
                             want_monitors, strict=True):
            assert np.max(np.abs(got - np.array(want))) <= 1e-13

    @pytest.mark.parametrize("n_loaded", [0, 1, 2])
    def test_lightlike_abort_names_step(self, alg4, b_field, params, monkeypatch, n_loaded):
        """The program raises it, as ``_rhs`` would, with the step named."""
        monkeypatch.setattr(sd, "_rhs", None)      # the program path never calls it
        c = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])[:n_loaded]
        st = SuperState.from_real(np.zeros(4), [1.0, 1.0, 0.0, 0.0], c, alg4)
        with pytest.raises(LightlikeVelocityError, match="at step 0"):
            integrate_super(st, b_field, params, h=1e-3, steps=3)

    def test_lightlike_check_names_step_at_first_stage_only(self):
        """The first zero of v.v in (step, stage) order raises; the step is
        named only when that stage is a step's first."""
        vv = np.ones((4, 4))
        vv[2, 0] = vv[3, 1] = 0.0
        with pytest.raises(LightlikeVelocityError, match="^v.v has zero body at step 7$"):
            sd._check_lightlike(vv, 5)
        vv[1, 3] = 0.0
        with pytest.raises(LightlikeVelocityError, match="^v.v has zero body$"):
            sd._check_lightlike(vv, 5)
        sd._check_lightlike(np.ones((3, 4)), 0)

    def test_constant_field_runs_call_no_rate(self, b_field, params, monkeypatch):
        """k <= 2 ``integrate_super`` on a constant field chains step maps and
        never calls ``_rhs``; ``integrate_bmt`` runs beside it.  That a
        constant-field BMT run evaluates no field is checked in test_bmt."""
        monkeypatch.setattr(sd, "_rhs", None)
        traj = integrate_super(loaded_state(2), b_field, params, h=0.05, steps=8)
        bmt = integrate_bmt(BMTState.from_pairs(np.zeros(4), boosted_velocity(2.0),
                                                [0.1, -0.2, 0.05, 0.5, -0.3, 0.4]),
                            b_field, params, h=0.05, steps=8)
        assert np.isfinite(traj.xi).all() and np.isfinite(bmt.spin).all()

    @pytest.mark.parametrize("name", ["constant_b", "constant_eb"])
    def test_blocks_match_one_block(self, name, monkeypatch):
        """Runs chained in blocks of 3 steps match the same runs in one block
        to 1e-15 relative, records and monitors alike; 20 steps recorded
        every 3rd, so blocks and records do not line up."""
        fld = dict(field_corpus())[name]
        par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
        bstate = BMTState.from_pairs([0.0, 0.1, -0.2, 0.3], boosted_velocity(1.5),
                                     [0.1, -0.2, 0.05, 0.5, -0.3, 0.4])

        def runs():
            traj = integrate_super(loaded_state(2), fld, par, h=0.05, steps=20, record_every=3)
            bmt = integrate_bmt(bstate, fld, par, h=0.05, steps=20, record_every=3)
            return traj, bmt

        one = runs()
        monkeypatch.setattr(sd, "_MAP_BLOCK", 3)
        blocks = runs()
        names = (("x", "v", "xi", "lambda_max", "vv_body"), ("x", "u", "spin", "uu", "us_max", "ss"))
        for a, b, keys in zip(blocks, one, names, strict=True):
            assert np.array_equal(a.s, b.s)
            for key in keys:
                want = getattr(b, key)
                assert np.max(np.abs(getattr(a, key) - want)) <= 1e-15 * np.max(np.abs(want))
        floor = np.max(np.abs(one[0].xi)) * np.max(np.abs(one[0].v))
        assert np.max(np.abs(blocks[0].constraint_max - one[0].constraint_max)) <= 1e-15 * floor

    def test_general_path_keeps_wrong_parity_soul(self, alg4, b_field, params):
        """A tiny odd coefficient of v passes validation; the packed state
        could not hold it, so the run takes ``_rhs``."""
        st = standard_state(alg4)
        st.v[0, 1] = 1e-16
        assert _pack(algebra(2), np.stack((st.x, st.v, st.xi))[..., :4]) is None
        traj = integrate_super(st, b_field, params, h=1e-3, steps=2)
        assert traj.v[-1][0, 1] == 1e-16


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["x0", "u0", "xi_coeffs", "s"])
def test_from_real_rejects_non_finite(name, bad, alg4):
    args = {"x0": np.zeros(4), "u0": boosted_velocity(2.0),
            "xi_coeffs": np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]), "s": 0.0}
    if name == "s":
        args["s"] = bad
    else:
        args[name].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SuperState.from_real(alg=alg4, **args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, slot", [("x", 0), ("v", 0), ("xi", 1), ("s", None)])
def test_integrate_super_rejects_non_finite_state(name, slot, bad, alg4, b_field, params):
    st = standard_state(alg4)
    if name == "s":
        st.s = bad
    else:
        getattr(st, name)[3, slot] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate_super(st, b_field, params, h=1e-3, steps=3)


def loop_validate(st):
    """The parity check of ``SuperState.validate`` as a loop over the
    components, mu-major and then x, v, xi, one ``parity_of`` each."""
    for mu in range(4):
        for name, parity, ok in (("x", "even", Parity.EVEN), ("v", "even", Parity.EVEN),
                                 ("xi", "odd", Parity.ODD)):
            if st.alg.parity_of(getattr(st, name)[mu]) not in (ok, Parity.ZERO):
                raise ValueError(f"{name}^{mu} is not Grassmann-{parity}")


def validate_message(check, st):
    with pytest.raises(ValueError) as info:
        check(st)
    return str(info.value)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("mu", range(4))
@pytest.mark.parametrize("name", ["x", "v", "xi"])
def test_validate_names_wrong_parity_component(name, mu, sign, alg4):
    """A wrong-parity coefficient of 1e-10 fails with the loop's message;
    one of PRUNE_TOL passes."""
    st = standard_state(alg4)
    slot = 3 if name == "xi" else 1    # theta1 theta2 in xi, theta1 in x and v
    getattr(st, name)[mu, slot] = sign * 1e-10
    want = f"{name}^{mu} is not Grassmann-{'odd' if name == 'xi' else 'even'}"
    assert validate_message(SuperState.validate, st) == validate_message(loop_validate, st) == want
    getattr(st, name)[mu, slot] = sign * PRUNE_TOL
    st.validate()
    loop_validate(st)


def test_validate_names_first_offender_as_loop(alg4):
    """With several wrong-parity coefficients, in any slot and of any size
    above PRUNE_TOL, the one pass names the component the loop names."""
    rng = np.random.default_rng(24)
    for _ in range(200):
        st = standard_state(alg4)
        for _ in range(rng.integers(1, 4)):
            name = ("x", "v", "xi")[rng.integers(3)]
            mask = alg4.even_mask if name == "xi" else alg4.odd_mask
            value = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.9, 0.0)
            getattr(st, name)[rng.integers(4), rng.choice(np.flatnonzero(mask))] = value
        assert validate_message(SuperState.validate, st) == validate_message(loop_validate, st)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("name, fld", field_corpus(), ids=[n for n, _ in field_corpus()])
def test_monitors_equal_per_step_reductions(name, fld, n):
    """constraint_max, lambda_max and vv_body, reduced after the step loop,
    equal the per-step reductions of the rate's own xi.v, lam and v.v at
    every record, bitwise: through the batched formula ``_const_monitors``,
    on every record at once, for a constant field at n = 2, through ``_rhs``
    otherwise.  ``loaded_state(n)`` loads every generator, so the records
    are the states the run stepped."""
    par = ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)
    traj = integrate_super(loaded_state(n), fld, par, h=0.05, steps=12, record_every=1)
    alg = traj.alg
    records = np.stack((traj.x, traj.v, traj.xi), axis=1)
    if fld.constant and n <= 2:
        xi_v, lam, vv = _const_monitors(fld._f_const, par, np.array([_pack(alg, y) for y in records]))
        want = np.array((np.abs(xi_v).max(axis=-1), np.abs(lam).max(axis=-1), vv))
    else:
        want = []
        for y in records:
            _, _, lam, _, vv, v_xi = _rhs(alg, fld, par, *y)
            want.append((np.abs(v_xi).max(), np.abs(lam).max(), vv[0]))
        want = np.array(want).T
    for got, ref in zip((traj.constraint_max, traj.lambda_max, traj.vv_body), want, strict=True):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("steps, record_every, name", [
    (2.5, 1, "steps"), ("4", 1, "steps"), (True, 1, "steps"), (4, 1.0, "record_every"),
])
def test_rk4_rejects_non_integer_counts(steps, record_every, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        rk4(lambda y, i: -y, np.ones(2), 0.1, steps, record_every)


def test_rk4_takes_numpy_integer_counts():
    steps, rec = rk4(lambda y, i: -y, np.ones(2), 0.1, np.int64(3), np.int64(2))
    assert steps.tolist() == [0, 2, 3] and rec.shape == (3, 2)


class TestConstraint:
    def test_orthogonal_initial_data(self, alg4):
        st = standard_state(alg4)
        assert constraint_value(st).is_zero()

    def test_generic_data_exact_contraction(self, alg4):
        u = boosted_velocity(1.5)
        c = np.array([[0.3, 0.1, -0.7, 0.2], [1.0, 0.0, 0.4, -0.3]])
        st = SuperState.from_real(np.zeros(4), u, c, alg4)
        got = constraint_value(st)
        # oracle: xi_mu v^mu generator by generator
        want = np.zeros(alg4.dim)
        for a in range(2):
            want[1 << a] = np.sum(SIGNS * c[a] * u)
        assert np.max(np.abs(got.coeffs - want)) < 1e-14

    def test_preserved_along_flow(self, alg4, linear_field, params):
        st = standard_state(alg4)
        traj = integrate_super(st, linear_field, params, h=1e-3, steps=1500, record_every=500)
        assert traj.constraint_max.max() < 1e-9


class TestIntegrateSuper:
    def test_free_particle_exact(self, alg4, params):
        u = boosted_velocity(2.0)
        st = standard_state(alg4)
        traj = integrate_super(st, ZERO_FIELD, params, h=0.05, steps=200, record_every=50)
        for i in range(len(traj)):
            s = traj.s[i]
            want_x = np.zeros((4, alg4.dim))
            want_x[:, 0] = u * s
            assert np.max(np.abs(traj.x[i] - want_x)) < 1e-12
            assert np.max(np.abs(traj.v[i] - st.v)) == 0.0
            assert np.max(np.abs(traj.xi[i] - st.xi)) == 0.0

    def test_body_matches_exponential_oracle(self, alg4, b_field, params_no_anomaly):
        period = 2 * np.pi
        h = period / 1000
        steps = 2000
        st = standard_state(alg4)
        traj = integrate_super(st, b_field, params_no_anomaly, h=h, steps=steps, record_every=200)
        red = leading_order(traj)
        oracle = ConstantFieldOracle(
            BMTState(np.zeros(4), boosted_velocity(2.0), np.zeros((4, 4))),
            constant_f_lower([0, 0, 0], [0, 0, 1.0]),
            params_no_anomaly,
        )
        samp = oracle.sample(red.s[1:], h_ref=h * 10)
        assert np.max(np.abs(red.x[1:] - samp.x)) < 1e-8
        assert np.max(np.abs(red.u[1:] - samp.u)) < 1e-8

    def test_step_halving_fourth_order(self, alg4, b_field, params):
        period = 2 * np.pi
        st = standard_state(alg4)
        oracle = ConstantFieldOracle(
            BMTState(np.zeros(4), boosted_velocity(2.0), np.zeros((4, 4))),
            constant_f_lower([0, 0, 0], [0, 0, 1.0]),
            params,
        )
        errs = []
        for h, steps in ((period / 200, 200), (period / 400, 400)):
            traj = integrate_super(st, b_field, params, h=h, steps=steps, record_every=steps)
            ref = oracle.sample(np.array([period]), h_ref=period / 2000)
            err = max(
                np.max(np.abs(traj.x[-1][:, 0] - ref.x[0])),
                np.max(np.abs(traj.v[-1][:, 0] - ref.u[0])),
            )
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_parity_preserved_exactly(self, alg4, linear_field, params):
        st = standard_state(alg4)
        traj = integrate_super(st, linear_field, params, h=2e-3, steps=300, record_every=100)
        odd_rows = ~alg4.even_mask
        for i in range(len(traj)):
            assert np.all(traj.x[i][:, odd_rows] == 0.0)
            assert np.all(traj.v[i][:, odd_rows] == 0.0)
            assert np.all(traj.xi[i][:, alg4.even_mask] == 0.0)

    def test_no_anomaly_multiplier_stays_zero(self, alg4, b_field, params_no_anomaly):
        st = standard_state(alg4)
        traj = integrate_super(st, b_field, params_no_anomaly, h=1e-3, steps=500, record_every=250)
        assert traj.lambda_max.max() < 1e-14

    def test_velocity_norm_body_drift(self, alg4, b_field, params):
        st = standard_state(alg4)
        traj = integrate_super(st, b_field, params, h=1e-3, steps=2000, record_every=1000)
        assert np.max(np.abs(traj.vv_body - 1.0)) < 1e-8

    @pytest.mark.parametrize("field", ["constant", "gradient"])
    def test_full_load_n6_matches_n2(self, alg6, b_field, params, field):
        """Every generator loaded, so the run does its arithmetic at N = 6."""
        fld = b_field if field == "constant" else gradient_b_field()
        st2 = standard_state(algebra(2))
        u0 = st2.v[:, 0]
        rows = np.random.default_rng(66).normal(size=(4, 4))
        rows -= np.outer(rows @ (SIGNS * u0), u0)     # Minkowski-orthogonal to u0
        rows *= 0.05 / np.max(np.abs(rows), axis=1, keepdims=True)
        c = np.vstack([st2.xi[:, 1], st2.xi[:, 2], rows])
        st6 = SuperState.from_real(np.zeros(4), u0, c, alg6)
        traj6 = integrate_super(st6, fld, params, h=1e-3, steps=200, record_every=50)
        traj2 = integrate_super(st2, fld, params, h=1e-3, steps=200, record_every=50)
        red6 = leading_order(traj6)
        red2 = leading_order(traj2)
        for name in ("x", "u", "spin"):
            assert np.max(np.abs(getattr(red6, name) - getattr(red2, name))) <= 1e-12
        assert traj6.constraint_max.max() <= 1e-9
        # the perturbations reach v through the multiplier: theta3 theta4
        assert np.any(traj6.v[-1][:, 0b001100] != 0.0)

    @pytest.mark.parametrize("field", ["constant", "gradient"])
    def test_runs_in_loaded_subalgebra(self, alg6, b_field, params, field):
        """theta2 and theta5 carry standard_state's theta1 and theta2 rows."""
        fld = b_field if field == "constant" else gradient_b_field()
        st2 = standard_state(algebra(2))
        c = np.zeros((5, 4))
        c[1], c[4] = st2.xi[:, 1], st2.xi[:, 2]
        st6 = SuperState.from_real(np.zeros(4), st2.v[:, 0], c, alg6)
        traj6 = integrate_super(st6, fld, params, h=1e-3, steps=60, record_every=20)
        traj2 = integrate_super(st2, fld, params, h=1e-3, steps=60, record_every=20)
        assert traj6.alg is st6.alg
        masks = [0, 2, 16, 18]
        others = np.setdiff1d(np.arange(alg6.dim), masks)
        # the N = 2 run is relabeled too, so the theta2 theta5 signs are
        # checked against a run that never leaves the N = 6 algebra
        ref = full_algebra_rk4(st6, fld, params, h=1e-3, steps=60)
        for name, want in zip(("x", "v", "xi"), ref):
            full, sub = getattr(traj6, name), getattr(traj2, name)
            assert np.array_equal(full[..., masks], sub)
            assert np.all(full[..., others] == 0.0)
            assert np.max(np.abs(full[-1] - want)) <= 1e-13
        assert np.any(traj6.v[-1][:, 18] != 0.0)

    @pytest.mark.parametrize("steps, record_every, name", [
        (0, 1, "steps"), (-1, 1, "steps"), (5, 0, "record_every"), (5, -2, "record_every"),
    ])
    def test_rejects_bad_step_counts(self, alg4, b_field, params, steps, record_every, name):
        with pytest.raises(ValueError, match=name):
            integrate_super(standard_state(alg4), b_field, params, h=1e-3, steps=steps,
                            record_every=record_every)

    def test_lightlike_abort_names_step(self, alg4, b_field, params):
        """Both paths name the step; ``integrate_super`` re-raises ``_rhs``'s
        error with the step added, so only there the error has a cause."""
        for fld, rows, on_rhs in (
            (b_field, np.zeros((2, 4)), False),                                  # map form, k = 0
            (gradient_b_field(), [[0, 0, 1, 0], [0, 0, 0, 1]], True),            # k = 2
            (b_field, [[0, 0, 1, 0], [0, 0, 0, 1], [0.1, 0.1, 0, 0]], True),     # k = 3
        ):
            st = SuperState.from_real(np.zeros(4), [1.0, 1.0, 0.0, 0.0], rows, alg4)
            with pytest.raises(LightlikeVelocityError, match="^v.v has zero body at step 0$") as err:
                integrate_super(st, fld, params, h=1e-3, steps=3)
            assert isinstance(err.value.__cause__, LightlikeVelocityError) == on_rhs


@pytest.mark.parametrize("integrator", ["super", "bmt"])
def test_record_stride_not_dividing_steps(integrator, alg4, b_field, params):
    """Both integrators record every third of 7 steps and the last, from s0."""
    h, s0 = 1e-2, 0.3
    u0 = boosted_velocity(2.0)
    if integrator == "super":
        st = SuperState.from_real(np.zeros(4), u0, [[0, 0, 1, 0], [0, 0, 0, 1]], alg4, s=s0)
        run, fields = integrate_super, ("x", "v", "xi")
    else:
        st = BMTState.from_pairs(np.zeros(4), u0, [0, 0, 0, 0, 0, 0.5], s=s0)
        run, fields = integrate_bmt, ("x", "u", "spin")
    traj = run(st, b_field, params, h, 7, 3)
    every_step = run(st, b_field, params, h, 7, 1)
    if integrator == "super":
        assert traj.steps_recorded.tolist() == [0, 3, 6, 7]
    assert np.array_equal(traj.s, s0 + np.array([0, 3, 6, 7]) * h)
    for name in fields:
        assert np.array_equal(getattr(traj, name)[-1], getattr(every_step, name)[-1])


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
@pytest.mark.parametrize("integrator", ["super", "bmt"])
def test_rejects_non_finite_step_size(integrator, h, alg4, b_field, params):
    if integrator == "super":
        st, run = standard_state(alg4), integrate_super
    else:
        st = BMTState.from_pairs(np.zeros(4), boosted_velocity(2.0), [0, 0, 0, 0, 0, 0.5])
        run = integrate_bmt
    with pytest.raises(ValueError, match="step size h"):
        run(st, b_field, params, h, 5)


def test_rk4_leading_axis_rides_along():
    """A batch stacked on a leading axis steps as each member does alone."""
    def rates(y, i):
        p, q, r = y[..., 0], y[..., 1], y[..., 2]
        return np.stack([q, -np.sin(p) + 0.3 * r, -0.2 * p * q], axis=-1)

    batch = np.random.default_rng(5).normal(size=(4, 3))
    steps, rec = rk4(rates, batch, 0.1, 7, 3)
    assert steps.tolist() == [0, 3, 6, 7] and rec.shape == (4, 4, 3)
    for j, y0 in enumerate(batch):
        assert np.array_equal(rec[:, j], rk4(rates, y0, 0.1, 7, 3)[1])


class TestLeadingOrder:
    def test_initial_point_recovery(self, alg4, b_field, params):
        st = standard_state(alg4)
        traj = integrate_super(st, b_field, params, h=1e-3, steps=1, record_every=1)
        red = leading_order(traj)
        assert np.allclose(red.x[0], np.zeros(4))
        assert np.allclose(red.u[0], boosted_velocity(2.0))
        want = np.zeros((4, 4))
        want[2, 3] = 0.5   # lowered (0,0,1,0) and (0,0,0,1) wedge
        want[3, 2] = -0.5
        assert np.allclose(red.spin[0], want)

    def test_free_particle_constant_spin_block(self, alg4, params):
        st = standard_state(alg4)
        traj = integrate_super(st, ZERO_FIELD, params, h=0.05, steps=100, record_every=20)
        red = leading_order(traj)
        assert np.max(np.abs(red.spin - red.spin[0])) == 0.0
