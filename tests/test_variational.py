"""Discrete action, directional stationarity, and equation-of-motion defects."""

import functools

import numpy as np
import pytest

from grasspin import (
    DiscretePath,
    FieldConfig,
    ModelParams,
    PathVariation,
    Polynomial,
    SuperState,
    action,
    euler_lagrange_residual,
    integrate_super,
    stationarity_residual,
)
import grasspin.grassmann as grassmann
import grasspin.variational as variational
from grasspin.grassmann import MAX_GENERATORS, GrassmannAlgebra, Parity, algebra
from grasspin.variational import even_directional_quotient

from conftest import (
    boosted_velocity, even_quotient, field_corpus, loaded_state, richardson_quotient,
    standard_state,
)


ZERO_FIELD = FieldConfig([Polynomial.zero()] * 4)


def straight_line_path(alg, n_nodes=101, h=0.05, constant_xi=True):
    u = boosted_velocity(2.0)
    s = h * np.arange(n_nodes)
    x = np.zeros((n_nodes, 4, alg.dim))
    x[:, :, 0] = s[:, None] * u[None, :]
    xi = np.zeros((n_nodes, 4, alg.dim))
    if constant_xi:
        xi[:, 2, 1] = 1.0
        xi[:, 3, 2] = 1.0
    return DiscretePath(alg, s, x, xi)


def solution_path(alg, fld, par, steps=500, h=2 * np.pi / 1000):
    traj = integrate_super(standard_state(alg), fld, par, h=h, steps=steps, record_every=1)
    return DiscretePath.from_trajectory(traj)


def bump(path, mode, direction, kind):
    t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
    prof = np.sin(np.pi * mode * t)[:, None] * np.asarray(direction, float)[None, :]
    prof[0] = 0.0
    prof[-1] = 0.0
    return PathVariation(dx=prof) if kind == "x" else PathVariation(dxi=prof)


def assert_probe_reads_fresh_block(fld, par, kind, k=2):
    """The path loads theta1..theta_k.  Adding the profile times
    theta_{k+1} to xi (odd), or times theta_{k+1} theta_{k+2} to x (even),
    the residual is the largest |coeff| of that fresh block of the public
    action in algebra(k + 1) or algebra(k + 2), exactly."""
    sub, ext = algebra(k), algebra(k + (1 if kind == "xi" else 2))
    # loaded_state(2) is standard_state(algebra(2))
    traj = integrate_super(loaded_state(k), fld, par, h=2 * np.pi / 1000, steps=120,
                           record_every=1)
    path = DiscretePath.from_trajectory(traj)
    var = bump(path, 1, [1.0, 0.5, -0.2, 0.8], kind)
    x, xi = sub.embed(path.x, ext), sub.embed(path.xi, ext)
    fresh = ext.dim - sub.dim   # theta_{k+1}, or theta_{k+1} theta_{k+2}
    target, prof = (x, var.dx) if kind == "x" else (xi, var.dxi)
    target[..., fresh] += prof
    block = action(DiscretePath(ext, path.s, x, xi), fld, par).coeffs[fresh:]
    assert block.any()
    assert stationarity_residual(path, fld, par, var) == np.max(np.abs(block))


class TestAction:
    def test_free_straight_line_exact(self, alg4, params):
        path = straight_line_path(alg4)
        act = action(path, ZERO_FIELD, params)
        expected = 0.5 * params.mass * (path.s[-1] - path.s[0])
        assert act.body == pytest.approx(expected, abs=1e-12)
        assert act.soul.max_abs() < 1e-14

    def test_constant_xi_contributes_nothing(self, alg4, params):
        with_xi = straight_line_path(alg4, constant_xi=True)
        without = straight_line_path(alg4, constant_xi=False)
        a1 = action(with_xi, ZERO_FIELD, params)
        a2 = action(without, ZERO_FIELD, params)
        assert (a1 - a2).max_abs() < 1e-14

    def test_refined_quadrature_convergence(self, alg4, b_field, params_no_anomaly):
        # one gyration period sampled at 4000 steps; coarse actions by
        # subsampling the same orbit, reference at the full resolution
        period = 2 * np.pi
        n_fine = 4000
        traj = integrate_super(
            standard_state(alg4), b_field, params_no_anomaly,
            h=period / n_fine, steps=n_fine, record_every=1,
        )
        fine = DiscretePath.from_trajectory(traj)
        ref = action(fine, b_field, params_no_anomaly).coeffs

        def coarse_action(stride):
            sub = DiscretePath(
                alg4, fine.s[::stride], fine.x[::stride], fine.xi[::stride]
            )
            return action(sub, b_field, params_no_anomaly).coeffs

        err_80 = np.max(np.abs(coarse_action(80) - ref))
        err_40 = np.max(np.abs(coarse_action(40) - ref))
        assert 3.4 < err_80 / err_40 < 4.6

    def test_action_is_even(self, alg4, b_field, params):
        path = solution_path(alg4, b_field, params, steps=200)
        act = action(path, b_field, params)
        odd_part = act.coeffs[~alg4.even_mask]
        assert np.max(np.abs(odd_part)) < 1e-12
        assert act.parity() is Parity.EVEN

    def test_coarse_grid_rejected(self, alg4, params):
        path = straight_line_path(alg4, n_nodes=4)
        with pytest.raises(ValueError, match="coarse"):
            action(path, ZERO_FIELD, params)

    def test_direct_field_rejected(self, alg4, params):
        from grasspin import DirectField

        path = straight_line_path(alg4)
        direct = DirectField({(1, 2): Polynomial.constant(1.0)})
        with pytest.raises(TypeError, match="potential"):
            action(path, direct, params)


class TestStationarity:
    def test_zero_variation_zero_residual(self, alg4, b_field, params):
        path = solution_path(alg4, b_field, params, steps=120)
        var = PathVariation(dx=np.zeros((len(path.s), 4)))
        assert stationarity_residual(path, b_field, params, var) == 0.0

    def test_solution_residual_quadratic_in_grid(self, alg4, b_field, params):
        h = 2 * np.pi / 1000
        path1 = solution_path(alg4, b_field, params, steps=400, h=h)
        path2 = solution_path(alg4, b_field, params, steps=800, h=h / 2)
        rng = np.random.default_rng(31)
        ratios = []
        for kind in ("x", "xi"):
            direction = rng.normal(size=4)
            r1 = stationarity_residual(path1, b_field, params, bump(path1, 2, direction, kind))
            r2 = stationarity_residual(path2, b_field, params, bump(path2, 2, direction, kind))
            ratios.append(r1 / r2)
        assert all(3.4 < r < 4.6 for r in ratios)

    def test_perturbed_path_scores_higher(self, alg4, b_field, params):
        path = solution_path(alg4, b_field, params, steps=300)
        t = (path.s - path.s[0]) / (path.s[-1] - path.s[0])
        bad_x = path.x.copy()
        bad_x[:, 1, 0] += 0.05 * np.sin(np.pi * t) ** 2
        bad = DiscretePath(alg4, path.s.copy(), bad_x, path.xi.copy())
        rng = np.random.default_rng(77)
        for kind in ("x", "xi"):
            var_dir = rng.normal(size=4)
            good = stationarity_residual(path, b_field, params, bump(path, 1, var_dir, kind))
            worse = stationarity_residual(bad, b_field, params, bump(bad, 1, var_dir, kind))
            assert worse > 10.0 * good

    def test_quotient_convergence_in_h_dir(self, alg4, b_field, params):
        # the reference's two-sided quotients at h_dir and h_dir/2 agree to O(h_dir^2)
        path = solution_path(alg4, b_field, params, steps=150)
        var = bump(path, 1, [0.3, -1.0, 0.4, 0.2], "x")
        q_vals = {}
        for h_dir in (2e-2, 1e-2, 5e-3):
            q_vals[h_dir] = even_quotient(path, b_field, params, var.dx, h_dir)
        d1 = np.max(np.abs(q_vals[2e-2] - q_vals[1e-2]))
        d2 = np.max(np.abs(q_vals[1e-2] - q_vals[5e-3]))
        assert 3.0 < d1 / d2 < 5.5

    def test_endpoint_variation_rejected(self, alg4):
        prof = np.zeros((50, 4))
        prof[0, 1] = 1.0
        with pytest.raises(ValueError, match="endpoint"):
            PathVariation(dx=prof)

    def test_odd_direction_uses_fresh_generator(self, b_field, params):
        assert_probe_reads_fresh_block(b_field, params, "xi")

    def test_even_direction_uses_fresh_monomial(self, b_field, params):
        assert_probe_reads_fresh_block(b_field, params, "x")

    @pytest.mark.parametrize("field", ["gradient_b", "random_cubic"])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("kind", ["x", "xi"])
    def test_probe_reads_fresh_block(self, kind, k, field, params):
        # at k = 4 the souls of these fields reach eval_even's order 3
        assert_probe_reads_fresh_block(dict(field_corpus())[field], params, kind, k)

    def test_even_probe_builds_no_larger_algebra(self, params, monkeypatch):
        """At k = 4 the even probe multiplies in the dual algebra over
        algebra(4): it constructs no GrassmannAlgebra with 6 generators."""
        fld = dict(field_corpus())["gradient_b"]
        traj = integrate_super(loaded_state(4), fld, params, h=0.05, steps=8)
        path = DiscretePath.from_trajectory(traj)
        var = bump(path, 1, [0.3, 1.0, -0.5, 0.7], "x")
        # fresh factory caches, so that an algebra built earlier hides no construction
        for name in ("algebra", "dual_algebra"):
            fresh = functools.lru_cache(getattr(grassmann, name).__wrapped__)
            for module in (grassmann, variational):
                monkeypatch.setattr(module, name, fresh)
        built, init = [], GrassmannAlgebra.__init__

        def spy(alg, n_generators):
            built.append(n_generators)
            init(alg, n_generators)

        monkeypatch.setattr(GrassmannAlgebra, "__init__", spy)
        assert stationarity_residual(path, fld, params, var) > 0.0
        assert built == [4]

    def test_even_probe_has_no_roundoff_floor(self, params):
        # 16 steps from loaded_state(4) on the zero field: the path solves
        # the equations, so DS is the action's roundoff, with no step to divide by
        traj = integrate_super(loaded_state(4), ZERO_FIELD, params, h=0.05, steps=16)
        path = DiscretePath.from_trajectory(traj)
        var = bump(path, 1, [0.3, 1.0, -0.5, 0.7], "x")
        assert stationarity_residual(path, ZERO_FIELD, params, var) <= 1e-14

    @pytest.mark.parametrize("mu_prime", [1.0, 1.2])
    @pytest.mark.parametrize("field", ["constant_eb", "gradient_b"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_exact_even_probe_within_richardson_error(self, n, field, mu_prime):
        """The exact DS lies within the reference's own error estimate at
        step h: the spread of its values at steps 2h and h, which bounds its
        O(h^4) truncation, plus its roundoff floor of 3 M ulps of the largest
        action coefficient over h (M midpoint terms per coefficient, and
        Richardson weights 4/3 on the quotient at h/2 and 1/3 at h)."""
        fld = dict(field_corpus())[field]
        par = ModelParams(mass=1.0, charge=1.0, mu_prime=mu_prime)
        state = standard_state(algebra(2)) if n == 2 else loaded_state(4)
        traj = integrate_super(state, fld, par, h=2 * np.pi / 1000, steps=120, record_every=1)
        path = DiscretePath.from_trajectory(traj)
        var = bump(path, 1, [0.3, -1.0, 0.4, 0.2], "x")
        h_dir = 5e-3
        ref = richardson_quotient(path, fld, par, var.dx, h_dir)
        spread = np.max(np.abs(richardson_quotient(path, fld, par, var.dx, 2 * h_dir) - ref))
        scale = np.max(np.abs(action(path, fld, par).coeffs))
        floor = 3 * (path.s.size - 1) * np.finfo(float).eps * scale / h_dir
        exact = even_directional_quotient(path, fld, par, var).coeffs
        assert np.max(np.abs(exact - ref)) <= spread + floor

    @pytest.mark.parametrize("kind,n", [("x", MAX_GENERATORS - 1), ("xi", MAX_GENERATORS)])
    def test_probe_rejects_path_past_generator_limit(self, monkeypatch, params, kind, n):
        # a 5-node path loading all n generators; the check comes before any action
        def no_action(*args):
            raise AssertionError("action formed before the generator check")

        monkeypatch.setattr(variational, "_action_coeffs", no_action)
        alg = algebra(n)
        xi = np.zeros((5, 4, alg.dim))
        xi[:, 1, 1 << np.arange(n)] = 1.0
        path = DiscretePath(alg, 0.1 * np.arange(5), np.zeros_like(xi), xi)
        var = bump(path, 1, [0.3, 1.0, -0.5, 0.7], kind)
        parity = "even" if kind == "x" else "odd"
        want = f"^{parity} stationarity probe needs at most {n - 1} loaded generators, the path loads {n}$"
        with pytest.raises(ValueError, match=want):
            stationarity_residual(path, ZERO_FIELD, params, var)
        if kind == "x":
            with pytest.raises(ValueError, match=want):
                even_directional_quotient(path, ZERO_FIELD, params, var)


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestInputChecks:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["x", "xi"])
    def test_path_rejects_non_finite(self, alg4, name, bad):
        path = straight_line_path(alg4, n_nodes=9)
        arrays = {"x": path.x.copy(), "xi": path.xi.copy()}
        arrays[name][4, 1, 3] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            DiscretePath(alg4, path.s, **arrays)

    @pytest.mark.parametrize("nodes", [8, 10])
    @pytest.mark.parametrize("name", ["x", "xi"])
    def test_path_rejects_wrong_node_count(self, alg4, name, nodes):
        path = straight_line_path(alg4, n_nodes=9)
        arrays = {"x": path.x, "xi": path.xi}
        arrays[name] = np.zeros((nodes, 4, alg4.dim))
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            DiscretePath(alg4, path.s, **arrays)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["dx", "dxi"])
    def test_variation_rejects_non_finite(self, name, bad):
        prof = np.zeros((9, 4))
        prof[4, 2] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PathVariation(**{name: prof})

    @pytest.mark.parametrize("rows", [5, 8, 10])
    @pytest.mark.parametrize("name", ["dx", "dxi"])
    def test_profile_rows_must_match_path(self, alg4, b_field, params, name, rows):
        path = straight_line_path(alg4, n_nodes=9)
        var = PathVariation(**{name: np.zeros((rows, 4))})
        want = f"^{name} has {rows} rows, the path has 9 nodes"
        with pytest.raises(ValueError, match=want):
            stationarity_residual(path, b_field, params, var)
        if name == "dx":
            with pytest.raises(ValueError, match=want):
                even_directional_quotient(path, b_field, params, var)


class TestEulerLagrangeResidual:
    def test_free_straight_line_zero(self, alg4, params):
        path = straight_line_path(alg4)
        el = euler_lagrange_residual(path, ZERO_FIELD, params)
        assert el.x_residual.max() < 1e-12
        assert el.xi_residual.max() < 1e-12

    def test_solution_quadratic_convergence(self, alg4, b_field, params):
        h = 2 * np.pi / 1000
        path1 = solution_path(alg4, b_field, params, steps=200, h=h)
        path2 = solution_path(alg4, b_field, params, steps=400, h=h / 2)
        el1 = euler_lagrange_residual(path1, b_field, params)
        el2 = euler_lagrange_residual(path2, b_field, params)
        assert 3.4 < el1.x_residual.max() / el2.x_residual.max() < 4.6
        assert 3.4 < el1.xi_residual.max() / el2.xi_residual.max() < 4.6

    def test_random_path_reported_not_failed(self, alg4, b_field, params):
        rng = np.random.default_rng(13)
        n = 60
        s = 0.01 * np.arange(n)
        x = np.zeros((n, 4, alg4.dim))
        x[:, :, 0] = rng.normal(size=(n, 4))
        x[:, 0, 0] += 3.0 + 2 * np.arange(n) * 0.01   # keep v.v body away from 0
        xi = np.zeros((n, 4, alg4.dim))
        xi[:, :, 1] = rng.normal(size=(n, 4))
        path = DiscretePath(alg4, s, x, xi)
        el = euler_lagrange_residual(path, b_field, params)
        assert np.isfinite(el.x_residual).all()
        assert el.x_residual.max() > 1.0


@pytest.mark.parametrize("field", ["constant_eb", "random_cubic"])
def test_restricts_to_loaded_generators(params, field):
    """A path in algebra(8) that loads theta2 and theta5 gives what the same
    path written into algebra(2) gives (theta2 -> theta1, theta5 -> theta2).

    Neither generator is the lowest, so a restriction that reorders them
    flips the sign of the action's theta2 theta5 coefficient.
    """
    fld = dict(field_corpus())[field]
    alg8, masks = algebra(8), [0, 2, 16, 18]
    st2 = standard_state(algebra(2))
    c = np.zeros((5, 4))
    c[1], c[4] = st2.xi[:, 1], st2.xi[:, 2]
    st8 = SuperState.from_real(np.zeros(4), st2.v[:, 0], c, alg8)
    path8 = DiscretePath.from_trajectory(
        integrate_super(st8, fld, params, h=2 * np.pi / 1000, steps=60))
    path2 = DiscretePath(algebra(2), path8.s, path8.x[..., masks], path8.xi[..., masks])
    assert np.all(np.delete(path8.xi, masks, axis=-1) == 0.0)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    want = np.zeros(alg8.dim)
    want[masks] = action(path2, fld, params).coeffs
    assert abs(want[18]) > 1e-6 * abs(want[0])
    assert_close(action(path8, fld, params).coeffs, want)
    for kind in ("x", "xi"):
        var = bump(path8, 2, [0.3, 1.0, -0.5, 0.7], kind)
        assert_close(stationarity_residual(path8, fld, params, var),
                     stationarity_residual(path2, fld, params, var))
    el8, el2 = (euler_lagrange_residual(p, fld, params) for p in (path8, path2))
    assert_close(el8.x_residual, el2.x_residual)
    assert_close(el8.xi_residual, el2.xi_residual)
