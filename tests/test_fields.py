"""Field tensor evaluation, exact derivatives, and the Maxwell identity."""

import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from grasspin.fields import (
    DirectField,
    FieldConfig,
    NonEvenPointError,
    _gather_index,
    _gathered,
    _parse_even_point,
    constant_f_lower,
    constant_field,
    maxwell_residual,
)
from grasspin.grassmann import MAX_GENERATORS, GrassmannNumber, algebra
from grasspin.minkowski import PAIRS, SIGNS, pack_pairs, unpack_pairs
from grasspin.polynomials import Polynomial, PolyVectorEvaluator, _monomials

from conftest import ReferenceField, field_corpus, gradient_b_field, reference_f_polys


def substitute(poly: Polynomial, point):
    """Direct evaluation of a polynomial at Grassmann arguments (oracle)."""
    alg = point[0].alg
    total = alg.zero()
    for exps, coef in poly.terms.items():
        term = alg.scalar(coef)
        for axis, e in enumerate(exps):
            for _ in range(e):
                term = term * point[axis]
        total = total + term
    return total


def assert_matches_substitution(fld: FieldConfig, point, name: str, relative: bool = False):
    """F, its raised derivative and A at ``point`` against :func:`substitute`,
    to 1e-12, or to 1e-12 of max(1, |value|) if ``relative``."""
    f = fld.field_tensor(point)
    df = fld.field_derivative(point)
    bodies, souls, alg = _parse_even_point(point)
    a = fld.potential_coeffs(bodies, souls, alg)
    f_polys = reference_f_polys(fld)
    checks = [(f"F{m}{n}", f[m, n], f_polys[m][n]) for m in range(4) for n in range(4)]
    checks += [(f"dF{k}{m}{n}", df[k, m, n] * float(SIGNS[m] * SIGNS[n]), f_polys[m][n].diff(k))
               for k in range(4) for m in range(4) for n in range(4)]
    checks += [(f"A{mu}", GrassmannNumber(alg, a[mu]), fld.potential[mu])
               for mu in range(4)]
    for label, got, poly in checks:
        want = substitute(poly, point)
        diff = (got - want).max_abs()
        scale = max(1.0, want.max_abs()) if relative else 1.0
        assert diff < 1e-12 * scale, f"{name} {label}: {diff}"


def random_even_point(alg, rng, dense: bool = False):
    """Even 4-vector with two soul monomials per component, or every even
    one if ``dense``, so that products of N/2 souls survive."""
    comps = []
    even_masks = [m for m in range(1, alg.dim) if alg.degree[m] % 2 == 0]
    for _ in range(4):
        coeffs = np.zeros(alg.dim)
        coeffs[0] = rng.uniform(-2, 2)
        size = len(even_masks) if dense else 2
        for m in rng.choice(even_masks, size=size, replace=False):
            coeffs[m] = rng.uniform(-0.5, 0.5)
        comps.append(GrassmannNumber(alg, coeffs))
    return comps


@pytest.mark.parametrize("shape, axis", [((6,), -1), ((3, 6), -1), ((2, 6, 5), -2), ((6, 2), 0)])
def test_pair_packing_matches_index_loop(shape, axis):
    vals = np.random.default_rng(31).normal(size=shape)
    moved = np.moveaxis(vals, axis, -1)
    want = np.zeros(moved.shape[:-1] + (4, 4))
    for a, (m, n) in enumerate(PAIRS):
        want[..., m, n] = moved[..., a]
        want[..., n, m] = -moved[..., a]
    ax = axis % len(shape)
    got = np.moveaxis(unpack_pairs(vals, axis=axis), (ax, ax + 1), (-2, -1))
    assert np.array_equal(got, want)
    assert np.array_equal(pack_pairs(want), moved)


def scatter_unpack(vals, axis):
    """``unpack_pairs`` as zeros plus two fancy assignments, the form the
    signed gather replaced."""
    vals = np.asarray(vals)
    axis %= vals.ndim
    rows, cols = (np.array(idx) for idx in zip(*PAIRS))
    out = np.zeros(vals.shape[:axis] + (4, 4) + vals.shape[axis + 1:])
    lead = (slice(None),) * axis
    out[lead + (rows, cols)] = vals
    out[lead + (cols, rows)] = -vals
    return out


@pytest.mark.parametrize("shape, axis", [((6,), -1), ((5, 6), -1), ((4, 6, 16), -2),
                                         ((2, 3, 6, 8), -2)])
def test_pair_unpacking_equals_scatter_bitwise(shape, axis):
    """Signed zeros, infinities and NaN come through as the scatter put
    them, and every diagonal entry is +0.0."""
    vals = np.random.default_rng(32).normal(size=shape)
    flat = np.moveaxis(vals, axis, -1).reshape(-1, 6)
    flat[0, :4] = (-0.0, 0.0, np.inf, -np.inf)
    flat[-1, 5] = np.nan
    vals = np.moveaxis(flat.reshape(np.moveaxis(vals, axis, -1).shape), -1, axis)
    got, want = unpack_pairs(vals, axis=axis), scatter_unpack(vals, axis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    diag = np.diagonal(got, axis1=axis % vals.ndim, axis2=axis % vals.ndim + 1)
    assert not diag.any() and not np.signbit(diag).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "short", "text"])
@pytest.mark.parametrize("name", ["e_field", "b_field"])
@pytest.mark.parametrize("build", [constant_f_lower, constant_field])
def test_constant_field_rejects_non_finite(build, name, bad):
    vectors = {"e_field": [0.1, 0.0, 0.2], "b_field": [0.0, 0.0, 1.0]}
    vectors[name] = {"short": [1.0, 2.0], "text": [0.0, "a", 0.0]}.get(bad, [0.0, bad, 0.0])
    message = "must hold 3 real numbers" if isinstance(bad, str) else "must be finite"
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        build(**vectors)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polynomial_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"coefficient of \(1, 0, 0, 0\) must be finite"):
        Polynomial({(1, 0, 0, 0): bad})
    with pytest.raises(ValueError, match=r"coefficient of \(0, 2, 0, 0\) must be finite"):
        FieldConfig.from_entries([(1, (0, 0, 1, 0), 0.5), (1, (0, 2, 0, 0), bad)])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: FieldConfig.from_entries([(1, (0, 3, 0, 0), 1e308)]),
                 r"^potential component 1, term \(0, 3, 0, 0\): coefficient 1e\+308 overflows",
                 id="potential"),
    pytest.param(lambda: FieldConfig.from_entries([(0, (0, 1, 0, 0), 0.5), (2, (2, 0, 1, 0), 1e308)]),
                 r"^potential component 2, term \(2, 0, 1, 0\): coefficient 1e\+308 overflows",
                 id="second-term"),
    pytest.param(lambda: DirectField({(0, 1): Polynomial({(1, 0, 0, 0): 1.0}),
                                      (1, 2): Polynomial({(0, 0, 0, 3): 1e308})}),
                 r"^F component \(1, 2\), term \(0, 0, 0, 3\): coefficient 1e\+308 overflows",
                 id="direct"),
    # its order-2 Taylor weight 66 * 1.2e307 x3^9 overflows
    pytest.param(lambda: FieldConfig.from_entries([(1, (0, 0, 0, 12), 1e306)]),
                 r"^potential component 1, term \(0, 0, 0, 12\): coefficient 1e\+306 overflows",
                 id="taylor-weight"),
    # 1e300 x3^12 alone builds: its 12! would overflow, but no order above 8 is formed
    pytest.param(lambda: FieldConfig.from_entries([(1, (0, 0, 0, 12), 1e300),
                                                   (2, (0, 3, 0, 0), 1e308)]),
                 r"^potential component 2, term \(0, 3, 0, 0\): coefficient 1e\+308 overflows",
                 id="high-degree-first"),
    pytest.param(lambda: FieldConfig.from_entries([(0, (0, 1, 0, 0), -1.5e308),
                                                   (1, (1, 0, 0, 0), 1.5e308)]),
                 r"^field terms combine past the float range", id="sum"),
])
def test_overflowing_derivative_names_written_term(build, message):
    # the derived coefficient that overflows (here 3e308 x1^2, or F_01 = 3e308)
    # is not a term the caller wrote
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("exps", [(0, 1.5, 0, 0), (0, -1, 0, 0), (0, 1, 0), (0, np.nan, 0, 0)])
def test_polynomial_rejects_bad_exponents(exps):
    with pytest.raises(ValueError, match="^bad exponent tuple"):
        Polynomial({exps: 1.0})
    with pytest.raises(ValueError, match="^bad exponent tuple"):
        Polynomial.from_entries([(exps, 1.0)])


@pytest.mark.parametrize("entry, message", [
    ((-1, (0, 1, 0, 0), 1.0), r"^field entry \(-1, \(0, 1, 0, 0\), 1.0\): component must be"),
    ((4, (0, 1, 0, 0), 1.0), r"^field entry \(4, \(0, 1, 0, 0\), 1.0\): component must be"),
    ((1.7, (0, 1, 0, 0), 1.0), r"^field entry \(1.7, \(0, 1, 0, 0\), 1.0\): component must be"),
    ((1, (0, 1.5, 0, 0), 1.0), r"^field entry \(1, \(0, 1.5, 0, 0\), 1.0\): bad exponent tuple"),
], ids=["component-negative", "component-4", "component-fraction", "exponent-fraction"])
def test_field_entries_reject_bad_input(entry, message):
    with pytest.raises(ValueError, match=message):
        FieldConfig.from_entries([(0, (0, 1, 0, 0), 0.5), entry])


def test_taylor_orders_stop_at_half_the_generators(alg6):
    # no algebra has more than MAX_GENERATORS // 2 = 8 soul factors, so
    # degree 9 and degree 20 form the same Taylor slots
    ev9, ev20 = (PolyVectorEvaluator([Polynomial({(0, 2, 0, d - 2): 1.0})]) for d in (9, 20))
    assert ev9.n_orders == ev20.n_orders == MAX_GENERATORS // 2 + 1
    assert ev9.n_slots == ev20.n_slots
    fld = FieldConfig.from_entries([(1, (0, 0, 3, 17), 0.01), (2, (1, 0, 0, 1), 0.5)])
    point = random_even_point(alg6, np.random.default_rng(11), dense=True)
    assert_matches_substitution(fld, point, "degree 20", relative=True)


@pytest.mark.parametrize("pair", [(0.5, 2), (1.0, 2), ("a", 2)], ids=["half", "float", "str"])
def test_direct_field_rejects_non_integer_pair(pair):
    with pytest.raises(ValueError, match=r"^component pair \(.*\) must be two integers"):
        DirectField({pair: Polynomial.constant(1.0)})


def _direct_field() -> DirectField:
    """A non-closed tensor with cubic and constant pairs."""
    return DirectField({(0, 1): Polynomial({(1, 0, 0, 0): 0.3, (0, 2, 0, 1): -1.1}),
                        (1, 3): Polynomial({(1, 1, 1, 0): 0.4, (0, 0, 2, 0): 0.25}),
                        (2, 3): Polynomial.constant(0.7)})


def _quintic_field() -> FieldConfig:
    """A potential with an x1^3 and an x2^4 term."""
    return FieldConfig.from_entries([(2, (1, 3, 0, 1), 0.37), (0, (0, 1, 1, 0), -0.8),
                                     (3, (0, 0, 4, 1), 0.21)])


def _pad(points: np.ndarray) -> np.ndarray:
    """Real points (..., 4) padded to (x0, x1, x2, x3, 1)."""
    return np.concatenate((points, np.ones(points.shape[:-1] + (1,))), axis=-1)


def _assert_close(got, want, label):
    """``got`` equals ``want`` to 1e-13 of its largest |coefficient|."""
    assert got.shape == want.shape, label
    gap = np.max(np.abs(got - want), initial=0.0)
    assert gap <= 1e-13 * np.max(np.abs(want), initial=0.0), f"{label}: {gap}"


@pytest.mark.parametrize("n", [2, 4, 6])
def test_program_matches_three_evaluator_reference(n):
    """F, dF and A from the field's one program against three separate
    evaluators over F = dA by ``Polynomial.diff``, its 24 derivative
    polynomials, and A, at a batch of real points and at soul points."""
    alg = algebra(n)
    rng = np.random.default_rng(40 + n)
    for name, fld in field_corpus() + [("direct", _direct_field())]:
        ref = ReferenceField(fld)
        points = [(rng.normal(size=(5, 4)), None)]
        for dense in (True,) if n == 2 else (False, True):   # N = 2 has one even soul
            _, souls, _ = _parse_even_point(random_even_point(alg, rng, dense=dense))
            points.append((rng.normal(size=4), souls))
        for bodies, souls in points:
            label = f"{name} n={n} {'soul' if souls is not None else 'real'}"
            f, df = fld.f_and_df_coeffs(bodies, souls, alg)
            _assert_close(f, ref.f(bodies, souls, alg), f"{label} F")
            _assert_close(df, ref.df(bodies, souls, alg), f"{label} dF")
            _assert_close(fld.f_lower_coeffs(bodies, souls, alg), ref.f(bodies, souls, alg), label)
            _assert_close(fld.df_lower_coeffs(bodies, souls, alg), ref.df(bodies, souls, alg), label)
            if ref.a_eval is not None:
                f, a = fld.f_and_potential_coeffs(bodies, souls, alg)
                _assert_close(f, ref.f(bodies, souls, alg), f"{label} F with A")
                _assert_close(a, ref.a(bodies, souls, alg), f"{label} A")
                _assert_close(fld.potential_coeffs(bodies, souls, alg), ref.a(bodies, souls, alg), label)
        pts = rng.normal(size=(7, 4))
        _assert_close(fld.f_lower_real(pts), ref.f(pts, None, alg)[..., 0], f"{name} real F")
        _assert_close(fld.df_lower_real(pts), ref.df(pts, None, alg)[..., 0], f"{name} real dF")


def test_building_a_field_builds_one_program(monkeypatch):
    built = []
    init = PolyVectorEvaluator.__init__
    monkeypatch.setattr(PolyVectorEvaluator, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for build in (gradient_b_field, _direct_field, lambda: constant_field([0.3, 0, 0], [0, 0, 1.0])):
        built.clear()
        build()
        assert len(built) == 1


def test_program_memory_is_bounded():
    """A (3, 3, 3, 3) potential term, the largest the config accepts, builds
    its program in under 0.2 s and holds under 40 MiB of arrays."""
    start = time.perf_counter()
    fld = FieldConfig.from_entries([(1, (3, 3, 3, 3), 1.0)])
    seconds = time.perf_counter() - start
    arrays = [v for obj in (fld, fld._program) for v in vars(obj).values()
              if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 40 * 2**20
    assert seconds < 0.2


class TestFieldTensor:
    def test_zero_potential(self, alg4):
        fld = FieldConfig([Polynomial.zero()] * 4)
        f = fld.field_tensor([0.2, -1.0, 3.0, 0.5])
        assert all(f[m, n].is_zero() for m in range(4) for n in range(4))

    def test_symmetric_gauge_constant_b(self):
        # A^mu = (0, -B x2 / 2, B x1 / 2, 0): covariant A_1 = B x2 / 2, A_2 = -B x1 / 2
        b = 1.7
        fld = FieldConfig(
            [
                Polynomial.zero(),
                Polynomial({(0, 0, 1, 0): b / 2}),
                Polynomial({(0, 1, 0, 0): -b / 2}),
                Polynomial.zero(),
            ]
        )
        f = fld.f_lower_real(np.array([0.4, 1.0, -2.0, 0.7]))
        expected = np.zeros((4, 4))
        expected[1, 2] = -b
        expected[2, 1] = b
        assert np.allclose(f, expected, atol=1e-14)
        assert abs(f[1, 2]) == pytest.approx(b)
        # agrees with the E/B constructor for B along axis 3
        assert np.allclose(f, constant_f_lower([0, 0, 0], [0, 0, b]))

    @pytest.mark.parametrize("n_gen", [4, 6])
    def test_grassmann_point_matches_substitution(self, n_gen):
        # the quintic's x1^3 reaches Taylor order 3, which algebra(6) reads
        alg = algebra(n_gen)
        rng = np.random.default_rng(3)
        for name, fld in field_corpus() + [("quintic", _quintic_field())]:
            point = random_even_point(alg, rng, dense=True)
            assert_matches_substitution(fld, point, name)

    def test_real_point_equals_real_evaluation(self):
        rng = np.random.default_rng(4)
        for name, fld in field_corpus():
            pts = rng.normal(size=(10, 4))
            f_polys = reference_f_polys(fld)
            via_poly = np.array(
                [[[f_polys[m][n].eval(p) for n in range(4)] for m in range(4)]
                 for p in pts]
            )
            assert np.allclose(fld.f_lower_real(pts), via_poly, atol=1e-13), name

    def test_real_point_layout_equals_value_slots(self):
        # f_lower_real reads F's value columns straight into the 4x4 layout;
        # each entry must be the same dot product as over those columns
        rng = np.random.default_rng(8)
        for name, fld in field_corpus() + [("direct", _direct_field())]:
            exps, cols = fld._program.value_rows()
            for pts in (rng.normal(size=4), rng.normal(size=(50, 4))):
                want = unpack_pairs(_gathered(_pad(pts), _gather_index(exps)) @ cols)
                assert np.array_equal(fld.f_lower_real(pts), want), name

    def test_gathered_monomials_match_power_form(self):
        # the gather kernel against the power form _monomials, which the
        # Taylor program keeps: the same bits where every exponent is at most
        # 1, and elsewhere within one rounding per multiplication of the exact
        # product, x^k being k - 1 multiplications of x
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(1000, 4)) * rng.choice([0.0, 1.0, -3.0], size=(1000, 4))
        fields = field_corpus() + [("direct", _direct_field()), ("quintic", _quintic_field())]
        powers = 0
        for name, fld in fields:
            exps = fld._program.value_rows()[0]
            got, want = _gathered(_pad(pts), _gather_index(exps)), _monomials(pts, exps)
            low = (exps <= 1).all(axis=1)
            assert np.array_equal(got[:, low].view(np.int64), want[:, low].view(np.int64)), name
            for r in np.flatnonzero(~low):
                powers += 1
                e = [int(k) for k in exps[r]]
                bound = (1 + Fraction(2) ** -53) ** (sum(e) - 1) - 1
                for p, g in zip(pts, got[:, r]):
                    exact = Fraction(1)
                    for x, k in zip(p, e):
                        exact *= Fraction(float(x)) ** k
                    assert abs(Fraction(float(g)) - exact) <= bound * abs(exact), (name, e, p)
        assert powers > 0   # the square and quintic fields carry powers above 1

    def test_monomials_of_float_exponents_bitwise(self):
        # the evaluators store their exponents as floats; ``**`` casts
        # integer exponents to float too, so every monomial keeps its bits
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(1000, 4)) * rng.choice([0.0, 1.0, 3.0], size=(1000, 4))
        exps = rng.integers(0, 12, size=(40, 4))
        want = (pts[..., None, :] ** exps).prod(axis=-1)
        got = _monomials(pts, exps.astype(float))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_antisymmetry(self, alg4):
        rng = np.random.default_rng(5)
        for name, fld in field_corpus():
            point = random_even_point(alg4, rng)
            f = fld.field_tensor(point)
            for m in range(4):
                for n in range(4):
                    assert (f[m, n] + f[n, m]).is_zero(), name

    def test_linearity_in_potential(self):
        rng = np.random.default_rng(6)
        a_comp = [Polynomial({(1, 0, 1, 0): 0.7, (0, 0, 0, 2): -0.3})] + [Polynomial.zero()] * 3
        b_comp = [Polynomial.zero()] * 2 + [Polynomial({(0, 1, 0, 0): 1.1})] * 2
        c1, c2 = 2.5, -1.25
        combo = FieldConfig(
            [p.scale(c1) + q.scale(c2) for p, q in zip(a_comp, b_comp)]
        )
        fa, fb = FieldConfig(a_comp), FieldConfig(b_comp)
        pts = rng.normal(size=(7, 4))
        assert np.allclose(
            combo.f_lower_real(pts),
            c1 * fa.f_lower_real(pts) + c2 * fb.f_lower_real(pts),
            atol=1e-13,
        )

    def test_non_even_point_rejected(self, alg4):
        fld = constant_field([0, 0, 0], [0, 0, 1.0])
        bad = [alg4.generator(1), alg4.scalar(0), alg4.scalar(0), alg4.scalar(0)]
        with pytest.raises(NonEvenPointError):
            fld.field_tensor(bad)


class TestFieldDerivative:
    def test_constant_field_zero_derivative(self, alg4):
        fld = constant_field([0.4, 0, 0], [0, 0, 2.0])
        df = fld.field_derivative([0.1, 0.2, 0.3, 0.4])
        assert all(df[k, m, n].is_zero() for k in range(4) for m in range(4) for n in range(4))

    def test_linear_potential_zero_derivative(self, alg4):
        fld = FieldConfig(
            [Polynomial({(0, 1, 0, 0): 2.0}), Polynomial({(1, 0, 0, 0): -1.0})]
            + [Polynomial.zero()] * 2
        )
        df = fld.field_derivative([1.0, -2.0, 0.5, 3.0])
        assert all(df[k, m, n].is_zero() for k in range(4) for m in range(4) for n in range(4))

    def test_quadratic_potential_vs_sympy(self):
        """Constant rank-3 derivative of a linear field against sympy."""
        coords = sympy.symbols("y0 y1 y2 y3")
        a_terms = [
            {(0, 0, 1, 0): 0.5, (0, 1, 1, 0): 0.2},
            {(2, 0, 0, 0): -0.4},
            {(0, 1, 0, 0): -0.5, (0, 0, 0, 2): 0.15},
            {},
        ]
        fld = FieldConfig([Polynomial(t) for t in a_terms])
        a_sym = [
            sum(c * sympy.prod([coords[i] ** e[i] for i in range(4)]) for e, c in t.items())
            for t in a_terms
        ]
        signs = [1, -1, -1, -1]
        pt = {coords[i]: v for i, v in enumerate([0.3, -0.7, 1.2, 0.4])}
        df = fld.field_derivative([0.3, -0.7, 1.2, 0.4])
        for k in range(4):
            for m in range(4):
                for n in range(4):
                    f_mn = sympy.diff(a_sym[n], coords[m]) - sympy.diff(a_sym[m], coords[n])
                    want = signs[m] * signs[n] * float(sympy.diff(f_mn, coords[k]).subs(pt))
                    assert df[k, m, n].body == pytest.approx(want, abs=1e-12)
                    assert df[k, m, n].soul.is_zero()


class TestMaxwellResidual:
    def test_potential_fields_closed(self, alg4):
        rng = np.random.default_rng(7)
        for name, fld in field_corpus():
            for _ in range(5):
                point = random_even_point(alg4, rng)
                res = maxwell_residual(fld, point)
                assert max(r.max_abs() for r in res) < 1e-12, name

    def test_constant_direct_tensor_closed(self):
        direct = DirectField({(0, 1): Polynomial.constant(0.8), (1, 2): Polynomial.constant(-1.1)})
        res = maxwell_residual(direct, [0.5, 1.0, -2.0, 3.0])
        assert max(r.max_abs() for r in res) == 0.0

    def test_nonclosed_tensor_detected(self):
        # F_12 = x3 admits no potential: residual (2, 0, 0, 0) by expanding
        # eps^{mu nu 1 2} d_nu F_12 + eps^{mu nu 2 1} d_nu F_21 = 2 eps^{mu 3 1 2}
        direct = DirectField({(1, 2): Polynomial.coordinate(3)})
        res = maxwell_residual(direct, [0.0, 0.0, 0.0, 0.0])
        values = [r.body for r in res]
        assert values == pytest.approx([2.0, 0.0, 0.0, 0.0])
        assert max(abs(v) for v in values) > 0.1
