"""Boundary checks of the library constructors: each invalid input raises
the named exception, with a message that names the input."""

import numpy as np
import pytest

import grasspin.grassmann
from grasspin import (
    BMTState,
    ConstantFieldOracle,
    DiscretePath,
    FieldConfig,
    GrassmannAlgebra,
    GrassmannNumber,
    ModelParams,
    PathVariation,
    Polynomial,
    SuperState,
    algebra,
    constant_field,
    integrate_bmt,
    integrate_super,
    leading_order,
    spin_velocity_angle,
)
from grasspin.grassmann import AlgebraMismatchError

from conftest import boosted_velocity, standard_state

SPIN = np.zeros((4, 4))


@pytest.mark.parametrize("mass", [0.0, -1.0])
def test_model_params_mass_not_positive(mass):
    with pytest.raises(ValueError, match="mass must be positive"):
        ModelParams(mass, 1.0, 1.2)


@pytest.mark.parametrize("xi", [np.zeros((2, 3)), np.zeros((3, 4))], ids=["3-columns", "3-rows"])
def test_super_state_bad_xi_shape(xi):
    with pytest.raises(ValueError, match=r"xi coefficients must be \(k, 4\) with k <= 2"):
        SuperState.from_real(np.zeros(4), [1.0, 0.0, 0.0, 0.0], xi, algebra(2))


def test_bmt_state_spin_not_antisymmetric():
    with pytest.raises(ValueError, match="spin tensor must be antisymmetric"):
        BMTState(np.zeros(4), [1.0, 0.0, 0.0, 0.0], np.eye(4))


class TestOracle:
    state0 = BMTState(np.zeros(4), [1.0, 0.0, 0.0, 0.0], SPIN, s=1.0)
    params = ModelParams(1.0, 1.0, 1.2)

    def test_field_not_antisymmetric(self):
        with pytest.raises(ValueError, match="constant field tensor must be antisymmetric"):
            ConstantFieldOracle(self.state0, np.eye(4), self.params)

    @pytest.mark.parametrize("times, message", [
        ([1.0, 2.0, 2.0], "sample times must be strictly increasing"),
        ([1.5, 1.2], "sample times must be strictly increasing"),
        ([0.5, 1.5], "sample times must not precede the initial state"),
    ])
    def test_bad_sample_times(self, times, message):
        oracle = ConstantFieldOracle(self.state0, SPIN, self.params)
        with pytest.raises(ValueError, match=message):
            oracle.sample(np.array(times))


class TestDiscretePath:
    alg = algebra(2)

    def path(self, s):
        shape = (len(s), 4, self.alg.dim)
        return DiscretePath(alg=self.alg, s=np.array(s), x=np.zeros(shape), xi=np.zeros(shape))

    @pytest.mark.parametrize("s, message", [
        ([0.0, 0.1, 0.1, 0.2], "path grid must be strictly increasing"),
        ([0.0, 0.2, 0.1], "path grid must be strictly increasing"),
        ([0.0], "path grid must be strictly increasing"),
        ([0.0, 0.1, 0.3], "path grid must be uniform"),
    ])
    def test_bad_grid(self, s, message):
        with pytest.raises(ValueError, match=message):
            self.path(s)

    def test_from_trajectory_non_uniform_stride(self):
        # records at steps 0, 2, 4 and 5
        traj = integrate_super(standard_state(self.alg), constant_field([0, 0, 0], [0, 0, 1.0]),
                               ModelParams(1.0, 1.0, 1.2), h=0.01, steps=5, record_every=2)
        assert list(traj.steps_recorded) == [0, 2, 4, 5]
        with pytest.raises(ValueError, match="trajectory must be recorded at a uniform stride"):
            DiscretePath.from_trajectory(traj)


@pytest.mark.parametrize("kwargs, message", [
    ({}, "set exactly one of dx, dxi"),
    ({"dx": np.zeros((5, 4)), "dxi": np.zeros((5, 4))}, "set exactly one of dx, dxi"),
    ({"dx": np.zeros((5, 3))}, r"variation profile dx must have shape \(M\+1, 4\)"),
    ({"dxi": np.zeros(4)}, r"variation profile dxi must have shape \(M\+1, 4\)"),
], ids=["neither", "both", "dx-3-columns", "dxi-1-d"])
def test_path_variation_bad(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PathVariation(**kwargs)


def test_field_config_three_components():
    with pytest.raises(ValueError, match="potential needs 4 components"):
        FieldConfig([Polynomial.zero()] * 3)


@pytest.mark.parametrize("n", [0, 17])
def test_algebra_generator_count_out_of_range(n):
    with pytest.raises(ValueError, match=rf"n_generators must be in \[1, 16\], got {n}"):
        GrassmannAlgebra(n)


def test_embed_into_smaller_algebra():
    with pytest.raises(AlgebraMismatchError, match="target algebra has fewer generators"):
        algebra(3).embed(np.zeros(8), algebra(2))


@pytest.mark.parametrize("terms, message", [
    ({(5,): 1.0}, "generator index 5 out of range"),
    ({(0,): 1.0}, "generator index 0 out of range"),
    ({(2, 1): 1.0}, "generator indices must be strictly ascending"),
    ({(1, 1): 1.0}, "generator indices must be strictly ascending"),
    ({16: 1.0}, "mask 16 out of range"),
    ({-1: 1.0}, "mask -1 out of range"),
])
def test_from_terms_bad_keys(terms, message):
    with pytest.raises(ValueError, match=message):
        algebra(4).from_terms(terms)


@pytest.mark.parametrize("coeffs", [np.zeros(3), np.zeros((1, 4))], ids=["short", "2-d"])
def test_grassmann_number_wrong_shape(coeffs):
    with pytest.raises(ValueError, match=r"expected 4 coefficients, got shape"):
        GrassmannNumber(algebra(2), coeffs)


def _super_run(n):
    st = SuperState.from_real(np.zeros(4), [1.0, 0.0, 0.0, 0.0], np.zeros((1, 4)), algebra(n))
    return integrate_super(st, constant_field([0, 0, 0], [0, 0, 1.0]), ModelParams(1.0, 1.0, 1.2),
                           h=0.01, steps=2)


def _bmt_run():
    """A gyration in the (1, 2) plane with no spin at all."""
    st = BMTState(np.zeros(4), boosted_velocity(1.5), SPIN)
    return integrate_bmt(st, constant_field([0, 0, 0], [0, 0, 1.0]), ModelParams(1.0, 1.0, 1.2),
                         h=0.01, steps=4)


def _point(*ns):
    """An even point whose components lie in algebra(n) for n in ``ns``."""
    return [algebra(n).scalar(0.1 * mu) for mu, n in enumerate(ns)]


@pytest.mark.parametrize("call, message", [
    (lambda: leading_order(_super_run(1)), "projection needs an algebra with at least 2 generators"),
    (lambda: spin_velocity_angle(_bmt_run(), axis=0), "axis must be a spatial index 1..3"),
    (lambda: spin_velocity_angle(_bmt_run()), "spin vector has no in-plane component to track"),
    (lambda: constant_field([0, 0, 0], [0, 0, 1.0]).field_tensor([0.0] * 3),
     "evaluation point must have 4 components"),
    (lambda: constant_field([0, 0, 0], [0, 0, 1.0]).field_tensor(_point(2, 2, 3, 2)),
     "point components from different algebras"),
    (lambda: algebra(3).generator(0), r"generator index must be in \[1, 3\]"),
    (lambda: algebra(3).generator(4), r"generator index must be in \[1, 3\]"),
    (lambda: algebra(2).power(algebra(2).scalar_coeffs(2.0), -1),
     "negative powers not supported at kernel level"),
    (lambda: algebra(2).scalar(1.0).grade(-1), r"grade must be in \[0, 2\]"),
    (lambda: algebra(2).scalar(1.0).grade(3), r"grade must be in \[0, 2\]"),
], ids=["leading-order-n1", "angle-axis-0", "angle-no-in-plane-spin", "point-3-components",
        "point-mixed-algebras", "generator-0", "generator-n+1", "power-negative", "grade-negative",
        "grade-above-n"])
def test_library_input_check(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("reals", [[1], [0, 2, 3]], ids=["one-real", "three-reals"])
def test_even_point_takes_reals_beside_grassmann_numbers(reals):
    """A real component of a point given in GrassmannNumbers is its body."""
    fld = FieldConfig.from_entries([(1, (0, 0, 1, 0), 0.5), (2, (0, 1, 1, 0), -0.3)])
    point = _point(3, 3, 3, 3)
    mixed = [float(c.coeffs[0]) if mu in reals else c for mu, c in enumerate(point)]
    want, got = fld.field_tensor(point), fld.field_tensor(mixed)
    assert all(g.alg is algebra(3) and g == w for g, w in zip(got.ravel(), want.ravel()))


def test_popcount_without_bitwise_count(monkeypatch):
    """The loop taken on numpy < 2, which lacks np.bitwise_count."""
    masks = np.arange(1 << 10, dtype=np.int64).reshape(32, 32)
    want = grasspin.grassmann._popcount(masks)
    monkeypatch.delattr(np, "bitwise_count")
    got = grasspin.grassmann._popcount(masks)
    assert np.array_equal(got, want)
    assert np.array_equal(masks, np.arange(1 << 10).reshape(32, 32))   # input untouched
