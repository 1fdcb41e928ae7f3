"""Boundary checks of the library constructors: each invalid input raises
the named exception, with a message that names the input."""

import numpy as np
import pytest

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
    integrate_super,
)
from grasspin.grassmann import AlgebraMismatchError

from conftest import standard_state

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
