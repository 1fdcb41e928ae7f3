import numpy as np
import pytest

from grasspin import (
    DiscretePath, FieldConfig, ModelParams, Polynomial, SuperState, action, algebra, constant_field,
)
from grasspin.minkowski import PAIRS, SIGNS, unpack_pairs
from grasspin.polynomials import PolyVectorEvaluator


@pytest.fixture(scope="session")
def alg4():
    return algebra(4)


@pytest.fixture(scope="session")
def alg6():
    return algebra(6)


@pytest.fixture
def params():
    return ModelParams(mass=1.0, charge=1.0, mu_prime=1.2)


@pytest.fixture
def params_no_anomaly():
    return ModelParams(mass=1.0, charge=1.0, mu_prime=1.0)


@pytest.fixture
def b_field():
    """Uniform magnetic field of unit strength along axis 3."""
    return constant_field([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])


def gradient_b_field(strength: float = 0.05) -> FieldConfig:
    """B3(x) = 1 + strength * x2 from a quadratic potential."""
    g = strength
    return FieldConfig(
        [
            Polynomial.zero(),
            Polynomial({(0, 0, 1, 0): 0.5, (0, 0, 2, 0): g / 4.0}),
            Polynomial({(0, 1, 0, 0): -0.5, (0, 1, 1, 0): -g / 2.0}),
            Polynomial.zero(),
        ]
    )


@pytest.fixture
def linear_field():
    return gradient_b_field()


def field_corpus() -> list[tuple[str, FieldConfig]]:
    """Potential-derived backgrounds used by randomized identities."""
    rng = np.random.default_rng(2024)
    cubic = []
    for _ in range(4):
        terms = {}
        for _ in range(5):
            exps = tuple(int(e) for e in rng.integers(0, 2, size=4))
            if sum(exps) > 3:
                continue
            terms[exps] = terms.get(exps, 0.0) + float(rng.normal())
        cubic.append(Polynomial(terms))
    return [
        ("zero", FieldConfig([Polynomial.zero()] * 4)),
        ("constant_b", constant_field([0, 0, 0], [0, 0, 1.0])),
        ("constant_eb", constant_field([0.3, -0.1, 0.2], [0.5, 0.2, 1.0])),
        ("gradient_b", gradient_b_field()),
        ("random_cubic", FieldConfig(cubic)),
    ]


def reference_f_polys(fld) -> list[list[Polynomial]]:
    """F_{mu nu} of a field as a 4 x 4 list of polynomials: d_m A_n - d_n A_m
    by ``Polynomial.diff`` for a potential field, the written components
    for a ``DirectField``."""
    if hasattr(fld, "potential"):
        a = fld.potential
        return [[a[n].diff(m) - a[m].diff(n) for n in range(4)] for m in range(4)]
    polys = [[Polynomial.zero() for _ in range(4)] for _ in range(4)]
    for (m, n), poly in fld.components.items():
        polys[m][n], polys[n][m] = poly, -poly
    return polys


class ReferenceField:
    """A field evaluated by three separate programs, independent of its own
    one program: F from ``Polynomial.diff`` of A (``reference_f_polys``),
    dF from the 24 derivative polynomials of F, and A from its own
    evaluator.  Each evaluator sees plain polynomials, so none of the
    derivative weights of the field's program enter."""

    def __init__(self, fld):
        f_polys = reference_f_polys(fld)
        self.f_eval = PolyVectorEvaluator([f_polys[m][n] for m, n in PAIRS])
        self.df_eval = PolyVectorEvaluator([f_polys[m][n].diff(k) for k in range(4) for m, n in PAIRS])
        self.a_eval = PolyVectorEvaluator(fld.potential) if hasattr(fld, "potential") else None

    def f(self, bodies, souls, alg):
        """F_{mu nu} coefficient arrays (..., 4, 4, dim)."""
        return unpack_pairs(self.f_eval.eval_even(bodies, souls, alg), axis=-2)

    def df(self, bodies, souls, alg):
        """d_kappa F_{mu nu} coefficient arrays (..., 4, 4, 4, dim)."""
        vals = self.df_eval.eval_even(bodies, souls, alg)
        return unpack_pairs(vals.reshape(vals.shape[:-2] + (4, 6, alg.dim)), axis=-2)

    def a(self, bodies, souls, alg):
        """A_mu coefficient arrays (..., 4, dim)."""
        return self.a_eval.eval_even(bodies, souls, alg)


def even_quotient(path, fld, par, dx: np.ndarray, h_dir: float) -> np.ndarray:
    """Two-sided difference quotient of the public ``action`` along the real
    x-profile ``dx`` (nodes x 4) at amplitude step ``h_dir``, as coefficients
    of ``path.alg``: the reference for the exact even stationarity probe."""
    def act(sign):
        x = path.x.copy()
        x[..., 0] += sign * h_dir * dx
        return action(DiscretePath(path.alg, path.s, x, path.xi), fld, par).coeffs
    return (act(1.0) - act(-1.0)) / (2.0 * h_dir)


def richardson_quotient(path, fld, par, dx: np.ndarray, h_dir: float) -> np.ndarray:
    """``even_quotient`` at steps h_dir and h_dir/2, Richardson extrapolated,
    so its truncation error is O(h_dir^4)."""
    coarse = even_quotient(path, fld, par, dx, h_dir)
    return (4.0 * even_quotient(path, fld, par, dx, 0.5 * h_dir) - coarse) / 3.0


def boosted_velocity(gamma: float = 2.0) -> np.ndarray:
    return np.array([gamma, np.sqrt(gamma * gamma - 1.0), 0.0, 0.0])


def standard_state(alg, gamma: float = 2.0) -> SuperState:
    """gamma-boost along axis 1, spin generators along axes 2 and 3."""
    c = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    return SuperState.from_real(np.zeros(4), boosted_velocity(gamma), c, alg)


def loaded_state(n: int) -> SuperState:
    """standard_state's theta1 and theta2 rows plus rows of size 0.05 on
    theta3..thetaN, Minkowski-orthogonal to u0: every generator is loaded."""
    st2 = standard_state(algebra(2))
    u0 = st2.v[:, 0]
    rows = np.random.default_rng(66).normal(size=(n - 2, 4))
    rows -= np.outer(rows @ (SIGNS * u0), u0)
    rows *= 0.05 / np.max(np.abs(rows), axis=1, keepdims=True)
    c = np.vstack([st2.xi[:, 1], st2.xi[:, 2], rows])
    return SuperState.from_real(np.zeros(4), u0, c, algebra(n))


def _du(f_lo: np.ndarray, u: np.ndarray, par: ModelParams) -> np.ndarray:
    """Lorentz force du^mu = (e/m) F^{mu nu} u_nu, the reference for the
    BMT integrator's rate."""
    return (par.charge / par.mass) * SIGNS * (f_lo @ u)


def _dspin(f_lo: np.ndarray, u: np.ndarray, spin: np.ndarray, par: ModelParams) -> np.ndarray:
    """Covariant-component spin transport in 4 x 4 form, the reference for
    the BMT integrator's pair-space rate; f_lo and the state at one point."""
    fmix = f_lo * SIGNS                   # F_mu^{ rho}
    t1 = fmix @ spin
    t1 = par.mu_prime * (t1 - t1.T)
    q = u @ fmix                          # q^sigma = F^{rho sigma} u_rho
    p = q @ spin                          # p_mu = q^sigma S_{sigma mu}
    w = p[:, None] * (SIGNS * u)          # p_mu u_nu
    t2 = par.anomaly * (w - w.T)
    return (t1 + t2) / par.mass
