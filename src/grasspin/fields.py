"""Electromagnetic backgrounds from polynomial 4-potentials.

A background is specified by the four covariant components A_mu as real
polynomials in the coordinates x^mu.  The field tensor F_{mu nu} and all of
its derivatives are exact polynomials, so evaluation at real or
Grassmann-even points carries no differentiation error and the homogeneous
Maxwell identity eps^{mu nu rho sigma} d_nu F_{rho sigma} = 0 holds to
roundoff by construction.

A second entry point (:class:`DirectField`) takes the F_{mu nu} components
directly, bypassing any potential; it exists to feed non-closed tensors to
the Maxwell residual check and has no action/potential support.

Each field holds one Taylor program, a
:class:`~grasspin.polynomials.PolyVectorEvaluator` over F's six ``PAIRS``
polynomials (d_m A_n - d_n A_m of the written potential, or the written
pairs of a DirectField) and, for a potential field, over A_mu.  Its
components are the 24 pairs of d_kappa F, read off F's Taylor slots by a
fixed integer map, then F, then A, so each caller reads a contiguous run of
them from one pass: F and dF for a stage of the equations of motion, F and
A for the discrete action.  The rows that F's values read come first, so
the reduced (BMT) path evaluates F at real points over those rows alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grassmann import GrassmannAlgebra, GrassmannNumber, Parity, algebra
from .minkowski import EPS_UPPER, PAIRS, SIGNS, _real_array, unpack_pairs
from .polynomials import Polynomial, PolyVectorEvaluator

__all__ = [
    "NonEvenPointError",
    "FieldConfig",
    "DirectField",
    "constant_field",
    "constant_f_lower",
    "maxwell_residual",
]

class NonEvenPointError(ValueError):
    """An evaluation point component is not Grassmann-even."""


def _parse_even_point(x):
    """Split an even 4-vector into (bodies, souls, algebra).

    Accepts a sequence of 4 GrassmannNumber, whose algebra is taken, or a
    real 4-sequence, taken in algebra(2); souls is None for purely real
    input.
    """
    if len(x) != 4:
        raise ValueError("evaluation point must have 4 components")
    if any(isinstance(c, GrassmannNumber) for c in x):
        algs = {c.alg.n for c in x if isinstance(c, GrassmannNumber)}
        if len(algs) > 1:
            raise ValueError("point components from different algebras")
        alg = algebra(algs.pop())
        coeffs = np.zeros((4, alg.dim))
        for mu, c in enumerate(x):
            if isinstance(c, GrassmannNumber):
                coeffs[mu] = c.coeffs
            else:
                coeffs[mu, 0] = float(c)
        for mu in range(4):
            if alg.parity_of(coeffs[mu]) not in (Parity.EVEN, Parity.ZERO):
                raise NonEvenPointError(f"component {mu} is not Grassmann-even")
        bodies = coeffs[:, 0].copy()
        souls = coeffs.copy()
        souls[:, 0] = 0.0
        if not np.any(souls):
            souls = None
        return bodies, souls, alg
    bodies = np.asarray([float(c) for c in x])
    return bodies, None, algebra(2)


def _wrap_tensor(coeffs: np.ndarray, alg: GrassmannAlgebra) -> np.ndarray:
    """Coefficient array (..., dim) -> object array of GrassmannNumber."""
    shape = coeffs.shape[:-1]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = GrassmannNumber(alg, coeffs[idx])
    return out


def _gather_index(exps: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gathers of the monomials x^e, e the rows of ``exps`` (rows, 4),
    from a padded point (x0, x1, x2, x3, 1): one index row per degree, whose
    entry r names the next variable of monomial r, variables ascending and
    each repeated by its exponent, and 4, the padding 1, past its degree."""
    exps = np.asarray(exps).astype(np.int64)
    index = np.full((max(1, int(exps.sum(axis=1).max(initial=0))), len(exps)), 4)
    for r, e in enumerate(exps):
        var = np.repeat(np.arange(4), e)
        index[: var.size, r] = var
    return tuple(index)


def _gathered(padded: np.ndarray, index: tuple[np.ndarray, ...]) -> np.ndarray:
    """The monomials of :func:`_gather_index` ``index`` at padded points
    (..., 5) -> (..., rows): one ``take`` per degree, multiplied in from the
    left.  Where every exponent is at most 1 each is the same product as
    :func:`~grasspin.polynomials._monomials` forms, x^1 = x and x^0 = 1
    exactly; a higher power is a product x x ..., correctly rounded at each
    multiplication, where ``**`` need not be."""
    mono = padded.take(index[0], axis=-1)
    for var in index[1:]:
        mono *= padded.take(var, axis=-1)
    return mono


# Components of a field's Taylor program: the 24 pairs of d_kappa F
# (kappa-major), the six F pairs, then A_mu for a potential field.  Every
# caller reads a contiguous run of them from one pass.
_DF, _F, _A = slice(0, 24), slice(24, 30), slice(30, 34)
_DF_F, _F_A = slice(0, 30), slice(24, 34)


class _FieldBase:
    """Shared evaluation machinery over the six independent F components.

    A subclass's ``_build(components)`` calls :meth:`_init_program` with F
    and, for a potential field, A.
    """

    def _build_naming_overflow(self, label: str, components: dict) -> None:
        """Run ``self._build(components)``.  If a derived coefficient
        overflows, raise a ValueError naming the first written term whose own
        derived coefficients overflow, found by building each term alone;
        ``label`` names the kind of a component key."""
        try:
            self._build(components)
        except ValueError as err:
            for key, poly in components.items():
                for exps, coef in poly.terms.items():
                    try:
                        self._build({key: Polynomial({exps: coef})})
                    except ValueError:
                        raise ValueError(f"{label} {key}, term {exps}: coefficient {coef!r} "
                                         "overflows in its derivatives") from err
            raise ValueError(f"field terms combine past the float range: {err}") from err

    def _init_program(self, f_pairs: list[Polynomial], potential: list[Polynomial] = ()) -> None:
        """The one Taylor program of F, given as its six ``PAIRS``
        polynomials, of dF, read off F's slots, and of ``potential``."""
        self._program = PolyVectorEvaluator(f_pairs, grad=True, extra=potential)
        self.constant = all(p.degree == 0 for p in f_pairs)
        # F's pairs = the monomials of the rows F's values read, by the gathers
        # _f_index, @ their columns; _f_real lays those columns out as a
        # flattened 4x4 tensor
        exps, cols = self._program.value_rows()
        self._f_index = _gather_index(exps)
        self._f_real = unpack_pairs(cols).reshape(-1, 16)
        self._f_const = self.f_lower_real(np.zeros(4)) if self.constant else None

    # -- real-point evaluation (reduced dynamics path) -------------------

    def _f_padded(self, padded: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """F_{mu nu}, flattened to (..., 16), at real points padded to
        (..., 5) as (x0, x1, x2, x3, 1): the kernel of every real-point
        evaluation of F.  Its monomials are :func:`_gathered`, and one
        ``np.dot`` writes F into ``out`` when given."""
        return np.dot(_gathered(padded, self._f_index), self._f_real, out=out)

    def f_lower_real(self, points: np.ndarray) -> np.ndarray:
        """F_{mu nu} at real points (..., 4) -> (..., 4, 4)."""
        points = np.asarray(points, dtype=float)
        padded = np.concatenate((points, np.ones(points.shape[:-1] + (1,))), axis=-1)
        return self._f_padded(padded).reshape(points.shape[:-1] + (4, 4))

    def df_lower_real(self, points: np.ndarray) -> np.ndarray:
        """d_kappa F_{mu nu} at real points -> (..., 4, 4, 4)."""
        vals = self._program.eval_real(points)[..., _DF]
        return unpack_pairs(vals.reshape(vals.shape[:-1] + (4, 6)))

    # -- Grassmann-even evaluation (full dynamics path) -------------------

    def f_lower_coeffs(
        self, bodies: np.ndarray, souls: np.ndarray | None, alg: GrassmannAlgebra
    ) -> np.ndarray:
        """F_{mu nu} coefficient arrays, shape (..., 4, 4, dim)."""
        return unpack_pairs(self._program.eval_even(bodies, souls, alg, _F), axis=-2)

    def df_lower_coeffs(
        self, bodies: np.ndarray, souls: np.ndarray | None, alg: GrassmannAlgebra
    ) -> np.ndarray:
        """d_kappa F_{mu nu} coefficient arrays, shape (..., 4, 4, 4, dim)."""
        vals = self._program.eval_even(bodies, souls, alg, _DF)
        return unpack_pairs(vals.reshape(vals.shape[:-2] + (4, 6, alg.dim)), axis=-2)

    def f_and_df_coeffs(
        self, bodies: np.ndarray, souls: np.ndarray | None, alg: GrassmannAlgebra
    ) -> tuple[np.ndarray, np.ndarray]:
        """F_{mu nu} and d_kappa F_{mu nu} from one pass of the program, as in
        :meth:`f_lower_coeffs` and :meth:`df_lower_coeffs`."""
        vals = self._program.eval_even(bodies, souls, alg, _DF_F)
        t = unpack_pairs(vals.reshape(vals.shape[:-2] + (5, 6, alg.dim)), axis=-2)
        return t[..., 4, :, :, :], t[..., :4, :, :, :]

    # -- public tensor API -------------------------------------------------

    def field_tensor(self, x) -> np.ndarray:
        """F_{mu nu}(x) as a 4x4 object array of GrassmannNumber.

        x may be four GrassmannNumber (all even), giving values in their
        algebra, or four reals, giving values in algebra(2); the series
        about the body terminates by nilpotency, so the value is exact.
        """
        bodies, souls, alg = _parse_even_point(x)
        return _wrap_tensor(self.f_lower_coeffs(bodies, souls, alg), alg)

    def field_derivative(self, x) -> np.ndarray:
        """d_kappa F^{rho sigma}(x) (rho, sigma raised) as object array (4,4,4),
        at x as in :meth:`field_tensor`."""
        bodies, souls, alg = _parse_even_point(x)
        df = self.df_lower_coeffs(bodies, souls, alg)
        up = df * SIGNS[None, :, None, None] * SIGNS[None, None, :, None]
        return _wrap_tensor(up, alg)


class FieldConfig(_FieldBase):
    """Background given by a polynomial potential A_mu (covariant components)."""

    def __init__(self, potential: Sequence[Polynomial]):
        if len(potential) != 4:
            raise ValueError("potential needs 4 components")
        self.potential = [p if isinstance(p, Polynomial) else Polynomial(p) for p in potential]
        self._build_naming_overflow("potential component", dict(enumerate(self.potential)))

    def _build(self, components: dict[int, Polynomial]) -> None:
        """The program of the potential whose A_mu is ``components[mu]`` (zero
        where absent): F_mn = d_m A_n - d_n A_m, its derivatives and A."""
        a = [components.get(mu, Polynomial.zero()) for mu in range(4)]
        self._init_program([a[n].diff(m) - a[m].diff(n) for m, n in PAIRS], a)

    def potential_coeffs(
        self, bodies: np.ndarray, souls: np.ndarray | None, alg: GrassmannAlgebra
    ) -> np.ndarray:
        """A_mu at even points, coefficient arrays (..., 4, dim)."""
        return self._program.eval_even(bodies, souls, alg, _A)

    def f_and_potential_coeffs(
        self, bodies: np.ndarray, souls: np.ndarray | None, alg: GrassmannAlgebra
    ) -> tuple[np.ndarray, np.ndarray]:
        """F_{mu nu} and A_mu from one pass of the program, as in
        :meth:`f_lower_coeffs` and :meth:`potential_coeffs`."""
        vals = self._program.eval_even(bodies, souls, alg, _F_A)
        return unpack_pairs(vals[..., :6, :], axis=-2), vals[..., 6:, :]

    @classmethod
    def from_entries(cls, entries) -> "FieldConfig":
        """Build from (component mu, exponent 4-tuple, coefficient) triples."""
        comps = [Polynomial.zero() for _ in range(4)]
        for mu, exps, coef in entries:
            try:
                if mu not in range(4):
                    raise ValueError("component must be 0, 1, 2 or 3")
                term = Polynomial.from_entries([(exps, coef)])
            except ValueError as err:
                raise ValueError(f"field entry {(mu, exps, coef)!r}: {err}") from err
            comps[int(mu)] = comps[int(mu)] + term
        return cls(comps)


class DirectField(_FieldBase):
    """Field tensor given directly as six independent polynomial components.

    ``components`` maps pair index (m, n) with m < n to a Polynomial for
    F_{mn}.  No potential exists, so this mode supports tensor evaluation
    and the Maxwell residual only.
    """

    def __init__(self, components: dict[tuple[int, int], Polynomial]):
        comps = {}
        for pair, poly in components.items():
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(k, (int, np.integer)) for k in pair) and 0 <= pair[0] < pair[1] <= 3):
                raise ValueError(f"component pair {pair!r} must be two integers 0 <= m < n <= 3")
            comps[pair] = poly if isinstance(poly, Polynomial) else Polynomial(poly)
        self.components = comps
        self._build_naming_overflow("F component", comps)

    def _build(self, components: dict[tuple[int, int], Polynomial]) -> None:
        """The program of the tensor whose F_mn is ``components[(m, n)]`` and
        its derivatives."""
        self._init_program([components.get(pair, Polynomial.zero()) for pair in PAIRS])


def constant_f_lower(e_field: Sequence[float], b_field: Sequence[float]) -> np.ndarray:
    """Constant F_{mu nu} from lab-frame E and B three-vectors.

    Conventions: F_{0i} = E^i and F_{ij} = -eps_{ijk} B^k, which reproduce
    du/ds = (e/m)(gamma E + u x B) in three-vector form.
    """
    e1, e2, e3 = e = _real_array("e_field", e_field, (3,))
    b1, b2, b3 = b = _real_array("b_field", b_field, (3,))
    for name, vec in (("e_field", e), ("b_field", b)):
        if not np.isfinite(vec).all():
            raise ValueError(f"{name} must be finite")
    f = np.zeros((4, 4))
    f[0, 1], f[0, 2], f[0, 3] = e1, e2, e3
    f[1, 2], f[1, 3], f[2, 3] = -b3, b2, -b1
    return f - f.T


def constant_field(e_field: Sequence[float], b_field: Sequence[float]) -> FieldConfig:
    """Potential A_nu = -1/2 F_{nu rho} x^rho for a uniform E, B background."""
    f = constant_f_lower(e_field, b_field)
    potential = []
    for nu in range(4):
        terms = {}
        for rho in range(4):
            if f[nu, rho] != 0.0:
                exps = [0, 0, 0, 0]
                exps[rho] = 1
                terms[tuple(exps)] = -0.5 * f[nu, rho]
        potential.append(Polynomial(terms))
    return FieldConfig(potential)


def maxwell_residual(field: _FieldBase, x):
    """The four components of eps^{mu nu rho sigma} d_nu F_{rho sigma} at x,
    taken as in :meth:`_FieldBase.field_tensor`.

    Zero (to roundoff) for any potential-derived field; nonzero input marks a
    tensor that cannot come from a potential.
    """
    bodies, souls, alg = _parse_even_point(x)
    df = field.df_lower_coeffs(bodies, souls, alg)
    res = np.einsum("mnrs,...nrsd->...md", EPS_UPPER, df)
    return [GrassmannNumber(alg, res[mu]) for mu in range(4)]
