"""Grassmann-valued equations of motion for the spinning charged particle.

State: even position x^mu and velocity v^mu = dx/ds, odd spin variables
xi^mu, all valued in one Grassmann algebra.  The dynamics is

    m dv^mu/ds = e F^{mu nu} v_nu
                 + (mu'/2m) eta^{mu kappa} (d_kappa F^{rho sigma}) S_{rho sigma}
                 - (dlam/ds) xi^mu
    dxi^mu/ds  = (mu'/m) F^{mu nu} xi_nu - 2 lam v^mu

with S_{mu nu} = (1/2) xi_mu xi_nu and the multiplier fixed by consistency
of the constraint xi_mu v^mu = 0:

    lam = (v.v)^{-1} (mu'-e)/(2m) F^{mu nu} v_mu xi_nu .

lam is Grassmann-odd (it multiplies an odd constraint).  Differentiating
the multiplier equation along the flow gives (v.v) dlam/ds = R, with
R = c d(F^{mu nu} v_mu xi_nu)/ds - lam d(v.v)/ds and c = (mu'-e)/(2m).
With the equations of motion substituted, dlam/ds comes back into R only
through -(1/m)(dlam/ds) xi in dv, so it solves

    E dlam/ds = R0,   E = v.v + (c/m) xi_mu F^{mu nu} xi_nu + (2/m) lam (v.xi),

with R0 = R at dv without that term.  E is even with an invertible body.
In an algebra of at most 2 generators (``integrate_super`` keeps only the
loaded ones) the soul of E has degree >= 2 and R0 degree >= 1, so
E^{-1} R0 = R0/(v.v).

All kernels below operate on raw coefficient arrays of shape (..., 4, dim)
and broadcast over leading axes, so a whole grid of states can be evaluated
in one call.  The field tensors F_{mu nu} (..., 4, 4, dim) and
d_kappa F_{mu nu} (..., 4, 4, 4, dim) are cut to their body, a last axis of
length 1, when they carry no soul (``_field`` says which).  ``_emul``
multiplies a cut tensor as the real it is and uses the Grassmann product
otherwise.  ``_rhs`` is the general path for every field and algebra, and
the reference for the program below.

``_rhs`` makes its products by dependency level, and the products of one
level that share their parity hints run as one kernel call, with their
columns side by side; its docstring lists the levels.  One identity saves
a product there: q.v = F_{mu nu} v^mu v^nu = 0 for an antisymmetric F and
an even v, so the part -2 lam (q.v) of F^{mu nu} v_mu dxi_nu in R0 is
dropped.

Constant field, at most 2 generators.  There v = v0 + v3 theta1 theta2
(x alike), xi = xi1 theta1 + xi2 theta2 and lam = lam1 theta1 + lam2
theta2, with real 4-vectors v0, v3, xi_i and reals lam_i, and a grade of
degree >= 3 is zero.  So every product above is real 4-vector arithmetic,
which ``_const_program`` evaluates with F fixed for the run.  Write f for
the matrix F_{mu nu}, a f for the row vector a^mu F_{mu nu}, a.b for
sum_mu a^mu b^mu (no metric), H = f eta f (symmetric), b = v0.(eta v0)
and c = (mu'-e)/(2m).  Then

    lam_i     = (c/b) xi_i.(v0 f)
    dlam_i/ds = (2 c^2/b) xi_i.(v0 H)
    dv        = -(e/m) eta (v0 f + v3 f theta1 theta2)
                - (1/m)(dlam_1 xi_2 - dlam_2 xi_1) theta1 theta2
    dxi_i     = -(mu'/m) eta (xi_i f) - 2 lam_i v0,

and E^{-1} R0 = R0/b.  R0 reduces to c ((mu'-e)/m) xi_i.(v0 H) because
v0.(v0 f) = 0 for an antisymmetric f: the lam-terms of R0 drop out, and the
two F-terms combine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grassmann import EVEN, ODD, PRUNE_TOL, GrassmannAlgebra, GrassmannNumber
from .minkowski import SIGNS

__all__ = [
    "NumericalAbortError",
    "LightlikeVelocityError",
    "ModelParams",
    "SuperState",
    "SuperTrajectory",
    "ReducedTrajectory",
    "lambda_solve",
    "eom_rhs",
    "constraint_value",
    "multiplier_rate",
    "integrate_super",
    "leading_order",
]


class NumericalAbortError(ValueError):
    """A run cannot continue: its numbers left the range they must stay in."""


class LightlikeVelocityError(NumericalAbortError):
    """v.v has zero body; the multiplier equation cannot be solved."""


@dataclass(frozen=True)
class ModelParams:
    """Particle parameters: mass, charge, and the moment parameter mu'.

    The magnetic moment is mu'/(2m); mu' = e is the no-anomaly case.
    """

    mass: float
    charge: float
    mu_prime: float

    def __post_init__(self):
        for name in ("mass", "charge", "mu_prime"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ValueError(f"{name} must be a real number, got {value!r}") from None
            if not finite:
                raise ValueError(f"{name} must be finite")
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    @property
    def anomaly(self) -> float:
        return self.mu_prime - self.charge


def _require_finite(**values) -> None:
    """Raise a ValueError naming the first of ``values`` with a non-finite entry."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


# ----------------------------------------------------------------------
# Batched Grassmann 4-vector helpers (raw coefficient arrays)
# ----------------------------------------------------------------------

# Metric signs against the component axis of (..., 4, dim): lowers an index.
_LOWER = SIGNS[:, None]


def _gdot(alg: GrassmannAlgebra, a: np.ndarray, b: np.ndarray, pa, pb) -> np.ndarray:
    """a_mu b^mu for Grassmann 4-vectors (..., 4, dim) of parity hints pa and
    pb, factors in this order."""
    prod = alg.mul(a, b, pa, pb)
    return np.einsum("m,...md->...d", SIGNS, prod)


def _split_even(x: np.ndarray):
    bodies = x[..., 0]
    souls = None
    if x[..., 1:].any():
        souls = x.copy()
        souls[..., 0] = 0.0
    return bodies, souls


def _cut(t: np.ndarray) -> np.ndarray:
    """An even tensor with body only is cut to it: last axis of length 1."""
    return t if t[..., 1:].any() else t[..., :1]


def _emul(alg, a, b, pb=None):
    """Product a b of an even a and a b of parity hint pb; a factor cut to
    its body multiplies as the real it is."""
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    return alg.mul(a, b, EVEN, pb)


def _field(alg, fld, x, grad=False):
    """F_{mu nu} (..., 4, 4, dim) and d_kappa F_{mu nu} (..., 4, 4, 4, dim)
    at even points x.  dF, and F without ``grad``, are cut to their body when
    they have no soul; with ``grad``, both come from one pass of the program.

    A constant F is its body and its dF None; dF is None without ``grad``.
    """
    if fld.constant:
        return fld._f_const[..., None], None
    bodies, souls = _split_even(x)
    if not grad:
        return _cut(fld.f_lower_coeffs(bodies, souls, alg)), None
    f, df = fld.f_and_df_coeffs(bodies, souls, alg)
    return f, _cut(df)


def _f_first(alg, f, cols, w, pw):
    """sum_mu [F | cols]_{mu c} w^mu for w of parity hint pw, as Q_nu(w) =
    F_{mu nu} w^mu (..., 4, dim) and the even columns ``cols`` (..., 4, c,
    dim) contracted with w (..., c, dim), in one product.  A cut F
    multiplies as the real it is, outside the product."""
    w = w[..., :, None, :]
    if f.shape[-1] == 1:
        return (f * w).sum(axis=-3), alg.mul(cols, w, EVEN, pw).sum(axis=-3)
    p = alg.mul(np.concatenate((f, cols), axis=-2), w, EVEN, pw).sum(axis=-3)
    return p[..., :4, :], p[..., 4:, :]


def _solve_lam(alg, vv, q, xi, c_lam):
    """(v.v)^{-1} and lam = c (v.v)^{-1} a, a = q_nu xi^nu = F^{mu nu} v_mu
    xi_nu (metric signs cancel pairwise there).

    vv comes out of an even-by-even product, whose odd slots are exact
    zeros, so only its body is checked: a zero body raises
    LightlikeVelocityError, and the inverse series runs without
    ``invert_even``'s checks.
    """
    if (vv[..., 0] == 0.0).any():
        raise LightlikeVelocityError("v.v has zero body")
    inv_vv = alg._inverse_series(vv)
    a_con = alg.mul(q, xi, EVEN, ODD).sum(axis=-2)
    return inv_vv, c_lam * alg.mul(inv_vv, a_con, EVEN, ODD)


def _multiplier(alg, f, v, xi, par):
    """Multiplier lam plus reusable contractions.

    Returns (vv, inv_vv, q, lam) with q_nu = F_{mu nu} v^mu; q and v.v come
    from one product, [F | eta v] . v.
    """
    q, vv = _f_first(alg, f, (_LOWER * v)[..., None, :], v, EVEN)
    vv = vv[..., 0, :]
    inv_vv, lam = _solve_lam(alg, vv, q, xi, par.anomaly / (2.0 * par.mass))
    return vv, inv_vv, q, lam


# ----------------------------------------------------------------------
# States and trajectories
# ----------------------------------------------------------------------


@dataclass
class SuperState:
    """Even x, v and odd xi as coefficient arrays (4, dim), at proper time s."""

    alg: GrassmannAlgebra
    x: np.ndarray
    v: np.ndarray
    xi: np.ndarray
    s: float = 0.0

    @classmethod
    def from_real(
        cls,
        x0,
        u0,
        xi_coeffs,
        alg: GrassmannAlgebra,
        s: float = 0.0,
    ) -> "SuperState":
        """Real initial data; xi_coeffs[a, mu] loads generator a+1 with c_a^mu."""
        x0, u0 = np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)
        c = np.atleast_2d(np.asarray(xi_coeffs, dtype=float))
        _require_finite(x0=x0, u0=u0, xi_coeffs=c, s=s)
        x = np.zeros((4, alg.dim))
        v = np.zeros((4, alg.dim))
        x[:, 0] = x0
        v[:, 0] = u0
        xi = np.zeros((4, alg.dim))
        if c.shape[1] != 4 or c.shape[0] > alg.n:
            raise ValueError(
                f"xi coefficients must be (k, 4) with k <= {alg.n}, got {c.shape}"
            )
        for a in range(c.shape[0]):
            xi[:, 1 << a] = c[a]
        return cls(alg, x, v, xi, s)

    def validate(self) -> None:
        """Raise a ValueError naming the first component, mu-major and then x,
        v, xi, with a coefficient above PRUNE_TOL in a slot of the wrong parity."""
        _require_finite(x=self.x, v=self.v, xi=self.xi, s=self.s)
        alg = self.alg
        wrong = np.array((alg.odd_mask, alg.odd_mask, alg.even_mask))[:, None, :]
        bad = ((np.abs((self.x, self.v, self.xi)) > PRUNE_TOL) & wrong).any(axis=-1)
        if bad.any():
            mu, k = np.argwhere(bad.T)[0]
            name, parity = (("x", "even"), ("v", "even"), ("xi", "odd"))[k]
            raise ValueError(f"{name}^{mu} is not Grassmann-{parity}")


@dataclass
class SuperTrajectory:
    """Recorded states plus per-step monitor series (length steps + 1)."""

    alg: GrassmannAlgebra
    h: float
    s: np.ndarray           # (R,) proper times of recorded states
    x: np.ndarray           # (R, 4, dim)
    v: np.ndarray           # (R, 4, dim)
    xi: np.ndarray          # (R, 4, dim)
    steps_recorded: np.ndarray
    constraint_max: np.ndarray
    lambda_max: np.ndarray
    vv_body: np.ndarray

    def __len__(self) -> int:
        return self.s.shape[0]

    def state(self, i: int) -> SuperState:
        return SuperState(self.alg, self.x[i], self.v[i], self.xi[i], float(self.s[i]))


@dataclass
class ReducedTrajectory:
    """Lowest-degree projection: bodies of x, v and the theta1 theta2 spin block."""

    s: np.ndarray      # (R,)
    x: np.ndarray      # (R, 4)
    u: np.ndarray      # (R, 4)
    spin: np.ndarray   # (R, 4, 4), S_{mu nu} (covariant components)


# ----------------------------------------------------------------------
# Right-hand side
# ----------------------------------------------------------------------


def _rhs(alg, fld, par, x, v, xi):
    """Batched right-hand side; returns (dv, dxi, lam, lam_dot, vv, v_xi),
    with vv = v.v and v_xi = v.xi, the monitors' contractions.

    Inputs are coefficient arrays (..., 4, dim).  dx/ds = v is implicit.
    The products run by dependency level, and products of one level with
    the same parity hints share one kernel call, their columns side by
    side (no hint is widened to None):

    1. [F | eta v | dF] . v gives q = Q(v), v.v and, for a dF with a soul,
       dF(v) = v^kappa d_kappa F; [F | eta v] . xi gives Q(xi) and v.xi;
       and xi xi where the field has dF.
    2. (v.v)^{-1}; q.xi; dF . xi xi, for a dF with a soul.
    3. lam; [dF(v) | 0 ; F | eta v] . [v ; dv_base], which gives
       dF(v) v + Q(dv_base) and v.dv_base.
    4. [dF(v) v + Q(dv_base), q, v, d(v.v)/ds] . [xi, k_xi Q(xi), lam, lam],
       one even-by-odd product: the F-terms of R0, lam v and lam d(v.v)/ds.
    5. W.xi, E^{-1}, dlam/ds, then (dlam/ds) xi.

    Level 4 drops the term -2 q.(lam v) of q.dxi: it is -2 lam (q.v), and
    q.v = F_{mu nu} v^mu v^nu = 0, since F is antisymmetric and v even.
    The signs of eta are folded into k_v = -(e/m) eta and k_xi = -(mu'/m)
    eta.  E has the body of v.v (W.xi is odd by odd), so both inverses run
    the series after the one body check.
    """
    m, e, mup = par.mass, par.charge, par.mu_prime
    c_lam = (mup - e) / (2.0 * m)
    # F^{mu nu} w_nu = -eta_mu Q_mu(w), so (e/m) F^{mu nu} v_nu = k_v q
    k_v, k_xi = -(e / m) * _LOWER, -(mup / m) * _LOWER
    k_grad = (mup / (4.0 * m * m)) * _LOWER

    # F comes full width with a dF: level 3 stacks it with dF(v)
    f, df = _field(alg, fld, x, grad=True)
    lower_v = (_LOWER * v)[..., None, :]
    soul_df = df is not None and df.shape[-1] > 1

    # level 1
    cols = lower_v
    if soul_df:
        cols = np.concatenate((lower_v, df.reshape(df.shape[:-4] + (4, 16, alg.dim))), axis=-2)
    q, p_v = _f_first(alg, f, cols, v, EVEN)
    vv = p_v[..., 0, :]
    q_xi, v_xi = _f_first(alg, f, lower_v, xi, ODD)
    v_xi = v_xi[..., 0, :]
    dv_base = k_v * q
    if df is not None:
        pair = alg.mul(xi[..., :, None, :], xi[..., None, :, :], ODD, ODD)
        if soul_df:
            f_dot = p_v[..., 1:, :].reshape(p_v.shape[:-2] + (4, 4, alg.dim))
        else:
            f_dot = (v[..., :, None, None, :] * df).sum(axis=-4)

    # levels 2 and 3
    inv_vv, lam = _solve_lam(alg, vv, q, xi, c_lam)
    if df is None:
        f_dv, v_dv = _f_first(alg, f, lower_v, dv_base, EVEN)
    else:
        grad = _emul(alg, df, pair[..., None, :, :, :], EVEN).sum(axis=(-3, -2))
        dv_base = dv_base + k_grad * grad
        left = np.zeros(q.shape[:-2] + (8, 5, alg.dim))
        left[..., :4, :4, :] = f_dot
        left[..., 4:, :4, :] = f
        left[..., 4:, 4:, :] = lower_v
        right = np.concatenate((v, dv_base), axis=-2)[..., :, None, :]
        p_dv = alg.mul(left, right, EVEN, EVEN).sum(axis=-3)
        f_dv, v_dv = p_dv[..., :4, :], p_dv[..., 4:, :]

    # level 4; rows 0-7 sum to the F-terms of R0
    left = np.concatenate((f_dv, q, v, 2.0 * v_dv), axis=-2)
    right = np.empty(left.shape)
    right[..., :4, :] = xi
    right[..., 4:8, :] = kq_xi = k_xi * q_xi
    right[..., 8:, :] = lam[..., None, :]
    p_r = alg.mul(left, right, EVEN, ODD)
    lam_v = p_r[..., 8:12, :]
    r0 = c_lam * p_r[..., :8, :].sum(axis=-2) - p_r[..., 12, :]
    dxi = kq_xi - 2.0 * lam_v

    # E = v.v + sum_nu W_nu xi^nu, W_nu = (c/m) Q_nu(xi) + (2/m) lam v_nu;
    # at n <= 2 generators E^-1 R0 = R0/(v.v) (module docstring)
    inv_e = inv_vv
    if alg.n > 2:
        w = (c_lam / m) * q_xi + (2.0 / m) * _LOWER * lam_v
        inv_e = alg._inverse_series(vv + alg.mul(w, xi, ODD, ODD).sum(axis=-2))
    lam_dot = alg.mul(inv_e, r0, EVEN, ODD)
    dv = dv_base - (1.0 / m) * alg.mul(lam_dot[..., None, :], xi, ODD, ODD)
    return dv, dxi, lam, lam_dot, vv, v_xi


# ----------------------------------------------------------------------
# Rate program: constant field, at most 2 generators
# ----------------------------------------------------------------------

# (array, coefficient) of each row of the packed state (6, 4): the rows are
# x0, x3, v0, v3, xi1, xi2, of x, v = body + theta1 theta2 coefficients and
# xi = theta1 + theta2 coefficients.
_PACKED = ((0, 0), (0, 3), (1, 0), (1, 3), (2, 1), (2, 2))


def _pack(alg, y):
    """The packed state of y = (x, v, xi) (3, 4, dim) in ``alg``, n <= 2, or
    None when a coefficient of the wrong parity is nonzero."""
    if y[:2][..., alg.odd_mask].any() or y[2][..., alg.even_mask].any():
        return None
    packed = np.zeros((len(_PACKED), 4))
    for row, (a, c) in enumerate(_PACKED):
        if c < alg.dim:
            packed[row] = y[a][:, c]
    return packed


def _unpack(alg, packed):
    """Packed states (..., 6, 4) as (x, v, xi) coefficient arrays (..., 3, 4, dim)."""
    y = np.zeros(packed.shape[:-2] + (3, 4, alg.dim))
    for row, (a, c) in enumerate(_PACKED):
        if c < alg.dim:
            y[..., a, :, c] = packed[..., row, :]
    return y


def _const_program(f, par):
    """``terms(y)`` of a packed state y for the constant field F_{mu nu} = f.

    ``terms`` returns dv (rows dv0, dv3), dxi (rows dxi1, dxi2), lam and
    dlam/ds (theta1 and theta2 coefficients) and the body of v.v, by the
    equations of the module docstring.  F and F eta F are stacked once, so
    the rows (v0, v3, xi1, xi2) meet them in one product.  Raises
    LightlikeVelocityError when v.v has zero body.
    """
    m, e, mup = par.mass, par.charge, par.mu_prime
    c_lam = (mup - e) / (2.0 * m)
    k_dot = 2.0 * c_lam * c_lam
    fh = np.hstack((f, (f * SIGNS) @ f))       # [F | F eta F], (4, 8)
    k_v, k_xi = -(e / m) * SIGNS, -(mup / m) * SIGNS
    cross = np.array((1.0, -1.0)) / m          # -(1/m)(a1 xi2 - a2 xi1) = (a2, a1) . cross . xi
    dot = np.dot   # less call overhead than @ on operands this small

    def terms(y):
        v0, xi = y[2], y[4:]
        vv = dot(SIGNS * v0, v0)
        if vv == 0.0:
            raise LightlikeVelocityError("v.v has zero body")
        p = dot(y[2:], fh)                     # rows (v0 F | v0 H), v3 F, xi1 F, xi2 F
        lam = (c_lam / vv) * dot(xi, p[0, :4])
        lam_dot = (k_dot / vv) * dot(xi, p[0, 4:])
        dv = k_v * p[:2, :4]
        dv[1] += dot(lam_dot[::-1] * cross, xi)
        dxi = k_xi * p[2:, :4] - (2.0 * lam)[:, None] * v0
        return dv, dxi, lam, lam_dot, vv

    return terms


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------


def lambda_solve(state: SuperState, fld, par: ModelParams) -> GrassmannNumber:
    """Constraint multiplier at a state (Grassmann-odd for odd xi)."""
    alg = state.alg
    f, _ = _field(alg, fld, state.x)
    _, _, _, lam = _multiplier(alg, f, state.v, state.xi, par)
    return GrassmannNumber(alg, lam)


def eom_rhs(state: SuperState, fld, par: ModelParams):
    """(dx, dv, dxi) at a state, as lists of GrassmannNumber."""
    dv, dxi = _rhs(state.alg, fld, par, state.x, state.v, state.xi)[:2]
    wrap = lambda arr: [GrassmannNumber(state.alg, arr[mu]) for mu in range(4)]
    return wrap(state.v), wrap(dv), wrap(dxi)


def constraint_value(state: SuperState) -> GrassmannNumber:
    """xi_mu v^mu; zero (to roundoff) along consistent trajectories."""
    return GrassmannNumber(state.alg, _gdot(state.alg, state.xi, state.v, ODD, EVEN))


def multiplier_rate(state: SuperState, fld, par: ModelParams):
    """(lam, dlam/ds) at a state, the rate solved in closed form, E^{-1} R0."""
    lam, lam_dot = _rhs(state.alg, fld, par, state.x, state.v, state.xi)[2:4]
    return GrassmannNumber(state.alg, lam), GrassmannNumber(state.alg, lam_dot)


def rk4(rates, y, h: float, steps: int, record_every: int):
    """Classical fixed-step RK4 (Hairer, Norsett, Wanner, *Solving ODEs I*).

    ``y`` is one array holding the whole state, and ``rates(y, i)`` returns
    its rate as an array of the same shape; ``i`` is the step index at a
    step's first stage and None at the other three.  Every stage is one
    whole-array expression, so leading axes of ``y`` ride along.  Returns
    the step counts 0, ``record_every``, 2 ``record_every``, ... below
    ``steps``, then ``steps``, and the states after that many steps,
    stacked on a new leading axis.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h!r}")
    for name, count in (("steps", steps), ("record_every", record_every)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    half = 0.5 * h
    rec_steps = np.append(np.arange(0, steps, record_every), steps)
    rec_y = np.empty((rec_steps.size,) + np.shape(y))
    for i in range(steps):
        if i % record_every == 0:
            rec_y[i // record_every] = y
        k1 = rates(y, i)
        k2 = rates(y + half * k1, None)
        k3 = rates(y + half * k2, None)
        k4 = rates(y + h * k3, None)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rec_y[-1] = y
    return rec_steps, rec_y


def integrate_super(
    state0: SuperState,
    fld,
    par: ModelParams,
    h: float,
    steps: int,
    record_every: int = 1,
) -> SuperTrajectory:
    """Classical fixed-step RK4 (:func:`rk4`) on the Grassmann coefficients.

    It restricts once (``GrassmannAlgebra.subalgebra``) to the generators
    that occur in a nonzero coefficient of the initial x, v or xi, relabeled
    in ascending order into ``algebra(k)``.  That is exact.  F and dF of a
    real polynomial field, evaluated at even points of the subalgebra, stay
    in it, and so does every product in ``_rhs``; keeping the order keeps
    the merge signs.  Recorded states are mapped back into ``state0.alg``.

    The rate is ``_rhs``, the general path, except for a constant field at
    k <= 2 whose x and v are even and whose xi is odd: there RK4 steps the
    packed rows (x0, x3, v0, v3, xi1, xi2) with the rate of
    ``_const_program``, the equations of the module docstring in real
    4-vector arithmetic with F fixed for the run.  Both paths solve the same
    equations; their results differ by roundoff.

    Monitors (constraint magnitude, multiplier magnitude, body of v.v) are
    evaluated at every accepted step regardless of the recording stride,
    from the first stage of the step, and once more at the last state.
    ``_rhs`` returns v.xi and v.v with the rate, so the monitors make no
    Grassmann product of their own.  The step loop keeps each step's xi.v,
    lam and v.v body, and their abs/max reductions run once, after it.
    """
    state0.validate()
    alg, masks, y0 = state0.alg.subalgebra(state0.x, state0.v, state0.xi)
    y0 = np.stack(y0)
    monitors = []   # (xi.v, lam, body of v.v) per step, reduced after the loop

    def at_step(i, kernel, *args):
        try:
            return kernel(*args)
        except LightlikeVelocityError as err:
            if i is None:
                raise
            raise LightlikeVelocityError(f"{err} at step {i}") from err

    packed = _pack(alg, y0) if fld.constant and alg.n <= 2 else None
    if packed is None:
        def rates(y, i):
            x, v, xi = y
            dv, dxi, lam, _, vv, v_xi = at_step(i, _rhs, alg, fld, par, x, v, xi)
            if i is not None:
                monitors.append((v_xi, lam, vv[0]))
            return np.array((v, dv, dxi))
    else:
        terms = _const_program(fld._f_const, par)

        def rates(y, i):
            dv, dxi, lam, _, vv = at_step(i, terms, y)
            if i is not None:
                monitors.append((np.dot(y[4:], SIGNS * y[2]), lam, vv))
            return np.concatenate((y[2:4], dv, dxi))

    rec_steps, rec = rk4(rates, y0 if packed is None else packed, h, steps, record_every)
    rates(rec[-1], steps)   # monitors of the last state
    if packed is not None:
        rec = _unpack(alg, rec)

    lifted = np.zeros(rec.shape[:-1] + (state0.alg.dim,))
    lifted[..., masks] = rec
    xi_v, lams, vv_body = zip(*monitors)
    constraint_max, lambda_max = (np.abs(np.array(ops)).max(axis=-1) for ops in (xi_v, lams))
    return SuperTrajectory(
        alg=state0.alg,
        h=h,
        s=state0.s + h * rec_steps,
        x=lifted[:, 0],
        v=lifted[:, 1],
        xi=lifted[:, 2],
        steps_recorded=rec_steps,
        constraint_max=constraint_max,
        lambda_max=lambda_max,
        vv_body=np.array(vv_body),
    )


def leading_order(traj: SuperTrajectory) -> ReducedTrajectory:
    """Project a trajectory to its lowest Grassmann degrees.

    Returns bodies of x and v, and the theta1 theta2 coefficient of the spin
    tensor S_{mu nu} = (1/2) xi_mu xi_nu, which is the block loaded by
    two-generator initial data.
    """
    if traj.alg.n < 2:
        raise ValueError("projection needs an algebra with at least 2 generators")
    spin = spin_block(traj.xi[..., :, 1], traj.xi[..., :, 2])
    return ReducedTrajectory(s=traj.s.copy(), x=traj.x[..., 0], u=traj.v[..., 0], spin=spin)


def spin_block(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """theta1 theta2 coefficient (1/2)(c1_mu c2_nu - c2_mu c1_nu) of S_{mu nu},
    from the theta1 and theta2 coefficients c1^mu, c2^mu (..., 4) of xi^mu."""
    lo1, lo2 = SIGNS * c1, SIGNS * c2
    return 0.5 * (lo1[..., :, None] * lo2[..., None, :] - lo2[..., :, None] * lo1[..., None, :])
