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
the reference for the map form below.

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
with F fixed for the run.  Write f for the matrix F_{mu nu}, a f for the
row vector a^mu F_{mu nu}, a.b for sum_mu a^mu b^mu (no metric), H = f eta f
(symmetric), b = v0.(eta v0), c = (mu'-e)/(2m), and k_v = -(e/m) eta and
k_xi = -(mu'/m) eta as sign vectors.  Then

    lam_i     = (c/b) xi_i.(v0 f)
    dlam_i/ds = (2 c^2/b) xi_i.(v0 H)
    dv        = k_v o (v0 f + v3 f theta1 theta2)
                - (1/m)(dlam_1 xi_2 - dlam_2 xi_1) theta1 theta2
    dxi_i     = k_xi o (xi_i f) - 2 lam_i v0,

and E^{-1} R0 = R0/b.  R0 reduces to c ((mu'-e)/m) xi_i.(v0 H) because
v0.(v0 f) = 0 for an antisymmetric f: the lam-terms of R0 drop out, and the
two F-terms combine.

These rates are triangular by degree, and each level is linear in its own
rows once the levels below are given, as row vectors times a generator:

    body z = (x0, v0):    dz = z A, A fixed (dx0 = v0, dv0 = k_v o (v0 f))
    xi_i:                 dxi_i = xi_i N,  N = f diag(k_xi) - (2c/b) (v0 f)^T v0
    w = (x3, v3, 1):      dw = w L,  dx3 = v3,
                          dv3 = k_v o (v3 f) + (dlam_2 xi_1 - dlam_1 xi_2)/m,

with N formed at the body's v0 and L, which is A with that source in its
homogeneous row, at the body's v0 and xi.  (Bargmann, Michel and Telegdi,
PRL 2 (1959) 435, use the same linearity for their closed form.)  So one
RK4 step of a level is a linear map of its rows, formed from the level's
generators at the step's four stage points (``rk4_maps``): y_n goes to
y_n + y_n D_n, and its stage i is y_n + y_n S_{n,i}.  ``integrate_super``
forms the maps of a block of steps level by level, each level in one
batched pass: the body's maps are one fixed map, whose chained states give
every stage's v0; those form the xi maps, whose chained states give every
stage's xi; those form the w maps.  A step then costs one small
matrix-vector product per level, and the monitors are read off the chained
states in one batched pass.  This is RK4 on the rates above with its terms
reassociated, y_n (1 + D_n) in place of y_n + (h/6)(k1 + 2 k2 + 2 k3 + k4),
so the two differ by roundoff.  The maps are kept as increments D = R - 1:
a rounded entry 1 + O(h) of a fixed map would repeat its error at every
step, so the error would grow linearly with the run.  Blocks hold
``_MAP_BLOCK`` steps, which bounds the transient arrays of a run of any
length.
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
# Map form: constant field, at most 2 generators
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


def _body_gen(f, par):
    """The 8 x 8 generator of the body rows z = (x0, v0) in a constant field
    F_{mu nu} = f: dz/ds = z @ gen, that is dx0 = v0, dv0 = k_v o (v0 f)."""
    gen = np.zeros((8, 8))
    gen[4:, :4] = np.eye(4)
    gen[4:, 4:] = f * (-(par.charge / par.mass) * SIGNS)
    return gen


def _body_run(fld, par, h):
    """``run(z, count)``: the body states z (count + 1, 8) of ``count`` RK4
    steps from z = (x0, v0) in the field ``fld``, and at each step's four
    stages the velocities v0 (count, 4, 4), F_{mu nu} and v0 @ F (count, 4,
    4).  A constant field's step map is one fixed map, formed once here, and
    its F is the one (4, 4) tensor.  A varying field steps the body rate
    dx0 = v0, dv0 = k_v o (v0 F(x0)) with :func:`rk4`.  Each stage copies
    its x0 into a padded point (x0, 1) that the run owns and reads F there
    by the field's real-point kernel, ``_f_padded``; it writes its v0, F
    and v0 @ F straight into row k of three block buffers of 4 count rows,
    k counting the stages in call order, which are returned as (count, 4,
    ...) views, F (count, 4, 4, 4)."""
    k_v = -(par.charge / par.mass) * SIGNS
    if fld.constant:
        f = fld._f_const
        maps, stages = rk4_maps(_body_gen(f, par)[None, None].repeat(4, axis=1), h)

        def run(z, count):
            z = _chain(z, (maps[0],) * count)
            zs = z[:-1, None, None]
            v0 = (zs + zs @ stages)[:, :, 0, 4:]
            return z, v0, f, v0 @ f

        return run

    padded, f_at = np.ones(5), fld._f_padded

    def run(z, count):
        v0s, fs, vfs = np.empty((4 * count, 4)), np.empty((4 * count, 16)), np.empty((4 * count, 4))
        f44 = fs.reshape(-1, 4, 4)
        stage = iter(range(4 * count))

        def rates(z, i):
            k, v0 = next(stage), z[4:]
            padded[:4] = z[:4]
            v0s[k] = v0
            f_at(padded, out=fs[k])
            vf = np.dot(v0, f44[k], out=vfs[k])   # less call overhead than @ here
            return np.concatenate((v0, k_v * vf))

        z = rk4(rates, z, h, count, 1)[1]
        return z, v0s.reshape(count, 4, 4), f44.reshape(count, 4, 4, 4), vfs.reshape(count, 4, 4)

    return run


def _xi_gen(f, par, v0, vv):
    """N (..., 4, 4) with dxi_i/ds = xi_i @ N at body velocities v0 (..., 4)
    of body v.v ``vv`` (...): N = f diag(k_xi) - (2c/b) (v0 f)^T v0."""
    c_lam = par.anomaly / (2.0 * par.mass)
    vf = v0 @ f
    return (f * (-(par.mu_prime / par.mass) * SIGNS)
            - (2.0 * c_lam / vv)[..., None, None] * vf[..., :, None] * v0[..., None, :])


def _soul_gen(f, par, v0, vv, xi):
    """The 9 x 9 generator (..., 9, 9) of w = (x3, v3, 1), dw/ds = w @ gen,
    at body velocities v0 (..., 4) of body v.v ``vv`` (...) and spins xi
    (..., 2, 4), and dlam/ds (..., 2).  gen is the body generator with the
    source (dlam_2 xi_1 - dlam_1 xi_2)/m of dv3 in its homogeneous row."""
    c_lam = par.anomaly / (2.0 * par.mass)
    vh = v0 @ ((f * SIGNS) @ f)                   # v0 H, H = f eta f
    lam_dot = (2.0 * c_lam * c_lam / vv)[..., None] * (xi * vh[..., None, :]).sum(axis=-1)
    gen = np.zeros(v0.shape[:-1] + (9, 9))
    gen[..., :8, :8] = _body_gen(f, par)
    source = lam_dot[..., 1:] * xi[..., 0, :] - lam_dot[..., :1] * xi[..., 1, :]
    gen[..., 8, 4:8] = source / par.mass
    return gen, lam_dot


def _const_monitors(f, par, packed):
    """xi.v (..., 2), lam (..., 2) and the body of v.v (...) of packed states
    (..., 6, 4).  Element-wise products summed along the last axis, so each
    state reads the same bits in a batch of any size."""
    v0, xi = packed[..., 2, :], packed[..., 4:, :]
    vv = (SIGNS * v0 * v0).sum(axis=-1)
    xi_v = (xi * (SIGNS * v0)[..., None, :]).sum(axis=-1)
    vf = (v0[..., None, :] * f.T).sum(axis=-1)
    lam = (par.anomaly / (2.0 * par.mass) / vv)[..., None] * (xi * vf[..., None, :]).sum(axis=-1)
    return xi_v, lam, vv


def _check_lightlike(vv, start):
    """Raise LightlikeVelocityError at the first zero of vv (steps, stages),
    stage 0 of row 0 being step ``start``; the step is named when the zero
    is at a step's first stage."""
    hit = np.flatnonzero(vv == 0.0)
    if hit.size:
        step, stage = divmod(int(hit[0]), vv.shape[-1])
        at = f" at step {start + step}" if stage == 0 else ""
        raise LightlikeVelocityError(f"v.v has zero body{at}")


def _const_run(fld, par, packed, h, steps, record_every):
    """The map form of a constant-field run at k <= 2 (module docstring).

    Returns the recorded steps, the packed states at them (R, 6, 4) and the
    monitors (constraint magnitude, multiplier magnitude, body of v.v) of
    steps 0, ..., ``steps``.  Raises LightlikeVelocityError at the first
    (step, stage) whose body v.v is zero, before any map divides by it.
    """
    rec_steps = _rec_steps(h, steps, record_every)
    f, body = fld._f_const, _body_run(fld, par, h)

    def advance(y, start, count):
        z, v0 = body(np.concatenate((y[0], y[2])), count)[:2]
        vv = (SIGNS * v0 * v0).sum(axis=-1)
        _check_lightlike(vv, start)
        xi_maps, xi_stages = rk4_maps(_xi_gen(f, par, v0, vv), h)
        xi = _chain(y[4:], xi_maps)
        xis = xi[:-1, None]
        soul_maps, _ = rk4_maps(_soul_gen(f, par, v0, vv, xis + xis @ xi_stages)[0], h)
        w = _chain(np.concatenate((y[1], y[3], (1.0,))), soul_maps)
        states = np.empty((count + 1, 6, 4))
        states[:, 0], states[:, 2] = z[:, :4], z[:, 4:]
        states[:, 1], states[:, 3] = w[:, :4], w[:, 4:8]
        states[:, 4:] = xi
        return states

    def reduce(states, start):
        v0 = states[:, 2]
        _check_lightlike((SIGNS * v0 * v0).sum(axis=-1)[:, None], start)   # before lam divides
        xi_v, lam, vv = _const_monitors(f, par, states)
        return np.abs(xi_v).max(axis=-1), np.abs(lam).max(axis=-1), vv

    rec, seen = _run_maps(advance, packed, steps, rec_steps, reduce)
    return rec_steps, rec, [np.concatenate(series) for series in zip(*seen)]


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


def _rec_steps(h, steps, record_every) -> np.ndarray:
    """The recorded step counts 0, ``record_every``, ... below ``steps``, then
    ``steps``, once h and both counts are checked."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h!r}")
    for name, count in (("steps", steps), ("record_every", record_every)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    return np.append(np.arange(0, steps, record_every), steps)


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
    half = 0.5 * h
    rec_steps = _rec_steps(h, steps, record_every)
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


def rk4_maps(gens, h: float):
    """The RK4 step maps of linear rates dy/ds = y @ gens[n, i] on row
    vectors y, gens (N, 4, d, d) holding step n's generator at stage i.

    :func:`rk4` takes one step from a batch of N zero matrices psi, the
    increments of identity matrices phi = 1 + psi, its k-th rate call
    returning phi @ gens[:, k].  Returns the step increments D (N, d, d) and
    the stage increments S (N, 4, d, d): RK4 takes y_n to y_n + y_n @ D[n],
    and its stage i of step n to y_n + y_n @ S[n, i].  Kept as increments,
    the maps round no entry 1 + O(h), whose error a fixed map would repeat
    at every step.  An affine source rides in a homogeneous last component
    of y, held at 1 by a zero last column.
    """
    stages = []

    def rates(psi, i):
        stages.append(psi)
        gen = gens[:, len(stages) - 1]
        return gen + psi @ gen

    return rk4(rates, np.zeros(gens[:, 0].shape), h, 1, 1)[1][1], np.stack(stages, axis=1)


def _chain(y, maps):
    """y and its images under the step increments ``maps`` in turn, y + y @ D,
    stacked: (len(maps) + 1, ...)."""
    out = np.empty((len(maps) + 1,) + y.shape)
    out[0] = y
    for n, step in enumerate(maps):
        out[n + 1] = y = y + np.dot(y, step)
    return out


# Steps whose maps one pass forms: a map-form run's transient arrays are a
# few (_MAP_BLOCK, 4, 9, 9) stacks, about 0.3 MB each, whatever its length.
_MAP_BLOCK = 128


def _run_maps(advance, y0, steps, rec_steps, reduce=None):
    """A run advanced in blocks of at most ``_MAP_BLOCK`` steps.

    ``advance(y, start, count)`` returns the states (count + 1, ...) of
    steps start, ..., start + count, from the state y of step start.
    Returns the states at ``rec_steps`` and, with ``reduce``, the list of
    ``reduce(states, start)`` over the states of steps 0, ..., ``steps``,
    block by block and the last state alone.
    """
    rec = np.empty((rec_steps.size,) + y0.shape)
    seen = []
    y, start = y0, 0
    while start < steps:
        count = min(_MAP_BLOCK, steps - start)
        states = advance(y, start, count)
        if reduce is not None:
            seen.append(reduce(states[:-1], start))
        kept = (rec_steps >= start) & (rec_steps < start + count)
        rec[kept] = states[rec_steps[kept] - start]
        y, start = states[-1], start + count
    rec[-1] = y
    if reduce is not None:
        seen.append(reduce(y[None], steps))
    return rec, seen


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
    k <= 2 whose x and v are even and whose xi is odd.  There the packed
    rows (x0, x3, v0, v3, xi1, xi2) advance in the map form of the module
    docstring: RK4's step maps are formed for a block of steps at once and
    chained, one small matrix-vector product per step and level.  Both
    paths take the same RK4 steps of the same equations; their results
    differ by roundoff.  A zero body of v.v raises LightlikeVelocityError
    at the first (step, stage) where it occurs, naming the step when that
    stage is a step's first, on either path.

    Monitors (constraint magnitude, multiplier magnitude, body of v.v) are
    evaluated at every accepted step regardless of the recording stride,
    at the step's first stage, and once more at the last state.  ``_rhs``
    returns v.xi and v.v with the rate, so the monitors make no Grassmann
    product of their own; its step loop keeps each step's xi.v, lam and v.v
    body, and their abs/max reductions run once, after it.  The map form
    reduces them block by block from the chained states.
    """
    state0.validate()
    alg, masks, y0 = state0.alg.subalgebra(state0.x, state0.v, state0.xi)
    y0 = np.stack(y0)
    packed = _pack(alg, y0) if fld.constant and alg.n <= 2 else None
    if packed is None:
        monitors = []   # (xi.v, lam, body of v.v) per step, reduced after the loop

        def rates(y, i):
            x, v, xi = y
            try:
                dv, dxi, lam, _, vv, v_xi = _rhs(alg, fld, par, x, v, xi)
            except LightlikeVelocityError as err:
                if i is None:
                    raise
                raise LightlikeVelocityError(f"{err} at step {i}") from err
            if i is not None:
                monitors.append((v_xi, lam, vv[0]))
            return np.array((v, dv, dxi))

        rec_steps, rec = rk4(rates, y0, h, steps, record_every)
        rates(rec[-1], steps)   # monitors of the last state
        xi_v, lams, vv_body = zip(*monitors)
        constraint_max, lambda_max = (np.abs(np.array(ops)).max(axis=-1) for ops in (xi_v, lams))
        vv_body = np.array(vv_body)
    else:
        rec_steps, rec, (constraint_max, lambda_max, vv_body) = _const_run(
            fld, par, packed, h, steps, record_every)
        rec = _unpack(alg, rec)

    lifted = np.zeros(rec.shape[:-1] + (state0.alg.dim,))
    lifted[..., masks] = rec
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
        vv_body=vv_body,
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
