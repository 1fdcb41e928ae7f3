"""Reduced real-valued spin-precession dynamics.

The lowest Grassmann order of the full system closes on (x, u, S):

    m du^mu/ds = e F^{mu nu}(x) u_nu
    m dS^{mu nu}/ds = mu' F^{rho [nu} S_rho^{ mu]}
                      + (mu' - e) F^{rho sigma} u_rho S_sigma^{ [mu} u^{nu]}

with S the antisymmetric spin tensor and the bracket A^{[mu nu]} =
A^{mu nu} - A^{nu mu} (no 1/2); the bracket normalization is pinned against
the anticommuting-variable derivation by a dedicated cross-check test.
States store covariant components S_{mu nu}.

For a homogeneous field the whole system has a closed form (Bargmann,
Michel, Telegdi 1959): u(s) = exp((e/m) Fhat s) u(0), x(s) by exact
quadrature of u, and a spin tensor that, seen in the co-rotating frame,
follows a linear flow with a constant generator.  :class:`ConstantFieldOracle`
evaluates it with one matrix exponential per sample time, by :func:`_expm`,
and serves as the reference for the fixed-step integrator.

The integrator advances the 14-vector (x, u, s), with s the six covariant
pairs S_{mu nu} in ``PAIRS`` order, the same pair layout as the oracle's
generator.  With q^sigma = F^{rho sigma} u_rho its rate is

    dx = u,   du = -(e/m) q,   ds = [(mu'/m) K(F) + ((mu' - e)/m) W(q, u)] s,

where du = -(e/m) q is the force law above, because F is antisymmetric, and
K (linear in the six F pairs) and W (bilinear in q and u) are 6 x 6 maps
read off fixed coefficient tensors.  The rate is triangular, as in the map
form of :mod:`grasspin.super_dynamics`: the body (x, u) does not see the
spin, and given the body the spin pairs move linearly, ds = L s with
L = (mu'/m) K(F) + ((mu' - e)/m) W(q, u).  So a run advances the body over
a block of steps first, by ``super_dynamics._body_run``: one fixed map in a
constant field, RK4 on the body rate in a varying one, which reads F once
per stage by the field's real-point kernel.  Either way it yields each
stage's u and F, and so L there.  RK4's spin step maps are then formed
from those L for the whole block at once, and each step chains one 6 x 6
matrix-vector product.  That is the same RK4 with the spin's terms
reassociated, equal to stepping the rate up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .minkowski import PAIRS  # noqa: F401  (re-exported as grasspin.bmt.PAIRS)
from .minkowski import EPS_UPPER, SIGNS, _real_array, minkowski_dot, pack_pairs, unpack_pairs
from .super_dynamics import (
    ModelParams, NumericalAbortError, _body_run, _chain, _rec_steps, _require_finite, _run_maps,
    rk4_maps,
)

__all__ = [
    "BMTState",
    "BMTTrajectory",
    "bmt_rhs",
    "integrate_bmt",
    "ConstantFieldOracle",
    "spin_vector",
    "spin_velocity_angle",
    "anomalous_precession",
]

@dataclass
class BMTState:
    """Real reduced state: position, 4-velocity, covariant spin tensor."""

    x: np.ndarray
    u: np.ndarray
    spin: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        self.x = _real_array("x", self.x, (4,))
        self.u = _real_array("u", self.u, (4,))
        self.spin = _real_array("spin", self.spin, (4, 4))
        _require_finite(x=self.x, u=self.u, spin=self.spin, s=self.s)
        if np.max(np.abs(self.spin + self.spin.T)) > 1e-12:
            raise ValueError("spin tensor must be antisymmetric")

    @classmethod
    def from_pairs(cls, x, u, spin_pairs: Sequence[float], s: float = 0.0):
        """spin_pairs lists S_{01}, S_{02}, S_{03}, S_{12}, S_{13}, S_{23}."""
        return cls(x, u, unpack_pairs(spin_pairs), s)

    def invariants(self) -> tuple[float, float, float]:
        """(u.u, max |u^mu S_{mu nu}|, S_{mu nu} S^{mu nu})."""
        return tuple(float(v) for v in _invariants(self.u, self.spin))


def _invariants(u: np.ndarray, spin: np.ndarray):
    """u.u, max_nu |u^mu S_{mu nu}| and S_{mu nu} S^{mu nu} of states
    (..., 4) and (..., 4, 4)."""
    uu = minkowski_dot(u, u)
    us_max = np.max(np.abs((u[..., None, :] @ spin)[..., 0, :]), axis=-1)
    ss = np.sum(spin**2 * np.outer(SIGNS, SIGNS), axis=(-2, -1))
    return uu, us_max, ss


@dataclass
class BMTTrajectory:
    s: np.ndarray      # (R,)
    x: np.ndarray      # (R, 4)
    u: np.ndarray      # (R, 4)
    spin: np.ndarray   # (R, 4, 4)
    uu: np.ndarray
    us_max: np.ndarray
    ss: np.ndarray

    def __len__(self) -> int:
        return self.s.shape[0]

    def state(self, i: int) -> BMTState:
        return BMTState(self.x[i], self.u[i], self.spin[i], float(self.s[i]))


def _pack(state: BMTState) -> np.ndarray:
    """One state as the 14-vector (x, u, s), s the six ``PAIRS`` of S_{mu nu}."""
    return np.concatenate([state.x, state.u, pack_pairs(state.spin)])


def _rate_maps():
    """The fixed linear maps of the pair-space rate, as (_K, _T).

    With f the six pairs of F_{mu nu}, s those of S_{mu nu} and
    q = u @ (F eta):

        pack(t - t^T) = K s,  t = F eta S,          K.ravel() = f @ _K    (6, 36)
        pack(w - w^T) = W s,  w_{mu nu} = (q S)_mu u_nu,
                              W.ravel() = (q outer u).ravel() @ _T       (16, 36)

    Each is read off the unit antisymmetric tensors E_p = unpack_pairs(e_p).
    """
    unit = unpack_pairs(np.eye(6))
    f_eta = unit * SIGNS
    t = f_eta[:, None] @ unit                                   # [p, j] = E_p eta E_j
    k = np.moveaxis(pack_pairs(t - np.swapaxes(t, -1, -2)), -1, 1)
    w = unit[:, :, None, :, None] * np.diag(SIGNS)[:, None, :]   # [j, a, b, mu, nu]
    w = np.moveaxis(pack_pairs(w - np.swapaxes(w, -1, -2)), 0, -1)
    return k.reshape(6, 36), w.reshape(16, 36)


_K, _T = _rate_maps()


def _spin_gen(f_lower, u, uf, k_f, k_w):
    """k_f K(F) + k_w W(q, u) (..., 6, 6) at fields F_{mu nu} ``f_lower``
    (..., 4, 4) or one (4, 4) F, velocities u (..., 4) and uf = u @ F, whose
    signs give q = u @ (F eta): the spin generator of the rate (k_f = mu'/m,
    k_w = (mu' - e)/m) and of the oracle's co-rotating frame (both
    (mu' - e)/m)."""
    q = SIGNS * uf
    qu = (q[..., :, None] * u[..., None, :]).reshape(u.shape[:-1] + (16,))
    return (k_f * (pack_pairs(f_lower) @ _K) + k_w * (qu @ _T)).reshape(u.shape[:-1] + (6, 6))


def _run(fld, par: ModelParams, y0, h, steps, record_every):
    """The run of :func:`integrate_bmt` (module docstring): the recorded
    steps and the 14-vectors at them."""
    rec_steps = _rec_steps(h, steps, record_every)
    body = _body_run(fld, par, h)

    def advance(y, start, count):
        z, u, f, uf = body(y[:8], count)
        gens = _spin_gen(f, u, uf, par.mu_prime / par.mass, par.anomaly / par.mass)
        spin_maps, _ = rk4_maps(np.swapaxes(gens, -1, -2), h)
        return np.hstack((z, _chain(y[8:], spin_maps)))

    return rec_steps, _run_maps(advance, y0, steps, rec_steps)[0]


def bmt_rhs(state: BMTState, fld, par: ModelParams):
    """(dx, du, dspin) of the reduced system at a state: dx = u, du the
    Lorentz force, and dspin = L s with L the spin generator
    :func:`_spin_gen` that :func:`integrate_bmt` steps."""
    f = fld.f_lower_real(state.x)
    uf = state.u @ f
    gen = _spin_gen(f, state.u, uf, par.mu_prime / par.mass, par.anomaly / par.mass)
    return (state.u.copy(), -(par.charge / par.mass) * SIGNS * uf,
            unpack_pairs(gen @ pack_pairs(state.spin)))


def integrate_bmt(
    state0: BMTState,
    fld,
    par: ModelParams,
    h: float,
    steps: int,
    record_every: int = 1,
) -> BMTTrajectory:
    """Classical fixed-step RK4 (:func:`~grasspin.super_dynamics.rk4`).

    The state is the 14-vector (x, u, s), s the covariant pairs S_{mu nu} in
    ``PAIRS`` order.  With q = u @ (F eta), that is q^sigma = F^{rho sigma} u_rho,
    and K, W the 6 x 6 pair maps of :func:`_rate_maps`, the rate is

        dx = u,   du = -(e/m) q,   ds = [(mu'/m) K(F) + ((mu' - e)/m) W(q, u)] s.

    du is the Lorentz force (e/m) F^{mu nu} u_nu, which equals -(e/m) q^mu
    because F is antisymmetric.  Every field runs one way, over blocks of
    steps (module docstring): the body (x, u) first, by one fixed map in a
    constant field and by RK4 on its rate in a varying one, where each
    stage reads F by the field's real-point kernel and writes its u, F and
    u @ F into the block's buffers (``super_dynamics._body_run``); then s by
    RK4's step maps of L at each stage's u and F, chained.  The recorded
    spin pairs are unpacked once, into exactly antisymmetric tensors, and
    returned with the invariants u.u, max |u.S| and S.S of each recorded
    state.

    Raises :class:`~grasspin.super_dynamics.NumericalAbortError`, naming the
    first non-finite record, if the run leaves the float range; the last
    state is always recorded, so no blow-up goes unseen.
    """
    rec_steps, rec = _run(fld, par, _pack(state0), h, steps, record_every)
    bad = ~np.isfinite(rec).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise NumericalAbortError(f"non-finite state at record {i} (step {rec_steps[i]})")
    u, spin = rec[:, 4:8], unpack_pairs(rec[:, 8:])
    return BMTTrajectory(state0.s + h * rec_steps, rec[:, :4], u, spin, *_invariants(u, spin))


# ----------------------------------------------------------------------
# Constant-field oracle
# ----------------------------------------------------------------------


# The Taylor coefficients 1/k! of exp, k = 0, ..., 18, each correctly rounded
_EXP_TAYLOR = [1 / math.factorial(k) for k in range(19)]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of each matrix of a (..., n, n), by scaling and squaring
    (Moler and Van Loan, SIAM Review 45 (2003) 3) in increment form.

    One scaling s for the whole batch brings every ||x||_1, x = a / 2^s, to
    <= 1.  There E = exp(x) - 1 is its Taylor series to degree 18, with a
    remainder below ||x|| / 19! ~ 8e-18 ||x||, evaluated by Paterson and
    Stockmeyer (SIAM J. Comput. 2 (1973) 60): x^2, x^3 and x^4, then Horner's
    rule in x^4 over blocks c_4j + c_4j+1 x + c_4j+2 x^2 + c_4j+3 x^3, seven
    matrix products in all, the identity left out of the last block.  s
    doublings E -> 2E + E E then give exp(a) - 1, and the identity is added
    last.  Squaring 1 + E instead would round entries 1 + O(eps) and repeat
    that rounding at every doubling.
    """
    s = max(0, int(np.frexp(np.abs(a).sum(axis=-2).max(initial=0.0))[1]))
    x = np.ldexp(a, -s)
    eye, c = np.eye(a.shape[-1]), _EXP_TAYLOR
    x2 = x @ x
    x3, x4 = x2 @ x, x2 @ x2
    e = c[16] * eye + c[17] * x + c[18] * x2
    for j in (12, 8, 4, 0):
        e = e @ x4 + (c[j + 1] * x + c[j + 2] * x2 + c[j + 3] * x3)
        if j:
            e = e + c[j] * eye
    for _ in range(s):
        e = 2 * e + e @ e
    return eye + e


class ConstantFieldOracle:
    """Exact solution of the reduced system for a constant F_{mu nu}.

    With A = (e/m) eta F and Lambda(s) = exp(A s), the velocity is
    u(s) = Lambda u(0), and x(s) - x(0) = int_0^s Lambda u(0) is the top-right
    block of exp([[A, 1], [0, 0]] s) applied to u(0).  Lambda is a Lorentz
    map that commutes with A, so in the co-rotating frame
    S~ = Lambda^T S Lambda the spin law has a constant generator G on the
    six pairs: the pair-space transport at (F, u(0)) with the charge set to
    zero and mu' replaced by mu' - e, G = ((mu' - e)/m) (K(F) + W(q0, u0)),
    q0 = u(0) @ (F eta), with K and W the maps of :func:`_rate_maps`.  Hence

        S(s) = L unpack(exp(G s) pack(S(0))) L^T,   L = Lambda^{-T} = eta Lambda eta.

    One matrix exponential of the 14x14 block-diagonal generator gives all
    three at each sample time; :func:`_expm` forms them for every sample
    time in one batch, with numpy alone.  ``refine`` is accepted for call
    compatibility and stored as ``self.refine``; it selects nothing, since
    nothing is integrated.
    """

    def __init__(self, state0: BMTState, f_lower: np.ndarray, par: ModelParams,
                 refine: int = 100):
        self.state0 = state0
        self.f_lo = np.asarray(f_lower, dtype=float).reshape(4, 4)
        _require_finite(f_lower=self.f_lo)
        if np.max(np.abs(self.f_lo + self.f_lo.T)) > 1e-12:
            raise ValueError("constant field tensor must be antisymmetric")
        self.par = par
        self.refine = int(refine)
        k_co = par.anomaly / par.mass
        self._gen = np.zeros((14, 14))
        self._gen[:4, :4] = (par.charge / par.mass) * (SIGNS[:, None] * self.f_lo)
        self._gen[:4, 4:8] = np.eye(4)
        self._gen[8:, 8:] = _spin_gen(self.f_lo, state0.u, state0.u @ self.f_lo, k_co, k_co)

    def sample(self, times: np.ndarray, h_ref: float | None = None) -> BMTTrajectory:
        """Oracle states at increasing times >= state0.s.

        ``h_ref`` is accepted for call compatibility and unused: the closed
        form has no step size.  Raises
        :class:`~grasspin.super_dynamics.NumericalAbortError`, naming the
        first non-finite sample, if a state leaves the float range.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("sample times must be a non-empty 1-D array")
        if not np.all(np.isfinite(times)):
            raise ValueError("sample times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if times[0] < self.state0.s - 1e-15:
            raise ValueError("sample times must not precede the initial state")
        prop = _expm((times - self.state0.s)[:, None, None] * self._gen)
        lam = prop[:, :4, :4]
        xs = self.state0.x + prop[:, :4, 4:8] @ self.state0.u
        us = lam @ self.state0.u
        co_spin = unpack_pairs(prop[:, 8:, 8:] @ pack_pairs(self.state0.spin))
        lam_inv_t = SIGNS[:, None] * lam * SIGNS
        spins = lam_inv_t @ co_spin @ np.swapaxes(lam_inv_t, -1, -2)
        bad = ~np.isfinite(np.hstack((xs, us, spins.reshape(-1, 16)))).all(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise NumericalAbortError(f"non-finite state at sample {i} (s = {float(times[i])!r})")
        return BMTTrajectory(times.copy(), xs, us, spins, *_invariants(us, spins))

    def state_at(self, s: float, h_ref: float | None = None) -> BMTState:
        """Oracle state at time s; ``h_ref`` is unused, as in :meth:`sample`."""
        return self.sample(np.array([s])).state(0)


# ----------------------------------------------------------------------
# Spin diagnostics
# ----------------------------------------------------------------------


def spin_vector(state: BMTState | BMTTrajectory) -> np.ndarray:
    """Polarization 4-vector s^mu = -1/2 eps^{mu nu rho sigma} u_nu S_{rho sigma}
    of a state, or of every record of a trajectory."""
    u_lo = SIGNS * state.u
    return -0.5 * np.einsum("mnrs,...n,...rs->...m", EPS_UPPER, u_lo, state.spin)


def spin_velocity_angle(traj: BMTTrajectory, axis: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped in-plane angle of the spin vector relative to the velocity.

    The gyration plane is spanned by the two spatial axes other than
    ``axis``.  Raises if the motion leaves the plane or the spin vector has
    no in-plane component to track.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be a spatial index 1..3")
    i, j = [k for k in (1, 2, 3) if k != axis]
    u_plane = traj.u[:, [i, j]]
    if np.max(np.abs(traj.u[:, axis])) > 1e-9 * max(1.0, np.max(np.abs(u_plane))):
        raise ValueError("trajectory is not planar: velocity leaves the gyration plane")
    s_plane = spin_vector(traj)[:, [i, j]]
    if np.min(np.hypot(s_plane[:, 0], s_plane[:, 1])) < 1e-12:
        raise ValueError("spin vector has no in-plane component to track")
    phi_v = np.unwrap(np.arctan2(u_plane[:, 1], u_plane[:, 0]))
    phi_s = np.unwrap(np.arctan2(s_plane[:, 1], s_plane[:, 0]))
    return traj.s.copy(), phi_s - phi_v


def anomalous_precession(traj: BMTTrajectory, axis: int = 3) -> float:
    """Mean proper-time rate of the spin-vs-velocity in-plane angle: the slope
    of a linear fit of the unwrapped relative angle against proper time."""
    s, rel = spin_velocity_angle(traj, axis)
    design = np.stack([s - s[0], np.ones_like(s)], axis=1)
    coef, *_ = np.linalg.lstsq(design, rel, rcond=None)
    return float(coef[0])
