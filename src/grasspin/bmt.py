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
evaluates it with one matrix exponential per sample time and serves as the
reference for the fixed-step integrator.

The integrator evaluates F at every RK4 stage only for a field that varies;
a constant field's F_{mu nu} is computed once, when the field is built, and
read at every stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .minkowski import PAIRS  # noqa: F401  (re-exported as grasspin.bmt.PAIRS)
from .minkowski import EPS_UPPER, SIGNS, minkowski_dot, pack_pairs, unpack_pairs
from .super_dynamics import ModelParams, _require_finite, rk4

__all__ = [
    "BMTState",
    "BMTTrajectory",
    "bmt_rhs",
    "integrate_bmt",
    "ConstantFieldOracle",
    "analytic_constant_field",
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
        self.x = np.asarray(self.x, dtype=float).reshape(4)
        self.u = np.asarray(self.u, dtype=float).reshape(4)
        self.spin = np.asarray(self.spin, dtype=float).reshape(4, 4)
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


def _du(f_lo: np.ndarray, u: np.ndarray, par: ModelParams) -> np.ndarray:
    return (par.charge / par.mass) * SIGNS * (f_lo @ u)


def _dspin(f_lo: np.ndarray, u: np.ndarray, spin: np.ndarray, par: ModelParams) -> np.ndarray:
    """Covariant-component spin transport; f_lo and the state at one point."""
    fmix = f_lo * SIGNS                   # F_mu^{ rho}
    t1 = fmix @ spin
    t1 = par.mu_prime * (t1 - t1.T)
    q = u @ fmix                          # q^sigma = F^{rho sigma} u_rho
    p = q @ spin                          # p_mu = q^sigma S_{sigma mu}
    w = p[:, None] * (SIGNS * u)          # p_mu u_nu
    t2 = par.anomaly * (w - w.T)
    return (t1 + t2) / par.mass


def _pack(state: BMTState) -> np.ndarray:
    """One state as the 24-vector (x, u, spin.ravel())."""
    return np.concatenate([state.x, state.u, state.spin.ravel()])


def _split(y: np.ndarray):
    """Views x, u and spin of packed states (..., 24)."""
    return y[..., :4], y[..., 4:8], y[..., 8:].reshape(y.shape[:-1] + (4, 4))


def _rates(y: np.ndarray, fld, par: ModelParams) -> np.ndarray:
    """Rate of one packed state (x, u, spin), packed the same way."""
    x, u, spin = _split(y)
    f_lo = fld._f_const if fld.constant else fld.f_lower_real(x)
    return np.concatenate([u, _du(f_lo, u, par), _dspin(f_lo, u, spin, par).ravel()])


def bmt_rhs(state: BMTState, fld, par: ModelParams):
    """(dx, du, dspin) of the reduced system at a state."""
    return _split(_rates(_pack(state), fld, par))


def integrate_bmt(
    state0: BMTState,
    fld,
    par: ModelParams,
    h: float,
    steps: int,
    record_every: int = 1,
) -> BMTTrajectory:
    """Classical fixed-step RK4 (:func:`~grasspin.super_dynamics.rk4`).

    The state (x, u, S) is packed into one 24-vector.  The records are
    returned as views into one (R, 24) array, together with the invariants
    u.u, max |u.S| and S.S of each recorded state.
    """
    rec_steps, rec = rk4(lambda y, i: _rates(y, fld, par), _pack(state0), h, steps, record_every)
    x, u, spin = _split(rec)
    return BMTTrajectory(state0.s + h * rec_steps, x, u, spin, *_invariants(u, spin))


# ----------------------------------------------------------------------
# Constant-field oracle
# ----------------------------------------------------------------------


class ConstantFieldOracle:
    """Exact solution of the reduced system for a constant F_{mu nu}.

    With A = (e/m) eta F and Lambda(s) = exp(A s), the velocity is
    u(s) = Lambda u(0), and x(s) - x(0) = int_0^s Lambda u(0) is the top-right
    block of exp([[A, 1], [0, 0]] s) applied to u(0).  Lambda is a Lorentz
    map that commutes with A, so in the co-rotating frame
    S~ = Lambda^T S Lambda the spin law has a constant generator G: the
    transport ``_dspin`` at (F, u(0)) with the charge set to zero and mu'
    replaced by mu' - e.  Hence

        S(s) = L unpack(exp(G s) pack(S(0))) L^T,   L = Lambda^{-T} = eta Lambda eta.

    One matrix exponential of the 14x14 block-diagonal generator gives all
    three at each sample time.  ``refine`` is accepted for call
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
        co_rotating = ModelParams(par.mass, 0.0, par.anomaly)
        spin_gen = np.stack(
            [pack_pairs(_dspin(self.f_lo, state0.u, unpack_pairs(e), co_rotating))
             for e in np.eye(6)],
            axis=1,
        )
        self._gen = np.zeros((14, 14))
        self._gen[:4, :4] = (par.charge / par.mass) * (SIGNS[:, None] * self.f_lo)
        self._gen[:4, 4:8] = np.eye(4)
        self._gen[8:, 8:] = spin_gen

    def sample(self, times: np.ndarray, h_ref: float | None = None) -> BMTTrajectory:
        """Oracle states at increasing times >= state0.s.

        ``h_ref`` is accepted for call compatibility and unused: the closed
        form has no step size.
        """
        # Imported here, its only use: scipy.linalg takes longer to import
        # than the rest of the package.
        import scipy.linalg

        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("sample times must be a non-empty 1-D array")
        if not np.all(np.isfinite(times)):
            raise ValueError("sample times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if times[0] < self.state0.s - 1e-15:
            raise ValueError("sample times must not precede the initial state")
        prop = scipy.linalg.expm((times - self.state0.s)[:, None, None] * self._gen)
        lam = prop[:, :4, :4]
        xs = self.state0.x + prop[:, :4, 4:8] @ self.state0.u
        us = lam @ self.state0.u
        co_spin = unpack_pairs(prop[:, 8:, 8:] @ pack_pairs(self.state0.spin))
        lam_inv_t = SIGNS[:, None] * lam * SIGNS
        spins = lam_inv_t @ co_spin @ np.swapaxes(lam_inv_t, -1, -2)
        return BMTTrajectory(times.copy(), xs, us, spins, *_invariants(us, spins))

    def state_at(self, s: float, h_ref: float | None = None) -> BMTState:
        """Oracle state at time s; ``h_ref`` is unused, as in :meth:`sample`."""
        return self.sample(np.array([s])).state(0)


def analytic_constant_field(
    state0: BMTState, f_lower: np.ndarray, par: ModelParams, s: float
) -> BMTState:
    """Exact reference state for a constant field at time s."""
    return ConstantFieldOracle(state0, f_lower, par).state_at(s)


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
