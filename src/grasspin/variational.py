"""Discrete action and stationarity checks for Grassmann-valued paths.

The action of a path is

    S = integral ds [ (m/2) v^mu v_mu - (1/4) xi^mu dxi_mu/ds
                      + e A_mu v^mu + (mu'/2m) F^{mu nu} S_{mu nu}
                      + lam xi_mu v^mu ]

discretized at interval midpoints: derivatives by central differences across
each interval, the Lagrangian at midpoint values, summed times the step.
The multiplier lam is recomputed pointwise from the consistency condition
(it is determined on-shell, not varied independently).

Stationarity is probed directionally and exactly: an odd direction adds a
real profile times a fresh generator theta_{k+1} to xi, an even one adds it
times eps = theta_{k+1} theta_{k+2} (even, eps^2 = 0: a dual number) to x.
The varied action is S + fresh * DS, so DS is read off as the coefficient
block of the fresh monomial, with no step size.

Each public function restricts its path once, to the k generators that x and
xi load, and maps Grassmann-valued results back into ``path.alg``.  The odd
probe works in algebra(k + 1).  The even probe works in algebra(k)[eps]/(eps^2),
``dual_algebra(k)``, with 2**(k+1) coefficients: the part of algebra(k + 2)
that eps reaches, which is all the probe reads.  The odd probe needs
k + 1 <= MAX_GENERATORS and the even probe k + 2 <= MAX_GENERATORS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grassmann import (
    EVEN, MAX_GENERATORS, ODD, GrassmannAlgebra, GrassmannNumber, algebra, dual_algebra,
)
from .super_dynamics import (
    ModelParams, SuperTrajectory, _cut, _emul, _gdot, _multiplier, _require_finite, _rhs,
    _split_even,
)

__all__ = [
    "DiscretePath",
    "PathVariation",
    "ELResidual",
    "action",
    "stationarity_residual",
    "even_directional_quotient",
    "euler_lagrange_residual",
]

_CHUNK = 256
MIN_INTERVALS = 4   # the action's difference stencils need this many grid intervals


@dataclass
class DiscretePath:
    """Uniform-grid path: even x and odd xi at nodes s_i (endpoints fixed).

    Raises ValueError naming s, x or xi when one is not finite, or when x or
    xi is not one (4, dim) row per node.
    """

    alg: GrassmannAlgebra
    s: np.ndarray    # (M+1,)
    x: np.ndarray    # (M+1, 4, dim)
    xi: np.ndarray   # (M+1, 4, dim)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        _require_finite(s=self.s, x=self.x, xi=self.xi)
        shape = (self.s.size, 4, self.alg.dim)
        for name, arr in (("x", self.x), ("xi", self.xi)):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        hs = np.diff(self.s)
        if self.s.size < 2 or np.any(hs <= 0):
            raise ValueError("path grid must be strictly increasing")
        if np.max(np.abs(hs - hs[0])) > 1e-9 * hs[0]:
            raise ValueError("path grid must be uniform")

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])

    @classmethod
    def from_trajectory(cls, traj: SuperTrajectory) -> "DiscretePath":
        strides = np.diff(traj.steps_recorded)
        if traj.s.size < 2 or np.any(strides != strides[0]):
            raise ValueError("trajectory must be recorded at a uniform stride")
        return cls(alg=traj.alg, s=traj.s.copy(), x=traj.x.copy(), xi=traj.xi.copy())


@dataclass
class PathVariation:
    """Real node profiles, one row per path node; endpoints must vanish.

    ``dx`` perturbs the even coordinates directly; ``dxi`` multiplies a
    fresh odd generator.  Exactly one of the two is set, and it must be
    finite.
    """

    dx: np.ndarray | None = None
    dxi: np.ndarray | None = None

    def __post_init__(self):
        if (self.dx is None) == (self.dxi is None):
            raise ValueError("set exactly one of dx, dxi")
        name = "dx" if self.dx is not None else "dxi"
        arr = np.asarray(getattr(self, name), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"variation profile {name} must have shape (M+1, 4)")
        _require_finite(**{name: arr})
        if np.any(arr[0] != 0.0) or np.any(arr[-1] != 0.0):
            raise ValueError("variation must vanish at the path endpoints")
        setattr(self, name, arr)


def _profile(path: DiscretePath, variation: PathVariation) -> np.ndarray:
    """The variation's profile, checked to have one row per node of the path."""
    name = "dx" if variation.dx is not None else "dxi"
    prof = getattr(variation, name)
    if prof.shape[0] != path.s.size:
        raise ValueError(f"{name} has {prof.shape[0]} rows, the path has {path.s.size} nodes")
    return prof


@dataclass
class ELResidual:
    """Max-abs coefficient of the equation-of-motion defect per interior node."""

    s: np.ndarray
    x_residual: np.ndarray
    xi_residual: np.ndarray


def _action_coeffs(alg, fld, par, s, x, xi) -> np.ndarray:
    if s.size - 1 < MIN_INTERVALS:
        raise ValueError(f"path grid too coarse: need at least {MIN_INTERVALS} intervals")
    if not hasattr(fld, "potential_coeffs"):
        raise TypeError("action needs a potential-derived field configuration")
    h = float(s[1] - s[0])
    m = par.mass
    total = np.zeros(alg.dim)
    n_mid = s.size - 1
    for lo in range(0, n_mid, _CHUNK):
        hi = min(lo + _CHUNK, n_mid)
        xm = 0.5 * (x[lo:hi] + x[lo + 1 : hi + 1])
        xim = 0.5 * (xi[lo:hi] + xi[lo + 1 : hi + 1])
        vm = (x[lo + 1 : hi + 1] - x[lo:hi]) / h
        xidot = (xi[lo + 1 : hi + 1] - xi[lo:hi]) / h

        f, pot = fld.f_and_potential_coeffs(*_split_even(xm), alg)
        f = _cut(f)

        vv, _, _, lam = _multiplier(alg, f, vm, xim, par)
        kin = 0.5 * m * vv
        spin_kin = -0.25 * _gdot(alg, xim, xidot, ODD, ODD)
        coupling = par.charge * alg.mul(pot, vm, EVEN, EVEN).sum(axis=-2)
        pair = alg.mul(xim[..., :, None, :], xim[..., None, :, :], ODD, ODD)
        mag = (par.mu_prime / (4.0 * m)) * _emul(alg, f, pair, EVEN).sum(axis=(-3, -2))
        con = _gdot(alg, xim, vm, ODD, EVEN)
        l_mid = kin + spin_kin + coupling + mag + alg.mul(lam, con, ODD, ODD)
        total += h * l_mid.sum(axis=0)
    return total


def _lift(alg: GrassmannAlgebra, masks: np.ndarray, coeffs: np.ndarray) -> GrassmannNumber:
    """A result of the restricted path as a number of the path's algebra."""
    out = np.zeros(alg.dim)
    out[masks] = coeffs
    return GrassmannNumber(alg, out)


def _first_variation(path: DiscretePath, fld, par, variation: PathVariation):
    """The masks of the restricted path in ``path.alg``, and DS along
    ``variation`` over them: the block of the action on the fresh monomial.

    The fresh monomial is theta_{k+1} of algebra(k + 1) for an odd
    direction, and eps of ``dual_algebra(k)``, algebra(k)[eps]/(eps^2) with
    2**(k+1) coefficients, for an even one.  Either way it sits at index
    sub.dim, and its block is every index from there."""
    prof = _profile(path, variation)
    sub, masks, (x, xi) = path.alg.subalgebra(path.x, path.xi)
    even = variation.dx is not None
    n_fresh = 2 if even else 1
    if sub.n + n_fresh > MAX_GENERATORS:
        raise ValueError(
            f"{'even' if even else 'odd'} stationarity probe needs at most "
            f"{MAX_GENERATORS - n_fresh} loaded generators, the path loads {sub.n}"
        )
    ext = dual_algebra(sub.n) if even else algebra(sub.n + 1)
    x, xi = sub.embed(x, ext), sub.embed(xi, ext)
    (x if even else xi)[..., sub.dim] += prof
    return masks, _action_coeffs(ext, fld, par, path.s, x, xi)[sub.dim :]


def action(path: DiscretePath, fld, par: ModelParams) -> GrassmannNumber:
    """Midpoint-discretized action of the path (an even Grassmann number)."""
    sub, masks, (x, xi) = path.alg.subalgebra(path.x, path.xi)
    return _lift(path.alg, masks, _action_coeffs(sub, fld, par, path.s, x, xi))


def even_directional_quotient(
    path: DiscretePath, fld, par: ModelParams, variation: PathVariation
) -> GrassmannNumber:
    """Exact first variation of the action along an even direction, the
    h -> 0 limit of the two-sided difference quotient, in ``path.alg``:
    the eps block of one action in algebra(k)[eps]/(eps^2), with 2**(k+1)
    coefficients.

    Needs k + 2 <= MAX_GENERATORS.  The name is kept as a span target of
    ``bench/spans.py``."""
    if variation.dx is None:
        raise ValueError("even quotient needs an x-variation")
    masks, coeffs = _first_variation(path, fld, par, variation)
    return _lift(path.alg, masks, coeffs)


def stationarity_residual(
    path: DiscretePath, fld, par: ModelParams, variation: PathVariation
) -> float:
    """Largest |coeff| of the first variation DS along ``variation``, exact:
    the theta_{k+1} block of the action in algebra(k + 1) for an odd
    direction, the eps block of the action in algebra(k)[eps]/(eps^2), eps
    = theta_{k+1} theta_{k+2} with 2**(k+1) coefficients, for an even one.
    Raises ValueError before any action is formed when k + 1 (odd) or k + 2
    (even) generators exceed MAX_GENERATORS."""
    _, coeffs = _first_variation(path, fld, par, variation)
    return float(np.max(np.abs(coeffs)))


def euler_lagrange_residual(path: DiscretePath, fld, par: ModelParams) -> ELResidual:
    """Finite-difference defect of the equations of motion at interior nodes.

    Central second differences for the acceleration, central first
    differences for the velocities, analytic right-hand side at the node;
    large values flag a non-solution path (diagnostic, never an error).
    """
    h = path.h
    alg, _, (x, xi) = path.alg.subalgebra(path.x, path.xi)
    n_int = path.s.size - 2
    res_x = np.empty(n_int)
    res_xi = np.empty(n_int)
    for lo in range(0, n_int, _CHUNK):
        hi = min(lo + _CHUNK, n_int)
        sl = slice(lo + 1, hi + 1)
        xdd = (x[lo + 2 : hi + 2] - 2.0 * x[sl] + x[lo:hi]) / h**2
        v_c = (x[lo + 2 : hi + 2] - x[lo:hi]) / (2.0 * h)
        xid = (xi[lo + 2 : hi + 2] - xi[lo:hi]) / (2.0 * h)
        dv, dxi = _rhs(alg, fld, par, x[sl], v_c, xi[sl])[:2]
        res_x[lo:hi] = par.mass * np.max(np.abs(xdd - dv), axis=(-2, -1))
        res_xi[lo:hi] = np.max(np.abs(xid - dxi), axis=(-2, -1))
    return ELResidual(s=path.s[1:-1].copy(), x_residual=res_x, xi_residual=res_xi)
