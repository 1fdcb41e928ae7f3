"""Exact real polynomials in the four spacetime coordinates.

Potentials and field components are polynomials with real coefficients, so
every derivative is again an exact polynomial and evaluation at a
Grassmann-even point reduces to a finite Taylor expansion about the body:
the nilpotent part has degree >= 2, hence soul monomials of combined order
above N/2 vanish identically.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .grassmann import EVEN, MAX_GENERATORS, GrassmannAlgebra

__all__ = ["Polynomial", "PolyVectorEvaluator"]

Exponents = tuple[int, int, int, int]


def _exponents(exps: Sequence[int]) -> Exponents:
    """``exps`` as four whole non-negative ints; ValueError otherwise."""
    try:
        key = tuple(int(e) for e in exps)
    except (TypeError, ValueError, OverflowError):
        key = ()
    if len(key) != 4 or any(k < 0 or k != e for k, e in zip(key, exps)):
        raise ValueError(f"bad exponent tuple {exps!r}")
    return key


class Polynomial:
    """Polynomial in (x0, x1, x2, x3) as {exponent 4-tuple: finite coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exponents, float] | None = None):
        clean: dict[Exponents, float] = {}
        for exps, coef in (terms or {}).items():
            exps = _exponents(exps)
            coef = float(coef)
            if not math.isfinite(coef):
                raise ValueError(f"coefficient of {exps} must be finite, got {coef}")
            if coef != 0.0:
                clean[exps] = clean.get(exps, 0.0) + coef
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls({(0, 0, 0, 0): value})

    @classmethod
    def coordinate(cls, axis: int) -> "Polynomial":
        exps = [0, 0, 0, 0]
        exps[axis] = 1
        return cls({tuple(exps): 1.0})

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[Sequence[int], float]]) -> "Polynomial":
        terms: dict[Exponents, float] = {}
        for exps, coef in entries:
            key = _exponents(exps)
            terms[key] = terms.get(key, 0.0) + float(coef)
        return cls(terms)

    @property
    def degree(self) -> int:
        """Total degree; zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def diff(self, axis: int) -> "Polynomial":
        out: dict[Exponents, float] = {}
        for exps, coef in self.terms.items():
            k = exps[axis]
            if k == 0:
                continue
            new = list(exps)
            new[axis] = k - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + coef * k
        return Polynomial(out)

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial({e: c * factor for e, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at real points of shape (..., 4)."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        for exps, coef in self.terms.items():
            out = out + coef * np.prod(points ** np.asarray(exps), axis=-1)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        if not self.terms:
            return "Polynomial(0)"
        bits = [
            f"{c:g}·x0^{e[0]}x1^{e[1]}x2^{e[2]}x3^{e[3]}" for e, c in self.terms.items()
        ]
        return "Polynomial(" + " + ".join(bits) + ")"


def _multi_indices(order: int) -> list[tuple[Exponents, Exponents | None, int]]:
    """(alpha, parent alpha, appended axis) for all |alpha| == order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(4), order):
        alpha = [0, 0, 0, 0]
        for ax in combo:
            alpha[ax] += 1
        if order == 0:
            out.append((tuple(alpha), None, -1))
        else:
            parent = list(alpha)
            parent[combo[-1]] -= 1
            out.append((tuple(alpha), tuple(parent), combo[-1]))
    return out


class PolyVectorEvaluator:
    """Batch evaluator for a fixed tuple of polynomials.

    Flattens every (multi-index alpha, component) Taylor slot d^alpha p /
    alpha! into one vectorized monomial program, so a single call yields all
    values needed for the Taylor expansion at a Grassmann-even point.  Each
    written term c x^e puts weight c prod C(e_i, alpha_i) on x^(e - alpha) in
    slot (alpha, p) for every alpha <= e.  Orders stop at
    ``MAX_GENERATORS // 2``: soul monomials of combined order above N/2
    vanish, so no algebra reads a higher one.
    """

    def __init__(self, polys: Sequence[Polynomial]):
        self.polys = list(polys)
        self.n_polys = len(self.polys)
        self.max_degree = max((p.degree for p in self.polys), default=0)

        # Slots run over orders ascending, alpha in _multi_indices order,
        # then component; rows over slots, then each component's term order.
        self._orders: list[dict] = []
        exps, cols, weights = [], [], []
        slot, prev_pos = 0, {}
        for order in range(min(self.max_degree, MAX_GENERATORS // 2) + 1):
            infos = _multi_indices(order)
            self._orders.append({
                "alphas": [a for a, _, _ in infos],
                "parent": np.array([prev_pos.get(p, 0) for _, p, _ in infos], dtype=np.int64),
                "axis": np.array([ax for _, _, ax in infos], dtype=np.int64),
                "slot0": slot,
            })
            prev_pos = {a: i for i, (a, _, _) in enumerate(infos)}
            for alpha, _, _ in infos:
                for poly in self.polys:
                    for e, c in poly.terms.items():
                        if any(k < a for k, a in zip(e, alpha)):
                            continue
                        weight = c * math.prod(math.comb(k, a) for k, a in zip(e, alpha))
                        if not math.isfinite(weight):
                            raise ValueError(f"Taylor weight of {e} at {alpha} overflows")
                        exps.append([k - a for k, a in zip(e, alpha)])
                        cols.append(slot)
                        weights.append(weight)
                    slot += 1

        self.n_orders = len(self._orders)
        self.n_slots = slot
        self._exps = np.array(exps, dtype=np.int64).reshape(-1, 4)
        self.gather = np.zeros((len(cols), self.n_slots))
        self.gather[np.arange(len(cols)), cols] = weights

    def monomials(self, points: np.ndarray) -> np.ndarray:
        """The program's monomials at real points (..., 4) -> (..., n_monomials).

        Slot values are ``monomials(points) @ gather``, where ``gather``
        (n_monomials, n_slots) holds each monomial's weight in each slot; its
        first ``n_polys`` columns give the component values.
        """
        points = np.asarray(points, dtype=float)
        return (points[..., None, :] ** self._exps).prod(axis=-1)

    def _eval_slots(self, points: np.ndarray) -> np.ndarray:
        """All slot values at real points (..., 4) -> (..., n_slots)."""
        return self.monomials(points) @ self.gather

    def eval_real(self, points: np.ndarray) -> np.ndarray:
        """Component values at real points (..., 4) -> (..., n_polys)."""
        return self._eval_slots(points)[..., : self.n_polys]

    def eval_even(
        self,
        bodies: np.ndarray,
        souls: np.ndarray | None,
        alg: GrassmannAlgebra,
    ) -> np.ndarray:
        """Values at Grassmann-even points as coefficient arrays.

        ``bodies`` has shape (..., 4); ``souls`` is None for purely real
        points or the matching (..., 4, dim) nilpotent parts.  Returns
        (..., n_polys, dim).
        """
        bodies = np.asarray(bodies, dtype=float)
        batch = bodies.shape[:-1]
        out = np.zeros(batch + (self.n_polys, alg.dim))
        slots = self._eval_slots(bodies)
        out[..., 0] = slots[..., : self.n_polys]
        if souls is None or not souls.any():
            return out

        max_order = min(self.n_orders - 1, alg.n // 2)
        mon_prev = None
        for order in range(1, max_order + 1):
            g = self._orders[order]
            n_alphas = len(g["alphas"])
            lo = g["slot0"]
            vals = slots[..., lo : lo + n_alphas * self.n_polys].reshape(
                batch + (n_alphas, self.n_polys)
            )
            if order == 1:
                mon = souls
            else:
                mon = alg.mul(
                    mon_prev.take(g["parent"], axis=-2), souls.take(g["axis"], axis=-2), EVEN, EVEN
                )
            if vals.any():
                out += np.einsum("...ap,...ad->...pd", vals, mon)
            mon_prev = mon
        return out
