"""Exact real polynomials in the four spacetime coordinates.

Potentials and field components are polynomials with real coefficients, so
every derivative is again an exact polynomial and evaluation at a
Grassmann-even point reduces to a finite Taylor expansion about the body:
the nilpotent part has degree >= 2, hence soul monomials of combined order
above N/2 vanish identically.

Every monomial the Taylor program reads at a real point, for its slots and
for ``fields``' F through ``value_rows``, is formed by one kernel,
:func:`_gathered`, as index gathers from (x0, x1, x2, x3, 1), with no
``**``.  :meth:`Polynomial.eval` keeps the power form, as a reference.
"""

from __future__ import annotations

import functools
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
    def _of(cls, terms: dict[Exponents, float]) -> "Polynomial":
        """The polynomial of ``terms`` as the operations below form them:
        exponent keys already whole 4-tuples, each once, and float
        coefficients, checked finite here."""
        for exps, coef in terms.items():
            if not math.isfinite(coef):
                raise ValueError(f"coefficient of {exps} must be finite, got {coef}")
        poly = cls.__new__(cls)
        poly.terms = {e: c for e, c in terms.items() if c != 0.0}
        return poly

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
        return Polynomial._of(out)

    def scale(self, factor: float) -> "Polynomial":
        factor = float(factor)
        return Polynomial._of({e: c * factor for e, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial._of(out)

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

    def __repr__(self) -> str:
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


@functools.lru_cache(maxsize=None)
def _alpha_tables(top: int):
    """Multi-indices alpha up to order ``top``, orders ascending and
    _multi_indices order within one, so that the tables of a lower ``top``
    are prefixes of these: the alphas (n_alphas, 4) and their orders; per
    order, the index of its first alpha, and for each of its alphas the place
    of the parent in the order below and the appended axis; and the index of
    alpha + e_k for each alpha and axis k (-1 above ``top``)."""
    index: dict[Exponents, int] = {}
    orders = []
    for order in range(top + 1):
        infos = _multi_indices(order)
        first, below = len(index), orders[-1][0] if orders else 0
        orders.append((
            first,
            np.array([index[p] - below if p else 0 for _, p, _ in infos], dtype=np.int64),
            np.array([ax for _, _, ax in infos], dtype=np.int64),
        ))
        index.update((a, first + i) for i, (a, _, _) in enumerate(infos))
    alphas = np.array(list(index), dtype=np.int64).reshape(-1, 4)
    raise_ = [[index.get(a[:k] + (a[k] + 1,) + a[k + 1:], -1) for k in range(4)] for a in index]
    return alphas, alphas.sum(axis=1), orders, np.array(raise_, dtype=np.int64).reshape(-1, 4)


# No algebra reads a Taylor order above _TOP.
_TOP = MAX_GENERATORS // 2


def _n_alphas(order: int) -> int:
    """Number of multi-indices of order at most ``order``."""
    return math.comb(order + 4, 4)


@functools.lru_cache(maxsize=None)
def _binomials(max_n: int, max_k: int) -> np.ndarray:
    """C(n, k) as floats for n <= max_n, k <= max_k; zero where k > n."""
    return np.array([[math.comb(n, k) for k in range(max_k + 1)] for n in range(max_n + 1)],
                    dtype=float)


def _gather_index(exps: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gathers of the monomials x^e, e the rows of ``exps`` (rows, 4),
    from a padded point (x0, x1, x2, x3, 1): one index row per degree, whose
    entry r names the next variable of monomial r, variables ascending and
    each repeated by its exponent, and 4, the padding 1, past its degree."""
    depth = np.arange(max(1, int(exps.sum(axis=1).max(initial=0))))
    # the variable at depth d is the count of leading variables whose
    # exponents sum to at most d
    return tuple((depth[:, None, None] >= exps.cumsum(axis=1)).sum(axis=-1))


def _gathered(padded: np.ndarray, index: tuple[np.ndarray, ...]) -> np.ndarray:
    """The monomials of :func:`_gather_index` ``index`` at padded points
    (..., 5) -> (..., rows): one ``take`` per degree, multiplied in from the
    left.  A power x^k is the product x x ... x, correctly rounded at each
    multiplication, and x^0 is the padding 1."""
    mono = padded.take(index[0], axis=-1)
    for var in index[1:]:
        mono *= padded.take(var, axis=-1)
    return mono


def _padded(points: np.ndarray) -> np.ndarray:
    """Real points (..., 4) as (x0, x1, x2, x3, 1), the input of :func:`_gathered`."""
    points = np.asarray(points, dtype=float)
    return np.concatenate((points, np.ones(points.shape[:-1] + (1,))), axis=-1)


def _taylor_block(polys: list[Polynomial], top: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial exponents (rows, 4) and gather (rows, n_alphas(top) * len(polys))
    of the Taylor slots of ``polys`` up to order ``top``.

    Each written term c x^e puts weight c prod C(e_i, alpha_i) on x^(e - alpha)
    in slot (alpha, p) for every alpha <= e: one row per (alpha, p, term),
    ordered by alpha (orders ascending), then p, then term.
    """
    n = len(polys)
    comp = np.array([p for p, poly in enumerate(polys) for _ in poly.terms], dtype=np.int64)
    exps = np.array([e for poly in polys for e in poly.terms], dtype=np.int64).reshape(-1, 4)
    coefs = np.array([c for poly in polys for c in poly.terms.values()], dtype=float)
    alphas = _alpha_tables(top)[0]
    a_idx, t_idx = np.nonzero((alphas[:, None, :] <= exps[None, :, :]).all(axis=-1))
    e, alpha = exps[t_idx], alphas[a_idx]
    table = _binomials(int(e.max(initial=0)), top)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = coefs[t_idx] * table[e, alpha].prod(axis=-1)
    if not np.isfinite(weights).all():
        raise ValueError("a Taylor weight overflows")
    gather = np.zeros((len(t_idx), n * len(alphas)))
    gather[np.arange(len(t_idx)), n * a_idx + comp[t_idx]] = weights
    return e - alpha, gather


class PolyVectorEvaluator:
    """Taylor program of a tuple of polynomials, read in one pass.

    Components are the four partial derivatives d_k of each polynomial of
    ``polys`` when ``grad`` is set (k-major), then ``polys``, then the
    polynomials ``extra``.  Slot (alpha, j) holds the Taylor coefficient
    d^alpha (component j) / alpha!, so one pass over the program gives every
    component's value and every Taylor coefficient that an evaluation at a
    Grassmann-even point needs.

    ``polys`` and ``extra`` are two blocks of monomial rows, ``polys``'s
    first (see :func:`_taylor_block`), each with its own ``gather``.  The
    derivatives are read off the slots of ``polys`` by a fixed integer map,
    d^alpha (d_k p) / alpha! = (alpha_k + 1) d^(alpha + e_k) p / (alpha + e_k)!,
    so ``polys``'s block runs one order higher.  Orders stop at
    ``MAX_GENERATORS // 2``: soul monomials of combined order above N/2
    vanish, so no algebra reads a higher one.
    """

    def __init__(self, polys: Sequence[Polynomial], grad: bool = False,
                 extra: Sequence[Polynomial] = ()):
        self.polys, self.extra = list(polys), list(extra)
        n_polys, n_extra = len(self.polys), len(self.extra)
        n_grad = 4 * n_polys if grad else 0
        n = self.n_components = n_grad + n_polys + n_extra
        top = min(max((p.degree for p in self.polys + self.extra), default=0), _TOP)
        self.n_orders = top + 1
        self.n_slots = n * _n_alphas(top)

        exps, self.gather = _taylor_block(self.polys, top + grad)
        extra_exps, self.extra_gather = _taylor_block(self.extra, top)
        # the gathers of every monomial row, ``polys``'s block first, of that
        # block, and of its leading rows (alpha = 0, one per written term),
        # which the values of ``polys`` read
        self._split = len(exps)
        self._all_gathers = _gather_index(np.vstack((exps, extra_exps)))
        self._polys_gathers = _gather_index(exps)
        self._value_gathers = _gather_index(exps[: sum(len(p.terms) for p in self.polys)])

        # slot (alpha, j) of component j = _fact * the _index'th entry of the
        # blocks' slot values, ``polys``'s block first
        alphas, orders_of, self._orders, raise_ = _alpha_tables(top + 1)
        alpha = np.arange(_n_alphas(top))
        index = np.empty((len(alpha), n), dtype=np.int64)
        fact = np.ones((len(alpha), n))
        for k in range(4 if grad else 0):
            cols = slice(k * n_polys, (k + 1) * n_polys)
            index[:, cols] = n_polys * raise_[alpha, k][:, None] + np.arange(n_polys)
            fact[:, cols] = alphas[alpha, k][:, None] + 1.0
        index[:, n_grad : n - n_extra] = n_polys * alpha[:, None] + np.arange(n_polys)
        index[:, n - n_extra :] = self.gather.shape[1] + n_extra * alpha[:, None] + np.arange(n_extra)
        # per component: the highest order with a nonzero coefficient
        used = np.concatenate((self.gather.any(axis=0), self.extra_gather.any(axis=0)))[index]
        top_j = np.where(used, orders_of[alpha, None], 0).max(axis=0, initial=0)
        fact[orders_of[alpha, None] > top_j] = 1.0   # those slots are zero
        self._index, self._fact, self._top = index, fact, top_j.tolist()
        self._first_extra = n - n_extra
        self._plans = {}

    def value_rows(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The values of ``polys`` alone at real points: the gathers of the
        monomial rows they read, which lead this program's rows, cut to their
        own highest degree, and their value columns (rows, len(polys)):
        ``_gathered(_padded(points), gathers) @ columns`` gives the values."""
        rows = len(self._value_gathers[0])
        return self._value_gathers, self.gather[:rows, : len(self.polys)]

    def _plan(self, comps: slice, souls: bool, max_n: int) -> tuple:
        """How :meth:`eval_even` reads the components ``comps`` (a slice of
        step 1) in an algebra of ``max_n`` generators, with or without souls:
        whether it reads the ``extra`` block, its slot table (``_index`` and
        ``_fact``, or None where every factor is 1, up to the highest order
        it reads) and, per order from 1, the (order, first alpha, end alpha,
        lo, hi) of the run of components lo:hi that reach it."""
        key = (comps.start, comps.stop, souls, max_n)
        if key not in self._plans:
            tops = self._top[comps]
            max_order = min(max(tops, default=0), max_n // 2) if souls else 0
            n_a = _n_alphas(max_order)
            fact = self._fact[:n_a, comps]
            runs = []
            for order in range(1, max_order + 1):
                live = [j for j, top in enumerate(tops) if top >= order]
                first = self._orders[order][0]
                runs.append((order, first, _n_alphas(order), live[0], live[-1] + 1))
            selected = range(self.n_components)[comps]
            extra = bool(selected) and selected[-1] >= self._first_extra
            self._plans[key] = (extra, self._index[:n_a, comps],
                                None if (fact == 1.0).all() else fact, runs)
        return self._plans[key]

    def _slots(self, points: np.ndarray, extra: bool, index: np.ndarray, fact) -> np.ndarray:
        """The slot table ``blocks' slot values[index] * fact`` at real points
        (..., 4) -> (..., n_alphas, n); ``extra`` says whether it reads the
        ``extra`` block."""
        split = self._split
        mono = _gathered(_padded(points), self._all_gathers if extra else self._polys_gathers)
        values = mono[..., :split] @ self.gather
        if extra:
            values = np.concatenate((values, mono[..., split:] @ self.extra_gather), axis=-1)
        table = values.take(index, axis=-1)
        return table if fact is None else table * fact

    def eval_real(self, points: np.ndarray) -> np.ndarray:
        """Component values at real points (..., 4) -> (..., n_components)."""
        extra, index, fact, _ = self._plan(slice(0, self.n_components), False, 0)
        return self._slots(points, extra, index, fact)[..., 0, :]

    def eval_even(
        self,
        bodies: np.ndarray,
        souls: np.ndarray | None,
        alg: GrassmannAlgebra,
        comps: slice = slice(None),
    ) -> np.ndarray:
        """Values of the components ``comps`` at Grassmann-even points, as
        coefficient arrays.

        ``bodies`` has shape (..., 4); ``souls`` is None for purely real
        points or the matching (..., 4, dim) nilpotent parts.  Returns
        (..., n, dim) for the n components that ``comps`` selects, from one
        pass over the program.  Each soul monomial of order 2 and above is
        one Grassmann product, formed once for all of them.
        """
        extra, index, fact, runs = self._plan(comps, souls is not None, alg.n)
        slots = self._slots(bodies, extra, index, fact)
        out = np.zeros(slots.shape[:-2] + (slots.shape[-1], alg.dim))
        out[..., 0] = slots[..., 0, :]

        mon = souls
        for order, first, stop, lo, hi in runs:
            if order > 1:
                _, parent, axis = self._orders[order]
                mon = alg.mul(mon.take(parent, axis=-2), souls.take(axis, axis=-2), EVEN, EVEN)
            vals = slots[..., first:stop, lo:hi]
            if vals.any():
                out[..., lo:hi, :] += np.einsum("...ap,...ad->...pd", vals, mon)
        return out
