"""Exact arithmetic in a real Grassmann (exterior) algebra with N anticommuting
generators.

An element is stored as a dense vector of 2**N real coefficients, one per
subset of generators.  Subsets are encoded as N-bit masks with bit ``i`` set
when generator ``theta_{i+1}`` occurs; the monomial is the product of the
generators in ascending index order.  The product of two basis monomials is

    theta_S * theta_T = sign(S, T) * theta_{S | T}     if S & T == 0
                      = 0                              otherwise,

where sign(S, T) is the parity of the permutation that merges the two
ascending index lists.

There is one product kernel.  For N <= 6 a table lists the 3**N disjoint
pairs (S, T), and the product is one gather and one signed scatter.  The
gather is ``take`` along the last axis: at these sizes it costs a third
to a half of what ``a[..., rows]`` costs per call, and it returns C order
whatever the operand's layout, so the scatter's matmul sums in the same
order for every caller.  (The rounding still depends on the batch: BLAS
multiplies one row by a matrix-vector product and several by a matrix
product.)  Above the table, the product splits off the top factor t,
a = a0 + a1 t, and reduces to three products of the halves, so every N
ends in a table.  A caller whose data loads few generators restricts to
them once, with ``subalgebra``, and multiplies there.

``dual_algebra(k)`` is algebra(k)[eps]/(eps^2), with eps = theta_{k+1}
theta_{k+2}: even, of degree 2, and squaring to zero.  An element
a0 + eps a1 keeps its 2**(k+1) coefficients as [a0 | a1], and a product is
(a0 b0, a0 b1 + a1 b0): the part of an algebra(k + 2) product that holds
no generator above theta_k except through eps.  For k <= 6 its table is
read off algebra(k)'s, 3**(k+1) rows in place of 3**(k+2); above, its top
factor is eps and its halves multiply in algebra(k).

A product may name the parity of each operand: ``EVEN``, ``ODD``, or None
for either (the default).  With a table, a hinted product uses a typed table,
the rows of the full table whose masks have the hinted parities, in the full
table's order: for two known parities about a quarter of the pairs.  The
rows dropped multiply coefficients that must be zero, so a true hint gives
the same product up to summation order, and a wrong hint silently drops
terms.  Nothing checks a hint at run time; the tests audit every hint the
dynamics passes.

Coefficients are double precision; all operations are plain numpy arithmetic
and safe to share between threads.  An algebra changes after construction
only by caching a typed table on its first use; two threads that build the
same table store equal copies.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "COEFF_ATOL",
    "EVEN",
    "ODD",
    "PRUNE_TOL",
    "AlgebraMismatchError",
    "NotInvertibleError",
    "ZeroLowestTermError",
    "Parity",
    "GrassmannAlgebra",
    "GrassmannNumber",
    "algebra",
    "dual_algebra",
]

# Per-coefficient absolute tolerance for equality tests.
COEFF_ATOL = 1e-12
# Coefficients at or below this magnitude are ignored when locating the
# lowest-degree term or classifying parity (roundoff residue, not content).
PRUNE_TOL = 1e-14

# Largest N with a multiplication table (3**N pairs), and largest base of a
# dual algebra with one; larger algebras reach it by splitting off their top
# factor.  Every shipped config and benchmark workload multiplies at N <= 6.
_MAX_TABLE_N = 6

MAX_GENERATORS = 16

# Operand parity hints for GrassmannAlgebra.mul; None means either.  Plain
# ints, not Parity members, since a product hashes its hints on every call.
EVEN = 0
ODD = 1


class AlgebraMismatchError(ValueError):
    """Operands belong to algebras with different generator counts."""


class NotInvertibleError(ValueError):
    """Element has no inverse (zero body or odd/mixed parity)."""


class ZeroLowestTermError(ValueError):
    """The zero element has no lowest-degree term."""


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"
    ZERO = "zero"


def _popcount(x: np.ndarray) -> np.ndarray:
    # np.bitwise_count requires numpy >= 2.0; keep a small fallback.
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    v = x.copy()
    out = np.zeros_like(v)
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


class GrassmannAlgebra:
    """A Grassmann algebra with a fixed number of generators.

    Holds the precomputed multiplication table and exposes batched kernels
    operating on raw coefficient arrays of shape ``(..., 2**n)``.  User-facing
    scalar arithmetic goes through :class:`GrassmannNumber`.

    Use the module-level :func:`algebra` factory, which caches instances so
    that numbers created independently for the same N share tables.
    """

    def __init__(self, n_generators: int):
        if not 1 <= n_generators <= MAX_GENERATORS:
            raise ValueError(
                f"n_generators must be in [1, {MAX_GENERATORS}], got {n_generators}"
            )
        self.n = int(n_generators)
        self.dim = 1 << self.n
        masks = np.arange(self.dim, dtype=np.int64)
        self._set_degree(_popcount(masks).astype(np.int64))
        # (pa, pb) -> (idx_a, idx_b, scatter), or None above the table
        self._tables = None
        if self.n <= _MAX_TABLE_N:
            self._build_table(masks)

    def _set_degree(self, degree: np.ndarray) -> None:
        self.degree = degree  # monomial degree per coefficient slot
        self.even_mask = self.degree % 2 == 0
        self.odd_mask = ~self.even_mask
        self._odd_slots = np.flatnonzero(self.odd_mask)

    def _split(self) -> tuple["GrassmannAlgebra", bool]:
        """The algebra of a0 and a1 when ``mul`` splits off the top factor,
        a = a0 + a1 t, and whether t is odd: here t = theta_N."""
        return algebra(self.n - 1), True

    def _build_table(self, masks: np.ndarray) -> None:
        # Disjoint pairs (i, j) with i ascending and j descending; the order
        # fixes the summation order of the matmul in ``mul``.
        idx_a, rev_b = np.nonzero((masks[:, None] & masks[None, ::-1]) == 0)
        idx_b = self.dim - 1 - rev_b
        # Merge sign: each generator h of j passes the generators of i above h.
        shifts = np.arange(1, self.n + 1)
        passes = (idx_b[:, None] >> (shifts - 1) & 1) * _popcount(idx_a[:, None] >> shifts)
        signs = 1 - 2 * (passes.sum(axis=1) & 1)
        # Scatter-with-sign as a single matmul: out = prod @ scatter.
        scatter = np.zeros((idx_a.size, self.dim))
        scatter[np.arange(idx_a.size), idx_a | idx_b] = signs
        # typed tables are cut on first use
        self._tables = {(None, None): (idx_a, idx_b, scatter)}

    def _typed_table(self, pa: int | None, pb: int | None):
        """The rows of the full table whose masks have parities (pa, pb)."""
        idx_a, idx_b, scatter = self._tables[None, None]
        fits = {None: np.ones(self.dim, dtype=bool), EVEN: self.even_mask, ODD: self.odd_mask}
        keep = fits[pa][idx_a] & fits[pb][idx_b]
        table = (idx_a[keep], idx_b[keep], scatter[keep])
        self._tables[pa, pb] = table
        return table

    # ------------------------------------------------------------------
    # Raw-coefficient kernels (batched over leading axes)
    # ------------------------------------------------------------------

    def mul(
        self, a: np.ndarray, b: np.ndarray, pa: int | None = None, pb: int | None = None
    ) -> np.ndarray:
        """Grassmann product of coefficient arrays, broadcasting leading axes.

        ``pa`` and ``pb`` are the parities of ``a`` and ``b``: ``EVEN``,
        ``ODD``, or None for either.  In an algebra with a table a hint
        drops the pairs that multiply coefficients of the other parity,
        which a true hint says are zero; a wrong hint drops terms of the
        product.  Hints are not checked here; a test audits those the
        dynamics passes.  Above the table the hints are ignored and the top
        factor is split off.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self._tables is not None:
            try:
                ia, ib, sc = self._tables[pa, pb]
            except KeyError:
                ia, ib, sc = self._typed_table(pa, pb)
            return a.take(ia, axis=-1) * b.take(ib, axis=-1) @ sc
        # the halves are stacked on a new leading axis, so line the batch up first
        a, b = np.broadcast_arrays(a, b)
        # With a = a0 + a1 t and b = b0 + b1 t, ab = a0 b0 + (a0 b1 + a1 b0~) t,
        # where b0~ negates the odd part of b0 when t is odd and moves past it.
        sub, odd_top = self._split()
        half = sub.dim
        a0, a1 = a[..., :half], a[..., half:]
        b0, b1 = b[..., :half], b[..., half:]
        b0_tilde = np.where(sub.odd_mask, -b0, b0) if odd_top else b0
        p = sub.mul(np.array((a0, a0, a1)), np.array((b0, b1, b0_tilde)))
        return np.concatenate([p[0], p[1] + p[2]], axis=-1)

    def power(self, a: np.ndarray, k: int) -> np.ndarray:
        if k < 0:
            raise ValueError("negative powers not supported at kernel level")
        out = self.scalar_coeffs(1.0)
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def soul(self, a: np.ndarray) -> np.ndarray:
        s = np.array(a, dtype=float, copy=True)
        s[..., 0] = 0.0
        return s

    def invert_even(self, a: np.ndarray) -> np.ndarray:
        """Inverse of even elements with nonzero body, batched.

        The nilpotent part has degree >= 2, so the geometric series
        1/(body + n) = (1/body) * sum_k (-n/body)**k terminates after
        floor(N/2) terms: there is no truncation error.  The coefficients
        carry double-precision roundoff relative to max|a^-1|, which is
        large when the body is small.  Odd coefficients at or below
        PRUNE_TOL pass the parity check.  They stay in the first-order term
        of the series and enter none of its products, which multiply as
        even x even.
        """
        a = np.asarray(a, dtype=float)
        if (np.abs(a.take(self._odd_slots, axis=-1)) > PRUNE_TOL).any():
            raise NotInvertibleError("element is not Grassmann-even")
        if (a[..., 0] == 0.0).any():
            raise NotInvertibleError("zero body, element not invertible")
        return self._inverse_series(a)

    def _inverse_series(self, a: np.ndarray) -> np.ndarray:
        """The series of ``invert_even`` without its two checks, for callers
        whose operands are even with a nonzero body by construction.  Nothing
        checks that here; a test audits every operand the dynamics passes."""
        b = a[..., :1]
        t = -a / b
        t[..., 0] = 0.0  # t = -soul/body
        out = 0.0 + t    # out = 1 + t; its soul slots 0.0 + t map -0.0 to +0.0
        out[..., 0] = 1.0
        acc = t
        for _ in range(self.n // 2 - 1):
            acc = self.mul(acc, t, EVEN, EVEN)
            if not acc.any():
                break
            out += acc
        return out / b

    def parity_of(self, a: np.ndarray, tol: float = PRUNE_TOL) -> Parity:
        a = np.asarray(a)
        nz = np.abs(a) > tol
        has_even = bool(np.any(nz & self.even_mask))
        has_odd = bool(np.any(nz & self.odd_mask))
        if has_even and has_odd:
            return Parity.MIXED
        if has_even:
            return Parity.EVEN
        if has_odd:
            return Parity.ODD
        return Parity.ZERO

    def lowest_term(self, a: np.ndarray, tol: float = PRUNE_TOL) -> tuple[int, np.ndarray]:
        """Smallest degree carrying a coefficient above ``tol``, and that part."""
        a = np.asarray(a, dtype=float)
        nz = np.nonzero(np.abs(a) > tol)[0]
        if nz.size == 0:
            raise ZeroLowestTermError("zero element has no lowest-degree term")
        k = int(self.degree[nz].min())
        return k, self.grade(a, k)

    def grade(self, a: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros_like(np.asarray(a, dtype=float))
        sel = self.degree == k
        out[..., sel] = np.asarray(a, dtype=float)[..., sel]
        return out

    def scalar_coeffs(self, value: float) -> np.ndarray:
        c = np.zeros(self.dim)
        c[0] = float(value)
        return c

    def embed(self, a: np.ndarray, target: "GrassmannAlgebra") -> np.ndarray:
        """Zero-pad coefficients into a larger algebra (same leading masks)."""
        if target.n < self.n:
            raise AlgebraMismatchError("target algebra has fewer generators")
        a = np.asarray(a, dtype=float)
        out = np.zeros(a.shape[:-1] + (target.dim,))
        out[..., : self.dim] = a
        return out

    def subalgebra(self, *arrays: np.ndarray) -> tuple:
        """Smallest algebra holding every one of ``arrays``, where its
        monomials sit here, and the arrays mapped into it.

        The k generators that occur in a nonzero coefficient of any array
        become theta_1..theta_k of ``algebra(k)`` in ascending order, which
        keeps every merge sign.  Returns that algebra, the mask in this
        algebra of each of its monomials, and each array mapped into it;
        ``out[..., masks] = b`` maps a result back.  With no generator in
        the arrays the subalgebra is ``algebra(1)`` holding theta_1.
        """
        used = 0
        for a in arrays:
            nonzero = np.flatnonzero(np.any(np.reshape(a, (-1, self.dim)) != 0.0, axis=0))
            used |= int(np.bitwise_or.reduce(nonzero, initial=0))
        gens = [g for g in range(self.n) if used >> g & 1] or [0]
        sub = np.arange(1 << len(gens))
        masks = np.zeros_like(sub)
        for i, g in enumerate(gens):
            masks |= (sub >> i & 1) << g
        # np.take keeps C order, where a[..., masks] would not; reductions sum
        # in a layout-dependent order, so the layout keeps results bitwise.
        return algebra(len(gens)), masks, tuple([np.take(a, masks, axis=-1) for a in arrays])

    # ------------------------------------------------------------------
    # Factories for wrapped numbers
    # ------------------------------------------------------------------

    def scalar(self, value: float) -> "GrassmannNumber":
        return GrassmannNumber(self, self.scalar_coeffs(value))

    def generator(self, index: int) -> "GrassmannNumber":
        """The generator theta_{index} (1-based, matching display names)."""
        if not 1 <= index <= self.n:
            raise ValueError(f"generator index must be in [1, {self.n}]")
        c = np.zeros(self.dim)
        c[1 << (index - 1)] = 1.0
        return GrassmannNumber(self, c)

    def zero(self) -> "GrassmannNumber":
        return GrassmannNumber(self, np.zeros(self.dim))

    def from_terms(
        self, terms: Mapping[int | tuple[int, ...], float]
    ) -> "GrassmannNumber":
        """Build a number from {mask-or-index-tuple: coefficient}.

        Tuples list 1-based generator indices in ascending order, e.g.
        ``{(): 2.0, (1, 2): -1.0}`` is ``2 - theta1 theta2``.
        """
        c = np.zeros(self.dim)
        for key, val in terms.items():
            if isinstance(key, tuple):
                mask = 0
                prev = 0
                for g in key:
                    if not 1 <= g <= self.n:
                        raise ValueError(f"generator index {g} out of range")
                    if g <= prev:
                        raise ValueError("generator indices must be strictly ascending")
                    mask |= 1 << (g - 1)
                    prev = g
            else:
                mask = int(key)
                if not 0 <= mask < self.dim:
                    raise ValueError(f"mask {mask} out of range")
            c[mask] += float(val)
        return GrassmannNumber(self, c)

    def __repr__(self) -> str:
        return f"GrassmannAlgebra(n={self.n})"


@functools.lru_cache(maxsize=None)
def algebra(n_generators: int) -> GrassmannAlgebra:
    """Cached algebra factory; numbers with equal N share one table."""
    return GrassmannAlgebra(n_generators)


class _DualAlgebra(GrassmannAlgebra):
    """Dual numbers a0 + eps a1 over ``base`` = algebra(k), eps even and
    eps^2 = 0, as coefficients [a0 | a1] of shape (..., 2**(k+1)).

    Slot degrees count eps as theta_{k+1} theta_{k+2}, and ``n`` is k + 2,
    so parities, ``invert_even``'s series and soul orders (``n // 2``) are
    those of the embedding into algebra(k + 2).  Slots are not generator
    masks: ``generator``, ``from_terms``, ``subalgebra`` and
    ``GrassmannNumber``'s repr do not apply.
    """

    def __init__(self, base: GrassmannAlgebra):
        self.base = base
        self.n = base.n + 2
        self.dim = 2 * base.dim
        self._set_degree(np.concatenate([base.degree, base.degree + 2]))
        self._tables = None
        if base._tables is not None:
            # a0 b0 into the low half, then a0 b1 and a1 b0 into the high one:
            # the order in which algebra(k + 2)'s table meets these pairs
            ia, ib, sc = base._tables[None, None]
            d = base.dim
            zero = np.zeros_like(sc)
            scatter = np.block([[sc, zero], [zero, sc], [zero, sc]])
            idx_a = np.concatenate([ia, ia, ia + d])
            idx_b = np.concatenate([ib, ib + d, ib])
            self._tables = {(None, None): (idx_a, idx_b, scatter)}

    def _split(self) -> tuple[GrassmannAlgebra, bool]:
        return self.base, False

    def __repr__(self) -> str:
        return f"dual_algebra({self.base.n})"


@functools.lru_cache(maxsize=None)
def dual_algebra(n_generators: int) -> GrassmannAlgebra:
    """Cached algebra(k)[eps]/(eps^2), k = n_generators, with eps =
    theta_{k+1} theta_{k+2}: the dual numbers over algebra(k)."""
    return _DualAlgebra(algebra(n_generators))


def _coerce(other, alg: GrassmannAlgebra):
    if isinstance(other, GrassmannNumber):
        if other.alg.n != alg.n:
            raise AlgebraMismatchError(
                f"mixing algebras with {alg.n} and {other.alg.n} generators"
            )
        return other.coeffs
    if isinstance(other, (int, float, np.integer, np.floating)):
        return alg.scalar_coeffs(float(other))
    return None


class GrassmannNumber:
    """One element of a Grassmann algebra; immutable value semantics."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: GrassmannAlgebra, coeffs: np.ndarray):
        self.alg = alg
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (alg.dim,):
            raise ValueError(f"expected {alg.dim} coefficients, got shape {c.shape}")
        self.coeffs = c

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        oc = _coerce(other, self.alg)
        if oc is None:
            return NotImplemented
        return GrassmannNumber(self.alg, self.coeffs + oc)

    __radd__ = __add__

    def __sub__(self, other):
        oc = _coerce(other, self.alg)
        if oc is None:
            return NotImplemented
        return GrassmannNumber(self.alg, self.coeffs - oc)

    def __rsub__(self, other):
        oc = _coerce(other, self.alg)
        if oc is None:
            return NotImplemented
        return GrassmannNumber(self.alg, oc - self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return GrassmannNumber(self.alg, self.coeffs * float(other))
        oc = _coerce(other, self.alg)
        if oc is None:
            return NotImplemented
        return GrassmannNumber(self.alg, self.alg.mul(self.coeffs, oc))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return GrassmannNumber(self.alg, self.coeffs * float(other))
        oc = _coerce(other, self.alg)
        if oc is None:
            return NotImplemented
        return GrassmannNumber(self.alg, self.alg.mul(oc, self.coeffs))

    def __neg__(self):
        return GrassmannNumber(self.alg, -self.coeffs)

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.integer, np.floating)):
            return GrassmannNumber(self.alg, self.coeffs / float(other))
        if isinstance(other, GrassmannNumber):
            return self * other.inv()
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, (int, np.integer)) or k < 0:
            return NotImplemented
        return GrassmannNumber(self.alg, self.alg.power(self.coeffs, int(k)))

    def __eq__(self, other) -> bool:
        oc = _coerce(other, self.alg)
        if oc is None:
            return NotImplemented
        return bool(np.all(np.abs(self.coeffs - oc) <= COEFF_ATOL))

    __hash__ = None  # mutable-tolerance equality

    # -- structure -----------------------------------------------------

    @property
    def body(self) -> float:
        return float(self.coeffs[0])

    @property
    def soul(self) -> "GrassmannNumber":
        return GrassmannNumber(self.alg, self.alg.soul(self.coeffs))

    def grade(self, k: int) -> "GrassmannNumber":
        """Projection onto monomials of degree exactly k."""
        if not 0 <= k <= self.alg.n:
            raise ValueError(f"grade must be in [0, {self.alg.n}]")
        return GrassmannNumber(self.alg, self.alg.grade(self.coeffs, k))

    def lowest_term(self) -> tuple[int, "GrassmannNumber"]:
        """(degree, part) of the nonzero component of smallest degree."""
        k, part = self.alg.lowest_term(self.coeffs)
        return k, GrassmannNumber(self.alg, part)

    def parity(self) -> Parity:
        return self.alg.parity_of(self.coeffs)

    def inv(self) -> "GrassmannNumber":
        """Inverse of an even element with nonzero body.

        The series terminates, so there is no truncation error; coefficients
        carry double-precision roundoff relative to the inverse's max_abs().
        """
        return GrassmannNumber(self.alg, self.alg.invert_even(self.coeffs))

    def is_zero(self, tol: float = PRUNE_TOL) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def terms(self, tol: float = PRUNE_TOL) -> dict[int, float]:
        """Nonzero coefficients keyed by generator-subset mask."""
        return {
            int(m): float(self.coeffs[m])
            for m in np.nonzero(np.abs(self.coeffs) > tol)[0]
        }

    def __repr__(self) -> str:
        pieces = []
        for mask, val in self.terms().items():
            if mask == 0:
                pieces.append(f"{val:g}")
            else:
                name = "".join(
                    f"θ{b + 1}" for b in range(self.alg.n) if mask >> b & 1
                )
                pieces.append(f"{val:g}·{name}")
        return " + ".join(pieces).replace("+ -", "- ") if pieces else "0"
