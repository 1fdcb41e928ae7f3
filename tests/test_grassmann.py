"""Algebra arithmetic against an independent dict-based reference product."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasspin.grassmann import (
    EVEN,
    ODD,
    AlgebraMismatchError,
    GrassmannNumber,
    NotInvertibleError,
    Parity,
    ZeroLowestTermError,
    algebra,
    dual_algebra,
)
from grasspin.polynomials import Polynomial


# ----------------------------------------------------------------------
# Reference implementation: subsets as sorted index tuples, signs by
# explicit transposition count while merging.
# ----------------------------------------------------------------------


def ref_mul(a: dict, b: dict) -> dict:
    out: dict[tuple, float] = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            if set(sa) & set(sb):
                continue
            merged = list(sa) + list(sb)
            sign = 1
            # bubble sort, counting swaps
            for i in range(len(merged)):
                for j in range(len(merged) - 1 - i):
                    if merged[j] > merged[j + 1]:
                        merged[j], merged[j + 1] = merged[j + 1], merged[j]
                        sign = -sign
            key = tuple(merged)
            out[key] = out.get(key, 0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0.0}


def to_dict(x: GrassmannNumber) -> dict:
    out = {}
    for mask, val in x.terms(tol=0.0).items():
        subset = tuple(i + 1 for i in range(x.alg.n) if mask >> i & 1)
        out[subset] = val
    return out


def from_dict(alg, d: dict) -> GrassmannNumber:
    return alg.from_terms({k: v for k, v in d.items()})


def random_number(alg, rng, parity=None):
    coeffs = rng.normal(size=alg.dim)
    if parity == "even":
        coeffs[~alg.even_mask] = 0.0
    elif parity == "odd":
        coeffs[alg.even_mask] = 0.0
    return GrassmannNumber(alg, coeffs)


# ----------------------------------------------------------------------
# Stated examples
# ----------------------------------------------------------------------


class TestExamples:
    def test_add_cancellation(self, alg4):
        t1 = alg4.generator(1)
        assert (1 + t1) + (2 - t1) == 3.0

    def test_add_identity(self, alg4):
        a = alg4.from_terms({(): 1.5, (1, 3): -2.0})
        assert a + alg4.zero() == a

    def test_add_doubling(self, alg4):
        t12 = alg4.generator(1) * alg4.generator(2)
        assert t12 + t12 == 2.0 * t12

    def test_anticommutation(self, alg4):
        t1, t2 = alg4.generator(1), alg4.generator(2)
        assert t1 * t2 == -(t2 * t1)

    def test_nilpotency(self, alg4):
        t1 = alg4.generator(1)
        assert (t1 * t1).is_zero()

    def test_product_expansion(self, alg4):
        # (2 + t1 t2)(3 + t3 t4), expected value from the reference product
        a = alg4.from_terms({(): 2.0, (1, 2): 1.0})
        b = alg4.from_terms({(): 3.0, (3, 4): 1.0})
        expected = from_dict(alg4, ref_mul(to_dict(a), to_dict(b)))
        got = a * b
        assert got == expected
        assert got == alg4.from_terms({(): 6.0, (1, 2): 3.0, (3, 4): 2.0, (1, 2, 3, 4): 1.0})

    def test_lowest_term_scalar(self, alg4):
        a = 3 + alg4.generator(1) * alg4.generator(2)
        k, part = a.lowest_term()
        assert k == 0 and part == 3.0

    def test_lowest_term_odd(self, alg4):
        t1, t2, t3 = (alg4.generator(i) for i in (1, 2, 3))
        k, part = (t1 + t1 * t2 * t3).lowest_term()
        assert k == 1 and part == t1

    def test_lowest_term_zero_errors(self, alg4):
        with pytest.raises(ZeroLowestTermError):
            alg4.zero().lowest_term()

    def test_grade_projection(self, alg4):
        t1, t2 = alg4.generator(1), alg4.generator(2)
        a = 1 + t1 + t1 * t2
        assert a.grade(1) == t1
        assert a.grade(0) == 1.0
        assert (t1 * t2).grade(0) == alg4.zero()

    def test_grade_completeness(self, alg4):
        rng = np.random.default_rng(5)
        a = random_number(alg4, rng)
        total = alg4.zero()
        for k in range(alg4.n + 1):
            total = total + a.grade(k)
        assert total == a

    def test_invert_scalar(self, alg4):
        assert alg4.scalar(2.0).inv() == 0.5

    def test_invert_even(self, alg4):
        t1, t2 = alg4.generator(1), alg4.generator(2)
        a = 1 + t1 * t2
        assert a.inv() == 1 - t1 * t2
        assert a * a.inv() == 1.0

    def test_invert_zero_body(self, alg4):
        t12 = alg4.generator(1) * alg4.generator(2)
        with pytest.raises(NotInvertibleError):
            t12.inv()

    def test_invert_odd_rejected(self, alg4):
        with pytest.raises(NotInvertibleError):
            (1 + alg4.generator(1)).inv()

    def test_parity_classification(self, alg4):
        t = [alg4.generator(i) for i in (1, 2, 3, 4)]
        assert (1 + t[0] * t[1]).parity() is Parity.EVEN
        assert (t[0] + t[1] * t[2] * t[3]).parity() is Parity.ODD
        assert (1 + t[0]).parity() is Parity.MIXED
        assert alg4.zero().parity() is Parity.ZERO

    def test_mismatched_algebras(self, alg4, alg6):
        with pytest.raises(AlgebraMismatchError):
            alg4.generator(1) + alg6.generator(1)
        with pytest.raises(AlgebraMismatchError):
            alg4.generator(1) * alg6.generator(1)


# ----------------------------------------------------------------------
# Laws on random elements
# ----------------------------------------------------------------------


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=16, max_size=16
)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_mul_matches_reference(ca, cb):
    alg = algebra(4)
    a = GrassmannNumber(alg, np.array(ca))
    b = GrassmannNumber(alg, np.array(cb))
    expected = from_dict(alg, ref_mul(to_dict(a), to_dict(b)))
    assert np.max(np.abs((a * b).coeffs - expected.coeffs)) < 1e-9


def sparse_number(alg, rng, extra=24):
    """A body, every single generator theta_1..theta_N, and ``extra`` random
    monomials, all with normal coefficients."""
    masks = {0} | {1 << g for g in range(alg.n)}
    masks |= set(rng.integers(0, alg.dim, size=extra).tolist())
    coeffs = np.zeros(alg.dim)
    coeffs[sorted(masks)] = rng.normal(size=len(masks))
    return GrassmannNumber(alg, coeffs)


def exact_product(a: GrassmannNumber, b: GrassmannNumber) -> GrassmannNumber:
    """The product in exact rationals through the reference, rounded once."""
    exact = ref_mul(
        {k: Fraction(v) for k, v in to_dict(a).items()},
        {k: Fraction(v) for k, v in to_dict(b).items()},
    )
    return from_dict(a.alg, {k: float(v) for k, v in exact.items()})


def assert_product_close(got: GrassmannNumber, a, b, want: GrassmannNumber):
    # scaled by operand size, as in criterion 01
    scale = max(1.0, a.max_abs() * b.max_abs())
    assert (got - want).max_abs() <= 1e-12 * scale


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_mul_matches_exact_rationals(n):
    alg = algebra(n)
    rng = np.random.default_rng(900 + n)
    for _ in range(5):
        a, b = sparse_number(alg, rng), sparse_number(alg, rng)
        assert_product_close(a * b, a, b, exact_product(a, b))


def test_mul_broadcasts_above_table():
    alg = algebra(8)
    rng = np.random.default_rng(808)
    a = np.stack([sparse_number(alg, rng).coeffs for _ in range(4)])[:, None, :]
    b = np.stack([sparse_number(alg, rng).coeffs for _ in range(4)])[None, :, :]
    out = alg.mul(a, b)
    assert out.shape == (4, 4, alg.dim)
    for i in range(4):
        for j in range(4):
            ai, bj = GrassmannNumber(alg, a[i, 0]), GrassmannNumber(alg, b[0, j])
            assert_product_close(GrassmannNumber(alg, out[i, j]), ai, bj, exact_product(ai, bj))


@pytest.mark.parametrize("n, batch", [(7, 3), (7, 4), (8, 3)])
def test_mul_broadcasts_unequal_ndim_above_table(n, batch):
    # the split stacks its halves on a new leading axis; a batch against a
    # single number must still pair every row with that number
    alg = algebra(n)
    rng = np.random.default_rng(700 + 10 * n + batch)
    rows = [sparse_number(alg, rng) for _ in range(batch)]
    one = sparse_number(alg, rng)
    stacked = np.stack([r.coeffs for r in rows])
    for out, pairs in [
        (alg.mul(stacked, one.coeffs), [(r, one) for r in rows]),
        (alg.mul(one.coeffs, stacked), [(one, r) for r in rows]),
    ]:
        assert out.shape == (batch, alg.dim)
        for got, (a, b) in zip(out, pairs):
            assert_product_close(GrassmannNumber(alg, got), a, b, exact_product(a, b))


def test_power_of_a_batch_above_table():
    # power starts from the unbatched scalar 1
    alg = algebra(7)
    rng = np.random.default_rng(707)
    rows = [sparse_number(alg, rng, extra=8) for _ in range(3)]
    out = alg.power(np.stack([r.coeffs for r in rows]), 2)
    assert out.shape == (3, alg.dim)
    for got, r in zip(out, rows):
        assert_product_close(GrassmannNumber(alg, got), r, r, exact_product(r, r))


def test_mul_without_top_generators():
    small, big = algebra(3), algebra(10)
    rng = np.random.default_rng(310)
    a, b = random_number(small, rng), random_number(small, rng)
    got = big.mul(small.embed(a.coeffs, big), small.embed(b.coeffs, big))
    np.testing.assert_allclose(got[: small.dim], (a * b).coeffs, rtol=0.0, atol=1e-15)
    assert np.all(got[small.dim :] == 0.0)

    # only b carries theta_10: the product must not drop its theta_10 part
    ab = GrassmannNumber(big, small.embed(a.coeffs, big))
    bb = GrassmannNumber(big, small.embed(b.coeffs, big))
    bb = bb + bb * big.generator(10)
    assert np.any((ab * bb).coeffs[big.dim // 2 :] != 0.0)
    assert_product_close(ab * bb, ab, bb, exact_product(ab, bb))


# ----------------------------------------------------------------------
# Parity-typed product tables
# ----------------------------------------------------------------------


HINTS = {EVEN: "even", ODD: "odd", None: None}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_typed_mul_matches_exact_rationals(n):
    """A product hinted with its operands' true parities is the product."""
    alg = algebra(n)
    rng = np.random.default_rng(700 + n)
    for pa in HINTS:
        for pb in HINTS:
            for _ in range(2):
                a = random_number(alg, rng, HINTS[pa])
                b = random_number(alg, rng, HINTS[pb])
                got = GrassmannNumber(alg, alg.mul(a.coeffs, b.coeffs, pa, pb))
                assert_product_close(got, a, b, exact_product(a, b))


def loop_table(n):
    """The full table by explicit loops: pairs (i ascending, j descending),
    merge signs from the reference product."""
    alg = algebra(n)
    rows = [(i, j) for i in range(alg.dim) for j in reversed(range(alg.dim)) if not i & j]
    scatter = np.zeros((len(rows), alg.dim))
    for r, (i, j) in enumerate(rows):
        a, b = alg.zero(), alg.zero()
        a.coeffs[i] = b.coeffs[j] = 1.0
        ((_, sign),) = ref_mul(to_dict(a), to_dict(b)).items()
        scatter[r, i | j] = sign
    idx_a, idx_b = (np.array(col) for col in zip(*rows))
    return idx_a, idx_b, scatter


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_typed_tables_partition_the_full_table(n):
    alg = algebra(n)
    idx_a, idx_b, scatter = loop_table(n)
    row_of = {(i, j): r for r, (i, j) in enumerate(zip(idx_a.tolist(), idx_b.tolist()))}
    rows = []
    for pa in (EVEN, ODD):
        for pb in (EVEN, ODD):
            ia, ib, sc = alg._typed_table(pa, pb)
            assert np.all(alg.even_mask[ia] == (pa == EVEN))
            assert np.all(alg.even_mask[ib] == (pb == EVEN))
            r = np.array([row_of[i, j] for i, j in zip(ia.tolist(), ib.tolist())], dtype=int)
            assert np.all(np.diff(r) > 0)          # the full table's order
            assert np.array_equal(sc, scatter[r])
            rows.append(r)
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(idx_a.size))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_untyped_mul_is_the_full_table_product(n):
    """mul without hints multiplies every pair of the loop-built table, in
    its order, so it is bitwise the product of the untyped kernel."""
    alg = algebra(n)
    idx_a, idx_b, scatter = loop_table(n)
    rng = np.random.default_rng(n)
    for shape_a, shape_b in [((), ()), ((4,), (4,)), ((3, 1), (1, 4)), ((16, 4, 4), (16, 4, 4))]:
        a = rng.normal(size=shape_a + (alg.dim,))
        b = rng.normal(size=shape_b + (alg.dim,))
        assert np.array_equal(alg.mul(a, b), a[..., idx_a] * b[..., idx_b] @ scatter)


# ----------------------------------------------------------------------
# Dual numbers over algebra(k)
# ----------------------------------------------------------------------


def random_dual(alg, rng, shape, parity):
    """Normal coefficients of shape + (alg.dim,), zero off ``parity``."""
    c = rng.normal(size=shape + (alg.dim,))
    if parity is not None:
        c[..., alg.even_mask != (parity == EVEN)] = 0.0
    return c


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_dual_mul_matches_embedded_product(k):
    """The dual product over algebra(k) is algebra(k + 2)'s product of the
    operands embedded at masks m and m | 3 * 2**k, to scripts/outputs.py's
    limit of 1e-15 of the reference's largest coefficient, and that product
    has nothing off those masks.  Up to k = 6 the dual multiplies by its
    table, at k = 7 by splitting off eps."""
    dual, big = dual_algebra(k), algebra(k + 2)
    slots = np.concatenate([np.arange(1 << k), np.arange(1 << k) | 3 << k])
    rng = np.random.default_rng(1900 + k)
    for pa, pb in [(None, None), (EVEN, EVEN), (EVEN, ODD), (ODD, EVEN), (ODD, ODD)]:
        a = random_dual(dual, rng, (3, 1), pa)
        b = random_dual(dual, rng, (4,), pb)
        wide_a, wide_b = np.zeros((3, 1, big.dim)), np.zeros((4, big.dim))
        wide_a[..., slots], wide_b[..., slots] = a, b
        want = big.mul(wide_a, wide_b, pa, pb)
        got = dual.mul(a, b, pa, pb)
        assert got.shape == (3, 4, dual.dim)
        assert not np.delete(want, slots, axis=-1).any()
        assert np.max(np.abs(got - want[..., slots])) <= 1e-15 * np.max(np.abs(want))


def test_dual_inverse_counts_eps_as_degree_two():
    """1 + theta1 theta2 + eps over algebra(2), inverted and multiplied back,
    is exactly 1.  The inverse needs the 2 theta1 theta2 eps term of the
    series, which stops before it if eps counts as degree 1."""
    dual = dual_algebra(2)
    a = np.zeros(dual.dim)
    a[[0, 3, 4]] = 1.0   # 1, theta1 theta2, eps
    inv = dual.invert_even(a)
    assert inv[7] == 2.0   # theta1 theta2 eps
    assert np.array_equal(dual.mul(inv, a), dual.scalar_coeffs(1.0))


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_associativity_and_distributivity(ca, cb, cc):
    alg = algebra(4)
    a, b, c = (GrassmannNumber(alg, np.array(v)) for v in (ca, cb, cc))
    scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
    assert ((a * b) * c - a * (b * c)).max_abs() <= 1e-12 * scale
    assert ((a + b) * c - (a * c + b * c)).max_abs() <= 1e-12 * scale


@pytest.mark.parametrize("n", [4, 6, 8, 9])
@pytest.mark.parametrize("pa,pb", [("even", "even"), ("even", "odd"), ("odd", "odd")])
def test_supercommutativity(n, pa, pb):
    alg = algebra(n)
    rng = np.random.default_rng(n * 17 + len(pa))
    sign = -1.0 if (pa == "odd" and pb == "odd") else 1.0
    for _ in range(50):
        a = random_number(alg, rng, pa)
        b = random_number(alg, rng, pb)
        scale = max(1.0, a.max_abs() * b.max_abs())
        assert (a * b - sign * (b * a)).max_abs() <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 4, 6, 8, 9])
def test_soul_nilpotency_exact(n):
    alg = algebra(n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = random_number(alg, rng)
        soul = a.soul
        power = alg.scalar(1.0)
        for _ in range(n + 1):
            power = power * soul
        assert np.all(power.coeffs == 0.0)


def test_invert_even_roundtrip(alg4, alg6):
    for alg in (alg4, alg6):
        rng = np.random.default_rng(alg.n)
        for _ in range(100):
            a = random_number(alg, rng, "even")
            while abs(a.body) <= 0.1:
                a = random_number(alg, rng, "even")
            inv = a.inv()
            scale = max(1.0, a.max_abs() * inv.max_abs())
            assert (a * inv - 1.0).max_abs() < 1e-12 * scale


def exact_inverse(d: dict) -> dict:
    """Inverse of an even element in exact rationals: the terminating series
    (1/body) * sum_k (-soul/body)**k through the reference product."""
    body = Fraction(d[()])
    t = {k: -Fraction(v) / body for k, v in d.items() if k}
    out, power = {(): Fraction(1)}, {(): Fraction(1)}
    while power:
        power = ref_mul(power, t)
        for k, v in power.items():
            out[k] = out.get(k, 0) + v
    return {k: v / body for k, v in out.items()}


def test_invert_even_matches_exact_rationals(alg6):
    rng = np.random.default_rng(606)
    for _ in range(20):
        a = random_number(alg6, rng, "even")
        a.coeffs[0] = rng.uniform(0.1, 0.2)
        exact = from_dict(alg6, {k: float(v) for k, v in exact_inverse(to_dict(a)).items()})
        assert (a.inv() - exact).max_abs() <= 1e-13 * exact.max_abs()


def test_lowest_term_degree_inequality(alg4):
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_number(alg4, rng)
        b = random_number(alg4, rng)
        # random sparsification to vary the lowest degrees
        a = GrassmannNumber(alg4, np.where(rng.random(alg4.dim) < 0.5, 0.0, a.coeffs))
        b = GrassmannNumber(alg4, np.where(rng.random(alg4.dim) < 0.5, 0.0, b.coeffs))
        if a.is_zero() or b.is_zero():
            continue
        ka, pa = a.lowest_term()
        kb, pb = b.lowest_term()
        prod = a * b
        if prod.is_zero():
            continue
        kp, _ = prod.lowest_term()
        assert kp >= ka + kb
        if not (pa * pb).is_zero():
            assert kp == ka + kb


def test_pretty_repr(alg4):
    a = alg4.from_terms({(): 3.0, (1, 2): 2.0})
    assert "θ1θ2" in repr(a)


@pytest.mark.parametrize("obj, want", [
    (algebra(3), "GrassmannAlgebra(n=3)"),
    (dual_algebra(2), "dual_algebra(2)"),
    (Polynomial.zero(), "Polynomial(0)"),
    (Polynomial({(1, 0, 0, 0): 2.0, (0, 0, 1, 2): -0.5}),
     "Polynomial(2·x0^1x1^0x2^0x3^0 + -0.5·x0^0x1^0x2^1x3^2)"),
], ids=["algebra", "dual-algebra", "zero-polynomial", "polynomial"])
def test_object_repr(obj, want):
    assert repr(obj) == want


def test_integer_power(alg4):
    a = alg4.from_terms({(): 2.0, (1,): 1.0, (2, 3): -0.5})
    assert a ** 0 == alg4.scalar(1.0)
    assert a ** np.int64(3) == a * a * a
    for bad in (-1, 1.5):
        with pytest.raises(TypeError):
            a ** bad
