"""Laurent window arithmetic, the mu-adic valuation, and the multiplier."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp.errors import PrecisionExhausted, UncertifiedLeadingTerm
from charp.field import (
    LaurentElement,
    Multiplier,
    PrimeContext,
    _is_prime,
    _limb_size,
    _mul,
    _shared_multiplier,
    make_lambda,
    parse_laurent,
    val_p,
)

from conftest import plain_dot, plain_inverse, plain_product, plain_sum

INF = math.inf


def el(p, text):
    return parse_laurent(p, text)


class TestPrimeContext:
    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            PrimeContext(9)

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            PrimeContext(2)

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            PrimeContext(5, default_window=100, max_window=10)


def prime_by_trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if _is_prime(n)] == [
            n for n in range(10**5) if prime_by_trial_division(n)
        ]

    @pytest.mark.parametrize("n", [561, 41041, 3215031751])
    def test_pseudoprimes_are_rejected(self, n):
        # Carmichael numbers, and the least strong pseudoprime to the bases
        # 2, 3, 5 and 7 at once
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeContext(n)

    def test_large_primes_are_fast(self):
        for p in (100000000000031, 2**61 - 1, 4294967311):
            start = time.perf_counter()
            assert PrimeContext(p).p == p
            assert time.perf_counter() - start < 0.1
        assert not _is_prime(2**61 + 1)

    def test_beyond_the_proven_range_is_refused(self):
        with pytest.raises(ValueError):
            PrimeContext(2**89 - 1)  # a Mersenne prime above 3.3e24


class TestParse:
    def test_mixed_literal(self):
        x = el(5, "1 + 4*t^-1 + t^3")
        assert x.vmin == -1
        assert x.coefficient(-1) == 4
        assert x.coefficient(0) == 1
        assert x.coefficient(3) == 1

    def test_bare_minus_t(self):
        assert el(5, "-t") == LaurentElement.from_terms(5, {1: -1})

    def test_subtraction_and_negative_exponents(self):
        x = el(7, "t^2 - 3*t^-2")
        assert x.coefficient(2) == 1
        assert x.coefficient(-2) == 4

    def test_rejects_garbage(self):
        for bad in ["", "z", "1 +", "2*", "t^", "1 2"]:
            with pytest.raises(ValueError):
                el(5, bad)


class TestArithmetic:
    def test_product_difference_of_squares(self):
        one_plus = el(5, "1 + t")
        one_minus = el(5, "1 - t")
        assert one_plus * one_minus == el(5, "1 - t^2")

    def test_frobenius_power(self):
        # (1+t)^5 = 1 + t^5 in characteristic 5
        assert el(5, "1 + t") ** 5 == el(5, "1 + t^5")

    def test_laurent_sum(self):
        x = el(5, "t^-1") + el(5, "t")
        assert x.vmin == -1
        assert x.coeffs == (1, 0, 1)
        assert x.exact

    def test_scale_wraps_mod_p(self):
        assert el(5, "t").scale(7) == el(5, "2*t")

    def test_exact_zero_vs_horizon_zero(self):
        z = LaurentElement.zero(5)
        h = LaurentElement.zero_up_to(5, 10)
        assert z.is_exact_zero() and z.val_t() == INF
        assert not h.is_exact_zero() and h.is_zero_within_window()
        with pytest.raises(UncertifiedLeadingTerm):
            h.val_t()

    def test_exact_zero_is_shared_per_prime(self):
        z = LaurentElement.zero(5)
        assert LaurentElement.zero(5) is z
        assert el(5, "t") * z is z
        assert LaurentElement.zero(3) is not z and LaurentElement.zero(3).p == 3

    def test_exact_one_is_shared_per_prime(self):
        one = LaurentElement.one(5)
        assert LaurentElement.one(5) is one and one == el(5, "1")
        assert LaurentElement.one(3) is not one and LaurentElement.one(3).p == 3

    def test_truncation_window_shrinks_in_products(self):
        a = el(5, "1 + t").truncate(3)  # known below t^3
        b = el(5, "1 + t^2")
        c = a * b
        assert c.known_to == 3
        assert c.coefficient(2) == 1
        with pytest.raises(UncertifiedLeadingTerm):
            c.coefficient(5)


class TestInverse:
    def test_geometric_series(self):
        inv = el(5, "1 + t").inverse(6)
        assert [inv.coefficient(i) for i in range(6)] == [1, 4, 1, 4, 1, 4]

    def test_monomial_inverts_exactly(self):
        inv = el(5, "-t").inverse()
        assert inv.exact
        assert inv == el(5, "4*t^-1")

    def test_horizon_zero_refuses(self):
        with pytest.raises(UncertifiedLeadingTerm):
            LaurentElement.zero_up_to(5, 3).inverse(4)

    def test_exact_zero_refuses(self):
        with pytest.raises(ZeroDivisionError):
            LaurentElement.zero(5).inverse(4)

    def test_roundtrip_random_elements(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice([3, 5, 7])
            width = rng.randint(2, 24)
            vmin = rng.randint(-8, 8)
            coeffs = [rng.randrange(p) for _ in range(width)]
            coeffs[0] = rng.randrange(1, p)
            a = LaurentElement(p, vmin, coeffs, vmin + width)
            prod = a * a.inverse()
            assert prod.coefficient(0) == 1
            assert (prod - LaurentElement.one(p)).is_zero_within_window()


class TestMultiplier:
    def test_default_lambda(self):
        mult = make_lambda(PrimeContext(5))
        assert mult.lam == el(5, "1 + t")
        assert mult.c == 1

    def test_val_mu_scales_with_mu_valuation(self):
        mult = make_lambda(PrimeContext(5), "1 + t^2")
        assert mult.c == 2
        assert mult.val_mu(el(5, "t")) == Fraction(1, 2)

    def test_rejects_root_of_unity(self):
        with pytest.raises(ValueError):
            make_lambda(PrimeContext(5), "1")

    def test_rejects_unit_distance(self):
        with pytest.raises(ValueError):
            make_lambda(PrimeContext(5), "2 + t")

    def test_val_mu_examples(self, ):
        mult = make_lambda(PrimeContext(5))
        assert mult.val_mu(el(5, "t^3")) == 3
        assert mult.val_mu(mult.one_minus_pow(10)) == 5
        # (1 - lambda^5)/(1 - lambda): Frobenius collapses the numerator to -t^5
        ratio = mult.one_minus_pow(5) * mult.one_minus_pow(1).inverse()
        assert mult.val_mu(ratio) == 4

    def test_one_minus_pow_value_law(self):
        # val_mu(1 - lambda^s) = p^val_p(s), spot-checked at the breakpoints
        for p in (3, 5, 7):
            mult = make_lambda(PrimeContext(p))
            for s in (1, 2, p, p + 1, p * p, 3 * p * p):
                assert mult.val_mu(mult.one_minus_pow(s)) == p ** val_p(s, p)

    def test_val_p(self):
        assert val_p(50, 5) == 2
        assert val_p(7, 5) == 0
        assert val_p(5, 5) == 1
        with pytest.raises(ValueError):
            val_p(0, 5)


class TestSimilarity:
    def setup_method(self):
        self.mult = make_lambda(PrimeContext(5))

    def test_lambda_similar_to_one(self):
        assert self.mult.is_similar(self.mult.lam, LaurentElement.one(5))

    def test_tail_does_not_matter(self):
        assert self.mult.is_similar(el(5, "t"), el(5, "t + t^2"))

    def test_zero_not_similar_to_zero(self):
        z = LaurentElement.zero(5)
        assert not self.mult.is_similar(z, z)

    def test_different_leading_coefficient_not_similar(self):
        assert not self.mult.is_similar(el(5, "t"), el(5, "2*t"))

    def test_similar_implies_equal_valuation(self):
        rng = random.Random(3)
        mult = self.mult
        for _ in range(100):
            e = rng.randint(-5, 5)
            c = rng.randrange(1, 5)
            a = el(5, f"{c}*t^{e}") + el(5, f"t^{e + rng.randint(1, 4)}")
            b = el(5, f"{c}*t^{e}")
            assert mult.is_similar(a, b)
            assert mult.val_mu(a) == mult.val_mu(b)
            # scaling by a nonzero element preserves similarity
            zmul = el(5, "2*t^-3 + t")
            assert mult.is_similar(a * zmul, b * zmul)

    def test_symmetric_and_transitive(self):
        mult = self.mult
        a = el(5, "t + t^2")
        b = el(5, "t + 2*t^3")
        c = el(5, "t + 4*t^2 + t^5")
        assert mult.is_similar(a, b) and mult.is_similar(b, c)
        assert mult.is_similar(b, a)
        assert mult.is_similar(a, c)

    def test_one_minus_pow_similarity_law(self):
        # 1 - lambda^r behaves like (r/p^l) * (1-lambda)^(p^l), l = val_p(r)
        for p in (3, 5):
            mult = make_lambda(PrimeContext(p))
            neg_mu = mult.mu.scale(-1)
            for r in range(1, 80):
                l = val_p(r, p)
                rhs = (neg_mu ** (p**l)).scale(r // p**l)
                assert mult.is_similar(mult.one_minus_pow(r), rhs), r


# hypothesis strategies for window elements

@st.composite
def laurent_elements(draw, p=5, nonzero=False):
    width = draw(st.integers(min_value=1, max_value=12))
    vmin = draw(st.integers(min_value=-6, max_value=6))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=width, max_size=width))
    exact = draw(st.booleans())
    if nonzero and not any(coeffs):
        coeffs[0] = 1
    return LaurentElement(p, vmin, coeffs, None if exact else vmin + width)


class TestValuationLaws:
    @given(a=laurent_elements(nonzero=True), b=laurent_elements(nonzero=True))
    @settings(max_examples=150, deadline=None)
    def test_val_multiplicative(self, a, b):
        mult = make_lambda(PrimeContext(5))
        prod = a * b
        if prod.has_certified_leading_term():
            assert mult.val_mu(prod) == mult.val_mu(a) + mult.val_mu(b)

    @given(a=laurent_elements(nonzero=True), b=laurent_elements(nonzero=True))
    @settings(max_examples=150, deadline=None)
    def test_ultrametric_inequality(self, a, b):
        mult = make_lambda(PrimeContext(5))
        lo = min(mult.val_mu(a), mult.val_mu(b))
        assert mult.val_mu_lb(a + b) >= lo
        if mult.val_mu(a) != mult.val_mu(b):
            assert mult.val_mu(a + b) == lo

    @given(a=laurent_elements(), b=laurent_elements())
    @settings(max_examples=100, deadline=None)
    def test_add_commutes(self, a, b):
        assert a + b == b + a


class TestEscalation:
    def test_precision_exhausted_at_cap(self):
        from charp.recurrence import DynamicalSeries

        f = DynamicalSeries.from_spec(5, {1: 1}, default_window=1, max_window=1)
        with pytest.raises(PrecisionExhausted):
            f.table().escalate()


# products summed by LaurentElement.dot, checked against the plain-loop oracle

@st.composite
def dot_operands(draw, p):
    """An element that is not an exact zero: exact, truncated (its horizon
    may cut into the stored coefficients), or zero up to a horizon."""
    kind = draw(st.sampled_from(["exact", "truncated", "zero_up_to"]))
    vmin = draw(st.integers(min_value=-6, max_value=12))
    if kind == "zero_up_to":
        return LaurentElement.zero_up_to(p, vmin)
    width = draw(st.integers(min_value=1, max_value=10))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=width, max_size=width))
    if not any(coeffs):
        coeffs[0] = 1
    known_to = None
    if kind == "truncated":
        known_to = vmin + draw(st.integers(min_value=1, max_value=width + 3))
    return LaurentElement(p, vmin, coeffs, known_to)


def assert_same_element(got, want):
    assert (got.vmin, got.coeffs, got.known_to) == (want.vmin, want.coeffs, want.known_to)


class TestDot:
    @given(data=st.data(), p=st.sampled_from([3, 5, 7]), count=st.integers(0, 6))
    @settings(max_examples=400, deadline=None)
    def test_matches_pairwise_sum(self, data, p, count):
        triples = [
            (
                data.draw(st.integers(min_value=0, max_value=2 * p)),
                data.draw(dot_operands(p)),
                data.draw(dot_operands(p)),
            )
            for _ in range(count)
        ]
        assert_same_element(LaurentElement.dot(p, triples), plain_dot(p, triples))

    def test_products_past_the_horizon_are_cut(self):
        p = 5
        near = LaurentElement(p, 0, [1, 2, 3, 4], 3)  # certified below t^3
        far = el(p, "t^5 + t^9")
        triples = [(1, near, el(p, "1 + t")), (3, far, far), (2, el(p, "t^-1"), el(p, "t^2 + t^4"))]
        got = LaurentElement.dot(p, triples)
        assert got.known_to == 3
        assert_same_element(got, plain_dot(p, triples))

    @pytest.mark.parametrize(
        "p, count, width",
        [
            (4294967311, 2, 3),  # (p-1)^2 alone needs 16-byte limbs
            (65537, 3, 4),  # (p-1)^3 alone exceeds a 4-byte limb
            (257, 20, 20),  # (p-1)^3 fits 4 bytes, but the sum of 20 long products does not
        ],
    )
    def test_limb_overflow_widens_the_limbs(self, p, count, width):
        # every coefficient at p - 1 makes the packed limbs carry if the
        # bound check is wrong
        top = p - 1
        x = LaurentElement(p, 0, [top] * width)
        y = LaurentElement(p, 1, [top] * width, 1 + width)
        triples = [(top, x, y)] * count
        assert_same_element(LaurentElement.dot(p, triples), plain_dot(p, triples))


class TestLargePrimes:
    # residues past one byte (257), two (65537) and four (4294967311), and
    # limbs past eight bytes ((2^61 - 2)^2 alone needs sixteen)
    @given(data=st.data(), p=st.sampled_from([257, 65537, 4294967311, 2**61 - 1]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_plain_oracles(self, data, p):
        x = data.draw(dot_operands(p))
        y = data.draw(dot_operands(p))
        c = data.draw(st.integers(min_value=-p, max_value=2 * p))
        assert_same_element(x + y, plain_sum(p, [(1, x), (1, y)]))
        assert_same_element(x - y, plain_sum(p, [(1, x), (-1, y)]))
        assert_same_element(x * y, plain_product(x, y))
        assert_same_element(x.scale(c), plain_sum(p, [(c, x)]))
        triples = [
            (data.draw(st.integers(min_value=0, max_value=2 * p)), data.draw(dot_operands(p)), data.draw(dot_operands(p)))
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        assert_same_element(LaurentElement.dot(p, triples), plain_dot(p, triples))
        if x.has_certified_leading_term():
            width = data.draw(st.integers(min_value=1, max_value=24))
            assert_same_element(x.inverse(width), plain_inverse(x, width))


# Kronecker limbs at the edge of each limb size's bound; a case names the
# limb in bits.  2^31 - 1 puts an edge of the 8-byte limb (loads 4 and 5)
# and 2^61 - 1 one of the 16-byte limb (loads 64 and 65) under the caps.

LIMB_PRIMES = (3, 5, 7, 13, 251, 257, 65537, 2**31 - 1, 4294967311, 2**61 - 1)
LIMB_BITS = (8, 16, 32, 64, 128)


def edge_loads(p, bits, cap):
    """The last load L with L * (p-1)**2 < 2**bits and the first with
    L * (p-1)**2 >= 2**bits, those that are >= 1 and at most cap."""
    first = -(-(1 << bits) // (p - 1) ** 2)
    return [load for load in (first - 1, first) if 1 <= load <= cap]


def edge_cases(cap):
    """(p, bits, load) for every edge of every limb size."""
    return [(p, bits, load) for p in LIMB_PRIMES for bits in LIMB_BITS for load in edge_loads(p, bits, cap)]


def sum_edge_cases(most=64):
    """(p, bits, load) for every edge of every limb size that a sum of at
    most `most` terms c * x against the exact one reaches: such a sum
    peaks at load * (p-1), load the sum of the c."""
    out = []
    for p in LIMB_PRIMES:
        for bits in LIMB_BITS:
            first = -(-(1 << bits) // (p - 1))
            out += [(p, bits, load) for load in (first - 1, first) if 1 <= load <= most * (p - 1)]
    return out


def full(p, vmin, length):
    """length coefficients, each p - 1, from t^vmin on."""
    return LaurentElement(p, vmin, [p - 1] * length)


def peak_triples(p, load, longest=64):
    """Triples (c, x, y) with every coefficient p - 1 and
    sum(c * min(len x, len y)) == load, placed so that every product peaks
    at t^(longest - 1): that limb of the packed sum reaches load * (p-1)**2."""
    top = p - 1
    span = min(load, longest)
    triples = []
    for c, m in [(top, span)] * (load // (top * span)) + [
        (top, load % (top * span) // top),
        (load % top, 1),
    ]:
        if c and m:
            triples.append((c, full(p, span - m, m), full(p, 0, m)))
    assert sum(c * len(x.coeffs) for c, x, _y in triples) == load
    return triples


class TestLimbWidths:
    @pytest.mark.parametrize("p, bits, load", edge_cases(70000))
    def test_dot_at_the_edge(self, p, bits, load):
        triples = peak_triples(p, load)
        assert_same_element(LaurentElement.dot(p, triples), plain_dot(p, triples))

    @pytest.mark.parametrize("p, bits, load", edge_cases(1024))
    def test_ring_operations_at_the_edge(self, p, bits, load):
        x = full(p, 0, load)
        y = full(p, -1, load).truncate(load)
        assert_same_element(x * x, plain_product(x, x))
        assert_same_element(x * y, plain_product(x, y))
        assert_same_element(x + y, plain_sum(p, [(1, x), (1, y)]))
        assert_same_element(x - y, plain_sum(p, [(1, x), (-1, y)]))
        assert_same_element(y - x, plain_sum(p, [(1, y), (-1, x)]))
        assert_same_element(-x, plain_sum(p, [(-1, x)]))
        for c in (2, p - 1, p + 3):
            assert_same_element(x.scale(c), plain_sum(p, [(c, x)]))
        # the packed product of plain coefficient vectors (lambda powers
        # and Newton steps): x*x peaks at load * (p-1)**2 in limb load - 1
        square = plain_product(x, x)
        assert list(_mul(x.coeffs, x.coeffs, p)) == [square.coefficient(e) for e in range(2 * load - 1)]

    @pytest.mark.parametrize("p", LIMB_PRIMES)
    def test_scaled_product_at_the_edge(self, p):
        # a Newton step of the inverse negates inside the product: c*a*b with
        # c = p - 1 peaks at c * load * (p-1)**2 in limb load - 1
        c = p - 1
        for bits in LIMB_BITS:
            first = -(-(1 << bits) // (c * (p - 1) ** 2))
            for load in (first - 1, first):
                if not 1 <= load <= 1024:
                    continue
                a = [p - 1] * load
                want = plain_sum(p, [(c, plain_product(full(p, 0, load), full(p, 0, load)))])
                want = [want.coefficient(e) for e in range(2 * load - 1)]
                assert list(_mul(a, a, p, None, c)) == want
                if p <= 256:
                    # residues come back from the kernel as bytes
                    assert list(_mul(bytes(a), bytes(a), p, None, c)) == want

    @pytest.mark.parametrize("p, bits, load", sum_edge_cases())
    def test_sum_at_the_edge(self, p, bits, load):
        # c * x against the exact one peaks at c * (p-1), not c * (p-1)**2,
        # and the limb is sized to that: narrow enough on the near side
        one = LaurentElement.one(p)
        cs = [p - 1] * (load // (p - 1)) + [load % (p - 1)]
        triples = [(c, full(p, 0, 3), one) for c in cs if c]
        assert_same_element(LaurentElement.dot(p, triples), plain_dot(p, triples))
        assert (triples[0][1]._packed[0] <= bits // 8) == (load * (p - 1) < 1 << bits)

    @pytest.mark.parametrize("p", [4294967311, 2**61 - 1])
    def test_sum_of_two_fits_eight_bytes(self, p):
        x = full(p, 0, 64)
        y = full(p, -1, 64).truncate(64)
        assert_same_element(x + y, plain_sum(p, [(1, x), (1, y)]))
        assert x._packed[0] == y._packed[0] == 8
        assert_same_element(x - y, plain_sum(p, [(1, x), (-1, y)]))

    @pytest.mark.parametrize("p, bits, load", edge_cases(512))
    def test_inverse_at_the_edge(self, p, bits, load):
        x = LaurentElement(p, 0, [1] + [p - 1] * load)
        for width in (load, 2 * load + 1):
            assert_same_element(x.inverse(width), plain_inverse(x, width))
            assert_same_element(full(p, 3, load).inverse(width), plain_inverse(full(p, 3, load), width))

    def test_every_width_is_reached(self):
        # the edge cases cover both sides of every limb size's bound, and
        # the kernel picks that size or a narrower one on the near side only
        seen = set()
        for p, bits, load in edge_cases(70000):
            fits = load * (p - 1) ** 2 < 1 << bits
            assert (_limb_size(load * (p - 1) ** 2) <= bits // 8) == fits
            seen.add((bits, fits))
        assert seen == {(b, side) for b in LIMB_BITS for side in (True, False)}


# the packed-coefficient cache on each element

class TestPackedCache:
    def test_whole_then_cut_then_second_width(self):
        # the cache holds the limb size in bytes that x was last packed at
        p = 5
        x = full(p, 0, 40)
        short = LaurentElement(p, 0, [1, 2, 3])
        cut = LaurentElement(p, 2, [1, 2, 3], 12)  # x is cut to 10 coefficients
        long = full(p, 1, 40)
        steps = [
            (lambda z: z * short, 1),  # load 3 * 16 < 256
            (lambda z: z * cut, 1),
            (lambda z: z * long, 2),  # load 40 * 16
            (lambda z: LaurentElement.dot(p, [(4, z, short), (3, cut, z)]), 2),  # load 21
            (lambda z: z + short, 1),  # a sum against the exact one: load 2
            (lambda z: z - long, 1),
            (lambda z: z.scale(3), 1),
            (lambda z: z * long, 2),
            (lambda z: z * cut, 1),
        ]
        for op, size in steps:
            assert_same_element(op(x), op(full(p, 0, 40)))  # a fresh element packs anew
            assert x._packed[0] == size
        assert_same_element(x * cut, plain_product(x, cut))
        assert_same_element(x * long, plain_product(x, long))

    def test_equality_and_hash_ignore_the_cache(self):
        a = LaurentElement(7, -2, [1, 2, 3], 5)
        b = LaurentElement(7, -2, [1, 2, 3], 5)
        for size in (None, 1, 2, 4, 8, 16):
            if size:
                a._limbs(size)
                assert a._packed[0] == size and b._packed is None
            assert a == b and hash(a) == hash(b)
            assert b in {a} and a in {b}
        assert a != LaurentElement(7, -2, [1, 2, 3])


# lambda powers from base-p digits, checked against exact powers

@st.composite
def multipliers(draw):
    """A fresh (not shared) Multiplier for lambda = 1 + t*g, g a random
    nonzero polynomial of degree < 4."""
    p = draw(st.sampled_from([3, 5, 7]))
    g = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=4))
    if not any(g):
        g[0] = 1
    lam = LaurentElement(p, 0, [1] + g)
    return Multiplier(PrimeContext(p), lam)


def certified_part(exact, known_to):
    """The window of an exact element below known_to."""
    return LaurentElement(exact.p, exact.vmin, exact.coeffs, known_to)


widths = st.integers(min_value=1, max_value=128)
exponents = st.integers(min_value=0, max_value=2000)


class TestFrobeniusPowers:
    @given(mult=multipliers(), s=exponents, width=widths)
    @settings(max_examples=150, deadline=None)
    def test_pow_matches_exact_power(self, mult, s, width):
        got = mult.pow(s, width)
        assert_same_element(got, certified_part(mult.lam**s, width))

    @given(mult=multipliers(), s=st.integers(min_value=1, max_value=2000), width=widths)
    @settings(max_examples=150, deadline=None)
    def test_one_minus_pow_matches_exact(self, mult, s, width):
        want = LaurentElement.one(mult.p) - mult.lam**s
        got = mult.one_minus_pow(s, width)
        assert got.vmin == want.vmin == mult.c * mult.p ** val_p(s, mult.p)
        assert_same_element(got, certified_part(want, want.vmin + width))
        assert_same_element(mult.one_minus_pow(s), want)

    @given(mult=multipliers(), s=st.integers(min_value=1, max_value=2000), width=widths)
    @settings(max_examples=100, deadline=None)
    def test_inv_prefactor_matches_exact_route(self, mult, s, width):
        one = LaurentElement.one(mult.p)
        want = (mult.lam * (one - mult.lam**s)).inverse(width)
        assert_same_element(mult.inv_prefactor(s, width), want)

    @given(
        mult=multipliers(),
        j=st.integers(min_value=0, max_value=3),
        m=st.integers(min_value=1, max_value=2000),
        width=widths,
    )
    @settings(max_examples=100, deadline=None)
    def test_psi_factor_matches_exact_route(self, mult, j, m, width):
        lam, one = mult.lam, LaurentElement.one(mult.p)
        q = mult.p**j
        denom = (one - lam**q) * lam ** (m - 1)
        want = (one - lam**m) * denom.inverse(width)
        assert_same_element(mult.psi_factor(q, m, width), want)

    @given(mult=multipliers(), e=st.integers(min_value=0, max_value=600), width=widths)
    @settings(max_examples=100, deadline=None)
    def test_window_pow_keeps_the_exactness_rule(self, mult, e, width):
        lam = mult.lam
        if (len(lam.coeffs) - 1) * e < 4 * width:
            want = lam**e
        else:
            want = lam.truncate(width) ** e
        assert_same_element(mult.window_pow(e, width), want)

    def test_pow_of_a_power_of_p_is_a_substitution(self):
        # lambda^(p^3) is lambda with t replaced by t^(p^3)
        mult = make_lambda(PrimeContext(5), "1 + t + 3*t^2")
        want = el(5, "1 + t^125 + 3*t^250")
        assert_same_element(mult.pow(5**3, 400), certified_part(want, 400))
        assert_same_element(mult.pow(5**3, 200), certified_part(want, 200))
        assert_same_element(mult.pow(5**3, 125), LaurentElement(5, 0, [1], 125))


class TestSharedMultiplier:
    def test_equal_p_and_lambda_share_one_multiplier(self):
        a = make_lambda(PrimeContext(5))
        b = make_lambda(PrimeContext(5, default_window=8, max_window=16), "1 + t")
        c = make_lambda(PrimeContext(5), LaurentElement.from_terms(5, {0: 1, 1: 1}))
        assert a is b is c

    def test_distinct_p_or_lambda_do_not_share(self):
        a = make_lambda(PrimeContext(5))
        assert make_lambda(PrimeContext(3)) is not a
        assert make_lambda(PrimeContext(7)) is not a
        assert make_lambda(PrimeContext(5), "1 + t^2") is not a
        assert make_lambda(PrimeContext(5), "1 + 2*t") is not a
        assert make_lambda(PrimeContext(3)).p == 3

    def test_interned_multipliers_are_bounded(self):
        kept = _shared_multiplier.cache_info().maxsize
        first = make_lambda(PrimeContext(7), "1 + t^99")
        for e in range(100, 100 + kept + 5):
            make_lambda(PrimeContext(7), f"1 + t^{e}")
        assert _shared_multiplier.cache_info().currsize <= kept
        assert make_lambda(PrimeContext(7), "1 + t^99") is not first

    def test_at_most_two_widths_are_kept(self):
        mult = Multiplier(PrimeContext(5), el(5, "1 + t"))
        for width in (8, 16, 32):
            mult.inv_prefactor(3, width)
            mult.psi_factor(5, 4, width)
            mult.window_pow(40, width)
        assert sorted(mult._widths) == [16, 32]
        mult.inv_prefactor(3, 16)  # 16 is now the width used last
        mult.inv_prefactor(3, 64)
        assert sorted(mult._widths) == [16, 64]

    def test_values_do_not_depend_on_the_other_width(self):
        shared = Multiplier(PrimeContext(5), el(5, "1 + t + t^3"))
        for width in (8, 128, 8, 64, 8):
            fresh = Multiplier(PrimeContext(5), el(5, "1 + t + t^3"))
            for s in (1, 5, 25, 26, 130):
                assert_same_element(shared.inv_prefactor(s, width), fresh.inv_prefactor(s, width))
                assert_same_element(shared.psi_factor(5, s, width), fresh.psi_factor(5, s, width))


# the window invariant: known_to never over-claims

@st.composite
def exact_and_truncated(draw, p):
    """An exact element and a truncation of it: its horizon may cut into the
    stored coefficients or lie below them (a horizon zero)."""
    width = draw(st.integers(min_value=1, max_value=10))
    vmin = draw(st.integers(min_value=-5, max_value=5))
    coeffs = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=width, max_size=width))
    if not any(coeffs):
        coeffs[0] = 1
    exact = LaurentElement(p, vmin, coeffs)
    if draw(st.booleans()):
        return exact, exact
    known_to = exact.vmin + draw(st.integers(min_value=-2, max_value=width + 2))
    return exact, LaurentElement(p, vmin, coeffs, known_to)


def assert_certified_agree(got, want):
    """Every coefficient that got certifies equals want's; want must be
    certified at least as far."""
    if got.known_to is None:
        assert want.known_to is None
        assert_same_element(got, want)
        return
    assert want.known_to is None or want.known_to >= got.known_to
    lo = min([got.known_to] + [x.vmin for x in (got, want) if x.coeffs])
    for e in range(lo, got.known_to):
        assert got.coefficient(e) == want.coefficient(e), e


class TestWindowInvariant:
    @given(data=st.data(), p=st.sampled_from([3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_ring_operations(self, data, p):
        a, ta = data.draw(exact_and_truncated(p))
        b, tb = data.draw(exact_and_truncated(p))
        assert_certified_agree(ta + tb, a + b)
        assert_certified_agree(ta - tb, a - b)
        assert_certified_agree(ta * tb, a * b)

    @given(data=st.data(), p=st.sampled_from([3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_inverse(self, data, p):
        a, ta = data.draw(exact_and_truncated(p))
        if not ta.has_certified_leading_term():
            with pytest.raises(UncertifiedLeadingTerm):
                ta.inverse()
            return
        width = data.draw(st.integers(min_value=1, max_value=16))
        got = ta.inverse(width)
        # the exact element inverted past got's horizon is the slow path
        want = a.inverse(width + 4) if a.exact and len(a.coeffs) > 1 else a.inverse()
        assert_certified_agree(got, want)
