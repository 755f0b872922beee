"""Laurent window arithmetic, the mu-adic valuation, and the multiplier."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp.errors import PrecisionExhausted, UncertifiedLeadingTerm
from charp.field import (
    LaurentElement,
    PrimeContext,
    make_lambda,
    parse_laurent,
    val_p,
)

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


# products summed by LaurentElement.dot, checked against the pairwise sum

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


def pairwise_dot(p, triples):
    acc = LaurentElement.zero(p)
    for c, x, y in triples:
        acc = acc + (x * y).scale(c)
    return acc


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
        assert_same_element(LaurentElement.dot(p, triples), pairwise_dot(p, triples))

    def test_products_past_the_horizon_are_cut(self):
        p = 5
        near = LaurentElement(p, 0, [1, 2, 3, 4], 3)  # certified below t^3
        far = el(p, "t^5 + t^9")
        triples = [(1, near, el(p, "1 + t")), (3, far, far), (2, el(p, "t^-1"), el(p, "t^2 + t^4"))]
        got = LaurentElement.dot(p, triples)
        assert got.known_to == 3
        assert_same_element(got, pairwise_dot(p, triples))

    @pytest.mark.parametrize(
        "p, count, width",
        [
            (4294967311, 2, 3),  # p itself does not fit a 32-bit limb
            (65537, 3, 4),  # (p-1)^3 alone exceeds a 32-bit limb
            (257, 20, 20),  # (p-1)^3 fits, but the sum of 20 long products does not
        ],
    )
    def test_limb_overflow_falls_back_to_pairwise(self, p, count, width):
        # every coefficient at p - 1 makes the packed limbs carry if the
        # bound check is wrong
        top = p - 1
        x = LaurentElement(p, 0, [top] * width)
        y = LaurentElement(p, 1, [top] * width, 1 + width)
        triples = [(top, x, y)] * count
        assert_same_element(LaurentElement.dot(p, triples), pairwise_dot(p, triples))
