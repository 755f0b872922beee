"""Multinomial residues, multi-index enumeration, chain sets."""

import math
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp.combinat import (
    Chain,
    MultiIndex,
    StarChain,
    binomial_residue,
    enumerate_chains,
    enumerate_I,
    enumerate_star_chains,
    is_star_profile,
    lucas_vanishes,
    multinomial_residue,
)
from charp.errors import BudgetExceeded, PartsMismatch
from charp.field import val_p_ext

from conftest import multinomial_by_factorials

INF = math.inf


class _Stub:
    def __init__(self, support):
        self.support = tuple(support)


class TestMultinomial:
    def test_small_examples(self):
        assert multinomial_residue(2, [1, 1], 5) == 2
        # 6 choose (1,5) = 6 = 5 + 1, residue 1 mod 5
        assert multinomial_residue(6, [1, 5], 5) == 1
        # 5!/(3!1!1!) = 20, divisible by 5
        assert multinomial_residue(5, [3, 1, 1], 5) == 0

    def test_parts_mismatch(self):
        with pytest.raises(PartsMismatch):
            multinomial_residue(4, [1, 1], 5)

    def test_permutation_invariance(self):
        assert multinomial_residue(10, [2, 3, 5], 7) == multinomial_residue(10, [5, 2, 3], 7)

    def test_against_factorials_exhaustive(self):
        # partitions of top into <= 4 parts cover all part multisets
        for p in (3, 5, 7):
            for top in range(0, 61):
                for a in range(0, top + 1):
                    for b in range(a, top - a + 1):
                        rem = top - a - b
                        for c in range(b, rem + 1):
                            d = rem - c
                            if d < c:
                                continue
                            parts = [x for x in (a, b, c, d) if x]
                            want = multinomial_by_factorials(top, parts) % p
                            assert multinomial_residue(top, parts, p) == want

    @given(
        parts=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
        p=st.sampled_from([3, 5, 7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_against_factorials_random(self, parts, p):
        top = sum(parts)
        want = multinomial_by_factorials(top, parts) % p
        assert multinomial_residue(top, parts, p) == want


class TestBinomialSplit:
    # the numerator splits binom(r+1; alpha0, parts) as
    # binom(r+1, w) * binom(w; parts), w = sum(parts)

    def test_binomial_against_integers(self):
        for p in (3, 5, 7):
            for n in range(0, 80):
                for k in range(0, n + 1):
                    assert binomial_residue(n, k, p) == math.comb(n, k) % p

    @pytest.mark.parametrize("p", [100000000000031, 2**61 - 1])
    def test_large_primes_need_no_table_of_size_p(self, p):
        from charp.combinat import _FACT_TABLES

        for n in range(0, 90, 7):
            for k in range(n + 1):
                assert binomial_residue(n, k, p) == math.comb(n, k) % p
        parts = [40, 30, 29]
        assert multinomial_residue(99, parts, p) == multinomial_by_factorials(99, parts) % p
        assert multinomial_residue(p + 3, [p, 3], p) == math.comb(p + 3, 3) % p
        # the tables hold the digits seen (up to 99), not p entries
        assert all(len(t) <= 100 for t in _FACT_TABLES[p])

    def test_binomial_rejects_k_outside_range(self):
        for n, k in [(3, 4), (3, -1)]:
            with pytest.raises(PartsMismatch):
                binomial_residue(n, k, 5)

    @given(
        parts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
        extra=st.integers(min_value=0, max_value=60),
        p=st.sampled_from([3, 5, 7, 11]),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_matches_full_multinomial(self, parts, extra, p):
        w = sum(parts)
        top = w + extra  # r + 1, with alpha0 = extra
        split = binomial_residue(top, w, p) * multinomial_residue(w, parts, p) % p
        assert split == multinomial_residue(top, [extra] + parts, p)


class TestLucas:
    def test_examples(self):
        a = MultiIndex(4, 9, ((0, 3), (1, 1), (4, 1)))
        assert lucas_vanishes(4, a, 1, 5)
        assert multinomial_residue(5, a.parts(), 5) == 0
        b = MultiIndex(1, 2, ((0, 1), (1, 1)))
        assert not lucas_vanishes(1, b, 1, 5)
        # equality case: all parts and the top divisible by p^j
        c = MultiIndex(9, 14, ((0, 5), (1, 5)))
        assert not lucas_vanishes(9, c, 1, 5)

    def test_vanishing_implies_zero_residue_exhaustive(self):
        for p in (3, 5):
            f = _Stub(range(1, 13))
            for r in range(0, 12):
                for s in range(r + 1, 13):
                    for alpha in enumerate_I(f, r, s):
                        for j in (1, 2):
                            if lucas_vanishes(r, alpha, j, p):
                                assert multinomial_residue(r + 1, alpha.parts(), p) == 0


class TestEnumerateI:
    def test_single_term_support(self):
        sols = enumerate_I(_Stub([1]), 0, 1)
        assert [s.entries for s in sols] == [((1, 1),)]

    def test_weight_excludes_fat_solution(self):
        # support {1, 2}, window (0, 2): alpha_1 = 2 violates |alpha| = 1
        sols = enumerate_I(_Stub([1, 2]), 0, 2)
        assert [s.entries for s in sols] == [((2, 1),)]

    def test_two_equation_solve(self):
        sols = enumerate_I(_Stub([1]), 1, 2)
        assert [s.entries for s in sols] == [((0, 1), (1, 1))]

    def test_invariants_and_lex_order(self):
        f = _Stub([1, 2, 3])
        for (r, s) in [(0, 4), (2, 7), (3, 5)]:
            sols = enumerate_I(f, r, s)
            keys = [a.values_ext() for a in sols]
            assert keys == sorted(keys)
            for a in sols:
                assert a.weight == r + 1
                assert a.degree == s - r
                assert all(i == 0 or i in f.support for i, _v in a.entries)

    def test_brute_force_agreement(self):
        # independent oracle: scan the full integer box
        f = _Stub([1, 3])
        for (r, s) in [(0, 5), (1, 6), (2, 4)]:
            want = []
            n = s - r
            for vals in iproduct(*[range(0, r + 2) for _ in range(n + 1)]):
                if any(v and i not in (0, 1, 3) for i, v in enumerate(vals)):
                    continue
                if sum(vals) == r + 1 and sum(i * v for i, v in enumerate(vals)) == n:
                    want.append(tuple((i, v) for i, v in enumerate(vals) if v))
            got = [a.entries for a in enumerate_I(f, r, s)]
            assert sorted(got) == sorted(want)


class TestChains:
    def test_level_zero_is_single_chain(self):
        assert [c.terms for c in enumerate_chains(0, 3, 7, 5)] == [(3, 7)]

    def test_level_one_full_interior(self):
        chains = enumerate_chains(1, 0, 5, 5)
        assert len(chains) == 16  # all subsets of {1,2,3,4}

    def test_unrestricted_chains(self):
        chains = enumerate_chains(INF, 0, 3, 5)
        assert [c.terms for c in chains] == [(0, 1, 2, 3), (0, 1, 3), (0, 2, 3), (0, 3)]

    def test_count_identity(self):
        for (r, s) in [(0, 4), (1, 7), (2, 10)]:
            assert len(enumerate_chains(INF, r, s, 3)) == 2 ** (s - r - 1)

    def test_interior_avoids_level_multiples(self):
        for c in enumerate_chains(1, 0, 12, 5, budget=12):
            assert all(x % 5 for x in c.terms[1:-1])

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_chains(INF, 0, 25, 5, budget=20)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            Chain((3, 3), 1)


class TestStarChains:
    def test_two_term_chains_always_qualify(self):
        for (r, s) in [(0, 1), (3, 9), (5, 25)]:
            assert is_star_profile((r, s), 5)

    def test_drop_then_rise_excluded(self):
        # val_p profile of (0, 2, 5, 6) over p=5 is (inf, 0, 1, 0): the rise
        # 0 -> 1 after the initial drop disqualifies it
        assert not is_star_profile((0, 2, 5, 6), 5)
        with pytest.raises(ValueError):
            StarChain((0, 2, 5, 6), 1, 5)

    def test_subset_of_level_chains(self):
        for k in (0, 1, 2):
            for (r, s) in [(0, 6), (1, 8), (5, 11)]:
                stars = {c.terms for c in enumerate_star_chains(k, r, s, 5)}
                full = {c.terms for c in enumerate_chains(k, r, s, 5, budget=8)}
                assert stars <= full

    def test_gluing_bijection(self):
        # each level-k chain splits uniquely into a star chain with gap
        # chains at level min(val_p of the endpoints); valid whenever
        # min(val_p(r), val_p(s)) <= k
        import itertools

        for p in (3, 5):
            for k in (0, 1, 2):
                for r in range(0, 8):
                    for s in range(r + 1, r + 9):
                        if min(val_p_ext(r, p), val_p_ext(s, p)) > k:
                            continue
                        glued = []
                        for xi in enumerate_star_chains(k, r, s, p, budget=8):
                            gaps = []
                            for a, b in xi.pairs():
                                lev = min(val_p_ext(a, p), val_p_ext(b, p))
                                gaps.append([c.terms for c in enumerate_chains(lev, a, b, p, budget=8)])
                            for combo in itertools.product(*gaps):
                                merged = combo[0]
                                for piece in combo[1:]:
                                    merged = merged + piece[1:]
                                glued.append(merged)
                        want = sorted(c.terms for c in enumerate_chains(k, r, s, p, budget=8))
                        assert sorted(glued) == want, (p, k, r, s)
