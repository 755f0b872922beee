"""The kernel quantity, level sums, conjugacy coefficients, and their
independent oracles (enumeration, level recursion, star factorization,
truncated composition)."""

import gc
import math
import weakref
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charp.combinat import (
    Chain,
    binomial_residue,
    enumerate_chains,
    enumerate_I,
    enumerate_star_chains,
    multinomial_residue,
)
from charp.errors import DegenerateLinearMap, DivisibilityViolation
from charp.field import LaurentElement, val_p_ext
from charp.recurrence import (
    LevelTable,
    Phi,
    Phi_chain,
    _binomial_row,
    _carry_free_gaps,
    _support_sums,
    b_coeffs,
    b_via_structure,
    conjugacy_residual,
    phi_k,
    phi_k_via_recursion,
    psi_k,
)
from charp.criterion import verdict

from conftest import (
    make_map,
    multinomial_by_factorials,
    numerator_by_enumeration,
    phi_by_enumeration,
    quadratic,
    random_maps,
)

INF = math.inf


class TestPhi:
    def test_first_window_of_quadratic(self, quad):
        # a_1 / (lambda (1 - lambda)) = -1/(t(1+t)): leading coefficient 4*t^-1
        x = Phi(quad, 0, 1)
        assert x.vmin == -1
        assert x.coefficient(-1) == 4
        assert quad.multiplier.val_mu(x) == -1

    def test_vanishes_when_top_digit_overflows(self):
        # p | r+1 and p does not divide s-r: every residue dies
        f = make_map(5, {1: 1, 2: 1, 3: 1})
        assert Phi(f, 4, 6).is_exact_zero()
        assert Phi(f, 9, 12).is_exact_zero()

    def test_vanishes_off_support_gcd(self):
        f = make_map(5, {2: 1})  # u = 2: windows with odd s - r are empty
        assert Phi(f, 0, 3).is_exact_zero()
        assert Phi(f, 1, 4).is_exact_zero()
        assert not Phi(f, 1, 5).is_exact_zero()

    def test_empty_window_is_structural_zero(self, quad):
        # single-term support: I(0, s) empty for s >= 2
        assert Phi(quad, 0, 2).is_exact_zero()


class TestPhiChain:
    def test_single_pair(self, quad):
        c = Chain((0, 1), 1)
        assert Phi_chain(quad, c).agrees_with(Phi(quad, 0, 1))

    def test_two_factor_product(self, quad):
        c = Chain((0, 1, 2), INF)
        assert Phi_chain(quad, c).agrees_with(Phi(quad, 0, 1) * Phi(quad, 1, 2))

    def test_poisoned_chain_vanishes(self):
        # p | u*beta_j + 1 at an interior point kills the product
        f = make_map(5, {1: 1, 2: 1})
        c = Chain((0, 4, 6), 1)  # u*4 + 1 = 5
        assert Phi_chain(f, c).is_exact_zero()


class TestPhiK:
    def test_level_zero_is_single_window(self, quad):
        for (r, s) in [(0, 1), (1, 3), (2, 7)]:
            assert phi_k(quad, 0, r, s).agrees_with(Phi(quad, quad.u * r, quad.u * s))

    def test_two_chain_window(self, quad):
        want = Phi(quad, 0, 1) * Phi(quad, 1, 2) + Phi(quad, 0, 2)
        assert phi_k(quad, 1, 0, 2).agrees_with(want)

    def test_quadratic_level_one_value(self, quad):
        # the worked slope drop: val_mu(phi_1(0, 5)) = 5*val_mu(a_1) - 2*5 + 2
        assert quad.multiplier.val_mu(phi_k(quad, 1, 0, 5)) == -8

    def test_dp_matches_enumeration(self):
        # random maps, the linearizable family (nearly every DP node is an
        # exact zero) and a narrow window with horizon zeros; exactness must
        # agree too, since a horizon zero is not an exact zero
        lin_family = [
            make_map(5, {4: "1"}),
            make_map(5, {4: "3*t^2"}),
            make_map(5, {9: "t"}),
            make_map(3, {2: "2*t^3"}),
            make_map(3, {5: "t^-1"}),
        ]
        narrow = make_map(5, {1: 1, 2: "t^100"}, default_window=8)
        for f in random_maps(seed=11, count=10) + lin_family + [narrow]:
            for k in (0, 1, 2, INF):
                for (r, s) in [(0, 3), (0, 7), (1, 8), (2, 12), (0, 10), (0, 12)]:
                    dp = phi_k(f, k, r, s)
                    oracle = phi_by_enumeration(f, k, r, s)
                    assert dp.agrees_with(oracle), (f.p, f.support, k, r, s)
                    assert dp.is_exact_zero() == oracle.is_exact_zero(), (f.p, f.support, k, r, s)

    def test_structural_zero_level(self):
        # u = 4 with p = 5: every chain product on (0, 5d) dies
        f = make_map(5, {4: 1})
        assert phi_k(f, 1, 0, 5).is_exact_zero()
        assert phi_k(f, 2, 0, 25).is_exact_zero()


class TestSparseLevelDP:
    # the DP stores only nodes that are not exact zeros and skips edges whose
    # gap is missing from the carry-free gaps of their base point; both
    # shortcuts are checked against the slow path

    @given(
        p=st.sampled_from([3, 5, 7]),
        support=st.sets(st.integers(1, 9), min_size=1, max_size=3),
        exps=st.lists(st.sampled_from([0, 2, 7, 100]), min_size=3, max_size=3),
        window=st.sampled_from([8, 64]),
        r=st.integers(0, 30),
        gap=st.integers(1, 80),
    )
    @settings(max_examples=300, deadline=None)
    def test_empty_window_prediction(self, p, support, exps, window, r, gap):
        f = make_map(p, {i: f"t^{e}" for i, e in zip(sorted(support), exps)}, default_window=window)
        t = f.table()
        s = r + gap
        alphas = enumerate_I(f, r, s)
        beyond_weight = gap > (r + 1) * max(support)
        if not _carry_free_gaps(r + 1, p, f.support) >> gap & 1:
            assert t.numerator(r, s).is_exact_zero()
            if beyond_weight:
                assert alphas == []
        else:
            # a carry-free gap always has a multi-index behind it
            assert not beyond_weight and alphas
        # past the weight bound no gap is set; the bound is tight for a
        # support containing 1 alone
        assert not beyond_weight or alphas == []
        assert support != {1} or beyond_weight or alphas

    def test_prediction_never_claims_a_horizon_zero(self):
        narrow = make_map(5, {1: 1, 2: "t^100"}, default_window=8)
        t = narrow.table()

        def predicted_zero(r, s):
            return not _carry_free_gaps(r + 1, 5, narrow.support) >> (s - r) & 1

        for (r, s) in [(5, 7), (10, 12)]:
            assert not predicted_zero(r, s)
            assert not t.numerator(r, s).is_exact_zero()
        # (4, 6) is within the weight bound, but 5 = r + 1 carries
        for (r, s) in [(0, 3), (1, 6), (4, 15), (4, 6)]:
            assert predicted_zero(r, s)
            assert t.numerator(r, s).is_exact_zero()
        # every window whose numerator is a horizon zero (the t^100 term lies
        # past the window) or a value keeps its gap
        horizon_zeros = 0
        for r in range(0, 30):
            for s in range(r + 1, r + 50):
                num = t.numerator(r, s)
                if not num.is_exact_zero():
                    assert not predicted_zero(r, s), (r, s)
                    horizon_zeros += num.is_zero_within_window()
        assert horizon_zeros

    def test_horizon_zero_nodes_are_kept(self):
        # phi_1(4, 9) vanishes only up to the narrow window: the sweep must
        # store it, since a swept node missing from the state reads as an
        # exact zero, and later targets must inherit its horizon
        for k in (1, INF):
            f = make_map(5, {1: "t^100", 2: 1}, default_window=8)
            for s in (14, 9, 11):
                dp = phi_k(f, k, 4, s)
                oracle = phi_by_enumeration(f, k, 4, s)
                assert dp.agrees_with(oracle), (k, s)
                assert dp.is_exact_zero() == oracle.is_exact_zero(), (k, s)
            node = phi_k(f, k, 4, 9)
            assert node.is_zero_within_window() and not node.is_exact_zero()

    @given(
        p=st.sampled_from([3, 5, 7]),
        u=st.sampled_from([2, 3]),
        multiples=st.sets(st.integers(1, 4), min_size=1, max_size=2),
        exps=st.lists(st.sampled_from([0, 1, 3, 100]), min_size=2, max_size=2),
        window=st.sampled_from([8, 64]),
        k=st.sampled_from([0, 1, 2, INF]),
        r=st.integers(0, 12),
        gap=st.integers(1, 40),
        inadmissible=st.booleans(),
    )
    # {2: t^100, 4: 1} at window 8 stores horizon-zero nodes (4, 10 and 16
    # from r = 1; 13 from r = 4)
    @example(p=3, u=2, multiples={1, 2}, exps=[100, 0], window=8, k=1, r=1, gap=20, inadmissible=False)
    @example(p=3, u=2, multiples={1, 2}, exps=[100, 0], window=8, k=INF, r=4, gap=12, inadmissible=True)
    @settings(max_examples=150, deadline=None)
    def test_reach_sweep_matches_a_full_sweep(
        self, p, u, multiples, exps, window, k, r, gap, inadmissible
    ):
        # the slow path: _node_value at every admissible point, stored unless
        # an exact zero; the reach-driven sweep must store the same nodes,
        # horizon zeros included, with the same values and the same hi
        support = sorted(u * m for m in multiples)
        f = make_map(p, {i: f"t^{e}" for i, e in zip(support, exps)}, default_window=window)
        s = r + gap
        if inadmissible and k != INF:
            q = p ** int(k)
            s = max(q * (s // q), q * (r // q + 1))  # a multiple of p^k past r
        t = LevelTable(f)
        value = t.phi(k, r, s)
        slow = LevelTable(f)
        g = {r: LaurentElement.one(p)}
        top = s if slow._interior_ok(k, s) else s - 1
        for x in range(r + 1, top + 1):
            if slow._interior_ok(k, x):
                val = slow._node_value(g, x)
                if not val.is_exact_zero():
                    g[x] = val
        expect = g.get(s, LaurentElement.zero(p)) if top == s else slow._node_value(g, s)
        state = t._dp[(k, r)]
        assert list(state["g"].items()) == list(g.items())
        assert state["hi"] == top
        assert value == expect


class TestCarryFreeGaps:
    # the gap sets that let the DP skip an edge without building its
    # numerator, checked against multinomials from big-integer factorials

    @given(
        p=st.sampled_from([3, 5, 7, 257]),
        support=st.sets(st.integers(1, 6), min_size=1, max_size=2),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bits_are_the_nonzero_residues(self, p, support, data):
        # r + 1 runs over up to four base-p digits (two for p = 257)
        n = data.draw(st.integers(1, min(p**4, 400) - 1), label="r + 1")
        r = n - 1
        f = make_map(p, {i: "t" for i in support}, default_window=8)
        gaps = _carry_free_gaps(n, p, f.support)
        top = n * max(support)
        # the top bit is alpha = n at the largest index, whose residue is 1
        assert gaps.bit_length() - 1 == top
        set_bits = [d for d in range(1, top + 1) if gaps >> d & 1]
        picked = data.draw(st.lists(st.integers(1, top + 3), min_size=3, max_size=3), label="gaps")
        picked += data.draw(st.lists(st.sampled_from(set_bits), min_size=3, max_size=3), label="set gaps")
        for d in picked:
            alphas = enumerate_I(f, r, r + d)
            nonzero = any(multinomial_by_factorials(n, a.parts()) % p for a in alphas)
            assert bool(gaps >> d & 1) == nonzero, (n, d)
            if not nonzero:
                assert f.table().numerator(r, r + d).is_exact_zero()

    @given(
        p=st.sampled_from([3, 5, 7]),
        u=st.sampled_from([2, 3, 4]),
        units=st.sets(st.integers(1, 5), min_size=1, max_size=3),
        n=st.integers(1, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_unit_support_counts_in_units_of_u(self, p, u, units, n):
        # the DP reads the set of support/u: bit d there is bit u*d of the
        # set of the support itself, which has no bit off the multiples of u
        unit_support = tuple(sorted(units))
        support = tuple(u * i for i in unit_support)
        scaled = _carry_free_gaps(n, p, unit_support)
        gaps = _carry_free_gaps(n, p, support)
        assert gaps.bit_length() - 1 == u * (scaled.bit_length() - 1)
        for e in range(gaps.bit_length()):
            if e % u:
                assert not gaps >> e & 1, (n, e)
            else:
                assert bool(scaled >> (e // u) & 1) == bool(gaps >> e & 1), (n, e)

    def test_sum_rows(self):
        # row m holds the sums of at most m support elements
        support = (2, 3, 7)
        gaps = _carry_free_gaps(6, 7, support)  # one digit: the row of 6
        rows = _support_sums(support)
        assert gaps == rows[6]
        for m in range(7):
            sums = {sum(c) for k in range(m + 1) for c in combinations_with_replacement(support, k)}
            assert {e for e in range(rows[m].bit_length()) if rows[m] >> e & 1} == sums

    @pytest.mark.parametrize("p", [100000000000031, 2**61 - 1])
    def test_large_primes_grow_rows_to_the_digits_seen(self, p):
        # every n below p is one digit, so the set is the row of n; the rows
        # grow to the largest digit asked for, not to p
        support = (1, 4)
        _support_sums.cache_clear()
        _carry_free_gaps.cache_clear()
        f = make_map(p, {1: 1, 4: "t"}, default_window=8)
        for n in range(1, 91, 3):
            gaps = _carry_free_gaps(n, p, support)
            assert gaps.bit_length() - 1 == 4 * n
            assert gaps == _support_sums(support)[n]
            if n <= 16:
                for d in range(1, 4 * n + 1):
                    alphas = enumerate_I(f, n - 1, n - 1 + d)
                    nonzero = any(multinomial_by_factorials(n, a.parts()) % p for a in alphas)
                    assert bool(gaps >> d & 1) == nonzero
        assert len(_support_sums(support)) == 89

    @given(
        p=st.sampled_from([3, 5]),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
        exps=st.lists(st.integers(-1, 4), min_size=2, max_size=2),
        units=st.lists(st.integers(1, 4), min_size=2, max_size=2),
        k=st.sampled_from([0, 1, 2, INF]),
        r=st.integers(0, 6),
        gap=st.integers(1, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_lin_family_dp_matches_enumeration(self, p, picks, exps, units, k, r, gap):
        # every support index i has p | i + 1, so nearly every residue
        # vanishes and most edges are skipped
        support = sorted(p * (j + 1) - 1 for j in picks)
        coeffs = {i: f"{c % p or 1}*t^{e}" for i, e, c in zip(support, exps, units)}
        f = make_map(p, coeffs)
        t = LevelTable(f)  # the oracle builds its numerators on f.table()
        dp = t.phi(k, r, r + gap)
        oracle = phi_by_enumeration(f, k, r, r + gap)
        assert dp.agrees_with(oracle), (coeffs, k, r, r + gap)
        assert dp.is_exact_zero() == oracle.is_exact_zero(), (coeffs, k, r, r + gap)
        if len(support) == 1:
            # one solution per gap: an edge the gap set keeps has a nonzero
            # term, so the DP built no exact-zero numerator at all
            assert not any(num.is_exact_zero() for num in t._num.values())


class TestNumerator:
    # the numerator sums its terms with one packed dot and splits each
    # residue into binom(r+1, w) and a per-gap factor; both are checked
    # against the multinomial sum over enumerate_I.  Monomial coefficients
    # and r <= 14 keep every power the table builds exact, so the two agree
    # to the last field, known_to included.

    @given(
        p=st.sampled_from([3, 5, 7]),
        support=st.sets(st.integers(1, 6), min_size=1, max_size=3),
        exps=st.lists(st.sampled_from([-3, 0, 2, 7, 40]), min_size=3, max_size=3),
        window=st.sampled_from([4, 8, 64]),
        r=st.integers(0, 14),
        gap=st.integers(1, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, p, support, exps, window, r, gap):
        f = make_map(p, {i: f"t^{e}" for i, e in zip(sorted(support), exps)}, default_window=window)
        got = f.table().numerator(r, r + gap)
        want = numerator_by_enumeration(f, r, r + gap, window)
        assert (got.vmin, got.coeffs, got.known_to) == (want.vmin, want.coeffs, want.known_to)

    @pytest.mark.parametrize(
        "window, r, s, known_to",
        [
            (4, 6, 15, 12),  # one kept term; the far solution leaves t^12
            (2, 3, 9, 9),  # every kept residue vanishes; a horizon zero
        ],
    )
    def test_zero_factor_solution_sets_the_floor(self, window, r, s, known_to):
        # the least valuation floor belongs to a solution whose per-gap
        # factor vanishes (alpha_1, alpha_2 = 5, 2 and 2, 2: 7!/(5!2!) = 21
        # and 4!/(2!2!) = 6); it must still set the floor, or the cap, and
        # with it the horizon, moves
        f = make_map(3, {1: 1, 2: "t^3"}, default_window=window)
        alphas = enumerate_I(f, r, s)
        lowest = min(alphas, key=lambda a: a[2])  # the floor is 3 * alpha_2
        inner = [v for i, v in lowest.entries if i]
        assert multinomial_residue(sum(inner), inner, 3) == 0
        got = f.table().numerator(r, s)
        want = numerator_by_enumeration(f, r, s, window)
        assert got == want
        assert got.known_to == known_to

    def test_escalation_keeps_gap_data(self):
        f = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=1, max_window=16)
        t = f.table()
        before = {d: t._gap_solutions(d) for d in (1, 4, 6)}
        t.numerator(3, 9)
        t.escalate()
        assert t.window == 2
        for d, data in before.items():
            assert t._gap_solutions(d) is data
        fresh = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=2).table()
        for (r, s) in [(3, 9), (0, 4), (2, 3)]:
            assert t.numerator(r, s) == fresh.numerator(r, s)


class TestBinomialRows:
    # the numerator reads binom(r+1, w) mod p from one cached row per
    # (r+1, p) instead of calling binomial_residue per solution

    @given(p=st.sampled_from([3, 5, 7, 257, 1009]), n=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_row_matches_lucas_and_factorials(self, p, n):
        row = _binomial_row(n, p)
        assert len(row) == n + 1
        for w in range(n + 1):
            assert row[w] == binomial_residue(n, w, p) == math.comb(n, w) % p

    @pytest.mark.parametrize(
        "p, coeffs, windows",
        [
            # binom(11, 4) = 330 is a residue above 255 at r = 10
            (1009, {1: 1, 2: "t^3"}, [(r, r + g) for r in (10, 11, 12) for g in range(1, 9)]),
            # binom(256, w) mod 263 runs through residues above 255
            (263, {1: 1}, [(255, 255 + g) for g in range(1, 6)] + [(260, 263)]),
        ],
    )
    def test_large_prime_residues(self, p, coeffs, windows):
        # residues run up to p - 1, well past one byte, for any odd prime
        f = make_map(p, coeffs, default_window=8)
        t = f.table()
        assert any(c > 255 for r, _s in windows for c in _binomial_row(r + 1, p))
        for r, s in windows:
            got = t.numerator(r, s)
            want = numerator_by_enumeration(f, r, s, 8)
            if got.known_to is not None:
                # the table holds lambda powers to the window; the oracle
                # keeps them exact
                assert got.known_to >= got.vmin + 8
                want = want.truncate(got.known_to - got.vmin)
            assert got == want, (r, s)
            assert t.Phi(r, s) == LevelTable(f).Phi(r, s)


class TestKernelMemo:
    # Phi and psi are memoized per window on the table; a memoized value
    # must be the value a cold table computes, also after escalate()

    WINDOWS = [(r, s) for r in range(0, 10) for s in range(r + 1, 13)]
    SAMPLES = [(0, 0, 1), (0, 2, 5), (0, 0, 5), (1, 0, 5), (1, 5, 10), (1, 0, 10), (2, 0, 10), (2, 0, 25)]

    def test_memoized_values_equal_a_fresh_table(self):
        for f in random_maps(seed=61, count=8):
            t = f.table()
            first = {key: t.Phi(*key) for key in self.WINDOWS}
            psis = {key: t.psi(*key) for key in self.SAMPLES}
            for key, val in first.items():
                assert t.Phi(*key) is val
                assert val == LevelTable(f).Phi(*key), (f, key)
            for key, val in psis.items():
                assert t.psi(*key) is val
                assert val == LevelTable(f).psi(*key), (f, key)

    def test_escalate_drops_the_memos(self):
        f = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=2, max_window=64)
        t = f.table()
        before = {("Phi",) + key: t.Phi(*key) for key in self.WINDOWS}
        before.update({("psi",) + key: t.psi(*key) for key in self.SAMPLES})
        moved = 0
        for _ in range(2):
            t.escalate()
            for key, old in before.items():
                kind, args = key[0], key[1:]
                got = getattr(t, kind)(*args)
                fresh = LevelTable(f, window=t.window)
                assert got == getattr(fresh, kind)(*args), (t.window, key)
                moved += got != old
        assert t.window == 8
        assert moved  # a memo kept across escalate would show here

    def test_chain_vanishes_on_its_last_step(self):
        f = make_map(5, {1: 1, 2: 1})
        chain = Chain((0, 1, 4, 6), INF)
        steps = [Phi(f, a, b) for a, b in chain.pairs()]
        assert not steps[0].is_exact_zero() and not steps[1].is_exact_zero()
        assert steps[2].is_exact_zero()  # p | 4 + 1 and p does not divide 6 - 4
        assert Phi_chain(f, chain).is_exact_zero()

    def test_chain_is_the_left_to_right_product(self):
        for f in random_maps(seed=62, count=6):
            u = f.u
            for r, s in [(0, 4), (1, 6), (0, 7)]:
                for chain in enumerate_chains(INF, r, s, f.p, budget=7):
                    want = LaurentElement.one(f.p)
                    for a, b in chain.pairs():
                        want = want * Phi(f, u * a, u * b)
                    assert Phi_chain(f, chain) == want, (f, chain)


class TestLevelRecursion:
    def test_specialization_to_identity(self, quad):
        assert phi_k_via_recursion(quad, 1, 0, 0, 5).agrees_with(phi_k(quad, 1, 0, 5))

    def test_single_chain_when_levels_match(self, quad):
        assert phi_k_via_recursion(quad, 1, 1, 0, 5).agrees_with(phi_k(quad, 1, 0, 5))

    def test_two_level_refinement(self, quad):
        got = phi_k_via_recursion(quad, 2, 1, 0, 25)
        assert got.agrees_with(phi_k(quad, 2, 0, 25))

    def test_grid_violation(self, quad):
        with pytest.raises(DivisibilityViolation):
            phi_k_via_recursion(quad, 2, 1, 0, 7)
        with pytest.raises(DivisibilityViolation):
            phi_k_via_recursion(quad, 1, 2, 0, 25)

    def test_random_maps_all_admissible_levels(self):
        for f in random_maps(seed=23, count=10):
            p = f.p
            cap = 2 * p * p
            for k_prime in (1, 2, INF):
                for k in range(0, 3):
                    if k_prime != INF and k > k_prime:
                        continue
                    q = p**k
                    for (r, s) in [(0, q), (0, 2 * q), (q, 3 * q), (0, 4 * q)]:
                        if s > cap or r >= s:
                            continue
                        if val_p_ext(r, p) < k or val_p_ext(s, p) < k:
                            continue
                        got = phi_k_via_recursion(f, k_prime, k, r, s)
                        want = phi_k(f, k_prime, r, s)
                        assert got.agrees_with(want), (f.p, f.support, k_prime, k, r, s)


class TestStarFactorization:
    def test_identity_on_valid_windows(self):
        # phi_k(r, s) factors through star chains with per-gap levels
        # min(val_p of endpoints); valid when min(val_p(r), val_p(s)) <= k
        for f in [quadratic(), make_map(5, {1: 1, 2: "t"}), make_map(3, {1: 1, 2: "t^2"})]:
            p = f.p
            for k in (0, 1, 2):
                for r in range(0, 10):
                    for s in range(r + 1, r + 9):
                        if min(val_p_ext(r, p), val_p_ext(s, p)) > k:
                            continue
                        lhs = phi_k(f, k, r, s)
                        acc = LaurentElement.zero(p)
                        for xi in enumerate_star_chains(k, r, s, p, budget=8):
                            prod = LaurentElement.one(p)
                            for a, b in xi.pairs():
                                lev = min(val_p_ext(a, p), val_p_ext(b, p))
                                prod = prod * phi_k(f, lev, a, b)
                            acc = acc + prod
                        assert lhs.agrees_with(acc), (f.support, k, r, s)


class TestPsi:
    def test_level_zero_rescaling(self, quad):
        # psi_0(r, s) = Phi(ur, us) * (1-lambda^us) / (lambda^(us-1) (1-lambda^(p^tau)))
        mult = quad.multiplier
        for (r, s) in [(0, 1), (1, 3), (0, 4)]:
            pref = mult.one_minus_pow(s) * (
                mult.one_minus_pow(5 ** quad.tau) * mult.pow(s - 1)
            ).inverse(64)
            want = Phi(quad, r, s) * pref
            assert psi_k(quad, 0, r, s).agrees_with(want)

    def test_valuation_neutral_on_matching_grid(self, quad):
        # val_p(s) = k makes the rescaling valuation-neutral
        mult = quad.multiplier
        assert mult.val_mu(psi_k(quad, 1, 0, 5)) == mult.val_mu(phi_k(quad, 1, 0, 5)) == -8

    def test_first_window_value(self, quad):
        assert quad.multiplier.val_mu(psi_k(quad, 0, 0, 1)) == -1

    def test_rescaling_law_random(self):
        # val psi_k - val phi_k = p^(val_p(s)+tau) - p^(k+tau), a direct
        # consequence of the multiplier power valuations
        import random

        from charp.field import val_p

        rng = random.Random(5)
        for _ in range(30):
            p = rng.choice([3, 5])
            support = sorted(rng.sample(range(1, 5), rng.randint(1, 2)))
            f = make_map(p, {i: f"t^{rng.randint(0, 4)}" for i in support})
            k = rng.choice([0, 1])
            q = p**k
            r = q * rng.randint(0, 3)
            s = r + q * rng.randint(1, 4)
            ph, ps = phi_k(f, k, r, s), psi_k(f, k, r, s)
            if ph.is_exact_zero():
                assert ps.is_exact_zero()
                continue
            diff = f.multiplier.val_mu(ps) - f.multiplier.val_mu(ph)
            assert diff == p ** (val_p(s, p) + f.tau) - p ** (k + f.tau)


class TestConjugacyCoefficients:
    def test_normalization(self, quad):
        b = b_coeffs(quad, 3)
        assert b[0] == LaurentElement.one(5)

    def test_first_coefficient(self, quad):
        assert b_coeffs(quad, 1)[1].agrees_with(Phi(quad, 0, 1))

    def test_off_gcd_indices_vanish(self):
        f = make_map(5, {2: 1})  # u = 2
        b = b_coeffs(f, 8)
        for n in (1, 3, 5, 7):
            assert b[n].is_exact_zero()

    def test_divergent_coefficient(self, quad):
        assert quad.multiplier.val_mu(b_coeffs(quad, 5)[5]) == -8

    def test_structure_route_examples(self, quad):
        b = b_coeffs(quad, 10)
        for n in range(1, 11):
            for k in range(0, val_p_ext(n, 5) + 1 if n else 1):
                assert b_via_structure(quad, n, k).agrees_with(b[n])

    def test_structure_route_off_gcd(self):
        f = make_map(5, {2: 1})
        assert b_via_structure(f, 3, 0).is_exact_zero()

    def test_structure_route_grid_violation(self, quad):
        with pytest.raises(DivisibilityViolation):
            b_via_structure(quad, 3, 1)

    def test_structure_route_random_maps(self):
        for f in random_maps(seed=37, count=6):
            p = f.p
            cap = 2 * p * p
            b = b_coeffs(f, cap)
            for n in range(1, cap + 1):
                if n % f.u:
                    assert b[n].is_exact_zero()
                    continue
                m = n // f.u
                for k in range(0, val_p_ext(m, p) + 1):
                    assert b_via_structure(f, n, k).agrees_with(b[n]), (f.support, n, k)


class TestWindowPruning:
    # solutions far above the leading valuation are dropped from the kernel
    # sums and recorded as a horizon; a wider window must recover them with
    # identical certified data
    def test_windows_agree_across_sizes(self):
        spread = {1: 1, 2: "t^100"}
        narrow = make_map(5, spread, default_window=24)
        wide = make_map(5, spread, default_window=512)
        for (r, s) in [(3, 7), (3, 9), (5, 7), (5, 9), (6, 10), (10, 12)]:
            assert Phi(narrow, r, s).agrees_with(Phi(wide, r, s)), (r, s)
        # the near family carries these windows: certified even when narrow
        assert Phi(narrow, 3, 7).coefficient(-1) != 0
        assert Phi(narrow, 3, 9).vmin == Phi(wide, 3, 9).vmin == 199

    def test_structural_zero_survives_pruning(self):
        # every residue vanishes, including the pruned family's: the narrow
        # window must still prove the exact zero (an infinite slope is a
        # structural fact, never a precision accident)
        f = make_map(5, {1: 1, 2: "t^100"}, default_window=8)
        for (r, s) in [(4, 6), (5, 9), (9, 13)]:
            assert Phi(f, r, s).is_exact_zero()

    def test_surviving_far_family_stays_horizon_zero(self):
        # the near residues vanish but a pruned solution survives: narrow
        # windows must report an honest horizon zero, and the wide window
        # finds the far leading term exactly where the horizon pointed
        narrow = make_map(5, {1: 1, 2: "t^100"}, default_window=8)
        wide = make_map(5, {1: 1, 2: "t^100"}, default_window=2048)
        for (r, s) in [(5, 7), (10, 12)]:
            a = Phi(narrow, r, s)
            b = Phi(wide, r, s)
            assert a.is_zero_within_window() and not a.is_exact_zero()
            assert b.vmin == 99 and not b.is_zero_within_window()
            assert a.known_to <= b.vmin + 1

    def test_oracles_hold_with_dense_coefficients(self):
        f = make_map(5, {1: "1 + t + 2*t^2", 2: "t^-1 + 3*t^3"})
        for k in (0, 1, INF):
            for (r, s) in [(0, 6), (1, 8)]:
                assert phi_k(f, k, r, s).agrees_with(phi_by_enumeration(f, k, r, s))
        res = conjugacy_residual(f, 20)
        assert all(x.is_zero_within_window() for x in res)

    def test_oracles_hold_with_negative_valuations(self):
        f = make_map(5, {1: "4*t^-3", 3: "t^-1 + t"})
        for k in (0, 1):
            for (r, s) in [(0, 5), (2, 8)]:
                assert phi_k(f, k, r, s).agrees_with(phi_by_enumeration(f, k, r, s))
        res = conjugacy_residual(f, 20)
        assert all(x.is_zero_within_window() for x in res)


class TestConjugacyResidual:
    def test_quadratic(self, quad):
        res = conjugacy_residual(quad, 10)
        assert len(res) == 10
        assert all(x.is_zero_within_window() for x in res)

    def test_random_small_support(self):
        for f in random_maps(seed=41, count=8, index_pool=3):
            res = conjugacy_residual(f, 15)
            assert all(x.is_zero_within_window() for x in res), f.support

    def test_residual_windows_are_meaningful(self, quad):
        # the certified windows must reach past where the coefficient data
        # lives, otherwise "zero within window" would be vacuous
        b = b_coeffs(quad, 10)
        res = conjugacy_residual(quad, 10)
        for j, x in enumerate(res, start=2):
            ref = b[j - 1] * quad.lam
            assert x.known_to is None or x.known_to > ref.val_t()


class TestTableLifetime:
    def test_table_dies_with_its_map(self):
        # without the cycle collector: the table must not hold the map that
        # holds it
        gc.disable()
        try:
            f = make_map(5, {1: 1, 4: "t^10"})
            verdict(f, Kmax=2)
            table = weakref.ref(f.table())
            del f
            assert table() is None
        finally:
            gc.enable()

    def test_degenerate_map_still_raises_on_use(self):
        f = make_map(5, {})
        table = f.table()
        with pytest.raises(DegenerateLinearMap):
            table.psi(0, 0, 1)
        with pytest.raises(DegenerateLinearMap):
            psi_k(f, 0, 0, 1)
