"""Slope samples, certified bounds, dominance and verdicts."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from charp import criterion
from charp.criterion import (
    M0,
    Mk_bounds,
    Mk_point,
    divergence_witness,
    is_k_dominant,
    level_samples,
    support_gcd,
    verdict,
)
from charp.errors import (
    DegenerateLinearMap,
    DivisibilityViolation,
    DominanceNotCertified,
    PrecisionExhausted,
)
from conftest import make_map, quadratic

INF = math.inf


class TestSupportGcd:
    def test_quadratic(self, quad):
        assert support_gcd(quad) == (1, 0)

    def test_power_family(self):
        assert support_gcd(make_map(5, {5: 1})) == (5, 1)

    def test_gcd_of_two_terms(self):
        assert support_gcd(make_map(5, {2: 1, 4: 1})) == (2, 0)

    def test_degenerate(self):
        with pytest.raises(DegenerateLinearMap):
            support_gcd(make_map(5, {}))


class TestM0:
    def test_quadratic(self, quad):
        assert M0(quad) == -1

    def test_power_family(self):
        assert M0(make_map(5, {5: 1})) == -5

    def test_positive_coefficient_valuation(self):
        assert M0(make_map(5, {1: "t"})) == 0

    def test_min_over_support(self):
        f = make_map(5, {1: "t^3", 2: "t"})
        # (3 - 1)/1 vs (1 - 1)/2
        assert M0(f) == 0


class TestMkPoint:
    def test_quadratic_level_one(self, quad):
        assert Mk_point(quad, 1, 0, 5) == Fraction(-8, 5)

    def test_power_family_level_one(self):
        assert Mk_point(make_map(5, {5: 1}), 1, 0, 5) == -9

    def test_level_zero_adjacent_windows(self, quad):
        for s in (1, 2, 3, 4, 6, 7):
            assert Mk_point(quad, 0, s - 1, s) == -1

    def test_grid_violation(self, quad):
        with pytest.raises(DivisibilityViolation):
            Mk_point(quad, 1, 0, 7)

    def test_structural_zero_gives_inf(self):
        assert Mk_point(make_map(5, {4: 1}), 1, 0, 5) == INF


class TestBounds:
    def test_level_zero_exact(self, quad):
        assert Mk_bounds(quad, 0, []) == (-1, -1)

    def test_level_one_bracket(self, quad):
        lo, hi = Mk_bounds(quad, 1, [(-1, -1)])
        assert lo == Fraction(-9, 5)
        assert hi == Fraction(-8, 5)
        assert lo <= hi

    def test_all_infinite_samples(self):
        f = make_map(5, {4: 1})
        lo, hi = Mk_bounds(f, 1, [(M0(f), M0(f))])
        assert hi == INF


class TestDominance:
    def test_quadratic_level_one(self, quad):
        assert is_k_dominant(quad, 1, [(-1, -1)])

    def test_power_family_level_one(self):
        f = make_map(5, {5: 1})
        assert is_k_dominant(f, 1, [(-5, -5)])

    def test_linearizable_family_never_certifies(self):
        f = make_map(5, {4: 1})
        bounds = [Mk_bounds(f, 0, [])]
        for k in (1, 2, 3):
            assert not is_k_dominant(f, k, bounds)
            bounds.append(Mk_bounds(f, k, bounds))

    def test_soundness_against_upper_bounds(self):
        # a certified level also satisfies the inequality with the sampled
        # upper bounds in place of the lower ones (a stronger right side)
        for f in [quadratic(), make_map(5, {5: 1}), make_map(5, {1: 1, 2: 2})]:
            t = f.table()
            bounds = [Mk_bounds(f, 0, [], t)]
            assert is_k_dominant(f, 1, bounds, t)
            finite = [s.value for s in level_samples(f, 1, t) if s.value != INF]
            threshold = min(hi for _lo, hi in bounds) - Fraction(5**f.tau, 5)
            assert min(finite) <= threshold

    def test_dominance_persists_to_next_level(self):
        # certified maps in the corpus stay certified one level up
        for f in [
            quadratic(),
            make_map(5, {5: 1}),
            make_map(5, {1: 1, 2: 2}),
            make_map(5, {1: 1, 4: "t^10"}),
        ]:
            t = f.table()
            bounds = [Mk_bounds(f, 0, [], t)]
            assert is_k_dominant(f, 1, bounds, t)
            bounds.append(Mk_bounds(f, 1, bounds, t))
            assert is_k_dominant(f, 2, bounds, t), f.support


class TestVerdict:
    def test_quadratic(self, quad):
        rep = verdict(quad, 1)
        assert rep.non_linearizable and rep.level == 1

    def test_cubic_with_unit_ratio(self):
        rep = verdict(make_map(5, {1: 1, 2: 2}), 1)
        assert rep.non_linearizable and rep.level == 1

    def test_linearizable_family_inconclusive(self):
        rep = verdict(make_map(5, {4: 1}), 3)
        assert not rep.non_linearizable
        assert rep.level == 3
        assert rep.status == "inconclusive"

    def test_degenerate_map(self):
        with pytest.raises(DegenerateLinearMap):
            verdict(make_map(5, {}), 1)

    def test_report_invariants(self, quad):
        rep = verdict(quad, 1)
        for lvl in rep.levels:
            assert lvl.lo <= lvl.hi

    def test_two_term_family(self):
        for c in (0, 2, 10):
            f = make_map(5, {1: 1, 4: "1" if c == 0 else f"t^{c}"})
            rep = verdict(f, 2)
            assert rep.non_linearizable, c

    def test_two_term_family_without_quadratic_part(self):
        for c in (0, 1):
            f = make_map(5, {4: "1" if c == 0 else "t"})
            rep = verdict(f, 3)
            assert not rep.non_linearizable, c

    def test_multiplier_choice_does_not_change_slopes(self):
        # val_mu is normalized by val_t(lambda - 1), so the slope data of a
        # map is the same exact rationals for any admissible multiplier
        for lam in ("1 + t^2", "1 + t + 3*t^2", "1 + 2*t^3"):
            f = make_map(5, {1: 1}, lam=lam)
            assert Mk_point(f, 1, 0, 5) == Fraction(-8, 5), lam
            assert verdict(f, 1).non_linearizable, lam

    def test_high_shift_two_term_family_is_honestly_inconclusive(self):
        # the leading coefficient is pushed deep (T large): the certified
        # lower bounds are too loose to certify within three levels, even
        # though the slope samples are genuinely dropping; the checker must
        # say "not certified", never fabricate a certificate
        f = make_map(5, {1: "t^10", 4: "t"})
        rep = verdict(f, 3)
        assert not rep.non_linearizable
        assert [str(l.hi) for l in rep.levels] == ["0", "1", "-3/5", "-7/5"]

    def test_each_level_sampled_once(self, monkeypatch):
        # the p-1 samples of a level feed its bounds and its dominance test
        calls = []
        real = criterion.Mk_point

        def counting(f, k, r, s, table=None):
            calls.append(k)
            return real(f, k, r, s, table)

        monkeypatch.setattr(criterion, "Mk_point", counting)
        for f, Kmax in ((quadratic(), 1), (make_map(5, {4: 1}), 3), (make_map(3, {1: 1, 2: "t"}), 2)):
            calls.clear()
            rep = verdict(f, Kmax)
            assert Counter(calls) == {lvl.k: f.p - 1 for lvl in rep.levels[1:]}

    def test_single_term_dichotomy_sweep(self):
        # z*(lambda + z^n): certified at level 1 exactly when p does not
        # divide n + 1; the divisible cases are the linearizable family
        for n in (1, 2, 3, 5, 6, 7, 8):
            rep = verdict(make_map(5, {n: 1}), 1)
            assert rep.non_linearizable and rep.level == 1, n
        for n in (4, 9):
            rep = verdict(make_map(5, {n: 1}), 3)
            assert not rep.non_linearizable, n


class TestDivergenceWitness:
    def test_quadratic_first_levels(self, quad):
        w = divergence_witness(quad, [1, 2])
        (k1, d1, v1, s1), (k2, d2, v2, s2) = w
        assert (k1, d1, v1, s1) == (1, 1, -8, Fraction(-8, 5))
        assert k2 == 2
        assert s2 <= s1 - Fraction(1, 5)

    def test_slope_matches_level_minimum(self, quad):
        # val_mu(b at u*d_k*p^k) / (u*d_k*p^k) reproduces M_k / u
        w = divergence_witness(quad, [1])
        ((k, d, v, slope),) = w
        assert slope == Mk_point(quad, 1, 0, 5 * d) / quad.u

    def test_refuses_without_certificate(self):
        with pytest.raises(DominanceNotCertified):
            divergence_witness(make_map(5, {4: 1}), [1])


class TestEscalation:
    def test_tuned_cancellation_escalates_and_certifies(self):
        # leading chain products cancel: needs a wider window than 1
        f = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=1, max_window=64)
        assert Mk_point(f, 1, 0, 5) == -1
        assert f.table().window > 1

    def test_tuned_cancellation_exhausts_at_cap(self):
        f = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=1, max_window=1)
        with pytest.raises(PrecisionExhausted):
            Mk_point(f, 1, 0, 5)

    def test_last_step_is_clipped_to_the_cap(self):
        f = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=3, max_window=4)
        assert Mk_point(f, 1, 0, 5) == -1
        assert f.table().window == 4

    def test_exhaustion_is_reported_at_the_cap(self):
        f = make_map(5, {1: 1, 4: "2*t^-2"}, default_window=1, max_window=3)
        with pytest.raises(PrecisionExhausted, match=r"cap 3 reached \(at 3\)$"):
            Mk_point(f, 1, 0, 5)
        assert f.table().window == 3
