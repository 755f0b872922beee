"""The verification suite: individual checks and the seeded runner."""

import pytest

from charp.errors import UncertifiedLeadingTerm
from charp.field import LaurentElement, PrimeContext, make_lambda
from charp.lemma_lab import (
    FAIL,
    PASS,
    SKIP,
    _bound_case,
    _certify_bound,
    check_extremal_residue,
    check_congruence,
    check_deep_level,
    check_level_lift,
    check_lucas_exhaustive,
    check_mu_similarity,
    check_two_term_family,
    check_window_vanishing,
    run_suite,
)

from conftest import make_map


class TestCongruence:
    def test_zero_shift_trivially_passes(self, quad):
        case = check_congruence(quad, 1, 0, 5, 0)
        assert case.outcome == PASS

    def test_level_one_shift(self, quad):
        case = check_congruence(quad, 1, 0, 5, 5)
        assert case.outcome == PASS

    def test_level_zero_variant(self, quad):
        for (r, s, m) in [(0, 1, 1), (0, 3, 2), (1, 4, 3), (2, 5, 10)]:
            assert check_congruence(quad, 0, r, s, m).outcome == PASS

    def test_grid_validation(self, quad):
        with pytest.raises(ValueError):
            check_congruence(quad, 1, 0, 5, 3)

    def test_skip_at_tiny_window(self):
        f = make_map(5, {1: 1}, default_window=1, max_window=1)
        case = check_congruence(f, 1, 0, 5, 5)
        assert case.outcome == SKIP

    def test_failure_detail_carries_both_sides(self, quad):
        case = check_congruence(quad, 1, 0, 5, 5)
        assert "bound=" in case.detail and "val=" in case.detail


class TestLevelLift:
    def test_examples(self, quad):
        assert check_level_lift(quad, 0, 0, 5).outcome == PASS
        assert check_level_lift(quad, 0, 1, 3).outcome == PASS
        assert check_level_lift(quad, 1, 0, 10).outcome == PASS

    def test_structural_zero_side(self):
        f = make_map(5, {4: 1})
        assert check_level_lift(f, 0, 0, 5).outcome == PASS


class TestDeepLevel:
    def test_examples(self, quad):
        assert check_deep_level(quad, 1, 1, 6).outcome == PASS
        assert check_deep_level(quad, 2, 1, 6).outcome == PASS

    def test_multi_term_map(self):
        f = make_map(5, {2: 1, 4: 1})
        assert check_deep_level(f, 1, 2, 8).outcome == PASS

    def test_precondition(self, quad):
        with pytest.raises(ValueError):
            check_deep_level(quad, 1, 0, 25)  # min val_p too high for k=1


class TestAlphaAndLucas:
    def test_alpha_residues(self):
        for p in (3, 5, 7):
            assert all(c.outcome == PASS for c in check_extremal_residue(p))

    def test_lucas_exhaustive(self):
        for p in (3, 5):
            assert check_lucas_exhaustive(p, 8).outcome == PASS

    def test_mu_similarity(self):
        for p in (3, 5):
            mult = make_lambda(PrimeContext(p))
            (case,) = check_mu_similarity(mult, 100)
            assert case.outcome == PASS


class TestWindowVanishing:
    def test_dense_map(self):
        f = make_map(5, {1: 1, 2: 1, 3: 1})
        cases = check_window_vanishing(f)
        assert {c.name for c in cases} == {"window-vanishing", "chain-vanishing"}
        assert all(c.outcome == PASS for c in cases)

    def test_p_divisible_gcd_skips_chain_check(self):
        f = make_map(5, {5: 1})
        cases = check_window_vanishing(f)
        assert [c.name for c in cases] == ["window-vanishing"]
        assert cases[0].outcome == PASS


class TestTwoTermFamily:
    def test_case_one_value(self):
        f = make_map(5, {1: 1, 4: "t^10"})  # T = -9/4
        cases = check_two_term_family(f)
        names = {c.name: c for c in cases}
        assert names["twoterm-low-T-phi"].outcome == PASS
        assert "val=-8" in names["twoterm-low-T-phi"].detail
        assert names["twoterm-low-T-slope"].outcome == PASS

    def test_case_one_with_larger_shift(self):
        f = make_map(5, {1: 1, 4: "t^29"})  # T = -7: still the first regime
        cases = check_two_term_family(f)
        assert all(c.outcome == PASS for c in cases)

    def test_case_four_similarity(self):
        f = make_map(5, {1: "t^10", 4: "t"})  # T = 10 > 1
        cases = check_two_term_family(f)
        sims = [c for c in cases if c.name == "twoterm-high-T-similar"]
        assert sims and all(c.outcome == PASS for c in sims)
        nxt = [c for c in cases if c.name == "twoterm-high-T-next-level"]
        assert nxt and nxt[0].outcome == PASS

    def test_case_two(self):
        f = make_map(5, {1: "t", 4: "t"})  # T = 1: second regime boundary inclusive
        cases = check_two_term_family(f)
        assert any(c.name == "twoterm-mid-T-phi" and c.outcome == PASS for c in cases)

    def test_rejects_wrong_family(self):
        with pytest.raises(ValueError):
            check_two_term_family(make_map(5, {2: 1}))
        with pytest.raises(ValueError):
            check_two_term_family(make_map(3, {1: 1}))

    def test_quadratic_counts_as_degenerate_family_member(self, quad):
        cases = check_two_term_family(quad)  # a_{p-1} = 0: T = -inf, first regime
        assert any(c.name == "twoterm-low-T-phi" and c.outcome == PASS for c in cases)


# Each check started from window 1 (cap 8192): the outcome and detail of
# its cases and the window the map's table ended at, above 1 when the check
# certified only after escalating.  Recorded while each check ran its own
# escalation loop.
NARROW_CHECKS = {
    "congruence": lambda f: [check_congruence(f, 1, 0, 5, 5)],
    "level-lift": lambda f: [check_level_lift(f, 1, 0, 10)],
    "deep-level": lambda f: [check_deep_level(f, 2, 5, 10)],
    "two-term": check_two_term_family,
}
LOW_T = [
    ("twoterm-low-T-phi", PASS, "val=-8 want=-8"),
    ("twoterm-low-T-slope", PASS, "M1(0,p)=-8/5"),
]
NARROW_RECORDED = [
    ({1: 1}, "congruence", [("congruence", PASS, "val=-5 bound=-6")], 4),
    ({1: 1}, "level-lift", [("level-lift", PASS, "val=-16 bound=-16")], 1),
    ({1: 1}, "deep-level", [("deep-level", PASS, "val=-8 bound=-8")], 1),
    ({1: 1}, "two-term", LOW_T, 1),
    ({1: 1, 4: "t^10"}, "congruence", [("congruence", PASS, "val=-5 bound=-6")], 4),
    ({1: 1, 4: "t^10"}, "level-lift", [("level-lift", PASS, "val=-16 bound=-16")], 1),
    ({1: 1, 4: "t^10"}, "deep-level", [("deep-level", PASS, "val=-8 bound=-8")], 1),
    ({1: 1, 4: "t^10"}, "two-term", LOW_T, 1),
    ({1: "t^10", 4: "t"}, "congruence", [("congruence", PASS, "val=>=6 bound=-1")], 1),
    ({1: "t^10", 4: "t"}, "level-lift", [("level-lift", PASS, "val=10 bound=10")], 2),
    ({1: "t^10", 4: "t"}, "deep-level", [("deep-level", PASS, "val=5 bound=0")], 2),
    ({1: "t^10", 4: "t"}, "two-term", [
        ("twoterm-high-T-similar", PASS, ""),
        ("twoterm-high-T-similar", PASS, ""),
        ("twoterm-high-T-next-level", PASS, "val=-175 want=-175"),
    ], 1),
    ({1: 1, 4: "2*t^-2"}, "congruence", [("congruence", PASS, "val=-5 bound=-6")], 4),
    ({1: 1, 4: "2*t^-2"}, "level-lift", [("level-lift", PASS, "val=>=-12 bound=-12")], 4),
    ({1: 1, 4: "2*t^-2"}, "deep-level", [("deep-level", PASS, "val=-5 bound=-6")], 4),
    ({1: 1, 4: "2*t^-2"}, "two-term", [
        ("twoterm-boundary-T", SKIP, "boundary T=(p-2)/(p-1)"),
    ], 1),
]


class TestEscalation:
    @pytest.mark.parametrize(
        "coeffs, check, cases, window",
        NARROW_RECORDED,
        ids=[f"{c}-{check}" for c, check, _cases, _w in NARROW_RECORDED],
    )
    def test_narrow_start_matches_record(self, coeffs, check, cases, window):
        f = make_map(5, coeffs, default_window=1, max_window=8192)
        got = NARROW_CHECKS[check](f)
        assert [(c.name, c.outcome, c.detail) for c in got] == cases
        assert f.table().window == window

    def test_uncertified_element_escalates(self):
        # an element thunk that cannot certify below window 4 is retried at
        # a wider window, not let out of the bound check
        f = make_map(5, {1: 1}, default_window=1, max_window=8)
        t = f.table()

        def elem():
            if t.window < 4:
                raise UncertifiedLeadingTerm("not yet")
            return LaurentElement.one(5)

        assert _certify_bound(t, f.multiplier, elem, 0, strict=False) == (True, "0")
        assert t.window == 4

    def test_bound_case_outcomes(self):
        # the one Pass/Fail/Skip site of the three bound checks: val_mu(1) = 0
        # meets ">= 0" but not "> 0" or ">= 1", and an element that never
        # certifies is a Skip at the window cap
        f = make_map(5, {1: 1}, default_window=1, max_window=2)
        t = f.table()
        def one():
            return LaurentElement.one(5)

        def never():
            raise UncertifiedLeadingTerm("never")

        got = [
            _bound_case("c", {}, t, f.multiplier, one, 0),
            _bound_case("c", {}, t, f.multiplier, one, 0, strict=True),
            _bound_case("c", {}, t, f.multiplier, one, 1),
            _bound_case("c", {}, t, f.multiplier, never, 0),
        ]
        assert [(c.outcome, c.detail) for c in got] == [
            (PASS, "val=0 bound=0"),
            (FAIL, "val=0 bound=0"),
            (FAIL, "val=0 bound=1"),
            (SKIP, "precision exhausted"),
        ]
        assert t.window == 2


class TestSuite:
    def test_empty_budget(self):
        rep = run_suite(0, 0)
        assert rep.cases == []

    def test_small_budget_truncates(self):
        rep = run_suite(0, 10)
        assert len(rep.cases) == 10

    def test_deterministic(self):
        a = run_suite(3, 60)
        b = run_suite(3, 60)
        assert [c.format_line() for c in a.cases] == [c.format_line() for c in b.cases]

    def test_full_suite_green(self):
        rep = run_suite(0, 1000)
        assert rep.counts[FAIL] == 0
        assert rep.counts[PASS] > 250
        # skip budget: stay under 5% of the executed cases
        assert rep.counts[SKIP] <= len(rep.cases) * 0.05

    def test_csv_summary_shape(self):
        rep = run_suite(0, 40)
        rows = rep.summary_csv()
        assert rows[0] == "check,pass,fail,skip"
        assert all(len(r.split(",")) == 4 for r in rows[1:])
