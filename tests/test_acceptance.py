"""Acceptance gate: one test per release criterion, at its stated tolerance.

Every test prints a single line `acceptance <n> PASS (<elapsed>)` on success;
pytest -v doubles as the per-criterion report.  Tolerances are exact
equality of rationals / window data throughout; no floats anywhere.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

from charp.combinat import enumerate_star_chains
from charp.criterion import Mk_point, divergence_witness, verdict
from charp.field import LaurentElement, PrimeContext, make_lambda, val_p, val_p_ext
from charp.lemma_lab import (
    FAIL,
    SKIP,
    check_congruence,
    check_deep_level,
    check_level_lift,
    check_lucas_exhaustive,
    check_mu_similarity,
    check_window_vanishing,
)
from charp.recurrence import (
    b_coeffs,
    b_via_structure,
    conjugacy_residual,
    phi_k,
    phi_k_via_recursion,
)

from conftest import child_env, make_map, phi_by_enumeration, quadratic, random_maps

INF = math.inf


class _Budget:
    def __init__(self, n, seconds):
        self.n = n
        self.seconds = seconds
        self.t0 = time.monotonic()

    def done(self):
        dt = time.monotonic() - self.t0
        assert dt < self.seconds, f"criterion {self.n} overran: {dt:.1f}s >= {self.seconds}s"
        print(f"acceptance {self.n} PASS ({dt:.2f}s < {self.seconds}s)")


def test_criterion_1_multiplier_power_valuations():
    budget = _Budget(1, 1.0)
    for p in (3, 5, 7):
        mult = make_lambda(PrimeContext(p))
        for s in range(1, 501):
            assert mult.val_mu(mult.one_minus_pow(s)) == p ** val_p(s, p)
    budget.done()


def test_criterion_2_triple_b_oracle_agreement():
    budget = _Budget(2, 30.0)
    for f in random_maps(seed=2024, count=20, p_choices=(3, 5), max_support=3):
        table = f.table()
        b = b_coeffs(f, 40, table)
        res = conjugacy_residual(f, 40, table)
        assert all(x.is_zero_within_window() for x in res), f.support
        for n in range(1, 41):
            if n % f.u:
                assert b[n].is_exact_zero()
                continue
            m = n // f.u
            for k in range(0, val_p_ext(m, f.p) + 1):
                assert b_via_structure(f, n, k, table).agrees_with(b[n]), (f.support, n, k)
    budget.done()


def test_criterion_3_phi_oracle_agreement():
    budget = _Budget(3, 60.0)
    maps = random_maps(seed=31, count=10, p_choices=(3, 5))
    # DP vs full enumeration
    for f in maps:
        for k in (0, 1, INF):
            for (r, s) in [(0, 4), (0, 7), (1, 9), (2, 12), (0, 10), (3, 11)]:
                if s - r > 10:
                    continue
                assert phi_k(f, k, r, s).agrees_with(phi_by_enumeration(f, k, r, s))
    # level recursion on arguments up to 2 p^2
    for f in maps:
        p = f.p
        cap = 2 * p * p
        for k_prime in (1, 2, INF):
            for k in range(0, 3):
                if k_prime != INF and k > k_prime:
                    continue
                q = p**k
                for (r, s) in [(0, q), (0, 2 * q), (q, 3 * q), (0, min(cap, 4 * q))]:
                    if r >= s or s > cap:
                        continue
                    if val_p_ext(r, p) < k or val_p_ext(s, p) < k:
                        continue
                    got = phi_k_via_recursion(f, k_prime, k, r, s)
                    assert got.agrees_with(phi_k(f, k_prime, r, s))
    # star factorization on valid windows with s - r <= 8, k <= 2
    for f in maps[:4]:
        p = f.p
        for k in (0, 1, 2):
            for r in range(0, 9):
                for s in range(r + 1, r + 9):
                    if min(val_p_ext(r, p), val_p_ext(s, p)) > k:
                        continue
                    acc = LaurentElement.zero(p)
                    for xi in enumerate_star_chains(k, r, s, p, budget=8):
                        prod = LaurentElement.one(p)
                        for a, b in xi.pairs():
                            lev = min(val_p_ext(a, p), val_p_ext(b, p))
                            prod = prod * phi_k(f, lev, a, b)
                        acc = acc + prod
                    assert phi_k(f, k, r, s).agrees_with(acc)
    budget.done()


def test_criterion_4_single_term_family_dichotomy():
    budget = _Budget(4, 10.0)
    quad = quadratic()
    assert Mk_point(quad, 1, 0, 5) == Fraction(-8, 5)
    rep = verdict(quad, 1)
    assert rep.non_linearizable and rep.level == 1

    f6 = make_map(5, {5: 1})
    assert Mk_point(f6, 1, 0, 5) == -9
    rep = verdict(f6, 1)
    assert rep.non_linearizable and rep.level == 1

    for spec in ({4: 1}, {9: 1}):
        rep = verdict(make_map(5, spec), 3)
        assert not rep.non_linearizable and rep.level == 3
    budget.done()


def test_criterion_5_two_term_family():
    budget = _Budget(5, 30.0)
    f = make_map(5, {1: 1, 4: "t^10"})
    assert f.multiplier.val_mu(phi_k(f, 1, 0, 5)) == -8  # 5*val(a_1) - 2*5 + 2
    assert verdict(f, 2).non_linearizable

    for c in (0, 1):
        g = make_map(5, {4: "1" if c == 0 else "t"})
        assert not verdict(g, 3).non_linearizable
    budget.done()


def test_criterion_6_cubic_family():
    budget = _Budget(6, 10.0)
    f = make_map(5, {1: 1, 2: 2})  # |1 - a_2/a_1^2| = 1
    rep = verdict(f, 1)
    assert rep.non_linearizable and rep.level == 1
    # level-1 slope from the case analysis: ((p-2) M_0 + 2 m_0 - p)/p
    p = 5
    m_0 = min(Fraction(0), Fraction(0, 2))  # both coefficient valuations are 0
    M_0 = Fraction(-1)
    assert Mk_point(f, 1, 0, 5) == ((p - 2) * M_0 + 2 * m_0 - p) / p == Fraction(-8, 5)
    budget.done()


def test_criterion_7_divergence_witness():
    budget = _Budget(7, 120.0)
    quad = quadratic()
    w = divergence_witness(quad, [1, 2])
    (k1, d1, v1, s1), (k2, d2, v2, s2) = w
    assert (k1, v1) == (1, -8)
    assert s1 - s2 >= Fraction(1, 5)
    budget.done()


def _grid_cases_congruence(maps):
    for f in maps:
        p = f.p
        for k in (0, 1, 2):
            q = p**k
            for (r, s, m) in [
                (0, q, q),
                (0, q, 2 * q),
                (0, 2 * q, q),
                (q, 2 * q, q),
                (q, 3 * q, 2 * q),
                (0, 2 * q, 0),
            ]:
                yield f, k, r, s, m


def _grid_cases_l18(maps):
    for f in maps:
        p = f.p
        for k in (0, 1):
            q = p**k
            for (r, s) in [(0, q), (0, 2 * q), (q, 3 * q), (0, 3 * q), (2 * q, 4 * q)]:
                yield f, k, r, s


def _grid_cases_key_lemma(maps):
    for f in maps:
        p = f.p
        for (k, r, s) in [(1, 1, 4), (1, 1, p + 1), (1, 2, 2 * p), (2, 1, 6), (2, p, 2 * p)]:
            if r < s and k >= min(val_p_ext(r, p), val_p_ext(s, p)) + 1:
                yield f, k, r, s


def test_criterion_8_lemma_suite():
    budget = _Budget(8, 300.0)
    maps = [
        quadratic(),
        make_map(5, {5: 1}),
        make_map(5, {1: 1, 2: 2}),
        make_map(5, {1: 1, 4: "t^10"}),
        make_map(3, {1: 1, 2: "t^2"}),
    ] + random_maps(seed=88, count=8, p_choices=(3, 5))
    outcomes = []

    cong = list(_grid_cases_congruence(maps))[:100]
    assert len(cong) == 100
    outcomes += [check_congruence(f, k, r, s, m) for f, k, r, s, m in cong]

    l18 = list(_grid_cases_l18(maps))[:100]
    assert len(l18) == 100
    outcomes += [check_level_lift(f, k, r, s) for f, k, r, s in l18]

    key = list(_grid_cases_key_lemma(maps))[:50]
    assert len(key) == 50
    outcomes += [check_deep_level(f, k, r, s) for f, k, r, s in key]

    # structural vanishing, exhaustive to 3p
    for f in [make_map(5, {1: 1, 2: 1, 3: 1}), make_map(3, {1: 1, 2: 1})]:
        outcomes += check_window_vanishing(f, bound=3 * f.p)

    # multiplier-power similarity law to r = 300
    for p in (3, 5):
        outcomes += check_mu_similarity(make_lambda(PrimeContext(p)), 300)

    # digit-overflow vanishing, exhaustive to 12
    for p in (3, 5):
        outcomes.append(check_lucas_exhaustive(p, 12))

    fails = [c for c in outcomes if c.outcome == FAIL]
    skips = [c for c in outcomes if c.outcome == SKIP]
    assert not fails, [c.format_line() for c in fails[:5]]
    assert len(skips) < 0.05 * len(outcomes), [c.format_line() for c in skips[:5]]
    budget.done()


def test_criterion_9_byte_determinism():
    budget = _Budget(9, 60.0)
    commands = [
        ["analyze", "--p", "5", "--a", "1:1,2:2", "--Kmax", "2"],
        ["bseries", "--p", "5", "--a", "1:1", "--N", "10"],
        ["lemmas", "--budget", "50", "--seed", "7"],
    ]
    for cmd in commands:
        full = [sys.executable, "-m", "charp.cli"] + cmd
        a = subprocess.run(full, capture_output=True, env=child_env())
        b = subprocess.run(full, capture_output=True, env=child_env())
        assert a.returncode == 0 and a.stdout, a.stderr
        assert a.stdout == b.stdout and a.returncode == b.returncode
    budget.done()
