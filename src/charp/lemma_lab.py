"""Randomized and exhaustive verification of the inequality chain.

Each check compares a computed valuation against a bound.  Bounds that
involve the true (uncomputable) slope infima are evaluated with the sampled
upper bounds M_hi instead, which only makes the inequality harder to pass,
so a Pass here is strictly stronger than the claim it verifies.  A check
that cannot certify its left side even at the window cap reports Skip, never
a vacuous Pass.

The suite is deterministic for a fixed seed and is meant as a release gate:
any Fail is a blocker.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import criterion
from .combinat import (
    enumerate_chains,
    enumerate_I,
    lucas_vanishes,
    multinomial_residue,
)
from .errors import PrecisionExhausted, UncertifiedLeadingTerm
from .field import LaurentElement, Multiplier, PrimeContext, make_lambda, val_p, val_p_ext
from .recurrence import DynamicalSeries, LevelTable, Phi_chain, _tbl, run_certified

INF = math.inf

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckCase:
    """One verification instance: name, parameters, outcome.

    A Fail's detail carries both compared values so the case can be replayed.
    """

    name: str
    params: dict
    outcome: str
    detail: str = ""

    def format_line(self):
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{self.name} [{ps}] {self.outcome}"
        if self.detail:
            line += f" ({self.detail})"
        return line


def _bounds_through(f, k, table):
    """Certified (lo, hi) slope bounds for levels 0..k."""
    bounds = []
    for lvl in range(0, k + 1):
        bounds.append(criterion.Mk_bounds(f, lvl, bounds, table))
    return bounds


def _min_hi(bounds):
    return min(hi for _lo, hi in bounds)


def _certify_bound(table, mult, elem_thunk, rhs, strict):
    """Certify val_mu(elem) > rhs (strict) or >= rhs, escalating as needed.

    Returns (ok, lhs_description).  A lower bound below rhs without a
    certified leading term decides nothing, so it escalates through
    run_certified; PrecisionExhausted is raised when the element stays
    zero-up-to-horizon below the bound at the window cap.
    """

    def attempt():
        e = elem_thunk()
        lb = mult.val_mu_lb(e)
        if lb == INF:
            return True, "inf"
        if (lb > rhs) if strict else (lb >= rhs):
            return True, str(lb) if e.has_certified_leading_term() else f">={lb}"
        if e.has_certified_leading_term():
            return False, str(lb)  # exact valuation, bound genuinely fails
        raise UncertifiedLeadingTerm(f"val_mu >= {lb} does not decide the bound {rhs}")

    return run_certified(table, attempt)


def _bound_case(name, params, table, mult, elem_thunk, rhs, strict=False) -> CheckCase:
    """Pass or Fail of the bound val_mu(elem) > rhs (strict) or >= rhs, with
    both sides in the detail, or Skip when the window cap cannot certify it."""
    try:
        ok, lhs = _certify_bound(table, mult, elem_thunk, rhs, strict)
    except PrecisionExhausted:
        return CheckCase(name, params, SKIP, "precision exhausted")
    return CheckCase(name, params, PASS if ok else FAIL, f"val={lhs} bound={rhs}")


def check_congruence(f: DynamicalSeries, k: int, r: int, s: int, m: int, table: LevelTable | None = None) -> CheckCase:
    """Translation stability of the rescaled level sums.

    k >= 1: val_mu(psi_k(r+m, s+m) - psi_k(r, s)) > (s-r)*min M_hi - p^(k+tau-1).
    k == 0: the sharper level-0 estimate
            val >= (s-r)*M_0 + p^(val_p(m)+2 tau) - p^tau.
    """
    t = _tbl(f, table)
    p, tau = f.p, f.tau
    params = {"p": p, "f": _fdesc(f), "k": k, "r": r, "s": s, "m": m}
    name = "congruence" if k >= 1 else "congruence-level0"
    if not (0 <= r < s) or m < -r:
        raise ValueError("need 0 <= r < s and m >= -r")
    q = p**k
    if r % q or s % q or m % q:
        raise ValueError(f"({r}, {s}, {m}) not on the p^{k} grid")
    if m == 0:
        return CheckCase(name, params, PASS, "m=0, difference exactly zero")
    if k >= 1:
        bounds = _bounds_through(f, k - 1, t)
        rhs = (s - r) * _min_hi(bounds) - Fraction(p ** (k + tau), p)
        strict = True
    else:
        m0 = criterion.M0(f)
        rhs = (s - r) * m0 + p ** (val_p(abs(m), p) + 2 * tau) - p**tau
        strict = False
    if rhs == INF:
        return CheckCase(name, params, PASS, "bound trivially +inf vs +inf")

    return _bound_case(
        name, params, t, f.multiplier, lambda: t.psi(k, r + m, s + m) - t.psi(k, r, s), rhs, strict
    )


def check_level_lift(f: DynamicalSeries, k: int, r: int, s: int, table: LevelTable | None = None) -> CheckCase:
    """Level lift bound: val_mu(phi_(k+1)(r, s)) >= (s-r)*M_hi(k)
    + p^(k+tau) - p^(val_p(s)+tau) on the p^k grid."""
    t = _tbl(f, table)
    p, tau = f.p, f.tau
    params = {"p": p, "f": _fdesc(f), "k": k, "r": r, "s": s}
    q = p**k
    if not (0 <= r < s) or r % q or s % q:
        raise ValueError(f"({r}, {s}) not on the p^{k} grid")
    bounds = _bounds_through(f, k, t)
    hi = bounds[k][1]
    rhs = (s - r) * hi + p ** (k + tau) - p ** (val_p(s, p) + tau)
    if rhs == INF:
        # all level-k samples are structurally zero: the strengthened bound
        # demands a structurally zero lift; anything else is untestable here
        if t.phi(k + 1, r, s).is_exact_zero():
            return CheckCase("level-lift", params, PASS, "both sides +inf")
        return CheckCase("level-lift", params, SKIP, "sampled bound is +inf")

    return _bound_case("level-lift", params, t, f.multiplier, lambda: t.phi(k + 1, r, s), rhs)


def check_deep_level(f: DynamicalSeries, k: int, r: int, s: int, table: LevelTable | None = None) -> CheckCase:
    """Deep-level bound: for k >= min(val_p(r), val_p(s)) + 1,
    val_mu(phi_k(r, s)) >= (s-r)*min M_hi + p^(val_p(r)+tau)
    - p^(max(k-1, val_p(r), val_p(s))+tau); the correction pair cancels
    when r = 0."""
    t = _tbl(f, table)
    p, tau = f.p, f.tau
    params = {"p": p, "f": _fdesc(f), "k": k, "r": r, "s": s}
    vr, vs = val_p_ext(r, p), val_p_ext(s, p)
    if k < min(vr, vs) + 1:
        raise ValueError(f"need k >= min(val_p(r), val_p(s)) + 1 at ({r}, {s})")
    bounds = _bounds_through(f, k - 1, t)
    minhi = _min_hi(bounds)
    if r == 0:
        corr = 0
    else:
        corr = p ** (vr + tau) - p ** (max(k - 1, vr, vs) + tau)
    rhs = (s - r) * minhi + corr
    if rhs == INF:
        return CheckCase("deep-level", params, PASS, "bound trivially +inf")

    return _bound_case("deep-level", params, t, f.multiplier, lambda: t.phi(k, r, s), rhs)


def check_extremal_residue(p: int) -> list[CheckCase]:
    """Closed form of the extremal multinomial residue: for p^k | r the
    multi-index (r+1-p^k, 0, p^k) on window (r, r+p^k(p-1)) has residue
    r+1 mod p at level 0 and r/p^k mod p at levels k >= 1."""
    out = []
    for k in range(0, 3):
        q = p**k
        for r in [0, q, 2 * q, p * q, (p + 1) * q, 7 * q]:
            if r % q:
                continue
            if r + 1 < q:
                got = 0  # the extremal multi-index does not exist
            else:
                parts = [x for x in (r + 1 - q, q) if x]
                got = multinomial_residue(r + 1, parts, p)
            want = (r + 1) % p if k == 0 else (r // q) % p
            outcome = PASS if got == want else FAIL
            out.append(
                CheckCase(
                    "extremal-residue",
                    {"p": p, "k": k, "r": r},
                    outcome,
                    f"got={got} want={want}",
                )
            )
    return out


def check_mu_similarity(mult: Multiplier, rmax: int) -> list[CheckCase]:
    """1 - lambda^r shares leading behavior with (r/p^l) * mu^(p^l),
    l = val_p(r).  (The exponent is p^l: it must match val_mu(1-lambda^r) =
    p^l, and the binomial expansion of (1 - (1 - lambda^(p^l)))^(r/p^l)
    confirms it.)"""
    p = mult.p
    bad = []
    neg_mu = mult.mu.scale(-1)  # 1 - lambda; the sign that makes the
    # leading coefficients match (not just the valuations), since p is odd
    for r in range(1, rmax + 1):
        l = val_p(r, p)
        c = (r // p**l) % p
        rhs = (neg_mu ** (p**l)).scale(c)
        lhs = mult.one_minus_pow(r)
        if not mult.is_similar(lhs, rhs):
            bad.append(r)
    return [
        CheckCase(
            "mu-similarity",
            {"p": p, "rmax": rmax},
            FAIL if bad else PASS,
            f"failing r: {bad[:5]}" if bad else f"all r <= {rmax}",
        )
    ]


def check_lucas_exhaustive(p: int, nmax: int) -> CheckCase:
    """Digit-overflow implies a vanishing residue, exhaustively over all
    windows r < s <= nmax with full support."""

    class _Full:
        support = tuple(range(1, nmax + 1))

    tested = 0
    for r in range(0, nmax):
        for s in range(r + 1, nmax + 1):
            for alpha in enumerate_I(_Full, r, s):
                res = multinomial_residue(r + 1, alpha.parts(), p)
                j = 1
                while p**j <= r + 1:
                    if lucas_vanishes(r, alpha, j, p) and res != 0:
                        return CheckCase(
                            "lucas-vanishing",
                            {"p": p, "nmax": nmax},
                            FAIL,
                            f"r={r} s={s} alpha={alpha.entries} residue={res}",
                        )
                    j += 1
                tested += 1
    return CheckCase("lucas-vanishing", {"p": p, "nmax": nmax}, PASS, f"{tested} multi-indices")


def check_window_vanishing(f: DynamicalSeries, bound: int | None = None, table: LevelTable | None = None) -> list[CheckCase]:
    """Structural zeros of the kernel: Phi(r, s) = 0 exactly when p | r+1
    and p does not divide s-r (checked exhaustively to 3p); and any level-1
    chain hitting a point with p | u*beta_j + 1 kills the product when
    p does not divide u*s+1."""
    t = _tbl(f, table)
    p = f.p
    u = f.u
    bound = bound if bound is not None else 3 * p
    out = []
    bad = []
    for r in range(0, bound):
        for s in range(r + 1, bound + 1):
            if (r + 1) % p == 0 and (s - r) % p != 0:
                if not t.Phi(r, s).is_exact_zero():
                    bad.append((r, s))
    out.append(
        CheckCase(
            "window-vanishing",
            {"p": p, "f": _fdesc(f), "bound": bound},
            FAIL if bad else PASS,
            f"windows: {bad[:5]}" if bad else f"all r,s <= {bound}",
        )
    )
    if u % p != 0:
        bad = []
        tested = 0
        for r in range(0, bound):
            for s in range(r + 1, min(r + 6, bound) + 1):
                if (u * s + 1) % p == 0:
                    continue
                for beta in enumerate_chains(1, r, s, p, budget=6):
                    if any((u * b + 1) % p == 0 for b in beta.terms[:-1]):
                        tested += 1
                        if not Phi_chain(f, beta, t).is_exact_zero():
                            bad.append(beta.terms)
        out.append(
            CheckCase(
                "chain-vanishing",
                {"p": p, "f": _fdesc(f)},
                FAIL if bad else PASS,
                f"chains: {bad[:3]}" if bad else f"{tested} chains",
            )
        )
    return out


def _sim_check(t, mult, name, params, lhs_thunk, rhs):
    try:
        ok = run_certified(t, lambda: mult.is_similar(lhs_thunk(), rhs))
    except PrecisionExhausted:
        return CheckCase(name, params, SKIP, "precision exhausted")
    return CheckCase(name, params, PASS if ok else FAIL)


def check_two_term_family(f: DynamicalSeries, table: LevelTable | None = None) -> list[CheckCase]:
    """Valuation identities for maps lambda*z + a_1 z^2 + a_(p-1) z^p.

    The regime parameter T = val_mu(a_1) - (val_mu(a_(p-1)) - 1)/(p - 1)
    selects which leading term of phi_1(0, p) survives:

    * T < (p-2)/(p-1): val_mu(phi_1(0, p)) = p*val_mu(a_1) - 2p + 2 and the
      level-1 slope drops to M_0 - (p-2)/p;
    * (p-2)/(p-1) < T <= 1: val_mu(phi_1(0, p)) =
      val_mu(a_1) + val_mu(a_(p-1)) - 1 - p;
    * T > 1 with p^k <= T: phi_k(r, r+p^k) has the same leading behavior as
      2 a_1 a_(p-1)^((p^k-1)/(p-1)) / ((1 - lambda^(r+p^k)) mu^((p^k-1)/(p-1))),
      and for p^(k-1) < T < p^k the level-(k+1) sum at (0, p^(k+1)) has
      valuation p^(k+1) M_0 + p(T - p^k) + p^k - p^(k+1).

    Boundary values of T (where the leading terms may cancel) are reported
    as Skip: the dichotomy there depends on residue arithmetic this check
    does not model.
    """
    t = _tbl(f, table)
    p = f.p
    if p < 5:
        raise ValueError("the two-term family needs p >= 5")
    if not f.support or 1 not in f.support or not set(f.support) <= {1, p - 1}:
        raise ValueError("map must be lambda*z + a_1 z^2 + a_(p-1) z^p with a_1 != 0")
    mult = f.multiplier
    v1 = mult.val_mu(f.a(1))
    vp1 = mult.val_mu(f.a(p - 1)) if (p - 1) in f.support else INF
    T = -INF if vp1 == INF else v1 - Fraction(vp1 - 1, p - 1)
    m0 = criterion.M0(f)
    base = {"p": p, "f": _fdesc(f), "T": str(T)}
    out = []
    crit = Fraction(p - 2, p - 1)

    def val_equals(name, elem_thunk, want):
        try:
            got = run_certified(t, lambda: mult.val_mu(elem_thunk()))
        except PrecisionExhausted:
            return CheckCase(name, base, SKIP, "precision exhausted")
        return CheckCase(name, base, PASS if got == want else FAIL, f"val={got} want={want}")

    if T < crit:
        out.append(val_equals("twoterm-low-T-phi", lambda: t.phi(1, 0, p), p * v1 - 2 * p + 2))
        out.append(
            CheckCase(
                "twoterm-low-T-slope",
                base,
                PASS
                if criterion.Mk_point(f, 1, 0, p, t) == m0 - Fraction(p - 2, p)
                else FAIL,
                f"M1(0,p)={criterion.Mk_point(f, 1, 0, p, t)}",
            )
        )
    elif T == crit:
        out.append(CheckCase("twoterm-boundary-T", base, SKIP, "boundary T=(p-2)/(p-1)"))
    elif T <= 1:
        out.append(val_equals("twoterm-mid-T-phi", lambda: t.phi(1, 0, p), v1 + vp1 - 1 - p))
    else:
        # T > 1: leading-behavior checks at every level p^k <= T (desk cap 2)
        k = 1
        neg_mu = mult.mu.scale(-1)  # 1 - lambda: similarity is sign-sensitive
        while p**k <= T and k <= 2:
            geo = (p**k - 1) // (p - 1)
            for r in (0, p**k):
                denom = mult.one_minus_pow(r + p**k) * neg_mu**geo
                rhs = (f.a(1) * f.a(p - 1) ** geo).scale(2) * denom.inverse(t.window)
                out.append(
                    _sim_check(
                        t,
                        mult,
                        "twoterm-high-T-similar",
                        {**base, "k": k, "r": r},
                        lambda k=k, r=r: t.phi(k, r, r + p**k),
                        rhs,
                    )
                )
            k += 1
        kt = 0
        while p ** (kt + 1) < T:
            kt += 1
        # canonical level: p^kt < T <= p^(kt+1); the value below needs strict T < p^(kt+1)
        kc = kt + 1
        if T < p**kc and kc <= 2:
            want = p ** (kc + 1) * m0 + p * (T - p**kc) + p**kc - p ** (kc + 1)
            out.append(val_equals("twoterm-high-T-next-level", lambda: t.phi(kc + 1, 0, p ** (kc + 1)), want))
        elif T == p**kc:
            out.append(CheckCase("twoterm-high-T-boundary", base, SKIP, f"boundary T=p^{kc}"))
    return out


def _fdesc(f: DynamicalSeries) -> str:
    def lit(a):
        return repr(a).split(": ", 1)[1].rstrip(">").replace(" ", "")

    return ";".join(f"{i}:{lit(f.a(i))}" for i in f.support)


@dataclass
class SuiteReport:
    seed: int
    budget: int
    cases: list[CheckCase] = field(default_factory=list)

    @property
    def counts(self):
        c = {PASS: 0, FAIL: 0, SKIP: 0}
        for case in self.cases:
            c[case.outcome] += 1
        return c

    @property
    def ok(self):
        return self.counts[FAIL] == 0

    def format_lines(self):
        lines = [case.format_line() for case in self.cases]
        c = self.counts
        lines.append(f"summary seed={self.seed} pass={c[PASS]} fail={c[FAIL]} skip={c[SKIP]}")
        return lines

    def summary_csv(self):
        names = sorted({c.name for c in self.cases})
        rows = ["check,pass,fail,skip"]
        for n in names:
            sub = [c for c in self.cases if c.name == n]
            rows.append(
                f"{n},{sum(c.outcome == PASS for c in sub)},"
                f"{sum(c.outcome == FAIL for c in sub)},"
                f"{sum(c.outcome == SKIP for c in sub)}"
            )
        return rows


def _random_map(rng: random.Random, p: int) -> DynamicalSeries:
    """Random polynomial with <= 3 terms and monomial coefficients c*t^e,
    c a unit, e <= 12: small enough for desk checks, rich enough to hit all
    regimes of the two-term family."""
    size = rng.randint(1, 3)
    support = sorted(rng.sample(range(1, 7), size))
    coeffs = {}
    for i in support:
        c = rng.randrange(1, p)
        e = rng.randint(0, 12)
        coeffs[i] = LaurentElement.from_terms(p, {e: c})
    return DynamicalSeries.from_spec(p, coeffs)


def _fixture_maps() -> list[DynamicalSeries]:
    """The three headline families at desk parameters, plus edge regimes."""
    out = [
        DynamicalSeries.from_spec(5, {1: 1}),                    # quadratic
        DynamicalSeries.from_spec(5, {5: 1}),                    # z^(p+1)
        DynamicalSeries.from_spec(5, {1: 1, 2: 2}),              # cubic
        DynamicalSeries.from_spec(5, {1: 1, 4: "t^10"}),         # two-term, T < 0
        DynamicalSeries.from_spec(5, {1: "t^10", 4: "t"}),       # two-term, T > 1
        DynamicalSeries.from_spec(5, {4: 1}),                    # linearizable regime
        DynamicalSeries.from_spec(3, {1: 1, 2: "t^2"}),
    ]
    return out


def _planned_cases(seed: int):
    """Deterministic stream of check thunks; the budget truncates it."""
    rng = random.Random(seed)

    for p in (3, 5, 7):
        yield lambda p=p: check_extremal_residue(p)
    for p in (3, 5):
        ctx = PrimeContext(p)
        mult = make_lambda(ctx)
        yield lambda mult=mult: check_mu_similarity(mult, 120)
    for p in (3, 5):
        yield lambda p=p: [check_lucas_exhaustive(p, 8)]

    maps = _fixture_maps()
    for p in (3, 5, 7):
        maps.append(_random_map(rng, p))
        maps.append(_random_map(rng, p))

    for f in maps:
        yield lambda f=f: check_window_vanishing(f)
        p = f.p
        for k in (0, 1):
            q = p**k
            grids = [(0, q, q), (0, 2 * q, q), (q, 3 * q, 2 * q), (0, q, 0)]
            for (r, s, m) in grids:
                yield lambda f=f, k=k, r=r, s=s, m=m: [check_congruence(f, k, r, s, m)]
        for k in (0, 1):
            q = p**k
            for (r, s) in [(0, q), (0, 2 * q), (q, 3 * q)]:
                yield lambda f=f, k=k, r=r, s=s: [check_level_lift(f, k, r, s)]
        for (k, r, s) in [(1, 1, 3), (1, 2, 2 * p), (2, p, 2 * p)]:
            if k >= min(val_p_ext(r, p), val_p_ext(s, p)) + 1 and r < s:
                yield lambda f=f, k=k, r=r, s=s: [check_deep_level(f, k, r, s)]
        if p >= 5 and 1 in f.support and set(f.support) <= {1, p - 1}:
            yield lambda f=f: check_two_term_family(f)


def run_suite(seed: int, budget: int) -> SuiteReport:
    """Run up to `budget` planned checks, deterministically for the seed."""
    report = SuiteReport(seed, budget)
    if budget <= 0:
        return report
    for thunk in _planned_cases(seed):
        for case in thunk():
            report.cases.append(case)
            if len(report.cases) >= budget:
                return report
    return report
