"""Newton slopes, certified slope bounds, the dominance test and verdicts.

The quantity driving everything is the slope of a window,

    M_k(r, s) = val_mu(psi_k(r, s)) / (s - r),

taken over p^k-divisible pairs.  The infimum M_k over all such pairs is not
computable directly, so the checker brackets it:

* an upper bound M_hi(k): the minimum of the finitely many samples
  M_k(0, d*p^k), d = 1..p-1;
* a certified lower bound M_lo(k) = M_lo(k-1) - p^tau + p^(tau-1), seeded
  with the exact closed form M_0.

Replacing the true minima with M_lo in the dominance inequality makes a
positive answer a proof of non-linearizability, while a negative answer only
means "not certified up to this level".  The checker never claims
linearizability (except for the degenerate f = lambda*z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DegenerateLinearMap,
    DivisibilityViolation,
    DominanceNotCertified,
)
from .field import val_p_ext
from .recurrence import DynamicalSeries, LevelTable, _tbl, b_coeffs, run_certified

INF = math.inf

STATUS_NON_LINEARIZABLE = "non-linearizable"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SlopeSample:
    """One dominance operand: the slope M_k(0, d*p^k); +inf records a
    structurally zero level sum."""

    k: int
    d: int
    value: Fraction | float


@dataclass
class LevelReport:
    k: int
    samples: list[SlopeSample]
    lo: Fraction | float
    hi: Fraction | float
    dominant: bool = False


@dataclass
class DominanceReport:
    status: str
    level: int  # certified level, or Kmax when inconclusive
    levels: list[LevelReport] = field(default_factory=list)

    @property
    def non_linearizable(self):
        return self.status == STATUS_NON_LINEARIZABLE


def support_gcd(f: DynamicalSeries) -> tuple[int, int]:
    """(u, tau) = (gcd of the support, val_p of that gcd)."""
    return f.u, f.tau  # raises DegenerateLinearMap on empty support


def M0(f: DynamicalSeries) -> Fraction:
    """Exact closed form of the level-0 slope infimum:
    min over the support of (val_mu(a_n) - p^tau) / (n/u)."""
    u, tau = support_gcd(f)
    mult = f.multiplier
    ptau = f.p**tau
    return min(
        Fraction(mult.val_mu(f.a(n)) - ptau) / Fraction(n, u) for n in f.support
    )


def Mk_point(f: DynamicalSeries, k: int, r: int, s: int, table: LevelTable | None = None):
    """The slope sample M_k(r, s) on the p^k-divisible grid; +inf when the
    rescaled level sum is structurally zero."""
    if not (0 <= r < s):
        raise ValueError(f"need 0 <= r < s, got ({r}, {s})")
    if val_p_ext(r, f.p) < k or val_p_ext(s, f.p) < k:
        raise DivisibilityViolation(f"({r}, {s}) not on the p^{k} grid")
    t = _tbl(f, table)
    val = run_certified(t, lambda: f.multiplier.val_mu(t.psi(k, r, s)))
    if val is INF:
        return INF
    return val / (s - r)


def _tau_step(p: int, tau: int) -> Fraction:
    """p^tau - p^(tau-1), the per-level drop of the certified lower bound."""
    return Fraction(p**tau) - Fraction(p**tau, p)


def p_tau_minus_1(p: int, tau: int) -> Fraction:
    return Fraction(p**tau, p)


def level_samples(f: DynamicalSeries, k: int, table: LevelTable | None = None) -> list[SlopeSample]:
    t = _tbl(f, table)
    q = f.p**k
    return [SlopeSample(k, d, Mk_point(f, k, 0, d * q, t)) for d in range(1, f.p)]


def _upper_bound(samples) -> Fraction | float:
    """M_hi: the least finite sample, +inf when every sample is +inf."""
    return min((s.value for s in samples if s.value is not INF), default=INF)


def _lower_bound(f: DynamicalSeries, k: int, prior) -> Fraction:
    """M_lo(k) = M_lo(k-1) - (p^tau - p^(tau-1))."""
    return prior[k - 1][0] - _tau_step(f.p, f.tau)


def _dominant(f: DynamicalSeries, k: int, samples, prior) -> bool:
    """The dominance inequality of is_k_dominant on given level-k samples."""
    best = _upper_bound(samples)
    if best is INF:
        return False
    threshold = min(lo for lo, _hi in prior[:k]) - p_tau_minus_1(f.p, f.tau)
    return best <= threshold


def Mk_bounds(f: DynamicalSeries, k: int, prior, table: LevelTable | None = None):
    """(M_lo, M_hi) for level k given certified bounds for levels < k.

    M_hi is the minimum of the finite samples (+inf when all samples are
    structurally zero); M_lo descends from the previous lower bound by
    p^tau - p^(tau-1), which bounds the drop of the true infimum per level.
    Level 0 is exact: both bounds equal M0.
    """
    if k == 0:
        m = M0(f)
        return m, m
    if len(prior) < k:
        raise ValueError(f"need bounds for levels 0..{k - 1}")
    return _lower_bound(f, k, prior), _upper_bound(level_samples(f, k, table))


def is_k_dominant(f: DynamicalSeries, k: int, prior, table: LevelTable | None = None) -> bool:
    """Sound dominance test at level k >= 1.

    True only when min_d M_k(0, d*p^k) <= min over lower levels of the
    certified lower bounds, minus p^(tau-1).  Since the lower bounds
    undershoot the true minima, True implies the dominance inequality and is
    a proof; False only means "not certified here".
    """
    if k < 1:
        raise ValueError("dominance is defined for k >= 1")
    return _dominant(f, k, level_samples(f, k, table), prior)


def verdict(f: DynamicalSeries, Kmax: int, table: LevelTable | None = None) -> DominanceReport:
    """Iterate levels 1..Kmax, certifying dominance where possible.

    Returns non-linearizable at the first certified level, else inconclusive.
    The degenerate map f = lambda*z raises DegenerateLinearMap upstream.
    """
    if Kmax < 1:
        raise ValueError("need Kmax >= 1")
    if not f.support:
        raise DegenerateLinearMap("f = lambda*z is trivially linearizable")
    t = _tbl(f, table)
    m0 = M0(f)
    levels = [LevelReport(0, [], m0, m0)]
    bounds = [(m0, m0)]
    for k in range(1, Kmax + 1):
        samples = level_samples(f, k, t)
        lo, hi = _lower_bound(f, k, bounds), _upper_bound(samples)
        if lo > hi:
            raise AssertionError(f"bound inversion at level {k}: {lo} > {hi}")
        dom = _dominant(f, k, samples, bounds)
        levels.append(LevelReport(k, samples, lo, hi, dom))
        bounds.append((lo, hi))
        if dom:
            return DominanceReport(STATUS_NON_LINEARIZABLE, k, levels)
    return DominanceReport(STATUS_INCONCLUSIVE, Kmax, levels)


def divergence_witness(f: DynamicalSeries, k_range, table: LevelTable | None = None):
    """Divergence data along the certified levels: for each k, the smallest
    minimizer d_k of M_k(0, d*p^k), the valuation of the conjugacy
    coefficient b at index u*d_k*p^k, and its slope val/(u*d_k*p^k).

    Requires dominance to be certified at min(k_range); the witness slopes
    must drop by at least p^(tau-1)/u per level step, and the slope of each
    b-coefficient must match M_k/u exactly.
    """
    ks = sorted(k_range)
    if not ks or ks[0] < 1:
        raise ValueError("k_range must contain integers >= 1")
    t = _tbl(f, table)
    u, tau = support_gcd(f)
    bounds = [Mk_bounds(f, 0, [], t)]
    for k in range(1, ks[0]):
        bounds.append(Mk_bounds(f, k, bounds, t))
    first = level_samples(f, ks[0], t)
    if not _dominant(f, ks[0], first, bounds):
        raise DominanceNotCertified(
            f"dominance not certified at level {ks[0]}; no witness available"
        )
    out = []
    for k in ks:
        samples = first if k == ks[0] else level_samples(f, k, t)
        finite = [s for s in samples if s.value is not INF]
        if not finite:
            raise DominanceNotCertified(f"all slope samples at level {k} are +inf")
        best = min(s.value for s in finite)
        d_k = min(s.d for s in finite if s.value == best)
        n = u * d_k * f.p**k

        def eval_val(n=n):
            return f.multiplier.val_mu(b_coeffs(f, n, t)[n])

        val_b = run_certified(t, eval_val)
        out.append((k, d_k, val_b, val_b / n))
    gap = p_tau_minus_1(f.p, tau) / u
    for (k0, _, _, s0), (k1, _, _, s1) in zip(out, out[1:]):
        if s1 > s0 - gap * (k1 - k0):
            raise AssertionError(
                f"witness slopes fail to drop: {s0} at k={k0}, {s1} at k={k1}"
            )
    return out
