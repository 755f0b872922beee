"""Multi-index enumeration, multinomial residues mod p, and chain sets.

Chain enumeration here is strictly a desk-scale oracle: it expands the full
2^(s-r-1) chain set and is guarded by an explicit budget.  Production chain
sums go through the interval dynamic programming in :mod:`charp.recurrence`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded, PartsMismatch
from .field import val_p_ext

INF = math.inf


@dataclass(frozen=True)
class MultiIndex:
    """A solution alpha of the window system: sum alpha_i = r + 1 and
    sum i*alpha_i = s - r, supported on {0} union support(f).

    entries holds the nonzero components only, as sorted (index, value) pairs.
    """

    r: int
    s: int
    entries: tuple[tuple[int, int], ...]

    def __getitem__(self, i):
        for idx, v in self.entries:
            if idx == i:
                return v
        return 0

    @property
    def weight(self):
        """|alpha| = sum of components."""
        return sum(v for _, v in self.entries)

    @property
    def degree(self):
        """||alpha|| = sum of i * alpha_i."""
        return sum(i * v for i, v in self.entries)

    def parts(self):
        """Nonzero components, for feeding a multinomial."""
        return [v for _, v in self.entries]

    def values_ext(self):
        """All components including zeros, over indices 0..s-r."""
        d = dict(self.entries)
        return [d.get(i, 0) for i in range(self.s - self.r + 1)]


_FACT_TABLES: dict[int, tuple[list[int], list[int]]] = {}


def _fact_tables(p: int, values):
    """d! mod p and its inverse, for every base-p digit d of the values.

    The tables of p grow to the largest digit asked for, so a large p costs
    only as many entries as its inputs have digits of that size."""
    tables = _FACT_TABLES.get(p)
    if tables is None:
        tables = _FACT_TABLES[p] = ([1], [1])
    fact, inv_fact = tables
    old = len(fact)
    if old < p and max(values) >= old:  # a digit may be missing
        top = 0
        for x in values:
            while x:
                x, d = divmod(x, p)
                if d > top:
                    top = d
        if top >= old:
            for i in range(old, top + 1):
                fact.append(fact[-1] * i % p)
            # 1/d! = (d+1)/(d+1)!, downward from one modular inverse
            tail = [pow(fact[top], p - 2, p)]
            for i in range(top, old, -1):
                tail.append(tail[-1] * i % p)
            inv_fact.extend(reversed(tail))
    return tables


def multinomial_residue(top: int, parts, p: int) -> int:
    """Multinomial coefficient top!/prod(parts_i!) reduced mod p.

    Computed digit-by-digit in base p (generalized Lucas): the residue is the
    product of the per-digit multinomials, and it vanishes exactly when some
    digit column of the parts overflows the corresponding digit of top.
    Never touches a factorial larger than (p-1)!.
    """
    rem = [x for x in parts if x != 0]
    if top < 0 or any(x < 0 for x in rem):
        raise PartsMismatch("negative part")
    if sum(rem) != top:
        raise PartsMismatch(f"parts sum to {sum(rem)}, expected {top}")
    fact, inv_fact = _fact_tables(p, [top] + rem)
    res = 1
    while top:
        d = top % p
        top //= p
        col = 0
        for i, x in enumerate(rem):
            xd = x % p
            rem[i] = x // p
            col += xd
            res = res * inv_fact[xd] % p
        if col != d:
            return 0  # carry in base p
        res = res * fact[d] % p
    if any(rem):
        return 0
    return res


def binomial_residue(n: int, k: int, p: int) -> int:
    """Binomial coefficient n!/(k! (n-k)!) reduced mod p, for 0 <= k <= n.

    Lucas' theorem: the product of the digit-wise binomials in base p, zero
    as soon as a digit of k exceeds the digit of n.
    """
    if not 0 <= k <= n:
        raise PartsMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    fact, inv_fact = _fact_tables(p, (n, k))
    res = 1
    while k:
        nd = n % p
        kd = k % p
        if kd > nd:
            return 0
        res = res * fact[nd] * inv_fact[kd] * inv_fact[nd - kd] % p
        n //= p
        k //= p
    return res


def lucas_vanishes(r: int, alpha: MultiIndex, j: int, p: int) -> bool:
    """Digit-overflow test at scale p^j: floor((r+1)/p^j) > sum floor(alpha_i/p^j).

    True forces multinomial_residue(r+1, alpha) == 0.
    """
    q = p**j
    return (r + 1) // q > sum(v // q for _, v in alpha.entries)


@functools.lru_cache(maxsize=8192)
def degree_solutions(support: tuple, d: int) -> tuple:
    """All support-restricted solutions of sum i*alpha_i = d, as tuples
    (weight, slots, entries): weight = sum alpha_i, slots = the values over
    the sorted support, entries = the nonzero (i, alpha_i) pairs.

    Ordered by decreasing weight then ascending slots, which is exactly the
    dense lexicographic order of the full multi-indices once alpha_0 =
    r + 1 - weight is prepended.  Cached process-wide: the window base point
    r only enters through the weight budget, so every window of the same gap,
    in every table of the same support, shares this.  The cache bound counts
    entries, one per (support, d), not solutions.
    """
    idxs = sorted(i for i in support if 0 < i <= d)
    sols = []
    # recurse from the largest stride down so the final (smallest) index is
    # forced by the remaining degree: the search then only visits solutions
    order = idxs[::-1]

    def rec(pos, deg_left, acc):
        if pos == len(order):
            if deg_left == 0:
                vals = dict(acc)
                slots = tuple(vals.get(i, 0) for i in idxs)
                entries = tuple(sorted((i, v) for i, v in acc if v))
                sols.append((sum(slots), slots, entries))
            return
        i = order[pos]
        if pos == len(order) - 1:
            if deg_left % i == 0:
                rec(pos + 1, 0, acc + [(i, deg_left // i)])
            return
        for v in range(deg_left // i + 1):
            rec(pos + 1, deg_left - i * v, acc + [(i, v)])

    rec(0, d, [])
    sols.sort(key=lambda ws: (-ws[0], ws[1]))
    return tuple(sols)


def enumerate_I(f, r: int, s: int) -> list[MultiIndex]:
    """All multi-indices of the window (r, s) for the map f.

    Solves the two-equation system over {0} union support(f) directly, so the
    cost is tiny even for long windows.  Returned in lexicographic order of
    the support-restricted tuple (alpha_0, alpha_{i_1}, ...).
    """
    if not (0 <= r < s):
        raise ValueError(f"need 0 <= r < s, got ({r}, {s})")
    out = []
    for weight, _slots, entries in degree_solutions(tuple(f.support), s - r):
        if weight > r + 1:
            continue
        alpha0 = r + 1 - weight
        full = ((0, alpha0),) + entries if alpha0 else entries
        out.append(MultiIndex(r, s, full))
    return out


@dataclass(frozen=True)
class Chain:
    """A strictly increasing integer sequence (beta_0, ..., beta_L) whose
    interior terms avoid multiples of p^level (level = inf means no
    restriction)."""

    terms: tuple[int, ...]
    level: float  # int level or math.inf

    def __post_init__(self):
        t = self.terms
        if len(t) < 2 or any(a >= b for a, b in zip(t, t[1:])):
            raise ValueError(f"chain terms must strictly increase: {t}")

    def pairs(self):
        return list(zip(self.terms, self.terms[1:]))


class StarChain(Chain):
    """A chain whose p-adic valuation profile never rises again after its
    first strict descent (a "mountain" profile, with val_p(0) = +inf)."""

    def __init__(self, terms, level, p):
        super().__init__(terms, level)
        if not is_star_profile(terms, p):
            raise ValueError(f"not a star chain for p={p}: {terms}")


def is_star_profile(terms, p) -> bool:
    vals = [val_p_ext(x, p) for x in terms]
    descended = False
    for v0, v1 in zip(vals, vals[1:]):
        if descended and v1 > v0:
            return False
        if v0 > v1:
            descended = True
    return True


def _interior_points(k, r, s, p):
    if k == INF:
        return list(range(r + 1, s))
    q = p ** int(k)
    return [x for x in range(r + 1, s) if x % q != 0]


def enumerate_chains(k, r: int, s: int, p: int, budget: int = 20) -> list[Chain]:
    """The full chain set from r to s at level k, in lexicographic order
    of the term tuples.

    Interior terms must avoid multiples of p^k (every chain for k = inf,
    only the two-term chain for k = 0).  Guarded by the budget because the
    count is 2^(number of admissible interior points).
    """
    if not (0 <= r < s):
        raise ValueError(f"need 0 <= r < s, got ({r}, {s})")
    if s - r > budget:
        raise BudgetExceeded(f"s - r = {s - r} exceeds budget {budget}")
    interior = _interior_points(k, r, s, p)
    chains = []
    for size in range(len(interior) + 1):
        for mid in combinations(interior, size):
            chains.append(Chain((r,) + mid + (s,), k))
    chains.sort(key=lambda c: c.terms)
    return chains


def enumerate_star_chains(k, r: int, s: int, p: int, budget: int = 8) -> list[StarChain]:
    """Level-k chains filtered by the mountain-profile condition."""
    return [
        StarChain(c.terms, k, p)
        for c in enumerate_chains(k, r, s, p, budget)
        if is_star_profile(c.terms, p)
    ]
