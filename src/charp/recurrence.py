"""The coefficient recurrence and its level sums.

Everything here is organized around one kernel quantity: for a window (r, s)
the normalized multinomial sum

    Phi(r, s) = (1 / (lambda * (1 - lambda^s))) * sum over multi-indices of
                binom(r+1; alpha)_p * a^alpha,

and the level-k sums phi_k(r, s), which add up products of Phi over chains
from r to s whose interior avoids multiples of p^k.  Chain sets grow like
2^(s-r-1), so phi_k is computed by an O((s-r)^2)-edge interval dynamic
program over admissible points; explicit enumeration only appears in tests.
The same DP gives the conjugacy coefficients: b_n is the level-inf chain
sum phi_inf(0, n/u), so b_coeffs reads nodes of one shared sweep.

The DP is sparse.  By the generalized Lucas theorem the multinomial
binom(r+1; r+1-w, alpha) is nonzero mod p exactly when the base-p digits of
the parts add up to those of r + 1 without a carry, so the gaps s - r with
a nonzero residue are the sums over the digits n_j of r + 1 of p^j times a
sum of at most n_j support elements (_carry_free_gaps).  That set also
leaves out every gap past (r + 1) * max(support), where no multi-index
exists at all.  Every support element is a multiple of u, so on support/u
the same set is in the DP's units: bit x - y of the set of base point u*y
is the edge y -> x.  Each per-(k, r) state keeps only the nodes whose value
is not an exact zero (a horizon zero, known to vanish only up to the
window, is kept), how far the sweep has gone, and its reach: the union over
stored nodes y of their gap sets shifted by y.  The sweep visits only the
points in the reach; any other point has no edge from a stored node, so it
is an exact zero, as is an admissible point swept but absent.  A reached
point sums over stored predecessors only, and skips an edge missing from
its base point's gap set before the numerator is built.

Every sum of products is one packed multiply-accumulate
(LaurentElement.dot): the terms residue * a^alpha * lambda^alpha0 of a
numerator, and the terms g[y] * numerator(y, x) of a DP node, b_n
included.  A multinomial residue is split as binom(r+1, w) *
(w! / prod(parts!)) mod p, w the weight of the solution: the second factor
depends only on the gap s - r and is computed once per degree solution, so
only the binomial is read per window, from the Pascal row of r + 1 mod p
that one process-wide cache holds.

A LevelTable owns the memoized values of one map at one working window:
numerators, Phi, the DP states and phi_k, and psi_k, so a repeated Phi or
psi query costs no multiplication by its prefactor.  Phi_chain looks up
every step before it multiplies, so a chain with an exact-zero step costs
no product at all.  The values that depend only on lambda and the window
(the prefactors 1/(lambda(1 - lambda^s)), the psi rescaling factors,
window powers of lambda) live on the Multiplier, which every map with the
same (p, lambda) shares.  Escalation (enlarging the window after an
uncertified valuation query) happens only in run_certified: it wipes every
value of the table that depends on the window, the Phi and psi memos
included, and keeps the per-gap solution data.  A table keeps a copy of its
map without the map's own table, so the two do not form a reference cycle.
"""

from __future__ import annotations

import copy
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

from .combinat import Chain, binomial_residue, degree_solutions, multinomial_residue
from .errors import (
    DegenerateLinearMap,
    DivisibilityViolation,
    PrecisionExhausted,
    UncertifiedLeadingTerm,
)
from .field import (
    DEFAULT_WINDOW,
    MAX_WINDOW,
    LaurentElement,
    Multiplier,
    PrimeContext,
    make_lambda,
    parse_laurent,
    val_p,
    val_p_ext,
)

INF = math.inf


@functools.lru_cache(maxsize=4096)
def _binomial_row(n: int, p: int) -> tuple[int, ...]:
    """binom(n, w) mod p for w = 0..n.  A tuple, since residues run up to
    p - 1 and p is any odd prime.  Cached process-wide: every numerator
    with base point r = n - 1, in every table over F_p, reads the same
    row."""
    return tuple(binomial_residue(n, w, p) for w in range(n + 1))


@functools.lru_cache(maxsize=256)
def _support_sums(support: tuple) -> list[int]:
    """Row m is the bitset S_m of the sums of at most m elements of support
    (bit g set when g is such a sum), so S_0 = {0}.  The list starts at S_0
    and _carry_free_gaps grows it to the largest digit it meets; it does not
    depend on p."""
    return [1]


@functools.lru_cache(maxsize=4096)
def _carry_free_gaps(n: int, p: int, support: tuple) -> int:
    """The gaps d for which some multi-index of weight <= n over support has
    a nonzero residue binom(n; n-w, alpha) mod p, as a bitset (bit d set).

    The residue is nonzero exactly when the base-p digits of the parts add
    up to the digits n_j of n without a carry, and then digit j of the parts
    on support carries p^j times a sum of at most n_j support elements: the
    set is the sum over j of p^j * S_{n_j}.  Cached process-wide: every
    edge from base point r = n - 1, in every table of the same support over
    F_p, reads the same set."""
    rows = _support_sums(support)
    gaps = 1
    scale = 1
    while n:
        n, digit = divmod(n, p)
        if digit:
            while len(rows) <= digit:
                prev = row = rows[-1]
                for i in support:
                    row |= prev << i
                rows.append(row)
            acc = 0
            for e, bit in enumerate(reversed(bin(rows[digit]))):
                if bit == "1":
                    acc |= gaps << (scale * e)
            gaps = acc
        scale *= p
    return gaps


class DynamicalSeries:
    """The map f(z) = z*(lambda + sum_i a_i z^i) with finitely many a_i.

    Derived data: u = gcd of the support {i : a_i != 0} and tau = val_p(u).
    By convention a_0 = lambda.  The degenerate f = lambda*z can be built,
    but u/tau (and everything downstream) reject it.
    """

    def __init__(self, ctx: PrimeContext, multiplier: Multiplier, coeffs: dict[int, LaurentElement]):
        self.ctx = ctx
        self.multiplier = multiplier
        clean: dict[int, LaurentElement] = {}
        for i, a in sorted(coeffs.items()):
            if i < 1:
                raise ValueError(f"coefficient index must be >= 1, got {i}")
            if not a.exact:
                raise ValueError(f"a_{i} must be an exact Laurent polynomial")
            if a.is_exact_zero():
                continue
            clean[i] = a
        self.coeffs = clean
        self.support = tuple(sorted(clean))
        self._table = None

    @classmethod
    def from_spec(cls, p, coeffs, lam=None, default_window=DEFAULT_WINDOW, max_window=MAX_WINDOW):
        """Convenience builder: coeffs maps i to an int, Laurent literal or
        LaurentElement; lam is a Laurent literal (default 1 + t)."""
        ctx = PrimeContext(p, default_window, max_window)
        mult = make_lambda(ctx, lam)
        table = {}
        for i, v in coeffs.items():
            if isinstance(v, LaurentElement):
                table[i] = v
            elif isinstance(v, int):
                table[i] = LaurentElement.from_terms(p, {0: v})
            else:
                table[i] = parse_laurent(p, v)
        return cls(ctx, mult, table)

    @property
    def p(self):
        return self.ctx.p

    @property
    def lam(self):
        return self.multiplier.lam

    @property
    def u(self):
        if not self.support:
            raise DegenerateLinearMap("f = lambda*z has empty support")
        return math.gcd(*self.support)

    @property
    def tau(self):
        return val_p(self.u, self.p)

    def a(self, i):
        """Coefficient a_i, with a_0 = lambda."""
        if i == 0:
            return self.multiplier.lam
        return self.coeffs.get(i, LaurentElement.zero(self.p))

    def table(self):
        """The map's default LevelTable (created lazily, shared)."""
        if self._table is None:
            self._table = LevelTable(self)
        return self._table

    def __repr__(self):
        parts = " + ".join(f"a{i}*z^{i + 1}" for i in self.support)
        return f"<f(z) = lambda*z + {parts} over F_{self.p}((t))>"


class LevelTable:
    """Memoized Phi / phi_k values for one map at one working window."""

    def __init__(self, f: DynamicalSeries, window: int | None = None):
        # a shallow copy of the map without the default table it holds, so
        # that a map and its table do not keep each other alive
        self.f = copy.copy(f)
        self.f._table = None
        self.window = window if window is not None else f.ctx.default_window
        self._gap = {}        # s - r -> per-solution data, independent of the window
        self._reset()

    def _reset(self):
        # every value below depends on the window, so escalate drops them all
        self._num = {}        # (r, s) -> numerator of Phi
        self._Phi = {}        # (r, s) -> Phi(r, s), numerator times prefactor
        self._psi = {}        # (k, r, s) -> psi_k(r, s), phi_k times rescaling
        # (k, r) -> {"g": {x: value, not exact zero}, "hi": last swept point,
        #            "reach": bitset of the points an edge from g can reach}
        self._dp = {}
        self._pow_win = {}    # (i, e) -> window-truncated power of a_i, i >= 1
        self._gap_prod = {}   # entries -> coefficient-power product

    def escalate(self):
        """Double the window, clipped to the cap, and drop every cached value
        that depends on the window (the per-gap solution data stays).

        Raises PrecisionExhausted when the window already is the cap, which
        is the honest end state for a query whose value cannot be certified.
        """
        cap = self.f.ctx.max_window
        if self.window >= cap:
            raise PrecisionExhausted(f"window cap {cap} reached (at {self.window})")
        self.window = min(2 * self.window, cap)
        self._reset()

    # -- cached building blocks ---------------------------------------------

    def _pow_window(self, i: int, e: int) -> LaurentElement:
        """a_i**e for i >= 1, exact when small, else width-window certified
        (powers of a_0 = lambda come from Multiplier.window_pow)."""
        key = (i, e)
        got = self._pow_win.get(key)
        if got is None:
            base = self.f.a(i)
            span = len(base.coeffs)
            if (span - 1) * e < 4 * self.window:
                got = base**e
            else:
                got = base.truncate(self.window) ** e
            self._pow_win[key] = got
        return got

    def _inv_prefactor(self, s: int) -> LaurentElement:
        return self.f.multiplier.inv_prefactor(s, self.window)

    def _gap_solutions(self, d: int):
        """Per-gap data shared by every window with s - r = d: for each
        degree solution, its weight w, the exact valuation floor of its
        coefficient product, its entries, and its per-gap residue factor
        w! / prod(parts!) mod p.  None of it depends on the window or on r.
        The products themselves are built lazily (most solutions never
        survive the window pruning).

        Returns (solutions, groups): solutions come in decreasing weight, so
        those with weight <= r + 1 are a suffix.  groups holds one entry
        (-w, first index of weight w, least valuation floor from there on)
        per distinct weight, in the same order, for bisecting on -(r + 1)."""
        got = self._gap.get(d)
        if got is None:
            p = self.f.p
            avals = {i: a.val_t() for i, a in self.f.coeffs.items()}
            sols = []
            for weight, _slots, entries in degree_solutions(tuple(self.f.support), d):
                tval = sum(v * avals[i] for i, v in entries)
                gres = multinomial_residue(weight, [v for _i, v in entries], p)
                sols.append((weight, tval, entries, gres))
            groups = []
            low = INF
            for idx in range(len(sols) - 1, -1, -1):
                weight, tval = sols[idx][0], sols[idx][1]
                low = min(low, tval)
                if idx == 0 or sols[idx - 1][0] != weight:
                    groups.append((-weight, idx, low))
            groups.reverse()
            got = (sols, groups)
            self._gap[d] = got
        return got

    def _solution_product(self, entries) -> LaurentElement:
        got = self._gap_prod.get(entries)
        if got is None:
            got = None
            for i, v in entries:
                factor = self._pow_window(i, v)
                got = factor if got is None else got * factor
            if got is None:
                got = LaurentElement.one(self.f.p)
            self._gap_prod[entries] = got
        return got

    def numerator(self, r: int, s: int) -> LaurentElement:
        """The multinomial sum of Phi(r, s), before the 1/(lambda(1-lambda^s))
        factor.  Exact zero when the window has no multi-indices or all
        residues vanish; those are the structural zeros that make slopes
        +infinity, as opposed to precision accidents.

        The residue of a solution of weight w is split as
        binom(r+1, w) * (w! / prod(parts!)) mod p; the second factor is the
        per-gap one from _gap_solutions, so a solution whose parts carry in
        base p is skipped without touching r.  The terms
        residue * a^alpha * lambda^alpha0 are summed by one
        LaurentElement.dot.

        Solutions whose valuation floor lies beyond the working window of
        the leading one cannot contribute certified coefficients; they are
        skipped and recorded as a horizon instead (so the window, not the
        value, shrinks; escalation recovers them when it matters).  The
        leading floor is taken over every solution whose weight fits,
        whatever its residue, and so is the horizon when some term is kept."""
        key = (r, s)
        got = self._num.get(key)
        if got is not None:
            return got
        p = self.f.p
        sols, groups = self._gap_solutions(s - r)
        g = bisect_left(groups, (-(r + 1),))  # first group of weight <= r + 1
        if g == len(groups):
            out = LaurentElement.zero(p)
            self._num[key] = out
            return out
        _w, first, vfloor = groups[g]
        window = self.window
        cap = vfloor + window
        lam_pow = self.f.multiplier.window_pow
        binom = _binomial_row(r + 1, p)
        dropped = []
        triples = []
        for weight, tval, entries, gres in sols[first:]:
            if tval >= cap:
                dropped.append((weight, tval, gres))
                continue
            if not gres:
                continue
            c = binom[weight] * gres % p
            if c == 0:
                continue
            triples.append(
                (c, self._solution_product(entries), lam_pow(r + 1 - weight, window))
            )
        horizon = None
        if not triples and dropped:
            # nothing certified below the pruned region: residues there are
            # cheap and decide between a structural zero and a horizon zero
            for weight, tval, gres in dropped:
                if gres and binom[weight]:
                    horizon = tval if horizon is None else min(horizon, tval)
            dropped = [] if horizon is None else dropped
        elif dropped:
            horizon = min(tval for _w, tval, _g in dropped)
        if not triples:
            out = (
                LaurentElement.zero(p)
                if not dropped
                else LaurentElement.zero_up_to(p, horizon)
            )
        else:
            out = LaurentElement.dot(p, triples)
            if horizon is not None:
                out = LaurentElement(p, out.vmin, out.coeffs, min(out._known(), horizon))
        self._num[key] = out
        return out

    def Phi(self, r: int, s: int) -> LaurentElement:
        """The recurrence kernel on the raw window (r, s)."""
        key = (r, s)
        got = self._Phi.get(key)
        if got is None:
            got = self.numerator(r, s)
            if not got.is_exact_zero():
                got = got * self._inv_prefactor(s)
            self._Phi[key] = got
        return got

    # -- level sums by interval DP -------------------------------------------

    def _interior_ok(self, k, x):
        if k == INF:
            return True
        return x % (self.f.p ** int(k)) != 0

    @functools.cached_property
    def _units(self) -> tuple[int, tuple]:
        """u and the support divided by u, whose carry-free gap sets count
        in the DP's units, one point per multiple of u."""
        u = self.f.u
        return u, tuple(i // u for i in self.f.support)

    def _gaps(self, y: int) -> int:
        """The carry-free gaps of base point u*y in the DP's units: bit d is
        set when the edge y -> y + d may have a nonzero numerator."""
        u, units = self._units
        return _carry_free_gaps(u * y + 1, self.f.p, units)

    def _node_value(self, g, x):
        """Sum over admissible y < x of g[y] * Phi(u*y, u*x).

        g is the sparse DP state: it holds only nodes that are not exact
        zeros, in increasing order, so the loop visits nonzero predecessors
        only.  An edge whose bit x - y is missing from the gap set of y has
        only vanishing residues, so its numerator would be an exact zero: it
        is skipped before the numerator is built.  Every other numerator is
        built as it stands, horizon included.  The products g[y] * numerator
        are summed by one LaurentElement.dot, and the sum is multiplied by
        the prefactor once.
        """
        u, units = self._units
        p = self.f.p
        triples = []
        for y, gy in g.items():
            if y >= x:
                break
            if not _carry_free_gaps(u * y + 1, p, units) >> (x - y) & 1:
                continue
            num = self.numerator(u * y, u * x)
            if num.is_exact_zero():
                continue
            triples.append((1, gy, num))
        acc = LaurentElement.dot(p, triples)
        if acc.is_exact_zero():
            return acc
        return acc * self._inv_prefactor(u * x)

    def phi(self, k, r: int, s: int) -> LaurentElement:
        """Level-k chain sum on (r, s), by DP over admissible points.

        The per-(k, r) DP state is shared between targets, so sampling many
        s values against one base point costs one sweep total.  The sweep
        stores only nodes that are not exact zeros, and ORs the gap set of
        each stored node, shifted to it, into the state's "reach".  It jumps
        from one reached point to the next, so the points in between, exact
        zeros with no edge from a stored node, cost nothing.  "hi" records
        how far it has gone, so an admissible point up to hi missing from g
        is an exact zero.  An inadmissible target is summed directly and
        never stored.
        """
        if not (0 <= r < s):
            raise ValueError(f"need 0 <= r < s, got ({r}, {s})")
        st = self._dp.get((k, r))
        if st is None:
            st = {"g": {r: LaurentElement.one(self.f.p)}, "hi": r, "reach": self._gaps(r) << r}
            self._dp[(k, r)] = st
        g = st["g"]
        admissible = self._interior_ok(k, s)
        top = s if admissible else s - 1
        if top > st["hi"]:
            reach = st["reach"]
            x = st["hi"] + 1
            while True:
                ahead = reach >> x
                if not ahead:
                    break
                x += (ahead & -ahead).bit_length() - 1
                if x > top:
                    break
                if self._interior_ok(k, x):
                    val = self._node_value(g, x)
                    if not val.is_exact_zero():
                        g[x] = val
                        reach |= self._gaps(x) << x
                x += 1
            st["reach"] = reach
            st["hi"] = top
        if admissible:
            return g.get(s, LaurentElement.zero(self.f.p))
        return self._node_value(g, s)

    def _psi_prefactor(self, k: int, s: int) -> LaurentElement:
        f = self.f
        return f.multiplier.psi_factor(f.p ** (k + f.tau), f.u * s, self.window)

    def psi(self, k: int, r: int, s: int) -> LaurentElement:
        """phi_k rescaled so that its valuation over (s - r) is the Newton
        slope; the rescaling is valuation-neutral exactly when val_p(s) = k."""
        key = (k, r, s)
        got = self._psi.get(key)
        if got is None:
            got = self.phi(k, r, s)
            if not got.is_exact_zero():
                got = got * self._psi_prefactor(k, s)
            self._psi[key] = got
        return got


def run_certified(table: LevelTable, thunk):
    """Run thunk, enlarging the table's window until its valuation queries
    certify (or the cap raises PrecisionExhausted)."""
    while True:
        try:
            return thunk()
        except UncertifiedLeadingTerm:
            table.escalate()


def _tbl(f: DynamicalSeries, table: LevelTable | None) -> LevelTable:
    return table if table is not None else f.table()


# -- module-level operations -------------------------------------------------

def Phi(f: DynamicalSeries, r: int, s: int, table: LevelTable | None = None) -> LaurentElement:
    return _tbl(f, table).Phi(r, s)


def Phi_chain(f: DynamicalSeries, beta: Chain, table: LevelTable | None = None) -> LaurentElement:
    """Product of Phi over consecutive chain pairs, scaled by u.

    Steps are looked up (memoized) before any product is formed, stopping
    at the first exact zero, so a vanishing chain costs no multiplication."""
    t = _tbl(f, table)
    u = f.u
    steps = []
    for b0, b1 in beta.pairs():
        step = t.Phi(u * b0, u * b1)
        if step.is_exact_zero():
            return LaurentElement.zero(f.p)
        steps.append(step)
    out = LaurentElement.one(f.p)
    for step in steps:
        out = out * step
    return out


def phi_k(f: DynamicalSeries, k, r: int, s: int, table: LevelTable | None = None) -> LaurentElement:
    return _tbl(f, table).phi(k, r, s)


def psi_k(f: DynamicalSeries, k: int, r: int, s: int, table: LevelTable | None = None) -> LaurentElement:
    return _tbl(f, table).psi(k, r, s)


def _chain_sum(r: int, s: int, interior_ok, edge, zero, one):
    """Generic interval DP: sum over increasing chains r -> s with admissible
    interiors of the product of edge values."""
    g = {r: one}
    for x in range(r + 1, s + 1):
        target = x == s
        if not target and not interior_ok(x):
            continue
        acc = zero
        for y, gy in g.items():
            if gy.is_exact_zero():
                continue
            w = edge(y, x)
            if w.is_exact_zero():
                continue
            acc = acc + gy * w
        if target:
            return acc
        g[x] = acc
    raise AssertionError("unreachable: target s never visited")


def phi_k_via_recursion(
    f: DynamicalSeries, k_prime, k: int, r: int, s: int, table: LevelTable | None = None
) -> LaurentElement:
    """Evaluate phi_{k'}(r, s) through the coarser level-k grid:
    chains on (r/p^k, s/p^k) at level k' - k, with phi_k edge weights.

    Must equal phi_k(f, k_prime, r, s); exercised as a cross-check of the DP.
    """
    t = _tbl(f, table)
    p = f.p
    if k < 0 or k > min(val_p_ext(r, p), val_p_ext(s, p)) or (k_prime != INF and k > k_prime):
        raise DivisibilityViolation(
            f"level {k} does not divide the grid ({r}, {s}) or exceeds {k_prime}"
        )
    q = p**k
    level = INF if k_prime == INF else k_prime - k
    zero = LaurentElement.zero(p)
    one = LaurentElement.one(p)

    def interior_ok(x):
        return level == INF or x % (p ** int(level)) != 0

    return _chain_sum(
        r // q,
        s // q,
        interior_ok,
        lambda y, x: t.phi(k, y * q, x * q),
        zero,
        one,
    )


@dataclass(frozen=True)
class ConjugacyPrefix:
    """The first coefficients b_0..b_N of the normalized conjugacy
    h(z) = z * sum b_n z^n; b_0 = 1 and b_n = 0 whenever u does not divide n."""

    coefficients: tuple[LaurentElement, ...]

    def __getitem__(self, n):
        return self.coefficients[n]

    def __len__(self):
        return len(self.coefficients)


def b_coeffs(f: DynamicalSeries, N: int, table: LevelTable | None = None) -> ConjugacyPrefix:
    """Conjugacy coefficients of the triangular recurrence
    b_n = sum_{l < n} b_l * Phi(l, n), b_0 = 1.

    Expanded, the recurrence sums Phi-products over every chain 0 -> n, and
    only multiples of u carry a nonzero b_l, so b_n is the level-inf chain
    sum phi_inf(0, n/u).  The (inf, 0) DP state is shared: the first call
    sweeps the range, later ones read stored nodes.  A map with empty
    support gives [1, 0, 0, ...]."""
    if N < 0:
        raise ValueError("need N >= 0")
    t = _tbl(f, table)
    p = f.p
    u = f.u if f.support else 0
    b = [LaurentElement.one(p)]
    zero = LaurentElement.zero(p)
    for n in range(1, N + 1):
        b.append(zero if u == 0 or n % u else t.phi(INF, 0, n // u))
    return ConjugacyPrefix(tuple(b))


def b_via_structure(f: DynamicalSeries, n: int, k: int, table: LevelTable | None = None) -> LaurentElement:
    """b_n evaluated through the level-k grid structure: chains on
    (0, n/(u p^k)) with phi_k edge weights.  Equals b_coeffs(f, n)[n]."""
    if n < 1:
        raise ValueError("need n >= 1")
    t = _tbl(f, table)
    p = f.p
    u = f.u
    if n % u:
        return LaurentElement.zero(p)
    m = n // u
    if k < 0 or k > val_p_ext(m, p):
        raise DivisibilityViolation(
            f"level {k} exceeds val_p({n}/{u}) = {val_p_ext(m, p)}"
        )
    q = p**k
    zero = LaurentElement.zero(p)
    one = LaurentElement.one(p)
    return _chain_sum(
        0,
        m // q,
        lambda x: True,
        lambda y, x: t.phi(k, y * q, x * q),
        zero,
        one,
    )


def conjugacy_residual(f: DynamicalSeries, N: int, table: LevelTable | None = None) -> list[LaurentElement]:
    """Coefficients of z^2..z^(N+1) in h(f(z)) - lambda*h(z), where h is built
    from b_coeffs.  All must vanish on their certified windows: this checks
    the recurrence against the conjugacy equation it came from, by direct
    truncated composition rather than by the recurrence itself."""
    if N < 1:
        raise ValueError("need N >= 1")
    t = _tbl(f, table)
    p = f.p
    b = b_coeffs(f, N, t).coefficients
    top = N + 1  # highest tracked power of z
    zero = LaurentElement.zero(p)

    # f(z) as a z-polynomial, clipped at z^top
    fz = [zero] * (top + 1)
    fz[1] = f.lam
    for i, a in f.coeffs.items():
        if i + 1 <= top:
            fz[i + 1] = a

    def zmul(a_vec, b_vec):
        out = [zero] * (top + 1)
        for i, ai in enumerate(a_vec):
            if ai.is_exact_zero():
                continue
            for j, bj in enumerate(b_vec):
                if i + j > top:
                    break
                if bj.is_exact_zero():
                    continue
                out[i + j] = out[i + j] + ai * bj
        return out

    hf = [zero] * (top + 1)
    fpow = [zero] * (top + 1)
    fpow[0] = LaurentElement.one(p)
    for m in range(0, N + 1):
        fpow = zmul(fpow, fz)  # f(z)^(m+1)
        if b[m].is_exact_zero():
            continue
        for j in range(top + 1):
            if not fpow[j].is_exact_zero():
                hf[j] = hf[j] + b[m] * fpow[j]

    out = []
    for j in range(2, top + 1):
        lh = f.lam * b[j - 1] if j - 1 <= N else zero
        out.append(hf[j] - lh)
    return out
