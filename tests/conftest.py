"""Shared fixtures and desk-scale oracles.

The oracles here deliberately avoid the production code paths they check:
chain sums are expanded from the full enumerated chain set, multinomials are
recomputed with big-integer factorials, conjugacies are verified by direct
truncated composition, and Laurent products, sums and inverses are computed
coefficient by coefficient, never packed.
"""

import math
import os
import random

import pytest

from charp.combinat import enumerate_chains, enumerate_I, multinomial_residue
from charp.field import LaurentElement
from charp.recurrence import DynamicalSeries, Phi_chain

INF = math.inf

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """The environment for a child interpreter that imports charp from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(x for x in (SRC, env.get("PYTHONPATH")) if x)
    return env


def quadratic(p=5, **kw):
    """f = lambda*z + z^2, the standard worked example."""
    return DynamicalSeries.from_spec(p, {1: 1}, **kw)


def make_map(p, coeffs, **kw):
    return DynamicalSeries.from_spec(p, coeffs, **kw)


def random_maps(seed, count, p_choices=(3, 5), max_support=3, max_exp=6, index_pool=6):
    """Deterministic corpus of random polynomial maps with monomial
    coefficients (the regime the whole desk-scale suite works in)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice(p_choices)
        size = rng.randint(1, max_support)
        support = sorted(rng.sample(range(1, index_pool + 1), size))
        coeffs = {
            i: LaurentElement.from_terms(p, {rng.randint(0, max_exp): rng.randrange(1, p)})
            for i in support
        }
        out.append(DynamicalSeries.from_spec(p, coeffs))
    return out


def phi_by_enumeration(f, k, r, s, budget=12):
    """Chain-sum oracle: expand the full chain set and add the products."""
    total = LaurentElement.zero(f.p)
    for chain in enumerate_chains(k, r, s, f.p, budget):
        total = total + Phi_chain(f, chain)
    return total


def numerator_by_enumeration(f, r, s, window):
    """Numerator oracle: every multi-index of enumerate_I with its full
    multinomial residue and exact coefficient powers.  A multi-index whose
    valuation floor lies window or more above the least floor (over all
    multi-indices, whatever their residue) is left out and leaves a horizon:
    the least such floor when some kept residue is nonzero, else the least
    such floor with a nonzero residue."""
    p = f.p
    alphas = enumerate_I(f, r, s)

    def floor(alpha):
        return sum(v * f.a(i).val_t() for i, v in alpha.entries if i)

    if not alphas:
        return LaurentElement.zero(p)
    cap = min(floor(a) for a in alphas) + window
    total = LaurentElement.zero(p)
    kept = False
    far = []
    for alpha in alphas:
        c = multinomial_residue(r + 1, alpha.parts(), p)
        if floor(alpha) >= cap:
            far.append((floor(alpha), c))
        elif c:
            term = LaurentElement.one(p)
            for i, v in alpha.entries:
                term = term * f.a(i) ** v
            total = total + term.scale(c)
            kept = True
    horizon = min((fl for fl, c in far if kept or c), default=None)
    if horizon is None:
        return total
    return LaurentElement(p, total.vmin, total.coeffs, min(total._known(), horizon))


def multinomial_by_factorials(top, parts):
    """Big-integer oracle for the mod-p multinomial."""
    n = math.factorial(top)
    for x in parts:
        n //= math.factorial(x)
    return n


@pytest.fixture
def quad():
    return quadratic()


# -- plain-loop coefficient oracles ------------------------------------------
# Products, sums and inverses of Laurent windows one coefficient at a time,
# with the window rules spelled out: a product is certified up to
# min(x's start + y's horizon, y's start + x's horizon), a sum up to the
# least horizon of its terms.  Results are built by the public constructor
# from coefficient lists, so nothing here packs coefficients.


def _horizon(x):
    return INF if x.known_to is None else x.known_to


def _start(x):
    return x.vmin if x.coeffs else _horizon(x)


def _window_element(p, terms, known):
    """The element with coefficients terms (exponent -> residue) below known."""
    terms = {e: c % p for e, c in terms.items() if e < known and c % p}
    known_to = None if known == INF else known
    if not terms:
        return LaurentElement.zero(p) if known_to is None else LaurentElement.zero_up_to(p, known_to)
    lo = min(terms)
    coeffs = [0] * (max(terms) - lo + 1)
    for e, c in terms.items():
        coeffs[e - lo] = c
    return LaurentElement(p, lo, coeffs, known_to)


def plain_product(x, y):
    """x * y by a double loop over the coefficients."""
    p = x.p
    if x.is_exact_zero() or y.is_exact_zero():
        return LaurentElement.zero(p)
    known = min(_start(x) + _horizon(y), _start(y) + _horizon(x))
    terms = {}
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            e = x.vmin + y.vmin + i + j
            terms[e] = terms.get(e, 0) + a * b
    return _window_element(p, terms, known)


def plain_sum(p, terms):
    """sum of c * x over pairs (c, x), c an integer."""
    known = min((_horizon(x) for _c, x in terms), default=INF)
    out = {}
    for c, x in terms:
        for i, a in enumerate(x.coeffs):
            out[x.vmin + i] = out.get(x.vmin + i, 0) + c * a
    return _window_element(p, out, known)


def plain_dot(p, triples):
    """sum of c * x * y over triples (c, x, y)."""
    return plain_sum(p, [(c, plain_product(x, y)) for c, x, y in triples])


def plain_inverse(x, width):
    """1/x certified to min(width, x's own width) coefficients, by the
    recurrence b_k = -b_0 * sum_{i=1..k} a_i * b_{k-i}."""
    p = x.p
    if x.known_to is not None:
        width = min(width, x.known_to - x.vmin)
    a = list(x.coeffs) + [0] * width
    b0 = pow(a[0], p - 2, p)
    b = [b0]
    for k in range(1, width):
        b.append(-b0 * sum(a[i] * b[k - i] for i in range(1, k + 1)) % p)
    return _window_element(p, {-x.vmin + k: c for k, c in enumerate(b)}, -x.vmin + width)
