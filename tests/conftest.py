"""Shared fixtures and desk-scale oracles.

The oracles here deliberately avoid the production code paths they check:
chain sums are expanded from the full enumerated chain set, multinomials are
recomputed with big-integer factorials, and conjugacies are verified by
direct truncated composition.
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
