"""Exact residue arithmetic mod p and truncated Laurent series over F_p.

An element of F_p((t)) is stored as a window of certified coefficients:
everything from ``vmin`` up to (but excluding) ``known_to`` is known exactly,
everything at or above ``known_to`` is unknown.  ``known_to is None`` means
the element is an exact Laurent polynomial with no truncation at all.

Windows only ever shrink through leading-term cancellation in sums, so a
value whose window came out empty is "zero up to the horizon", which is a
different thing from the exact zero (empty support).  Valuation queries on
the former raise :class:`UncertifiedLeadingTerm` so that drivers can enlarge
the window and recompute; the latter has valuation +infinity.

Elements are immutable and every operation returns a new element.

Coefficient vectors are multiplied, added, negated and scaled by Kronecker
packing, for every p: each vector becomes one big integer, so a whole
convolution (or a whole sum of convolutions, see :meth:`LaurentElement.dot`;
a sum of two elements is such a sum against the exact one) runs inside
CPython's long arithmetic.  A limb is the fewest bytes, a power of two,
that hold the largest value a limb of the result can reach: for a sum of
products c * x * y that is the sum of c * min(len x, len y) * (p-1)**2 over
the products, with c * (p-1) in place of a term whose x or y is the single
coefficient 1, so no carry crosses a limb boundary.  Each element caches
its packed coefficients at the limb size it was last used at, so an operand
used again is not packed again, and a prefix of it is a mask.  Results are
reduced mod p by bytes.translate whenever every residue fits a byte.

The Multiplier owns the values that depend only on p, lambda and a working
width (truncated powers of lambda, the prefactors of Phi and psi), memoized
per width; make_lambda hands one Multiplier to every map with the same
(p, lambda), so a process computes each of those values once.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from fractions import Fraction

from .errors import UncertifiedLeadingTerm

INF = math.inf

# the t-precision budget of a fresh PrimeContext: the starting window and the
# cap that escalation doubles it up to
DEFAULT_WINDOW = 64
MAX_WINDOW = 8192


def val_p(n: int, p: int) -> int:
    """Largest e with p**e dividing n, for n >= 1."""
    if n < 1:
        raise ValueError(f"val_p needs n >= 1, got {n}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def val_p_ext(n: int, p: int):
    """val_p extended by the convention val_p(0) = +infinity."""
    return INF if n == 0 else val_p(n, p)


class PrimeContext:
    """The ambient prime together with the t-precision budget.

    default_window is the width (number of certified t-coefficients) used by
    fresh computations; escalation doubles it up to max_window.
    """

    __slots__ = ("p", "default_window", "max_window")

    def __init__(self, p: int, default_window: int = DEFAULT_WINDOW, max_window: int = MAX_WINDOW):
        if p < 3 or not _is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        if not (0 < default_window <= max_window):
            raise ValueError("need 0 < default_window <= max_window")
        self.p = p
        self.default_window = default_window
        self.max_window = max_window

    def __repr__(self):
        return f"PrimeContext(p={self.p}, default_window={self.default_window}, max_window={self.max_window})"


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# 3317044064679887385961981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError past the range where its
    bases are proven exact."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided here (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True  # no prime factor up to 41, so none up to its square root
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- coefficient kernel ------------------------------------------------------
# Coefficient vectors are sequences of ints reduced mod p, lowest exponent
# first.  A vector is packed into one integer with limbs of 1, 2, 4, 8, 16,
# ... bytes; an operation picks the fewest bytes that hold the largest value
# one of its limbs can reach, so a limb never carries into the next.

_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}  # limb bytes -> array typecode
_BYTE_TABLES = {}  # (p, j) -> the table b -> (b << 8j) % p for byte position j


def _limb_size(top):
    """Fewest bytes, a power of two, whose limbs hold every value up to `top`."""
    size = 1
    while top >> (8 * size):
        size *= 2
    return size


def _pack(vec, size, p) -> int:
    """vec as one integer with `size`-byte limbs.

    Residues of p <= 256 are packed through bytes(), which takes the bytes
    that _residues returns (array() would read those as machine words) and
    packs a list twice as fast as array() does.  Limbs wider than a machine
    word are written one coefficient at a time."""
    if p <= 256:
        raw = bytes(vec)
        if size > 1:
            wide = bytearray(len(raw) * size)
            wide[::size] = raw
            raw = wide
    elif size in _TYPECODES:
        raw = array(_TYPECODES[size], vec).tobytes()
    else:
        raw = b"".join(x.to_bytes(size, "little") for x in vec)
    return int.from_bytes(raw, "little")


def _byte_table(p, j):
    got = _BYTE_TABLES.get((p, j))
    if got is None:
        got = _BYTE_TABLES[p, j] = bytes((b << (8 * j)) % p for b in range(0x100))
    return got


def _residues(n, count, size, p):
    """The first `count` limbs of n, reduced mod p (n holds no more limbs).

    When every byte of a limb, reduced with its place value, and their sum
    fit a byte, the limbs are reduced by bytes.translate and come back as
    bytes; otherwise as a list."""
    raw = n.to_bytes(count * size, "little")
    if size * (p - 1) < 0x100:
        if size == 1:
            return raw.translate(_byte_table(p, 0))
        acc = 0
        for j in range(size):
            acc += int.from_bytes(raw[j::size].translate(_byte_table(p, j)), "little")
        return acc.to_bytes(count, "little").translate(_byte_table(p, 0))
    if size in _TYPECODES:
        return [x % p for x in array(_TYPECODES[size], raw)]
    return [int.from_bytes(raw[i : i + size], "little") % p for i in range(0, len(raw), size)]


def _packed_product(a, b, n, size, p, c=1):
    """First n residues of c*a*b, for a and b packed at `size` and a limb
    bound of c*a*b that `size` holds."""
    prod = a * b
    if c != 1:
        prod *= c
    return _residues(prod & ((1 << (8 * size * n)) - 1), n, size, p)


def _mul(a, b, p, nmax=None, c=1):
    """Truncated product of coefficient vectors: first nmax coefficients of
    c*a*b, as a sequence of residues."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if nmax is not None:
        n = min(n, nmax)
    if n <= 0:
        return []
    a = a[:n]
    b = b[:n]
    size = _limb_size(c * min(len(a), len(b)) * (p - 1) ** 2)
    return _packed_product(_pack(a, size, p), _pack(b, size, p), n, size, p, c)


def _inv(a, p, n) -> list:
    """First n coefficients of 1/a for a unit series (a[0] != 0 mod p).

    Newton iteration x -> x*(2 - a*x), doubling the certified length L each
    round: a*x = 1 + t^L*e, so the new coefficients L..m-1 are those of
    -x*e, and the old ones stay.
    """
    if not a or a[0] % p == 0:
        raise ZeroDivisionError("series has no invertible leading coefficient")
    if n <= 0:
        return []
    x = [pow(a[0], p - 2, p)]
    while len(x) < n:
        size = len(x)
        m = min(2 * size, n)
        e = _mul(a, x, p, m)[size:]
        x += _mul(x, e, p, m - size, p - 1)
        x += [0] * (m - len(x))
    return x


_ZEROS = {}  # p -> the shared exact zero of F_p((t))
_ONES = {}  # p -> the shared exact one


class LaurentElement:
    """A certified window of a Laurent series over F_p.

    Stored coefficients cover exponents [vmin, vmin + len(coeffs)); the
    leading and trailing stored coefficients are nonzero (or the store is
    empty).  Exponents from the end of the store up to known_to are known to
    be zero; from known_to on, nothing is claimed.

    _packed caches the coefficients packed at one limb size, as (size in
    bytes, integer), from the second use at that size on; after the first
    it holds (size, None).  Most elements are used once, and they keep no
    packing.  The cache is not part of the value (== and hash ignore it).
    """

    __slots__ = ("p", "vmin", "coeffs", "known_to", "_packed")

    def __init__(self, p, vmin, coeffs, known_to=None):
        # normalize: strip leading/trailing zeros, clip to the window
        i = 0
        n = len(coeffs)
        while i < n and coeffs[i] == 0:
            i += 1
        vmin += i
        j = n
        while j > i and coeffs[j - 1] == 0:
            j -= 1
        coeffs = list(coeffs[i:j])
        if known_to is not None and coeffs and vmin + len(coeffs) > known_to:
            coeffs = coeffs[: max(known_to - vmin, 0)]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        if not coeffs:
            vmin = 0
        self.p = p
        self.vmin = vmin
        self.coeffs = tuple(coeffs)
        self.known_to = known_to
        self._packed = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p):
        """The exact zero; one shared instance per p (elements are immutable)."""
        got = _ZEROS.get(p)
        if got is None:
            got = _ZEROS[p] = cls(p, 0, ())
        return got

    @classmethod
    def one(cls, p):
        """The exact one; one shared instance per p."""
        got = _ONES.get(p)
        if got is None:
            got = _ONES[p] = cls(p, 0, (1,))
        return got

    @classmethod
    def from_terms(cls, p, terms):
        """Exact element from a mapping exponent -> integer coefficient."""
        terms = {e: c % p for e, c in terms.items() if c % p}
        if not terms:
            return cls.zero(p)
        lo = min(terms)
        hi = max(terms)
        coeffs = [0] * (hi - lo + 1)
        for e, c in terms.items():
            coeffs[e - lo] = c
        return cls(p, lo, coeffs)

    @classmethod
    def zero_up_to(cls, p, known_to):
        """Element known to vanish below known_to, unknown beyond."""
        return cls(p, 0, (), known_to)

    # -- predicates --------------------------------------------------------

    @property
    def exact(self):
        return self.known_to is None

    def is_exact_zero(self):
        return self.known_to is None and not self.coeffs

    def is_zero_within_window(self):
        """No nonzero coefficient anywhere in the certified range."""
        return not self.coeffs

    def has_certified_leading_term(self):
        return bool(self.coeffs)

    # -- valuation ---------------------------------------------------------

    def val_t(self):
        """Exponent of the leading coefficient; +inf for the exact zero."""
        if self.coeffs:
            return self.vmin
        if self.exact:
            return INF
        raise UncertifiedLeadingTerm(
            f"zero up to t^{self.known_to}; larger window needed"
        )

    def val_t_lb(self):
        """Certified lower bound on val_t (never raises)."""
        if self.coeffs:
            return self.vmin
        if self.exact:
            return INF
        return self.known_to

    # -- arithmetic --------------------------------------------------------

    def _known(self):
        return INF if self.known_to is None else self.known_to

    def _start(self):
        # earliest exponent at which this element could be nonzero
        if self.coeffs:
            return self.vmin
        return self._known()

    def _product_horizon(self, other):
        """Where self*other stops being certified: min(self's start +
        other's horizon, other's start + self's horizon), INF if nowhere."""
        xk = self.known_to
        yk = other.known_to
        if xk is None:
            return INF if yk is None else self._start() + yk
        if yk is None:
            return other._start() + xk
        return min(self._start() + yk, other._start() + xk)

    def _limbs(self, size, count=None):
        """The first `count` coefficients (all by default) packed in
        `size`-byte limbs."""
        got = self._packed
        if got is not None and got[0] == size and got[1] is not None:
            n = got[1]
        else:
            n = _pack(self.coeffs, size, self.p)
            self._packed = (size, n if got is not None and got[0] == size else None)
        if count is not None and count < len(self.coeffs):
            return n & ((1 << (8 * size * count)) - 1)
        return n

    def __add__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        one = LaurentElement.one(self.p)
        return LaurentElement.dot(self.p, ((1, self, one), (1, other, one)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        """Multiply by a residue (integer mod p)."""
        p = self.p
        c %= p
        if c == 0:
            return LaurentElement.zero(p) if self.exact else LaurentElement.zero_up_to(p, self.known_to)
        size = _limb_size(c * (p - 1))
        out = _residues(c * self._limbs(size), len(self.coeffs), size, p)
        return LaurentElement(p, self.vmin, out, self.known_to)

    def __mul__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        p = self.p
        xc = self.coeffs
        yc = other.coeffs
        if not (xc and yc):
            if self.is_exact_zero() or other.is_exact_zero():
                return LaurentElement.zero(p)
            # zero-up-to-horizon times anything: zero up to the combined horizon
            return LaurentElement.zero_up_to(p, self._product_horizon(other))
        known = self._product_horizon(other)
        known_to = None if known == INF else known
        lo = self.vmin + other.vmin
        la = len(xc)
        lb = len(yc)
        n = la + lb - 1
        if known_to is not None and known_to - lo < n:
            n = known_to - lo
            if n <= 0:
                return LaurentElement.zero_up_to(p, known_to)
            la = min(la, n)
            lb = min(lb, n)
        size = _limb_size((la if la < lb else lb) * (p - 1) ** 2)
        out = _packed_product(self._limbs(size, la), other._limbs(size, lb), n, size, p)
        return LaurentElement(p, lo, out, known_to)

    @staticmethod
    def dot(p, triples):
        """Sum of c * x * y over triples (c, x, y), c a residue mod p.

        Equal, known_to included, to the sum of the products c times ``x * y``:
        each product certifies up to min(x's start + y's horizon, y's start +
        x's horizon), as in ``*``, and the sum up to the least of those.  The
        products are shifted to their offsets inside one packed integer and
        the sum is unpacked once.  Each operand is cut to the coefficients
        that can reach below the sum's horizon.  A limb of a product is at
        most c * min(len x, len y) * (p-1)**2, or c * (p-1) when a factor's
        only coefficient is 1; the sum of those bounds picks the limb size.
        ``+`` is a sum of this kind against the exact one.
        """
        known = INF
        lo = hi = None
        load = 0
        live = []
        for c, x, y in triples:
            xc = x.coeffs
            yc = y.coeffs
            h = x._product_horizon(y)
            if h < known:
                known = h
            c %= p
            if c and xc and yc:
                v = x.vmin + y.vmin
                top = v + len(xc) + len(yc) - 1
                if lo is None or v < lo:
                    lo = v
                if hi is None or top > hi:
                    hi = top
                # load counts in units of p - 1
                if xc == (1,) or yc == (1,):
                    load += c
                else:
                    load += c * (len(xc) if len(xc) < len(yc) else len(yc)) * (p - 1)
                live.append((c, x, y, v))
        known_to = None if known == INF else known
        if not live or min(hi, known) <= lo:
            if known_to is None:
                return LaurentElement.zero(p)
            return LaurentElement.zero_up_to(p, known_to)
        size = _limb_size(load * (p - 1))
        bits = 8 * size
        width = min(hi, known) - lo
        total = 0
        for c, x, y, v in live:
            off = v - lo
            room = width - off
            if room > 0:
                prod = x._limbs(size, room) * y._limbs(size, room)
                if c != 1:
                    prod *= c
                total += prod << (bits * off)
        total &= (1 << (bits * width)) - 1
        return LaurentElement(p, lo, _residues(total, width, size, p), known_to)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only non-negative integer powers; use inverse() for negative")
        result = LaurentElement.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def inverse(self, width=None):
        """Multiplicative inverse, certified to `width` coefficients.

        For an inexact element the width defaults to the element's own
        certified width.  Exact monomials invert exactly; any other exact
        element needs an explicit width since its inverse is an infinite
        series.
        """
        if not self.coeffs:
            if self.exact:
                raise ZeroDivisionError("inverse of exact zero")
            raise UncertifiedLeadingTerm(
                f"inverse of element that is zero up to t^{self.known_to}"
            )
        p = self.p
        if self.exact and len(self.coeffs) == 1 and width is None:
            return LaurentElement(p, -self.vmin, (pow(self.coeffs[0], p - 2, p),))
        own = None if self.known_to is None else self.known_to - self.vmin
        if width is None:
            width = own
        elif own is not None:
            width = min(width, own)
        if width is None:
            raise ValueError("width required to invert an exact non-monomial")
        out = _inv(self.coeffs, p, width)
        return LaurentElement(p, -self.vmin, out, -self.vmin + width)

    def truncate(self, width):
        """Restrict certification to `width` coefficients past the leading term."""
        if not self.coeffs:
            return self
        cap = self.vmin + width
        if self.known_to is not None and self.known_to <= cap:
            return self
        return LaurentElement(self.p, self.vmin, self.coeffs, cap)

    # -- comparison --------------------------------------------------------

    def coefficient(self, e):
        """Certified coefficient of t^e (raises if e is past the horizon)."""
        if self.known_to is not None and e >= self.known_to:
            raise UncertifiedLeadingTerm(f"coefficient of t^{e} not certified")
        if self.coeffs and self.vmin <= e < self.vmin + len(self.coeffs):
            return self.coeffs[e - self.vmin]
        return 0

    def agrees_with(self, other):
        """Exact agreement of all coefficients on the shared certified window."""
        d = self - other
        return d.is_zero_within_window()

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return (
            self.p == other.p
            and self.vmin == other.vmin
            and self.coeffs == other.coeffs
            and self.known_to == other.known_to
        )

    def __hash__(self):
        return hash((self.p, self.vmin, self.coeffs, self.known_to))

    def __repr__(self):
        if not self.coeffs:
            body = "0" if self.exact else f"O(t^{self.known_to})"
        else:
            terms = []
            for idx, c in enumerate(self.coeffs):
                if c == 0:
                    continue
                e = self.vmin + idx
                if e == 0:
                    terms.append(f"{c}")
                elif e == 1:
                    terms.append(f"{c}*t" if c != 1 else "t")
                else:
                    terms.append(f"{c}*t^{e}" if c != 1 else f"t^{e}")
            body = " + ".join(terms)
            if self.known_to is not None:
                body += f" + O(t^{self.known_to})"
        return f"<F_{self.p}((t)): {body}>"


# -- Laurent literals -------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coef>\d+)\s*(?P<star>\*)?\s*)?"
    r"(?P<t>t(?:\^(?P<exp>[+-]?\d+))?)?"
)


def parse_laurent(p: int, text: str) -> LaurentElement:
    """Parse a Laurent literal: a sum of terms ``c*t^e`` with integer c, e.

    Accepts e.g. ``1 + 4*t^-1 + t^3``, ``-t``, ``2``, ``t^2 - t``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty Laurent literal")
    terms: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad Laurent literal {text!r} at position {pos}")
        sign, coef, star, tpart, exp = (
            m.group("sign"),
            m.group("coef"),
            m.group("star"),
            m.group("t"),
            m.group("exp"),
        )
        if coef is None and tpart is None:
            raise ValueError(f"bad Laurent literal {text!r} at position {pos}")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms in {text!r}")
        if star and tpart is None:
            raise ValueError(f"dangling '*' in Laurent literal {text!r}")
        c = int(coef) if coef is not None else 1
        if sign == "-":
            c = -c
        if tpart is None:
            e = 0
        else:
            e = int(exp) if exp is not None else 1
        terms[e] = terms.get(e, 0) + c
        pos = m.end()
        first = False
    return LaurentElement.from_terms(p, terms)


# -- the multiplier and the mu-adic valuation -------------------------------

_WIDTHS_KEPT = 2  # working widths whose lambda-only values a multiplier keeps


class Multiplier:
    """lambda in 1 + t*F_p[[t]], lambda != 1, and the valuation it induces.

    In characteristic p an element of 1 + m other than 1 is automatically not
    a root of unity, so the constructor only needs to reject lambda = 1 and
    |1 - lambda| >= 1.  With mu = lambda - 1, val_mu(x) = val_t(x) / val_t(mu).

    The multiplier also owns every value of the recurrence that depends on
    lambda and a working width alone: the prefactors 1/(lambda(1 - lambda^s))
    and the psi rescaling factors, and the window powers of lambda.  They are
    memoized per width, for the two widths used last, so every LevelTable on
    the same multiplier (make_lambda hands out one per (p, lambda)) computes
    each of them once.  Truncated powers come from the base-p digits of the
    exponent: lambda^(d*p^j) is lambda^d with t replaced by t^(p^j), and
    only the digits with p^j below the width reach into the window.
    """

    __slots__ = ("p", "lam", "mu", "c", "_pow_cache", "_widths", "_last_width")

    def __init__(self, ctx: PrimeContext, lam: LaurentElement):
        if not lam.exact:
            raise ValueError("lambda must be an exact Laurent polynomial")
        mu = lam - LaurentElement.one(ctx.p)
        if mu.is_exact_zero():
            raise ValueError("lambda = 1 is a root of unity")
        if mu.val_t() < 1:
            raise ValueError("need |1 - lambda| < 1, i.e. val_t(lambda - 1) >= 1")
        self.p = ctx.p
        self.lam = lam
        self.mu = mu
        self.c = mu.val_t()
        self._pow_cache = {0: LaurentElement.one(ctx.p), 1: lam}
        self._widths = {}  # width -> (prefactors, psi factors, window powers)
        self._last_width = None

    def pow(self, s: int, width: int | None = None) -> LaurentElement:
        """lambda**s: exact and memoized when width is None, else its first
        `width` coefficients (known_to = width), built from the base-p digits
        of s and not memoized."""
        if s < 0:
            raise ValueError("negative lambda powers are not needed")
        if width is None:
            return self._exact_pow(s)
        p = self.p
        out = [1]
        q = 1  # p^j for the digit d of s at position j
        while s and q < width:
            s, d = divmod(s, p)
            if d:
                base = self._exact_pow(d).coeffs  # lambda^d, a polynomial with constant term 1
                n = min((len(base) - 1) * q + 1, width)
                spread = [0] * n
                spread[::q] = base[: (n - 1) // q + 1]
                out = _mul(out, spread, p, width)
            q *= p
        return LaurentElement(p, 0, out, width)

    def _exact_pow(self, s: int) -> LaurentElement:
        cache = self._pow_cache
        got = cache.get(s)
        if got is None:
            half = self._exact_pow(s // 2)
            got = half * half
            if s & 1:
                got = got * self.lam
            cache[s] = got
        return got

    def one_minus_pow(self, s: int, width: int | None = None) -> LaurentElement:
        """1 - lambda**s, self-checked against its valuation c*p^{val_p(s)}
        (val_mu = p^{val_p(s)}): exact when width is None, else certified to
        `width` coefficients past that valuation."""
        if s < 1:
            raise ValueError("need s >= 1")
        expected = self.c * self.p ** val_p(s, self.p)
        top = None if width is None else expected + width
        out = LaurentElement.one(self.p) - self.pow(s, top)
        if out.val_t_lb() != expected:
            raise AssertionError(
                f"val_t(1 - lambda^{s}) = {out.val_t_lb()}, expected {expected}"
            )
        return out

    # values shared by every table on this multiplier, per working width ----

    def _memo(self, width: int):
        widths = self._widths
        if width != self._last_width:
            got = widths.pop(width, None)
            if got is None:
                got = ({}, {}, {})
                if len(widths) >= _WIDTHS_KEPT:
                    del widths[next(iter(widths))]  # the width used longest ago
            widths[width] = got
            self._last_width = width
        return widths[width]

    def inv_prefactor(self, s: int, width: int) -> LaurentElement:
        """1 / (lambda * (1 - lambda^s)), certified to `width` coefficients.
        The inverse reads only `width` coefficients of the denominator, so the
        denominator is built truncated to them."""
        memo = self._memo(width)[0]
        got = memo.get(s)
        if got is None:
            got = (self.lam * self.one_minus_pow(s, width)).inverse(width)
            memo[s] = got
        return got

    def psi_factor(self, q: int, m: int, width: int) -> LaurentElement:
        """(1 - lambda^m) / ((1 - lambda^q) * lambda^(m-1)), certified to
        `width` coefficients past its valuation (q = p^(k+tau), m = u*s for
        the psi_k rescaling)."""
        memo = self._memo(width)[1]
        key = (q, m)
        got = memo.get(key)
        if got is None:
            denom = self.one_minus_pow(q, width) * self.pow(m - 1, width)
            got = self.one_minus_pow(m, width) * denom.inverse(width)
            memo[key] = got
        return got

    def window_pow(self, e: int, width: int) -> LaurentElement:
        """lambda**e for a numerator term: exact while its degree
        (len(lambda) - 1) * e stays below 4 * width, else its first `width`
        coefficients."""
        memo = self._memo(width)[2]
        got = memo.get(e)
        if got is None:
            if (len(self.lam.coeffs) - 1) * e < 4 * width:
                got = self.lam**e
            else:
                got = self.pow(e, width)
            memo[e] = got
        return got

    # valuations ------------------------------------------------------------

    def val_mu(self, x: LaurentElement):
        """val_mu(x) as an exact Fraction, +inf for the exact zero.

        Raises UncertifiedLeadingTerm when x is zero only up to its horizon.
        """
        v = x.val_t()
        return INF if v is INF else Fraction(v, self.c)

    def val_mu_lb(self, x: LaurentElement):
        """Certified lower bound on val_mu (exact when the leading term is)."""
        v = x.val_t_lb()
        return INF if v is INF else Fraction(v, self.c)

    def is_similar(self, a: LaurentElement, b: LaurentElement) -> bool:
        """Same leading behavior: val_mu(a) < val_mu(a - b).

        Note the exact zero is not similar to itself.
        """
        va = self.val_mu(a)
        if va is INF:
            return False
        diff = a - b
        if self.val_mu_lb(diff) > va:
            return True
        # the difference has a certified leading term at or below val(a)
        if diff.has_certified_leading_term():
            return False
        raise UncertifiedLeadingTerm("difference not certified deep enough")


def make_lambda(ctx: PrimeContext, spec: str | LaurentElement | None = None) -> Multiplier:
    """The multiplier for a Laurent literal (default ``1 + t``).

    Equal (p, lambda) give the same Multiplier, so maps that share lambda
    share its memoized values; the most recently used multipliers are kept.
    """
    if spec is None:
        lam = LaurentElement.from_terms(ctx.p, {0: 1, 1: 1})
    elif isinstance(spec, LaurentElement):
        lam = spec
    else:
        lam = parse_laurent(ctx.p, spec)
    return _shared_multiplier(ctx.p, lam)


@functools.lru_cache(maxsize=32)
def _shared_multiplier(p: int, lam: LaurentElement) -> Multiplier:
    return Multiplier(PrimeContext(p), lam)
