"""Exact arithmetic in the imaginary quadratic fields Q(i) and Q(sqrt(-3)).

Elements are stored as a + b*mu with rational a, b, where mu = i in the
Gaussian case and mu = (1 + sqrt(-3))/2 in the Eisenstein case, so that
integer coordinates give exactly the maximal order O_K.  The defining
relations are mu^2 = -1 and mu^2 = mu - 1 respectively.  Prime
valuations divide out p exactly, with no floating point involved.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction


# largest norm bound enumerate_primes accepts: its sieve holds one list
# entry per integer up to the bound
MAX_NORM_BOUND = 1 << 20


class RingTag(Enum):
    """Which quadratic field an element lives in."""

    GAUSSIAN = "Q(i)"
    EISENSTEIN = "Q(sqrt-3)"
    RATIONAL = "Q"


GAUSSIAN = RingTag.GAUSSIAN
EISENSTEIN = RingTag.EISENSTEIN
RATIONAL = RingTag.RATIONAL

_MU_SYMBOL = {RingTag.GAUSSIAN: "i", RingTag.EISENSTEIN: "w", RingTag.RATIONAL: "?"}


def _combine_tags(t1: RingTag, t2: RingTag) -> RingTag:
    if t1 is t2:
        return t1
    if t1 is RingTag.RATIONAL:
        return t2
    if t2 is RingTag.RATIONAL:
        return t1
    raise ValueError(f"cannot mix elements of {t1.value} and {t2.value}")


class QuadElem:
    """An element a + b*mu of Q, Q(i) or Q(sqrt(-3)) with exact coordinates.

    Elements with b == 0 are normalized to the RATIONAL tag so that plain
    rationals compare equal across fields and can combine with either ring.
    """

    __slots__ = ("a", "b", "tag")

    def __init__(self, a, b=0, tag: RingTag = RingTag.RATIONAL):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b == 0:
            tag = RingTag.RATIONAL
        elif tag is RingTag.RATIONAL:
            raise ValueError("nonzero mu coordinate requires GAUSSIAN or EISENSTEIN tag")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, name, value):
        raise AttributeError("QuadElem is immutable")

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_unit(self) -> bool:
        return self.is_integral() and self.norm() == 1

    # -- ring operations -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadElem):
            return NotImplemented
        if self.a != other.a or self.b != other.b:
            return False
        return self.b == 0 or self.tag is other.tag

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.tag))

    def __add__(self, other) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.a + other, self.b, self.tag)
        if not isinstance(other, QuadElem):
            return NotImplemented
        tag = _combine_tags(self.tag, other.tag)
        return QuadElem(self.a + other.a, self.b + other.b, tag)

    __radd__ = __add__

    def __neg__(self) -> QuadElem:
        return QuadElem(-self.a, -self.b, self.tag)

    def __sub__(self, other) -> QuadElem:
        return self + (-other if isinstance(other, QuadElem) else QuadElem(-Fraction(other)))

    def __rsub__(self, other) -> QuadElem:
        return (-self) + other

    def __mul__(self, other) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.a * other, self.b * other, self.tag)
        if not isinstance(other, QuadElem):
            return NotImplemented
        tag = _combine_tags(self.tag, other.tag)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if tag is RingTag.EISENSTEIN:
            # mu^2 = mu - 1
            return QuadElem(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2, tag)
        # mu^2 = -1; also covers the purely rational case where b1 = b2 = 0
        return QuadElem(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, tag)

    __rmul__ = __mul__

    def conj(self) -> QuadElem:
        """Complex conjugate.  For Eisenstein mu the conjugate is 1 - mu."""
        if self.tag is RingTag.EISENSTEIN:
            return QuadElem(self.a + self.b, -self.b, self.tag)
        return QuadElem(self.a, -self.b, self.tag)

    def norm(self) -> Fraction:
        """N(x) = x * conj(x), always a nonnegative rational."""
        if self.tag is RingTag.EISENSTEIN:
            return self.a * self.a + self.a * self.b + self.b * self.b
        return self.a * self.a + self.b * self.b

    def inverse(self) -> QuadElem:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        c = self.conj()
        return QuadElem(c.a / n, c.b / n, self.tag)

    def __truediv__(self, other) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            other = QuadElem(Fraction(other))
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exp: int) -> QuadElem:
        if exp < 0:
            return self.inverse() ** (-exp)
        result = QuadElem(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __repr__(self) -> str:
        return f"QuadElem({self.a!r}, {self.b!r}, {self.tag.name})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sym = _MU_SYMBOL[self.tag]
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}{sym}"


def mu(tag: RingTag) -> QuadElem:
    if tag is RingTag.RATIONAL:
        raise ValueError("mu is only defined in a quadratic field")
    return QuadElem(0, 1, tag)


def sqrt_minus3() -> QuadElem:
    """sqrt(-3) = 2*mu - 1 in the Eisenstein field."""
    return QuadElem(-1, 2, RingTag.EISENSTEIN)


def units(tag: RingTag) -> tuple[QuadElem, ...]:
    one = QuadElem(1)
    if tag is RingTag.GAUSSIAN:
        m = mu(tag)
        return (one, m, -one, -m)
    if tag is RingTag.EISENSTEIN:
        m = mu(tag)
        return (one, m, m - 1, -one, -m, QuadElem(1, -1, tag))
    return (one, -one)


def ok_valuation(x: QuadElem, p: QuadElem) -> int | float:
    """Exponent of the prime p in x, with math.inf for x == 0.

    x must be integral; p must be a non-unit non-zero integral element.
    The loop divides out p exactly, so the result is exact.
    """
    if not x.is_integral():
        raise ValueError("valuation requires an integral element")
    if not p.is_integral() or not p or p.is_unit():
        raise ValueError("valuation requires a non-unit integral prime")
    if not x:
        return math.inf
    e = 0
    pinv = p.inverse()
    while True:
        q = x * pinv
        if not q.is_integral():
            return e
        x = q
        e += 1


def canonical_associate(x: QuadElem) -> QuadElem:
    """The associate of x that is first in lexicographic (a, b) order.

    The associates x * u of the units(x.tag) are linear in (a, b), and are
    formed on Python ints when x is integral: with mu^2 = -1, x * mu =
    (-b, a); with mu^2 = mu - 1, x * mu = (-b, a + b) and x * (mu - 1) =
    (-a - b, a)."""
    if not x:
        return x
    a, b, tag = x.a, x.b, x.tag
    if x.is_integral():
        a, b = a.numerator, b.numerator
    if tag is RingTag.GAUSSIAN:
        pairs = ((a, b), (-b, a), (-a, -b), (b, -a))
    elif tag is RingTag.EISENSTEIN:
        pairs = ((a, b), (-b, a + b), (-a - b, a), (-a, -b), (b, -a - b), (a + b, -a))
    else:
        pairs = ((a, b), (-a, -b))
    return QuadElem(*min(pairs), tag)


def _rational_primes(bound: int):
    sieve = [True] * (bound + 1)
    for n in range(2, bound + 1):
        if sieve[n]:
            yield n
            for k in range(n * n, bound + 1, n):
                sieve[k] = False


def primes_above(ell: int, tag: RingTag) -> list[QuadElem]:
    """Canonical representatives of the primes of O_K above the rational
    prime ell, one per ideal."""
    if tag is RingTag.GAUSSIAN:
        ramified, modulus, residues = 2, 4, (1,)
    elif tag is RingTag.EISENSTEIN:
        ramified, modulus, residues = 3, 3, (1,)
    else:
        raise ValueError("prime splitting requires a quadratic field")
    if ell == ramified:
        pi = QuadElem(1, 1, tag) if tag is RingTag.GAUSSIAN else sqrt_minus3()
        return [canonical_associate(pi)]
    if ell % modulus in residues:
        # split: a + b*mu of norm a^2 + t*a*b + b^2 = ell with a >= 0, b >= 1,
        # t = 0 (Gaussian) or 1 (Eisenstein), solved for a:
        # (2a + t*b)^2 = 4 ell - (4 - t) b^2
        t = int(tag is RingTag.EISENSTEIN)
        for b in range(1, math.isqrt(ell) + 1):
            sq = 4 * ell - (4 - t) * b * b
            s = math.isqrt(sq)
            if s * s == sq and s >= t * b and (s - t * b) % 2 == 0:
                cand = QuadElem((s - t * b) // 2, b, tag)
                p1 = canonical_associate(cand)
                p2 = canonical_associate(cand.conj())
                return sorted({p1, p2}, key=lambda z: (z.a, z.b))
        raise ArithmeticError(f"no element of norm {ell} found")
    return [canonical_associate(QuadElem(ell))]


def enumerate_primes(tag: RingTag, norm_bound: int) -> list[QuadElem]:
    """All primes of O_K with norm <= norm_bound, canonical representatives,
    sorted by (norm, a, b).  A bound above MAX_NORM_BOUND is refused."""
    if norm_bound > MAX_NORM_BOUND:
        raise ValueError(f"norm bound {norm_bound} exceeds {MAX_NORM_BOUND}")
    found = []
    for ell in _rational_primes(norm_bound):
        for p in primes_above(ell, tag):
            n = p.norm()
            if n <= norm_bound:
                found.append((n, p.a, p.b, p))
    return [p for *_, p in sorted(found, key=lambda t: t[:3])]
