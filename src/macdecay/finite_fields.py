"""Residue fields O_K / (p) and irreducibility of integer polynomials mod p.

For a prime p of O_K of prime norm ell (split or ramified) the residue
field is F_ell; for an inert rational prime ell it is F_{ell^2}, realized
as F_ell[u] with u^2 = -1 (Gaussian) or u^2 = u - 1 (Eisenstein).  An
integer maps to either through its residue mod ell, which is all the
reduction of an integer polynomial needs.

Field elements are plain tuples of ints: (c,) in the prime field and
(c0, c1) meaning c0 + c1*u in the quadratic extension.  Polynomials over
the field are trimmed low-first lists of such tuples.
"""

from __future__ import annotations

import math

from .polynomials import discriminant, monic_int_coeffs
from .quadratic import QuadElem, RingTag, ok_valuation


class InertnessInconclusive(ValueError):
    """The order Z[theta] is not known to be p-maximal, so the residue test
    mod p does not certify inertness."""


class GF:
    """F_ell or F_{ell^2} with tuple-encoded elements."""

    __slots__ = ("ell", "deg", "q", "mod_c0", "mod_c1")

    def __init__(self, ell: int, modulus: tuple[int, int] | None = None):
        self.ell = ell
        if modulus is None:
            self.deg = 1
            self.q = ell
            self.mod_c0 = self.mod_c1 = 0
        else:
            # u^2 = mod_c0 + mod_c1 * u, an irreducible relation over F_ell
            self.deg = 2
            self.q = ell * ell
            self.mod_c0 = modulus[0] % ell
            self.mod_c1 = modulus[1] % ell

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.deg

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.deg - 1)

    def from_int(self, n: int) -> tuple[int, ...]:
        return (n % self.ell,) + (0,) * (self.deg - 1)

    def add(self, x, y):
        if self.deg == 1:
            return ((x[0] + y[0]) % self.ell,)
        return ((x[0] + y[0]) % self.ell, (x[1] + y[1]) % self.ell)

    def sub(self, x, y):
        if self.deg == 1:
            return ((x[0] - y[0]) % self.ell,)
        return ((x[0] - y[0]) % self.ell, (x[1] - y[1]) % self.ell)

    def mul(self, x, y):
        if self.deg == 1:
            return ((x[0] * y[0]) % self.ell,)
        a0, a1 = x
        b0, b1 = y
        hi = a1 * b1
        return (
            (a0 * b0 + hi * self.mod_c0) % self.ell,
            (a0 * b1 + a1 * b0 + hi * self.mod_c1) % self.ell,
        )

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in x)

    def pow(self, x, e: int):
        result = self.one()
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero in GF")
        return self.pow(x, self.q - 2)


def _int_sqrt_exact(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def _is_rational_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def residue_field(p: QuadElem, tag: RingTag | None = None) -> GF:
    """The residue field O_K / (p).  The input p is validated to actually
    be prime in O_K."""
    if not p.is_integral() or not p or p.is_unit():
        raise ValueError("residue field requires a non-unit integral prime")
    tag = tag or p.tag
    if tag is RingTag.RATIONAL:
        raise ValueError("residue field needs a quadratic ring tag")
    n = p.norm().numerator
    ell = _int_sqrt_exact(n)
    inert_residue = 3 if tag is RingTag.GAUSSIAN else 2
    inert_modulus = 4 if tag is RingTag.GAUSSIAN else 3
    if ell is not None and _is_rational_prime(ell) and ell % inert_modulus == inert_residue:
        # inert rational prime (up to a unit), residue field F_{ell^2} = F_ell[mu]
        if not (p / QuadElem(ell)).is_unit():
            raise ValueError(f"{p} is not prime in O_K")
        return GF(ell, (-1, 0) if tag is RingTag.GAUSSIAN else (-1, 1))
    if not _is_rational_prime(n):
        raise ValueError(f"{p} is not prime in O_K")
    # split or ramified: norm is a rational prime and the residue field is F_n
    return GF(n)


# -- polynomial arithmetic over GF, coefficient lists low-first -------------


def pf_trim(cs: list, gf: GF) -> list:
    while cs and gf.is_zero(cs[-1]):
        cs.pop()
    return cs


def pf_mul(a: list, b: list, gf: GF) -> list:
    if not a or not b:
        return []
    out = [gf.zero()] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if gf.is_zero(ci):
            continue
        for j, cj in enumerate(b):
            out[i + j] = gf.add(out[i + j], gf.mul(ci, cj))
    return pf_trim(out, gf)


def pf_mod(a: list, b: list, gf: GF) -> list:
    """The remainder of a modulo a nonzero b.  A monic b (Rabin's
    modulus) needs no inverse of its leading coefficient."""
    rem = list(a)
    monic = b[-1] == gf.one()
    lead_inv = None if monic else gf.inv(b[-1])
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if not monic:
            c = gf.mul(c, lead_inv)
        if not gf.is_zero(c):
            for j, bc in enumerate(b):
                rem[i + j] = gf.sub(rem[i + j], gf.mul(c, bc))
    return pf_trim(rem, gf)


def pf_gcd(a: list, b: list, gf: GF) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, pf_mod(a, b, gf)
    if a:
        inv = gf.inv(a[-1])
        a = [gf.mul(c, inv) for c in a]
    return a


def pf_powmod(base: list, e: int, modulus: list, gf: GF) -> list:
    result = [gf.one()]
    base = pf_mod(base, modulus, gf)
    while e:
        if e & 1:
            result = pf_mod(pf_mul(result, base, gf), modulus, gf)
        base = pf_mod(pf_mul(base, base, gf), modulus, gf)
        e >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def reduce_poly_mod_p(f, p: QuadElem, tag: RingTag | None = None):
    """(fb, gf): the monic integer polynomial f (low first) reduced to the
    residue field gf of p."""
    fc = monic_int_coeffs(f)
    gf = residue_field(p, tag)
    return [gf.from_int(c) for c in fc], gf


def is_irreducible_mod_p(f, p: QuadElem, tag: RingTag | None = None) -> bool:
    """Whether the monic integer polynomial f (low first) stays irreducible
    over the residue field of p, by Rabin's test.

    Guarded by the discriminant: when v_p(disc f) > 0 the order Z[theta] may
    fail to be p-maximal and residue arithmetic would not be conclusive, so
    InertnessInconclusive is raised instead of a boolean.
    """
    disc = discriminant(f)
    if ok_valuation(QuadElem(disc), p) != 0:
        raise InertnessInconclusive(
            f"disc(f) is divisible by {p}; reduction mod p is not conclusive"
        )
    fb, gf = reduce_poly_mod_p(f, p, tag)
    n = len(fb) - 1
    if n == 1:
        return True
    # Rabin: f is irreducible iff x^(q^n) == x mod f and, for each prime
    # r | n, x^(q^(n/r)) - x is coprime to f

    def x_power_minus_x(e: int) -> list:
        out = pf_powmod([gf.zero(), gf.one()], e, fb, gf) + [gf.zero()] * 2
        out[1] = gf.sub(out[1], gf.one())
        return pf_trim(out, gf)

    if x_power_minus_x(gf.q**n):
        return False
    return all(
        len(pf_gcd(fb, x_power_minus_x(gf.q ** (n // r)), gf)) == 1
        for r in _prime_factors(n)
    )
