"""Arithmetic in a cyclic extension tower K < F < L.

L = K(theta) where theta is a totally real algebraic integer of degree
d = U * n_t whose minimal polynomial f has rational integer coefficients,
K is Q(i) or Q(sqrt(-3)), and sigma generates the cyclic Galois group of
L/K by sending theta to a polynomial expression g(theta).  F is the fixed
field of tau = sigma^U.

An element of L is an integer vector over the 2d-element gamma basis
mu^b theta^a and one positive common denominator.  Each Tower builds its
integer tables once: the structure tensor of that basis (the one product
table, shared with the batched kernels) and the sigma^t matrices.
Embeddings and signs come from integer interval arithmetic on a verified
rational enclosure of the designated real root of f; no floating point
enters any comparison or certificate.  Fractions appear only in that
enclosure and in the read-only ``coords`` views used for output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, index, sub

from .polynomials import discriminant
from .quadratic import QuadElem, RingTag, ok_valuation

L_OVER_F = "L/F"
L_OVER_K = "L/K"

# theta's bracket is narrowed to this width once certified: finer than any
# width embeddings and comparisons first ask for, so their results depend on
# theta alone, not on where its bracket was seeded
ROOT_WIDTH = Fraction(1, 1 << 96)


# -- rational interval helpers ----------------------------------------------


def _ival_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    return (min(p1, p2, p3, p4), max(p1, p2, p3, p4))


def _ival_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ihorner(coeffs, lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """Interval Horner of an integer polynomial (low first) over [lo, hi]:
    (a, b, s) with s > 0 and every value in [a/s, b/s].  Each step scales
    the numerators by one more common denominator D of lo and hi, so the
    bounds equal those of the same Horner run on Fractions."""
    D = math.lcm(lo.denominator, hi.denominator)
    L = lo.numerator * (D // lo.denominator)
    H = hi.numerator * (D // hi.denominator)
    a = b = coeffs[-1]
    s = 1
    for c in reversed(coeffs[:-1]):
        s *= D
        p1, p2, p3, p4 = a * L, a * H, b * L, b * H
        cs = c * s
        a = min(p1, p2, p3, p4) + cs
        b = max(p1, p2, p3, p4) + cs
    return a, b, s


def _ival(num, den: int, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Rational interval of sum num[i] x^i / den over x in [lo, hi]."""
    a, b, s = _ihorner(num, lo, hi)
    return Fraction(a, s * den), Fraction(b, s * den)


def _dyadic_floor(x: Fraction, k: int) -> Fraction:
    return Fraction(math.floor(x * (1 << k)), 1 << k)


def _dyadic_ceil(x: Fraction, k: int) -> Fraction:
    return Fraction(math.ceil(x * (1 << k)), 1 << k)


class RootEnclosure:
    """A shrinking rational bracket around one simple real root of f.

    The invariants are f(lo) * f(hi) < 0 and f' nonzero on [lo, hi], so the
    bracket always contains exactly the designated root.  Refinement uses
    interval Newton steps with bisection fallback, rounding endpoints to
    dyadic rationals to keep coordinate sizes bounded.  ``width`` is
    hi - lo, kept with the bracket so that refine, which most callers
    reach with the bracket already narrow enough, compares and does not
    subtract.
    """

    __slots__ = ("fc", "dfc", "lo", "hi", "width", "sign_lo")

    def __init__(self, fcoeffs, lo: Fraction, hi: Fraction):
        self.fc = tuple(fcoeffs)
        self.dfc = tuple(c * i for i, c in enumerate(self.fc) if i)
        flo = _ival(self.fc, 1, lo, lo)[0]  # f at a point: a one-point interval
        fhi = _ival(self.fc, 1, hi, hi)[0]
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise ValueError("interval does not bracket a sign change of f")
        dlo, dhi, _ = _ihorner(self.dfc, lo, hi)
        if dlo <= 0 <= dhi:
            raise ValueError("f' may vanish on the bracket; root not certified simple")
        self.lo, self.hi = lo, hi
        self.width = hi - lo
        self.sign_lo = 1 if flo > 0 else -1

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        while self.width > width:
            self._step()
        return self.lo, self.hi

    def _step(self) -> None:
        lo, hi = self.lo, self.hi
        w = self.width
        mid = (lo + hi) / 2
        fm = _ival(self.fc, 1, mid, mid)[0]
        if fm == 0:
            # impossible for irreducible f of degree > 1 at a rational point
            raise ArithmeticError("hit the root exactly; f is not irreducible")
        dlo, dhi, s = _ihorner(self.dfc, lo, hi)
        n1 = mid - fm * s / dlo
        n2 = mid - fm * s / dhi
        nlo, nhi = (n1, n2) if n1 <= n2 else (n2, n1)
        nlo = max(nlo, lo)
        nhi = min(nhi, hi)
        if nlo <= nhi and (nhi - nlo) <= w * Fraction(3, 4):
            cand_lo, cand_hi = nlo, nhi
        elif (fm > 0) == (self.sign_lo > 0):
            cand_lo, cand_hi = mid, hi
        else:
            cand_lo, cand_hi = lo, mid
        # round outward to dyadics a little finer than the current width
        k = _frac_bits(cand_hi - cand_lo) + 8
        rlo = max(lo, _dyadic_floor(cand_lo, k))
        rhi = min(hi, _dyadic_ceil(cand_hi, k))
        self.lo, self.hi = rlo, rhi
        self.width = rhi - rlo


def _frac_bits(w: Fraction) -> int:
    """Smallest k with 2^-k <= w, clamped at 1."""
    if w <= 0:
        return 64
    inv = 1 / w
    return max(1, (inv.numerator // inv.denominator).bit_length() + 1)


class Sqrt3Enclosure:
    """Dyadic bracket around sqrt(3), refined by integer square roots."""

    __slots__ = ("k", "lo", "hi")

    def __init__(self):
        self.k = 8
        self._recompute()

    def _recompute(self):
        s = math.isqrt(3 << (2 * self.k))
        self.lo = Fraction(s, 1 << self.k)
        self.hi = Fraction(s + 1, 1 << self.k)

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        while self.hi - self.lo > width:
            self.k *= 2
            self._recompute()
        return self.lo, self.hi


class ComplexEnclosure:
    """An axis-aligned rational box guaranteed to contain a complex value."""

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi")

    def __init__(self, re_lo, re_hi, im_lo, im_hi):
        self.re_lo, self.re_hi = re_lo, re_hi
        self.im_lo, self.im_hi = im_lo, im_hi

    def mid(self) -> complex:
        return complex(
            float((self.re_lo + self.re_hi) / 2), float((self.im_lo + self.im_hi) / 2)
        )

    def radius(self) -> Fraction:
        """Bound on |true - mid|; uses |.|_1 / 2 >= Euclidean half-diagonal."""
        return ((self.re_hi - self.re_lo) + (self.im_hi - self.im_lo)) / 2

    def __repr__(self) -> str:
        m = self.mid()
        return f"ComplexEnclosure(~{m.real:.12g}{m.imag:+.12g}j, r<={float(self.radius()):.3g})"


# -- the (num, den) form shared by FieldElem and RealAlgebraic ---------------


def _reduce(num: tuple, den: int) -> tuple[tuple, int]:
    """(num, den) divided by gcd(den, *num); zero comes out over den 1."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return num, den


def _new(cls, tower: Tower, num: tuple, den: int):
    """An instance of cls from a tuple of ints over a positive den."""
    x = object.__new__(cls)
    x.tower = tower
    x.num, x.den = _reduce(num, den)
    return x


def _combine(op, x, y) -> tuple[tuple, int]:
    """op (add or sub) of two (num, den) vectors, not yet reduced."""
    dx, dy = x.den, y.den
    if dx == dy:
        return tuple(map(op, x.num, y.num)), dx
    return tuple(op(u * dy, v * dx) for u, v in zip(x.num, y.num)), dx * dy


class _Form:
    """Integer numerators ``num`` over one positive denominator ``den``,
    reduced so that gcd(den, *num) == 1 and zero has den == 1: equality is
    equality of (num, den)."""

    __slots__ = ("tower", "num", "den")

    def __init__(self, tower: Tower, num, den: int, length: int):
        num, den = tuple(map(index, num)), index(den)
        if len(num) != length:
            raise ValueError(f"expected {length} coordinates, got {len(num)}")
        if den < 1:
            raise ValueError("the denominator must be positive")
        self.tower = tower
        self.num, self.den = _reduce(num, den)

    def _times(self, numer: int, denom: int):
        return _new(type(self), self.tower, tuple(c * numer for c in self.num), self.den * denom)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.tower.key == other.tower.key
        )

    def __hash__(self) -> int:
        return hash((self.tower.key, self.num, self.den))

    def __neg__(self):
        return self._times(-1, 1)

    def __add__(self, other):
        return _new(type(self), self.tower, *_combine(add, self, other))

    def __sub__(self, other):
        return _new(type(self), self.tower, *_combine(sub, self, other))


def _poly_value(coeffs, x: FieldElem) -> FieldElem:
    """sum coeffs[i] x^i for rational coefficients, by Horner."""
    acc = x.tower.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Tower:
    """The tower K < F < L with its Galois action and numeric root data.

    Parameters
    ----------
    tag : which quadratic base field K.
    f_coeffs : monic integer coefficients of f, low first, degree
        d = U * n_t; held as a tuple of ints, with ``disc`` the integer
        discriminant of f.
    sigma_coeffs : rational coordinates of sigma(theta) over the power basis.
    U, n_t : number of users and antennas; fix tau = sigma^U.
    period_hint : (m, exponents) describing theta as a sum of m-th roots of
        unity, used only to seed the verified real enclosure of theta.

    ``mul_terms[i][j]`` lists the nonzero (c, w) of the structure tensor,
    gamma_i * gamma_j = sum_c w gamma_c.  ``entry_scale`` is the least
    common denominator of the sigma^t matrices: the gamma basis spans a
    finite-index subring of O_L, and when the index is not 1 (the degree-4
    tower is the shipped example) sigma-images of basis elements pick up
    bounded denominators.
    """

    __slots__ = (
        "tag",
        "U",
        "n_t",
        "d",
        "f_coeffs",
        "sigma_coeffs",
        "period_hint",
        "disc",
        "mul_terms",
        "_sigma",
        "entry_scale",
        "_root",
        "_sqrt3",
        "_pmax_cache",
        "_gamma",
        "key",
    )

    def __init__(self, tag, f_coeffs, sigma_coeffs, U, n_t, period_hint):
        if tag not in (RingTag.GAUSSIAN, RingTag.EISENSTEIN):
            raise ValueError("base field must be Q(i) or Q(sqrt-3)")
        if U < 1 or n_t < 1:
            raise ValueError("U and n_t must be positive")
        d = U * n_t
        fc = tuple(Fraction(c) for c in f_coeffs)
        if len(fc) != d + 1 or fc[-1] != 1:
            raise ValueError(f"f must be monic of degree {d}")
        if any(c.denominator != 1 for c in fc):
            raise ValueError("f must have integer coefficients (theta is an algebraic integer)")
        fc = tuple(c.numerator for c in fc)
        sc = tuple(Fraction(c) for c in sigma_coeffs)
        if len(sc) > d:
            raise ValueError("sigma image must have degree < deg f")
        sc = sc + (Fraction(0),) * (d - len(sc))
        self.tag = tag
        self.U = U
        self.n_t = n_t
        self.d = d
        self.f_coeffs = fc
        self.sigma_coeffs = sc
        self.period_hint = (int(period_hint[0]), tuple(int(h) for h in period_hint[1]))
        self.disc = discriminant(fc)
        if self.disc == 0:
            raise ValueError("f has a repeated root")
        self.key = (tag, fc, sc, U, n_t)
        self.mul_terms = self._build_mul_terms()
        self._sigma, self.entry_scale = self._build_sigma_tables()
        self._root = None
        self._sqrt3 = Sqrt3Enclosure() if tag is RingTag.EISENSTEIN else None
        self._pmax_cache: dict = {}
        self._gamma = None  # construction.gamma_basis, built on first use

    # -- structural tables -------------------------------------------------

    def _build_mul_terms(self):
        d = self.d
        f = self.f_coeffs
        # theta^e over 1..theta^(d-1) for e = 0..2d-2, by theta^d = -sum f_i theta^i
        pows = [[int(i == e) for i in range(d)] for e in range(d)]
        for _ in range(d - 1):
            prev = pows[-1]
            pows.append([(prev[i - 1] if i else 0) - prev[-1] * f[i] for i in range(d)])
        # mu^s = x + y mu for s = 0, 1, 2
        mu_sq = (-1, 0) if self.tag is RingTag.GAUSSIAN else (-1, 1)
        mu_pows = ((1, 0), (0, 1), mu_sq)
        terms = []
        for i in range(2 * d):
            b1, a1 = divmod(i, d)
            row = []
            for j in range(2 * d):
                b2, a2 = divmod(j, d)
                theta_part = pows[a1 + a2]
                row.append(tuple(
                    (h * d + a, m * v)
                    for h, m in enumerate(mu_pows[b1 + b2]) if m
                    for a, v in enumerate(theta_part) if v
                ))
            terms.append(tuple(row))
        return tuple(terms)

    def _build_sigma_tables(self):
        """sigma^t on the power basis for t = 0..d-1, each as (rows, den):
        rows[i] lists the nonzero (k, w) with the theta^i coordinate of
        sigma^t(theta^k) equal to w / den.  Returns them with the lcm of
        their denominators."""
        d = self.d
        th = self.theta()
        image = self.from_coords(self.sigma_coeffs)
        if _poly_value(self.f_coeffs, image):
            raise ValueError("sigma image is not a root of f")
        # sigma^t(theta) = g(sigma^(t-1)(theta)) for the sigma polynomial g
        images = [th, image]
        for _ in range(d - 1):
            images.append(_poly_value(self.sigma_coeffs, images[-1]))
        if images[d] != th:
            raise ValueError("sigma does not have order deg f")
        if any(images[t] == th for t in range(1, d)):
            raise ValueError("sigma has order smaller than deg f")
        tables = []
        scale = 1
        for img in images[:d]:
            cols = [self.one()]
            for _ in range(d - 1):
                cols.append(cols[-1] * img)
            den = math.lcm(*(c.den for c in cols))
            rows = tuple(
                tuple(
                    (k, c.num[i] * (den // c.den)) for k, c in enumerate(cols) if c.num[i]
                )
                for i in range(d)
            )
            tables.append((rows, den))
            scale = math.lcm(scale, den)
        return tuple(tables), scale

    # -- element constructors ----------------------------------------------

    def zero(self) -> FieldElem:
        return _new(FieldElem, self, (0,) * (2 * self.d), 1)

    def _unit_vector(self, g: int) -> FieldElem:
        return _new(FieldElem, self, tuple(int(i == g) for i in range(2 * self.d)), 1)

    def one(self) -> FieldElem:
        return self._unit_vector(0)

    def theta(self) -> FieldElem:
        if self.d == 1:
            # theta is rational; represent by its value -f0
            return self.from_rational(-self.f_coeffs[0])
        return self._unit_vector(1)

    def mu_elem(self) -> FieldElem:
        return self._unit_vector(self.d)

    def _from_parts(self, parts) -> FieldElem:
        """The element with rational gamma-coordinates parts."""
        den = math.lcm(*(c.denominator for c in parts))
        num = tuple(c.numerator * (den // c.denominator) for c in parts)
        return _new(FieldElem, self, num, den)

    def _scalar(self, x) -> FieldElem:
        """An int, Fraction or QuadElem of K as an element of L."""
        a, b = (x.a, x.b) if isinstance(x, QuadElem) else (x, 0)
        zeros = (0,) * (self.d - 1)
        return self._from_parts((a,) + zeros + (b,) + zeros)

    def from_coords(self, coords) -> FieldElem:
        """The element with the given power-basis coordinates in K."""
        cs = tuple(c if isinstance(c, QuadElem) else QuadElem(Fraction(c)) for c in coords)
        if len(cs) != self.d:
            raise ValueError(f"expected {self.d} coordinates")
        return self._from_parts(tuple(q.a for q in cs) + tuple(q.b for q in cs))

    def from_rational(self, x) -> FieldElem:
        return self.from_coords([x] + [0] * (self.d - 1))

    # -- numerics ------------------------------------------------------------

    def _init_root(self):
        """Certify a bracket around theta: seeded at the float period
        sum cos(2 pi h / m) and widened until f changes sign on it with f'
        nonzero, so it holds exactly one root; the float period is within
        far less than the first radius of that root."""
        if self._root is not None:
            return
        m, exps = self.period_hint
        mid = Fraction(math.fsum(math.cos(2 * math.pi * h / m) for h in exps))
        for shift in range(40, 19, -1):
            radius = Fraction(1, 1 << shift)
            try:
                root = RootEnclosure(self.f_coeffs, mid - radius, mid + radius)
            except ValueError:
                continue
            root.refine(ROOT_WIDTH)
            self._root = root
            return
        raise ValueError("the period hint does not isolate a simple root of f")

    def theta_enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        self._init_root()
        return self._root.refine(width)

    def sqrt3_enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        if self._sqrt3 is None:
            raise ValueError("sqrt(3) enclosure only exists over Q(sqrt-3)")
        return self._sqrt3.refine(width)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "K": self.tag.value,
            "f": list(self.f_coeffs),
            "sigma_image": [str(c) for c in self.sigma_coeffs],
            "U": self.U,
            "n_t": self.n_t,
            "theta_numeric_hint": {
                "m": self.period_hint[0],
                "coset": list(self.period_hint[1]),
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> Tower:
        tag = {"Q(i)": RingTag.GAUSSIAN, "Q(sqrt-3)": RingTag.EISENSTEIN}.get(data["K"])
        if tag is None:
            raise ValueError(f"unknown base field {data['K']!r}")
        hint = data["theta_numeric_hint"]
        return cls(
            tag,
            data["f"],
            data["sigma_image"],
            int(data["U"]),
            int(data["n_t"]),
            (hint["m"], hint["coset"]),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Tower) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (
            f"Tower({self.tag.value}, deg={self.d}, U={self.U}, n_t={self.n_t}, "
            f"m={self.period_hint[0]})"
        )


class FieldElem(_Form):
    """An element of L: integer gamma-coordinates ``num`` over the basis
    mu^b theta^a and one positive denominator ``den``.

    ``FieldElem(tower, num, den)`` is the normalizing constructor."""

    __slots__ = ()

    def __init__(self, tower: Tower, num, den: int = 1):
        super().__init__(tower, num, den, 2 * tower.d)

    @property
    def coords(self) -> tuple[QuadElem, ...]:
        """Read-only view: the coordinates over 1..theta^(d-1) in K."""
        d, den, tag = self.tower.d, self.den, self.tower.tag
        return tuple(
            QuadElem(Fraction(self.num[a], den), Fraction(self.num[d + a], den), tag)
            for a in range(d)
        )

    def _coerce(self, other):
        """other as a FieldElem of this tower, or None for foreign types."""
        if isinstance(other, FieldElem):
            if self.tower is not other.tower and self.tower.key != other.tower.key:
                raise ValueError("elements live in different towers")
            return other
        if isinstance(other, (int, Fraction, QuadElem)):
            return self.tower._scalar(other)
        return None

    def __add__(self, other) -> FieldElem:
        other = self._coerce(other)
        return NotImplemented if other is None else _Form.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other) -> FieldElem:
        other = self._coerce(other)
        return NotImplemented if other is None else _Form.__sub__(self, other)

    def __rsub__(self, other) -> FieldElem:
        return (-self) + other

    def __mul__(self, other) -> FieldElem:
        if isinstance(other, (int, Fraction)):
            return self._times(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t = self.tower
        out = [0] * len(self.num)
        terms = t.mul_terms
        b = other.num
        for i, x in enumerate(self.num):
            if x:
                row = terms[i]
                for j, y in enumerate(b):
                    if y:
                        xy = x * y
                        for c, w in row[j]:
                            out[c] += w * xy
        return _new(FieldElem, t, tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def _in_k(self) -> bool:
        d = self.tower.d
        return not (any(self.num[1:d]) or any(self.num[d + 1 :]))

    def inverse(self) -> FieldElem:
        """x^-1 = prod_{t=1}^{d-1} sigma^t(x) / N_{L/K}(x), the norm in K."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        rest = self.tower.one()
        for t in range(1, self.tower.d):
            rest = rest * self.apply_sigma(t)
        norm = self * rest
        if not norm._in_k():
            raise ArithmeticError("norm to K did not land in K; tower data inconsistent")
        return rest * norm.coords[0].inverse()

    def __truediv__(self, other) -> FieldElem:
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def apply_sigma(self, j: int = 1) -> FieldElem:
        """Image under sigma^j: sigma fixes mu, so the power-basis integer
        matrix of sigma^j acts on both halves of the gamma-coordinates."""
        t = self.tower
        d = t.d
        j %= d
        if j == 0:
            return self
        rows, den = t._sigma[j]
        x = self.num
        out = [0] * (2 * d)
        for half in (0, d):
            for i, row in enumerate(rows):
                acc = 0
                for k, w in row:
                    acc += w * x[half + k]
                out[half + i] = acc
        return _new(FieldElem, t, tuple(out), self.den * den)

    def conj_complex(self) -> FieldElem:
        """Complex conjugation: theta is real, so it conjugates each K
        coordinate x + y mu (to x - y mu over Q(i), x + y - y mu over
        Q(sqrt-3), where conj(mu) = 1 - mu)."""
        d = self.tower.d
        xs, ys = self.num[:d], self.num[d:]
        if self.tower.tag is RingTag.EISENSTEIN:
            xs = tuple(map(add, xs, ys))
        return _new(FieldElem, self.tower, xs + tuple(-y for y in ys), self.den)

    def rel_norm(self, level: str = L_OVER_K) -> FieldElem:
        if level == L_OVER_K:
            count, step = self.tower.d, 1
        elif level == L_OVER_F:
            count, step = self.tower.n_t, self.tower.U
        else:
            raise ValueError(f"unknown relative norm level {level!r}")
        acc = self.tower.one()
        for idx in range(count):
            acc = acc * self.apply_sigma(idx * step)
        if level == L_OVER_K and not acc._in_k():
            raise ArithmeticError("norm to K did not land in K; tower data inconsistent")
        return acc

    def is_integral(self) -> bool:
        return self.den == 1

    def valuation(self, p: QuadElem) -> int | float:
        """min over coordinates of the p-valuation; requires a p-maximal
        power basis, certified by v_p(disc f) == 0.  A denominator (from
        sigma-images where the basis ring has index > 1 in O_L) must be
        coprime to N(p): then it is a p-unit and the numerators decide."""
        t = self.tower
        pkey = (p.a, p.b, p.tag)
        ok = t._pmax_cache.get(pkey)
        if ok is None:
            ok = ok_valuation(QuadElem(t.disc), p) == 0
            t._pmax_cache[pkey] = ok
        if not ok:
            raise ValueError(
                f"v_p(disc f) > 0 for p={p}; coordinate valuations are not conclusive"
            )
        if not self:
            return math.inf
        if math.gcd(self.den, int(p.norm())) != 1:
            raise ValueError(
                f"coordinate denominator {self.den} shares a factor with N(p);"
                " the valuation is not conclusive over this basis"
            )
        d = t.d
        pairs = (QuadElem(self.num[a], self.num[d + a], t.tag) for a in range(d))
        return min(ok_valuation(q, p) for q in pairs if q)

    # -- numerics ----------------------------------------------------------

    def embed(self, rel_bits: int | None = None) -> ComplexEnclosure:
        """A rigorous complex box for the canonical embedding (theta real,
        mu in the upper half plane)."""
        t = self.tower
        rel_bits = rel_bits if rel_bits is not None else 53
        d = t.d
        width = Fraction(1, 1 << (rel_bits + 8))
        while True:
            lo, hi = t.theta_enclosure(width)
            av = _ival(self.num[:d], self.den, lo, hi)
            bv = _ival(self.num[d:], self.den, lo, hi)
            if t.tag is RingTag.GAUSSIAN:
                re, im = av, bv
            else:
                half = (bv[0] / 2, bv[1] / 2)
                re = _ival_add(av, half)
                s3 = t.sqrt3_enclosure(width)
                im = _ival_mul(half, s3)
            box = ComplexEnclosure(re[0], re[1], im[0], im[1])
            w = max(re[1] - re[0], im[1] - im[0])
            scale = max(
                Fraction(1), abs(re[0] + re[1]) / 2, abs(im[0] + im[1]) / 2
            )
            if w <= scale / (1 << rel_bits):
                return box
            width /= 1 << 16

    def abs_sq_real(self) -> RealAlgebraic:
        """|x|^2 = x * conj(x) as an exact real element of Q(theta)."""
        z = self * self.conj_complex()
        d = self.tower.d
        if any(z.num[d:]):
            raise ArithmeticError("x * conj(x) must have rational coordinates")
        return _new(RealAlgebraic, self.tower, z.num[:d], z.den)

    def __repr__(self) -> str:
        return f"FieldElem({[str(c) for c in self.coords]})"


class RealAlgebraic(_Form):
    """An exact real number of Q(theta): integer numerators ``num`` over
    1..theta^(d-1) and one positive denominator ``den``.  Sign and
    comparisons are decided by integer interval Horner on the verified
    enclosure of theta, never by floating point."""

    __slots__ = ()

    def __init__(self, tower: Tower, num, den: int = 1):
        super().__init__(tower, num, den, tower.d)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Read-only view: the coordinates over 1..theta^(d-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def scale(self, r: Fraction) -> RealAlgebraic:
        r = Fraction(r)
        return self._times(r.numerator, r.denominator)

    def sign(self) -> int:
        if not any(self.num):
            return 0
        width = Fraction(1, 1 << 64)
        for _ in range(64):
            lo, hi = self.tower.theta_enclosure(width)
            a, b, _ = _ihorner(self.num, lo, hi)
            if a > 0:
                return 1
            if b < 0:
                return -1
            width /= 1 << 64
        raise ArithmeticError(
            "could not separate a nonzero algebraic number from zero; "
            "is f irreducible over Q?"
        )

    def __lt__(self, other: RealAlgebraic) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: RealAlgebraic) -> bool:
        return (self - other).sign() <= 0

    def bounds(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A rational interval of at most the requested width."""
        w = width
        while True:
            lo, hi = _ival(self.num, self.den, *self.tower.theta_enclosure(w))
            if hi - lo <= width:
                return lo, hi
            w /= 1 << 16

    def sqrt_bounds(self, rel_bits: int = 60) -> tuple[Fraction, Fraction]:
        """Rational bounds on the square root, relatively tight to about
        2^-rel_bits.  The value must be nonnegative."""
        s = self.sign()
        if s == 0:
            return Fraction(0), Fraction(0)
        if s < 0:
            raise ValueError("square root of a negative value")
        width = Fraction(1, 1 << 16)
        while True:
            lo, hi = self.bounds(width)
            if lo > 0 and (hi - lo) * (1 << (rel_bits + 2)) <= lo:
                return _sqrt_interval(lo, hi, rel_bits)
            width /= 1 << 32


def _sqrt_interval(lo: Fraction, hi: Fraction, rel_bits: int) -> tuple[Fraction, Fraction]:
    """Outward dyadic bounds on sqrt over a positive rational interval."""
    if not 0 < lo <= hi:
        raise ValueError("sqrt interval requires 0 < lo <= hi")
    # fixed-point scale: enough bits past the magnitude of sqrt(lo)
    mag = lo.numerator.bit_length() - lo.denominator.bit_length()
    k = rel_bits + 4 + max(0, (-mag) // 2 + 1)
    slo_num = math.isqrt((lo.numerator << (2 * k)) // lo.denominator)
    shi_base = -((-hi.numerator << (2 * k)) // hi.denominator)  # ceil division
    shi_num = math.isqrt(shi_base)
    if shi_num * shi_num < shi_base:
        shi_num += 1
    return Fraction(slo_num, 1 << k), Fraction(shi_num, 1 << k)
