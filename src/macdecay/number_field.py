"""Arithmetic in a cyclic extension tower K < F < L.

L = K(theta) where theta is a totally real algebraic integer of degree
d = U * n_t whose minimal polynomial f has rational integer coefficients,
K is Q(i) or Q(sqrt(-3)), and sigma generates the cyclic Galois group of
L/K by sending theta to a polynomial expression g(theta).  F is the fixed
field of tau = sigma^U.

Elements are coordinate vectors over the power basis 1, theta, ...,
theta^(d-1) with QuadElem coordinates, so every operation is exact.
Numerical embeddings use rational interval arithmetic around a verified
enclosure of the designated real root of f; no floating point enters any
comparison or certificate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import Poly, poly_discriminant
from .quadratic import QuadElem, RingTag, ok_valuation

L_OVER_F = "L/F"
L_OVER_K = "L/K"


# -- rational interval helpers ----------------------------------------------


def _ival_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    return (min(p1, p2, p3, p4), max(p1, p2, p3, p4))


def _ival_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _ival_horner(coeffs, x: tuple[Fraction, Fraction]):
    """Interval evaluation of a polynomial with Fraction coefficients."""
    lo = hi = Fraction(0)
    for c in reversed(coeffs):
        lo, hi = _ival_mul((lo, hi), x)
        lo, hi = lo + c, hi + c
    return (lo, hi)


def _dyadic_floor(x: Fraction, k: int) -> Fraction:
    return Fraction(math.floor(x * (1 << k)), 1 << k)


def _dyadic_ceil(x: Fraction, k: int) -> Fraction:
    return Fraction(math.ceil(x * (1 << k)), 1 << k)


def _raw_mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError("non-finite value cannot become a Fraction")
    v = Fraction(man)
    v = -v if sign else v
    return v * Fraction(2) ** exp


class RootEnclosure:
    """A shrinking rational bracket around one simple real root of f.

    The invariants are f(lo) * f(hi) < 0 and f' nonzero on [lo, hi], so the
    bracket always contains exactly the designated root.  Refinement uses
    interval Newton steps with bisection fallback, rounding endpoints to
    dyadic rationals to keep coordinate sizes bounded.
    """

    __slots__ = ("fc", "dfc", "lo", "hi", "sign_lo")

    def __init__(self, fcoeffs, lo: Fraction, hi: Fraction):
        self.fc = tuple(Fraction(c) for c in fcoeffs)
        self.dfc = tuple(c * i for i, c in enumerate(self.fc) if i)
        flo = _poly_at(self.fc, lo)
        fhi = _poly_at(self.fc, hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise ValueError("interval does not bracket a sign change of f")
        dlo, dhi = _ival_horner(self.dfc, (lo, hi))
        if dlo <= 0 <= dhi:
            raise ValueError("f' may vanish on the bracket; root not certified simple")
        self.lo, self.hi = lo, hi
        self.sign_lo = 1 if flo > 0 else -1

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        while self.hi - self.lo > width:
            self._step()
        return self.lo, self.hi

    def _step(self) -> None:
        lo, hi = self.lo, self.hi
        w = hi - lo
        mid = (lo + hi) / 2
        fm = _poly_at(self.fc, mid)
        if fm == 0:
            # impossible for irreducible f of degree > 1 at a rational point
            raise ArithmeticError("hit the root exactly; f is not irreducible")
        dlo, dhi = _ival_horner(self.dfc, (lo, hi))
        n1 = mid - fm / dlo
        n2 = mid - fm / dhi
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


def _poly_at(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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


class Tower:
    """The tower K < F < L with its Galois action and numeric root data.

    Parameters
    ----------
    tag : which quadratic base field K.
    f_coeffs : monic integer (or rational) coefficients of f, low first,
        degree d = U * n_t.
    sigma_coeffs : rational coordinates of sigma(theta) over the power basis.
    U, n_t : number of users and antennas; fix tau = sigma^U.
    period_hint : (m, exponents) describing theta as a sum of m-th roots of
        unity, used only to seed the verified real enclosure of theta.
    """

    __slots__ = (
        "tag",
        "U",
        "n_t",
        "d",
        "f_coeffs",
        "sigma_coeffs",
        "period_hint",
        "f_poly",
        "disc",
        "_red_rows",
        "_sig_mats",
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
        self.f_poly = Poly([QuadElem(c) for c in fc])
        disc = poly_discriminant(self.f_poly)
        self.disc = disc.a
        if self.disc == 0:
            raise ValueError("f has a repeated root")
        self._red_rows = self._build_reduction_rows()
        self._sig_mats = self._build_sigma_matrices()
        self._root = None
        self._sqrt3 = Sqrt3Enclosure() if tag is RingTag.EISENSTEIN else None
        self._pmax_cache: dict = {}
        self._gamma = None  # construction.gamma_basis, built on first use
        self.key = (tag, fc, sc, U, n_t)

    # -- structural caches -------------------------------------------------

    def _build_reduction_rows(self):
        d = self.d
        rows = []
        row = [-c for c in self.f_coeffs[:d]]
        rows.append(tuple(row))
        for _ in range(d - 2):
            top = row[d - 1]
            row = [Fraction(0)] + row[: d - 1]
            if top:
                row = [row[i] + top * rows[0][i] for i in range(d)]
            rows.append(tuple(row))
        return tuple(rows)

    def _build_sigma_matrices(self):
        d = self.d
        fpoly = Poly(list(self.f_coeffs))
        x = Poly([Fraction(0), Fraction(1)])
        g1 = Poly(list(self.sigma_coeffs))
        # consistency: f(sigma(theta)) must vanish in Q[x]/(f)
        if fpoly.compose_mod(g1, fpoly):
            raise ValueError("sigma image is not a root of f")
        images = [x]
        g = g1
        for _ in range(d - 1):
            images.append(g)
            g = g.compose_mod(g1, fpoly)
        if g != x:
            raise ValueError("sigma does not have order deg f")
        for j in range(1, d):
            if images[j] == x:
                raise ValueError("sigma has order smaller than deg f")
        mats = []
        for j in range(d):
            cols = []
            acc = Poly([Fraction(1)])
            for _ in range(d):
                cols.append(tuple(acc.coeffs) + (Fraction(0),) * (d - len(acc.coeffs)))
                acc = (acc * images[j]) % fpoly
            # mats[j][i][k]: row i, column k = coefficient of theta^i in sigma^j(theta^k)
            mat = tuple(tuple(cols[k][i] for k in range(d)) for i in range(d))
            mats.append(mat)
        return tuple(mats)

    # -- element constructors ----------------------------------------------

    def zero(self) -> FieldElem:
        return FieldElem(self, (QuadElem(0),) * self.d)

    def one(self) -> FieldElem:
        return FieldElem(self, (QuadElem(1),) + (QuadElem(0),) * (self.d - 1))

    def theta(self) -> FieldElem:
        if self.d == 1:
            # theta is rational; represent by its value -f0
            return FieldElem(self, (QuadElem(-self.f_coeffs[0]),))
        coords = [QuadElem(0)] * self.d
        coords[1] = QuadElem(1)
        return FieldElem(self, tuple(coords))

    def mu_elem(self) -> FieldElem:
        coords = [QuadElem(0)] * self.d
        coords[0] = QuadElem(0, 1, self.tag)
        return FieldElem(self, tuple(coords))

    def from_coords(self, coords) -> FieldElem:
        cs = tuple(c if isinstance(c, QuadElem) else QuadElem(Fraction(c)) for c in coords)
        if len(cs) != self.d:
            raise ValueError(f"expected {self.d} coordinates")
        return FieldElem(self, cs)

    def from_rational(self, x) -> FieldElem:
        return self.from_coords([x] + [0] * (self.d - 1))

    # -- numerics ------------------------------------------------------------

    def _init_root(self):
        if self._root is not None:
            return
        import mpmath

        m, exps = self.period_hint
        prec = 96
        while True:
            iv = mpmath.iv
            old = iv.prec
            try:
                iv.prec = prec
                total = iv.mpf(0)
                for h in exps:
                    total += iv.cos(2 * iv.pi * h / m)
                raw_lo, raw_hi = total._mpi_
                lo = _raw_mpf_to_fraction(raw_lo)
                hi = _raw_mpf_to_fraction(raw_hi)
            finally:
                iv.prec = old
            try:
                self._root = RootEnclosure(self.f_coeffs, lo, hi)
                return
            except ValueError:
                prec *= 2
                if prec > 4096:
                    raise

    def theta_enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        self._init_root()
        return self._root.refine(width)

    def sqrt3_enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        if self._sqrt3 is None:
            raise ValueError("sqrt(3) enclosure only exists over Q(sqrt-3)")
        return self._sqrt3.refine(width)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        for c in self.f_coeffs:
            if c.denominator != 1:
                raise ValueError("tower serialization expects integer f")
        return {
            "K": self.tag.value,
            "f": [int(c) for c in self.f_coeffs],
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
            [Fraction(c) for c in data["f"]],
            [Fraction(c) for c in data["sigma_image"]],
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


class FieldElem:
    """An element of L as a QuadElem coordinate vector over 1..theta^(d-1)."""

    __slots__ = ("tower", "coords")

    def __init__(self, tower: Tower, coords: tuple[QuadElem, ...]):
        self.tower = tower
        self.coords = coords

    def _check(self, other: FieldElem):
        if self.tower is not other.tower and self.tower.key != other.tower.key:
            raise ValueError("elements live in different towers")

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.tower.key == other.tower.key and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.tower.key, self.coords))

    def __add__(self, other) -> FieldElem:
        if isinstance(other, (int, Fraction, QuadElem)):
            other = self.tower.from_rational(other) if not isinstance(other, QuadElem) else FieldElem(
                self.tower, (other,) + (QuadElem(0),) * (self.tower.d - 1)
            )
        self._check(other)
        return FieldElem(
            self.tower, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self) -> FieldElem:
        return FieldElem(self.tower, tuple(-c for c in self.coords))

    def __sub__(self, other) -> FieldElem:
        return self + (-other if isinstance(other, FieldElem) else -QuadElem.coerce(other, self.tower.tag))

    def __rsub__(self, other) -> FieldElem:
        return (-self) + other

    def __mul__(self, other) -> FieldElem:
        if isinstance(other, (int, Fraction, QuadElem)):
            return FieldElem(self.tower, tuple(c * other for c in self.coords))
        self._check(other)
        d = self.tower.d
        a, b = self.coords, other.coords
        conv = [QuadElem(0)] * (2 * d - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    conv[i + j] = conv[i + j] + ca * cb
        out = conv[:d]
        rows = self.tower._red_rows
        for j in range(d - 1):
            c = conv[d + j]
            if c:
                row = rows[j]
                for i in range(d):
                    if row[i]:
                        out[i] = out[i] + c * row[i]
        return FieldElem(self.tower, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> FieldElem:
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        a = Poly(list(self.coords))
        from .polynomials import poly_ext_gcd

        g, s, _ = poly_ext_gcd(a, self.tower.f_poly)
        if g.degree != 0:
            raise ArithmeticError("f is not irreducible over K; inverse undefined")
        inv_const = g.coeffs[0].inverse()
        res = (s * inv_const) % self.tower.f_poly
        coords = list(res.coeffs) + [QuadElem(0)] * (self.tower.d - len(res.coeffs))
        return FieldElem(self.tower, tuple(coords))

    def __truediv__(self, other) -> FieldElem:
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / Fraction(other)
            return self * inv
        if isinstance(other, QuadElem):
            return self * other.inverse()
        self._check(other)
        return self * other.inverse()

    def apply_sigma(self, j: int = 1) -> FieldElem:
        """Image under sigma^j, computed by the cached coordinate matrices."""
        t = self.tower
        j %= t.d
        if j == 0:
            return self
        mat = t._sig_mats[j]
        out = []
        for i in range(t.d):
            acc = QuadElem(0)
            row = mat[i]
            for k in range(t.d):
                if row[k] and self.coords[k]:
                    acc = acc + self.coords[k] * row[k]
            out.append(acc)
        return FieldElem(t, tuple(out))

    def apply_tau(self, i: int = 1) -> FieldElem:
        return self.apply_sigma(i * self.tower.U)

    def conj_complex(self) -> FieldElem:
        """Complex conjugation: theta is real, so it acts on coordinates."""
        return FieldElem(self.tower, tuple(c.conj() for c in self.coords))

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
        if level == L_OVER_K and any(acc.coords[1:]):
            raise ArithmeticError("norm to K did not land in K; tower data inconsistent")
        return acc

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.coords)

    def valuation(self, p: QuadElem) -> int | float:
        """min over coordinates of the p-valuation; requires a p-maximal
        power basis, certified by v_p(disc f) == 0.

        Coordinates may carry rational denominators (sigma-images on towers
        whose basis ring has index > 1 in O_L); denominators coprime to N(p)
        are p-units and are cleared exactly before the coordinate minimum."""
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
        den = 1
        for c in self.coords:
            den = math.lcm(den, c.a.denominator, c.b.denominator)
        elem = self
        if den != 1:
            if math.gcd(den, int(p.norm())) != 1:
                raise ValueError(
                    f"coordinate denominator {den} shares a factor with N(p);"
                    " the valuation is not conclusive over this basis"
                )
            elem = self * den
        return min(ok_valuation(c, p) for c in elem.coords if c)

    # -- numerics ----------------------------------------------------------

    def embed(self, rel_bits: int | None = None) -> ComplexEnclosure:
        """A rigorous complex box for the canonical embedding (theta real,
        mu in the upper half plane)."""
        t = self.tower
        rel_bits = rel_bits if rel_bits is not None else 53
        a_poly = [c.a for c in self.coords]
        b_poly = [c.b for c in self.coords]
        width = Fraction(1, 1 << (rel_bits + 8))
        while True:
            th = t.theta_enclosure(width)
            av = _ival_horner(a_poly, th)
            bv = _ival_horner(b_poly, th)
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
        coords = []
        for c in z.coords:
            if c.b != 0:
                raise ArithmeticError("x * conj(x) must have rational coordinates")
            coords.append(c.a)
        return RealAlgebraic(self.tower, tuple(coords))

    def __repr__(self) -> str:
        return f"FieldElem({[str(c) for c in self.coords]})"


class RealAlgebraic:
    """An exact real number given as rational coordinates over the theta
    power basis; sign and comparisons are decided by shrinking the verified
    enclosure of theta, never by floating point."""

    __slots__ = ("tower", "coords")

    def __init__(self, tower: Tower, coords: tuple[Fraction, ...]):
        self.tower = tower
        self.coords = tuple(coords)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        return self.tower.key == other.tower.key and self.coords == other.coords

    def __hash__(self):
        return hash((self.tower.key, self.coords))

    def __add__(self, other: RealAlgebraic) -> RealAlgebraic:
        return RealAlgebraic(
            self.tower, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> RealAlgebraic:
        return RealAlgebraic(self.tower, tuple(-c for c in self.coords))

    def __sub__(self, other: RealAlgebraic) -> RealAlgebraic:
        return self + (-other)

    def scale(self, r: Fraction) -> RealAlgebraic:
        return RealAlgebraic(self.tower, tuple(c * r for c in self.coords))

    def sign(self) -> int:
        if not any(self.coords):
            return 0
        width = Fraction(1, 1 << 64)
        for _ in range(64):
            th = self.tower.theta_enclosure(width)
            lo, hi = _ival_horner(self.coords, th)
            if lo > 0:
                return 1
            if hi < 0:
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
            th = self.tower.theta_enclosure(w)
            lo, hi = _ival_horner(self.coords, th)
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

