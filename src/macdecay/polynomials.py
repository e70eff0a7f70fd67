"""Dense univariate polynomials over an exact coefficient field.

Coefficients can be Fraction, QuadElem or any type supporting exact
+, -, *, / and truth testing.  Coefficient lists are stored low degree
first and kept trimmed, so the zero polynomial has an empty tuple and its
degree is the sentinel None.
"""

from __future__ import annotations

from fractions import Fraction

from .quadratic import QuadElem


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == _one_like(self.coeffs[-1])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [self.coeffs[0] * other.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation at x, which may live in any extension ring."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1] * _one_like_of(x)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c * _one_like_of(x)
        return acc

    def derivative(self) -> Poly:
        return Poly([c * i for i, c in enumerate(self.coeffs) if i > 0])

    def shift_mul_x(self, n: int = 1) -> Poly:
        if not self.coeffs:
            return self
        zero = self.coeffs[0] * 0
        return Poly([zero] * n + list(self.coeffs))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = _one_like(other.leading) / other.leading
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(()), self
        quot = [rem[0] * 0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] * lead_inv
            quot[i] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * oc
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def monic(self) -> Poly:
        if not self:
            raise ValueError("cannot normalize the zero polynomial")
        inv = _one_like(self.leading) / self.leading
        return Poly([c * inv for c in self.coeffs])

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


def _one_like(c):
    if isinstance(c, QuadElem):
        return QuadElem(1)
    return type(c)(1)


def _one_like_of(x):
    if isinstance(x, (int, Fraction, QuadElem)):
        return 1
    return _one_like(x)


def _det_field(rows: list[list], one) -> object:
    """Determinant by fraction-producing Gaussian elimination with row swaps."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return one * 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        pv = m[col][col]
        det = det * pv
        pv_inv = one / pv
        for r in range(col + 1, n):
            factor = m[r][col] * pv_inv
            if factor:
                for c in range(col, n):
                    m[r][c] = m[r][c] - factor * m[col][c]
    return det


def resultant(f: Poly, g: Poly):
    """Res(f, g) via the Sylvester matrix over the coefficient field."""
    if not f or not g:
        raise ValueError("resultant of a zero polynomial")
    n, m = f.degree, g.degree
    one = _one_like(f.leading)
    zero = one * 0
    if n == 0:
        return f.coeffs[0] ** m if m else one
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([zero] * i + fc + [zero] * (size - i - len(fc)))
    for i in range(n):
        rows.append([zero] * i + gc + [zero] * (size - i - len(gc)))
    return _det_field(rows, one)


def poly_discriminant(f: Poly):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    if not f or f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    n = f.degree
    res = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return res * sign * (_one_like(f.leading) / f.leading)
