"""The discriminant of a monic integer polynomial.

A polynomial is a sequence of Python ints, low degree first, with a
leading coefficient of 1.
"""

from __future__ import annotations

from operator import index


def monic_int_coeffs(f) -> tuple[int, ...]:
    """f as a tuple of ints; ValueError unless every coefficient is an
    integer and the leading one is 1."""
    try:
        fc = tuple(map(index, f))
    except TypeError:
        raise ValueError("polynomial must have integer coefficients") from None
    if not fc or fc[-1] != 1:
        raise ValueError("polynomial must be monic")
    return fc


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay ints."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def discriminant(f) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic integer f of degree
    n >= 1, with the resultant the determinant of the Sylvester matrix."""
    fc = monic_int_coeffs(f)
    n = len(fc) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    hi = list(fc[::-1])
    dhi = [c * i for i, c in enumerate(fc)][:0:-1]
    rows = [[0] * i + hi + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + dhi + [0] * (n - 1 - i) for i in range(n)]
    res = _bareiss_det(rows)
    return -res if (n * (n - 1) // 2) % 2 else res
