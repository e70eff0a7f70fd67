"""Towers from Gaussian periods: exact minimal polynomials, the sigma
image polynomial, and certified inert prime search.

For an odd conductor m and a subgroup H of (Z/mZ)* containing -1, the
period eta_c = sum of zeta_m^h over h in cH is a totally real algebraic
integer, and the periods over the cosets of H are a full conjugate orbit.
All computation happens in the cyclotomic ring Z[x]/(Phi_m(x)) with integer
vectors, so the minimal polynomial and the sigma image are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .finite_fields import (
    InertnessInconclusive, _is_rational_prime, _prime_factors,
    is_irreducible_mod_p,
)
from .number_field import Tower
from .quadratic import QuadElem, RingTag, enumerate_primes


def _zdiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low-first lists)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact integer polynomial division")
        out[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    if any(num):
        raise ArithmeticError("inexact integer polynomial division")
    return out


def cyclotomic_poly(m: int) -> list[int]:
    """Phi_m as an integer coefficient list, via x^m - 1 = prod Phi_d."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _zdiv_exact(num, cyclotomic_poly(d))
    return num


class CycRing:
    """Z[zeta_m] as integer vectors over 1, zeta, ..., zeta^(phi(m)-1)."""

    __slots__ = ("m", "deg", "_rows")

    def __init__(self, m: int):
        self.m = m
        phi = cyclotomic_poly(m)
        self.deg = len(phi) - 1
        # rows[e - deg] = coordinates of zeta^e for e in deg..m-1
        rows = []
        row = [-c for c in phi[: self.deg]]
        rows.append(tuple(row))
        for _ in range(self.m - self.deg - 1):
            top = row[self.deg - 1]
            row = [0] + row[: self.deg - 1]
            if top:
                row = [row[i] + top * rows[0][i] for i in range(self.deg)]
            rows.append(tuple(row))
        self._rows = tuple(rows)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.deg

    def from_exponents(self, exps) -> tuple[int, ...]:
        """Sum of zeta^e over a multiset of exponents."""
        arr = [0] * self.m
        for e in exps:
            arr[e % self.m] += 1
        return self._fold(arr)

    def _fold(self, arr: list[int]) -> tuple[int, ...]:
        out = arr[: self.deg]
        for e in range(self.deg, self.m):
            c = arr[e]
            if c:
                row = self._rows[e - self.deg]
                for i in range(self.deg):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def mul(self, u, v):
        m = self.m
        arr = [0] * m
        # indices never reach m in the convolution of two reduced vectors,
        # but exponent arithmetic stays mod m for clarity
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if b:
                    arr[(i + j) % m] += a * b
        return self._fold(arr)

    def rational_integer(self, u) -> int:
        """Extract c from the vector of a rational integer c, or raise."""
        if any(u[1:]):
            raise ArithmeticError("cyclotomic value is not a rational integer")
        return u[0]


@dataclass(frozen=True)
class PeriodSpec:
    """A conductor m and subgroup H of (Z/mZ)* given by generators."""

    m: int
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.m < 5 or self.m % 2 == 0:
            raise ValueError("conductor must be an odd integer >= 5")
        for g in self.generators:
            if math.gcd(g, self.m) != 1:
                raise ValueError(f"generator {g} is not a unit mod {self.m}")

    @cached_property
    def subgroup(self) -> frozenset[int]:
        seen = {1}
        frontier = [1]
        gens = [g % self.m for g in self.generators]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = (x * g) % self.m
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(u for u in range(1, self.m) if math.gcd(u, self.m) == 1)

    @cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """Cosets of H, each sorted, ordered by smallest representative."""
        h = self.subgroup
        seen: set[int] = set()
        out = []
        for u in self.units:
            if u in seen:
                continue
            coset = tuple(sorted((u * x) % self.m for x in h))
            seen.update(coset)
            out.append(coset)
        return tuple(out)

    @property
    def degree(self) -> int:
        return len(self.units) // len(self.subgroup)

    def validate_real(self) -> None:
        if (self.m - 1) not in self.subgroup:
            raise ValueError("-1 must lie in H for the periods to be real")

    def coset_of(self, u: int) -> tuple[int, ...]:
        u %= self.m
        for coset in self.cosets:
            if u in coset:
                return coset
        raise ValueError(f"{u} is not a unit mod {self.m}")


def period_min_poly(ps: PeriodSpec) -> tuple[int, ...]:
    """The monic integer minimal polynomial prod over cosets of (x - eta_c),
    expanded exactly in the cyclotomic ring."""
    ps.validate_real()
    ring = CycRing(ps.m)
    periods = [ring.from_exponents(coset) for coset in ps.cosets]
    # polynomial in x with cyclotomic-vector coefficients, low first
    coeffs = [tuple([1] + [0] * (ring.deg - 1))]
    for eta in periods:
        shifted = [ring.zero()] + coeffs
        scaled = [ring.mul(eta, c) for c in coeffs] + [ring.zero()]
        coeffs = [ring.sub(a, b) for a, b in zip(shifted, scaled)]
    return tuple(ring.rational_integer(c) for c in coeffs)


def quotient_generator(ps: PeriodSpec) -> int:
    """Smallest positive integer whose coset generates (Z/m)* / H."""
    target = len(ps.cosets)
    h = ps.subgroup
    for g0 in range(2, ps.m):
        if math.gcd(g0, ps.m) != 1:
            continue
        seen = set()
        x = 1
        for _ in range(target):
            x = (x * g0) % ps.m
            seen.add(min((x * v) % ps.m for v in h))
        if len(seen) == target:
            return g0
    raise ValueError("quotient group is not cyclic")


def sigma_image_poly(ps: PeriodSpec, g0: int) -> tuple[Fraction, ...]:
    """The d coefficients, low first, of the rational polynomial g of
    degree < d with eta_{g0} = g(eta_1).

    Solved as an exact linear system over the cyclotomic basis, so the
    result is the canonical reduced representative mod the minimal
    polynomial (trig identities like theta^2 - 2 reduce to it).
    """
    ps.validate_real()
    if math.gcd(g0, ps.m) != 1:
        raise ValueError(f"{g0} is not a unit mod {ps.m}")
    ring = CycRing(ps.m)
    d = ps.degree
    eta1 = ring.from_exponents(ps.coset_of(1))
    rhs = ring.from_exponents(ps.coset_of(g0))
    cols = []
    acc = tuple([1] + [0] * (ring.deg - 1))
    for _ in range(d):
        cols.append(acc)
        acc = ring.mul(acc, eta1)
    return tuple(_solve_exact_overdetermined(cols, rhs))


def _solve_exact_overdetermined(cols, rhs) -> list[Fraction]:
    """Solve sum_j x_j cols[j] = rhs exactly; the system must be consistent
    with full column rank."""
    nrows = len(rhs)
    ncols = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(ncols)] + [Fraction(rhs[i])] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if aug[i][c]:
                pr = i
                break
        if pr is None:
            raise ArithmeticError("singular system: period is not a primitive element")
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nrows):
        if aug[i][ncols]:
            raise ArithmeticError("inconsistent system: period expansion failed")
    sol = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][ncols]
    return sol


def standard_period_spec(degree: int) -> PeriodSpec:
    """The smallest-conductor prime spec of the given degree: the least
    prime m = 1 (mod 2*degree) with H the subgroup of index degree."""
    if degree < 2:
        raise ValueError("degree must be at least 2")
    m = 2 * degree + 1
    while True:
        if _is_rational_prime(m) and (m - 1) % (2 * degree) == 0:
            break
        m += 2 * degree
    return PeriodSpec(m, standard_generators(m, degree))


def standard_generators(m: int, degree: int) -> tuple[int, ...]:
    """Generators of the index-degree subgroup of (Z/m)* for prime m.
    Requires 2*degree | m-1 so that -1 lands in the subgroup (real periods)."""
    if not _is_rational_prime(m):
        raise ValueError(f"conductor {m} must be prime")
    if (m - 1) % (2 * degree) != 0:
        raise ValueError(
            f"conductor {m} does not admit a real degree-{degree} period field"
        )
    g = _primitive_root(m)
    return (pow(g, degree, m),)


def _primitive_root(m: int) -> int:
    order = m - 1
    factors = _prime_factors(order)
    for g in range(2, m):
        if all(pow(g, order // f, m) != 1 for f in factors):
            return g
    raise ArithmeticError(f"no primitive root mod {m}")


def build_tower(
    tag: RingTag,
    U: int,
    n_t: int,
    m: int | None = None,
    generators: tuple[int, ...] | None = None,
    g0: int | None = None,
) -> Tower:
    """Construct the tower K(eta_1) for a U*n_t degree period field.

    Without m the smallest-conductor standard spec of degree U*n_t is used.
    g0 defaults to the smallest generator of the quotient group, so towers
    are reproducible bit for bit.
    """
    d = U * n_t
    if m is None:
        ps = standard_period_spec(d)
    else:
        if generators is None:
            raise ValueError("an explicit conductor needs subgroup generators")
        ps = PeriodSpec(m, tuple(generators))
    if ps.degree != d:
        raise ValueError(f"period degree {ps.degree} does not match U*n_t = {d}")
    ps.validate_real()
    if g0 is None:
        g0 = quotient_generator(ps)
    return Tower(
        tag,
        period_min_poly(ps),
        sigma_image_poly(ps, g0),
        U,
        n_t,
        (ps.m, ps.coset_of(1)),
    )


def find_inert_primes(tower: Tower, norm_bound: int) -> list[QuadElem]:
    """All O_K primes of norm <= norm_bound certified inert in L/K: the
    discriminant of f is a p-unit and f is irreducible mod p.  Primes where
    the discriminant test is inconclusive are skipped."""
    if norm_bound < 2:
        raise ValueError("norm_bound must be at least 2")
    out = []
    for p in enumerate_primes(tower.tag, norm_bound):
        try:
            if is_irreducible_mod_p(tower.f_coeffs, p, tower.tag):
                out.append(p)
        except InertnessInconclusive:
            continue
    return out


# largest degree catalog_rows accepts: its cost grows steeply, from 0.5 s
# for degrees up to 12 to about 12 s up to 24 (one Xeon core)
MAX_DEGREE = 24


def catalog_rows(max_degree: int = 7, norm_bound: int = 10) -> list[dict]:
    """Standard tower data per degree, with certified inert primes for both
    base fields.  Degrees 3..7 reproduce the published example table.  A
    max_degree below 2 or above MAX_DEGREE is refused."""
    if not 2 <= max_degree <= MAX_DEGREE:
        raise ValueError(f"max degree {max_degree} is outside 2..{MAX_DEGREE}")
    rows = []
    for d in range(2, max_degree + 1):
        ps = standard_period_spec(d)
        row = {
            "degree": d,
            "m": ps.m,
            "H_generators": list(ps.generators),
            "f": list(period_min_poly(ps)),
        }
        for tag, col in ((RingTag.GAUSSIAN, "primes_Q(i)"), (RingTag.EISENSTEIN, "primes_Q(sqrt-3)")):
            # inert search only depends on f, so any U*n_t factorization works
            tower = build_tower(tag, d, 1, ps.m, ps.generators)
            row[col] = [str(p) for p in find_inert_primes(tower, norm_bound)]
        rows.append(row)
    return rows
