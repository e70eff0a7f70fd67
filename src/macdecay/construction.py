"""Codeword matrices of the multiuser code C_{U,n_t}(L/K, p, sigma, k).

A single user's data (x_1, ..., x_{n_t}) in O_L becomes the cyclic-algebra
block M with entry (r, c) = p^[r<c] * tau^c(x_{(r-c) mod n_t}), tau =
sigma^U.  User j transmits the row of blocks (sigma^t(M))_{t=0..U-1} with
p^{-k} on block j-1, and the received codeword stacks the U user rows into
a Un_t x Un_t matrix.  Denominators are always pure powers of p, tracked
as explicit integer exponents next to integral numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np

from .finite_fields import InertnessInconclusive, is_irreducible_mod_p
from .number_field import FieldElem, Tower
from .quadratic import QuadElem


def choose_k(U: int, n_t: int) -> int:
    """Smallest integer strictly greater than U(n_t - 1)/2."""
    if U < 1 or n_t < 1:
        raise ValueError("U and n_t must be positive")
    return (U * (n_t - 1)) // 2 + 1


class CodeSpec:
    """A tower, a certified inert prime p, and the denominator exponent k."""

    __slots__ = ("tower", "p", "p_inv", "k", "U", "n_t", "d", "norm_p", "r_per_user")

    def __init__(self, tower: Tower, p: QuadElem, k: int | None = None):
        self.tower = tower
        self.U = tower.U
        self.n_t = tower.n_t
        self.d = tower.d
        k = choose_k(self.U, self.n_t) if k is None else int(k)
        if 2 * k <= self.U * (self.n_t - 1):
            raise ValueError(
                f"k = {k} must strictly exceed U(n_t-1)/2 = {self.U * (self.n_t - 1) / 2}"
            )
        self.k = k
        if not p.is_integral() or not p or p.is_unit():
            raise ValueError("p must be a non-unit integral element")
        try:
            inert = is_irreducible_mod_p(tower.f_coeffs, p, tower.tag)
        except InertnessInconclusive as exc:
            raise ValueError(f"cannot certify {p} inert: {exc}") from exc
        if not inert:
            raise ValueError(f"{p} is not inert in L/K (f reducible mod p)")
        self.p = p
        self.p_inv = tower.one() * p.inverse()  # p^-1 as an element of L
        self.norm_p = int(p.norm())
        self.r_per_user = 2 * self.U * self.n_t**2

    def to_json_dict(self) -> dict:
        return {
            "tower": self.tower.to_json_dict(),
            "p": [str(self.p.a), str(self.p.b)],
            "k": self.k,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> CodeSpec:
        tower = Tower.from_json_dict(data["tower"])
        a, b = (Fraction(v) for v in data["p"])
        p = QuadElem(a, b, tower.tag) if b else QuadElem(a)
        return cls(tower, p, data["k"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CodeSpec)
            and self.tower.key == other.tower.key
            and self.p == other.p
            and self.k == other.k
        )

    def __repr__(self) -> str:
        return f"CodeSpec(U={self.U}, n_t={self.n_t}, p={self.p}, k={self.k})"


class CodeMatrix:
    """A dense matrix over L where entry (r, c) is numer * p^(-exp)."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec: CodeSpec, entries):
        self.spec = spec
        self.entries = tuple(tuple(e for e in row) for row in entries)
        width = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for num, exp in row:
                if exp < 0:
                    raise ValueError("p exponents must be nonnegative")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    def entry_value(self, r: int, c: int) -> FieldElem:
        """The exact value numer * p^(-exp) as a FieldElem over L."""
        num, exp = self.entries[r][c]
        for _ in range(exp):
            num = num * self.spec.p_inv
        return num

    def values(self) -> list[list[FieldElem]]:
        rows, cols = self.shape
        return [[self.entry_value(r, c) for c in range(cols)] for r in range(rows)]

    @staticmethod
    def vstack(blocks: list[CodeMatrix]) -> CodeMatrix:
        out = []
        for b in blocks:
            out.extend(b.entries)
        return CodeMatrix(blocks[0].spec, out)

    def __repr__(self) -> str:
        r, c = self.shape
        return f"CodeMatrix({r}x{c}, max_exp={max((e for row in self.entries for _, e in row), default=0)})"


def zero_matrix(spec: CodeSpec, rows: int, cols: int) -> CodeMatrix:
    z = spec.tower.zero()
    return CodeMatrix(spec, [[(z, 0)] * cols for _ in range(rows)])


def build_M(spec: CodeSpec, xs) -> CodeMatrix:
    """The n_t x n_t cyclic-algebra block; no denominators."""
    n_t = spec.n_t
    if len(xs) != n_t:
        raise ValueError(f"expected {n_t} elements, got {len(xs)}")
    tower = spec.tower
    p = spec.p
    rows = []
    for r in range(n_t):
        row = []
        for c in range(n_t):
            x = xs[(r - c) % n_t]
            val = x.apply_sigma(c * spec.U)  # tau^c
            if r < c:
                val = val * p
            row.append((val, 0))
        rows.append(row)
    return CodeMatrix(spec, rows)


def build_user_block(spec: CodeSpec, j: int, xs) -> CodeMatrix:
    """User j's n_t x Un_t row of twisted blocks, p^{-k} at slot j-1."""
    if not 1 <= j <= spec.U:
        raise ValueError(f"user index must be in 1..{spec.U}")
    if not any(xs):
        raise ValueError("user data must not be all zero")
    # block t is sigma^t of M entrywise; p is in K, so exponents ride along
    rows = build_M(spec, xs).entries
    return CodeMatrix(
        spec,
        [
            [
                (n.apply_sigma(t), e + (spec.k if t == j - 1 else 0))
                for t in range(spec.U)
                for n, e in row
            ]
            for row in rows
        ],
    )


def build_A(spec: CodeSpec, blocks) -> CodeMatrix:
    """Stack the U user blocks into the Un_t x Un_t codeword."""
    if len(blocks) != spec.U:
        raise ValueError(f"expected {spec.U} user blocks")
    want = (spec.n_t, spec.U * spec.n_t)
    for b in blocks:
        if b.shape != want:
            raise ValueError(f"user block shape {b.shape} != {want}")
        if b.spec != spec:
            raise ValueError("block built from a different spec")
    return CodeMatrix.vstack(list(blocks))


def gamma_basis(tower: Tower) -> tuple[FieldElem, ...]:
    """The 2*U*n_t integral basis mu^b theta^a of O_L as a Z-module,
    ordered a = 0..d-1 for b = 0 then b = 1: the unit gamma-coordinate
    vectors.  Built once per tower; every caller shares the one tuple."""
    if tower._gamma is None:
        tower._gamma = tuple(tower._unit_vector(g) for g in range(2 * tower.d))
    return tower._gamma


def gamma_elements(basis: tuple[FieldElem, ...], coeffs) -> list[FieldElem]:
    """The elements sum_g c_g gamma_g, one per run of len(basis) integer
    gamma-coordinates in coeffs; basis is gamma_basis of their tower.
    Each run is the element's numerator vector over denominator 1, and a
    coordinate that is not an integer is refused."""
    width = len(basis)
    if len(coeffs) % width:
        raise ValueError(f"coordinate count must be a multiple of {width}")
    tower = basis[0].tower
    return [
        FieldElem(tower, coeffs[start : start + width])
        for start in range(0, len(coeffs), width)
    ]


def lattice_basis(spec: CodeSpec, j: int) -> list[CodeMatrix]:
    """The r = 2Un_t^2 generator matrices of user j's lattice: for each data
    slot l and each integral basis element gamma, the block with x_l = gamma.
    Certified full rank over R by the numeric rank of the vectorized set."""
    basis = gamma_basis(spec.tower)
    out = []
    zero = spec.tower.zero()
    for slot in range(spec.n_t):
        for g in basis:
            xs = [zero] * spec.n_t
            xs[slot] = g
            out.append(build_user_block(spec, j, xs))
    _certify_full_rank(spec, j, out)
    return out


# per process, spec and user: the float rows that certified the rank
_RANK_CACHE: dict = {}


def _rank_key(spec: CodeSpec, j: int) -> tuple:
    return (spec.tower.key, spec.p.a, spec.p.b, spec.k, j)


def _certify_full_rank(spec: CodeSpec, j: int, mats: list[CodeMatrix]) -> None:
    cache_key = _rank_key(spec, j)
    if cache_key in _RANK_CACHE:
        return
    vecs = []
    for m in mats:
        row = []
        for r in range(m.shape[0]):
            for c in range(m.shape[1]):
                z = m.entry_value(r, c).embed(50).mid()
                row.extend((z.real, z.imag))
        vecs.append(row)
    mat = np.array(vecs, dtype=np.float64)
    rank = np.linalg.matrix_rank(mat)
    if rank != len(mats):
        raise ArithmeticError(
            f"lattice generators numerically rank deficient: {rank} < {len(mats)}"
        )
    mat.flags.writeable = False
    _RANK_CACHE[cache_key] = mat


def certified_rows(spec: CodeSpec, j: int) -> np.ndarray:
    """The float rows that certified user j's lattice generators full rank,
    one per generator: its entries row by row, the real and imaginary parts
    of each interleaved, each the midpoint of a 50-bit embedding.  One
    read-only array per process, spec and user, there once lattice_basis(spec,
    j) has run."""
    return _RANK_CACHE[_rank_key(spec, j)]


def codeword_from_coeffs(spec: CodeSpec, j: int, b) -> CodeMatrix:
    """Integer combination sum b_i B_{j,i} of user j's lattice generators.

    Computed through the linearity of the construction: the combined data
    vector xs[l] = sum_g b[l*2d+g] gamma_g feeds one block build.  b = 0
    gives the zero block."""
    basis = gamma_basis(spec.tower)
    width = len(basis)
    if len(b) != spec.n_t * width:
        raise ValueError(f"coefficient vector must have length {spec.n_t * width}")
    if not any(b):
        return zero_matrix(spec, spec.n_t, spec.U * spec.n_t)
    return build_user_block(spec, j, gamma_elements(basis, b))


@dataclass(frozen=True)
class CoefficientBox:
    """Per-user integer coefficient vectors with their box bounds."""

    bounds: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.bounds) != len(self.vectors):
            raise ValueError("one bound per user required")
        for n, vec in zip(self.bounds, self.vectors):
            try:
                n = index(n)
                top = max(map(abs, map(index, vec)), default=0)
            except TypeError:
                raise ValueError("box bounds and coefficients must be integers") from None
            if n < 1:
                raise ValueError("bounds must be positive")
            if top > n:
                raise ValueError(f"coefficient outside [-{n}, {n}]")

    @property
    def users(self) -> int:
        return len(self.vectors)

    def lex_key(self) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for v in self.vectors:
            out += v
        return out


def assemble_codeword(spec: CodeSpec, box: CoefficientBox) -> CodeMatrix:
    """The full stacked codeword for one coefficient box."""
    if box.users != spec.U:
        raise ValueError(f"box has {box.users} users, spec has {spec.U}")
    blocks = [
        codeword_from_coeffs(spec, j + 1, box.vectors[j]) for j in range(spec.U)
    ]
    return build_A(spec, blocks)

