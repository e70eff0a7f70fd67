"""Everything measured about a code: exact determinants, the rank
criterion, and the decay function D(N_1, ..., N_U).

D is the minimum absolute determinant of a stacked codeword over all
coefficient boxes in which every user is active.  Minima are located by a
float64 screen with rigorous slack and then decided exactly: zero tests
and comparisons happen in the number field, never in floating point.
"""

from __future__ import annotations

import math
import random
import struct
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, product, starmap
from operator import attrgetter, index

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .construction import (
    CodeMatrix, CodeSpec, CoefficientBox, assemble_codeword, build_M,
    codeword_from_coeffs, gamma_basis, gamma_elements,
)
from .kernels import (
    GRID_ROW_CAP, INT64_LIMIT, IntKernel, OverflowRisk, SparseMap,
    UserTensors, coeff_grid, det_float_batch, det_int_batch, det_schedule,
    det_slack_batch, grid_rows, grid_size, slack_factors, stack_users,
)
from .number_field import FieldElem, RealAlgebraic
from .quadratic import QuadElem

EXHAUSTIVE = "EXHAUSTIVE"
SAMPLED = "SAMPLED"
FIRST_USER = "FIRST_USER"
ALL_USERS = "ALL_USERS"

DEFAULT_BUDGET = 10**8
# the one batch size of a numpy pass: boxes per rank chunk, lex rows per
# grid slice, samples per sampled chunk, window pairs per expansion, and
# fresh stream words per draw pass
SUB_BATCH = 16384
DRAW_STRIDE = 16  # samples per step of the draw's Python walk, a power of 2

CSV_HEADER = "N,D_value,error_radius,mode,samples,argmin_coeffs,wall_time_ms"


class BudgetExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the codeword-count budget."""


@dataclass
class DecayReport:
    """One point of a decay curve.  ``evaluated`` counts the codewords the
    point covers; ``screened`` those whose float bounds it computed: the
    meet-in-the-middle window pairs (EXHAUSTIVE, n_t = 1), the orbit
    representatives of the one user's box (EXHAUSTIVE, n_t >= 2), the
    samples (SAMPLED), or 0 (naive_min_abs_det)."""

    bounds: tuple[int, ...]
    mode: str
    samples: int | None
    seed: int | None
    D_value: float
    error_radius: float
    argmin: CoefficientBox
    exact_det: FieldElem
    det_numerator: FieldElem
    det_p_exponent: int
    abs_sq: RealAlgebraic
    evaluated: int
    screened: int
    wall_time: float


# ---------------------------------------------------------------------------
# exact determinants


def det_exact(A: CodeMatrix) -> tuple[FieldElem, int]:
    """Exact determinant of a codeword matrix as (numerator, s) with
    det = numerator * p^(-s), by fraction-free column-subset expansion over
    the DetSchedule of the matrix's own p-exponents.

    The numerator is asserted to be fixed by tau = sigma^U (the determinant
    lies in the intermediate field F)."""
    n, m = A.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    spec = A.spec
    p = spec.p
    sched = det_schedule([[e for _, e in row] for row in A.entries])
    dp: dict[int, FieldElem] = {0: spec.tower.one()}
    for i, level in enumerate(sched.steps):
        new_dp: dict[int, FieldElem] = {}
        for mask, terms in level:
            acc = spec.tower.zero()
            for c, sign, pad in terms:
                term = A.entries[i][c][0] * dp[mask ^ (1 << c)]
                if pad:
                    term = term * p**pad
                acc = acc + term if sign > 0 else acc - term
            new_dp[mask] = acc
        dp = new_dp
        dp[0] = spec.tower.one()
    num = dp[(1 << n) - 1]
    if not num.apply_sigma(spec.U) == num:
        raise ArithmeticError("determinant is not fixed by tau = sigma^U")
    return num, sched.total_exp


def det_value(spec: CodeSpec, num: FieldElem, s: int) -> FieldElem:
    """The exact field value numerator * p^(-s)."""
    for _ in range(s):
        num = num * spec.p_inv
    return num


def abs_sq_of_det(spec: CodeSpec, num: FieldElem, s: int) -> RealAlgebraic:
    """|det|^2 = |num|^2 / Nm(p)^s as an exact real algebraic number."""
    return num.abs_sq_real().scale(Fraction(1, spec.norm_p**s))


# ---------------------------------------------------------------------------
# rank criterion


@dataclass
class RankReport:
    total: int
    zero_failures: list[CoefficientBox]
    tau_failures: list[CoefficientBox]

    @property
    def passed(self) -> bool:
        return not self.zero_failures and not self.tau_failures


def rank_criterion_check(spec: CodeSpec, boxes) -> RankReport:
    """Exact nonzero-determinant check over a stream of coefficient boxes.

    Also records tau-fixedness of every determinant numerator, so one sweep
    certifies both the rank criterion and membership of det(A) in F.  Every
    box must hold spec.U vectors of length spec.r_per_user, each nonzero;
    otherwise ValueError.  Boxes are read SUB_BATCH at a time and packed
    vector by vector into one int64 array; a vector that does not pack (a
    wrong length, or a coefficient past int64) sends the batch to the
    length check and then to an object array.  _rank_sweep decides each
    batch."""
    ctx = _SearchContext(spec)
    U, r = spec.U, spec.r_per_user
    misshapen = f"rank criterion needs {U} coefficient vectors of length {r} per box"
    pack = struct.Struct(f"{r}q").pack
    zero_failures: list[CoefficientBox] = []
    tau_failures: list[CoefficientBox] = []
    total = 0
    boxes = iter(boxes)
    while batch := list(islice(boxes, SUB_BATCH)):
        per_box = list(map(attrgetter("vectors"), batch))
        if set(map(len, per_box)) != {U}:
            raise ValueError(misshapen)
        vecs = list(chain.from_iterable(per_box))
        try:
            coeffs = np.frombuffer(b"".join(starmap(pack, vecs)), np.int64)
        except struct.error:  # a wrong length, or a coefficient past int64
            if set(map(len, vecs)) != {r}:
                raise ValueError(misshapen) from None
            coeffs = np.fromiter(chain.from_iterable(vecs), object, len(vecs) * r)
        zero, unfixed = _rank_sweep(ctx, coeffs.reshape(len(batch), U, r))
        zero_failures += compress(batch, zero)
        tau_failures += compress(batch, unfixed)
        total += len(batch)
    return RankReport(total, zero_failures, tau_failures)


def sampled_rank_check(spec: CodeSpec, N: int, samples: int, seed: int) -> RankReport:
    """rank_criterion_check over `samples` boxes of bound N for every user,
    drawn from random.Random(seed) as SAMPLED min_abs_det draws them
    (_sample_chunks).  The drawn arrays go to _rank_sweep as they are; only
    a failing row becomes a CoefficientBox.  N and samples below 1 and a
    negative seed are refused before any draw: at N = 0 every drawn
    vector is zero and drawn again, and random.Random(seed) reads |seed|."""
    if N < 1:
        raise ValueError("nmax must be positive")
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    bounds = (N,) * spec.U
    ctx, report = _SearchContext(spec), RankReport(0, [], [])

    def box(row):
        return CoefficientBox(bounds, tuple(map(tuple, row)))

    for vecs in _sample_chunks(seed, bounds, (spec.r_per_user,) * spec.U, samples):
        coeffs = np.stack(vecs, axis=1)
        zero, unfixed = _rank_sweep(ctx, coeffs)
        report.total += coeffs.shape[0]
        report.zero_failures += map(box, coeffs[zero].tolist())
        report.tau_failures += map(box, coeffs[unfixed].tolist())
    return report


def _rank_sweep(ctx: _SearchContext, coeffs: np.ndarray):
    """(zero, unfixed) over a (B, U, r) coefficient array, box i stacking
    coeffs[i, j] for every user j: whether box i's determinant is zero, and
    whether its numerator is not fixed by tau = sigma^U.  A box with a zero
    user raises ValueError.  Its callers cut the boxes into chunks of at
    most SUB_BATCH, and one _exact_stage decides a chunk, picking each
    stage's integer width from its overflow audits; the sweep never
    screens, so it computes no float block."""
    if not coeffs.any(axis=2).all():
        raise ValueError("rank criterion requires every user active")
    nums, _, fixed = _exact_stage(ctx, list(coeffs.swapaxes(0, 1)))
    return ~nums.any(axis=1), ~fixed


# ---------------------------------------------------------------------------
# minimum |det| machinery


def orbit_units(kern: IntKernel) -> list[np.ndarray]:
    """Multiplication matrices of the units zeta = x + y*mu of O_K (|x|, |y|
    <= 1, zeta != 1) that act on gamma-coordinates as signed permutations:
    {-1, i, -i} over Q(i), {-1} over Q(sqrt(-3)).

    zeta is fixed by sigma, so scaling one user's data by zeta scales that
    user's n_t rows by zeta and leaves |det| unchanged; a signed permutation
    maps the box [-N, N]^r onto itself.  Together with 1 these units form a
    group acting freely on nonzero coefficient vectors."""
    out = []
    for x in (-1, 0, 1):
        for y in (-1, 0, 1):
            if (x, y) == (1, 0):
                continue
            mat = kern.mult_vec_mat(QuadElem(x, y, kern.tower.tag))
            absm = np.abs(mat)
            if (absm.sum(axis=0) == 1).all() and (absm.sum(axis=1) == 1).all():
                out.append(mat)
    return out


def orbit_representatives(
    grid: np.ndarray, N: int, units: list[np.ndarray]
) -> np.ndarray:
    """Rows of a lex-ascending coeff_grid(N, r) that are lex-smallest in
    their unit orbit, each unit acting on every antenna slot's block of
    gamma-coordinates.  The kept rows keep their order.

    A row v's lex rank is its key (v + N) @ w, w the mixed-radix weights of
    base 2N + 1, and a unit maps v to v @ kron(I, mat).  The key is linear,
    so the image's key minus v's is v @ shift with shift = kron(I, mat) @ w
    - w: one exact int64 product, a column per unit, decides every
    comparison (keys stay below the grid row cap)."""
    return grid[_orbit_minimal(grid, N, units)]


def _orbit_minimal(rows: np.ndarray, N: int, units: list[np.ndarray]) -> np.ndarray:
    """Whether each row of entries in [-N, N] is lex-smallest in its unit
    orbit (see orbit_representatives)."""
    r = rows.shape[1]
    w = (2 * N + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64)
    slots = w.reshape(-1, units[0].shape[0])
    shift = np.stack([(slots @ mat.T).ravel() - w for mat in units], axis=1)
    return (rows @ shift >= 0).all(axis=1)


class _SearchContext:
    """The kernels of one spec: its IntKernel, every user's UserTensors,
    the orbit units (orbit_units) and the matrix of tau = sigma^U for the
    exact stage.  Nothing in it but the memos of orbit_grids and
    factor_tables depends on a box or a mode, so a decay curve builds one
    for all its points.

    The float screen takes one determinant per codeword: row k of every
    user's float blocks stacked into an n x n matrix (_float_det).
    float_factors builds, for coefficient vectors of every user, each
    user's float blocks and the slack factors of its n_t rows, which
    det_slack_batch multiplies together.  The n_t >= 2 EXHAUSTIVE scan
    builds them once per grid slice, the meet-in-the-middle scan once over
    user 1's generators and the other users' orbit grids.  SAMPLED reads a
    small box's rows from factor_tables and builds a larger box's once
    per chunk (_sample_scan)."""

    def __init__(self, spec: CodeSpec):
        self.spec = spec
        self.kern = IntKernel(spec.tower)
        self.uts = [UserTensors(spec, self.kern, j + 1) for j in range(spec.U)]
        self.units = orbit_units(self.kern)
        self.n = spec.U * spec.n_t
        # v is tau-fixed iff v @ tau == v * tau_den
        self.tau, self.tau_den = self.kern.sigma_vec_mat(spec.U)
        self._grids: dict[tuple[int, int], np.ndarray] = {}
        self._tables: dict[tuple[int, int], tuple] = {}

    def orbit_grids(self, keys):
        """The orbit representatives of coeff_grid(N, r) for each (N, r) in
        keys, built only where the previous call did not build them.  The
        memo keeps this call's grids only, so a curve's memory does not
        grow with its points."""
        return _latest_call(
            self._grids, keys,
            lambda k: orbit_representatives(coeff_grid(*k), k[0], self.units),
        )

    def float_factors(self, vecs: list[np.ndarray]):
        """(blocks, a, ab) of each user for per-user coefficient arrays:
        its float blocks (blocks_float), and a and ab the slack_factors
        over its n_t rows."""
        return [self.user_factors(j, v) for j, v in enumerate(vecs)]

    def user_factors(self, j: int, vecs: np.ndarray):
        """float_factors of user j + 1 alone."""
        blocks, errs = self.uts[j].blocks_float(vecs)
        return (blocks, *slack_factors(blocks, errs, self.n))

    def factor_tables(self, keys):
        """user_factors(j, _half_grid(N, r)) for each (j, N) in keys: the
        factors of every vector of user j + 1's box [-N, N]^r, the zero
        row included, in lex order.  The memo keeps this call's tables
        only, as orbit_grids does."""
        r = self.spec.r_per_user
        return _latest_call(
            self._tables, keys, lambda k: self.user_factors(k[0], _half_grid(k[1], r))
        )


def _latest_call(memo: dict, keys, build) -> list:
    """[memo[k] for k in keys], where memo keeps what the previous call
    built, build(k) makes the rest, and memo then holds this call's keys
    only."""
    fresh = {k: memo[k] if k in memo else build(k) for k in set(keys)}
    memo.clear()
    memo.update(fresh)
    return [fresh[k] for k in keys]


def _float_det(factors, rows):
    """(d, s) of the codewords that stack row rows[j] of user j's
    float_factors for every user j: d the det_float_batch of the stacked
    (count, n, n) matrices and s the slack det_slack_batch of every user's
    factors, |det - d| <= s (see _scan_chunk)."""
    if len(factors) == 1:
        mats = factors[0][0][rows[0]]
    else:
        mats = np.concatenate([b[r] for (b, _, _), r in zip(factors, rows)], axis=1)
    s = det_slack_batch(*((a[r], ab[r]) for (_, a, ab), r in zip(factors, rows)))
    return det_float_batch(mats), s


def _exact_stage(ctx: _SearchContext, vec_arrays: list[np.ndarray]):
    """(nums, s, fixed) for the boxes stacking row i of every user's array:
    det_int_batch's scaled numerators and p-exponent, and whether each
    numerator is fixed by tau = sigma^U.

    The arrays go through blocks_int, stack_users and det_int_batch, whose
    overflow audits run each stage in int32 or int64, each DP subset on
    the measured sizes of the sub-minors it reads; where an audit refuses
    int64 (OverflowRisk), before the DP or partway through it, the same
    calls run again on the arrays cast to dtype=object, in Python ints.
    nums is int64 or dtype=object; when the tau product could pass
    INT64_LIMIT, it is cast to dtype=object for it."""

    def numerators(vecs):
        stacked = stack_users([ut.blocks_int(v) for ut, v in zip(ctx.uts, vecs)])
        return det_int_batch(ctx.spec, ctx.kern, stacked)

    try:
        nums, s = numerators(vec_arrays)
    except OverflowRisk:
        nums, s = numerators([v.astype(object) for v in vec_arrays])
    scale = max(int(np.abs(ctx.tau).sum(axis=0).max()), ctx.tau_den)
    if int(np.abs(nums).max(initial=0)) * scale >= INT64_LIMIT:
        nums = nums.astype(object)
    return nums, s, (nums @ ctx.tau == nums * ctx.tau_den).all(axis=1)


def _pick_min(ctx: _SearchContext, nums, s, vec_arrays: list[np.ndarray]):
    """(|det|^2, numerator, box) of the exact minimum over candidates, the
    first index winning ties, the numerator a FieldElem; the box is built
    for the winner only.

    Equal numerators give equal |det|^2 and the first one already wins the
    tie, so each distinct numerator is decided once."""
    best = None
    seen = set()
    for i, vec in enumerate(map(tuple, nums.tolist())):
        if vec in seen:
            continue
        seen.add(vec)
        num_fe = FieldElem(ctx.spec.tower, vec, ctx.kern.entry_scale)
        absq = abs_sq_of_det(ctx.spec, num_fe, s)
        if best is None or absq < best[0]:
            best = (absq, num_fe, i)
    absq, num_fe, i = best
    return absq, num_fe, tuple(tuple(v[i].tolist()) for v in vec_arrays)


def _scan_chunk(vecs, factors) -> list[np.ndarray]:
    """The per-user coefficient rows of a chunk's screen candidates, in
    chunk order: every codeword whose lower bound reaches the chunk's least
    upper bound, lo^2 <= min up^2.  A true minimizer of the chunk has
    lo^2 <= |det|^2 <= min up^2, since its |det| is at most every other
    codeword's, so it is always a candidate.

    Codeword k stacks row k of every user's coefficient array in vecs, and
    factors are the float_factors of those rows.  A chunk holds at most
    SUB_BATCH codewords (its producers cut it so), and one _float_det
    bounds them all.

    The float determinant is det_float_batch of the stacked float rows.
    Up to n = 4 it is a closed form, a signed sum of at most 24 products of
    one entry per row, evaluated as products of 2 x 2 minors.  Each such
    product is at most prod_r a_r in size, so the rounding error is a small
    multiple of 2^-53 * prod_r a_r.  The slack already holds n^2
    DET_EVAL_REL a_r in each b_r, so it is at least n^3 DET_EVAL_REL prod_r
    a_r = n^3 2^9 * 2^-53 * prod_r a_r (prod(a + b) - prod a >= sum_r b_r
    prod_(s != r) a_s), which covers that rounding and the rounding of the
    norms, the factor products and the squares many times over.  From n = 5
    np.linalg.det's LU form, with pivot growth g, errs by about n^2 g
    2^-53 prod_r a_r, which the same margin covers for g up to n 2^9.  On
    the golden code (n = 2) the determinant is m00 m11 - m01 m10 and the
    slack products are those of the concatenated form, so lo^2 and up^2
    are the same to the bit."""
    d, s = _float_det(factors, [slice(None)] * len(factors))
    ad = np.abs(d)
    lo = np.maximum(ad - s, 0.0)
    up = ad + s
    cands = np.nonzero(lo * lo <= (up * up).min())[0]
    return [v[cands] for v in vecs]


def _screen_chunks(chunks, factors):
    """(candidates, screened) of a stream of chunks, each a list of
    per-user coefficient arrays: every nonempty chunk's candidates
    (_scan_chunk, on factors(vecs)) in stream order, and ``screened`` the
    number of rows the chunks held."""
    per_chunk, screened = [], 0
    for vecs in chunks:
        if vecs[0].shape[0]:
            per_chunk.append(_scan_chunk(vecs, factors(vecs)))
            screened += vecs[0].shape[0]
    return [np.concatenate(user) for user in zip(*per_chunk)], screened


def _grid_chunks(ctx: _SearchContext, N: int, r: int):
    """The orbit representatives of the one-user box [-N, N]^r for
    n_t >= 2, one chunk per SUB_BATCH lex rows of the grid (grid_rows), so
    memory holds one slice.  A slice may hold no representative.  Every
    step keeps the order of the rows it keeps, so the chunks run in lex
    order.  r = 2 U n_t^2, so with a second user the grid has 3^16 rows at
    N = 1, which _minimum refuses by the row cap."""
    count = grid_size(N, r)
    for start in range(0, count, SUB_BATCH):
        rows = grid_rows(N, r, start, min(start + SUB_BATCH, count))
        yield [rows[_orbit_minimal(rows, N, ctx.units)]]


def _half_grid(N: int, length: int) -> np.ndarray:
    """Every integer vector with entries in [-N, N], zero included at row
    (2N + 1)^length // 2, lex ascending."""
    grid = coeff_grid(N, length)
    return np.insert(grid, grid.shape[0] // 2, 0, axis=0)


def _cofactors(ctx: _SearchContext, factors, rows, N: int):
    """(c, S) for each k and the y that stacks row rows[j][k] of the grid
    of user j + 2: c[k, g] = c~_g(y), the float det with user 1's row the
    embedded generator g, and S[k] = S(y) = N sum_g (s_g + 2^-40 |c~_g|)
    rounded up, with s_g its slack, so |det(x, y) - sum_g x_g c~_g| <=
    S(y) for every x in [-N, N]^r (see _mitm_scan).  factors are the
    float_factors of the identity (user 1's generators) and the grids of
    users 2..U; each generator is tiled against every y, and _float_det
    takes the stacked determinants."""
    r, nq = ctx.spec.r_per_user, rows[0].shape[0]
    rows = [np.tile(np.arange(r), nq), *(np.repeat(i, r) for i in rows)]
    c, s = _float_det(factors, rows)
    c = c.reshape(nq, r)
    S = N * (s.reshape(nq, r) + 2.0**-40 * np.abs(c)).sum(axis=1) * (1 + 2.0**-30)
    return c, S


def _mitm_scan(ctx: _SearchContext, bounds, lengths, ub=math.inf):
    """(candidates, screened) of the box `bounds` for n_t = 1 by meet in
    the middle (Horowitz and Sahni, JACM 1974), with the contract of
    _screen_chunks: user 1's whole box against the orbit representatives y
    of users 2..U (ctx.orbit_grids), the candidates in lex order of their
    concatenated coefficients, and ``screened`` the number of window pairs
    below.  ub is a proven upper bound on the minimum |det| over the box,
    such as an inner box's D_value + error_radius rounded up by 2^-40.

    With n_t = 1 user 1 owns one row, so det is linear in its coefficient
    vector x: det(x, y) = sum_g x_g c_g(y), where c_g(y) is the det with
    user 1's row replaced by its embedded generator g.  The float screen
    gives each c_g as c~_g with |c_g - c~_g| <= s_g (_cofactors).  x
    splits into halves a (its first r / 2 coordinates) and b; r = 2 U
    n_t^2 is even, so both range over one half grid, [-N, N]^(r / 2)
    including 0, built once.  With the float64 half sums A_a = sum_(g in
    a) x_g c~_g and B_b likewise,

        |det(x, y) - (A_a + B_b)| <= S(y) = N sum_g (s_g + 2^-40 |c~_g|),

    where 2^-40 |c~_g| covers, many times over, the rounding of the half
    sums (r terms, relative error r 2^-53), of |A_a + B_b| and of the
    window ends below.  ub only falls, rounded up by 2^-40 each time it is
    set: to |A_a| + S or |B_b| + S for a codeword with one half zero, then
    to the least up below.

    For every y the B sums are sorted by real part, and each A sum takes
    the window Re B in [-Re A - T, -Re A + T], T = (ub + 2 S)(1 + 2^-50),
    by searchsorted.  Every window pair but x = 0 gets lo = max(|A + B| -
    S, 0) and up = |A + B| + S.  A batch of SUB_BATCH // (2N + 1)^(r / 2)
    y is searched at once, each y's keys shifted by its own offset; adding
    a constant is monotone in floats, so the shifted keys stay sorted and
    every window keeps its pairs.  Pairs are expanded
    SUB_BATCH at a time, so memory stays bounded whatever the box.

    The candidates are the window pairs whose x is lex-smallest in its
    unit orbit and whose lo^2 is at most the least up^2 of all window
    pairs.  The first minimizer z of the box in lex order is one of them:
    - z lies in its window, since |Re(A + B)| <= |det z| + S <= ub + S
      (the second S and the factor on T cover the rounding of the window
      ends), and lo^2(z) <= |det z|^2 <= up^2(z') for every z' (see
      _scan_chunk).  So no pair outside the window, or with lo^2 above
      the least up^2, is a minimizer.
    - Each user's vector of z is lex-smallest in its orbit: the minimizers
      are closed under each user's unit action (orbit_units), and the
      representative of a vector that is not would give an earlier
      minimizer.  Users 2..U run over their representatives only.
    Decided exactly in lex order, the first exact minimizer among the
    candidates is therefore z."""
    N, r = bounds[0], lengths[0]
    reps = ctx.orbit_grids(list(zip(bounds[1:], lengths[1:])))
    sizes = [g.shape[0] for g in reps]
    factors = ctx.float_factors([np.eye(r, dtype=np.int64), *reps])
    H = _half_grid(N, r // 2)
    f = H.T.astype(np.float64)
    nh = H.shape[0]
    z = nh // 2
    m, screened, kept = math.inf, 0, []
    step = max(1, SUB_BATCH // nh)
    count = math.prod(sizes)
    for y0 in range(0, count, step):
        q = np.arange(y0, min(y0 + step, count), dtype=np.int64)
        nq = q.shape[0]
        c, S = _cofactors(ctx, factors, np.unravel_index(q, sizes), N)
        A, B = c[:, : r // 2] @ f, c[:, r // 2 :] @ f
        # the codewords with one half zero bound the minimum
        one_half = np.minimum(
            np.delete(np.abs(A), z, axis=1).min(axis=1),
            np.delete(np.abs(B), z, axis=1).min(axis=1),
        )
        ub = min(ub, float((one_half + S).min()) * (1 + 2.0**-40))
        T = ((ub + 2 * S) * (1 + 2.0**-50))[:, None]
        oa = np.argsort(A.real, axis=1)[:, ::-1]
        ob = np.argsort(B.real, axis=1)
        As = np.take_along_axis(A, oa, axis=1)
        Bs = np.take_along_axis(B, ob, axis=1)
        lo_q, hi_q = -As.real - T, -As.real + T
        # offsets more than twice any |key| apart keep the rows apart
        gap = 4 * (np.abs(Bs.real).max() + np.abs(As.real).max() + T.max()) + 1
        off = gap * np.arange(nq, dtype=np.float64)[:, None]
        keys_b = (Bs.real + off).ravel()
        start = np.searchsorted(keys_b, (lo_q + off).ravel(), side="left")
        width = np.searchsorted(keys_b, (hi_q + off).ravel(), side="right") - start
        As, Bs, oa, ob = As.ravel(), Bs.ravel(), oa.ravel(), ob.ravel()
        ends = np.cumsum(width)
        g0 = 0
        while g0 < ends.shape[0]:
            done = int(ends[g0 - 1]) if g0 else 0
            g1 = max(g0 + 1, int(np.searchsorted(ends, done + SUB_BATCH, side="right")))
            w = width[g0:g1]
            grp = np.repeat(np.arange(g0, g1), w)
            jb = np.arange(done, int(ends[g1 - 1])) + np.repeat(
                start[g0:g1] - (ends[g0:g1] - w), w
            )
            row, i, j = grp // nh, oa[grp], ob[jb]
            nonzero = (i != z) | (j != z)
            grp, jb, row, i, j = (v[nonzero] for v in (grp, jb, row, i, j))
            ad = np.abs(As[grp] + Bs[jb])
            lo = np.maximum(ad - S[row], 0.0)
            up = ad + S[row]
            lo2, up2 = lo * lo, up * up
            screened += lo2.shape[0]
            m = min(m, float(up2.min(initial=np.inf)))
            sel = lo2 <= m
            kept.append((lo2[sel], q[row[sel]], i[sel], j[sel]))
            g0 = g1
        ub = min(ub, math.sqrt(m) * (1 + 2.0**-40))
    lo2, yq, i, j = map(np.concatenate, zip(*kept))
    x = np.concatenate([H[i], H[j]], axis=1)
    sel = (lo2 <= m) & _orbit_minimal(x, N, ctx.units)
    ys = np.unravel_index(yq[sel], sizes)
    cands = [x[sel], *(g[k] for g, k in zip(reps, ys))]
    order = np.lexsort(np.concatenate(cands, axis=1).T[::-1])
    return [c[order] for c in cands], screened


def _sample_scan(ctx: _SearchContext, bounds, lengths, samples: int, seed: int):
    """(candidates, screened) of `samples` boxes drawn from `seed`
    (_sample_chunks), screened chunk by chunk (_screen_chunks): the
    candidates in sample order, and ``screened`` the number of samples.
    Each chunk of SUB_BATCH samples is drawn only after the previous one
    is scanned.

    A user's float factors depend on its coefficient vector alone.  So a
    user whose box [-N, N]^r has at most min(samples, SUB_BATCH) rows,
    zero included, gets them once, for its whole box (factor_tables), and
    each chunk reads its rows from that table at their lex ranks (v + N)
    @ w, w the mixed-radix weights of base 2N + 1.  The table costs no
    more float work than one chunk's direct factors and is no larger.
    A larger box takes each chunk's rows directly (user_factors)."""
    rows = min(samples, SUB_BATCH)
    small = [
        j for j, (N, r) in enumerate(zip(bounds, lengths)) if (2 * N + 1) ** r <= rows
    ]
    tables = dict(zip(small, ctx.factor_tables([(j, bounds[j]) for j in small])))

    def factors(j, v):
        if j not in tables:
            return ctx.user_factors(j, v)
        N, r = bounds[j], lengths[j]
        rank = (v + N) @ ((2 * N + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64))
        return tuple(t.take(rank, axis=0) for t in tables[j])

    return _screen_chunks(
        _sample_chunks(seed, bounds, lengths, samples),
        lambda vecs: list(starmap(factors, enumerate(vecs))),
    )


def _attempt_words(N: int) -> int:
    """Mersenne Twister words one getrandbits((2N + 1).bit_length()) reads."""
    return -(-(2 * N + 1).bit_length() // 32)


def _vector_maps(words: np.ndarray, N: int, r: int):
    """Where a nonzero coefficient vector of bound N and length r falls in
    a run of stream words, for every word it could begin at.

    Returns (coef, at, nxt): a vector begun at word i (0 <= i <= len(words))
    has the coefficients coef[at[i]:at[i] + r], and the stream goes on at
    word nxt[i], which is len(words) + 1 where the words run out first.
    An attempt getrandbits(k) reads w words, so the attempts of a vector
    begun at i are those at words i, i + w, ...; each residue class of
    word positions mod w is parsed on its own."""
    n = 2 * N + 1
    k = n.bit_length()
    w = _attempt_words(N)
    L = words.shape[0]
    if w == 1:
        v = words >> np.uint32(32 - k)
        below = np.uint32(n)
    else:
        # low word first, the top word shifted right to its k - 32 bits
        v = words[: L - 1].astype(np.uint64)
        v |= (words[1:].astype(np.uint64) >> np.uint64(64 - k)) << np.uint64(32)
        below = np.uint64(n)
    # the residue classes' spans cover words 0..L; L + 1 is the sentinel
    at = np.empty(L + 2, dtype=np.int64)
    nxt = np.empty(L + 2, dtype=np.int64)
    at[L + 1], nxt[L + 1] = 0, L + 1
    coefs = []
    base = 0
    for c in range(w):
        vc = v[c::w]
        acc = vc < below
        pos = np.flatnonzero(acc)
        # accepted values are < 2N + 1 <= 2**64 - 1; v - N wraps into int64
        coef = np.take(vc, pos).astype(np.int64) - N
        A = coef.shape[0]
        # accepted attempts m..m+r-1 make a whole vector if m <= A - r, and
        # a nonzero one if any of them is nonzero; an all-zero vector is
        # drawn again from m + r.  g[m] is where the nonzero one begins.
        q = max(A - r + 1, 0)
        nonzero = coef != 0
        stop = np.ones(A + 1, dtype=bool)
        stop[:q] = nonzero[:q]
        for t in range(1, r):
            stop[:q] |= nonzero[t : t + q]
        g = np.arange(A + 1)
        redo = np.flatnonzero(~stop)
        while redo.size:
            g[redo] = np.minimum(np.take(g, redo) + r, A)
            redo = redo[~np.take(stop, np.take(g, redo))]
        first = np.zeros(vc.shape[0] + 1, dtype=np.int64)
        np.cumsum(acc, out=first[1:])
        # ends[m] is the word after accepted attempt m
        ends = np.empty(A + r, dtype=np.int64)
        np.add(w * pos, c + w, out=ends[:A])
        ends[A:] = L + 1
        span = slice(c, c + w * first.shape[0], w)
        m = np.take(g, first)
        np.take(ends[r - 1 :], m, out=nxt[span], mode="clip")  # m <= A: no clip
        np.add(m, base, out=at[span])
        coefs.append(coef)
        base += A
    return np.concatenate(coefs), at, nxt


def _sample_chunks(seed: int, bounds, lengths, samples: int):
    """`samples` boxes drawn from one random.Random(seed), in chunks of
    SUB_BATCH (the last one shorter): per-user (count, r) int64 arrays of
    coefficient vectors, every user nonzero, drawn sample by sample and
    user by user.

    Each coefficient is what CPython's rng.randint(-N, N) returns: with
    k = (2N + 1).bit_length(), getrandbits(k) drawn again while it is
    >= 2N + 1, where getrandbits(k) reads ceil(k / 32) Mersenne Twister
    words, low word first, and keeps the top k bits of the last one.
    The words are read whole and parsed in numpy, a pass at a time: each
    pass reads SUB_BATCH fresh words with one getrandbits(32 SUB_BATCH)
    after the words the last pass left, the unfinished sample's (and, at a
    chunk's end, the next chunk's).  So this gives the same vectors as
    calling randint per coefficient; the stream may be read past the last
    sample, and nothing reads it afterwards.

    In a pass, step maps each word to the word after a sample begun there
    (every user's _vector_maps composed), and leap = step^DRAW_STRIDE, by
    repeated squaring.  Samples end strictly later than they begin, so
    where leap[i] is inside the pass every sample of that stride is.  The
    walk in Python follows leap from word 0, one stride per step, and
    numpy fills in the starts between (step again); the samples after the
    last whole stride are walked one at a time."""
    if any(N >= 2**63 for N in bounds):
        raise ValueError("sampled coefficient bounds must be below 2**63")
    rng = random.Random(seed)
    users = list(zip(bounds, lengths))
    tail = np.empty(0, dtype=np.uint32)
    for start in range(0, samples, SUB_BATCH):
        count = min(SUB_BATCH, samples - start)
        out = [np.empty((count, r), dtype=np.int64) for r in lengths]
        done = 0
        while done < count:
            first = done
            words = np.concatenate([
                tail,
                np.frombuffer(
                    rng.getrandbits(32 * SUB_BATCH).to_bytes(4 * SUB_BATCH, "little"),
                    dtype="<u4",
                ),
            ])
            L = words.shape[0]
            parsed = {u: _vector_maps(words, *u) for u in set(users)}
            maps = [parsed[u] for u in users]
            step = maps[0][2]
            for _, _, nxt in maps[1:]:
                step = np.take(nxt, step)
            leap = step
            for _ in range(DRAW_STRIDE.bit_length() - 1):
                leap = np.take(leap, leap)
            # the one walk in Python: every DRAW_STRIDE-th sample start, each
            # from the last, then the samples after the last whole stride
            leap, one = memoryview(leap), memoryview(step)
            i = 0
            heads, rest = [], []
            while done + DRAW_STRIDE <= count and leap[i] <= L:
                heads.append(i)
                i = leap[i]
                done += DRAW_STRIDE
            while done < count and one[i] <= L:
                rest.append(i)
                i = one[i]
                done += 1
            starts = np.empty((DRAW_STRIDE, len(heads)), dtype=np.int64)
            starts[0] = heads
            for t in range(1, DRAW_STRIDE):
                np.take(step, starts[t - 1], out=starts[t])
            a = np.concatenate([starts.T.ravel(), np.array(rest, dtype=np.int64)])
            # a pass that completes no sample may hold fewer than r coefficients
            if done > first:
                for o, (coef, at, nxt) in zip(out, maps):
                    windows = sliding_window_view(coef, o.shape[1])
                    o[first:done] = windows[np.take(at, a)]
                    a = np.take(nxt, a)
            tail = words[i:]
        yield out


def min_abs_det(
    spec: CodeSpec,
    bounds,
    mode: str = EXHAUSTIVE,
    samples: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DecayReport:
    """Minimum |det| over coefficient boxes with every user active.

    EXHAUSTIVE scans the whole box (refused above the codeword budget or
    the coefficient-grid row cap); SAMPLED draws boxes from the recorded
    seed and yields an upper bound.  Samples are drawn chunk by chunk from
    the seed's stream, each chunk only after the previous one is scanned,
    so the draw's memory does not grow with ``samples`` and the drawn boxes
    are the same as one draw.
    The exhaustive scan covers one coefficient vector per unit orbit of
    each user (users 2..U with n_t = 1; see orbit_units, |det| is the same
    on the whole orbit), and ``evaluated`` still counts every covered
    codeword.  The set of minimizers is closed under the per-user unit
    action, so its lex-smallest member survives the reduction and the
    first-index tie-break picks the same argmin as a full scan.

    Every scan runs in the calling process, from one search context, on a
    path fixed by the code (_minimum).  Floats only propose candidates:
    the first minimizer of the box (or the samples) is always one, and one
    exact stage decides them in lex order (sample order for SAMPLED), so
    its first exact minimizer is the argmin (_decide).  The candidates are
    at most ``evaluated`` rows, which the budget bounds.  ``screened``
    counts the codewords whose float bounds were computed: the window
    pairs with n_t = 1, the user's orbit representatives with n_t >= 2,
    or the samples.  A numerator not fixed by tau = sigma^U raises
    ArithmeticError.  ``workers`` is accepted and ignored.
    """
    return _minimum(_SearchContext(spec), bounds, mode, samples, seed, budget)


def _minimum(
    ctx: _SearchContext, bounds, mode, samples, seed, budget, ub=math.inf
) -> DecayReport:
    """min_abs_det on the kernels of a search context, in three steps:
    check the arguments and, for EXHAUSTIVE, the budget and the row cap on
    the whole box; run one candidate producer; decide its candidates
    (_decide).  With n_t = 1, det is linear in user 1's vector, and meet
    in the middle (_mitm_scan) windows user 1's two half sums against each
    other for every orbit representative of the other users.  With
    n_t >= 2 the row cap admits only one-user boxes, and _screen_chunks
    screens the user's orbit representatives one grid slice at a time
    (_grid_chunks).  Each slice is one chunk and keeps every codeword
    under its own least upper bound, so the box's first minimizer in lex
    order is always a candidate.  SAMPLED screens the samples chunk by
    chunk (_sample_scan).  ub is a proven upper bound on the minimum |det|
    over the box.  Only the meet-in-the-middle scan reads it, to narrow
    its windows, so it changes ``screened`` and nothing else in the
    report."""
    t0 = time.perf_counter()
    spec = ctx.spec
    bounds = tuple(map(index, bounds))
    if len(bounds) != spec.U:
        raise ValueError(f"need {spec.U} bounds, got {len(bounds)}")
    if any(N < 1 for N in bounds):
        raise ValueError("bounds must be at least 1")
    if mode not in (EXHAUSTIVE, SAMPLED):
        raise ValueError(f"unknown mode {mode!r}")
    if seed is not None and seed < 0:
        # random.Random(seed) reads |seed|: seeds s and -s draw alike
        raise ValueError("seed must be non-negative")
    lengths = [spec.r_per_user for _ in bounds]

    if mode == EXHAUSTIVE:
        evaluated = math.prod(map(grid_size, bounds, lengths))
        if evaluated > budget:
            raise BudgetExceeded(
                f"exhaustive search needs {evaluated} codewords, budget is {budget};"
                " use SAMPLED mode"
            )
        for N, r in zip(bounds, lengths):
            rows = (2 * N + 1) ** r  # the count at which coeff_grid refuses
            if rows > GRID_ROW_CAP:
                raise BudgetExceeded(
                    f"coefficient grid of {rows} rows exceeds the"
                    f" {GRID_ROW_CAP}-row cap; use SAMPLED mode"
                )
        samples = seed = None
        if spec.n_t == 1:
            scan = _mitm_scan(ctx, bounds, lengths, ub)
        else:
            (N,), (r,) = bounds, lengths
            scan = _screen_chunks(_grid_chunks(ctx, N, r), ctx.float_factors)
    else:
        if not samples or samples < 1:
            raise ValueError("SAMPLED mode requires a positive sample count")
        if samples > budget:
            raise BudgetExceeded(
                f"sample count {samples} exceeds budget {budget}"
            )
        seed = 0 if seed is None else int(seed)
        evaluated = samples
        scan = _sample_scan(ctx, bounds, lengths, samples, seed)
    return _decide(ctx, scan, t0, bounds, mode, samples, seed, evaluated)


def _decide(
    ctx: _SearchContext, scan, t0: float, bounds, mode, samples, seed, evaluated
) -> DecayReport:
    """The report on a producer's (candidates, screened), the candidates
    per-user coefficient rows in decision order: one exact stage decides
    them, a numerator not fixed by tau = sigma^U raises ArithmeticError,
    and the first exact minimizer (_pick_min) is the argmin.  D_value is
    the midpoint of a 60-bit enclosure of the exact |det|, error_radius
    covers the enclosure and the rounding to float, and wall_time runs
    from t0."""
    spec = ctx.spec
    cands, screened = scan
    nums, s, fixed = _exact_stage(ctx, cands)
    if not fixed.all():
        raise ArithmeticError("determinant is not fixed by tau = sigma^U")
    absq, num_fe, box = _pick_min(ctx, nums, s, cands)
    lo, hi = absq.sqrt_bounds(60)
    mid = (lo + hi) / 2
    d_value = float(mid)
    radius = float((hi - lo) / 2) + abs(d_value) * 2.0**-50
    return DecayReport(
        bounds=bounds,
        mode=mode,
        samples=samples,
        seed=seed,
        D_value=d_value,
        error_radius=radius,
        argmin=CoefficientBox(bounds, box),
        exact_det=det_value(spec, num_fe, s),
        det_numerator=num_fe,
        det_p_exponent=s,
        abs_sq=absq,
        evaluated=evaluated,
        screened=screened,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# decay curves


def decay_curve(
    spec: CodeSpec,
    N_max: int,
    pattern: str = FIRST_USER,
    mode: str = EXHAUSTIVE,
    samples: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[DecayReport]:
    """D evaluated at N = 1..N_max with one user's box growing (FIRST_USER)
    or every user's box growing together (ALL_USERS).  ``workers`` is
    accepted and ignored (see min_abs_det).  One search context serves
    every point, so the orbit grids of users 2..U that its last point
    built are reused (_SearchContext.orbit_grids).

    The boxes are nested, so D(N - 1) bounds D(N) from above, and each
    point hands the next one number: its D_value + error_radius, rounded
    up by 2^-40, as ub (see _minimum).  With n_t = 1 that bound narrows
    the next point's meet-in-the-middle windows, so a point reports what
    min_abs_det reports for its box alone but for ``wall_time`` and
    ``screened``; with n_t >= 2 every point scans its whole box and differs
    from it in ``wall_time`` only.  SAMPLED points are drawn one by one,
    and the budget bounds the whole curve: N_max * samples above it raises
    BudgetExceeded before the first draw."""
    if N_max < 1:
        raise ValueError("N_max must be at least 1")
    if pattern not in (FIRST_USER, ALL_USERS):
        raise ValueError(f"unknown pattern {pattern!r}")
    if mode == SAMPLED and samples and N_max * samples > budget:
        raise BudgetExceeded(
            f"sampled curve needs {N_max} x {samples} samples, budget is {budget}"
        )
    ctx = _SearchContext(spec)
    out, ub = [], math.inf
    for N in range(1, N_max + 1):
        bounds = (
            (N,) + (1,) * (spec.U - 1) if pattern == FIRST_USER else (N,) * spec.U
        )
        rep = _minimum(ctx, bounds, mode, samples, seed, budget, ub)
        ub = (rep.D_value + rep.error_radius) * (1 + 2.0**-40)
        out.append(rep)
    return out


def fit_decay_exponent(curve: list[DecayReport]) -> dict:
    """Ordinary least squares of log D against log N over a curve."""
    if len(curve) < 3:
        raise ValueError("need at least 3 points to fit")
    xs, ys = [], []
    for rep in curve:
        if rep.D_value <= 0:
            raise ValueError("cannot fit through a zero D value")
        if rep.error_radius >= rep.D_value:
            raise ValueError("D value is error-dominated; refine first")
        xs.append(math.log(max(rep.bounds)))
        ys.append(math.log(rep.D_value))
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all N equal; slope undefined")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n
    )
    return {"slope": slope, "intercept": intercept, "residual": resid}


# ---------------------------------------------------------------------------
# CSV / JSON emission


def _fmt_float(x: float) -> str:
    return repr(float(x))


def curve_csv_text(reports: list[DecayReport]) -> str:
    """Deterministic CSV for a curve.  Timing is reported on stderr by the
    CLI, never in the CSV, so reruns are byte-identical."""
    lines = [CSV_HEADER]
    for rep in reports:
        coeffs = ";".join(str(c) for c in rep.argmin.lex_key())
        lines.append(
            ",".join(
                [
                    str(max(rep.bounds)),
                    _fmt_float(rep.D_value),
                    _fmt_float(rep.error_radius),
                    rep.mode,
                    "" if rep.samples is None else str(rep.samples),
                    coeffs,
                    "",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _qe_pair(q) -> list[str]:
    return [str(q.a), str(q.b)]


def curve_json_obj(spec: CodeSpec, reports: list[DecayReport]) -> dict:
    pts = []
    for rep in reports:
        pts.append(
            {
                "bounds": list(rep.bounds),
                "mode": rep.mode,
                "samples": rep.samples,
                "seed": rep.seed,
                "D_value": rep.D_value,
                "error_radius": rep.error_radius,
                "argmin": [list(v) for v in rep.argmin.vectors],
                "exact_det": {
                    "numerator": [_qe_pair(q) for q in rep.det_numerator.coords],
                    "p_exponent": rep.det_p_exponent,
                    "value": [_qe_pair(q) for q in rep.exact_det.coords],
                },
                "evaluated": rep.evaluated,
            }
        )
    return {"spec": spec.to_json_dict(), "points": pts}


# ---------------------------------------------------------------------------
# two-user singularity criterion and Hilbert-90 witnesses


def two_user_singularity_test(
    a: FieldElem, b: FieldElem, c: FieldElem, d: FieldElem
) -> bool:
    """Whether N(a)N(d) - N(b)N(c) = 0 over a degree-2 extension, the exact
    criterion for the 2-user code spanned by (a, b; c, d) to contain a
    singular matrix."""
    tower = a.tower
    if tower.d != 2:
        raise ValueError("criterion applies to degree-2 extensions only")
    lhs = a.rel_norm() * d.rel_norm() - b.rel_norm() * c.rel_norm()
    return not lhs


def zero_det_witness_2user(a, b, c, d):
    """A verified pair (x, y) in O_L^2 with det [[ax, b sigma(x)], [cy,
    d sigma(y)]] = 0, or None when the norm criterion does not hold.

    Hilbert 90 constructively: alpha = bc/(ad) has norm 1, so z = gamma +
    alpha * sigma(gamma) is nonzero for some gamma in {1, theta, mu,
    mu theta} and satisfies alpha = z / sigma(z); then w = z (scaled to
    O_L by a rational integer) gives ad*w - bc*sigma(w) = 0."""
    tower = a.tower
    if not two_user_singularity_test(a, b, c, d):
        return None
    one = tower.one()
    ad = a * d
    bc = b * c
    if not ad or not bc:
        # norm criterion forces both products to vanish; any pair works
        if ad or bc:
            raise AssertionError("norm-1 criterion violated in degenerate branch")
        return one, one
    alpha = bc / ad
    if not alpha.rel_norm() == one:
        raise AssertionError("bc/ad must have norm 1 when the test passes")
    z = None
    for gamma in (one, tower.theta(), tower.mu_elem(), tower.mu_elem() * tower.theta()):
        cand = gamma + alpha * gamma.apply_sigma(1)
        if cand:
            z = cand
            break
    if z is None:
        raise ArithmeticError("Hilbert-90 element vanished on the whole basis")
    # clear the denominator (a rational integer), then strip the content
    content = math.gcd(*z.num)
    w = FieldElem(tower, [c // content for c in z.num])
    det = ad * w - bc * w.apply_sigma(1)
    if det:
        raise AssertionError("constructed witness does not kill the determinant")
    return w, one


def two_user_box_scan(
    a: FieldElem, b: FieldElem, c: FieldElem, d: FieldElem, bound: int
) -> int:
    """Count exact zeros of det [[ax, b sigma(x)], [cy, d sigma(y)]] over all
    nonzero integral x, y with basis coordinates in [-bound, bound].

    Complements the norm criterion: a quadruple that fails the singularity
    test must scan clean, and a witness inside the box must be found.
    Raises OverflowRisk when the audited int64 bound is exceeded; shrink
    the box in that case."""
    tower = a.tower
    if tower.d != 2:
        raise ValueError("scan applies to degree-2 extensions only")
    kern = IntKernel(tower)
    ad = a * d
    bc = b * c
    mat_ad = kern.mult_vec_mat(ad)
    mat_bc = kern.mult_vec_mat(bc)
    sig, den = kern.sigma_vec_mat(1)
    if den != 1:
        raise ValueError("sigma^1 does not map the basis ring into itself")

    sig_map = SparseMap(sig)
    ad_map, bc_map = SparseMap(mat_ad), SparseMap(mat_bc)
    ub = [bound] * kern.dim
    ub_s = sig_map.bound(ub)
    t1 = ad_map.bound(kern.product_bound(ub, ub_s))
    t2 = bc_map.bound(kern.product_bound(ub_s, ub))
    if max(x + y for x, y in zip(t1, t2)) > INT64_LIMIT:
        raise OverflowRisk("box scan bound exceeds the int64 budget")

    grid = coeff_grid(bound, kern.dim).T  # coordinate-major (dim, count)
    sgrid = sig_map(grid)
    count = grid.shape[1]
    zeros = 0
    # kern.mul holds one (step, count) slot sum per distinct basis product
    step = max(1, 4_000_000 // (count * len(kern.slots)))
    for start in range(0, count, step):
        x = grid[:, start : start + step, None]
        sx = sgrid[:, start : start + step, None]
        det = ad_map(kern.mul(x, sgrid[:, None]))
        det -= bc_map(kern.mul(sx, grid[:, None]))
        zeros += int(np.count_nonzero(~np.any(det, axis=0)))
    return zeros


# ---------------------------------------------------------------------------
# valuation split of Theorem-style determinant expansions


def valuation_split_check(spec: CodeSpec, box: CoefficientBox) -> tuple:
    """Exact check that v(p^{-kUn_t} prod_l det(sigma^{l-1} M_l)) <=
    U(n_t - 1 - k n_t) < -k(U n_t - 2) <= v(det(A) - leading term).

    Requires every user's data vector to have minimum valuation 0; raises
    if the input violates that or the inequality chain fails."""
    U, n_t, k, p = spec.U, spec.n_t, spec.k, spec.p
    basis = gamma_basis(spec.tower)
    lead_num = spec.tower.one()
    for j in range(U):
        xs = gamma_elements(basis, box.vectors[j])
        vmin = min((x.valuation(p) for x in xs if x), default=math.inf)
        if vmin != 0:
            raise ValueError("each user needs minimum valuation 0")
        mnum, ms = det_exact(build_M(spec, xs))
        if ms != 0:
            raise AssertionError("M carries no denominators")
        lead_num = lead_num * mnum.apply_sigma(j)
    s_lead = k * U * n_t
    A = assemble_codeword(spec, box)
    det_num, s_det = det_exact(A)
    S = max(s_lead, s_det)
    y_num = det_num * p ** (S - s_det) - lead_num * p ** (S - s_lead)
    v_lead = lead_num.valuation(p) - s_lead
    v_y = y_num.valuation(p) - S
    lo = U * (n_t - 1 - k * n_t)
    hi = -k * (U * n_t - 2)
    if not (v_lead <= lo < hi <= v_y):
        raise AssertionError(
            f"valuation split failed: v(lead)={v_lead}, bound {lo} < {hi}, v(y)={v_y}"
        )
    return v_lead, lo, hi, v_y


# ---------------------------------------------------------------------------
# independent oracle


def naive_min_abs_det(spec: CodeSpec, bounds) -> DecayReport:
    """Slow re-enumeration with user-U outermost, no caching of
    determinants, cofactor determinants; used to cross-check the engine's
    EXHAUSTIVE results.  A user block depends on that user's vector only,
    so each vector's exact block values are built once and stacked per
    codeword."""
    t0 = time.perf_counter()
    bounds = tuple(map(index, bounds))
    users = [
        [
            (v, codeword_from_coeffs(spec, j + 1, v).values())
            for v in product(range(-N, N + 1), repeat=spec.r_per_user)
            if any(v)
        ]
        for j, N in enumerate(bounds)
    ]
    best = None  # (absq, lex_key, vectors, num, s)
    count = 0
    # user U outermost, user 1 fastest
    for combo in product(*reversed(users)):
        vectors = tuple(v for v, _ in reversed(combo))
        vals = [row for _, rows in reversed(combo) for row in rows]
        num, s = _laplace_det(spec, vals)
        absq = abs_sq_of_det(spec, num, s)
        key = tuple(chain.from_iterable(vectors))
        if best is None or absq < best[0] or (not best[0] < absq and key < best[1]):
            best = (absq, key, vectors, num, s)
        count += 1
    absq, _, vectors, num, s = best
    lo, hi = absq.sqrt_bounds(60)
    mid = (lo + hi) / 2
    return DecayReport(
        bounds=bounds,
        mode=EXHAUSTIVE,
        samples=None,
        seed=None,
        D_value=float(mid),
        error_radius=float((hi - lo) / 2) + float(mid) * 2.0**-50,
        argmin=CoefficientBox(bounds, vectors),
        exact_det=det_value(spec, num, s),
        det_numerator=num,
        det_p_exponent=s,
        abs_sq=absq,
        evaluated=count,
        screened=0,
        wall_time=time.perf_counter() - t0,
    )


def _laplace_det(spec: CodeSpec, vals) -> tuple[FieldElem, int]:
    """Cofactor expansion on exact entry values (CodeMatrix.values), then
    the smallest p-power clearing all denominators."""
    n = len(vals)
    num = _laplace_rec(vals, list(range(n)), 0, spec.tower)
    s = 0
    while not num.is_integral():
        num = num * spec.p
        s += 1
        if s > spec.k * n + 4:
            raise AssertionError("determinant denominator is not a p-power")
    return num, s


def _laplace_rec(vals, cols, row, tower):
    if len(cols) == 1:
        return vals[row][cols[0]]
    acc = tower.zero()
    for pos, c in enumerate(cols):
        sub = _laplace_rec(vals, [x for x in cols if x != c], row + 1, tower)
        term = vals[row][c] * sub
        acc = acc + term if pos % 2 == 0 else acc - term
    return acc
