"""Everything measured about a code: exact determinants, the rank
criterion, and the decay function D(N_1, ..., N_U).

D is the minimum absolute determinant of a stacked codeword over all
coefficient boxes in which every user is active.  Minima are located by a
float64 screen with rigorous slack and then decided exactly: zero tests
and comparisons happen in the number field, never in floating point.
"""

from __future__ import annotations

import json
import math
import random
import signal
import time
from array import array
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import (
    CodeMatrix, CodeSpec, CoefficientBox, assemble_codeword, build_M,
    gamma_basis, gamma_elements,
)
from .kernels import (
    GRID_ROW_CAP, INT64_LIMIT, IntKernel, OverflowRisk, SparseMap,
    UserTensors, coeff_grid, det_float_batch, det_int_batch, det_schedule,
    det_slack_batch, grid_size, stack_users,
)
from .number_field import FieldElem, RealAlgebraic
from .quadratic import QuadElem

EXHAUSTIVE = "EXHAUSTIVE"
SAMPLED = "SAMPLED"
FIRST_USER = "FIRST_USER"
ALL_USERS = "ALL_USERS"

DEFAULT_BUDGET = 10**8
CHUNK_U1_ROWS = 512  # user-1 rows per work unit, fixed regardless of workers
SAMPLE_CHUNK = 32768
DRAW_WORDS = 1 << 13  # fresh stream words one numpy pass of the draw parses
SUB_BATCH = 16384

CSV_HEADER = "N,D_value,error_radius,mode,samples,argmin_coeffs,wall_time_ms"


class BudgetExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the codeword-count budget."""


@dataclass
class DecayReport:
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
    otherwise ValueError."""
    kern = IntKernel(spec.tower)
    uts = [UserTensors(spec, kern, j + 1) for j in range(spec.U)]
    tau = kern.sigma_vec_mat(spec.U)
    tau_colsum = int(np.abs(tau).sum(axis=0).max())
    zero_failures: list[CoefficientBox] = []
    tau_failures: list[CoefficientBox] = []
    total = 0
    batch: list[CoefficientBox] = []

    def flush():
        nonlocal total
        if not batch:
            return
        shape = (len(batch), spec.U, spec.r_per_user)
        try:
            coeffs = np.array([b.vectors for b in batch], dtype=np.int64)
        except ValueError:  # ragged vectors
            coeffs = None
        if coeffs is None or coeffs.shape != shape:
            raise ValueError(
                f"rank criterion needs {spec.U} coefficient vectors of length "
                f"{spec.r_per_user} per box"
            )
        if not coeffs.any(axis=2).all():
            raise ValueError("rank criterion requires every user active")
        stacked = stack_users(
            [uts[j].blocks_int(coeffs[:, j]) for j in range(spec.U)]
        )
        try:
            nums, _ = det_int_batch(spec, kern, stacked)
            if nums.size and int(np.abs(nums).max()) * tau_colsum >= INT64_LIMIT:
                raise OverflowRisk("tau-fixedness product could exceed int64")
            zero_mask = ~np.any(nums, axis=1)
            tau_mask = ~np.all(nums @ tau == nums, axis=1)
        except OverflowRisk:
            zero_list, tau_list = [], []
            for b in batch:
                try:
                    num, _ = det_exact(assemble_codeword(spec, b))
                    zero_list.append(not num)
                    tau_list.append(False)
                except ArithmeticError:
                    zero_list.append(False)
                    tau_list.append(True)
            zero_mask = np.array(zero_list)
            tau_mask = np.array(tau_list)
        for idx in np.nonzero(zero_mask)[0]:
            zero_failures.append(batch[int(idx)])
        for idx in np.nonzero(tau_mask)[0]:
            tau_failures.append(batch[int(idx)])
        total += len(batch)
        batch.clear()

    for box in boxes:
        batch.append(box)
        if len(batch) >= SUB_BATCH:
            flush()
    flush()
    return RankReport(total, zero_failures, tau_failures)


# ---------------------------------------------------------------------------
# minimum |det| machinery


def _mixed_radix_rows(flat: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Split flat indices into per-position digits, last position fastest."""
    out: list[np.ndarray] = []
    rem = flat
    for pos in range(len(sizes)):
        scale = 1
        for s in sizes[pos + 1 :]:
            scale *= s
        out.append(rem // scale)
        rem = rem % scale
    return out


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
    gamma-coordinates.  The kept rows stay in lex order."""
    n, r = grid.shape
    dim = units[0].shape[0]
    # mixed-radix index of (v + N): lex order as an int64 (grid row cap)
    weights = (2 * N + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64)
    key = (grid + N) @ weights
    slots = grid.reshape(n, r // dim, dim)
    keep = np.ones(n, dtype=bool)
    for mat in units:
        image = (slots @ mat).reshape(n, r)
        keep &= key <= (image + N) @ weights
    return grid[keep]


class _SearchContext:
    """Everything a scan needs, rebuilt once per worker process.

    An EXHAUSTIVE grid holds one coefficient vector per unit orbit of its
    user (see orbit_units).  The set of minimizers is closed under the
    per-user unit action, so its lex-smallest member survives the reduction
    and the first-index tie-break picks the same argmin as a full scan."""

    def __init__(self, spec: CodeSpec, bounds: tuple[int, ...], mode: str):
        self.spec = spec
        self.bounds = bounds
        self.mode = mode
        self.kern = IntKernel(spec.tower)
        self.uts = [UserTensors(spec, self.kern, j + 1) for j in range(spec.U)]
        if mode == EXHAUSTIVE:
            units = orbit_units(self.kern)
            self.grids = [
                orbit_representatives(
                    coeff_grid(bounds[j], self.uts[j].r), bounds[j], units
                )
                for j in range(spec.U)
            ]
            self.blocks = []
            self.errs = []
            for j in range(spec.U):
                bf, ef = self.uts[j].blocks_float(self.grids[j])
                self.blocks.append(bf)
                self.errs.append(ef)
        else:
            self.grids = None
            self.blocks = None
            self.errs = None


def _screen_sub(mats, errs):
    d = det_float_batch(mats)
    s = det_slack_batch(mats, errs)
    ad = np.abs(d)
    lo = np.maximum(ad - s, 0.0)
    up = ad + s
    return lo * lo, up * up


def _exact_stage(ctx: _SearchContext, vec_arrays: list[np.ndarray]):
    """Exact determinant numerators for candidate boxes; object fallback."""
    try:
        stacked = stack_users(
            [ctx.uts[j].blocks_int(vec_arrays[j]) for j in range(ctx.spec.U)]
        )
        nums, s = det_int_batch(ctx.spec, ctx.kern, stacked)
        return [tuple(row) for row in nums.tolist()], s
    except OverflowRisk:
        out = []
        s_ref = None
        for row_idx in range(vec_arrays[0].shape[0]):
            box = CoefficientBox(
                ctx.bounds,
                tuple(
                    tuple(int(c) for c in vec_arrays[j][row_idx])
                    for j in range(ctx.spec.U)
                ),
            )
            num, s = det_exact(assemble_codeword(ctx.spec, box))
            if s_ref is None:
                s_ref = s
            elif s != s_ref:
                raise AssertionError("structural exponent varied across a batch")
            num = num * ctx.kern.entry_scale
            if num.den != 1:
                raise AssertionError("scaled determinant numerator is not integral")
            out.append(num.num)
        return out, s_ref


def _pick_chunk_min(ctx: _SearchContext, nums, s, boxes: list[tuple]):
    """Exact local minimum of |det|^2 over candidates, first index wins ties.

    Equal numerators give equal |det|^2 and the first one already wins the
    tie, so each distinct numerator is decided once."""
    best = None
    seen = set()
    for vec, box in zip(nums, boxes):
        if vec in seen:
            continue
        seen.add(vec)
        num_fe = FieldElem(ctx.spec.tower, vec, ctx.kern.entry_scale)
        absq = abs_sq_of_det(ctx.spec, num_fe, s)
        if best is None or absq < best[0]:
            best = (absq, vec, box)
    return best


def _scan_chunk(ctx: _SearchContext, blocks, errs, vecs, count: int, rows_of):
    """Exact minimum over `count` codewords: a float screen in SUB_BATCH
    pieces, then every codeword whose lower bound reaches the least upper
    bound goes to the exact stage.

    rows_of maps flat codeword indices (a slice for each screen piece, an
    index array for the candidates) to one row index per user; codeword k
    stacks row rows_of(k)[j] of user j's blocks/errs (float screen) and
    vecs (coefficient vectors)."""
    lo2_parts = []
    up2_min = np.inf
    for off in range(0, count, SUB_BATCH):
        rows = rows_of(slice(off, min(off + SUB_BATCH, count)))
        mats = np.concatenate([b[r] for b, r in zip(blocks, rows)], axis=1)
        ers = np.concatenate([e[r] for e, r in zip(errs, rows)], axis=1)
        lo2, up2 = _screen_sub(mats, ers)
        up2_min = min(up2_min, up2.min())
        lo2_parts.append(lo2)
    cands = np.nonzero(np.concatenate(lo2_parts) <= up2_min)[0]
    cand_vecs = [v[r] for v, r in zip(vecs, rows_of(cands))]
    nums, s = _exact_stage(ctx, cand_vecs)
    boxes = [
        tuple(tuple(int(c) for c in v[i]) for v in cand_vecs)
        for i in range(len(cands))
    ]
    return count, s, _pick_chunk_min(ctx, nums, s, boxes)


_WORKER_CTX: _SearchContext | None = None


def _worker_init(payload: str) -> None:
    global _WORKER_CTX
    data = json.loads(payload)
    spec = CodeSpec.from_json_dict(data["spec"])
    _WORKER_CTX = _SearchContext(spec, tuple(data["bounds"]), data["mode"])


def _pool_worker_init(payload: str) -> None:
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and shuts the pool down once the running chunks are done
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_init(payload)


def _worker_chunk(task) -> dict:
    ctx = _WORKER_CTX
    if task["kind"] == "E":
        # user-1 rows start..stop of its grid against every other-user row,
        # the last user fastest
        start = task["start"]
        o_sizes = [g.shape[0] for g in ctx.grids[1:]]
        others = math.prod(o_sizes)

        def rows_of(idx):
            if isinstance(idx, slice):
                idx = np.arange(idx.start, idx.stop, dtype=np.int64)
            return [start + idx // others] + _mixed_radix_rows(idx % others, o_sizes)

        count = (task["stop"] - start) * others
        blocks, errs, vecs = ctx.blocks, ctx.errs, ctx.grids
    else:
        vecs = task["vecs"]
        blocks, errs = zip(*(ut.blocks_float(v) for ut, v in zip(ctx.uts, vecs)))
        count = vecs[0].shape[0]

        def rows_of(idx):
            return [idx] * len(vecs)

    count, s, best = _scan_chunk(ctx, blocks, errs, vecs, count, rows_of)
    absq, vec, box = best
    return {
        "count": count,
        "s": s,
        "num": [int(v) for v in vec],
        "box": [list(u) for u in box],
    }


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
    at = np.zeros(L + 2, dtype=np.int64)
    nxt = np.full(L + 2, L + 1, dtype=np.int64)
    coefs = []
    base = 0
    for c in range(w):
        vc = v[c::w]
        acc = vc < below
        pos = np.flatnonzero(acc)
        # accepted values are < 2N + 1 <= 2**64 - 1; v - N wraps into int64
        coef = (vc[pos].astype(np.uint64) - np.uint64(N)).view(np.int64)
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
            g[redo] = np.minimum(g[redo] + r, A)
            redo = redo[~stop[g[redo]]]
        first = np.zeros(vc.shape[0] + 1, dtype=np.int64)
        np.cumsum(acc, out=first[1:])
        m = g[first]
        ends = np.full(A + r, L + 1, dtype=np.int64)
        ends[:A] = c + w * (pos + 1)
        span = slice(c, c + w * m.shape[0], w)
        at[span] = m + base
        nxt[span] = ends[m + (r - 1)]
        coefs.append(coef)
        base += A
    return np.concatenate(coefs), at, nxt


def _draw_samples(rng: random.Random, bounds, lengths, count: int):
    """Per-user (count, r) int64 arrays of coefficient vectors, every user
    nonzero, drawn sample by sample and user by user.

    Each coefficient is what CPython's rng.randint(-N, N) returns: with
    k = (2N + 1).bit_length(), getrandbits(k) drawn again while it is
    >= 2N + 1, where getrandbits(k) reads ceil(k / 32) Mersenne Twister
    words, low word first, and keeps the top k bits of the last one.
    The words are read whole, m at a time with one getrandbits(32 m), and
    parsed in numpy, a piece of DRAW_WORDS fresh words at a time (or one
    sample's fewest words, if more).  A piece reads only words the
    remaining samples certainly consume (every coefficient reads at least
    one attempt), and the unfinished sample's words carry over to the next
    piece.  So this consumes the same words,
    leaves rng in the same state and gives the same vectors as calling
    randint per coefficient."""
    if any(N >= 2**63 for N in bounds):
        raise ValueError("sampled coefficient bounds must be below 2**63")
    users = list(zip(bounds, lengths))
    least = sum(r * _attempt_words(N) for N, r in users)
    piece = max(1, DRAW_WORDS // least)
    out = [np.empty((count, r), dtype=np.int64) for r in lengths]
    starts = array("q", bytes(8 * piece))
    tail = np.empty(0, dtype=np.uint32)
    done = 0
    while done < count:
        want = min(count - done, piece)
        # a nonempty tail is one sample that needs more than its words
        fresh = max(1, least - tail.shape[0]) + (want - 1) * least
        words = np.concatenate([
            tail,
            np.frombuffer(
                rng.getrandbits(32 * fresh).to_bytes(4 * fresh, "little"),
                dtype="<u4",
            ),
        ])
        L = words.shape[0]
        parsed = {u: _vector_maps(words, *u) for u in set(users)}
        maps = [parsed[u] for u in users]
        step = maps[0][2]
        for _, _, nxt in maps[1:]:
            step = nxt[step]
        # the one pass in Python: the sample starts, each from the last
        step = memoryview(step)
        i = got = 0
        while got < want and step[i] <= L:
            starts[got] = i
            i = step[i]
            got += 1
        a = np.frombuffer(starts, dtype=np.int64, count=got)
        for o, (coef, at, nxt) in zip(out, maps):
            o[done : done + got] = coef[at[a][:, None] + np.arange(o.shape[1])]
            a = nxt[a]
        done += got
        tail = words[i:]
    return out


def _sample_chunks(seed: int, bounds, lengths, samples: int):
    """SAMPLE_CHUNK-sized draws from one random.Random(seed), in order."""
    rng = random.Random(seed)
    for start in range(0, samples, SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, samples - start)
        yield _draw_samples(rng, bounds, lengths, count)


def _chunk_results(tasks, ntasks: int, payload: str, workers: int | None):
    """Worker results in task order.  Tasks are consumed lazily: the pool
    holds at most workers + 1 outstanding, so the parent builds the next
    task while the workers scan and memory stays at a few chunks."""
    if not (workers and workers > 1 and ntasks > 1):
        _worker_init(payload)
        for task in tasks:
            yield _worker_chunk(task)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_worker_init, initargs=(payload,)
    ) as pool:
        pending: deque = deque()
        try:
            for task in tasks:
                pending.append(pool.submit(_worker_chunk, task))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        except BaseException:
            for fut in pending:
                fut.cancel()
            raise


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
    the seed's stream while workers scan earlier chunks, so memory does not
    grow with ``samples`` and the drawn boxes are the same as one draw.
    The exhaustive scan covers one coefficient vector per unit orbit of
    each user (|det| is the same on the whole orbit), and ``evaluated``
    still counts every covered codeword.
    The result is deterministic for any worker count: the grid is split
    into fixed chunks by user-1 prefix (or sample index), each chunk's
    minimum is exact, and the merge compares exactly in chunk order.
    """
    t0 = time.perf_counter()
    bounds = tuple(int(N) for N in bounds)
    if len(bounds) != spec.U:
        raise ValueError(f"need {spec.U} bounds, got {len(bounds)}")
    if any(N < 1 for N in bounds):
        raise ValueError("bounds must be at least 1")
    if mode not in (EXHAUSTIVE, SAMPLED):
        raise ValueError(f"unknown mode {mode!r}")
    lengths = [spec.r_per_user for _ in bounds]
    kern = IntKernel(spec.tower)

    if mode == EXHAUSTIVE:
        total = 1
        for N, r in zip(bounds, lengths):
            total *= grid_size(N, r)
        if total > budget:
            raise BudgetExceeded(
                f"exhaustive search needs {total} codewords, budget is {budget};"
                " use SAMPLED mode"
            )
        for N, r in zip(bounds, lengths):
            rows = grid_size(N, r) + 1  # coeff_grid builds the zero row too
            if rows > GRID_ROW_CAP:
                raise BudgetExceeded(
                    f"coefficient grid of {rows} rows exceeds the"
                    f" {GRID_ROW_CAP}-row cap; use SAMPLED mode"
                )
        g1 = grid_size(bounds[0], lengths[0]) // (len(orbit_units(kern)) + 1)
        starts = range(0, g1, CHUNK_U1_ROWS)
        tasks = (
            {"kind": "E", "start": start, "stop": min(start + CHUNK_U1_ROWS, g1)}
            for start in starts
        )
        ntasks = len(starts)
        samples_used = None
        seed_used = None
        evaluated = total
    else:
        if not samples or samples < 1:
            raise ValueError("SAMPLED mode requires a positive sample count")
        if samples > budget:
            raise BudgetExceeded(
                f"sample count {samples} exceeds budget {budget}"
            )
        seed_used = 0 if seed is None else int(seed)
        tasks = (
            {"kind": "S", "vecs": vecs}
            for vecs in _sample_chunks(seed_used, bounds, lengths, samples)
        )
        ntasks = -(-samples // SAMPLE_CHUNK)
        samples_used = samples
        evaluated = samples

    payload = json.dumps(
        {"spec": spec.to_json_dict(), "bounds": list(bounds), "mode": mode}
    )
    best = None
    for res in _chunk_results(tasks, ntasks, payload, workers):
        num_fe = FieldElem(spec.tower, res["num"], kern.entry_scale)
        absq = abs_sq_of_det(spec, num_fe, res["s"])
        if best is None or absq < best[0]:
            best = (absq, num_fe, res["s"], res["box"])
    absq, num_fe, s, box_lists = best
    box = CoefficientBox(bounds, tuple(tuple(v) for v in box_lists))
    lo, hi = absq.sqrt_bounds(60)
    mid = (lo + hi) / 2
    d_value = float(mid)
    radius = float((hi - lo) / 2) + abs(d_value) * 2.0**-50
    return DecayReport(
        bounds=bounds,
        mode=mode,
        samples=samples_used,
        seed=seed_used if mode == SAMPLED else None,
        D_value=d_value,
        error_radius=radius,
        argmin=box,
        exact_det=det_value(spec, num_fe, s),
        det_numerator=num_fe,
        det_p_exponent=s,
        abs_sq=absq,
        evaluated=evaluated,
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
    or every user's box growing together (ALL_USERS)."""
    if N_max < 1:
        raise ValueError("N_max must be at least 1")
    if pattern not in (FIRST_USER, ALL_USERS):
        raise ValueError(f"unknown pattern {pattern!r}")
    out = []
    for N in range(1, N_max + 1):
        bounds = (
            (N,) + (1,) * (spec.U - 1) if pattern == FIRST_USER else (N,) * spec.U
        )
        out.append(
            min_abs_det(
                spec,
                bounds,
                mode=mode,
                samples=samples,
                seed=seed,
                workers=workers,
                budget=budget,
            )
        )
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
    sig = kern.sigma_vec_mat(1)

    ub = [bound] * kern.dim
    ub_s = IntKernel.mat_bound(ub, sig)
    t1 = IntKernel.mat_bound(kern.product_bound(ub, ub_s), mat_ad)
    t2 = IntKernel.mat_bound(kern.product_bound(ub_s, ub), mat_bc)
    if max(x + y for x, y in zip(t1, t2)) > INT64_LIMIT:
        raise OverflowRisk("box scan bound exceeds the int64 budget")

    grid = coeff_grid(bound, kern.dim).T  # coordinate-major (dim, count)
    sgrid = SparseMap(sig)(grid)
    ad_map, bc_map = SparseMap(mat_ad), SparseMap(mat_bc)
    count = grid.shape[1]
    zeros = 0
    # kern.mul builds a (dim, dim, step, count) outer product
    step = max(1, 4_000_000 // (count * kern.dim**2))
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
    """Slow re-enumeration with user-U outermost, no caching, cofactor
    determinants; used to cross-check the engine's EXHAUSTIVE results."""
    t0 = time.perf_counter()
    bounds = tuple(int(N) for N in bounds)
    lengths = [spec.r_per_user] * spec.U
    ranges = [_nonzero_vectors(bounds[j], lengths[j]) for j in range(spec.U)]
    best = None  # (absq, lex_key, box, num, s)
    idx = [0] * spec.U
    total = 1
    for r in ranges:
        total *= len(r)
    count = 0
    while True:
        vectors = tuple(ranges[j][idx[j]] for j in range(spec.U))
        box = CoefficientBox(bounds, vectors)
        A = assemble_codeword(spec, box)
        num, s = _laplace_det(A)
        absq = abs_sq_of_det(spec, num, s)
        key = box.lex_key()
        if best is None:
            best = (absq, key, box, num, s)
        else:
            lt = absq < best[0]
            if lt or (not best[0] < absq and key < best[1]):
                best = (absq, key, box, num, s)
        count += 1
        # user-U odometer spins fastest in position 0 -> reversed order
        pos = 0
        while pos < spec.U:
            idx[pos] += 1
            if idx[pos] < len(ranges[pos]):
                break
            idx[pos] = 0
            pos += 1
        if pos == spec.U:
            break
    absq, _, box, num, s = best
    lo, hi = absq.sqrt_bounds(60)
    mid = (lo + hi) / 2
    return DecayReport(
        bounds=bounds,
        mode=EXHAUSTIVE,
        samples=None,
        seed=None,
        D_value=float(mid),
        error_radius=float((hi - lo) / 2) + float(mid) * 2.0**-50,
        argmin=box,
        exact_det=det_value(spec, num, s),
        det_numerator=num,
        det_p_exponent=s,
        abs_sq=absq,
        evaluated=count,
        wall_time=time.perf_counter() - t0,
    )


def _nonzero_vectors(N: int, length: int) -> list[tuple[int, ...]]:
    out = []
    vec = [-N] * length
    while True:
        if any(vec):
            out.append(tuple(vec))
        pos = length - 1
        while pos >= 0:
            vec[pos] += 1
            if vec[pos] <= N:
                break
            vec[pos] = -N
            pos -= 1
        if pos < 0:
            return out


def _laplace_det(A: CodeMatrix) -> tuple[FieldElem, int]:
    """Cofactor expansion on exact entry values, then the smallest p-power
    clearing all denominators."""
    vals = A.values()
    n = len(vals)
    det = _laplace_rec(vals, list(range(n)), 0, A.spec.tower)
    num = det
    s = 0
    while not num.is_integral():
        num = num * A.spec.p
        s += 1
        if s > A.spec.k * n + 4:
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
