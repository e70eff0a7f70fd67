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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import (
    CodeMatrix, CodeSpec, CoefficientBox, assemble_codeword, build_M,
    codeword_from_coeffs,
)
from .kernels import (
    GRID_ROW_CAP, INT64_LIMIT, IntKernel, OverflowRisk, UserTensors,
    coeff_grid, det_float_batch, det_int_batch, det_slack_batch, grid_size,
    stack_users,
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
    det = numerator * p^(-s), by fraction-free column-subset expansion.

    The numerator is asserted to be fixed by tau = sigma^U (the determinant
    lies in the intermediate field F)."""
    n, m = A.shape
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    spec = A.spec
    p = spec.p
    E = [[e for _, e in row] for row in A.entries]
    X = {0: 0}
    dp: dict[int, FieldElem] = {0: spec.tower.one()}
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, n + 1):
        i = size - 1
        new_dp: dict[int, FieldElem] = {}
        for mask in masks_by_size[size]:
            cols = [c for c in range(n) if mask >> c & 1]
            x = max(E[i][c] + X[mask ^ (1 << c)] for c in cols)
            X[mask] = x
            acc = spec.tower.zero()
            for pos, c in enumerate(cols):
                num, _ = A.entries[i][c]
                term = num * dp[mask ^ (1 << c)]
                pad = x - E[i][c] - X[mask ^ (1 << c)]
                if pad:
                    term = term * p**pad
                acc = acc + term if (i + pos) % 2 == 0 else acc - term
            new_dp[mask] = acc
        dp = new_dp
        dp[0] = spec.tower.one()
    full = (1 << n) - 1
    num = dp[full]
    if not num.apply_sigma(spec.U) == num:
        raise ArithmeticError("determinant is not fixed by tau = sigma^U")
    return num, X[full]


def det_value(spec: CodeSpec, num: FieldElem, s: int) -> FieldElem:
    """The exact field value numerator * p^(-s)."""
    if s == 0:
        return num
    return num * (spec.p.conj() ** s * Fraction(1, spec.norm_p**s))


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
    certifies both the rank criterion and membership of det(A) in F."""
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
        arrs = []
        for j in range(spec.U):
            arrs.append(
                np.array([b.vectors[j] for b in batch], dtype=np.int64)
            )
        stacked = stack_users([uts[j].blocks_int(arrs[j]) for j in range(spec.U)])
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
        if not box.all_users_nonzero():
            raise ValueError("rank criterion requires every user active")
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
            if ctx.kern.entry_scale != 1:
                num = num * ctx.kern.entry_scale
            out.append(tuple(ctx.kern.fe_to_vec(num)))
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
        num_fe = ctx.kern.vec_to_num(vec)
        absq = abs_sq_of_det(ctx.spec, num_fe, s)
        if best is None or absq < best[0]:
            best = (absq, vec, box)
    return best


def _scan_exhaustive_chunk(ctx: _SearchContext, start_row: int, stop_row: int):
    spec = ctx.spec
    o_sizes = [g.shape[0] for g in ctx.grids[1:]]
    others_total = 1
    for v in o_sizes:
        others_total *= v
    npairs = (stop_row - start_row) * others_total
    lo2_parts = []
    up2_min = np.inf
    for off in range(0, npairs, SUB_BATCH):
        flat = np.arange(off, min(off + SUB_BATCH, npairs), dtype=np.int64)
        u1 = start_row + flat // others_total
        rows = [u1] + _mixed_radix_rows(flat % others_total, o_sizes)
        mats = np.concatenate(
            [ctx.blocks[j][rows[j]] for j in range(spec.U)], axis=1
        )
        errs = np.concatenate(
            [ctx.errs[j][rows[j]] for j in range(spec.U)], axis=1
        )
        lo2, up2 = _screen_sub(mats, errs)
        m = up2.min()
        if m < up2_min:
            up2_min = m
        lo2_parts.append(lo2)
    lo2 = np.concatenate(lo2_parts)
    cands = np.nonzero(lo2 <= up2_min)[0]
    u1 = start_row + cands // others_total
    rows = [u1] + _mixed_radix_rows(cands % others_total, o_sizes)
    vec_arrays = [ctx.grids[j][rows[j]] for j in range(spec.U)]
    nums, s = _exact_stage(ctx, vec_arrays)
    boxes = [
        tuple(tuple(int(c) for c in vec_arrays[j][i]) for j in range(spec.U))
        for i in range(len(cands))
    ]
    best = _pick_chunk_min(ctx, nums, s, boxes)
    return npairs, s, best


def _scan_sampled_chunk(ctx: _SearchContext, vec_arrays: list[np.ndarray]):
    spec = ctx.spec
    n = vec_arrays[0].shape[0]
    blocks = []
    errs = []
    for j in range(spec.U):
        bf, ef = ctx.uts[j].blocks_float(vec_arrays[j])
        blocks.append(bf)
        errs.append(ef)
    lo2_parts = []
    up2_min = np.inf
    for off in range(0, n, SUB_BATCH):
        sl = slice(off, min(off + SUB_BATCH, n))
        mats = np.concatenate([b[sl] for b in blocks], axis=1)
        ers = np.concatenate([e[sl] for e in errs], axis=1)
        lo2, up2 = _screen_sub(mats, ers)
        m = up2.min()
        if m < up2_min:
            up2_min = m
        lo2_parts.append(lo2)
    lo2 = np.concatenate(lo2_parts)
    cands = np.nonzero(lo2 <= up2_min)[0]
    cand_arrays = [vec_arrays[j][cands] for j in range(spec.U)]
    nums, s = _exact_stage(ctx, cand_arrays)
    boxes = [
        tuple(tuple(int(c) for c in cand_arrays[j][i]) for j in range(spec.U))
        for i in range(len(cands))
    ]
    best = _pick_chunk_min(ctx, nums, s, boxes)
    return n, s, best


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
        count, s, best = _scan_exhaustive_chunk(ctx, task["start"], task["stop"])
    else:
        count, s, best = _scan_sampled_chunk(ctx, task["vecs"])
    absq, vec, box = best
    return {
        "count": count,
        "s": s,
        "num": [int(v) for v in vec],
        "box": [list(u) for u in box],
    }


def _draw_samples(rng: random.Random, bounds, lengths, count: int):
    """Per-user (count, r) int64 arrays of coefficient vectors, every user
    nonzero, drawn sample by sample and user by user.

    Each coefficient runs the loop CPython's rng.randint(-N, N) runs:
    getrandbits(k) with k = (2N + 1).bit_length(), drawn again while it is
    >= 2N + 1.  So this consumes the same Mersenne Twister words and gives
    the same vectors as calling randint per coefficient."""
    draws = [
        (N, 2 * N + 1, (2 * N + 1).bit_length(), r)
        for N, r in zip(bounds, lengths)
    ]
    flat: list[list[int]] = [[] for _ in bounds]
    getrandbits = rng.getrandbits
    for _ in range(count):
        for out, (N, n, k, r) in zip(flat, draws):
            while True:
                vec = []
                for _ in range(r):
                    v = getrandbits(k)
                    while v >= n:
                        v = getrandbits(k)
                    vec.append(v - N)
                if any(vec):
                    out.extend(vec)
                    break
    return [
        np.array(u, dtype=np.int64).reshape(count, r)
        for u, r in zip(flat, lengths)
    ]


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
        num_fe = kern.vec_to_num(res["num"])
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


def write_curve_files(spec, reports, csv_path=None, json_path=None) -> None:
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write(curve_csv_text(reports))
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(curve_json_obj(spec, reports), fh, indent=1, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# two-user singularity criterion and Hilbert-90 witnesses


def _full_norm(x: FieldElem) -> FieldElem:
    from .number_field import L_OVER_K

    return x.rel_norm(L_OVER_K)


def two_user_singularity_test(
    a: FieldElem, b: FieldElem, c: FieldElem, d: FieldElem
) -> bool:
    """Whether N(a)N(d) - N(b)N(c) = 0 over a degree-2 extension, the exact
    criterion for the 2-user code spanned by (a, b; c, d) to contain a
    singular matrix."""
    tower = a.tower
    if tower.d != 2:
        raise ValueError("criterion applies to degree-2 extensions only")
    lhs = _full_norm(a) * _full_norm(d) - _full_norm(b) * _full_norm(c)
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
    if not _full_norm(alpha) == one:
        raise AssertionError("bc/ad must have norm 1 when the test passes")
    z = None
    for gamma in (one, tower.theta(), tower.mu_elem(), tower.mu_elem() * tower.theta()):
        cand = gamma + alpha * gamma.apply_sigma(1)
        if cand:
            z = cand
            break
    if z is None:
        raise ArithmeticError("Hilbert-90 element vanished on the whole basis")
    # clear denominators with a rational integer, then strip the content
    mult = 1
    for q in z.coords:
        mult = math.lcm(mult, q.a.denominator, q.b.denominator)
    w = z * mult
    if not w.is_integral():
        raise AssertionError("denominator clearing failed")
    content = 0
    for q in w.coords:
        content = math.gcd(content, abs(int(q.a)), abs(int(q.b)))
    if content > 1:
        w = w * Fraction(1, content)
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

    grid = coeff_grid(bound, kern.dim)
    sgrid = grid @ sig
    zeros = 0
    step = max(1, 4_000_000 // (grid.shape[0] * kern.dim))
    for start in range(0, grid.shape[0], step):
        x = grid[start : start + step]
        sx = sgrid[start : start + step]
        det = kern.pairwise_mul(x, sgrid) @ mat_ad
        det -= kern.pairwise_mul(sx, grid) @ mat_bc
        zeros += int(np.count_nonzero(~np.any(det, axis=2)))
    return zeros


# ---------------------------------------------------------------------------
# valuation split of Theorem-style determinant expansions


def valuation_split_check(spec: CodeSpec, box: CoefficientBox) -> tuple:
    """Exact check that v(p^{-kUn_t} prod_l det(sigma^{l-1} M_l)) <=
    U(n_t - 1 - k n_t) < -k(U n_t - 2) <= v(det(A) - leading term).

    Requires every user's data vector to have minimum valuation 0; raises
    if the input violates that or the inequality chain fails."""
    U, n_t, k, p = spec.U, spec.n_t, spec.k, spec.p
    lead_num = spec.tower.one()
    for j in range(U):
        vec = box.vectors[j]
        xs = _user_data(spec, vec)
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


def _user_data(spec: CodeSpec, vec) -> list[FieldElem]:
    from .construction import gamma_basis

    basis = gamma_basis(spec.tower)
    width = len(basis)
    xs = []
    for slot in range(spec.n_t):
        acc = spec.tower.zero()
        for g, base in enumerate(basis):
            c = vec[slot * width + g]
            if c:
                acc = acc + base * c
        xs.append(acc)
    return xs


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
