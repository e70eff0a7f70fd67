"""Batched integer and float fast paths for codeword determinants.

Elements of O_L enter as their integer gamma-coordinates ``FieldElem.num``
over the 2d-element basis mu^b theta^a, with no conversion.  Batches are
coordinate-major: an array of shape (dim, ...) holds coordinate g of every
element in row g, so each arithmetic step is a numpy operation over a whole
batch.  Every integer linear map is a ``SparseMap`` (one multiply-add per
nonzero entry): a user's coefficient-to-block map and the p-power maps.
A product first sums the pairs of coordinates whose basis products
gamma_a * gamma_b are the same element, then reduces each distinct product
to coordinates once.  The integer code runs without BLAS, and exact
per-coordinate overflow audits in Python ints pick its width: int32 where
every audited bound stays below INT32_LIMIT, int64 where it stays below
INT64_LIMIT, and otherwise dtype=object, exact Python ints.  The
determinant DP audits each subset on the measured size of the sub-minors
it reads.  Every float screen carries a rigorous slack so it can only
propose candidates, never decide a comparison.
"""

from __future__ import annotations

import math

import numpy as np

from .construction import CodeSpec, certified_rows, gamma_basis, lattice_basis
from .number_field import FieldElem, Tower

INT64_LIMIT = 1 << 62
INT32_LIMIT = 1 << 30  # the same one-bit margin below int32's range
GRID_ROW_CAP = 40_000_000  # largest coefficient grid coeff_grid will build
# covers enclosure radii, float64 conversion and linear-combination rounding
EMB_REL_ERR = 2.0**-44
# covers naive/LAPACK determinant evaluation error, folded into row norms
DET_EVAL_REL = 2.0**-44


class OverflowRisk(ArithmeticError):
    """An integer batch could reach INT64_LIMIT; the same kernels run
    exactly on the input cast to dtype=object."""


class SparseMap:
    """The integer linear map x -> x @ mat on coordinate-major batches.

    x has shape (rows, ...) and the result (cols, ...), in x's dtype.
    Output coordinate c is accumulated from the nonzero entries of column c
    only, one multiply-add each; ``bound`` is its overflow audit, exact in Python
    ints, and bounds every partial sum, since each is a sum of terms the
    audit counts in absolute value.  ``top`` is the largest |weight|: a
    batch may run in a dtype only if its weights fit there too, since an
    input coordinate bounded by 0 hides its weights from ``bound``.  It maps
    a user's coefficients to its blocks, the distinct basis products of
    IntKernel.mul to coordinates, and applies powers of p."""

    def __init__(self, mat: np.ndarray):
        self.cols = [[(g, w) for g, w in enumerate(col) if w] for col in mat.T.tolist()]
        self.top = max((abs(w) for terms in self.cols for _, w in terms), default=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.cols),) + x.shape[1:], dtype=x.dtype)
        tmp = np.empty(x.shape[1:], dtype=x.dtype)
        for acc, terms in zip(out, self.cols):
            for g, w in terms:
                if w == 1:
                    acc += x[g]
                elif w == -1:
                    acc -= x[g]
                else:
                    acc += np.multiply(x[g], w, out=tmp)
        return out

    def bound(self, ub) -> list[int]:
        """Exact magnitude bound on x @ mat given |x[g]| <= ub[g], in
        Python ints; it bounds every partial sum of the map."""
        return [sum(ub[g] * abs(w) for g, w in terms) for terms in self.cols]


class IntKernel:
    """Integer-coordinate arithmetic of O_L bound to one tower.

    Vectors are the gamma-coordinates of FieldElem numerators; batched
    methods take and return them coordinate-major, shape (dim, ...).  ``mul``
    is the one product.  With T the tower's structure tensor
    (gamma_a * gamma_b = sum_c T[a, b, c] gamma_c, the dense form of
    ``Tower.mul_terms``), the pairs (a, b) fall into ``slots``, one per
    distinct element gamma_a * gamma_b, and row s of ``reduction`` holds
    the coordinates of slot s's element, so T[a, b, c] = reduction[slot(a,
    b), c].  ``mul`` sums u_a * v_b over the pairs of each slot, then maps
    the slot sums to coordinates with one SparseMap of ``reduction``.  On
    the quartic tower that is 64 products into 21 slots and 64 reduction
    terms, 32 of them non-unit, where T has 170 nonzero entries, 65 of
    them non-unit.

    ``product_bound`` audits it: output c is bounded by sum over (a, b) of
    |T[a, b, c]| * |u_a| * |v_b|.  Each partial sum of the reduction of
    output c is a sub-sum of those terms, and each slot sum is a sub-sum of
    them for any c where its element has a nonzero coordinate, since
    T[a, b, c] = reduction[slot(a, b), c] is a nonzero integer there.

    Codeword entry numerators are stored times the tower's ``entry_scale``
    so they stay integral, and det_int_batch returns entry_scale * (true
    numerator): the true numerator is FieldElem(tower, row, entry_scale).
    Towers whose basis is sigma-stable have entry_scale == 1 and the
    scaling is the identity throughout."""

    def __init__(self, tower: Tower):
        self.tower = tower
        self.d = tower.d
        self.dim = 2 * tower.d
        self.gamma = gamma_basis(tower)
        by_element: dict[tuple, list] = {}
        for a, row in enumerate(tower.mul_terms):
            for b, terms in enumerate(row):
                by_element.setdefault(tuple(terms), []).append((a, b))
        self.slots = list(by_element.values())
        reduction = np.zeros((len(self.slots), self.dim), dtype=np.int64)
        for s, terms in enumerate(by_element):
            for c, w in terms:
                reduction[s, c] = w
        self.reduction = reduction
        self._reduce = SparseMap(reduction)
        self._sigma_cache: dict[int, tuple[np.ndarray, int]] = {}
        self._mult_cache: dict = {}
        self._power_cache: dict = {}
        self.entry_scale = tower.entry_scale

    def sigma_vec_mat(self, t: int) -> tuple[np.ndarray, int]:
        """(S, den) with vecs @ S == den * sigma^t(vecs): the images of the
        basis scaled by the least common multiple den of their
        denominators.  den is 1 exactly when sigma^t maps the basis ring
        into itself."""
        t %= self.d
        if t not in self._sigma_cache:
            images = [g.apply_sigma(t) for g in self.gamma]
            den = math.lcm(*(x.den for x in images))
            mat = np.array([(x * den).num for x in images], dtype=np.int64)
            self._sigma_cache[t] = (mat, den)
        return self._sigma_cache[t]

    def mult_vec_mat(self, elem) -> np.ndarray:
        """Right-multiplication matrix for a fixed integral element."""
        if not isinstance(elem, FieldElem):
            elem = self.tower.one() * elem
        if elem.den != 1:
            raise ValueError("element is not integral over the basis")
        if elem.num not in self._mult_cache:
            rows = [(elem * g).num for g in self.gamma]
            self._mult_cache[elem.num] = np.array(rows, dtype=np.int64)
        return self._mult_cache[elem.num]

    def power_maps(self, elem, top: int) -> list[SparseMap]:
        """SparseMaps of right multiplication by elem^0, ..., elem^top,
        built once per kernel and (elem, top)."""
        key = (elem, top)
        if key not in self._power_cache:
            mat = self.mult_vec_mat(elem)
            mats = [np.eye(self.dim, dtype=np.int64)]
            for _ in range(top):
                mats.append(mats[-1] @ mat)
            self._power_cache[key] = [SparseMap(m) for m in mats]
        return self._power_cache[key]

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Products of coordinate-major batches: (dim, ...) x (dim, ...) ->
        (dim, ...), the trailing axes broadcast as in u * v, in their common
        dtype."""
        shape = np.broadcast(u[0], v[0]).shape
        dtype = np.result_type(u, v)
        sums = np.empty((len(self.slots),) + shape, dtype=dtype)
        tmp = np.empty(shape, dtype=dtype)
        for acc, ((a, b), *rest) in zip(sums, self.slots):
            np.multiply(u[a], v[b], out=acc)
            for a, b in rest:
                acc += np.multiply(u[a], v[b], out=tmp)
        return self._reduce(sums)

    def product_bound(self, ub_u, ub_v) -> list[int]:
        """Exact per-coordinate magnitude bound for products, over the
        nonzero terms of the structure tensor; it bounds every partial sum
        of ``mul`` (see the class docstring)."""
        out = [0] * self.dim
        for ua, row in zip(ub_u, self.tower.mul_terms):
            if ua:
                for vb, terms in zip(ub_v, row):
                    if vb:
                        w = ua * vb
                        for c, t in terms:
                            out[c] += abs(t) * w
        return out


def _max_abs(x: np.ndarray, axis: int) -> list:
    """max |x| along axis of a signed integer array as (nested lists of)
    Python ints, 0 for an empty axis.  Exact at the dtype's least value too
    (-2**31, -2**63): its abs wraps to itself, which reads as 2**31 or 2**63
    through the unsigned type of the same width."""
    unsigned = np.dtype(f"u{x.dtype.itemsize}")
    return np.abs(x).view(unsigned).max(axis=axis, initial=0).tolist()


def _width(peak: int) -> type:
    """The narrower integer dtype an audited magnitude bound admits."""
    return np.int32 if peak < INT32_LIMIT else np.int64


def grid_rows(N: int, length: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop - 1 of coeff_grid(N, length), built alone: each
    row's mixed-radix digits of base 2N + 1, the zero vector's index
    skipped.  The batch-first view of a coordinate-major (length, stop -
    start) array."""
    base = 2 * N + 1
    idx = np.arange(start, stop, dtype=np.int64)
    idx += idx >= (base**length - 1) // 2
    cols = np.empty((length, idx.shape[0]), dtype=np.int64)
    for c in range(length - 1, -1, -1):
        idx, cols[c] = np.divmod(idx, base)
    cols -= N
    return cols.T


def coeff_grid(N: int, length: int) -> np.ndarray:
    """All nonzero integer vectors with entries in [-N, N], lex ascending:
    the batch-first view of a coordinate-major (length, count) array."""
    if N < 1 or length < 1:
        raise ValueError("N and length must be positive")
    count = (2 * N + 1) ** length
    if count > GRID_ROW_CAP:
        raise MemoryError(f"coefficient grid of {count} rows is too large")
    return grid_rows(N, length, 0, count - 1)


def grid_size(N: int, length: int) -> int:
    return (2 * N + 1) ** length - 1


def exponent_matrix(spec: CodeSpec) -> list[list[int]]:
    """Structural p-exponents of the stacked codeword: k on diagonal blocks."""
    n = spec.U * spec.n_t
    return [
        [spec.k if r // spec.n_t == c // spec.n_t else 0 for c in range(n)]
        for r in range(n)
    ]


class DetSchedule:
    """Fraction-free Laplace DP plan over column subsets of an n x n matrix
    whose entry (r, c) is numer * p^(-E[r][c]).  All p-power alignment is
    decided from the exponents alone, never from the numerators.

    steps[i] lists, for every column subset of size i + 1, its terms
    (c, sign, pad): entry (i, c) times the minor of the subset without c,
    times p^pad.  The determinant is the full-subset value * p^(-total_exp).
    """

    def __init__(self, E):
        n = len(E)
        X = {0: 0}
        steps = []
        masks_by_size = [[] for _ in range(n + 1)]
        for mask in range(1 << n):
            masks_by_size[bin(mask).count("1")].append(mask)
        for size in range(1, n + 1):
            i = size - 1
            level = []
            for mask in masks_by_size[size]:
                cols = [c for c in range(n) if mask >> c & 1]
                x = max(E[i][c] + X[mask ^ (1 << c)] for c in cols)
                X[mask] = x
                terms = []
                for pos, c in enumerate(cols):
                    sign = 1 if (i + pos) % 2 == 0 else -1
                    pad = x - E[i][c] - X[mask ^ (1 << c)]
                    terms.append((c, sign, pad))
                level.append((mask, terms))
            steps.append(level)
        self.n = n
        self.steps = steps
        self.total_exp = X[(1 << n) - 1]
        self.max_pad = max(
            (pad for level in steps for _, terms in level for _, _, pad in terms),
            default=0,
        )


_SCHED_CACHE: dict = {}


def det_schedule(E) -> DetSchedule:
    """The DetSchedule of exponent matrix E, built once per distinct E."""
    key = tuple(map(tuple, E))
    if key not in _SCHED_CACHE:
        _SCHED_CACHE[key] = DetSchedule(key)
    return _SCHED_CACHE[key]


def _subset_peak(kern: IntKernel, pmaps, ub_row, ub, mask: int, terms) -> int:
    """The audited peak of one subset's step of det_int_batch's DP, a
    Python int: the largest bound on a value the step reads or forms.  That
    covers its row's entries and its sub-minors (the inputs it casts to its
    own dtype), each product and padded term, each partial sum, and the
    weights of the maps it applies (SparseMap.top).  ub_row[c] bounds the
    entries of column c and ub[sub] the sub-minor on subset sub, per
    coordinate.  Raises OverflowRisk if a partial sum could reach
    INT64_LIMIT."""
    bound = [0] * kern.dim
    peak = 0
    for c, _, pad in terms:
        sub = mask ^ (1 << c)
        pb = kern.product_bound(ub_row[c], ub[sub])
        peak = max(peak, *ub_row[c], *ub[sub], *pb)
        if sub:
            peak = max(peak, kern._reduce.top)
        if pad:
            pb = pmaps[pad].bound(pb)
            peak = max(peak, pmaps[pad].top)
        bound = [x + y for x, y in zip(bound, pb)]
        if any(b >= INT64_LIMIT for b in bound):
            raise OverflowRisk(f"determinant DP bound exceeds int64 at subset {mask:b}")
    return max(peak, *bound)


def det_int_batch(
    spec: CodeSpec, kern: IntKernel, stacked: np.ndarray
) -> tuple[np.ndarray, int]:
    """Exact determinant numerators of a batch of stacked codewords.

    stacked has shape (batch, n, n, dim): integer numerator vectors scaled
    by kern.entry_scale, entry (r, c) meaning (numer / entry_scale) *
    p^(-E[r][c]) with the structural exponents.  Returns (nums, s) with
    det = FieldElem(tower, row, entry_scale) * p^(-s) for each row of nums;
    nums itself carries one factor of entry_scale so it stays integral even
    when the true numerator has denominators over the basis, and it is
    int64 or dtype=object, never int32.

    In an integer batch each subset is audited (_subset_peak) just before
    it runs, on the measured max |coordinate| of its row's entries and of
    the sub-minors the level below has just computed: those are exact,
    since each sub-minor ran in a width its own audit admitted.  The audit
    raises OverflowRisk, possibly partway through the DP, if a partial sum
    could reach INT64_LIMIT; otherwise the subset runs in int32 if its peak
    is below INT32_LIMIT and in int64 if not.  A subset casts its row's
    entries and its sub-minors to its own dtype, so every product, padded
    term and in-place sum has that dtype, and the audit covers every
    narrowing cast.  The widths are batch-wide: one large row widens its
    whole batch.  An object batch runs on Python ints throughout.

    The subset DP runs coordinate-major on stacked's (n, n, dim, batch)
    transpose, which is a copy only when stacked is not the batch-first
    view stack_users returns; a term whose sub-minor is the empty one (= 1)
    is the entry itself.
    """
    sched = det_schedule(exponent_matrix(spec))
    n = sched.n
    if stacked.shape[1:] != (n, n, kern.dim):
        raise ValueError("stacked batch has wrong shape")
    pmaps = kern.power_maps(spec.p, sched.max_pad)

    entries = np.ascontiguousarray(stacked.transpose(1, 2, 3, 0))
    integer = entries.dtype != object
    if integer:
        ub_entry = _max_abs(entries, axis=3)
        ub = {0: [1] + [0] * (kern.dim - 1)}
    dp = {}
    for i, level in enumerate(sched.steps):
        new_dp = {}
        for mask, terms in level:
            dtype = object
            if integer:
                peak = _subset_peak(kern, pmaps, ub_entry[i], ub, mask, terms)
                dtype = _width(peak)
            acc = np.zeros(entries.shape[2:], dtype=dtype)
            for c, sign, pad in terms:
                sub = mask ^ (1 << c)
                term = entries[i, c].astype(dtype, copy=False)
                if sub:
                    term = kern.mul(term, dp[sub].astype(dtype, copy=False))
                if pad:
                    term = pmaps[pad](term)
                if sign < 0:
                    acc -= term
                else:
                    acc += term
            new_dp[mask] = acc
        dp = new_dp
        if integer and i < n - 1:
            ub = {mask: _max_abs(acc, axis=1) for mask, acc in dp.items()}
    nums = dp[(1 << n) - 1].astype(np.int64 if integer else object, copy=False)
    if kern.entry_scale != 1:
        # dp carries entry_scale^n; one factor stays on the output so it
        # remains integral (the true numerator may have basis denominators).
        div = kern.entry_scale ** (n - 1)
        if (nums % div).any():
            raise AssertionError("determinant fails the entry-scale division")
        nums = nums // div
    return np.ascontiguousarray(nums.T), sched.total_exp


def _minors(mats: np.ndarray, top: int):
    """minor(i, j): the 2 x 2 minors of rows top and top + 1 of a (batch,
    n, n) stack on columns i < j."""
    a, b = mats[:, top], mats[:, top + 1]
    return lambda i, j: a[:, i] * b[:, j] - a[:, j] * b[:, i]


def det_float_batch(mats: np.ndarray) -> np.ndarray:
    """Determinants of a (batch, n, n) complex stack.  Up to n = 4 a
    closed form: the Laplace expansion of the 2 x 2 minors of rows 0 and 1
    against the entries of row 2 (n = 3) or the 2 x 2 minors of rows 2 and
    3 (n = 4), column pairs in lex order.  Each is a signed sum of at most
    24 products of one entry per row.  np.linalg.det from n = 5."""
    n = mats.shape[-1]
    if n == 1:
        return mats[:, 0, 0]
    if n > 4:
        return np.linalg.det(mats)
    m = _minors(mats, 0)
    if n == 2:
        return m(0, 1)
    if n == 3:
        g, h, i = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
        return m(0, 1) * i - m(0, 2) * h + m(1, 2) * g
    w = _minors(mats, 2)
    return (
        m(0, 1) * w(2, 3) - m(0, 2) * w(1, 3) + m(0, 3) * w(1, 2)
        + m(1, 2) * w(0, 3) - m(1, 3) * w(0, 2) + m(2, 3) * w(0, 1)
    )


def slack_factors(
    blocks: np.ndarray, errs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The row-block factors det_slack_batch multiplies together.

    blocks (batch, k, n) holds k float rows of an n x n matrix and errs
    their per-entry error bounds.  Returns the products over the k rows of
    a_r = |row r| and of a_r + b_r, with b_r = |error row r| + n^2 *
    DET_EVAL_REL * a_r: the evaluation error of the float determinant is
    folded into the row error this way."""
    a = np.sqrt(np.sum(np.abs(blocks) ** 2, axis=2))
    b = np.sqrt(np.sum(errs.astype(np.float64) ** 2, axis=2))
    b = b + (n * n) * DET_EVAL_REL * a
    return np.prod(a, axis=1), np.prod(a + b, axis=1)


def det_slack_batch(*row_blocks) -> np.ndarray:
    """Rigorous bound on |det(true) - det(float)| given per-entry error bounds.

    Multilinearity in rows: the difference expands into determinants with at
    least one row replaced by its error row, so it is bounded by
    prod(a_r + b_r) - prod(a_r) over row norms a and error norms b.  Both
    products factor over any split of the rows into blocks: each argument
    is one block's (prod a_r, prod (a_r + b_r)) from slack_factors, and the
    blocks' arrays broadcast together."""
    a, ab = row_blocks[0]
    for a_k, ab_k in row_blocks[1:]:
        a = a * a_k
        ab = ab * ab_k
    slack = ab - a
    return slack * (1.0 + 2.0**-30) + 1e-300


class UserTensors:
    """Per-user flattened generator data for batched codeword evaluation.

    The integer half is numv and its SparseMap, read by blocks_int.  The
    float half is emb, emb_err and _emb_re_im, read by blocks_float.
    _emb_re_im is the array of float rows that certified the generators'
    rank (construction.certified_rows), so no context embeds a generator
    entry: the rank certification embeds each once per process."""

    def __init__(self, spec: CodeSpec, kern: IntKernel, j: int):
        gens = lattice_basis(spec, j)
        r = len(gens)
        n_t, width = gens[0].shape
        numv = np.zeros((r, n_t, width, kern.dim), dtype=np.int64)
        E = exponent_matrix(spec)
        row_base = (j - 1) * n_t
        for gi, g in enumerate(gens):
            for rr in range(n_t):
                for cc in range(width):
                    num, exp = g.entries[rr][cc]
                    if exp != E[row_base + rr][cc]:
                        raise AssertionError("structural exponent mismatch")
                    num = num * kern.entry_scale
                    if num.den != 1:
                        raise ValueError("element is not integral over the basis")
                    numv[gi, rr, cc] = num.num
        self.j = j
        self.r = r
        self.numv = numv
        self._numv_map = SparseMap(numv.reshape(r, -1))
        # entry (g, rr, cc)'s real and imaginary parts, one column each
        self._emb_re_im = certified_rows(spec, j)
        self.emb = self._emb_re_im.view(np.complex128).reshape(r, n_t, width)
        self.emb_err = np.abs(self.emb) * EMB_REL_ERR + 1e-290

    def blocks_float(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n, r) int coefficients -> (n, n_t, width) complex blocks + errors.

        The coefficients are real, so the blocks are the real products
        v @ emb.real and v @ emb.imag, taken in one product against the
        interleaved parts and read back as complex128."""
        v = vecs.astype(np.float64)
        blocks = (v @ self._emb_re_im).view(np.complex128)
        blocks = blocks.reshape((v.shape[0],) + self.emb.shape[1:])
        errs = np.tensordot(np.abs(v), self.emb_err, axes=([1], [0]))
        errs = errs + np.abs(blocks) * EMB_REL_ERR
        return blocks, errs

    def blocks_int(self, vecs: np.ndarray) -> np.ndarray:
        """(n, r) int coefficients -> (n, n_t, width, dim) numerator vectors,
        scaled by the kernel's entry_scale (1 on sigma-stable towers).

        The blocks are numv's SparseMap applied to the coordinate-major
        coefficients; the result is the batch-first view of that (n_t,
        width, dim, n) array.  A dtype=object batch runs on Python ints.  An
        integer batch raises OverflowRisk if the exact bound sum_g
        max|vecs[:, g]| * |numv[g]| on a block coordinate reaches
        INT64_LIMIT; otherwise the map runs in int32 if that bound, the
        coefficients and numv's entries all stay below INT32_LIMIT, and in
        int64 if not."""
        dtype = object
        if vecs.dtype != object:
            ub = _max_abs(vecs, axis=0)
            bound = self._numv_map.bound(ub)
            if max(bound) >= INT64_LIMIT:
                raise OverflowRisk("block coordinates could exceed int64")
            dtype = _width(max(bound + ub + [self._numv_map.top]))
        out = self._numv_map(np.ascontiguousarray(vecs.T, dtype=dtype))
        return out.reshape(self.numv.shape[1:] + (len(vecs),)).transpose(3, 0, 1, 2)


def stack_users(blocks: list[np.ndarray]) -> np.ndarray:
    """Per-user (n, n_t, width[, dim]) arrays -> (n, Un_t, width[, dim]).

    The users are joined batch-last, so the result is the batch-first view
    of a contiguous (Un_t, width[, dim], n) array: det_int_batch's
    coordinate-major transpose of it copies nothing."""
    ndim = blocks[0].ndim
    joined = np.concatenate([b.transpose(*range(1, ndim), 0) for b in blocks])
    return joined.transpose(ndim - 1, *range(ndim - 1))
