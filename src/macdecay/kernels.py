"""Batched integer and float fast paths for codeword determinants.

Elements of O_L enter as their integer gamma-coordinates ``FieldElem.num``
over the 2d-element basis mu^b theta^a, with no conversion.  Batches are
coordinate-major: an array of shape (dim, ...) holds coordinate g of every
element in row g, so each arithmetic step is a numpy operation over a whole
batch.  Multiplication runs through the nonzero entries of the tower's
structure tensor only (one multiply-add per entry on the outer product of
the two factors), in int64 and without BLAS.  Every int64 batch is
preceded by an exact overflow audit on per-coordinate magnitude bounds;
every float screen carries a rigorous slack so it can only propose
candidates, never decide a comparison.
"""

from __future__ import annotations

import numpy as np

from .construction import CodeSpec, gamma_basis, lattice_basis
from .number_field import FieldElem, Tower

INT64_LIMIT = 1 << 62
GRID_ROW_CAP = 40_000_000  # largest coefficient grid coeff_grid will build
# covers enclosure radii, float64 conversion and linear-combination rounding
EMB_REL_ERR = 2.0**-44
# covers naive/LAPACK determinant evaluation error, folded into row norms
DET_EVAL_REL = 2.0**-44


class OverflowRisk(ArithmeticError):
    """An int64 batch could exceed 2^62; caller must take the object path."""


class SparseMap:
    """The integer linear map x -> x @ mat on coordinate-major batches.

    x has shape (rows, ...) and the result (cols, ...).  Output coordinate c
    is accumulated from the nonzero entries of column c only, one int64
    multiply-add each; the caller's overflow audit bounds every partial
    sum, since each is a sum of terms the audit counts in absolute value."""

    def __init__(self, mat: np.ndarray):
        self.cols = [
            [(int(g), int(mat[g, c])) for g in np.flatnonzero(mat[:, c])]
            for c in range(mat.shape[1])
        ]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.cols),) + x.shape[1:], dtype=np.int64)
        for acc, terms in zip(out, self.cols):
            for g, w in terms:
                if w == 1:
                    acc += x[g]
                elif w == -1:
                    acc -= x[g]
                else:
                    acc += w * x[g]
        return out


class IntKernel:
    """Integer-coordinate arithmetic of O_L bound to one tower.

    Vectors are the gamma-coordinates of FieldElem numerators; batched
    methods take and return them coordinate-major, shape (dim, ...).  ``mul``
    is the one product: the SparseMap of the tower's structure tensor
    ``mul_tensor`` (gamma_a * gamma_b = sum_c mul_tensor[a, b, c] gamma_c,
    the dense form of ``Tower.mul_terms``) applied to the (dim, dim, ...)
    outer product of its factors.

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
        dim = self.dim
        tens = np.zeros((dim, dim, dim), dtype=np.int64)
        for a, row in enumerate(tower.mul_terms):
            for b, terms in enumerate(row):
                for c, w in terms:
                    tens[a, b, c] = w
        self.mul_tensor = tens
        self._mul_map = SparseMap(tens.reshape(dim * dim, dim))
        self._sigma_cache: dict[int, np.ndarray] = {}
        self._mult_cache: dict = {}
        self._power_cache: dict = {}
        self.entry_scale = tower.entry_scale

    def sigma_vec_mat(self, t: int) -> np.ndarray:
        """Right-multiplication matrix: vecs @ S applies sigma^t.

        Only defined when sigma^t maps the basis ring into itself; otherwise
        ValueError.  tau = sigma^U is integral on every shipped tower, so
        relative-norm checks always have their matrix."""
        t %= self.d
        if t not in self._sigma_cache:
            images = [g.apply_sigma(t) for g in self.gamma]
            if any(x.den != 1 for x in images):
                raise ValueError(f"sigma^{t} does not map the basis ring into itself")
            self._sigma_cache[t] = np.array([x.num for x in images], dtype=np.int64)
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

    def power_maps(self, elem, top: int) -> tuple[list, list]:
        """Right-multiplication matrices of elem^0, ..., elem^top and their
        SparseMaps, built once per kernel and (elem, top)."""
        key = (elem, top)
        if key not in self._power_cache:
            mat = self.mult_vec_mat(elem)
            mats = [np.eye(self.dim, dtype=np.int64)]
            for _ in range(top):
                mats.append(mats[-1] @ mat)
            self._power_cache[key] = (mats, [SparseMap(m) for m in mats])
        return self._power_cache[key]

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Products of coordinate-major batches: (dim, ...) x (dim, ...) ->
        (dim, ...), the trailing axes broadcast as in u * v."""
        outer = u[:, None] * v[None, :]
        return self._mul_map(outer.reshape((self.dim**2,) + outer.shape[2:]))

    def product_bound(self, ub_u, ub_v) -> list[int]:
        """Exact per-coordinate magnitude bound for products, over the
        nonzero terms of the structure tensor."""
        out = [0] * self.dim
        for ua, row in zip(ub_u, self.tower.mul_terms):
            if ua:
                for vb, terms in zip(ub_v, row):
                    if vb:
                        w = ua * vb
                        for c, t in terms:
                            out[c] += abs(t) * w
        return out

    @staticmethod
    def mat_bound(ub, mat) -> list[int]:
        """Magnitude bound after vecs @ mat, exact in Python ints."""
        rows, cols = mat.shape
        return [
            sum(ub[g] * abs(int(mat[g, c])) for g in range(rows)) for c in range(cols)
        ]


def coeff_grid(N: int, length: int) -> np.ndarray:
    """All nonzero integer vectors with entries in [-N, N], lex ascending."""
    if N < 1 or length < 1:
        raise ValueError("N and length must be positive")
    base = 2 * N + 1
    count = base**length
    if count > GRID_ROW_CAP:
        raise MemoryError(f"coefficient grid of {count} rows is too large")
    idx = np.arange(count, dtype=np.int64)
    cols = []
    for pos in range(length):
        scale = base ** (length - 1 - pos)
        cols.append((idx // scale) % base - N)
    grid = np.stack(cols, axis=1)
    zero_row = (count - 1) // 2
    return np.delete(grid, zero_row, axis=0)


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


def det_int_batch(
    spec: CodeSpec, kern: IntKernel, stacked: np.ndarray
) -> tuple[np.ndarray, int]:
    """Exact determinant numerators of a batch of stacked codewords.

    stacked has shape (batch, n, n, dim): integer numerator vectors scaled
    by kern.entry_scale, entry (r, c) meaning (numer / entry_scale) *
    p^(-E[r][c]) with the structural exponents.  Returns (nums, s) with
    det = FieldElem(tower, row, entry_scale) * p^(-s) for each row of nums;
    nums itself carries one factor of entry_scale so it stays integral even
    when the true numerator has denominators over the basis.  Raises
    OverflowRisk if the audited bounds could leave int64.

    The subset DP runs coordinate-major on one transposed copy of stacked;
    a term whose sub-minor is the empty one (= 1) is the entry itself.
    """
    sched = det_schedule(exponent_matrix(spec))
    n = sched.n
    if stacked.shape[1:] != (n, n, kern.dim):
        raise ValueError("stacked batch has wrong shape")
    pmats, pmaps = kern.power_maps(spec.p, sched.max_pad)

    entries = np.ascontiguousarray(stacked.transpose(1, 2, 3, 0))
    ub_entry = np.abs(entries).max(axis=3).tolist()
    ub = {0: [1] + [0] * (kern.dim - 1)}
    dp = {}
    batch = stacked.shape[0]
    for level in sched.steps:
        i = bin(level[0][0]).count("1") - 1
        new_dp = {}
        new_ub = {}
        for mask, terms in level:
            acc = np.zeros((kern.dim, batch), dtype=np.int64)
            bound = [0] * kern.dim
            for c, sign, pad in terms:
                sub = mask ^ (1 << c)
                pb = kern.product_bound(ub_entry[i][c], ub[sub])
                if pad:
                    pb = kern.mat_bound(pb, pmats[pad])
                bound = [x + y for x, y in zip(bound, pb)]
                if any(b >= INT64_LIMIT for b in bound):
                    raise OverflowRisk(
                        f"determinant DP bound exceeds int64 at subset {mask:b}"
                    )
                term = entries[i, c]
                if sub:
                    term = kern.mul(term, dp[sub])
                if pad:
                    term = pmaps[pad](term)
                if sign < 0:
                    acc -= term
                else:
                    acc += term
            new_dp[mask] = acc
            new_ub[mask] = bound
        dp = new_dp
        ub = new_ub
    full = (1 << n) - 1
    nums = dp[full]
    if kern.entry_scale != 1:
        # dp carries entry_scale^n; one factor stays on the output so it
        # remains integral (the true numerator may have basis denominators).
        div = kern.entry_scale ** (n - 1)
        q, r = np.divmod(nums, div)
        if r.any():
            raise AssertionError("determinant fails the entry-scale division")
        nums = q
    return np.ascontiguousarray(nums.T), sched.total_exp


def det_float_batch(mats: np.ndarray) -> np.ndarray:
    """Determinants of a (batch, n, n) complex stack; closed forms for small n."""
    n = mats.shape[-1]
    if n == 1:
        return mats[:, 0, 0]
    if n == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    if n == 3:
        a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2]
        d, e, f = mats[:, 1, 0], mats[:, 1, 1], mats[:, 1, 2]
        g, h, i = mats[:, 2, 0], mats[:, 2, 1], mats[:, 2, 2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(mats)


def det_slack_batch(mats: np.ndarray, errs: np.ndarray) -> np.ndarray:
    """Rigorous bound on |det(true) - det(mats)| given per-entry error bounds.

    Multilinearity in rows: the difference expands into determinants with at
    least one row replaced by its error row, so it is bounded by
    prod(a_r + b_r) - prod(a_r) over row norms a and error norms b.  The
    evaluation error of the float determinant itself is folded into b."""
    a = np.sqrt(np.sum(np.abs(mats) ** 2, axis=2))
    b = np.sqrt(np.sum(errs.astype(np.float64) ** 2, axis=2))
    n = mats.shape[-1]
    b = b + (n * n) * DET_EVAL_REL * a
    slack = np.prod(a + b, axis=1) - np.prod(a, axis=1)
    return slack * (1.0 + 2.0**-30) + 1e-300


class UserTensors:
    """Per-user flattened generator data for batched codeword evaluation."""

    def __init__(self, spec: CodeSpec, kern: IntKernel, j: int):
        gens = lattice_basis(spec, j)
        r = len(gens)
        n_t, width = gens[0].shape
        dim = kern.dim
        numv = np.zeros((r, n_t, width, dim), dtype=np.int64)
        emb = np.zeros((r, n_t, width), dtype=np.complex128)
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
                    enc = g.entry_value(rr, cc).embed(50)
                    emb[gi, rr, cc] = enc.mid()
        self.j = j
        self.r = r
        self.numv = numv
        self.emb = emb
        self.emb_err = np.abs(emb) * EMB_REL_ERR + 1e-290
        # emb's real and imaginary parts interleaved, one column each
        self._emb_re_im = emb.view(np.float64).reshape(r, -1)

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
        scaled by the kernel's entry_scale (1 on sigma-stable towers)."""
        out = np.tensordot(vecs, self.numv, axes=([1], [0]))
        return out


def stack_users(blocks: list[np.ndarray]) -> np.ndarray:
    """Per-user (n, n_t, width[, dim]) arrays -> (n, Un_t, width[, dim])."""
    return np.concatenate(blocks, axis=1)
