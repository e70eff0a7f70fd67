import random
from fractions import Fraction

import numpy as np
import pytest

from macdecay import kernels
from macdecay.construction import CoefficientBox, assemble_codeword
from macdecay.decay import _SearchContext, _exact_stage, det_exact
from macdecay.kernels import (
    INT32_LIMIT, INT64_LIMIT, IntKernel, OverflowRisk, SparseMap,
    UserTensors, coeff_grid, det_float_batch, det_int_batch, det_schedule,
    det_slack_batch, exponent_matrix, grid_rows, grid_size, slack_factors,
    stack_users, _max_abs,
)
from macdecay.number_field import FieldElem

from util import (
    a_priori_peaks, blocks_float_reference, coeff_grid_reference, rand_box,
    rand_elem,
)

ALL_TOWERS = [
    "golden_tower", "cubic_tower", "quartic_tower", "miso_tower",
    "eisenstein_tower",
]
ALL_SPECS = [name.replace("_tower", "_spec") for name in ALL_TOWERS]


@pytest.fixture(scope="module")
def golden_kern(golden_tower):
    return IntKernel(golden_tower)


@pytest.fixture(scope="module")
def quartic_kern(quartic_tower):
    return IntKernel(quartic_tower)


class TestIntKernel:
    def test_vec_round_trip(self, golden_tower):
        rng = random.Random(109)
        for _ in range(30):
            x = rand_elem(golden_tower, rng, 5)
            assert x.den == 1
            assert FieldElem(golden_tower, x.num) == x

    def test_non_integral_rejected(self, golden_kern, golden_tower):
        third = golden_tower.theta() * Fraction(1, 3)
        assert third.den == 3
        with pytest.raises(ValueError):
            golden_kern.mult_vec_mat(third)

    def test_sigma_matrix(self, quartic_kern, quartic_tower):
        # sigma(theta) has half-integer coordinates on the degree-4 tower, so
        # odd sigma-powers carry the denominator 2; tau = sigma^2 has none
        rng = random.Random(113)
        for t, want_den in ((0, 1), (1, 2), (2, 1), (3, 2)):
            S, den = quartic_kern.sigma_vec_mat(t)
            assert den == want_den
            for _ in range(10):
                x = rand_elem(quartic_tower, rng, 3)
                vec = np.array(x.num, dtype=np.int64)
                assert FieldElem(quartic_tower, vec @ S, den) == x.apply_sigma(t)

    def test_entry_scale_detected(self, golden_kern, quartic_kern):
        assert golden_kern.entry_scale == 1
        assert quartic_kern.entry_scale == 2

    def test_mult_matrix(self, quartic_kern, quartic_tower):
        rng = random.Random(127)
        y = rand_elem(quartic_tower, rng, 2, nonzero=True)
        M = quartic_kern.mult_vec_mat(y)
        for _ in range(10):
            x = rand_elem(quartic_tower, rng, 3)
            vec = np.array(x.num, dtype=np.int64)
            assert FieldElem(quartic_tower, vec @ M) == x * y

    @pytest.mark.parametrize("tower_name", ALL_TOWERS)
    def test_mul_matches_field(self, tower_name, request):
        tower = request.getfixturevalue(tower_name)
        kern = IntKernel(tower)
        rng = random.Random(131)
        xs = [rand_elem(tower, rng, 4) for _ in range(16)]
        ys = [rand_elem(tower, rng, 4) for _ in range(16)]
        u = np.array([x.num for x in xs], dtype=np.int64).T
        v = np.array([y.num for y in ys], dtype=np.int64).T
        prod = kern.mul(u, v)
        assert prod.shape == (kern.dim, 16)
        for col, x, y in zip(prod.T, xs, ys):
            assert FieldElem(tower, col) == x * y

    @pytest.mark.parametrize("tower_name", ALL_TOWERS)
    def test_broadcast_mul_matches_field(self, tower_name, request):
        tower = request.getfixturevalue(tower_name)
        kern = IntKernel(tower)
        rng = random.Random(137)
        xs = [rand_elem(tower, rng, 2) for _ in range(5)]
        ys = [rand_elem(tower, rng, 2) for _ in range(4)]
        u = np.array([x.num for x in xs], dtype=np.int64).T
        v = np.array([y.num for y in ys], dtype=np.int64).T
        prod = kern.mul(u[:, :, None], v[:, None, :])
        assert prod.shape == (kern.dim, 5, 4)
        for a, x in enumerate(xs):
            for b, y in enumerate(ys):
                assert FieldElem(tower, prod[:, a, b]) == x * y

    @pytest.mark.parametrize("tower_name", ALL_TOWERS)
    def test_product_slots_reproduce_structure_tensor(self, tower_name, request):
        tower = request.getfixturevalue(tower_name)
        kern = IntKernel(tower)
        dim = kern.dim
        T = np.zeros((dim, dim, dim), dtype=np.int64)
        for a, row in enumerate(tower.mul_terms):
            for b, terms in enumerate(row):
                for c, w in terms:
                    T[a, b, c] = w
        pairs = [ab for slot in kern.slots for ab in slot]
        assert sorted(pairs) == [(a, b) for a in range(dim) for b in range(dim)]
        for slot, row in zip(kern.slots, kern.reduction):
            for a, b in slot:
                assert np.array_equal(T[a, b], row)
        # each gamma_a * gamma_b is some mu^j theta^i, j <= 2 and i <= 2d - 2,
        # and each of those 3 (2d - 1) elements is its own slot
        assert len({tuple(row) for row in kern.reduction}) == len(kern.slots)
        assert len(kern.slots) == 3 * (2 * tower.d - 1)
        rng = np.random.default_rng(139)
        u = rng.integers(-1000, 1001, size=(dim, 3, 50))
        v = rng.integers(-1000, 1001, size=(dim, 1, 50))
        outer = u[:, None] * v[None, :]
        assert np.array_equal(kern.mul(u, v), np.einsum("abc,ab...->c...", T, outer))

    def test_product_bound_sound(self, quartic_kern, quartic_tower):
        rng = random.Random(139)
        for _ in range(20):
            x = rand_elem(quartic_tower, rng, 6)
            y = rand_elem(quartic_tower, rng, 6)
            ux = [abs(c) for c in x.num]
            uy = [abs(c) for c in y.num]
            bound = quartic_kern.product_bound(ux, uy)
            actual = (x * y).num
            assert all(abs(a) <= b for a, b in zip(actual, bound))

    def test_mat_bound_sound(self, golden_kern):
        S, _ = golden_kern.sigma_vec_mat(1)
        ub = [3] * golden_kern.dim
        bound = SparseMap(S).bound(ub)
        vec = np.full(golden_kern.dim, 3, dtype=np.int64)
        assert all(abs(int(v)) <= b for v, b in zip(vec @ S, bound))


class TestGrids:
    def test_small_grid_frozen(self):
        grid = coeff_grid(1, 2)
        expected = [
            (-1, -1), (-1, 0), (-1, 1), (0, -1),
            (0, 1), (1, -1), (1, 0), (1, 1),
        ]
        assert [tuple(r) for r in grid] == expected

    def test_zero_row_excluded(self):
        for N, length in ((1, 3), (2, 2), (3, 1)):
            grid = coeff_grid(N, length)
            assert grid.shape == (grid_size(N, length), length)
            assert not (grid == 0).all(axis=1).any()

    def test_lexicographic_order(self):
        grid = coeff_grid(2, 3)
        rows = [tuple(r) for r in grid]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_grid_matches_reference(self, spec_name, request):
        # the np.indices grid against the floor-division form on every
        # fixture's coefficient length, golden up to the benchmark's N = 8;
        # both refuse miso's 18-coordinate grid
        r = request.getfixturevalue(spec_name).r_per_user
        for N in range(1, 9 if spec_name == "golden_spec" else 3):
            try:
                want = coeff_grid_reference(N, r)
            except MemoryError:
                with pytest.raises(MemoryError):
                    coeff_grid(N, r)
                continue
            assert np.array_equal(coeff_grid(N, r), want)

    def test_validation(self):
        with pytest.raises(ValueError):
            coeff_grid(0, 2)
        with pytest.raises(MemoryError):
            coeff_grid(10, 9)

    def test_grid_size(self):
        assert grid_size(1, 4) == 80
        assert grid_size(2, 4) == 624
        assert grid_size(1, 16) == 3**16 - 1


class TestSchedule:
    def test_exponent_matrix_diagonal_blocks(self, golden_spec, quartic_spec):
        assert exponent_matrix(golden_spec) == [[1, 0], [0, 1]]
        E = exponent_matrix(quartic_spec)
        for r in range(4):
            for c in range(4):
                expected = quartic_spec.k if r // 2 == c // 2 else 0
                assert E[r][c] == expected

    def test_total_exponent(self, golden_spec, quartic_spec, cubic_spec):
        # the alignment schedule clears exactly k * U * n_t powers of p
        assert det_schedule(exponent_matrix(golden_spec)).total_exp == 2
        assert det_schedule(exponent_matrix(quartic_spec)).total_exp == 8
        assert det_schedule(exponent_matrix(cubic_spec)).total_exp == 3

    def test_pads_nonnegative(self, quartic_spec):
        sched = det_schedule(exponent_matrix(quartic_spec))
        assert sched.max_pad >= 0
        for level in sched.steps:
            for _, terms in level:
                for _, sign, pad in terms:
                    assert sign in (1, -1)
                    assert 0 <= pad <= sched.max_pad


def stacked_blocks(spec, kern, boxes):
    """The stacked integer blocks of a list of boxes, as the exact stage
    builds them."""
    blocks = []
    for j in range(spec.U):
        vecs = np.array([b.vectors[j] for b in boxes], dtype=np.int64)
        blocks.append(UserTensors(spec, kern, j + 1).blocks_int(vecs))
    return stack_users(blocks)


class TestBatchedDeterminants:
    def test_matches_exact_determinant(self, request):
        rng = random.Random(149)
        for spec_name in ALL_SPECS:
            spec = request.getfixturevalue(spec_name)
            kern = IntKernel(spec.tower)
            for size in (1, 3, 200):
                boxes = [rand_box(spec, rng, 2) for _ in range(size)]
                stacked = stacked_blocks(spec, kern, boxes)
                nums, s = det_int_batch(spec, kern, stacked)
                assert nums.shape == (size, kern.dim)
                assert s == det_schedule(exponent_matrix(spec)).total_exp
                for row, box in zip(nums, boxes):
                    num_ref, s_ref = det_exact(assemble_codeword(spec, box))
                    assert s_ref == s
                    num = FieldElem(spec.tower, row, kern.entry_scale)
                    assert num == num_ref, (spec_name, box)

    def test_overflow_risk_raised(self, quartic_spec):
        kern = IntKernel(quartic_spec.tower)
        ut = UserTensors(quartic_spec, kern, 1)
        big = np.full((1, quartic_spec.r_per_user), 2**40, dtype=np.int64)
        blocks = ut.blocks_int(big)
        stacked = stack_users([blocks, blocks])
        with pytest.raises(OverflowRisk):
            det_int_batch(quartic_spec, kern, stacked)

    def test_float_screen_brackets_exact(self, request):
        from macdecay.decay import det_value

        rng = random.Random(151)
        for spec_name in ALL_SPECS:
            spec = request.getfixturevalue(spec_name)
            kern = IntKernel(spec.tower)
            tensors = [UserTensors(spec, kern, j + 1) for j in range(spec.U)]
            boxes = [rand_box(spec, rng, 2) for _ in range(40)]
            fblocks, ferrs = [], []
            for j, ut in enumerate(tensors):
                vecs = np.array([b.vectors[j] for b in boxes], dtype=np.int64)
                fb, fe = ut.blocks_float(vecs)
                fblocks.append(fb)
                ferrs.append(fe)
            mats = stack_users(fblocks)
            errs = stack_users(ferrs)
            approx = det_float_batch(mats)
            slack = det_slack_batch(slack_factors(mats, errs, mats.shape[1]))
            stacked = stacked_blocks(spec, kern, boxes)
            nums, s = det_int_batch(spec, kern, stacked)
            for a, sl, num, box in zip(approx, slack, nums, boxes):
                num = FieldElem(spec.tower, num, kern.entry_scale)
                exact = det_value(spec, num, s).embed(70).mid()
                assert abs(a - exact) <= sl + 1e-25, (spec_name, box.vectors)

    def test_blocks_float_matches_complex_tensordot(self, request):
        # The two forms round alike only where BLAS sums them in the same
        # order.  Every code is held to the error bound the screen carries;
        # the golden code, whose screen counts the benchmark pins, to the bit.
        rng = np.random.default_rng(167)
        for spec_name in ALL_SPECS:
            spec = request.getfixturevalue(spec_name)
            kern = IntKernel(spec.tower)
            for j in range(spec.U):
                ut = UserTensors(spec, kern, j + 1)
                batches = [coeff_grid(1, ut.r)] if ut.r <= 6 else []
                for N, rows in ((1, 1), (3, 7), (2, 4096), (2**31, 1000)):
                    batches.append(rng.integers(-N, N + 1, (rows, ut.r)))
                for vecs in batches:
                    blocks, errs = ut.blocks_float(vecs)
                    want_blocks, want_errs = blocks_float_reference(ut, vecs)
                    assert blocks.dtype == np.complex128
                    assert blocks.shape == want_blocks.shape
                    assert np.all(np.abs(blocks - want_blocks) <= errs), spec_name
                    assert np.all(np.abs(errs - want_errs) <= 1e-12 * errs)
                    if spec_name == "golden_spec":
                        assert np.array_equal(blocks, want_blocks)
                        assert np.array_equal(errs, want_errs)

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_blocks_int_matches_tensordot(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        kern = IntKernel(spec.tower)
        rng = np.random.default_rng(173)
        for j in range(spec.U):
            ut = UserTensors(spec, kern, j + 1)
            batches = [coeff_grid(1, ut.r)] if ut.r <= 6 else []
            for N, rows in ((1, 1), (3, 7), (2, 4096), (2**40, 100), (1, 0)):
                batches.append(rng.integers(-N, N + 1, (rows, ut.r)))
            for vecs in batches:
                want = np.tensordot(vecs, ut.numv, axes=([1], [0]))
                got = ut.blocks_int(vecs)
                assert got.shape == want.shape
                assert np.array_equal(got, want), spec_name

    def test_blocks_int_overflow_audit(self, quartic_spec):
        kern = IntKernel(quartic_spec.tower)
        ut = UserTensors(quartic_spec, kern, 1)
        vecs = np.zeros((3, ut.r), dtype=np.int64)
        # np.abs(-2**63) is -2**63 in int64; the audit must still see 2**63
        vecs[1, 4] = -(2**63)
        with pytest.raises(OverflowRisk):
            ut.blocks_int(vecs)
        # the bound is |c| * max|numv[4]|: the least c reaching the limit
        # raises, the next smaller does not
        c = -(-INT64_LIMIT // int(np.abs(ut.numv[4]).max()))
        vecs[1, 4] = -c
        with pytest.raises(OverflowRisk):
            ut.blocks_int(vecs)
        vecs[1, 4] = 1 - c
        assert np.array_equal(
            ut.blocks_int(vecs), np.tensordot(vecs, ut.numv, axes=([1], [0]))
        )

    def test_blocks_int_width_edge(self, quartic_spec):
        # the int32 audit mirrors the int64 one: the least c whose bound
        # |c| * max|numv[4]| reaches INT32_LIMIT runs in int64, the next
        # smaller in int32, and both are the exact blocks
        kern = IntKernel(quartic_spec.tower)
        ut = UserTensors(quartic_spec, kern, 1)
        vecs = np.zeros((3, ut.r), dtype=np.int64)
        c = -(-INT32_LIMIT // int(np.abs(ut.numv[4]).max()))
        for coeff, dtype in ((-c, np.int64), (1 - c, np.int32)):
            vecs[1, 4] = coeff
            got = ut.blocks_int(vecs)
            assert got.dtype == dtype
            assert np.array_equal(got, np.tensordot(vecs, ut.numv, axes=([1], [0])))

    def test_stacked_blocks_are_coordinate_major(self, request):
        for spec_name in ALL_SPECS:
            spec = request.getfixturevalue(spec_name)
            kern = IntKernel(spec.tower)
            vecs = np.ones((5, spec.r_per_user), dtype=np.int64)
            stacked = stack_users(
                [UserTensors(spec, kern, j + 1).blocks_int(vecs) for j in range(spec.U)]
            )
            assert stacked.shape == (5, spec.U * spec.n_t, spec.U * spec.n_t, kern.dim)
            # det_int_batch's transpose of it copies nothing
            assert stacked.transpose(1, 2, 3, 0).flags.c_contiguous, spec_name

    def test_user_tensors_reject_wrong_shape(self, golden_spec):
        kern = IntKernel(golden_spec.tower)
        with pytest.raises(ValueError):
            det_int_batch(golden_spec, kern, np.zeros((2, 3, 3, 4), dtype=np.int64))


def test_stack_users_shapes(golden_spec):
    kern = IntKernel(golden_spec.tower)
    a = np.zeros((5, 1, 2, 4), dtype=np.int64)
    b = np.zeros((5, 1, 2, 4), dtype=np.int64)
    assert stack_users([a, b]).shape == (5, 2, 2, 4)


def test_grid_rows_slice_coeff_grid():
    # slices of any size, the zero vector's row among them, join into the
    # whole grid
    for N, length in ((1, 1), (1, 3), (2, 2), (1, 4)):
        full = coeff_grid(N, length)
        for step in (1, 5, 40, full.shape[0]):
            parts = [
                grid_rows(N, length, start, min(start + step, full.shape[0]))
                for start in range(0, full.shape[0], step)
            ]
            assert np.array_equal(np.concatenate(parts), full)


def test_det_float_batch_closed_forms_match_lapack():
    # the closed forms up to n = 4, n = 4 the Laplace expansion of rows 0-1
    # against rows 2-3, on random complex stacks of every scale
    rng = np.random.default_rng(191)
    for n in range(1, 5):
        for scale in (1e-3, 1.0, 1e5):
            mats = scale * (
                rng.normal(size=(500, n, n)) + 1j * rng.normal(size=(500, n, n))
            )
            got = det_float_batch(mats)
            want = np.linalg.det(mats)
            norms = np.prod(np.sqrt((np.abs(mats) ** 2).sum(axis=2)), axis=1)
            assert got.shape == (500,)
            assert np.all(np.abs(got - want) <= 1e-13 * norms), n


def record_mul_dtypes(monkeypatch) -> list:
    """Wrap IntKernel.mul; the returned list receives the dtype of every
    product it runs, in call order."""
    seen = []
    mul = IntKernel.mul

    def recorded(self, u, v):
        seen.append(np.result_type(u, v))
        return mul(self, u, v)

    monkeypatch.setattr(IntKernel, "mul", recorded)
    return seen


def record_subset_peaks(monkeypatch) -> dict:
    """Wrap det_int_batch's per-subset audit; the returned dict receives
    each audited subset's peak, by column mask."""
    peaks = {}
    subset_peak = kernels._subset_peak

    def recorded(kern, pmaps, ub_row, ub, mask, terms):
        peaks[mask] = subset_peak(kern, pmaps, ub_row, ub, mask, terms)
        return peaks[mask]

    monkeypatch.setattr(kernels, "_subset_peak", recorded)
    return peaks


def product_masks(spec) -> list[int]:
    """The subset mask of every product det_int_batch runs, in call order."""
    sched = det_schedule(exponent_matrix(spec))
    return [
        mask
        for level in sched.steps
        for mask, terms in level
        for col, _, _ in terms
        if mask ^ (1 << col)
    ]


def assert_exact(spec, kern, nums, s, boxes):
    """Each row of det_int_batch's nums is det_exact's scaled numerator."""
    for row, box in zip(nums.tolist(), boxes):
        num, s_ref = det_exact(assemble_codeword(spec, box))
        assert s == s_ref
        assert row == list((num * kern.entry_scale).num), box


def scaled_boxes(boxes, scales):
    """The boxes with user j's coefficients times scales[j]."""
    return [
        CoefficientBox(
            tuple(N * c for N, c in zip(box.bounds, scales)),
            tuple(tuple(c * x for x in v) for v, c in zip(box.vectors, scales)),
        )
        for box in boxes
    ]


class TestIntegerWidths:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_max_abs_reads_every_width_exactly(self, dtype):
        # abs wraps the least value to itself; read unsigned, it is 2**31 or
        # 2**63, and neighbouring entries never merge into one word
        least = int(np.iinfo(dtype).min)
        x = np.array([[least, 3, 0], [-5, 7, 0]], dtype=dtype)
        assert _max_abs(x, axis=0) == [-least, 7, 0]
        # the DP audit's axis: the last of a 4-d array
        entries = np.stack([x, -x])[None].transpose(0, 1, 3, 2)
        assert _max_abs(entries, axis=3) == [[[-least, 7, 0], [-least, 7, 0]]]
        assert _max_abs(np.zeros((2, 0), dtype=dtype), axis=1) == [0, 0]
        assert _max_abs(np.zeros((0, 3), dtype=dtype), axis=0) == [0, 0, 0]

    def test_dp_width_edge(self, cubic_spec, monkeypatch):
        # user 1's coefficients scaled by c scale every subset's measured
        # peak: one below the least c whose largest peak reaches INT32_LIMIT
        # every product runs in int32, at that c exactly the subsets the
        # measured audit widens run in int64, and both batches give
        # det_exact's numerators, in int64
        spec = cubic_spec
        kern = IntKernel(spec.tower)
        rng = random.Random(263)
        boxes = [rand_box(spec, rng, 2) for _ in range(4)]
        masks = product_masks(spec)
        peaks = record_subset_peaks(monkeypatch)

        def run(c):
            peaks.clear()
            scaled = scaled_boxes(boxes, (c,) + (1,) * (spec.U - 1))
            nums, s = det_int_batch(spec, kern, stacked_blocks(spec, kern, scaled))
            return nums, s, scaled

        def top(c):
            run(c)
            return max(peaks.values())

        lo, hi = 1, 2**20
        assert top(lo) < INT32_LIMIT <= top(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if top(mid) < INT32_LIMIT:
                lo = mid
            else:
                hi = mid
        seen = record_mul_dtypes(monkeypatch)
        for c in (lo, hi):
            seen.clear()
            nums, s, scaled = run(c)
            assert nums.dtype == np.int64
            wide = {mask for mask, peak in peaks.items() if peak >= INT32_LIMIT}
            if c == lo:
                assert wide == set() and set(seen) == {np.dtype(np.int32)}
            else:
                assert wide and np.dtype(np.int64) in seen
                # the subsets that run in int64 are those the audit widens
                assert seen == [
                    np.dtype(np.int64 if mask in wide else np.int32) for mask in masks
                ]
            assert_exact(spec, kern, nums, s, scaled)

    def test_measured_audit_is_tighter_than_a_priori(self, cubic_spec, monkeypatch):
        # user 1 scaled by c in one box and user 2 in the other: the
        # per-coordinate maxima of row 1's entries and of the size-1
        # sub-minors (row 0's entries) sit in different boxes, so the a
        # priori bound of a size-2 sub-minor is about c^2 while its measured
        # size is about c.  The full subset's a priori peak reaches
        # INT32_LIMIT, its measured one does not, and it runs in int32 with
        # exact numerators.
        spec = cubic_spec
        kern = IntKernel(spec.tower)
        rng = random.Random(271)
        base = [rand_box(spec, rng, 2) for _ in range(2)]
        c = 2**8
        boxes = scaled_boxes(base[:1], (c, 1, 1)) + scaled_boxes(base[1:], (1, c, 1))
        stacked = stacked_blocks(spec, kern, boxes)
        full = (1 << spec.U * spec.n_t) - 1
        peaks = record_subset_peaks(monkeypatch)
        seen = record_mul_dtypes(monkeypatch)
        nums, s = det_int_batch(spec, kern, stacked)
        a_priori = a_priori_peaks(spec, kern, stacked)
        assert peaks[full] < INT32_LIMIT <= a_priori[full]
        assert all(peaks[mask] <= peak for mask, peak in a_priori.items())
        assert [t for t, m in zip(seen, product_masks(spec)) if m == full] == [
            np.dtype(np.int32)
        ] * spec.U * spec.n_t
        assert_exact(spec, kern, nums, s, boxes)

    def test_real_level3_past_int32_runs_in_int64(self, quartic_spec, monkeypatch):
        # coefficients in [-32, 32]: some size-3 sub-minors really pass
        # INT32_LIMIT (read from the same DP on Python ints), and each of
        # them runs in int64; the numerators are exact
        spec = quartic_spec
        kern = IntKernel(spec.tower)
        rng = random.Random(277)
        boxes = [rand_box(spec, rng, 32) for _ in range(6)]
        stacked = stacked_blocks(spec, kern, boxes)
        masks = product_masks(spec)
        full = (1 << spec.U * spec.n_t) - 1
        sizes = []
        mul = IntKernel.mul

        def sized(self, u, v):
            sizes.append(int(np.abs(v).max()))
            return mul(self, u, v)

        monkeypatch.setattr(IntKernel, "mul", sized)
        det_int_batch(spec, kern, stacked.astype(object))
        monkeypatch.undo()
        # a last-level product's second factor is the size-3 sub-minor
        # full ^ (1 << col)
        sched = det_schedule(exponent_matrix(spec))
        level3 = [full ^ (1 << col) for col, _, _ in sched.steps[-1][0][1]]
        real = dict(zip(level3, sizes[-len(level3):]))
        past = {mask for mask, size in real.items() if size >= INT32_LIMIT}
        assert past and past != set(level3)
        seen = record_mul_dtypes(monkeypatch)
        nums, s = det_int_batch(spec, kern, stacked)
        for mask in past:
            assert {t for t, m in zip(seen, masks) if m == mask} == {np.dtype(np.int64)}
        assert_exact(spec, kern, nums, s, boxes)

    def test_overflow_risk_raised_partway(self, quartic_spec, monkeypatch):
        # coefficients scaled to [-512, 512]: the subsets of sizes 1-3 pass
        # their audits and run, the full subset's audit refuses int64, and
        # _exact_stage's object rerun gives the exact numerators
        spec = quartic_spec
        kern = IntKernel(spec.tower)
        rng = random.Random(281)
        boxes = scaled_boxes([rand_box(spec, rng, 2) for _ in range(3)], (256, 256))
        stacked = stacked_blocks(spec, kern, boxes)
        masks = product_masks(spec)
        full = (1 << spec.U * spec.n_t) - 1
        seen = record_mul_dtypes(monkeypatch)
        with pytest.raises(OverflowRisk, match=f"subset {full:b}$"):
            det_int_batch(spec, kern, stacked)
        assert len(seen) == len([m for m in masks if m != full])
        monkeypatch.undo()
        ctx = _SearchContext(spec)
        vecs = [np.array([b.vectors[j] for b in boxes]) for j in range(spec.U)]
        nums, s, fixed = _exact_stage(ctx, vecs)
        assert nums.dtype == object and fixed.all()
        assert_exact(spec, kern, nums, s, boxes)

    @pytest.mark.parametrize(
        "spec_name, levels",
        [
            # per level of the DP, the dtype of each product it runs
            ("cubic_spec", [[], [np.int32] * 6, [np.int32] * 3]),
            ("quartic_spec", [[], [np.int32] * 12, [np.int32] * 12, [np.int64] * 4]),
        ],
    )
    def test_rank_sweep_widths_frozen(self, spec_name, levels, request, monkeypatch):
        # a rank-sweep batch: SUB_BATCH boxes with coefficients in [-2, 2]
        spec = request.getfixturevalue(spec_name)
        kern = IntKernel(spec.tower)
        rng = np.random.default_rng(269)
        vecs = rng.integers(-2, 3, (16384, spec.r_per_user))
        blocks = [UserTensors(spec, kern, j + 1).blocks_int(vecs) for j in range(spec.U)]
        assert {b.dtype for b in blocks} == {np.dtype(np.int32)}
        seen = record_mul_dtypes(monkeypatch)
        nums, _ = det_int_batch(spec, kern, stack_users(blocks))
        assert nums.dtype == np.int64
        assert seen == [np.dtype(t) for level in levels for t in level]
