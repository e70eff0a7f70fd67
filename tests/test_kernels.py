import random
from fractions import Fraction

import numpy as np
import pytest

from macdecay.construction import assemble_codeword
from macdecay.decay import det_exact
from macdecay.kernels import (
    IntKernel, OverflowRisk, UserTensors,
    coeff_grid, det_float_batch, det_int_batch, det_schedule,
    det_slack_batch, exponent_matrix, grid_size, stack_users,
)
from macdecay.number_field import FieldElem

from util import blocks_float_reference, rand_box, rand_elem

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
        rng = random.Random(113)
        for t in (0, 2):
            S = quartic_kern.sigma_vec_mat(t)
            for _ in range(10):
                x = rand_elem(quartic_tower, rng, 3)
                vec = np.array(x.num, dtype=np.int64)
                assert FieldElem(quartic_tower, vec @ S) == x.apply_sigma(t)

    def test_sigma_matrix_only_for_basis_stable_powers(self, quartic_kern):
        # sigma(theta) has half-integer coordinates on the degree-4 tower, so
        # only sigma-powers stabilizing the basis ring get an integer matrix;
        # sigma^2 = tau does, which is all the relative-norm checks need.
        with pytest.raises(ValueError):
            quartic_kern.sigma_vec_mat(1)

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
        S = golden_kern.sigma_vec_mat(1)
        ub = [3] * golden_kern.dim
        bound = IntKernel.mat_bound(ub, S)
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


class TestBatchedDeterminants:
    def _batch(self, spec, kern, boxes):
        tensors = [UserTensors(spec, kern, j + 1) for j in range(spec.U)]
        blocks = []
        for j, ut in enumerate(tensors):
            vecs = np.array([b.vectors[j] for b in boxes], dtype=np.int64)
            blocks.append(ut.blocks_int(vecs))
        return stack_users(blocks)

    def test_matches_exact_determinant(self, request):
        rng = random.Random(149)
        for spec_name in ALL_SPECS:
            spec = request.getfixturevalue(spec_name)
            kern = IntKernel(spec.tower)
            for size in (1, 3, 200):
                boxes = [rand_box(spec, rng, 2) for _ in range(size)]
                stacked = self._batch(spec, kern, boxes)
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
            slack = det_slack_batch(mats, errs)
            stacked = self._batch(spec, kern, boxes)
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

    def test_user_tensors_reject_wrong_shape(self, golden_spec):
        kern = IntKernel(golden_spec.tower)
        with pytest.raises(ValueError):
            det_int_batch(golden_spec, kern, np.zeros((2, 3, 3, 4), dtype=np.int64))


def test_stack_users_shapes(golden_spec):
    kern = IntKernel(golden_spec.tower)
    a = np.zeros((5, 1, 2, 4), dtype=np.int64)
    b = np.zeros((5, 1, 2, 4), dtype=np.int64)
    assert stack_users([a, b]).shape == (5, 2, 2, 4)
