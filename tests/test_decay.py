import json
import math
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from macdecay import decay, kernels
from macdecay.construction import (
    CodeSpec, CoefficientBox, assemble_codeword, build_M, codeword_from_coeffs,
    gamma_basis,
)
from macdecay.decay import (
    ALL_USERS, CSV_HEADER, EXHAUSTIVE, FIRST_USER, SAMPLED, BudgetExceeded,
    DecayReport, RankReport, abs_sq_of_det, curve_csv_text, curve_json_obj,
    decay_curve, det_exact, det_value, fit_decay_exponent, min_abs_det,
    naive_min_abs_det, orbit_representatives, orbit_units,
    rank_criterion_check, two_user_box_scan, two_user_singularity_test,
    valuation_split_check, zero_det_witness_2user,
    _laplace_det,
)
from macdecay.kernels import IntKernel, OverflowRisk, coeff_grid, grid_size
from macdecay.number_field import FieldElem
from macdecay.quadratic import QuadElem, RingTag

from util import draw_samples_reference, rand_box


ALL_SPECS = [
    "golden_spec", "cubic_spec", "quartic_spec", "miso_spec", "eisenstein_spec",
]


def coords_str(fe):
    return [(str(q.a), str(q.b)) for q in fe.coords]


def random_boxes(spec, rng, count, bound=2):
    out = []
    for _ in range(count):
        out.append(rand_box(spec, rng, bound))
    return out


# ---------------------------------------------------------------------------
# exact determinants


class TestExactDeterminants:
    def test_all_ones_golden_oracle(self, golden_spec):
        box = CoefficientBox((1, 1), ((1, 1, 1, 1), (1, 1, 1, 1)))
        num, s = det_exact(assemble_codeword(golden_spec, box))
        assert s == 2
        assert coords_str(num) == [("-4", "-2"), ("0", "0")]
        absq = abs_sq_of_det(golden_spec, num, s)
        assert [str(c) for c in absq.coords] == ["5", "0"]
        val = det_value(golden_spec, num, s)
        assert coords_str(val) == [("-1", "2"), ("0", "0")]
        lo, hi = absq.sqrt_bounds(60)
        assert float((lo + hi) / 2) == pytest.approx(math.sqrt(5), rel=1e-12)

    def test_matches_cofactor_expansion(self, request):
        rng = random.Random(211)
        for spec_name in ALL_SPECS:
            spec = request.getfixturevalue(spec_name)
            for _ in range(6):
                box = rand_box(spec, rng, 2)
                A = assemble_codeword(spec, box)
                num, s = det_exact(A)
                num2, s2 = _laplace_det(A)
                assert det_value(spec, num, s) == det_value(spec, num2, s2)
                assert abs_sq_of_det(spec, num, s) == abs_sq_of_det(spec, num2, s2)

    def test_numerator_fixed_by_tau(self, golden_spec, cubic_spec, quartic_spec):
        rng = random.Random(223)
        for spec in (golden_spec, cubic_spec, quartic_spec):
            for _ in range(4):
                box = rand_box(spec, rng, 2)
                num, _ = det_exact(assemble_codeword(spec, box))
                assert num.apply_sigma(spec.U) == num

    def test_nonsquare_rejected(self, golden_spec):
        block = codeword_from_coeffs(golden_spec, 1, (1, 0, 0, 0))
        assert block.shape == (1, 2)
        with pytest.raises(ValueError):
            det_exact(block)


# ---------------------------------------------------------------------------
# valuation bounds for single-block determinants


def draw_user_data(spec, rng, bound=2):
    basis = gamma_basis(spec.tower)
    xs = []
    for _ in range(spec.n_t):
        acc = spec.tower.zero()
        for b in basis:
            c = rng.randint(-bound, bound)
            if c:
                acc = acc + b * c
        xs.append(acc)
    return xs


def min_valuation(xs, p):
    vals = [x.valuation(p) for x in xs if x]
    return min(vals) if vals else math.inf


class TestBlockValuationBounds:
    @pytest.mark.parametrize("spec_name", ["cubic_spec", "quartic_spec", "miso_spec"])
    def test_min_valuation_zero_caps_determinant(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        p = spec.p
        rng = random.Random(227)
        done = 0
        while done < 20:
            xs = draw_user_data(spec, rng)
            if min_valuation(xs, p) != 0:
                continue
            num, s = det_exact(build_M(spec, xs))
            assert s == 0
            assert num, "determinant must be nonzero when min valuation is 0"
            assert num.valuation(p) <= spec.n_t - 1
            done += 1

    def test_leading_slot_pins_valuation_two_antennas(self, quartic_spec):
        # first slot divisible by p, second slot a p-unit -> valuation exactly 1
        p = quartic_spec.p
        rng = random.Random(229)
        done = 0
        while done < 8:
            y, x2 = draw_user_data(quartic_spec, rng)
            x1 = y * p
            if not x2 or x2.valuation(p) != 0:
                continue
            num, s = det_exact(build_M(quartic_spec, [x1, x2]))
            assert s == 0
            assert num.valuation(p) == 1
            done += 1

    def test_leading_slot_pins_valuation_three_antennas(self, miso_spec):
        p = miso_spec.p
        rng = random.Random(233)
        done2 = done3 = 0
        while done2 < 8 or done3 < 8:
            a, b, c = draw_user_data(miso_spec, rng)
            if done2 < 8:
                x2 = b if b and b.valuation(p) == 0 else None
                if x2 is not None:
                    num, s = det_exact(build_M(miso_spec, [a * p, x2, c]))
                    assert s == 0
                    assert num.valuation(p) == 1
                    done2 += 1
            if done3 < 8:
                x3 = c if c and c.valuation(p) == 0 else None
                if x3 is not None:
                    num, s = det_exact(build_M(miso_spec, [a * p, b * p, x3]))
                    assert s == 0
                    assert num.valuation(p) == 2
                    done3 += 1

    def test_zero_slot_counts_as_divisible(self, miso_spec):
        # v(0) is infinite, so a zero leading slot still fits the pattern
        p = miso_spec.p
        one = miso_spec.tower.one()
        zero = miso_spec.tower.zero()
        num, s = det_exact(build_M(miso_spec, [zero, one, zero]))
        assert s == 0
        assert num.valuation(p) == 1


# ---------------------------------------------------------------------------
# rank criterion sweeps


class TestRankCriterion:
    def test_random_sweeps_pass(self, golden_spec, cubic_spec, quartic_spec):
        rng = random.Random(239)
        for spec, count in ((golden_spec, 400), (cubic_spec, 200), (quartic_spec, 200)):
            report = rank_criterion_check(spec, random_boxes(spec, rng, count))
            assert report.total == count
            assert report.passed
            assert report.zero_failures == [] and report.tau_failures == []

    def test_inactive_user_rejected(self, golden_spec):
        box = CoefficientBox((1, 1), ((1, 0, 0, 0), (0, 0, 0, 0)))
        with pytest.raises(ValueError):
            rank_criterion_check(golden_spec, [box])
        good = CoefficientBox((1, 1), ((1, 0, 0, 0), (0, 1, 0, 0)))
        # the first SUB_BATCH boxes are swept before the bad one is read
        with pytest.raises(ValueError, match="every user active"):
            rank_criterion_check(golden_spec, [good] * decay.SUB_BATCH + [box])
        misshapen = [
            CoefficientBox((1, 1), ((1, 0, 0), (0, 1, 0))),
            CoefficientBox((1, 1), ((1, 0, 0, 0), (0, 1, 0))),
            CoefficientBox((1, 1), ((1, 0, 0, 0, 1), (0, 1, 0, 0, 1))),
            CoefficientBox((1, 1, 1), ((1, 0, 0, 0),) * 3),
        ]
        for bad in misshapen:
            for boxes in ([bad], [good, bad]):
                with pytest.raises(ValueError, match="vectors of length 4"):
                    rank_criterion_check(golden_spec, boxes)

    def test_p_scaled_data_keeps_full_rank(self, golden_spec):
        # multiplying every user's data by p leaves determinants nonzero and
        # pushes their valuations up; the sweep must still certify both checks
        kern = IntKernel(golden_spec.tower)
        pmat = kern.mult_vec_mat(golden_spec.p)
        rng = random.Random(241)
        boxes = []
        for _ in range(50):
            plain = rand_box(golden_spec, rng, 2)
            vecs = []
            for v in plain.vectors:
                scaled = np.array(v, dtype=np.int64) @ pmat
                vecs.append(tuple(int(c) for c in scaled))
            bound = max(1, max(abs(c) for v in vecs for c in v))
            boxes.append(CoefficientBox((bound,) * golden_spec.U, tuple(vecs)))
        report = rank_criterion_check(golden_spec, boxes)
        assert report.passed and report.total == 50
        num, _ = det_exact(assemble_codeword(golden_spec, boxes[0]))
        assert num.valuation(golden_spec.p) >= golden_spec.U

    @pytest.mark.parametrize(
        "module", [kernels, decay], ids=["dp-audit", "tau-guard"]
    )
    def test_overflow_fallback_matches_int64(
        self, module, golden_spec, cubic_spec, quartic_spec, monkeypatch
    ):
        rng = random.Random(243)
        sizes = ((golden_spec, 40), (cubic_spec, 20), (quartic_spec, 10))
        sweeps = [(spec, random_boxes(spec, rng, n)) for spec, n in sizes]
        wants = [rank_criterion_check(spec, boxes) for spec, boxes in sweeps]
        exact_calls = []

        def counting_det_exact(A):
            exact_calls.append(A)
            return det_exact(A)

        # kernels: the DP audit fails; decay: the tau-product guard fails
        monkeypatch.setattr(module, "INT64_LIMIT", 1)
        monkeypatch.setattr(decay, "det_exact", counting_det_exact)
        for (spec, boxes), want in zip(sweeps, wants):
            exact_calls.clear()
            got = rank_criterion_check(spec, boxes)
            assert len(exact_calls) == len(boxes)  # the object path decided
            assert got == want

    def test_report_passed_property(self, golden_spec):
        box = CoefficientBox((1, 1), ((1, 0, 0, 0), (1, 0, 0, 0)))
        assert RankReport(3, [], []).passed
        assert not RankReport(3, [box], []).passed
        assert not RankReport(3, [], [box]).passed


# ---------------------------------------------------------------------------
# minimum |det| search engine


class TestMinAbsDetEngine:
    def test_exhaustive_unit_box_frozen(self, golden_spec):
        rep = min_abs_det(golden_spec, (1, 1))
        assert rep.D_value == 0.2245139882897927
        assert rep.error_radius < 1e-12
        assert rep.argmin.vectors == ((-1, -1, 0, 0), (-1, -1, 1, 0))
        assert rep.det_p_exponent == 2
        assert coords_str(rep.det_numerator) == [("-1", "1"), ("2", "-1")]
        assert coords_str(rep.exact_det) == [("1/2", "1/2"), ("-1/2", "-1")]
        assert [str(c) for c in rep.abs_sq.coords] == ["7/4", "-11/4"]
        assert rep.evaluated == 6400
        assert rep.mode == EXHAUSTIVE
        assert rep.samples is None and rep.seed is None
        assert rep.bounds == (1, 1)

    def test_growing_boxes_never_increase(self, golden_spec):
        r21 = min_abs_det(golden_spec, (2, 1))
        assert r21.D_value == 0.2245139882897927
        assert r21.argmin.vectors == ((-2, -1, 1, 1), (-1, -1, 0, 0))
        assert r21.evaluated == 49920
        r22 = min_abs_det(golden_spec, (2, 2))
        assert r22.D_value == 0.22061377239704208
        assert r22.argmin.vectors == ((-2, -1, 0, -2), (-2, 1, -1, 0))
        assert r22.evaluated == 389376
        assert r22.D_value <= r21.D_value <= 0.2245139882897927

    def test_worker_count_never_changes_results(self, golden_spec):
        reps = [
            min_abs_det(golden_spec, (2, 1), workers=w) for w in (None, 1, 2, 3)
        ]
        for rep in reps[1:]:
            assert rep.D_value == reps[0].D_value
            assert rep.argmin == reps[0].argmin
            assert rep.abs_sq == reps[0].abs_sq
            assert rep.evaluated == reps[0].evaluated

    def test_sampled_seeded_frozen(self, golden_spec):
        rep = min_abs_det(golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11)
        assert rep.D_value == 0.6350214543637981
        assert rep.argmin.vectors == ((2, 2, -2, -2), (-1, -1, 1, 0))
        assert rep.mode == SAMPLED
        assert rep.samples == 400 and rep.seed == 11
        assert rep.evaluated == 400
        # sampling can only overshoot the exhaustive minimum
        assert rep.D_value >= 0.22061377239704208
        again = min_abs_det(
            golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11, workers=2
        )
        assert again.D_value == rep.D_value and again.argmin == rep.argmin

    def test_budget_guard(self, golden_spec):
        with pytest.raises(BudgetExceeded):
            min_abs_det(golden_spec, (3, 3), budget=1000)
        with pytest.raises(BudgetExceeded):
            min_abs_det(
                golden_spec, (1, 1), mode=SAMPLED, samples=2000, budget=1000
            )

    def test_argument_validation(self, golden_spec):
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (1,))
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (0, 1))
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (1, 1), mode="guess")
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (1, 1), mode=SAMPLED)

    def test_quartic_sampled_search_runs_exact(self, quartic_spec):
        rep = min_abs_det(quartic_spec, (1, 1), mode=SAMPLED, samples=60, seed=5)
        num, s = det_exact(assemble_codeword(quartic_spec, rep.argmin))
        assert det_value(quartic_spec, num, s) == rep.exact_det
        assert abs_sq_of_det(quartic_spec, num, s) == rep.abs_sq

    def test_exact_stage_object_fallback_matches_int64(
        self, golden_spec, monkeypatch
    ):
        boxes = ((2, 1), (1, 2))
        wants = [min_abs_det(golden_spec, b) for b in boxes]
        exact_calls = []

        def counting_det_exact(A):
            exact_calls.append(A)
            return det_exact(A)

        # every int64 determinant batch now fails its overflow audit
        monkeypatch.setattr(kernels, "INT64_LIMIT", 1)
        monkeypatch.setattr(decay, "det_exact", counting_det_exact)
        for bounds, want in zip(boxes, wants):
            exact_calls.clear()
            got = min_abs_det(golden_spec, bounds)
            assert exact_calls  # the object path decided this report
            assert got.D_value == want.D_value
            assert got.argmin == want.argmin
            assert got.det_numerator == want.det_numerator
            assert got.det_p_exponent == want.det_p_exponent
            assert got.evaluated == want.evaluated


class TestNaiveOracle:
    def test_engine_matches_naive_enumeration(self, golden_spec):
        fast = min_abs_det(golden_spec, (1, 1))
        slow = naive_min_abs_det(golden_spec, (1, 1))
        assert slow.D_value == fast.D_value
        assert slow.argmin == fast.argmin
        assert slow.abs_sq == fast.abs_sq
        assert slow.det_numerator == fast.det_numerator
        assert slow.det_p_exponent == fast.det_p_exponent
        assert slow.evaluated == fast.evaluated == 6400


# ---------------------------------------------------------------------------
# unit-orbit reduction of the exhaustive scan


def unit_image(vec, mat):
    """A coefficient vector with every antenna slot's block multiplied by
    the unit whose gamma-basis matrix is mat."""
    dim = mat.shape[0]
    image = np.array(vec, dtype=np.int64).reshape(-1, dim) @ mat
    return tuple(int(c) for c in image.ravel())


class TestOrbitReduction:
    UNITS = {
        RingTag.GAUSSIAN: [(-1, 0), (0, -1), (0, 1)],
        RingTag.EISENSTEIN: [(-1, 0)],
    }

    @pytest.mark.parametrize("spec_name", ["golden_spec", "cubic_spec", "quartic_spec"])
    def test_unit_scales_determinant_by_its_n_t_power(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        tower = spec.tower
        kern = IntKernel(tower)
        units = orbit_units(kern)
        zetas = [QuadElem(x, y, tower.tag) for x, y in self.UNITS[tower.tag]]
        # row 0 of a multiplication matrix is the unit times gamma_0 = 1
        assert [FieldElem(tower, mat[0]) for mat in units] == [
            tower.one() * zeta for zeta in zetas
        ]
        rng = random.Random(307)
        for _ in range(3):
            box = rand_box(spec, rng, 2)
            num, s = det_exact(assemble_codeword(spec, box))
            base = det_value(spec, num, s)
            for j in range(spec.U):
                for mat, zeta in zip(units, zetas):
                    vecs = list(box.vectors)
                    vecs[j] = unit_image(vecs[j], mat)
                    assert max(map(abs, vecs[j])) <= 2  # the box maps onto itself
                    image = CoefficientBox(box.bounds, tuple(vecs))
                    num2, s2 = det_exact(assemble_codeword(spec, image))
                    scale = tower.one() * zeta**spec.n_t
                    assert det_value(spec, num2, s2) == scale * base

    @pytest.mark.parametrize(
        "tower_name, N",
        [("golden_tower", 1), ("golden_tower", 2), ("cubic_tower", 1),
         ("eisenstein_tower", 2)],
    )
    def test_representatives_are_orbit_minima(self, tower_name, N, request):
        tower = request.getfixturevalue(tower_name)
        kern = IntKernel(tower)
        units = orbit_units(kern)
        r = tower.n_t * kern.dim
        grid = coeff_grid(N, r)
        reps = orbit_representatives(grid, N, units)
        assert reps.shape[0] * (len(units) + 1) == grid_size(N, r)
        brute = [
            row
            for row in map(tuple, grid.tolist())
            if row == min([row] + [unit_image(row, mat) for mat in units])
        ]
        assert list(map(tuple, reps.tolist())) == brute

    def test_eisenstein_engine_matches_naive(self, eisenstein_spec):
        fast = min_abs_det(eisenstein_spec, (1, 1))
        slow = naive_min_abs_det(eisenstein_spec, (1, 1))
        assert fast.D_value == slow.D_value
        assert fast.argmin == slow.argmin
        assert fast.abs_sq == slow.abs_sq
        assert fast.det_numerator == slow.det_numerator
        assert fast.det_p_exponent == slow.det_p_exponent
        assert fast.evaluated == slow.evaluated == 6400


# ---------------------------------------------------------------------------
# streamed SAMPLED search


def same_report(a, b):
    """Every field of two reports but the wall time agrees."""
    for field in (
        "bounds", "mode", "samples", "seed", "D_value", "error_radius",
        "argmin", "exact_det", "det_numerator", "det_p_exponent", "abs_sq",
        "evaluated",
    ):
        assert getattr(a, field) == getattr(b, field), field


class RecordingPool(ThreadPoolExecutor):
    """Thread stand-in for ProcessPoolExecutor counting futures submitted
    whose result the caller has not read yet."""

    def __init__(self, max_workers, initializer, initargs):
        # the pool initializer ignores SIGINT, which only the main thread
        # may do; the plain context set-up is all a thread needs
        decay._worker_init(*initargs)
        super().__init__(max_workers=max_workers)
        self.outstanding = 0
        self.peak = 0

    def submit(self, fn, *args):
        fut = super().submit(fn, *args)
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        read = fut.result

        def result(timeout=None):
            self.outstanding -= 1
            return read(timeout)

        fut.result = result
        return fut


class TestSampledStream:
    @pytest.mark.parametrize(
        "spec_name,bounds",
        [
            ("golden_spec", (1, 1)),
            ("golden_spec", (3, 1)),
            ("golden_spec", (2, 2)),
            ("cubic_spec", (2, 1, 3)),
            ("quartic_spec", (1, 1)),
            # 2N + 1 = 9 < 2**4: 7/16 of the attempts are drawn again
            ("golden_spec", (4, 4)),
            # k = 33 and 42 bits: two words per attempt, low word first
            ("golden_spec", (2**31, 4)),
            ("golden_spec", (1, 2**40)),
            # k = 32 (the whole word), 4 and 42 bits
            ("cubic_spec", (2**31 - 1, 4, 2**40)),
        ],
    )
    def test_draw_matches_randint_reference(self, spec_name, bounds, request):
        spec = request.getfixturevalue(spec_name)
        lengths = [spec.r_per_user] * spec.U
        # samples per parsed piece: DRAW_WORDS over the fewest words a
        # sample can read
        least = sum(decay._attempt_words(N) for N in bounds) * spec.r_per_user
        piece = decay.DRAW_WORDS // least
        cases = [(seed, count) for seed in (0, 11, -7, 2**63) for count in (1, 7, 500)]
        cases += [(5, piece - 1), (5, piece), (5, piece + 1), (5, decay.SAMPLE_CHUNK)]
        for seed, count in cases:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = decay._draw_samples(rng, bounds, lengths, count)
            want = draw_samples_reference(ref_rng, bounds, lengths, count)
            assert len(got) == spec.U
            for arr, vecs in zip(got, want):
                assert arr.dtype == np.int64
                assert arr.shape == (count, spec.r_per_user)
                assert arr.tolist() == vecs
            # the same Mersenne Twister words were consumed
            assert rng.getstate() == ref_rng.getstate()

    def test_draw_refuses_bounds_beyond_int64(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            decay._draw_samples(rng, (2**63, 1), [4, 4], 10)
        assert rng.getstate() == state

    def test_draw_memory_is_bounded(self):
        # the output is 2 MiB and a piece's temporaries a few more; parsing
        # a whole 32,768-sample chunk at once allocated about 40 MB
        tracemalloc.start()
        try:
            decay._draw_samples(random.Random(7), (3, 1), [4, 4], decay.SAMPLE_CHUNK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_chunks_concatenate_to_one_draw(self):
        bounds, lengths = (2, 1), [4, 4]
        samples = decay.SAMPLE_CHUNK + 5
        chunks = list(decay._sample_chunks(3, bounds, lengths, samples))
        assert [c[0].shape[0] for c in chunks] == [decay.SAMPLE_CHUNK, 5]
        want = draw_samples_reference(random.Random(3), bounds, lengths, samples)
        for j in range(2):
            assert np.concatenate([c[j] for c in chunks]).tolist() == want[j]

    def test_pool_draws_at_most_one_chunk_ahead(self, golden_spec, monkeypatch):
        want = min_abs_det(golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11)
        pools = []

        def recording_pool(**kwargs):
            pools.append(RecordingPool(**kwargs))
            return pools[-1]

        monkeypatch.setattr(decay, "SAMPLE_CHUNK", 50)
        monkeypatch.setattr(decay, "ProcessPoolExecutor", recording_pool)
        got = min_abs_det(
            golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11, workers=2
        )
        assert len(pools) == 1
        assert pools[0].peak == 2 + 1  # workers + 1, reached and never passed
        assert pools[0].outstanding == 0
        same_report(got, want)

    def test_single_worker_scans_each_chunk_before_the_next_draw(
        self, golden_spec, monkeypatch
    ):
        want = min_abs_det(golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11)
        events = []
        draw, scan = decay._draw_samples, decay._scan_chunk

        def logged_draw(*args):
            events.append("draw")
            return draw(*args)

        def logged_scan(*args):
            events.append("scan")
            return scan(*args)

        monkeypatch.setattr(decay, "SAMPLE_CHUNK", 50)
        monkeypatch.setattr(decay, "_draw_samples", logged_draw)
        monkeypatch.setattr(decay, "_scan_chunk", logged_scan)
        got = min_abs_det(
            golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11, workers=1
        )
        assert events == ["draw", "scan"] * 8
        same_report(got, want)

    @pytest.mark.parametrize(
        "bounds,samples,D_value,argmin",
        [
            ((1, 1), 2000, 0.2245139882897927, ((0, 1, -1, 1), (0, 0, -1, 1))),
            # the frozen point of test_sampled_seeded_frozen
            ((2, 2), 400, 0.6350214543637981, ((2, 2, -2, -2), (-1, -1, 1, 0))),
        ],
    )
    def test_exact_stage_decides_each_numerator_once(
        self, golden_spec, monkeypatch, bounds, samples, D_value, argmin
    ):
        stage, abs_sq = decay._exact_stage, decay.abs_sq_of_det
        candidates, distinct, calls = [], [], []

        def recorded_stage(ctx, vec_arrays):
            nums, s = stage(ctx, vec_arrays)
            candidates.append(len(nums))
            distinct.append(len(set(nums)))
            return nums, s

        def counted_abs_sq(*args):
            calls.append(args)
            return abs_sq(*args)

        monkeypatch.setattr(decay, "_exact_stage", recorded_stage)
        monkeypatch.setattr(decay, "abs_sq_of_det", counted_abs_sq)
        rep = min_abs_det(
            golden_spec, bounds, mode=SAMPLED, samples=samples, seed=11
        )
        chunks = len(candidates)
        assert chunks == 1
        # one call per distinct numerator of a chunk, one per chunk in the merge
        assert len(calls) == sum(distinct) + chunks
        assert rep.D_value == D_value
        assert rep.argmin.vectors == argmin
        assert rep.evaluated == samples


# ---------------------------------------------------------------------------
# decay curves and the fitted exponent


class TestDecayCurve:
    def test_single_point_curve(self, golden_spec):
        curve = decay_curve(golden_spec, 1)
        assert len(curve) == 1
        assert curve[0].bounds == (1, 1)
        assert curve[0].D_value == 0.2245139882897927

    def test_first_user_pattern_grows_one_box(self, golden_spec):
        curve = decay_curve(golden_spec, 2, pattern=FIRST_USER)
        assert [r.bounds for r in curve] == [(1, 1), (2, 1)]
        assert [r.D_value for r in curve] == [
            0.2245139882897927,
            0.2245139882897927,
        ]

    def test_all_users_pattern_grows_every_box(self, golden_spec):
        curve = decay_curve(golden_spec, 2, pattern=ALL_USERS)
        assert [r.bounds for r in curve] == [(1, 1), (2, 2)]
        assert [r.D_value for r in curve] == [
            0.2245139882897927,
            0.22061377239704208,
        ]

    def test_curve_argument_validation(self, golden_spec):
        with pytest.raises(ValueError):
            decay_curve(golden_spec, 0)
        with pytest.raises(ValueError):
            decay_curve(golden_spec, 2, pattern="sideways")


def synthetic_report(golden_spec, N, D, radius=1e-18):
    one = golden_spec.tower.one()
    return DecayReport(
        bounds=(N, 1),
        mode=EXHAUSTIVE,
        samples=None,
        seed=None,
        D_value=D,
        error_radius=radius,
        argmin=CoefficientBox((N, 1), ((1, 0, 0, 0), (1, 0, 0, 0))),
        exact_det=one,
        det_numerator=one,
        det_p_exponent=0,
        abs_sq=one.abs_sq_real(),
        evaluated=1,
        wall_time=0.0,
    )


class TestFitExponent:
    def test_recovers_exact_power_law(self, golden_spec):
        curve = [
            synthetic_report(golden_spec, N, 0.8 * N**-0.75) for N in (1, 2, 4, 8)
        ]
        fit = fit_decay_exponent(curve)
        assert fit["slope"] == pytest.approx(-0.75, abs=1e-12)
        assert fit["intercept"] == pytest.approx(math.log(0.8), abs=1e-12)
        assert fit["residual"] == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self, golden_spec):
        curve = [synthetic_report(golden_spec, N, 0.5) for N in (1, 2)]
        with pytest.raises(ValueError):
            fit_decay_exponent(curve)

    def test_rejects_zero_values(self, golden_spec):
        curve = [
            synthetic_report(golden_spec, 1, 0.5),
            synthetic_report(golden_spec, 2, 0.0),
            synthetic_report(golden_spec, 3, 0.25),
        ]
        with pytest.raises(ValueError):
            fit_decay_exponent(curve)

    def test_rejects_error_dominated_values(self, golden_spec):
        curve = [
            synthetic_report(golden_spec, 1, 0.5),
            synthetic_report(golden_spec, 2, 0.4, radius=0.5),
            synthetic_report(golden_spec, 3, 0.25),
        ]
        with pytest.raises(ValueError):
            fit_decay_exponent(curve)


# ---------------------------------------------------------------------------
# CSV / JSON emission


class TestCurveSerialization:
    def test_csv_layout(self, golden_spec):
        curve = decay_curve(golden_spec, 1)
        text = curve_csv_text(curve)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert fields[0] == "1"
        assert fields[1] == "0.2245139882897927"
        assert fields[3] == EXHAUSTIVE
        assert fields[4] == ""  # exhaustive rows carry no sample count
        assert fields[5] == "-1;-1;0;0;-1;-1;1;0"
        assert fields[6] == ""  # timing never lands in the CSV
        assert text.endswith("\n")

    def test_csv_reruns_byte_identical(self, golden_spec):
        a = curve_csv_text(decay_curve(golden_spec, 1))
        b = curve_csv_text(decay_curve(golden_spec, 1, workers=2))
        assert a == b

    def test_json_object_round_trips_spec(self, golden_spec):
        curve = decay_curve(golden_spec, 1)
        obj = curve_json_obj(golden_spec, curve)
        back = CodeSpec.from_json_dict(obj["spec"])
        assert back.tower.key == golden_spec.tower.key
        assert back.p == golden_spec.p and back.k == golden_spec.k
        pt = obj["points"][0]
        assert pt["bounds"] == [1, 1]
        assert pt["D_value"] == 0.2245139882897927
        assert pt["argmin"] == [[-1, -1, 0, 0], [-1, -1, 1, 0]]
        assert pt["exact_det"]["p_exponent"] == 2
        json.dumps(obj)  # must be serializable as-is


# ---------------------------------------------------------------------------
# two-user singularity criterion, witnesses, box scans


class TestSingularityAndWitness:
    def test_all_ones_is_singular_with_unit_witness(self, golden_tower):
        one = golden_tower.one()
        assert two_user_singularity_test(one, one, one, one)
        w, y = zero_det_witness_2user(one, one, one, one)
        assert w == one and y == one

    def test_norm_matched_family_yields_verified_witness(self, golden_tower):
        th = golden_tower.theta()
        mu = golden_tower.mu_elem()
        one = golden_tower.one()
        quads = [
            (th, th * th.apply_sigma(1), one, th.apply_sigma(1)),
            (mu * th, mu * th * (mu * th).apply_sigma(1), one, (mu * th).apply_sigma(1)),
            (th + one, one, (th + one) * (th + one).apply_sigma(1), (th + one).apply_sigma(1)),
        ]
        for a, b, c, d in quads:
            assert two_user_singularity_test(a, b, c, d)
            out = zero_det_witness_2user(a, b, c, d)
            assert out is not None
            w, y = out
            assert w and y
            assert w.is_integral() and y.is_integral()
            det = a * d * w - b * c * w.apply_sigma(1)
            assert not det

    def test_norm_mismatch_scans_clean(self, golden_tower):
        one = golden_tower.one()
        d = golden_tower.theta() + one
        assert not two_user_singularity_test(one, one, one, d)
        assert zero_det_witness_2user(one, one, one, d) is None
        assert two_user_box_scan(one, one, one, d, 1) == 0

    def test_degenerate_zero_products(self, golden_tower):
        one = golden_tower.one()
        zero = golden_tower.zero()
        assert two_user_singularity_test(zero, zero, one, one)
        assert zero_det_witness_2user(zero, zero, one, one) == (one, one)
        assert not two_user_singularity_test(zero, one, one, one)
        assert zero_det_witness_2user(zero, one, one, one) is None

    def test_all_ones_box_scan_count_frozen(self, golden_tower):
        one = golden_tower.one()
        assert two_user_box_scan(one, one, one, one, 1) == 512

    def test_box_scan_overflow_guard(self, golden_tower):
        one = golden_tower.one()
        with pytest.raises(OverflowRisk):
            two_user_box_scan(one, one, one, one, 1 << 31)

    def test_degree_two_only(self, cubic_tower):
        one = cubic_tower.one()
        with pytest.raises(ValueError):
            two_user_singularity_test(one, one, one, one)
        with pytest.raises(ValueError):
            two_user_box_scan(one, one, one, one, 1)


# ---------------------------------------------------------------------------
# leading-term valuation split of stacked determinants


class TestValuationSplit:
    @pytest.mark.parametrize("spec_name", ["golden_spec", "cubic_spec", "quartic_spec"])
    def test_split_inequalities_hold(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(251)
        done = 0
        while done < 3:
            box = rand_box(spec, rng, 2)
            try:
                v_lead, lo, hi, v_y = valuation_split_check(spec, box)
            except ValueError:
                continue  # a user's data missed minimum valuation 0; redraw
            assert v_lead <= lo < hi <= v_y
            done += 1

    def test_p_divisible_user_rejected(self, golden_spec):
        kern = IntKernel(golden_spec.tower)
        pmat = kern.mult_vec_mat(golden_spec.p)
        scaled = tuple(int(c) for c in np.array((1, 0, 0, 0)) @ pmat)
        bound = max(abs(c) for c in scaled)
        box = CoefficientBox((bound, bound), (scaled, scaled))
        with pytest.raises(ValueError):
            valuation_split_check(golden_spec, box)
