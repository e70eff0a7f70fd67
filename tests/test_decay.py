import json
import math
import multiprocessing
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from macdecay import decay, kernels
from macdecay.construction import (
    CodeSpec, CoefficientBox, assemble_codeword, build_M, codeword_from_coeffs,
    gamma_basis, lattice_basis,
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
from macdecay.kernels import (
    EMB_REL_ERR, GRID_ROW_CAP, IntKernel, OverflowRisk, UserTensors,
    coeff_grid, det_int_batch, grid_size, stack_users,
)
from macdecay.number_field import FieldElem
from macdecay.quadratic import QuadElem, RingTag

from util import (
    blocks_float_reference, draw_samples_reference, naive_min_reference,
    orbit_representatives_reference, rand_box, screen_reference,
)


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


def record_dtypes(monkeypatch):
    """Wrap decay.det_int_batch and decay._exact_stage.  Returns two lists
    that receive the dtype of every determinant batch run and of every
    numerator array the exact stage returns; dtype=object marks the
    Python-int path."""
    batches, stages = [], []
    det_batch, stage = decay.det_int_batch, decay._exact_stage

    def recorded_batch(spec, kern, stacked):
        batches.append(stacked.dtype)
        return det_batch(spec, kern, stacked)

    def recorded_stage(ctx, vec_arrays):
        out = stage(ctx, vec_arrays)
        stages.append(out[0].dtype)
        return out

    monkeypatch.setattr(decay, "det_int_batch", recorded_batch)
    monkeypatch.setattr(decay, "_exact_stage", recorded_stage)
    return batches, stages


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
                num2, s2 = _laplace_det(spec, A.values())
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

    @pytest.mark.parametrize(
        "N, samples, seed, message",
        [
            (0, 10, 1, "nmax must be positive"),
            (1, 0, 1, "samples must be positive"),
            (1, -3, 1, "samples must be positive"),
            (1, 10, -5, "seed must be non-negative"),
        ],
        ids=["N=0", "samples=0", "samples=-3", "seed=-5"],
    )
    def test_sampled_sweep_refuses_before_drawing(
        self, golden_spec, N, samples, seed, message, monkeypatch
    ):
        # N = 0 used to redraw all-zero vectors for ever, no samples
        # reported a pass, and seed -5 drew seed 5's boxes
        def drawn(*args):
            raise AssertionError("the sweep drew a box")

        monkeypatch.setattr(decay, "_sample_chunks", drawn)
        with pytest.raises(ValueError, match=f"^{message}$"):
            decay.sampled_rank_check(golden_spec, N, samples, seed)

    @pytest.mark.parametrize(
        "vectors, message",
        [
            (((1, 0, 0, 0),) * 3, "needs 2 coefficient vectors of length 4 per box"),
            (((1, 0, 0, 0),), "needs 2 coefficient vectors of length 4 per box"),
            (((1, 0, 0), (0, 1, 0, 0)), "needs 2 coefficient vectors of length 4 per box"),
            (((1, 0, 0, 0), (0, 0, 0, 0)), "requires every user active"),
        ],
        ids=["U+1", "U-1", "length", "inactive"],
    )
    @pytest.mark.parametrize("good", [1, 2**70], ids=["int64", "object"])
    def test_packed_ingest_keeps_every_refusal(self, vectors, message, good, golden_spec):
        # the same refusal whether the batch packs into int64 or not
        bad = CoefficientBox((2**70,) * len(vectors), vectors)
        ok = CoefficientBox((2**70, 2**70), ((good, 0, 0, 0), (0, 1, 0, 0)))
        for boxes in ([bad], [ok, bad], [bad, ok]):
            with pytest.raises(ValueError, match=f"^rank criterion {message}$"):
                rank_criterion_check(golden_spec, boxes)

    @pytest.mark.parametrize("good", [1, 2**64], ids=["int64", "object"])
    def test_packed_ingest_refuses_ragged_batches(self, good, golden_spec, monkeypatch):
        # wrong lengths that a count of the batch's coefficients cannot see,
        # next to a box that packs into int64 or only into an object array:
        # the same refusal, and the object ingest is never started
        fromiter, started = np.fromiter, []

        def recorded(*args, **kwargs):
            started.append(args)
            return fromiter(*args, **kwargs)

        def box(*vectors):
            return CoefficientBox((2**70,) * len(vectors), vectors)

        monkeypatch.setattr(decay.np, "fromiter", recorded)
        ok = box((good, 0, 0, 0), (0, 1, 0, 0))
        ragged = [
            # a wrong-length vector beside a coefficient past int64
            [box((2**64, 0, 0, 0), (0, 1, 0))],
            # lengths r + 1 and r - 1, in one box and in two
            [box((1, 0, 0, 0, 1), (0, 1, 0))],
            [box((1, 0, 0, 0, 1), (0, 1, 0, 0)), box((1, 0, 0, 0), (0, 1, 0))],
            # U + 1 vectors in one box, U - 1 in the next
            [box(*((1, 0, 0, 0),) * 3), box((0, 1, 0, 0))],
        ]
        message = "^rank criterion needs 2 coefficient vectors of length 4 per box$"
        for bad in ragged:
            for boxes in (bad, [ok] + bad, bad + [ok]):
                with pytest.raises(ValueError, match=message):
                    rank_criterion_check(golden_spec, boxes)
        assert started == []

    @pytest.mark.parametrize("spec_name", ["cubic_spec", "quartic_spec"])
    def test_rank_sweep_builds_no_float_data(self, spec_name, request, monkeypatch):
        spec = request.getfixturevalue(spec_name)
        boxes = random_boxes(spec, random.Random(283), 64)
        bounds = (1,) * spec.U
        # also runs lattice_basis's once-per-process rank certification,
        # which embeds the generators
        want = min_abs_det(spec, bounds, mode=SAMPLED, samples=300, seed=5)
        vecs = np.array([b.vectors[0] for b in boxes])

        def refuse(self, *args, **kwargs):
            raise AssertionError("the rank sweep embedded an element")

        monkeypatch.setattr(FieldElem, "embed", refuse)
        assert rank_criterion_check(spec, boxes) == RankReport(64, [], [])
        monkeypatch.undo()
        # a fresh context screens on the certified float rows
        got = min_abs_det(spec, bounds, mode=SAMPLED, samples=300, seed=5)
        for field in ("D_value", "argmin", "det_numerator", "det_p_exponent", "screened"):
            assert getattr(got, field) == getattr(want, field), field
        ut = UserTensors(spec, IntKernel(spec.tower), 1)
        blocks, errs = ut.blocks_float(vecs)
        want_blocks, want_errs = blocks_float_reference(ut, vecs)
        assert np.all(np.abs(blocks - want_blocks) <= errs)
        assert np.all(np.abs(errs - want_errs) <= 1e-12 * errs)

    def test_true_coefficient_reads_as_one(self, golden_spec, monkeypatch):
        ones = CoefficientBox((1, 1), ((1, 0, 1, 0), (0, 1, 0, 0)))
        trues = CoefficientBox((1, 1), ((True, 0, True, False), (False, True, 0, 0)))
        want = rank_criterion_check(golden_spec, [ones])
        batches, _ = record_dtypes(monkeypatch)
        assert rank_criterion_check(golden_spec, [trues]) == want == RankReport(1, [], [])
        assert batches == [np.dtype(np.int32)]

    def test_ragged_user_counts_rejected(self, golden_spec):
        # U + 1 vectors in one box and U - 1 in the next: the batch holds
        # 2 * U vectors of the right length, so only a per-box count sees it
        boxes = [
            CoefficientBox((1, 1, 1), ((1, 0, 0, 0),) * 3),
            CoefficientBox((1,), ((0, 1, 0, 0),)),
        ]
        with pytest.raises(ValueError, match="2 coefficient vectors of length 4"):
            rank_criterion_check(golden_spec, boxes)

    def test_block_wrap_takes_the_object_path(self, quartic_spec, monkeypatch):
        # in int64, -2**63 * numv wraps every block entry to 0: without the
        # block audit the box would read as a zero determinant
        v1 = [0] * quartic_spec.r_per_user
        v1[4] = -(2**63)
        v2 = [1] + [0] * (quartic_spec.r_per_user - 1)
        box = CoefficientBox((2**63, 2**63), (tuple(v1), tuple(v2)))
        num, _ = det_exact(assemble_codeword(quartic_spec, box))
        assert num
        batches, _ = record_dtypes(monkeypatch)
        report = rank_criterion_check(quartic_spec, [box])
        assert report == RankReport(1, [], [])
        # the block audit refused int64, so the one DP ran on Python ints
        assert batches == [np.dtype(object)]

    def test_coefficient_beyond_int64_takes_the_object_path(
        self, golden_spec, monkeypatch
    ):
        good = CoefficientBox((2**70, 1), ((1, 0, 0, 0), (0, 1, 0, 0)))
        batches, _ = record_dtypes(monkeypatch)
        # 2**63 is the least coefficient the packed int64 ingest refuses
        for c in (2**70, 2**63):
            big = CoefficientBox((2**70, 1), ((c, 0, 0, 0), (0, 1, 0, 0)))
            batches.clear()
            report = rank_criterion_check(golden_spec, [good, big, good])
            assert report == RankReport(3, [], [])
            assert batches == [np.dtype(object)]
        # a batch past int64 is still refused for an inactive user
        idle = CoefficientBox((2**70, 1), ((2**70, 0, 0, 0), (0, 0, 0, 0)))
        with pytest.raises(ValueError, match="every user active"):
            rank_criterion_check(golden_spec, [idle])

    def test_dp_overflow_reruns_the_batch_on_python_ints(
        self, golden_spec, monkeypatch
    ):
        # 2**31 coefficients keep the blocks in int64 but not the DP's
        # products: the int64 batch is refused and runs again on Python ints
        good = CoefficientBox((2**31, 2**31), ((1, 0, 0, 0), (0, 1, 0, 0)))
        big = CoefficientBox((2**31, 2**31), ((2**31, 0, 0, 0), (0, 2**31, 0, 1)))
        batches, _ = record_dtypes(monkeypatch)
        assert rank_criterion_check(golden_spec, [good, big]) == RankReport(2, [], [])
        assert batches == [np.dtype(np.int64), np.dtype(object)]

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
        batches, stages = record_dtypes(monkeypatch)
        # kernels: the block audit fails, and the DP runs on Python ints;
        # decay: the tau-product guard fails, and the int64 numerators are
        # cast to Python ints for the tau product.  The blocks of these
        # small boxes pass the int32 audit, so that batch comes in as int32
        monkeypatch.setattr(module, "INT64_LIMIT", 1)
        want_batches = {kernels: [object], decay: [np.int32]}[module]
        for (spec, boxes), want in zip(sweeps, wants):
            batches.clear()
            stages.clear()
            got = rank_criterion_check(spec, boxes)
            assert batches == want_batches  # one SUB_BATCH of boxes
            assert stages == [np.dtype(object)]  # the object path decided
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

    def test_worker_count_never_changes_results(self, golden_spec, monkeypatch):
        reps = [
            min_abs_det(golden_spec, (2, 1), workers=w) for w in (None, 1, 2, 3)
        ]
        for rep in reps[1:]:
            assert rep.D_value == reps[0].D_value
            assert rep.argmin == reps[0].argmin
            assert rep.abs_sq == reps[0].abs_sq
            assert rep.evaluated == reps[0].evaluated
        # whatever ``workers`` says, a call scans in this process from one
        # search context built from the caller's spec
        contexts = []
        context = decay._SearchContext

        def counted_context(*args):
            contexts.append(args)
            return context(*args)

        def refused(*args, **kwargs):
            raise AssertionError("a spec was rebuilt or a process started")

        monkeypatch.setattr(decay, "_SearchContext", counted_context)
        monkeypatch.setattr(CodeSpec, "from_json_dict", refused)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refused)
        for bounds, kwargs in (
            ((2, 1), {}),
            ((2, 2), {"mode": SAMPLED, "samples": 400, "seed": 11}),
        ):
            reps = {}
            for w in (None, 1, 2, 4):
                contexts.clear()
                reps[w] = min_abs_det(golden_spec, bounds, workers=w, **kwargs)
                assert len(contexts) == 1
            for rep in reps.values():
                same_report(rep, reps[1])

    @pytest.mark.parametrize(
        "sub_batch, stage_rows", [(1, 1640), (7, 348), (decay.SUB_BATCH, 126)]
    )
    def test_exhaustive_report_does_not_depend_on_chunking(
        self, two_antenna_spec, sub_batch, stage_rows, monkeypatch
    ):
        # the n_t >= 2 grid scan screens each slice of SUB_BATCH lex rows as
        # one chunk.  With one row per slice, minimizers fall in different
        # chunks and most chunks hold no orbit representative; the
        # first-index tie-break must still pick the argmin of the one-chunk
        # scan.  Each chunk keeps the candidates under its own least upper
        # bound, so only the exact stage's rows depend on the chunking
        monkeypatch.setattr(decay, "SUB_BATCH", sub_batch)
        sizes = stage_sizes(monkeypatch)
        rep = min_abs_det(two_antenna_spec, (1,))
        assert sizes == [stage_rows]
        assert rep.screened == 1640 and rep.evaluated == 6560
        assert rep.D_value == 0.5
        assert rep.argmin.vectors == ((-1, -1, -1, 0, -1, -1, 1, 1),)
        assert [(q.a, q.b) for q in rep.det_numerator.coords] == [(0, -1), (0, 0)]
        assert rep.det_p_exponent == 2
        monkeypatch.setattr(decay, "SUB_BATCH", grid_size(1, 8))
        same_report(rep, min_abs_det(two_antenna_spec, (1,)))

    @pytest.mark.parametrize(
        "slice_rows, stage_rows",
        [(1, 1640), (1000, 130), (6561, 126)],
        ids=["1", "1000", "6561"],
    )
    def test_grid_scan_builds_one_slice_at_a_time(
        self, two_antenna_spec, slice_rows, stage_rows, monkeypatch
    ):
        # the grid's lex rows arrive SUB_BATCH at a time, and no other grid
        # is built; the report is that of the default slicing, and the
        # exact stage takes each slice's candidates
        def no_grid(N, length):
            raise AssertionError("a whole coefficient grid was built")

        spans, rows = [], decay.grid_rows

        def recorded(N, length, start, stop):
            spans.append((start, stop))
            return rows(N, length, start, stop)

        want = min_abs_det(two_antenna_spec, (1,))
        sizes = stage_sizes(monkeypatch)
        monkeypatch.setattr(decay, "coeff_grid", no_grid)
        monkeypatch.setattr(decay, "grid_rows", recorded)
        monkeypatch.setattr(decay, "SUB_BATCH", slice_rows)
        rep = min_abs_det(two_antenna_spec, (1,))
        same_report(rep, want)
        assert rep.screened == want.screened == 1640
        assert sizes == [stage_rows]
        assert all(stop - start <= slice_rows for start, stop in spans)
        assert spans[0][0] == 0 and spans[-1][1] == grid_size(1, 8)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_second_context_embeds_nothing(self, quartic_spec, monkeypatch):
        # the float rows that certified the generators' rank are the float
        # half of every later context, equal to the per-entry embeddings
        decay._SearchContext(quartic_spec)
        vecs = [np.eye(quartic_spec.r_per_user, dtype=np.int64)] * quartic_spec.U
        calls = []
        embed = FieldElem.embed

        def counted(self, *args):
            calls.append(args)
            return embed(self, *args)

        monkeypatch.setattr(FieldElem, "embed", counted)
        ctx = decay._SearchContext(quartic_spec)
        ctx.float_factors(vecs)
        assert calls == []
        monkeypatch.undo()
        for j, ut in enumerate(ctx.uts):
            want = np.array(
                [
                    [[e.embed(50).mid() for e in row] for row in g.values()]
                    for g in lattice_basis(quartic_spec, j + 1)
                ],
                dtype=np.complex128,
            )
            assert ut.emb.dtype == np.complex128
            assert np.array_equal(ut.emb, want)
            assert np.array_equal(ut.emb_err, np.abs(want) * EMB_REL_ERR + 1e-290)

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

    @pytest.mark.parametrize(
        "bounds, rows",
        [((1, 1), 43046721), ((1, 3), 43046721), ((2, 1), 152587890625),
         ((3, 3), 33232930569601)],
    )
    def test_row_cap_refuses_every_multi_user_two_antenna_box(
        self, quartic_spec, bounds, rows, monkeypatch
    ):
        # U = 2, n_t = 2: r = 16, so N = 1 already needs 3^16 grid rows
        # per user, and user 1's (2 N_1 + 1)^16 rows are refused first.
        # The budget admits the box's codewords (1.85e15 at (1, 1)), the
        # row cap does not; this refusal is why the n_t >= 2 scan serves
        # one user only
        def no_grid(N, length):
            raise AssertionError("a coefficient grid was built")

        monkeypatch.setattr(decay, "coeff_grid", no_grid)
        assert rows == grid_size(bounds[0], 16) + 1 > GRID_ROW_CAP
        budget = math.prod(grid_size(N, 16) for N in bounds)
        with pytest.raises(
            BudgetExceeded,
            match=rf"^coefficient grid of {rows} rows exceeds the {GRID_ROW_CAP}"
            r"-row cap; use SAMPLED mode$",
        ):
            min_abs_det(quartic_spec, bounds, budget=budget)

    def test_argument_validation(self, golden_spec):
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (1,))
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (0, 1))
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (1, 1), mode="guess")
        with pytest.raises(ValueError):
            min_abs_det(golden_spec, (1, 1), mode=SAMPLED)
        # random.Random(seed) reads |seed|, so -3 would draw what 3 draws
        with pytest.raises(ValueError, match="seed"):
            min_abs_det(golden_spec, (1, 1), mode=SAMPLED, samples=10, seed=-3)
        # int() read 1.5 as 1 and reported the box (1, 1)
        with pytest.raises(TypeError):
            min_abs_det(golden_spec, (1.5, 1))

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
        batches, _ = record_dtypes(monkeypatch)
        # every int64 determinant batch now fails its overflow audit
        monkeypatch.setattr(kernels, "INT64_LIMIT", 1)
        for bounds, want in zip(boxes, wants):
            batches.clear()
            got = min_abs_det(golden_spec, bounds)
            assert batches == [np.dtype(object)]  # the object path decided
            assert got.D_value == want.D_value
            assert got.argmin == want.argmin
            assert got.det_numerator == want.det_numerator
            assert got.det_p_exponent == want.det_p_exponent
            assert got.evaluated == want.evaluated


def test_exact_stage_block_overflow_takes_the_object_path(quartic_spec):
    ctx = decay._SearchContext(quartic_spec)
    bounds = (2**63, 2**63)
    r = quartic_spec.r_per_user
    v1 = np.zeros((1, r), dtype=np.int64)
    v1[0, 4] = -(2**63)
    v2 = np.eye(1, r, dtype=np.int64)
    nums, s, fixed = decay._exact_stage(ctx, [v1, v2])
    box = CoefficientBox(bounds, (tuple(v1[0].tolist()), tuple(v2[0].tolist())))
    num, s_ref = det_exact(assemble_codeword(quartic_spec, box))
    assert nums.dtype == object
    assert s == s_ref
    assert nums.tolist() == [list((num * ctx.kern.entry_scale).num)]
    assert any(nums[0]) and fixed.tolist() == [True]


@pytest.mark.parametrize("spec_name", ALL_SPECS)
def test_object_dp_matches_det_exact(spec_name, request):
    # the overflow path is the int64 DP on Python ints: pinned row by row
    # to the FieldElem reference, on boxes small and far past int64
    spec = request.getfixturevalue(spec_name)
    ctx = decay._SearchContext(spec)
    rng = random.Random(251)
    boxes = random_boxes(spec, rng, 3)
    for scale in (2**40, 2**70 + 1):
        box = rand_box(spec, rng, 2)
        vecs = ((c * scale - 1 for c in box.vectors[0]),) + box.vectors[1:]
        boxes.append(CoefficientBox((3 * scale,) * spec.U, tuple(map(tuple, vecs))))
    vec_arrays = [
        np.array([b.vectors[j] for b in boxes], dtype=object) for j in range(spec.U)
    ]
    nums, s, fixed = decay._exact_stage(ctx, vec_arrays)
    assert nums.dtype == object and fixed.all()
    for row, box in zip(nums.tolist(), boxes):
        num, s_ref = det_exact(assemble_codeword(spec, box))
        assert s == s_ref
        assert row == list((num * ctx.kern.entry_scale).num)
    assert max(abs(c) for c in nums.ravel()) >= 2**70


def test_numerator_off_the_fixed_field_is_caught(golden_spec, monkeypatch):
    # on the golden code tau = sigma^2 is the identity; with sigma in its
    # place, every numerator outside K must read as not tau-fixed, on the
    # int64 path and on the Python-int path
    class SigmaContext(decay._SearchContext):
        def __init__(self, spec):
            super().__init__(spec)
            self.tau, self.tau_den = self.kern.sigma_vec_mat(1)

    monkeypatch.setattr(decay, "_SearchContext", SigmaContext)
    boxes = random_boxes(golden_spec, random.Random(257), 20)
    # vectors with no theta-coordinates have their determinant in K
    boxes[3:3] = [
        CoefficientBox((2, 2), ((1, 0, 0, 0), v)) for v in ((1, 0, -1, 0), (0, 0, 1, 0))
    ]
    nums = [det_exact(assemble_codeword(golden_spec, b))[0] for b in boxes]
    want = [b for b, num in zip(boxes, nums) if not num.apply_sigma(1) == num]
    assert len(want) == len(boxes) - 2
    for limit in (kernels.INT64_LIMIT, 1):
        monkeypatch.setattr(kernels, "INT64_LIMIT", limit)
        assert rank_criterion_check(golden_spec, boxes).tau_failures == want
        with pytest.raises(ArithmeticError, match="not fixed by tau"):
            min_abs_det(golden_spec, (1, 1))


def screened_chunk(vecs, factors):
    """lo^2 and up^2 of every codeword of one chunk, codeword k stacking
    row k of every user's vecs, whose float_factors are `factors`; checks
    that the chunk's candidates (_scan_chunk) are the codewords with lo^2
    at most the least up^2."""
    d, s = decay._float_det(factors, [slice(None)] * len(factors))
    ad = np.abs(d)
    lo, up = np.maximum(ad - s, 0.0), ad + s
    lo2, up2 = lo * lo, up * up
    keep = lo2 <= up2.min()
    cands = decay._scan_chunk(vecs, factors)
    assert all(np.array_equal(c, v[keep]) for c, v in zip(cands, vecs, strict=True))
    return lo2, up2


def orbit_grids(ctx, bounds):
    """The EXHAUSTIVE scan's per-user grids: one row per unit orbit."""
    return [
        orbit_representatives(coeff_grid(N, ut.r), N, ctx.units)
        for N, ut in zip(bounds, ctx.uts)
    ]


def _sq_range(lo, hi):
    lo2, hi2 = lo * lo, hi * hi
    return (0 if lo <= 0 <= hi else min(lo2, hi2)), max(lo2, hi2)


def assert_screen_brackets_exact(spec, lo2, up2, vecs):
    """Every codeword's exact |det|^2, enclosed in rationals from a 70-bit
    embedding of its exact determinant, meets [lo^2, up^2]."""
    kern = IntKernel(spec.tower)
    uts = [UserTensors(spec, kern, j + 1) for j in range(spec.U)]
    stacked = stack_users([ut.blocks_int(v) for ut, v in zip(uts, vecs)])
    nums, s = det_int_batch(spec, kern, stacked)
    for lo, up, num in zip(lo2.tolist(), up2.tolist(), nums):
        det = det_value(spec, FieldElem(spec.tower, num, kern.entry_scale), s)
        box = det.embed(70)
        re_min, re_max = _sq_range(box.re_lo, box.re_hi)
        im_min, im_max = _sq_range(box.im_lo, box.im_hi)
        assert Fraction(lo) <= re_max + im_max, (spec.U, num)
        assert re_min + im_min <= Fraction(up), (spec.U, num)


class TestFactoredScreen:
    """The float screen, one stacked determinant per codeword, against
    exact determinants and, on the golden code, bit for bit against the
    concatenated form (tests/util.screen_reference)."""

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_sampled_screen_is_sound(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        rng = random.Random(173)
        boxes = [rand_box(spec, rng, 3) for _ in range(40)]
        vecs = [
            np.array([b.vectors[j] for b in boxes], dtype=np.int64)
            for j in range(spec.U)
        ]
        ctx = decay._SearchContext(spec)
        lo2, up2 = screened_chunk(vecs, ctx.float_factors(vecs))
        assert np.all(lo2 <= up2)
        assert_screen_brackets_exact(spec, lo2, up2, vecs)

    @pytest.mark.parametrize("spec_name", ["two_antenna_spec", "miso_spec"])
    def test_exhaustive_screen_is_sound(self, spec_name, request):
        # a chunk of the one-user grid scan, screened on a slice of the
        # float factors of a longer run of rows; the two-antenna code's
        # N = 1 orbit grid, random rows for the miso code's 3^18-row grid
        spec = request.getfixturevalue(spec_name)
        ctx = decay._SearchContext(spec)
        if spec.n_t == 2:
            grid = orbit_grids(ctx, (1,))[0]
        else:
            grid = np.random.default_rng(179).integers(-2, 3, (5, spec.r_per_user))
            grid[:, 0] = np.where(grid.any(axis=1), grid[:, 0], 1)
        (factors,) = ctx.float_factors([grid])
        rows = slice(1, grid.shape[0] - 1)
        vecs = [grid[rows]]
        lo2, up2 = screened_chunk(vecs, [tuple(f[rows] for f in factors)])
        assert lo2.shape[0] == grid.shape[0] - 2
        assert_screen_brackets_exact(spec, lo2, up2, vecs)

    def test_golden_sampled_matches_concatenated_form(self, golden_spec):
        # the same lo^2 and up^2 to the bit
        vecs = next(decay._sample_chunks(181, (4, 4), (4, 4), 3000))
        ctx = decay._SearchContext(golden_spec)
        lo2, up2 = screened_chunk(vecs, ctx.float_factors(vecs))
        floats = [ut.blocks_float(v) for ut, v in zip(ctx.uts, vecs)]
        want_lo2, want_up2 = screen_reference(
            stack_users([b for b, _ in floats]), stack_users([e for _, e in floats])
        )
        assert np.array_equal(lo2, want_lo2)
        assert np.array_equal(up2, want_up2)

    def test_golden_window_exact_stage_counts_frozen(self, golden_spec, monkeypatch):
        # the meet-in-the-middle scan sends the window pairs that can reach
        # the least upper bound and whose user-1 vector is lex-smallest in
        # its orbit; a curve's point scans its whole box too
        want = {FIRST_USER: [6, 7, 2, 3, 3, 4, 1, 2], ALL_USERS: [6, 2, 4]}
        assert box_stage_sizes(golden_spec, monkeypatch) == want
        assert curve_stage_sizes(golden_spec, monkeypatch) == want


def stage_sizes(monkeypatch) -> list:
    """Wrap decay._exact_stage; the returned list receives the row count
    of every call."""
    stage, sizes = decay._exact_stage, []

    def counted_stage(ctx, vec_arrays):
        sizes.append(vec_arrays[0].shape[0])
        return stage(ctx, vec_arrays)

    monkeypatch.setattr(decay, "_exact_stage", counted_stage)
    return sizes


def box_stage_sizes(spec, monkeypatch) -> dict:
    """Exact-stage rows of min_abs_det at the boxes of the golden-curves
    points, one call per box."""
    sizes, out = stage_sizes(monkeypatch), {}
    for pattern, n_max in ((FIRST_USER, 8), (ALL_USERS, 3)):
        out[pattern] = []
        for N in range(1, n_max + 1):
            sizes.clear()
            min_abs_det(spec, (N, 1) if pattern == FIRST_USER else (N, N))
            assert len(sizes) == 1, (pattern, N)
            out[pattern] += sizes
    return out


def curve_stage_sizes(spec, monkeypatch) -> dict:
    """Exact-stage rows of each point of the golden-curves curves."""
    sizes, out = stage_sizes(monkeypatch), {}
    for pattern, n_max in ((FIRST_USER, 8), (ALL_USERS, 3)):
        sizes.clear()
        decay_curve(spec, n_max, pattern=pattern)
        out[pattern] = list(sizes)
    return out


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

    def test_oracle_refuses_a_non_integer_bound(self, golden_spec):
        with pytest.raises(TypeError):
            naive_min_abs_det(golden_spec, (1, 1.5))

    def test_oracle_matches_per_codeword_form(self, golden_spec):
        # blocks built once per user vector against every codeword
        # assembled from its box
        rep = naive_min_abs_det(golden_spec, (1, 1))
        absq, box, num, s, count = naive_min_reference(golden_spec, (1, 1))
        assert rep.abs_sq == absq
        assert rep.argmin == box
        assert rep.det_numerator == num
        assert rep.det_p_exponent == s
        assert rep.evaluated == count == 6400


    def test_two_antenna_engine_matches_naive(self, two_antenna_spec):
        # n_t = 2: the one-user grid scan, by structure
        fast = min_abs_det(two_antenna_spec, (1,))
        same_report(naive_min_abs_det(two_antenna_spec, (1,)), fast)
        assert fast.evaluated == 6560 and fast.screened == 1640


# The reports of the orbit-grid scan that the meet-in-the-middle scan
# replaced for n_t = 1 codes, captured at commit 58b5794 with that scan
# forced (every curve point equalled its box alone): per curve, its CSV
# rows after the header, and each point's evaluated, numerator coordinates
# and p-exponent.
GRID_SCAN_REPORTS = {
    ("golden_spec", FIRST_USER): (
        """\
1,0.2245139882897927,1.994118674515895e-16,EXHAUSTIVE,,-1;-1;0;0;-1;-1;1;0,
2,0.2245139882897927,1.994118674515895e-16,EXHAUSTIVE,,-2;-1;1;1;-1;-1;0;0,
3,0.10081306187557834,8.954168004767662e-17,EXHAUSTIVE,,-3;-2;2;3;-1;-1;0;-1,
4,0.10081306187557834,8.954168004767662e-17,EXHAUSTIVE,,-4;2;3;4;0;-1;0;0,
5,0.10081306187557834,8.954168004767662e-17,EXHAUSTIVE,,-4;2;3;4;0;-1;0;0,
6,0.10081306187557834,8.954168004767662e-17,EXHAUSTIVE,,-4;1;2;-6;-1;1;0;0,
7,0.09179966818128432,8.153617828014349e-17,EXHAUSTIVE,,-7;-3;-2;6;0;-1;0;0,
8,0.09179966818128432,8.153617828014349e-17,EXHAUSTIVE,,-7;-3;-2;6;0;-1;0;0,
""",
        [
            (6400, [(-1, 1), (2, -1)], 2),
            (49920, [(1, 1), (-1, -2)], 2),
            (192000, [(-3, 6), (5, -10)], 2),
            (524800, [(6, 3), (-10, -5)], 2),
            (1171200, [(6, 3), (-10, -5)], 2),
            (2284800, [(3, -6), (-5, 10)], 2),
            (4049920, [(2, 10), (-3, -16)], 2),
            (6681600, [(2, 10), (-3, -16)], 2),
        ],
    ),
    ("golden_spec", ALL_USERS): (
        """\
1,0.2245139882897927,1.994118674515895e-16,EXHAUSTIVE,,-1;-1;0;0;-1;-1;1;0,
2,0.22061377239704208,1.9594777986347696e-16,EXHAUSTIVE,,-2;-1;0;-2;-2;1;-1;0,
3,0.09179966818128432,8.153617828014349e-17,EXHAUSTIVE,,-3;-1;2;3;-1;-2;0;-1,
""",
        [
            (6400, [(-1, 1), (2, -1)], 2),
            (389376, [(5, -6), (-8, 9)], 2),
            (5760000, [(2, 10), (-3, -16)], 2),
        ],
    ),
    ("eisenstein_spec", FIRST_USER): (
        """\
1,0.2470155823363351,2.193972976925813e-16,EXHAUSTIVE,,-1;-1;-1;0;-1;0;0;0,
2,0.175347613892046,1.5574335473661416e-16,EXHAUSTIVE,,-2;2;-1;-1;0;-1;1;-1,
3,0.175347613892046,1.5574335473661416e-16,EXHAUSTIVE,,-3;-1;0;-3;0;-1;0;0,
4,0.030374859903646904,2.6978718584307433e-17,EXHAUSTIVE,,-2;-3;-3;-4;-1;1;1;1,
5,0.030374859903646904,2.6978718584307433e-17,EXHAUSTIVE,,-5;-3;-4;-5;0;-1;-1;-1,
6,0.030374859903646904,2.6978718584307433e-17,EXHAUSTIVE,,-5;-3;-4;-5;0;-1;-1;-1,
""",
        [
            (6400, [(-2, 1), (4, -3)], 2),
            (49920, [(6, 2), (-9, -3)], 2),
            (192000, [(8, -6), (-12, 9)], 2),
            (524800, [(-24, 8), (39, -13)], 2),
            (1171200, [(24, -8), (-39, 13)], 2),
            (2284800, [(24, -8), (-39, 13)], 2),
        ],
    ),
    ("eisenstein_spec", ALL_USERS): (
        """\
1,0.2470155823363351,2.193972976925813e-16,EXHAUSTIVE,,-1;-1;-1;0;-1;0;0;0,
2,0.07539245107656081,6.69636421203933e-17,EXHAUSTIVE,,-2;-1;-2;-2;-1;-2;-2;-2,
""",
        [
            (6400, [(-2, 1), (4, -3)], 2),
            (389376, [(15, -3), (-24, 5)], 2),
        ],
    ),
    ("cubic_spec", FIRST_USER): (
        """\
1,0.009679581540225938,8.597407193993192e-18,EXHAUSTIVE,,-1;-1;0;-1;1;-1;-1;-1;0;0;0;0;-1;-1;1;-1;0;-1,
""",
        [
            (385828352, [(60, 129), (-12, -10), (-29, -75)], 3),
        ],
    ),
}


def assert_grid_scan_reports(spec_name, pattern, reports):
    """reports are the first points of the frozen curve of spec_name and
    pattern: the same CSV bytes and exact data."""
    rows, exact = GRID_SCAN_REPORTS[spec_name, pattern]
    want_rows = rows.splitlines(keepends=True)[: len(reports)]
    assert curve_csv_text(reports) == CSV_HEADER + "\n" + "".join(want_rows)
    for rep, (evaluated, num, s) in zip(reports, exact):
        assert rep.evaluated == evaluated
        assert [(q.a, q.b) for q in rep.det_numerator.coords] == num
        assert rep.det_p_exponent == s


class TestMeetInTheMiddle:
    """The n_t = 1 meet-in-the-middle scan against the reports of the
    orbit-grid scan it replaced and against exact determinants."""

    @pytest.mark.parametrize("spec_name, pattern", list(GRID_SCAN_REPORTS))
    def test_matches_grid_scan(self, spec_name, pattern, request):
        # the frozen CSV bytes and exact data of a curve; cubic (1, 1, 1)
        # has three users, so y runs over pairs of orbit representatives
        spec = request.getfixturevalue(spec_name)
        n_max = len(GRID_SCAN_REPORTS[spec_name, pattern][1])
        curve = decay_curve(spec, n_max, pattern=pattern, budget=10**9)
        assert len(curve) == n_max
        assert_grid_scan_reports(spec_name, pattern, curve)

    @pytest.mark.parametrize("spec_name, pattern", list(GRID_SCAN_REPORTS))
    def test_each_box_alone_matches_grid_scan(self, spec_name, pattern, request):
        # each curve point's box on its own gives the same frozen CSV
        # bytes and exact data as the curve (test_matches_grid_scan), so
        # every curve point equals min_abs_det of its box alone
        spec = request.getfixturevalue(spec_name)
        n_max = len(GRID_SCAN_REPORTS[spec_name, pattern][1])
        alone = [
            min_abs_det(
                spec, (N,) + ((1,) if pattern == FIRST_USER else (N,)) * (spec.U - 1),
                budget=10**9,
            )
            for N in range(1, n_max + 1)
        ]
        assert_grid_scan_reports(spec_name, pattern, alone)

    def test_tie_with_the_previous_point_matches_grid_scan(self, golden_spec):
        # golden N = 2 ties N = 1 exactly, and the first minimizer in lex
        # order is new at N = 2; the previous D only bounds the windows
        got = decay_curve(golden_spec, 2)
        assert got[1].abs_sq == got[0].abs_sq
        assert got[1].argmin.vectors == ((-2, -1, 1, 1), (-1, -1, 0, 0))
        same_report(got[1], min_abs_det(golden_spec, (2, 1)))
        assert_grid_scan_reports("golden_spec", FIRST_USER, got)

    def test_builds_no_whole_user_one_grid(self, golden_spec, monkeypatch):
        # user 1's box is two half grids of (2N + 1)^2 rows each, never the
        # (2N + 1)^4 grid; user 2's N = 1 grid is built once per curve
        calls, grid = [], decay.coeff_grid

        def recorded(N, length):
            calls.append((N, length))
            return grid(N, length)

        monkeypatch.setattr(decay, "coeff_grid", recorded)
        decay_curve(golden_spec, 8)
        assert sorted(set(calls)) == [(1, 2), (1, 4)] + [(N, 2) for N in range(2, 9)]
        assert calls.count((1, 4)) == 1

    @pytest.mark.parametrize("sub_batch", [1, 7, 50])
    def test_report_does_not_depend_on_batching(
        self, golden_spec, monkeypatch, sub_batch
    ):
        # one y per batch and window pairs expanded a few at a time: the
        # upper bound and the candidates change, the report does not
        boxes = ((3, 1), (2, 2))
        want = [min_abs_det(golden_spec, b) for b in boxes]
        monkeypatch.setattr(decay, "SUB_BATCH", sub_batch)
        for bounds, rep in zip(boxes, want):
            same_report(min_abs_det(golden_spec, bounds), rep)

    @pytest.mark.parametrize(
        "spec_name, N",
        [("golden_spec", 3), ("golden_spec", 2**20), ("eisenstein_spec", 3),
         ("cubic_spec", 2)],
    )
    def test_cofactor_slack_is_sound(self, spec_name, N, request):
        # |det(x, y) - sum_g x_g c~_g(y)| <= S(y) for x in [-N, N]^r: the
        # bracket around the float sum meets the exact |det|
        spec = request.getfixturevalue(spec_name)
        ctx = decay._SearchContext(spec)
        r = spec.r_per_user
        reps = orbit_grids(ctx, (1,) * spec.U)[1:]
        factors = ctx.float_factors([np.eye(r, dtype=np.int64), *reps])
        gen = np.random.default_rng(191)
        rows = [gen.integers(0, g.shape[0], 60) for g in reps]
        c, S = decay._cofactors(ctx, factors, rows, N)
        x = gen.integers(-N, N + 1, (60, r))
        x[:, 0] = np.where(x.any(axis=1), x[:, 0], 1)
        ad = np.abs((x * c).sum(axis=1))
        lo2, up2 = np.maximum(ad - S, 0.0) ** 2, (ad + S) ** 2
        vecs = [x, *(g[k] for g, k in zip(reps, rows))]
        assert_screen_brackets_exact(spec, lo2, up2, vecs)


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

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_representatives_match_reference(self, spec_name, request):
        # the one-product test against every unit's image and its lex key,
        # golden up to the benchmark's N = 8; miso's 18-coordinate grid is
        # past the row cap, so random rows stand in (the test is row-wise)
        spec = request.getfixturevalue(spec_name)
        units = orbit_units(IntKernel(spec.tower))
        r = spec.r_per_user
        for N in range(1, 9 if spec_name == "golden_spec" else 3):
            if grid_size(N, r) < GRID_ROW_CAP:
                grid = coeff_grid(N, r)
            else:
                grid = np.random.default_rng(N).integers(-N, N + 1, (4000, r))
            want = orbit_representatives_reference(grid, N, units)
            assert np.array_equal(orbit_representatives(grid, N, units), want)

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


def assert_draws_match_reference(seed, bounds, lengths, counts):
    """For each count, the chunks of _sample_chunks, joined, are the first
    `count` samples of the randint reference's vectors, in chunks of
    SUB_BATCH samples; the reference is drawn once, for the largest."""
    want = draw_samples_reference(random.Random(seed), bounds, lengths, max(counts))
    assert len(want) == len(bounds)
    batch = decay.SUB_BATCH
    for count in counts:
        chunks = list(decay._sample_chunks(seed, bounds, lengths, count))
        assert [c[0].shape[0] for c in chunks] == [
            min(batch, count - start) for start in range(0, count, batch)
        ]
        for j, vecs in enumerate(want):
            assert all(c[j].dtype == np.int64 for c in chunks)
            got = np.concatenate([c[j] for c in chunks])
            assert got.shape == (count, lengths[j])
            assert got.tolist() == vecs[:count]


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
        cases = [(seed, (1, 7, 500)) for seed in (0, 11, -7, 2**63)]
        # counts that end a chunk, or cross its end by one sample
        batch = decay.SUB_BATCH
        cases += [(5, (batch - 1, batch, batch + 1))]
        # the walk steps DRAW_STRIDE samples at a time, and the last stride
        # of a count past one chunk runs into the next
        stride = decay.DRAW_STRIDE
        cases += [(1, (stride - 1, stride, stride + 1, batch + stride // 2))]
        for seed, counts in cases:
            assert_draws_match_reference(seed, bounds, lengths, counts)

    @pytest.mark.parametrize("sub_batch", [7, 50])
    @pytest.mark.parametrize("bounds", [(1, 1), (3, 1), (2**31, 4)])
    def test_short_passes_carry_their_tail(self, bounds, sub_batch, monkeypatch):
        # at 7 a pass is shorter than one golden sample (8 words or more),
        # so its words carry over until a sample completes; at 50 chunk
        # ends fall mid-pass, and the words after one carry to the next
        monkeypatch.setattr(decay, "SUB_BATCH", sub_batch)
        counts = (1, sub_batch - 1, sub_batch, sub_batch + 1, 3 * sub_batch + 2, 400)
        assert_draws_match_reference(3, bounds, [4, 4], counts)

    def test_draw_refuses_bounds_beyond_int64(self):
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            next(decay._sample_chunks(1, (2**63, 1), [4, 4], 10))

    def test_draw_memory_is_bounded(self):
        # the chunk is 1 MiB and a pass's temporaries a few more; parsing
        # a whole 32,768-sample chunk at once allocated about 40 MB
        tracemalloc.start()
        try:
            next(decay._sample_chunks(7, (3, 1), [4, 4], decay.SUB_BATCH))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_chunks_concatenate_to_one_draw(self):
        assert_draws_match_reference(3, (2, 1), [4, 4], [decay.SUB_BATCH + 5])

    def test_single_worker_scans_each_chunk_before_the_next_draw(
        self, golden_spec, monkeypatch
    ):
        want = min_abs_det(golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11)
        events = []
        draw, scan = decay._sample_chunks, decay._scan_chunk

        def logged_draw(*args):
            for chunk in draw(*args):
                events.append("draw")
                yield chunk

        def logged_scan(*args):
            events.append("scan")
            return scan(*args)

        monkeypatch.setattr(decay, "SUB_BATCH", 50)
        monkeypatch.setattr(decay, "_sample_chunks", logged_draw)
        monkeypatch.setattr(decay, "_scan_chunk", logged_scan)
        got = min_abs_det(
            golden_spec, (2, 2), mode=SAMPLED, samples=400, seed=11, workers=1
        )
        assert events == ["draw", "scan"] * 8
        same_report(got, want)

    @pytest.mark.parametrize(
        "spec_name,bounds,rows",
        [
            ("golden_spec", (1, 1), 300),
            ("golden_spec", (3, 2), 300),
            ("golden_spec", (6, 6), 300),
            ("eisenstein_spec", (1, 1), 300),
            ("eisenstein_spec", (6, 6), 300),
            ("two_antenna_spec", (1,), 300),
            ("cubic_spec", (1, 1, 1), 300),
            ("cubic_spec", (2, 2, 2), 2),
            ("cubic_spec", (2, 2, 2), 300),
        ],
    )
    def test_factor_tables_match_direct_factors(self, spec_name, bounds, rows, request):
        # a row read from a user's table is the row user_factors computes
        # for the drawn vector, to the bit
        spec = request.getfixturevalue(spec_name)
        ctx = decay._SearchContext(spec)
        lengths = [spec.r_per_user] * spec.U
        vecs = next(decay._sample_chunks(29, bounds, lengths, rows))
        keys = list(enumerate(bounds))
        for (j, N), table, v in zip(keys, ctx.factor_tables(keys), vecs):
            assert table[0].shape[0] == (2 * N + 1) ** spec.r_per_user
            rank = (v + N) @ ((2 * N + 1) ** np.arange(spec.r_per_user - 1, -1, -1))
            for got, want in zip(table, ctx.user_factors(j, v)):
                assert got[rank].dtype == want.dtype
                assert np.array_equal(got[rank], want)

    def test_quartic_sampled_point_builds_no_table(self, quartic_spec, monkeypatch):
        # (2N + 1)^16 rows: every user's box is past any sample count
        def no_table(*args):
            raise AssertionError("a factor table was built")

        monkeypatch.setattr(decay, "_half_grid", no_table)
        rep = min_abs_det(quartic_spec, (1, 1), mode=SAMPLED, samples=200, seed=3)
        assert rep.evaluated == rep.screened == 200

    def test_first_user_curve_builds_user_two_table_once(self, golden_spec, monkeypatch):
        # boxes of 3^4, 5^4 and 7^4 rows against 3,000 samples: every user
        # reads a table, and user 2's N = 1 table serves the whole curve
        built = {0: [], 1: []}
        blocks_float = UserTensors.blocks_float

        def counted(ut, vecs):
            built[ut.j - 1].append(vecs.shape[0])
            return blocks_float(ut, vecs)

        monkeypatch.setattr(UserTensors, "blocks_float", counted)
        decay_curve(golden_spec, 3, mode=SAMPLED, samples=3000, seed=5)
        assert built == {0: [3**4, 5**4, 7**4], 1: [3**4]}

    def test_small_chunks_take_the_direct_path(self, golden_spec, monkeypatch):
        # with SUB_BATCH = 50 no 81-row box fits a chunk: each chunk's
        # factors are computed directly, and the report is the tables' one
        want = min_abs_det(golden_spec, (1, 1), mode=SAMPLED, samples=400, seed=11)
        rows = []
        blocks_float = UserTensors.blocks_float

        def counted(ut, vecs):
            rows.append(vecs.shape[0])
            return blocks_float(ut, vecs)

        monkeypatch.setattr(UserTensors, "blocks_float", counted)
        monkeypatch.setattr(decay, "SUB_BATCH", 50)
        got = min_abs_det(golden_spec, (1, 1), mode=SAMPLED, samples=400, seed=11)
        assert rows == [50] * 16
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
            nums, s, fixed = stage(ctx, vec_arrays)
            candidates.append(len(nums))
            distinct.append(len(set(map(tuple, nums.tolist()))))
            return nums, s, fixed

        def counted_abs_sq(*args):
            calls.append(args)
            return abs_sq(*args)

        monkeypatch.setattr(decay, "_exact_stage", recorded_stage)
        monkeypatch.setattr(decay, "abs_sq_of_det", counted_abs_sq)
        # one chunk, then SUB_BATCH = 50: 8 and 40 chunks
        for chunk in (decay.SUB_BATCH, 50):
            monkeypatch.setattr(decay, "SUB_BATCH", chunk)
            for log in (candidates, distinct, calls):
                log.clear()
            rep = min_abs_det(
                golden_spec, bounds, mode=SAMPLED, samples=samples, seed=11
            )
            # every chunk's candidates go to one exact stage, and
            # abs_sq_of_det runs once per distinct numerator among them
            assert len(candidates) == 1, chunk
            assert len(calls) == distinct[0], chunk
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

    @pytest.mark.parametrize("pattern", [FIRST_USER, ALL_USERS])
    @pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
    def test_one_context_per_curve(self, golden_spec, pattern, mode, monkeypatch):
        # the curve's points share one search context and report what
        # min_abs_det reports point by point
        kwargs = {"mode": mode, "samples": 300, "seed": 5} if mode == SAMPLED else {}
        boxes = [(N, 1) if pattern == FIRST_USER else (N, N) for N in (1, 2, 3)]
        want = [min_abs_det(golden_spec, bounds, **kwargs) for bounds in boxes]
        contexts = []
        context = decay._SearchContext

        def counted_context(*args):
            contexts.append(args)
            return context(*args)

        monkeypatch.setattr(decay, "_SearchContext", counted_context)
        curve = decay_curve(golden_spec, 3, pattern=pattern, **kwargs)
        assert len(contexts) == 1
        assert len(curve) == len(want)
        for rep, w in zip(curve, want):
            same_report(rep, w)

    def test_orbit_grids_carry_between_points(self, golden_spec, monkeypatch):
        # the search context keeps the latest point's orbit grids of users
        # 2..U: a FIRST_USER curve builds user 2's N = 1 grid once, an
        # ALL_USERS curve user 2's grid once per point.  User 1's half
        # grids are the only other coeff_grid calls, of length r / 2
        r, calls, grid = golden_spec.r_per_user, [], decay.coeff_grid

        def recorded(N, length):
            calls.append((N, length))
            return grid(N, length)

        monkeypatch.setattr(decay, "coeff_grid", recorded)
        decay_curve(golden_spec, 4)
        assert [c for c in calls if c[1] == r] == [(1, r)]
        calls.clear()
        decay_curve(golden_spec, 3, pattern=ALL_USERS)
        assert [c for c in calls if c[1] == r] == [(1, r), (2, r), (3, r)]

    @pytest.mark.parametrize(
        "sub_batch, stage_rows", [(decay.SUB_BATCH, [126, 898]), (7, [348, 15876])]
    )
    def test_shell_scan_matches_each_box_alone(
        self, two_antenna_spec, sub_batch, stage_rows, monkeypatch
    ):
        # on the n_t >= 2 grid scan every curve point scans its whole box,
        # so it is the report min_abs_det gives for the box on its own,
        # screened and exact-stage rows included, whatever the chunking.
        # screened counts the box's orbit representatives; the exact stage
        # takes every grid slice's candidates, so its rows depend on
        # SUB_BATCH
        monkeypatch.setattr(decay, "SUB_BATCH", sub_batch)
        sizes = stage_sizes(monkeypatch)
        curve = decay_curve(two_antenna_spec, 2)
        assert [rep.screened for rep in curve] == [1640, 97656]
        assert sizes == stage_rows
        sizes.clear()
        alone = [min_abs_det(two_antenna_spec, rep.bounds) for rep in curve]
        assert sizes == stage_rows
        for rep, want in zip(curve, alone, strict=True):
            same_report(rep, want)
            assert rep.screened == want.screened
            assert rep.D_value == 0.5
        assert [rep.argmin.vectors for rep in curve] == [
            ((-1, -1, -1, 0, -1, -1, 1, 1),), ((-2, -2, -2, 1, -2, -2, 1, 2),),
        ]

    def test_tied_minimum_moves_to_the_shell(self, golden_spec):
        # golden N = 2 ties N = 1, and its first minimizer in lex order lies
        # outside the N = 1 box, ahead of the previous argmin
        one, two = decay_curve(golden_spec, 2)
        assert two.abs_sq == one.abs_sq and two.D_value == one.D_value
        assert one.argmin.vectors == ((-1, -1, 0, 0), (-1, -1, 1, 0))
        assert two.argmin.vectors == ((-2, -1, 1, 1), (-1, -1, 0, 0))
        assert max(map(abs, two.argmin.vectors[0])) == 2

    def test_screened_counts_frozen(self, golden_spec):
        # codewords whose float bounds a point computed: on the
        # meet-in-the-middle scan, the window pairs, which the previous
        # point's D narrows in a curve
        want = {
            FIRST_USER: (
                [98, 458, 1394, 1488, 2772, 4580, 7026, 8414],
                [98, 458, 1394, 3006, 5018, 8262, 12662, 11598],
            ),
            ALL_USERS: ([98, 2318, 13054], [98, 2318, 13054]),
        }
        assert screened_counts(golden_spec) == want
        sampled = min_abs_det(golden_spec, (2, 2), mode=SAMPLED, samples=300, seed=5)
        assert sampled.screened == 300
        assert naive_min_abs_det(golden_spec, (1, 1)).screened == 0

    def test_curve_budget_refusal_unchanged(self, golden_spec):
        # the budget applies to the whole box of each point
        with pytest.raises(
            BudgetExceeded,
            match=r"^exhaustive search needs 5760000 codewords, budget is 400000;"
            r" use SAMPLED mode$",
        ):
            decay_curve(golden_spec, 3, pattern=ALL_USERS, budget=400_000)

    def test_sampled_curve_budget_covers_the_curve(self, golden_spec, monkeypatch):
        # each point's 10 samples fit the budget; the curve's 10**9 do not
        def no_draw(*args):
            raise AssertionError("a sample was drawn")

        draw = decay._sample_chunks
        monkeypatch.setattr(decay, "_sample_chunks", no_draw)
        for n_max, samples, budget in ((10**8, 10, 10**8), (3, 34, 100)):
            with pytest.raises(
                BudgetExceeded,
                match=rf"^sampled curve needs {n_max} x {samples} samples,"
                rf" budget is {budget}$",
            ):
                decay_curve(
                    golden_spec, n_max, mode=SAMPLED, samples=samples, budget=budget
                )
        # N_max x samples equal to the budget runs
        monkeypatch.setattr(decay, "_sample_chunks", draw)
        curve = decay_curve(golden_spec, 3, mode=SAMPLED, samples=33, budget=99)
        assert [rep.samples for rep in curve] == [33, 33, 33]

    def test_curve_argument_validation(self, golden_spec):
        with pytest.raises(ValueError):
            decay_curve(golden_spec, 0)
        with pytest.raises(ValueError):
            decay_curve(golden_spec, 2, pattern="sideways")


def screened_counts(spec) -> dict:
    """``screened`` of the golden-curves points, in their curve and each
    box alone."""
    out = {}
    for pattern, n_max in ((FIRST_USER, 8), (ALL_USERS, 3)):
        curve = decay_curve(spec, n_max, pattern=pattern)
        alone = [min_abs_det(spec, r.bounds) for r in curve]
        out[pattern] = ([r.screened for r in curve], [r.screened for r in alone])
    return out


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
        screened=0,
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

    def test_box_scan_refuses_a_fractional_sigma(self, golden_tower, monkeypatch):
        # no shipped degree-2 tower has one: a sigma matrix over a
        # denominator is refused rather than scanned as if integral
        real = kernels.IntKernel.sigma_vec_mat
        monkeypatch.setattr(
            kernels.IntKernel, "sigma_vec_mat", lambda kern, t: (real(kern, t)[0], 2)
        )
        one = golden_tower.one()
        with pytest.raises(ValueError, match="does not map the basis ring into itself"):
            two_user_box_scan(one, one, one, one, 1)

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
