"""Acceptance sweep: nine end-to-end guarantees, each at full advertised size.

Every test here exercises one shipped guarantee at its complete scale and
wall-clock budget and emits a single summary line (shown under ``pytest -rA``).
Unit-level coverage lives in the sibling test modules; nothing in this file
duplicates it.
"""

import itertools
import random
import time

import pytest

from macdecay.catalog import build_tower
from macdecay.construction import CoefficientBox, build_M
from macdecay.decay import (
    ALL_USERS, FIRST_USER, SAMPLED, curve_csv_text, decay_curve, det_exact,
    fit_decay_exponent, min_abs_det, naive_min_abs_det, rank_criterion_check,
    two_user_box_scan, two_user_singularity_test, zero_det_witness_2user,
)
from macdecay.finite_fields import is_irreducible_mod_p
from macdecay.quadratic import QuadElem, RingTag, ok_valuation, sqrt_minus3

from util import rand_box, rand_elem, rand_val0_elem


def _summary(index: int, name: str, detail: str, wall: float) -> None:
    print(f"[acceptance {index}/9] {name}: PASS — {detail} ({wall:.2f}s)")


# ---------------------------------------------------------------------------
# 1. every catalogued tower of degree 3..7 admits the listed inert prime,
#    and that prime does not divide the defining polynomial's discriminant


def test_catalog_towers_admit_listed_inert_primes():
    t0 = time.perf_counter()
    G, E = RingTag.GAUSSIAN, RingTag.EISENSTEIN
    two_plus_i = QuadElem(2, 1, G)
    one_plus_i = QuadElem(1, 1, G)
    root3 = sqrt_minus3()
    two_plus_root3 = QuadElem(1, 2, E)
    listed = {
        3: (two_plus_i, root3),
        4: (two_plus_i, root3),
        5: (one_plus_i, two_plus_root3),
        6: (one_plus_i, two_plus_root3),
        7: (one_plus_i, root3),
    }
    checks = 0
    for degree in sorted(listed):
        gauss_p, eisen_p = listed[degree]
        for tag, p in ((G, gauss_p), (E, eisen_p)):
            tower = build_tower(tag, 1, degree)
            assert ok_valuation(QuadElem(tower.disc), p) == 0, (
                f"degree {degree}: {p} divides the discriminant"
            )
            assert is_irreducible_mod_p(tower.f_coeffs, p, tag), (
                f"degree {degree}: defining polynomial splits mod {p}"
            )
            checks += 1
    wall = time.perf_counter() - t0
    assert checks == 10
    assert wall < 5.0
    _summary(1, "inert prime catalog", f"{checks}/10 tower/prime checks", wall)


# ---------------------------------------------------------------------------
# 2. single-block determinant valuations: a unit slot caps v at n_t - 1,
#    and leading divisible slots pin v at exactly l - 1


def test_block_determinant_valuations_bounded_and_pinned(
    cubic_spec, quartic_spec, miso_spec
):
    t0 = time.perf_counter()
    rng = random.Random(20260401)
    swept = 0
    for spec in (quartic_spec, cubic_spec, miso_spec):
        done = 0
        while done < 1000:
            xs = [rand_elem(spec.tower, rng, 3) for _ in range(spec.n_t)]
            vals = [x.valuation(spec.p) for x in xs if x]
            if not vals or min(vals) != 0:
                continue
            num, s = det_exact(build_M(spec, xs))
            assert s == 0
            assert num, "zero determinant despite a unit slot"
            assert num.valuation(spec.p) <= spec.n_t - 1
            done += 1
        swept += done

    pinned = 0
    for _ in range(34):  # two antennas: divisible leading slot, unit second
        x1 = rand_elem(quartic_spec.tower, rng, 3) * quartic_spec.p
        x2 = rand_val0_elem(quartic_spec, rng, 3)
        num, s = det_exact(build_M(quartic_spec, [x1, x2]))
        assert s == 0
        assert num and num.valuation(quartic_spec.p) == 1
        pinned += 1
    for count, l in ((33, 2), (33, 3)):  # three antennas: l - 1 divisible slots
        for _ in range(count):
            xs = [
                rand_elem(miso_spec.tower, rng, 3) * miso_spec.p
                for _ in range(l - 1)
            ]
            xs.append(rand_val0_elem(miso_spec, rng, 3))
            xs.extend(
                rand_elem(miso_spec.tower, rng, 3)
                for _ in range(miso_spec.n_t - l)
            )
            num, s = det_exact(build_M(miso_spec, xs))
            assert s == 0
            assert num and num.valuation(miso_spec.p) == l - 1
            pinned += 1
    wall = time.perf_counter() - t0
    assert swept == 3000
    assert pinned == 100
    assert wall < 30.0
    _summary(
        2,
        "block valuation bounds",
        f"{swept} random unit-slot blocks + {pinned} pinned patterns",
        wall,
    )


# ---------------------------------------------------------------------------
# 3 + 4. full-scale rank-criterion sweeps, shared by the next two tests


@pytest.fixture(scope="module")
def rank_sweeps(golden_spec, cubic_spec, quartic_spec):
    t0 = time.perf_counter()
    vecs = [v for v in itertools.product((-1, 0, 1), repeat=4) if any(v)]
    golden_boxes = (
        CoefficientBox((1, 1), (v1, v2)) for v1 in vecs for v2 in vecs
    )
    sweeps = {"golden": (rank_criterion_check(golden_spec, golden_boxes), 6400)}
    rng = random.Random(20260815)
    for name, spec in (("cubic", cubic_spec), ("quartic", quartic_spec)):
        boxes = (rand_box(spec, rng, 2) for _ in range(100_000))
        sweeps[name] = (rank_criterion_check(spec, boxes), 100_000)
    sweeps["wall"] = time.perf_counter() - t0
    return sweeps


def test_rank_criterion_holds_at_full_scale(rank_sweeps):
    for name in ("golden", "cubic", "quartic"):
        report, expected = rank_sweeps[name]
        assert report.total == expected, f"{name} sweep missed boxes"
        assert not report.zero_failures, f"{name}: singular codeword found"
    wall = rank_sweeps["wall"]
    assert wall < 300.0
    _summary(
        3,
        "rank criterion sweep",
        "6400 exhaustive + 2x100000 random boxes, zero singular",
        wall,
    )


def test_determinant_numerators_live_in_the_fixed_field(rank_sweeps):
    for name in ("golden", "cubic", "quartic"):
        report, _ = rank_sweeps[name]
        assert not report.tau_failures, f"{name}: numerator moved under tau"
    _summary(
        4,
        "fixed-field membership",
        "every determinant numerator in the sweep is tau-fixed",
        rank_sweeps["wall"],
    )


# ---------------------------------------------------------------------------
# 5. the norm equation decides two-user singularity in both directions


def test_norm_equation_decides_two_user_singularity(golden_tower):
    t0 = time.perf_counter()
    rng = random.Random(20260601)

    scans = 0
    while scans < 100:
        a, b, c, d = (rand_elem(golden_tower, rng, 2) for _ in range(4))
        if two_user_singularity_test(a, b, c, d):
            continue
        hits = two_user_box_scan(a, b, c, d, 2)
        assert hits == 0, "norm test rejected the quadruple but a zero exists"
        scans += 1

    witnesses = 0
    for _ in range(100):
        x, y, z = (rand_elem(golden_tower, rng, 2, nonzero=True) for _ in range(3))
        a, b, c, d = x, x * z, y, z.apply_sigma(1) * y
        assert two_user_singularity_test(a, b, c, d)
        out = zero_det_witness_2user(a, b, c, d)
        assert out is not None, "norm test passed but no witness was built"
        wx, wy = out
        assert wx or wy
        det = (a * wx) * (d * wy.apply_sigma(1)) - (b * wx.apply_sigma(1)) * (c * wy)
        assert not det, "witness does not kill the determinant"
        witnesses += 1

    wall = time.perf_counter() - t0
    assert wall < 120.0
    _summary(
        5,
        "two-user singularity test",
        f"{scans} clean box scans + {witnesses} verified witnesses",
        wall,
    )


# ---------------------------------------------------------------------------
# 6. growing one user's box: D decays like 1/N


def test_single_user_growth_decays_like_inverse_N(golden_spec):
    t0 = time.perf_counter()
    curve = decay_curve(golden_spec, 8, pattern=FIRST_USER, workers=8)
    wall = time.perf_counter() - t0
    assert [max(rep.bounds) for rep in curve] == list(range(1, 9))
    ds = [rep.D_value for rep in curve]
    assert all(later <= earlier for earlier, later in zip(ds, ds[1:])), (
        "D must not increase when the box grows"
    )
    prods = [d * n for d, n in zip(ds, range(1, 9))]
    assert max(prods) / min(prods) <= 10.0
    fit = fit_decay_exponent(curve)
    assert -1.6 <= fit["slope"] <= -0.4, f"slope {fit['slope']} out of range"
    assert wall < 600.0
    _summary(
        6,
        "one-box decay",
        f"N=1..8 exhaustive, slope {fit['slope']:.3f}, N*D spread "
        f"{max(prods) / min(prods):.2f}",
        wall,
    )


# ---------------------------------------------------------------------------
# 7. growing every user's box: D decays like 1/N^2


def test_joint_growth_decays_like_inverse_square(golden_spec):
    t0 = time.perf_counter()
    curve = decay_curve(golden_spec, 3, pattern=ALL_USERS, workers=8)
    wall = time.perf_counter() - t0
    prods = [rep.D_value * max(rep.bounds) ** 2 for rep in curve]
    assert min(prods) > 0, "D collapsed to zero under joint growth"
    assert max(prods) / min(prods) <= 20.0
    assert wall < 600.0
    _summary(
        7,
        "joint-box decay",
        f"N=1..3 exhaustive, N^2*D spread {max(prods) / min(prods):.2f}",
        wall,
    )


# ---------------------------------------------------------------------------
# 8. the search engine reproduces the naive reference exactly


def test_engine_matches_naive_reference(golden_spec):
    t0 = time.perf_counter()
    for bounds in ((1, 1), (1, 2), (2, 1), (2, 2)):
        fast = min_abs_det(golden_spec, bounds, workers=4)
        slow = naive_min_abs_det(golden_spec, bounds)
        assert fast.D_value == slow.D_value, f"{bounds}: minima differ"
        assert fast.argmin == slow.argmin, f"{bounds}: tie-break differs"
        assert fast.abs_sq == slow.abs_sq, f"{bounds}: |det|^2 differs"
        assert fast.det_numerator == slow.det_numerator
        assert fast.det_p_exponent == slow.det_p_exponent
        assert fast.evaluated == slow.evaluated
    wall = time.perf_counter() - t0
    _summary(
        8,
        "engine vs naive reference",
        "boxes (1,1)/(1,2)/(2,1)/(2,2) agree on value, argmin and exact data",
        wall,
    )


# ---------------------------------------------------------------------------
# 9. sampled runs are reproducible: same seed, any worker count, same bytes


def test_sampled_curves_reproduce_byte_identical_csv(golden_spec):
    t0 = time.perf_counter()
    texts = []
    for workers in (1, 2, 3):
        curve = decay_curve(
            golden_spec, 3, mode=SAMPLED, samples=300, seed=13, workers=workers
        )
        texts.append(curve_csv_text(curve).encode())
    assert texts[0] == texts[1] == texts[2], "CSV bytes differ across workers"
    wall = time.perf_counter() - t0
    _summary(
        9,
        "sampled reproducibility",
        "seed 13 across 1/2/3 workers emits identical CSV bytes",
        wall,
    )
