import math
import random
from fractions import Fraction

import pytest

from macdecay.catalog import build_tower
from macdecay.number_field import L_OVER_F, L_OVER_K, RealAlgebraic, Tower
from macdecay.quadratic import EISENSTEIN, GAUSSIAN, QuadElem, sqrt_minus3

from util import rand_elem

FIXTURE_TOWERS = [
    "golden_tower", "cubic_tower", "quartic_tower", "miso_tower",
    "eisenstein_tower",
]


def fixture_towers(request):
    return [request.getfixturevalue(name) for name in FIXTURE_TOWERS]


def assert_theta_is_the_period(tower):
    """theta's enclosure is tight and sits on the float period sum cos(2 pi h/m)."""
    m, coset = tower.period_hint
    period = math.fsum(math.cos(2 * math.pi * h / m) for h in coset)
    box = tower.theta().embed(50)
    assert abs(box.mid() - period) < 1e-12, tower
    assert box.radius() < Fraction(1, 10**15), tower


class TestGoldenTower:
    def test_defining_relation(self, golden_tower, request):
        th = golden_tower.theta()
        one = golden_tower.one()
        assert th * th == one - th
        for tower in fixture_towers(request):
            th = tower.theta()
            value = tower.zero()
            for c in reversed(tower.f_coeffs):
                value = value * th + c
            assert not value, tower  # f(theta) = 0

    def test_sigma_is_the_conjugate_root(self, golden_tower):
        th = golden_tower.theta()
        image = th.apply_sigma(1)
        # the other root of x^2 + x - 1 is -1 - theta
        assert image == -(golden_tower.one()) - th
        assert image.apply_sigma(1) == th

    def test_norm_and_inverse(self, golden_tower):
        th = golden_tower.theta()
        one = golden_tower.one()
        n = th.rel_norm(L_OVER_K)
        assert n.coords[0] == QuadElem(-1)
        assert th * (th + one) == one  # theta * (theta + 1) = 1
        assert th.inverse() == th + one

    def test_theta_embedding(self, golden_tower, request):
        box = golden_tower.theta().embed(50)
        mid = box.mid()
        assert abs(mid.real - 0.6180339887498949) < 1e-12
        assert abs(mid.imag) < 1e-12
        for tower in fixture_towers(request):
            assert_theta_is_the_period(tower)
        # a hint that no radius up to 2^-20 brackets a root of f is refused
        t = golden_tower
        off = Tower(GAUSSIAN, t.f_coeffs, t.sigma_coeffs, 2, 1, (7, (1, 6)))
        with pytest.raises(ValueError):
            off.theta().embed(50)

    def test_mu_embedding_gaussian(self, golden_tower):
        box = golden_tower.mu_elem().embed(50)
        assert abs(box.mid() - 1j) < 1e-12


class TestCubicTower:
    def test_sigma_order(self, cubic_tower, request):
        th = cubic_tower.theta()
        assert th.apply_sigma(3) == th
        assert th.apply_sigma(1) != th
        rng = random.Random(37)
        for tower in fixture_towers(request):
            xs = [tower.theta()] + [rand_elem(tower, rng, 3) for _ in range(5)]
            for x in xs:
                image = x
                for _ in range(tower.d):
                    image = image.apply_sigma(1)
                assert image == x, tower  # sigma^d = id
            assert tower.d == 1 or tower.theta().apply_sigma(1) != tower.theta()

    def test_orbit_product_is_constant_term_sign(self, cubic_tower):
        # N(theta) = (-1)^3 * f(0) = 1 for x^3 + x^2 - 2x - 1
        n = cubic_tower.theta().rel_norm(L_OVER_K)
        assert n.coords[0] == QuadElem(1)
        assert not any(n.coords[1:])

    def test_period_value(self, cubic_tower):
        mid = cubic_tower.theta().embed(50).mid()
        assert abs(mid.real - 2 * math.cos(2 * math.pi / 7)) < 1e-12
        for degree in range(2, 8):
            for tag in (GAUSSIAN, EISENSTEIN):
                assert_theta_is_the_period(build_tower(tag, degree, 1))

    def test_sigma_respects_multiplication(self, cubic_tower):
        rng = random.Random(41)
        for _ in range(40):
            x = rand_elem(cubic_tower, rng, 3)
            y = rand_elem(cubic_tower, rng, 3)
            assert (x * y).apply_sigma(1) == x.apply_sigma(1) * y.apply_sigma(1)
            assert (x + y).apply_sigma(1) == x.apply_sigma(1) + y.apply_sigma(1)


class TestEisensteinTower:
    def test_mu_embedding(self, quartic_tower):
        box = quartic_tower.mu_elem().embed(50)
        mid = box.mid()
        assert abs(mid - complex(0.5, math.sqrt(3) / 2)) < 1e-12

    def test_sqrt_minus3_element(self, quartic_tower):
        r = quartic_tower.from_coords([sqrt_minus3()] + [QuadElem(0)] * 3)
        sq = r * r
        assert sq == quartic_tower.from_rational(-3)

    def test_tau_fixes_relative_norm(self, quartic_tower):
        rng = random.Random(43)
        for _ in range(25):
            x = rand_elem(quartic_tower, rng, 2)
            n = x.rel_norm(L_OVER_F)
            assert n.apply_tau(1) == n

    def test_tau_is_sigma_U(self, quartic_tower):
        rng = random.Random(47)
        x = rand_elem(quartic_tower, rng, 2)
        assert x.apply_tau(1) == x.apply_sigma(quartic_tower.U)
        assert x.apply_tau(2) == x


class TestFieldArithmetic:
    def test_field_axioms_random(self, golden_tower, quartic_tower, request):
        rng = random.Random(53)
        for tower in (golden_tower, quartic_tower):
            for _ in range(30):
                x = rand_elem(tower, rng, 3)
                y = rand_elem(tower, rng, 3)
                z = rand_elem(tower, rng, 3)
                assert (x + y) * z == x * z + y * z
                assert (x * y) * z == x * (y * z)
        # the embedding is a homomorphism: the enclosure of x*y holds the
        # product of the factors' midpoints, within their radii
        rng = random.Random(57)
        for tower in fixture_towers(request):
            for _ in range(10):
                x = rand_elem(tower, rng, 3) * Fraction(1, rng.randint(1, 3))
                y = rand_elem(tower, rng, 3).apply_sigma(1)
                ex, ey, exy = x.embed(50), y.embed(50), (x * y).embed(50)
                rx, ry = float(ex.radius()), float(ey.radius())
                slack = (
                    float(exy.radius()) + abs(ex.mid()) * ry + abs(ey.mid()) * rx
                    + rx * ry + 1e-15 * (1 + abs(ex.mid()) * abs(ey.mid()))
                )
                assert abs(exy.mid() - ex.mid() * ey.mid()) <= slack, tower

    def test_inverse_round_trip(self, golden_tower, request):
        rng = random.Random(59)
        one = golden_tower.one()
        for _ in range(40):
            x = rand_elem(golden_tower, rng, 4, nonzero=True)
            assert x * x.inverse() == one
        for tower in fixture_towers(request):
            for _ in range(8):
                x = rand_elem(tower, rng, 3, nonzero=True).apply_sigma(1)
                assert x * x.inverse() == tower.one(), tower

    def test_division_by_zero(self, golden_tower):
        with pytest.raises(ZeroDivisionError):
            golden_tower.one() / golden_tower.zero()

    def test_norm_multiplicative(self, quartic_tower, request):
        rng = random.Random(61)
        for level in (L_OVER_K, L_OVER_F):
            for _ in range(20):
                x = rand_elem(quartic_tower, rng, 2)
                y = rand_elem(quartic_tower, rng, 2)
                assert (x * y).rel_norm(level) == x.rel_norm(level) * y.rel_norm(level)
        for tower in fixture_towers(request):
            for _ in range(6):
                x = rand_elem(tower, rng, 2)
                y = rand_elem(tower, rng, 2)
                nx, ny = x.rel_norm(L_OVER_K), y.rel_norm(L_OVER_K)
                assert (x * y).rel_norm(L_OVER_K) == nx * ny, tower
                # N_{L/K}(x) lands in K
                assert nx == tower.from_coords([nx.coords[0]] + [0] * (tower.d - 1))

    def test_integrality(self, golden_tower, request):
        th = golden_tower.theta()
        assert th.is_integral()
        assert not (th * Fraction(1, 2)).is_integral()
        # one canonical (num, den) per element
        rng = random.Random(79)
        for tower in fixture_towers(request):
            assert (tower.zero() * Fraction(1, 3)).den == 1
            for _ in range(5):
                x = rand_elem(tower, rng, 4, nonzero=True)
                back = (x * Fraction(1, 3)) * 3
                assert back == x and hash(back) == hash(x) and back.den == 1


class TestValuations:
    def test_inert_prime_valuation(self, golden_spec):
        tower, p = golden_spec.tower, golden_spec.p
        th = tower.theta()
        assert th.valuation(p) == 0
        assert (th * p).valuation(p) == 1
        assert (th * p * p).valuation(p) == 2
        assert tower.zero().valuation(p) == math.inf

    def test_valuation_additive(self, quartic_spec):
        rng = random.Random(67)
        p = quartic_spec.p
        for _ in range(25):
            x = rand_elem(quartic_spec.tower, rng, 2, nonzero=True)
            y = rand_elem(quartic_spec.tower, rng, 2, nonzero=True)
            assert (x * y).valuation(p) == x.valuation(p) + y.valuation(p)

    def test_guard_when_disc_shares_prime(self, golden_tower):
        # disc of x^2 + x - 1 is 5 = (2+i)(2-i)
        with pytest.raises(ValueError):
            golden_tower.theta().valuation(QuadElem(2, 1, GAUSSIAN))


class TestRealAlgebraic:
    def test_abs_sq_is_exact(self, golden_tower):
        th = golden_tower.theta()
        mu = golden_tower.mu_elem()
        x = th + mu  # theta + i
        sq = x.abs_sq_real()
        # |theta + i|^2 = theta^2 + 1 = 2 - theta
        assert sq.coords == (Fraction(2), Fraction(-1))

    def test_sign_and_ordering(self, golden_tower):
        # theta = 0.618...: theta - 1/2 > 0, theta - 2/3 < 0
        a = RealAlgebraic(golden_tower, (-1, 2), 2)
        b = RealAlgebraic(golden_tower, (-2, 3), 3)
        zero = RealAlgebraic(golden_tower, (0, 0))
        assert a.sign() == 1
        assert b.sign() == -1
        assert zero.sign() == 0
        assert b < a
        assert b <= a
        assert not a < b

    def test_ordering_total_on_rationals(self, golden_tower):
        rng = random.Random(71)
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(30)]
        elems = [
            RealAlgebraic(golden_tower, (v.numerator, 0), v.denominator) for v in vals
        ]
        order = sorted(range(len(vals)), key=lambda idx: vals[idx])
        for a, b in zip(order, order[1:]):
            assert elems[a] <= elems[b]

    def test_equality_is_exact_not_float(self, golden_tower):
        # theta is real, so abs_sq of theta is theta^2 = 1 - theta exactly
        sq = golden_tower.theta().abs_sq_real()
        assert sq.coords == (Fraction(1), Fraction(-1))
        near = RealAlgebraic(golden_tower, (10**30, 1 - 10**30), 10**30)
        assert sq != near
        assert sq < near

    def test_sqrt_bounds_bracket(self, golden_tower):
        x = RealAlgebraic(golden_tower, (5, 0), 4)
        lo, hi = x.sqrt_bounds(50)
        root = Fraction(5, 4) ** Fraction(1)  # exact value is sqrt(5)/2
        assert lo <= hi
        assert float(lo) <= math.sqrt(1.25) <= float(hi)
        assert float(hi - lo) < 1e-14

    def test_sqrt_of_zero(self, golden_tower):
        z = RealAlgebraic(golden_tower, (0, 0))
        lo, hi = z.sqrt_bounds(50)
        assert lo == hi == 0

    def test_negative_sqrt_rejected(self, golden_tower):
        neg = RealAlgebraic(golden_tower, (-1, 0))
        with pytest.raises(ValueError):
            neg.sqrt_bounds(50)


class TestSerialization:
    def test_tower_round_trip(self, quartic_tower):
        data = quartic_tower.to_json_dict()
        back = Tower.from_json_dict(data)
        assert back == quartic_tower
        assert back.key == quartic_tower.key
        # theta must be an algebraic integer
        with pytest.raises(ValueError):
            Tower.from_json_dict(dict(data, f=["1/2"] + data["f"][1:]))

    def test_round_trip_preserves_arithmetic(self, cubic_tower):
        back = Tower.from_json_dict(cubic_tower.to_json_dict())
        th1 = cubic_tower.theta().apply_sigma(1)
        th2 = back.theta().apply_sigma(1)
        assert [str(c) for c in th1.coords] == [str(c) for c in th2.coords]
