import random
from fractions import Fraction

import pytest

from macdecay.polynomials import Poly, poly_discriminant, resultant
from macdecay.quadratic import GAUSSIAN, QuadElem


def P(*coeffs):
    """Polynomial from low-order-first integer coefficients."""
    return Poly([Fraction(c) for c in coeffs])


def rand_poly(rng, max_deg=5, span=6):
    return Poly([Fraction(rng.randint(-span, span)) for _ in range(rng.randint(1, max_deg + 1))])


class TestBasics:
    def test_degree_and_leading(self):
        f = P(-1, 0, 2)
        assert f.degree == 2
        assert f.leading == 2
        assert P(0).degree is None

    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0) == P(1, 2)

    def test_evaluation_matches_horner(self):
        f = P(-1, -2, 1, 1)
        x = Fraction(3, 2)
        direct = sum(c * x**j for j, c in enumerate(f.coeffs))
        assert f(x) == direct

    def test_derivative(self):
        assert P(0, 2, 0, 1).derivative() == P(2, 0, 3)

    def test_shift_mul_x(self):
        assert P(1, 2).shift_mul_x(2) == P(0, 0, 1, 2)

    def test_monic(self):
        f = P(2, 4, 2)
        assert f.monic() == P(1, 2, 1)
        assert f.monic().is_monic()

    def test_immutable(self):
        f = P(1, 1)
        with pytest.raises(AttributeError):
            f.coeffs = (Fraction(0),)


class TestRingOps:
    def test_divmod_round_trip(self):
        rng = random.Random(19)
        for _ in range(300):
            a = rand_poly(rng)
            b = rand_poly(rng)
            if b.degree is None:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree is None or r.degree < b.degree

    def test_mul_degrees_add(self):
        rng = random.Random(23)
        for _ in range(100):
            a = rand_poly(rng)
            b = rand_poly(rng)
            if a.degree is None or b.degree is None:
                continue
            assert (a * b).degree == a.degree + b.degree

    def test_quad_coefficients(self):
        i = QuadElem(0, 1, GAUSSIAN)
        f = Poly([i, QuadElem(1)])  # x + i
        g = Poly([-i, QuadElem(1)])  # x - i
        assert f * g == Poly([QuadElem(1), QuadElem(0), QuadElem(1)])


class TestGcdResultantDiscriminant:
    def test_resultant_of_coprime_quadratics(self):
        assert resultant(P(-2, 0, 1), P(-3, 0, 1)) == 1

    def test_resultant_linear(self):
        # res(f, g) = lc(f)^deg(g) * prod g(root of f)
        assert resultant(P(-2, 1), P(-5, 1)) == -3

    def test_resultant_vanishes_on_common_root(self):
        assert resultant(P(-1, 1), P(-1, 0, 1)) == 0

    def test_resultant_multiplicative(self):
        rng = random.Random(37)
        for _ in range(30):
            f = rand_poly(rng, max_deg=3)
            g = rand_poly(rng, max_deg=2)
            h = rand_poly(rng, max_deg=2)
            if any(x.degree in (None, 0) for x in (f, g, h)):
                continue
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_discriminants_of_period_polynomials(self):
        assert poly_discriminant(P(-1, 1, 1)) == 5
        assert poly_discriminant(P(-1, -2, 1, 1)) == 49
        assert poly_discriminant(P(1, 0, 1)) == -4
