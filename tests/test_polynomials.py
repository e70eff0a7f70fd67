import random
from fractions import Fraction

import pytest

from macdecay.polynomials import discriminant


def from_roots(roots):
    """The monic integer polynomial prod (x - r), low first."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


def root_discriminant(roots):
    out = 1
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            out *= (a - b) ** 2
    return out


class TestDiscriminant:
    def test_matches_root_formula(self):
        rng = random.Random(41)
        for degree in range(1, 9):
            for _ in range(12):
                roots = [rng.randint(-9, 9) for _ in range(degree)]
                assert discriminant(from_roots(roots)) == root_discriminant(roots), roots

    def test_repeated_root_gives_zero(self):
        rng = random.Random(43)
        for degree in range(2, 9):
            roots = [rng.randint(-9, 9) for _ in range(degree - 1)]
            roots.append(rng.choice(roots))
            assert discriminant(from_roots(roots)) == 0, roots

    def test_leading_zero_pivot(self):
        # x^3 and x^2 (x - 1): the Sylvester matrix needs a row swap
        assert discriminant((0, 0, 0, 1)) == 0
        assert discriminant((0, 0, -1, 1)) == 0
        assert discriminant((-1, 0, 0, 1)) == -27

    def test_discriminants_of_period_polynomials(self):
        assert discriminant((-1, 1, 1)) == 5
        assert discriminant((-1, -2, 1, 1)) == 49
        assert discriminant((1, 0, 1)) == -4
        assert discriminant((1, -1, -6, 1, 1)) == 19652

    @pytest.mark.parametrize(
        "f", [(1, 0, 2), (Fraction(1, 2), 0, 1), (1.0, 1), (1,), ()]
    )
    def test_refuses_non_monic_non_integer_or_constant(self, f):
        with pytest.raises(ValueError):
            discriminant(f)
