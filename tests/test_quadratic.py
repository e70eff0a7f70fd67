import math
import random
from fractions import Fraction

import pytest

from macdecay import quadratic
from macdecay.quadratic import (
    GAUSSIAN, EISENSTEIN, MAX_NORM_BOUND, QuadElem, RingTag, canonical_associate,
    enumerate_primes, mu, ok_valuation, primes_above, sqrt_minus3, units,
)

from util import canonical_associate_reference


def G(a, b=0):
    return QuadElem(a, b, GAUSSIAN)


def E(a, b=0):
    return QuadElem(a, b, EISENSTEIN)


class TestRingStructure:
    def test_generator_relations(self):
        # i^2 = -1; the Eisenstein generator is a primitive 6th root: w^2 = w - 1
        assert mu(GAUSSIAN) ** 2 == QuadElem(-1)
        assert mu(EISENSTEIN) ** 2 == mu(EISENSTEIN) - 1

    def test_sqrt_minus3(self):
        r = sqrt_minus3()
        assert r == E(-1, 2)
        assert r * r == QuadElem(-3)
        assert r.norm() == 3

    def test_norm_forms(self):
        assert G(2, 1).norm() == 5
        assert G(3, 4).norm() == 25
        assert E(1, 2).norm() == 7  # 2 + sqrt(-3)
        assert E(-2, 1).norm() == 3

    def test_conjugation(self):
        assert G(2, 1).conj() == G(2, -1)
        # conj(w) = 1 - w for the 6th root of unity
        assert mu(EISENSTEIN).conj() == E(1, -1)
        x = E(3, 2)
        assert (x * x.conj()).a == x.norm()
        assert (x * x.conj()).b == 0

    def test_product_of_conjugate_primes(self):
        assert G(2, 1) * G(2, -1) == QuadElem(5)

    def test_rational_tag_collapse(self):
        assert QuadElem(3, 0, GAUSSIAN) == QuadElem(3, 0, EISENSTEIN)
        assert QuadElem(3, 0, GAUSSIAN).tag is RingTag.RATIONAL

    def test_mixed_tag_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            G(1, 1) + E(1, 1)

    def test_immutable(self):
        x = G(1, 2)
        with pytest.raises(AttributeError):
            x.a = Fraction(5)

    def test_fraction_components(self):
        x = QuadElem(Fraction(1, 2), Fraction(3, 2), GAUSSIAN)
        assert not x.is_integral()
        assert (x + x).is_integral()

    def test_units(self):
        assert len(units(GAUSSIAN)) == 4
        assert len(units(EISENSTEIN)) == 6
        for u in units(EISENSTEIN):
            assert u.norm() == 1 and u.is_unit()


class TestDivision:
    def test_exact_division(self):
        assert QuadElem(5) / G(2, 1) == G(2, -1)
        assert G(2, 1) / G(2, 1) == QuadElem(1)

    def test_inverse(self):
        x = E(1, 2)
        assert x * x.inverse() == QuadElem(1)

    def test_negative_power(self):
        x = G(2, 1)
        assert x ** -2 == (x.inverse()) ** 2
        assert x ** -2 * x ** 2 == QuadElem(1)


class TestValuation:
    def test_simple_powers(self):
        p = G(1, 1)
        assert ok_valuation(p ** 3 * G(2, 1), p) == 3
        assert ok_valuation(QuadElem(9), sqrt_minus3()) == 4
        assert ok_valuation(QuadElem(7), G(1, 1)) == 0

    def test_zero_has_infinite_valuation(self):
        assert ok_valuation(QuadElem(0), G(1, 1)) == math.inf

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            ok_valuation(QuadElem(Fraction(1, 2)), G(1, 1))
        with pytest.raises(ValueError):
            ok_valuation(QuadElem(3), QuadElem(1))

    def test_additive_on_products(self):
        rng = random.Random(11)
        p = sqrt_minus3()
        for _ in range(50):
            x = QuadElem(rng.randint(-9, 9), rng.randint(-9, 9), EISENSTEIN)
            y = QuadElem(rng.randint(-9, 9), rng.randint(-9, 9), EISENSTEIN)
            if not x or not y:
                continue
            assert ok_valuation(x * y, p) == ok_valuation(x, p) + ok_valuation(y, p)


class TestAssociatesAndPrimes:
    def test_canonical_associate_frozen(self):
        assert canonical_associate(G(2, 1)) == G(-2, -1)

    def test_canonical_associate_invariant(self):
        for tag in (GAUSSIAN, EISENSTEIN):
            x = QuadElem(3, 1, tag)
            for u in units(tag):
                assert canonical_associate(x * u) == canonical_associate(x)

    def test_canonical_associate_matches_the_product_form(self):
        rng = random.Random(67)
        for tag in (GAUSSIAN, EISENSTEIN):
            for _ in range(300):
                den = rng.choice((1, 1, 2, 3))
                a = Fraction(rng.randint(-40, 40), den)
                b = Fraction(rng.randint(-40, 40), den)
                for x in (QuadElem(a, b, tag), QuadElem(a)):
                    got = canonical_associate(x)
                    want = canonical_associate_reference(x)
                    assert (got.a, got.b, got.tag) == (want.a, want.b, want.tag), x

    @pytest.mark.parametrize("tag", [GAUSSIAN, EISENSTEIN])
    def test_enumerate_primes_matches_the_product_form(self, tag, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(quadratic, "canonical_associate", canonical_associate_reference)
            want = enumerate_primes(tag, 5000)
        got = enumerate_primes(tag, 5000)
        assert [(p.a, p.b, p.tag) for p in got] == [(p.a, p.b, p.tag) for p in want]

    def test_primes_above_split_inert_ramified(self):
        two = primes_above(2, GAUSSIAN)
        assert len(two) == 1 and two[0].norm() == 2  # ramified
        five = primes_above(5, GAUSSIAN)
        assert len(five) == 2 and all(p.norm() == 5 for p in five)
        assert canonical_associate(five[0]) != canonical_associate(five[1])
        three_g = primes_above(3, GAUSSIAN)
        assert len(three_g) == 1 and three_g[0].norm() == 9  # inert
        three_e = primes_above(3, EISENSTEIN)
        assert len(three_e) == 1 and three_e[0].norm() == 3  # ramified
        seven = primes_above(7, EISENSTEIN)
        assert len(seven) == 2 and all(p.norm() == 7 for p in seven)

    def test_split_primes_match_a_direct_search(self):
        # the first a + b*mu (a in 0..ell, b in 1..ell) of norm ell, and its
        # conjugate, name the two primes above a split ell
        for tag in (GAUSSIAN, EISENSTEIN):
            for ell in (5, 7, 13, 19, 37, 61, 97, 193, 229, 241, 277, 313, 337):
                if len(primes_above(ell, tag)) == 1:
                    continue
                cand = next(
                    QuadElem(a, b, tag)
                    for a in range(ell + 1)
                    for b in range(1, ell + 1)
                    if QuadElem(a, b, tag).norm() == ell
                )
                want = sorted(
                    {canonical_associate(cand), canonical_associate(cand.conj())},
                    key=lambda z: (z.a, z.b),
                )
                assert primes_above(ell, tag) == want, (tag, ell)

    def test_enumerate_primes_small_norms(self):
        gaussian = enumerate_primes(GAUSSIAN, 10)
        assert sorted(int(p.norm()) for p in gaussian) == [2, 5, 5, 9]
        eisenstein = enumerate_primes(EISENSTEIN, 10)
        assert sorted(int(p.norm()) for p in eisenstein) == [3, 4, 7, 7]
        for p in gaussian + eisenstein:
            assert p == canonical_associate(p)

    def test_enumerate_primes_refuses_a_huge_bound(self):
        # the sieve used to try to allocate one entry per integer up to 10**12
        assert MAX_NORM_BOUND > 65536  # the CLI's automatic prime search
        with pytest.raises(ValueError, match="exceeds"):
            enumerate_primes(GAUSSIAN, MAX_NORM_BOUND + 1)


class TestFormatting:
    def test_str_forms(self):
        assert str(G(2, 1)) == "2+1i"
        assert str(E(-1, 2)) == "-1+2w"
        assert str(QuadElem(3)) == "3"
