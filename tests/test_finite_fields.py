import random
from fractions import Fraction

import pytest

from macdecay.finite_fields import (
    GF, InertnessInconclusive, is_irreducible_mod_p, pf_gcd, pf_mod, pf_mul,
    pf_powmod, reduce_poly_mod_p, residue_field,
)
from macdecay.quadratic import (
    GAUSSIAN, EISENSTEIN, QuadElem, enumerate_primes, sqrt_minus3,
)

from util import irreducible_by_roots_reference, pf_mod_reference

F5 = (-1, 1, 1)      # conductor 5, degree 2
F7 = (-1, -2, 1, 1)  # conductor 7, degree 3
F17 = (1, -1, -6, 1, 1)  # conductor 17, degree 4


class TestGF:
    def test_prime_field_ops(self):
        gf = GF(5)
        x, y = gf.from_int(3), gf.from_int(4)
        assert gf.mul(x, y) == gf.from_int(2)
        assert gf.add(x, y) == gf.from_int(2)
        assert gf.mul(y, gf.inv(y)) == gf.one()

    def test_quadratic_extension_relation(self):
        gf = GF(3, (-1, 1))  # F_9 = F_3[w], w^2 = w - 1
        w = (0, 1)
        assert gf.q == 9
        assert gf.mul(w, w) == gf.sub(w, gf.one())

    def test_extension_inverse(self):
        gf = GF(7, (-1, 0))  # F_49 = F_7[i]
        rng = random.Random(2)
        for _ in range(40):
            x = (rng.randrange(7), rng.randrange(7))
            if gf.is_zero(x):
                continue
            assert gf.mul(x, gf.inv(x)) == gf.one()

    def test_pow_matches_repeated_mul(self):
        gf = GF(5, (-1, 0))
        x = (2, 3)
        acc = gf.one()
        for _ in range(11):
            acc = gf.mul(acc, x)
        assert gf.pow(x, 11) == acc


class TestResidueField:
    def test_split_prime_residue(self):
        assert residue_field(QuadElem(2, 1, GAUSSIAN)).q == 5

    def test_ramified_prime_residue(self):
        assert residue_field(QuadElem(1, 1, GAUSSIAN)).q == 2
        assert residue_field(sqrt_minus3()).q == 3

    def test_inert_prime_residue(self):
        assert residue_field(QuadElem(3, 0, GAUSSIAN), GAUSSIAN).q == 9
        assert residue_field(QuadElem(2, 0, EISENSTEIN), EISENSTEIN).q == 4

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            residue_field(QuadElem(5, 0, GAUSSIAN), GAUSSIAN)  # 5 splits
        with pytest.raises(ValueError):
            residue_field(QuadElem(4, 2, GAUSSIAN))


class TestIrreducibility:
    def test_conductor5_poly(self):
        # x^2 + x - 1 has no root in F_2, but factors over F_9 (sqrt 5 = 0)
        assert is_irreducible_mod_p(F5, QuadElem(1, 1, GAUSSIAN))
        assert not is_irreducible_mod_p(F5, QuadElem(3, 0, GAUSSIAN), GAUSSIAN)

    def test_discriminant_guard(self):
        # disc(F5) = 5 = (2+i)(2-i): reduction mod 2+i is inconclusive
        with pytest.raises(InertnessInconclusive):
            is_irreducible_mod_p(F5, QuadElem(2, 1, GAUSSIAN))
        # disc(F7) = 49: same guard at the primes above 7
        with pytest.raises(InertnessInconclusive):
            is_irreducible_mod_p(F7, QuadElem(1, 2, EISENSTEIN))

    def test_cubic_both_rings(self):
        assert is_irreducible_mod_p(F7, QuadElem(2, 1, GAUSSIAN))
        assert is_irreducible_mod_p(F7, QuadElem(1, 1, GAUSSIAN))
        assert is_irreducible_mod_p(F7, sqrt_minus3())

    def test_quartic_rabin_path(self):
        assert is_irreducible_mod_p(F17, QuadElem(2, 1, GAUSSIAN))
        assert is_irreducible_mod_p(F17, sqrt_minus3())

    def test_quartic_guard_at_even_prime(self):
        # disc of the conductor-17 quartic is 2^2 * 17^3, so reduction mod
        # 1+i cannot certify inertness and the guard must fire
        with pytest.raises(InertnessInconclusive):
            is_irreducible_mod_p(F17, QuadElem(1, 1, GAUSSIAN))

    def test_rejects_non_monic(self):
        for fn in (is_irreducible_mod_p, reduce_poly_mod_p):
            with pytest.raises(ValueError, match="monic"):
                fn((1, 0, 2), QuadElem(1, 1, GAUSSIAN))

    @pytest.mark.parametrize("f", [(Fraction(1, 2), 0, 1), (-1.0, 1.0, 1.0)])
    def test_rejects_non_integer_coefficients(self, f):
        for fn in (is_irreducible_mod_p, reduce_poly_mod_p):
            with pytest.raises(ValueError, match="integer coefficients"):
                fn(f, QuadElem(1, 1, GAUSSIAN))

    def test_linear_always_irreducible(self):
        assert is_irreducible_mod_p((3, 1), QuadElem(1, 1, GAUSSIAN))

    def test_rabin_matches_root_search_below_degree_4(self):
        # a quadratic or cubic is irreducible iff it has no root in the
        # residue field; Rabin's test must agree wherever the guard passes
        rng = random.Random(59)
        decided = 0
        for tag in (GAUSSIAN, EISENSTEIN):
            for p in enumerate_primes(tag, 50):
                for degree in (2, 3):
                    for _ in range(8):
                        f = tuple(rng.randint(-30, 30) for _ in range(degree)) + (1,)
                        try:
                            got = is_irreducible_mod_p(f, p, tag)
                        except InertnessInconclusive:
                            continue
                        assert got == irreducible_by_roots_reference(f, p, tag), (f, p)
                        decided += 1
        assert decided > 400


class TestPolyModP:
    def test_reduce_poly(self):
        fb, gf = reduce_poly_mod_p(F17, QuadElem(2, 1, GAUSSIAN))
        assert fb == [(1,), (4,), (4,), (1,), (1,)] and gf.q == 5
        fb, gf = reduce_poly_mod_p(F7, QuadElem(3), GAUSSIAN)
        assert fb == [(2, 0), (1, 0), (1, 0), (1, 0)] and gf.q == 9

    def test_powmod_fermat(self):
        # x^q == x mod (x^2 - x) over F_q since both factors are fixed
        gf = GF(5)
        modulus = [gf.zero(), gf.from_int(-1), gf.one()]  # x^2 - x
        x = [gf.zero(), gf.one()]
        assert pf_powmod(x, 5, modulus, gf) == x

    def test_gcd_of_multiples(self):
        gf = GF(7)
        a = [gf.from_int(3), gf.one()]  # x + 3
        b = [gf.from_int(2), gf.one()]  # x + 2
        prod = pf_mul(a, b, gf)
        g = pf_gcd(prod, a, gf)
        # gcd is monic x + 3
        assert g == a

    @pytest.mark.parametrize(
        "gf", [GF(7), GF(13), GF(7, (-1, 0)), GF(5, (-1, 1))],
        ids=["F7", "F13", "F49", "F25"],
    )
    def test_mod_matches_the_inverting_form(self, gf):
        # a monic b skips the inverse of its leading coefficient; a
        # non-monic b (as pf_gcd passes) keeps it
        rng = random.Random(61)

        def elem():
            return tuple(rng.randrange(gf.ell) for _ in range(gf.deg))

        monic = 0
        for _ in range(200):
            a = [elem() for _ in range(rng.randint(0, 9))]
            b = [elem() for _ in range(rng.randint(0, 5))]
            b.append(gf.one() if rng.random() < 0.5 else elem())
            if gf.is_zero(b[-1]):
                continue
            monic += b[-1] == gf.one()
            assert pf_mod(a, b, gf) == pf_mod_reference(a, b, gf), (a, b)
        assert monic > 50
