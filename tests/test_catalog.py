import math
from fractions import Fraction

import pytest

from macdecay.catalog import (
    PeriodSpec, build_tower, catalog_rows, cyclotomic_poly, find_inert_primes,
    period_min_poly, quotient_generator, sigma_image_poly,
    standard_generators, standard_period_spec,
)
from macdecay.quadratic import (
    GAUSSIAN, EISENSTEIN, QuadElem, canonical_associate,
    sqrt_minus3,
)

from util import verify_orbit_product

# conductor, H generators, minimal polynomial (low-first), quotient generator
STANDARD = {
    2: (5, (4,), (-1, 1, 1), 2),
    3: (7, (6,), (-1, -2, 1, 1), 2),
    4: (17, (13,), (1, -1, -6, 1, 1), 3),
    5: (11, (10,), (1, 3, -3, -4, 1, 1), 2),
    6: (13, (12,), (-1, 3, 6, -4, -5, 1, 1), 2),
    7: (29, (12,), (1, -9, 14, 28, -7, -12, 1, 1), 2),
}


def period_value(ps: PeriodSpec) -> float:
    """Float value of the period eta_1 = sum over H of exp(2 pi i h / m)."""
    return sum(math.cos(2 * math.pi * h / ps.m) for h in ps.subgroup)


class TestPeriodSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodSpec(4, (1,))
        with pytest.raises(ValueError):
            PeriodSpec(9, (3,))  # 3 is not a unit mod 9

    def test_subgroup_and_cosets(self):
        ps = PeriodSpec(7, (6,))
        assert ps.subgroup == frozenset({1, 6})
        assert ps.degree == 3
        assert ps.cosets == ((1, 6), (2, 5), (3, 4))
        assert ps.coset_of(3) == (3, 4)
        assert ps.coset_of(10) == (3, 4)

    def test_validate_real(self):
        PeriodSpec(7, (6,)).validate_real()
        with pytest.raises(ValueError):
            PeriodSpec(7, (2,)).validate_real()  # H = {1,2,4} misses -1

    def test_standard_specs(self):
        for degree, (m, gens, _, _) in STANDARD.items():
            ps = standard_period_spec(degree)
            assert (ps.m, ps.generators) == (m, gens)
            assert ps.degree == degree
            ps.validate_real()

    def test_standard_generators_requires_admissible_conductor(self):
        with pytest.raises(ValueError):
            standard_generators(7, 2)  # 4 does not divide 6
        with pytest.raises(ValueError):
            standard_generators(15, 2)  # composite conductor


class TestPeriodPolynomials:
    def test_cyclotomic_prime(self):
        assert cyclotomic_poly(5) == [1, 1, 1, 1, 1]

    def test_frozen_coefficients(self):
        for degree, (m, gens, coeffs, _) in STANDARD.items():
            assert period_min_poly(PeriodSpec(m, gens)) == coeffs, degree

    def test_period_is_a_root(self):
        for degree, (m, gens, _, _) in STANDARD.items():
            ps = PeriodSpec(m, gens)
            f = period_min_poly(ps)
            val = sum(float(c) * period_value(ps) ** j for j, c in enumerate(f))
            assert abs(val) < 1e-8, degree

    def test_monic_integral(self):
        for degree in STANDARD:
            f = period_min_poly(standard_period_spec(degree))
            assert f[-1] == 1
            assert all(type(c) is int for c in f)


class TestGaloisAction:
    def test_quotient_generator_frozen(self):
        for degree, (m, gens, _, g0) in STANDARD.items():
            assert quotient_generator(PeriodSpec(m, gens)) == g0, degree

    def test_sigma_image_examples(self):
        ps5 = standard_period_spec(2)
        assert sigma_image_poly(ps5, 2) == (Fraction(-1), Fraction(-1))
        ps7 = standard_period_spec(3)
        assert sigma_image_poly(ps7, 3) == (Fraction(1), Fraction(-1), Fraction(-1))
        assert sigma_image_poly(ps7, 2) == (Fraction(-2), Fraction(0), Fraction(1))

    def test_sigma_image_matches_conjugate_period(self):
        # the image polynomial evaluated at eta_1 equals eta_{g0} numerically
        for degree in (2, 3, 4):
            ps = standard_period_spec(degree)
            g0 = quotient_generator(ps)
            img = sigma_image_poly(ps, g0)
            eta1 = period_value(ps)
            eta_g = sum(
                math.cos(2 * math.pi * h / ps.m) for h in ps.coset_of(g0)
            )
            val = sum(float(c) * eta1**j for j, c in enumerate(img))
            assert abs(val - eta_g) < 1e-8, degree

    def test_identity_coset_image(self):
        ps = standard_period_spec(3)
        assert sigma_image_poly(ps, 1) == (0, 1, 0)  # x itself


class TestBuildTower:
    def test_standard_tower_shape(self, golden_tower, quartic_tower):
        assert (golden_tower.U, golden_tower.n_t, golden_tower.d) == (2, 1, 2)
        assert (quartic_tower.U, quartic_tower.n_t, quartic_tower.d) == (2, 2, 4)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_tower(GAUSSIAN, 2, 1, m=7, generators=(6,))

    def test_explicit_conductor(self):
        tower = build_tower(EISENSTEIN, 3, 1, m=7, generators=(6,))
        assert tower.d == 3
        th = tower.theta()
        assert th.apply_sigma(3) == th

    def test_g0_override_is_a_power(self):
        t2 = build_tower(GAUSSIAN, 3, 1)          # g0 = 2
        t3 = build_tower(GAUSSIAN, 3, 1, g0=3)    # coset of 3 = coset of 2^?
        # sigma_{g0=3} must be some power of sigma_{g0=2} on theta; both
        # towers share the theta power basis, so coordinates are comparable
        th = t2.theta()
        img3 = t3.theta().apply_sigma(1).coords
        assert img3 in (th.apply_sigma(1).coords, th.apply_sigma(2).coords)

    def test_orbit_products(self):
        for tower in (
            build_tower(GAUSSIAN, 3, 1),
            build_tower(EISENSTEIN, 2, 2),
            build_tower(GAUSSIAN, 2, 1),
        ):
            assert verify_orbit_product(tower)


class TestInertSearch:
    def test_golden_tower_gaussian(self, golden_tower):
        primes = find_inert_primes(golden_tower, 10)
        assert len(primes) == 1
        assert primes[0] == canonical_associate(QuadElem(1, 1, GAUSSIAN))

    def test_cubic_tower_includes_published_prime(self, cubic_tower):
        primes = find_inert_primes(cubic_tower, 10)
        assert canonical_associate(QuadElem(2, 1, GAUSSIAN)) in primes
        assert canonical_associate(QuadElem(1, 1, GAUSSIAN)) in primes

    def test_quartic_tower_eisenstein(self, quartic_tower):
        primes = find_inert_primes(quartic_tower, 10)
        assert canonical_associate(sqrt_minus3()) in primes

    def test_results_are_canonical_and_certified(self, cubic_tower):
        from macdecay.finite_fields import is_irreducible_mod_p

        for p in find_inert_primes(cubic_tower, 10):
            assert p == canonical_associate(p)
            assert is_irreducible_mod_p(cubic_tower.f_coeffs, p, cubic_tower.tag)


class TestCatalogRows:
    def test_shape_and_content(self):
        rows = catalog_rows(7, 10)
        assert [r["degree"] for r in rows] == [2, 3, 4, 5, 6, 7]
        by_degree = {r["degree"]: r for r in rows}
        for degree, (m, gens, coeffs, _) in STANDARD.items():
            row = by_degree[degree]
            assert row["m"] == m
            assert tuple(row["H_generators"]) == gens
            assert tuple(Fraction(c) for c in row["f"]) == tuple(
                Fraction(c) for c in coeffs)

    def test_published_primes_present(self):
        rows = {r["degree"]: r for r in catalog_rows(7, 10)}
        assert "-2-1i" in rows[3]["primes_Q(i)"]      # 2+i up to a unit
        assert "-2+1w" in rows[3]["primes_Q(sqrt-3)"]  # sqrt(-3) up to a unit
        assert "-2-1i" in rows[4]["primes_Q(i)"]
        assert "-2+1w" in rows[4]["primes_Q(sqrt-3)"]
        assert "-1-1i" in rows[5]["primes_Q(i)"]      # 1+i up to a unit
        assert "-3+1w" in rows[5]["primes_Q(sqrt-3)"]  # 2+sqrt(-3) up to a unit
        assert "-1-1i" in rows[6]["primes_Q(i)"]
        assert "-3+1w" in rows[6]["primes_Q(sqrt-3)"]
        assert "-1-1i" in rows[7]["primes_Q(i)"]
        assert "-2+1w" in rows[7]["primes_Q(sqrt-3)"]

    def test_small_degree_only(self):
        rows = catalog_rows(2, 10)
        assert len(rows) == 1 and rows[0]["degree"] == 2
