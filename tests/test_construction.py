import json
import random
import time
from fractions import Fraction

import pytest

from macdecay.construction import (
    CodeMatrix, CodeSpec, CoefficientBox, assemble_codeword, build_A,
    build_M, build_user_block, choose_k, codeword_from_coeffs, gamma_basis,
    lattice_basis,
)
from macdecay.quadratic import GAUSSIAN, QuadElem, sqrt_minus3

from util import rand_box, rand_elem


def scaled(x, p, exp):
    """x * p^exp for a possibly negative exponent, exact."""
    if exp >= 0:
        return x * p**exp
    return x * (p.inverse() ** (-exp))


class TestSpec:
    def test_choose_k(self):
        assert choose_k(2, 1) == 1
        assert choose_k(2, 2) == 2
        assert choose_k(3, 1) == 1
        assert choose_k(1, 3) == 2
        assert choose_k(3, 3) == 4

    def test_k_bound_is_strict(self, quartic_tower):
        with pytest.raises(ValueError):
            CodeSpec(quartic_tower, sqrt_minus3(), k=1)  # needs k > 1
        spec = CodeSpec(quartic_tower, sqrt_minus3(), k=2)
        assert spec.k == 2

    def test_rejects_non_inert_prime(self, golden_tower):
        # f = x^2 + x - 1 acquires the root sqrt(5) over F_9, so 3 splits
        with pytest.raises(ValueError):
            CodeSpec(golden_tower, QuadElem(3, 0, GAUSSIAN))
        # disc f = 5 kills certification at the primes above 5
        with pytest.raises(ValueError):
            CodeSpec(golden_tower, QuadElem(2, 1, GAUSSIAN))

    def test_large_norm_prime_builds_fast(self, golden_tower):
        # the root search and the search for mu's residue were O(N(p)):
        # this spec took 36 s to certify
        t0 = time.perf_counter()
        spec = CodeSpec(golden_tower, QuadElem(1004, 1001, GAUSSIAN))
        assert time.perf_counter() - t0 < 1.0
        assert spec.norm_p == 2_010_017

    def test_rejects_units_and_non_integral(self, golden_tower):
        with pytest.raises(ValueError):
            CodeSpec(golden_tower, QuadElem(0, 1, GAUSSIAN))
        with pytest.raises(ValueError):
            CodeSpec(golden_tower, QuadElem(Fraction(1, 2), 1, GAUSSIAN))

    def test_derived_quantities(self, golden_spec, quartic_spec):
        assert golden_spec.norm_p == 2
        assert golden_spec.r_per_user == 4
        assert quartic_spec.norm_p == 3
        assert quartic_spec.r_per_user == 16

    def test_json_round_trip(self, quartic_spec):
        back = CodeSpec.from_json_dict(
            json.loads(json.dumps(quartic_spec.to_json_dict()))
        )
        assert back == quartic_spec


class TestCodeMatrix:
    def test_entry_value_clears_denominator(self, golden_spec):
        tower, p = golden_spec.tower, golden_spec.p
        x = tower.theta()
        m = CodeMatrix(golden_spec, [[(x, 2)]])
        val = m.entry_value(0, 0)
        assert val * (tower.one() * (p**2)) == x

    def test_negative_exponent_rejected(self, golden_spec):
        with pytest.raises(ValueError):
            CodeMatrix(golden_spec, [[(golden_spec.tower.one(), -1)]])

    def test_stacking(self, golden_spec):
        one = golden_spec.tower.one()
        a = CodeMatrix(golden_spec, [[(one, 0)]])
        b = CodeMatrix(golden_spec, [[(one * 2, 1)]])
        v = CodeMatrix.vstack([a, b])
        assert v.shape == (2, 1)
        assert v.entries[1][0] == b.entries[0][0]


class TestBuildM:
    def test_single_antenna(self, golden_spec):
        x = golden_spec.tower.theta()
        m = build_M(golden_spec, [x])
        assert m.shape == (1, 1)
        assert m.entry_value(0, 0) == x

    def test_two_antenna_template(self, quartic_spec):
        # [[x1, p*tau(x2)], [x2, tau(x1)]] with tau = sigma^U
        tower, p = quartic_spec.tower, quartic_spec.p
        rng = random.Random(83)
        x1 = rand_elem(tower, rng, 2, nonzero=True)
        x2 = rand_elem(tower, rng, 2, nonzero=True)
        m = build_M(quartic_spec, [x1, x2])
        assert m.shape == (2, 2)
        assert m.entry_value(0, 0) == x1
        assert m.entry_value(0, 1) == x2.apply_sigma(quartic_spec.U) * p
        assert m.entry_value(1, 0) == x2
        assert m.entry_value(1, 1) == x1.apply_sigma(quartic_spec.U)

    def test_entries_are_integral(self, miso_spec):
        rng = random.Random(89)
        xs = [rand_elem(miso_spec.tower, rng, 2) for _ in range(3)]
        if not any(xs):
            xs[0] = miso_spec.tower.one()
        m = build_M(miso_spec, xs)
        for r in range(3):
            for c in range(3):
                assert m.entry_value(r, c).is_integral()


class TestUserBlocksAndStacking:
    def test_three_user_single_antenna_template(self, cubic_spec):
        # rows: sigma^t(x_j) across block t, with p^-1 on the diagonal
        tower, p = cubic_spec.tower, cubic_spec.p
        rng = random.Random(97)
        data = [rand_elem(tower, rng, 2, nonzero=True) for _ in range(3)]
        A = build_A(
            cubic_spec,
            [build_user_block(cubic_spec, j + 1, [data[j]]) for j in range(3)],
        )
        assert A.shape == (3, 3)
        for r in range(3):
            for c in range(3):
                expected = data[r].apply_sigma(c)
                if r == c:
                    expected = scaled(expected, p, -1)
                assert A.entry_value(r, c) == expected

    def test_two_user_two_antenna_template(self, quartic_spec):
        # the published 4x4 shape: block denominators p^-2 on the diagonal
        # user blocks, sigma^t applied across block columns
        tower, p = quartic_spec.tower, quartic_spec.p
        rng = random.Random(101)
        x1, x2, y1, y2 = (rand_elem(tower, rng, 2, nonzero=True) for _ in range(4))
        A = build_A(
            quartic_spec,
            [
                build_user_block(quartic_spec, 1, [x1, x2]),
                build_user_block(quartic_spec, 2, [y1, y2]),
            ],
        )
        assert A.shape == (4, 4)
        s = lambda e, t: e.apply_sigma(t)
        expected = [
            [scaled(x1, p, -2), scaled(s(x2, 2), p, -1), s(x1, 1), s(x2, 3) * p],
            [scaled(x2, p, -2), scaled(s(x1, 2), p, -2), s(x2, 1), s(x1, 3)],
            [y1, s(y2, 2) * p, scaled(s(y1, 1), p, -2), scaled(s(y2, 3), p, -1)],
            [y2, s(y1, 2), scaled(s(y2, 1), p, -2), scaled(s(y1, 3), p, -2)],
        ]
        for r in range(4):
            for c in range(4):
                assert A.entry_value(r, c) == expected[r][c], (r, c)

    def test_user_index_is_one_based(self, golden_spec):
        x = [golden_spec.tower.one()]
        with pytest.raises(ValueError):
            build_user_block(golden_spec, 0, x)
        with pytest.raises(ValueError):
            build_user_block(golden_spec, 3, x)

    def test_all_zero_data_rejected(self, golden_spec):
        with pytest.raises(ValueError):
            build_user_block(golden_spec, 1, [golden_spec.tower.zero()])

    def test_block_count_checked(self, golden_spec):
        b = build_user_block(golden_spec, 1, [golden_spec.tower.one()])
        with pytest.raises(ValueError):
            build_A(golden_spec, [b])


class TestLattices:
    def test_lattice_sizes(self, golden_spec, quartic_spec):
        assert len(lattice_basis(golden_spec, 1)) == 4
        assert len(lattice_basis(quartic_spec, 2)) == 16

    def test_gamma_basis_order(self, quartic_tower):
        basis = gamma_basis(quartic_tower)
        d = quartic_tower.d
        th = quartic_tower.theta()
        mu = quartic_tower.mu_elem()
        acc = quartic_tower.one()
        for a in range(d):
            assert basis[a] == acc
            assert basis[d + a] == mu * acc
            acc = acc * th

    def test_gamma_basis_built_once_per_tower(self, quartic_tower):
        basis = gamma_basis(quartic_tower)
        assert isinstance(basis, tuple)
        assert gamma_basis(quartic_tower) is basis

    def test_codeword_linearity(self, golden_spec, quartic_spec):
        rng = random.Random(103)
        for spec in (golden_spec, quartic_spec):
            r = spec.r_per_user
            u = [rng.randint(-3, 3) for _ in range(r)]
            v = [rng.randint(-3, 3) for _ in range(r)]
            w = [a + b for a, b in zip(u, v)]
            cu = codeword_from_coeffs(spec, 1, u)
            cv = codeword_from_coeffs(spec, 1, v)
            cw = codeword_from_coeffs(spec, 1, w)
            for ru, rv, rw in zip(cu.values(), cv.values(), cw.values()):
                assert [a + b for a, b in zip(ru, rv)] == rw

    def test_zero_coefficients_give_zero_matrix(self, golden_spec):
        m = codeword_from_coeffs(golden_spec, 1, [0] * 4)
        assert all(not n for row in m.entries for n, _ in row)
        assert m.shape == (1, 2)

    def test_coefficient_length_checked(self, golden_spec):
        with pytest.raises(ValueError):
            codeword_from_coeffs(golden_spec, 1, [1, 0])

    def test_basis_matches_coefficient_map(self, golden_spec):
        # unit vector e_g reproduces the g-th lattice basis matrix
        mats = lattice_basis(golden_spec, 2)
        r = golden_spec.r_per_user
        for g in (0, r - 1):
            coeffs = [0] * r
            coeffs[g] = 1
            m = codeword_from_coeffs(golden_spec, 2, coeffs)
            assert m.values() == mats[g].values()


class TestCoefficientBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientBox((1,), ((2, 0, 0, 0),))  # out of range
        with pytest.raises(ValueError):
            CoefficientBox((0,), ((0, 0, 0, 0),))  # bound must be positive
        with pytest.raises(ValueError):
            CoefficientBox((1, 1), ((1, 0),))  # one bound per user

    @pytest.mark.parametrize(
        "bounds, vectors",
        [((1.5,), ((1, 0, 0, 0),)), ((2,), ((1.5, 0, 0, 0),)), ((2.0,), ((1, 0, 0, 0),))],
    )
    def test_non_integer_entries_refused(self, bounds, vectors):
        # 1.5 used to pass, and the rank sweep read it as 1
        with pytest.raises(ValueError, match="integers"):
            CoefficientBox(bounds, vectors)

    def test_predicates(self):
        box = CoefficientBox((2, 2), ((1, 0, 0, 0), (0, 0, 0, 0)))
        assert box.users == 2
        assert box.lex_key() == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_assemble_codeword_shape(self, quartic_spec):
        rng = random.Random(107)
        box = rand_box(quartic_spec, rng, 2)
        A = assemble_codeword(quartic_spec, box)
        assert A.shape == (4, 4)

    def test_assemble_requires_matching_users(self, golden_spec):
        box = CoefficientBox((1,), ((1, 0, 0, 0),))
        with pytest.raises(ValueError):
            assemble_codeword(golden_spec, box)
