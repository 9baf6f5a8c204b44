"""Exact Laurent polynomial and matrix arithmetic."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import lenslinks.laurent as laurent
from lenslinks.laurent import (
    DivisibilityError,
    LaurentMatrix,
    LaurentPoly,
    _kronecker,
    _pack,
    divide_exact,
    slot_bits,
)


def polys(max_terms=5, exp_range=4, coeff_range=5):
    return st.dictionaries(
        st.integers(-exp_range, exp_range),
        st.integers(-coeff_range, coeff_range),
        max_size=max_terms,
    ).map(LaurentPoly.from_dict)


def matrices(size, entry_polys=None):
    if entry_polys is None:
        entry_polys = polys(max_terms=3, exp_range=2, coeff_range=3)
    row = st.tuples(*[entry_polys] * size)
    return st.tuples(*[row] * size).map(LaurentMatrix)


def spread_polys(min_terms, max_terms, spread, max_bits):
    """Polynomials of min_terms..max_terms terms spanning up to ``spread`` exponents per term.

    The lowest exponent ranges over negative values too, and the
    coefficients have mixed signs and up to ``max_bits`` bits.
    """

    def build(count, data):
        span = data.draw(st.integers(count, spread * count))
        exps = data.draw(st.lists(st.integers(0, span - 1), min_size=count, max_size=count, unique=True))
        low = data.draw(st.integers(-60, 60))
        coeff = st.integers(-(2**max_bits), 2**max_bits).filter(bool)
        coeffs = data.draw(st.lists(coeff, min_size=count, max_size=count))
        return LaurentPoly.from_dict({low + e: c for e, c in zip(exps, coeffs)})

    return st.builds(build, st.integers(min_terms, max_terms), st.data())


def schoolbook(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Reference product: every pair of terms, summed in a dict."""
    coeffs: dict[int, int] = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly.from_dict(coeffs)


T = LaurentPoly.monomial
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def leibniz_det(m: LaurentMatrix) -> LaurentPoly:
    """Reference determinant: the sum over all d! permutations; only for small d."""
    total = ZERO
    for perm in permutations(range(m.size)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(m.size), 2))
        term = ONE
        for row, col in enumerate(perm):
            term = term * m.rows[row][col]
        total = total - term if inversions % 2 else total + term
    return total


def singular(m: LaurentMatrix, scale: LaurentPoly) -> LaurentMatrix:
    """``m`` with its last row replaced by ``scale`` times its first row."""
    rows = list(m.rows)
    rows[-1] = tuple(scale * entry for entry in rows[0])
    return LaurentMatrix(tuple(rows))


def zero_leading_pivot(m: LaurentMatrix) -> LaurentMatrix:
    rows = [list(row) for row in m.rows]
    rows[0][0] = ZERO
    return LaurentMatrix.from_rows(rows)


class TestLaurentPoly:
    def test_unit_cancellation(self):
        assert T(1) * T(-1) == ONE

    def test_additive_cancellation(self):
        a = LaurentPoly.from_dict({1: 1, 0: -1})  # t - 1
        assert a + (-a) == ZERO

    def test_difference_of_squares(self):
        one_plus_t = LaurentPoly.from_dict({0: 1, 1: 1})
        one_minus_t = LaurentPoly.from_dict({0: 1, 1: -1})
        assert one_plus_t * one_minus_t == LaurentPoly.from_dict({0: 1, 2: -1})

    def test_zero_coefficients_dropped(self):
        assert LaurentPoly.from_dict({0: 0, 3: 2}) == LaurentPoly(((3, 2),))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LaurentPoly(((0, 0),))
        with pytest.raises(ValueError):
            LaurentPoly(((1, 1), (0, 1)))

    def test_str_canonical(self):
        assert str(LaurentPoly.from_dict({0: -1, 1: 3, 2: -1})) == "-1 + 3*t - t^2"
        assert str(LaurentPoly.from_dict({-1: 1, 1: 1})) == "t^-1 + t"
        assert str(ZERO) == "0"
        assert str(LaurentPoly.from_dict({-3: -2})) == "-2*t^-3"

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a

    @given(polys())
    def test_shift_is_unit_multiplication(self, a):
        assert a.shift(3) == a * T(3)

    @given(polys(), polys())
    def test_results_pass_validation(self, a, b):
        # Arithmetic skips the constructor's check; its results must still
        # be canonical, so re-validating them succeeds and changes nothing.
        for result in (a + b, a - b, a * b, -a, a.shift(-2)):
            assert LaurentPoly(result.terms) == result


class TestKronecker:
    @settings(max_examples=80, deadline=None)
    @given(spread_polys(8, 40, 6, 80), spread_polys(8, 40, 6, 80))
    def test_products_across_the_cutover(self, a, b):
        # 8..40 terms and up to 6 exponents per term: both routes are taken.
        assert a * b == schoolbook(a, b)

    @settings(max_examples=80, deadline=None)
    @given(spread_polys(1, 12, 20, 70), spread_polys(1, 12, 20, 70))
    def test_packed_route_on_small_and_sparse_operands(self, a, b):
        # The gate keeps these on the schoolbook loop; the packed route
        # itself must still be exact on them.
        assert LaurentPoly(_kronecker(a.terms, b.terms)) == schoolbook(a, b)

    @settings(max_examples=40, deadline=None)
    @given(spread_polys(16, 60, 4, 200), spread_polys(16, 60, 4, 3))
    def test_coefficients_beyond_64_bits(self, a, b):
        assert a * b == schoolbook(a, b)

    def test_cancelling_product(self):
        # (1 - t)(1 + t + ... + t^39) = 1 - t^40: every inner digit is zero.
        ones = LaurentPoly.from_dict({e: 1 for e in range(-20, 20)})
        assert ones * LaurentPoly.from_dict({0: 1, 1: -1}) == LaurentPoly.from_dict({-20: 1, 20: -1})
        big = LaurentPoly.from_dict({e: 2**70 for e in range(20)})
        alternating = LaurentPoly.from_dict({e: (-1) ** e for e in range(20)})
        assert big * alternating == schoolbook(big, alternating)

    @pytest.mark.parametrize(
        "a_terms, b_terms, packed",
        [
            (16, 16, True),
            (15, 40, False),
            (40, 15, False),
        ],
    )
    def test_route_follows_term_count(self, monkeypatch, a_terms, b_terms, packed):
        calls = []
        monkeypatch.setattr(laurent, "_kronecker", lambda a, b: calls.append(1) or _kronecker(a, b))
        a = LaurentPoly.from_dict({e: e + 1 for e in range(a_terms)})
        b = LaurentPoly.from_dict({-e: 2 * e - 7 for e in range(b_terms)})
        assert a * b == schoolbook(a, b)
        assert bool(calls) == packed

    def test_route_follows_spread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(laurent, "_kronecker", lambda a, b: calls.append(1) or _kronecker(a, b))
        dense = LaurentPoly.from_dict({e: 1 for e in range(20)})
        gappy = LaurentPoly.from_dict({5 * e: -3 for e in range(20)})  # 96 exponents for 20 terms
        assert dense * gappy == schoolbook(dense, gappy)
        assert not calls
        assert dense * dense == schoolbook(dense, dense)
        assert calls

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), spread_polys(1, 20, 3, 300))
    def test_pack_round_trip(self, bits, a):
        k = slot_bits(max(bits, max(abs(c) for _, c in a.terms).bit_length() + 1))
        assert LaurentPoly.from_packed(_pack(a.terms, k), k, a.min_exp()) == a

    def test_slot_widths(self):
        assert [slot_bits(b) for b in (1, 8, 9, 16, 17, 33, 64, 65, 129)] == [8, 8, 16, 16, 32, 64, 64, 128, 192]


class TestDivideExact:
    def test_difference_of_squares(self):
        num = LaurentPoly.from_dict({2: 1, 0: -1})
        den = LaurentPoly.from_dict({1: 1, 0: -1})
        assert divide_exact(num, den) == LaurentPoly.from_dict({1: 1, 0: 1})

    def test_zero_dividend(self):
        assert divide_exact(ZERO, T(2, 5)) == ZERO

    def test_four_term_quotient(self):
        num = LaurentPoly.from_dict({0: 1, 1: 1, 2: 1, 3: 1})
        den = LaurentPoly.from_dict({0: 1, 1: 1})
        assert divide_exact(num, den) == LaurentPoly.from_dict({0: 1, 2: 1})

    def test_non_exact_raises(self):
        num = LaurentPoly.from_dict({2: 1, 0: 1})
        den = LaurentPoly.from_dict({1: 1, 0: -1})
        with pytest.raises(DivisibilityError):
            divide_exact(num, den)

    def test_monomial_divisor(self):
        num = LaurentPoly.from_dict({-1: 6, 3: -4})
        assert divide_exact(num, T(2, -2)) == LaurentPoly.from_dict({-3: -3, 1: 2})
        with pytest.raises(DivisibilityError):
            divide_exact(num, T(0, 4))

    def test_remainder_of_lower_degree_raises(self):
        with pytest.raises(DivisibilityError):
            divide_exact(T(1), LaurentPoly.from_dict({0: 1, 2: 1}))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(ONE, ZERO)

    @given(polys(), polys())
    def test_multiplication_roundtrip(self, a, b):
        if b.is_zero:
            return
        assert divide_exact(a * b, b) == a


class TestLaurentMatrix:
    def test_identity_neutral(self):
        m = LaurentMatrix.from_rows([[T(1), ONE], [ZERO, T(-1, 2)]])
        eye = LaurentMatrix.identity(2)
        assert eye @ m == m
        assert m @ eye == m

    def test_hand_product(self):
        a = LaurentMatrix.from_rows([[ONE, T(1)], [ZERO, ONE]])
        b = LaurentMatrix.from_rows([[ONE, ZERO], [T(1), ONE]])
        expected = LaurentMatrix.from_rows(
            [[LaurentPoly.from_dict({0: 1, 2: 1}), T(1)], [T(1), ONE]]
        )
        assert a @ b == expected

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            LaurentMatrix.identity(2) @ LaurentMatrix.identity(3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            LaurentMatrix.from_rows([[ONE, ZERO]])

    def test_det_identity(self):
        for d in range(1, 5):
            assert LaurentMatrix.identity(d).det() == ONE

    def test_det_zero_row(self):
        m = LaurentMatrix.from_rows([[ZERO, ZERO], [T(1), ONE]])
        assert m.det() == ZERO

    def test_det_hand_example(self):
        m = LaurentMatrix.from_rows(
            [[LaurentPoly.from_dict({0: 1, 1: -1}), T(1)], [ONE, ZERO]]
        )
        assert m.det() == T(1, -1)

    @settings(max_examples=40)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(matrices(d), matrices(d))))
    def test_det_multiplicative(self, pair):
        a, b = pair
        assert (a @ b).det() == a.det() * b.det()

    def test_det_zero_leading_entry(self):
        m = LaurentMatrix.from_rows([[ZERO, ONE], [ONE, ZERO]])
        assert m.det() == -ONE

    def test_det_one_by_one(self):
        assert LaurentMatrix.from_rows([[T(-3, 7)]]).det() == T(-3, 7)


class TestDetAgainstLeibniz:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(matrices))
    def test_random(self, m):
        assert m.det() == leibniz_det(m)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6).flatmap(matrices), polys(max_terms=2))
    def test_singular(self, m, scale):
        s = singular(m, scale)
        assert s.det() == leibniz_det(s) == ZERO

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(matrices))
    def test_zero_leading_pivot(self, m):
        z = zero_leading_pivot(m)
        assert z.det() == leibniz_det(z)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda d: matrices(d, polys(max_terms=2, exp_range=1, coeff_range=1))))
    def test_sparse(self, m):
        # Entries are often zero, and so are many minors.
        assert m.det() == leibniz_det(m)
