"""Exact Laurent polynomial and matrix arithmetic."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from lenslinks.laurent import (
    DivisibilityError,
    LaurentMatrix,
    LaurentPoly,
    divide_exact,
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
