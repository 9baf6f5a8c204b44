"""Exact Laurent polynomial and matrix arithmetic."""

import json
import random
import time
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import lenslinks.laurent as laurent
from lenslinks import cli
from lenslinks.braid import BraidWord, parse_braid_word
from lenslinks.invariants import AlexanderPoly, _det_numerator
from lenslinks.laurent import (
    DivisibilityError,
    LaurentMatrix,
    LaurentPoly,
    _bareiss,
    _coefficient_bound,
    _column_window,
    _kronecker,
    _pack,
    _respace,
    _term_count,
    _twos_complement,
    divide_cyclic,
    divide_exact,
    slot_bits,
)
from lenslinks.lens import parse_band_diagram
from modp import closure_mod, det_mod, poly_mod, random_point
from reference import (
    Rows,
    burau_reduced,
    centered_digits,
    closure_matrix,
    det_numerator,
    identity,
    laplace_det,
    leibniz_det,
    long_division,
    matmul,
    spelled_out,
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
    return st.tuples(*[row] * size)


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


def T(exponent, coefficient=1):
    """The monomial coefficient * t^exponent."""
    return LaurentPoly.from_dict({exponent: coefficient})


ONE = LaurentPoly.one()
ZERO = LaurentPoly()


def singular(m: Rows, scale: LaurentPoly) -> Rows:
    """``m`` with its last row replaced by ``scale`` times its first row."""
    return m[:-1] + (tuple([scale * entry for entry in m[0]]),)


def zero_leading_pivot(m: Rows) -> Rows:
    return ((ZERO,) + m[0][1:],) + m[1:]


def poly_det(m: Rows) -> LaurentPoly:
    """_bareiss on the LaurentPoly entries, whatever route det() would take."""
    return _bareiss([list(row) for row in m], _term_count, divide_exact, ZERO)


def coefficient_bound(columns) -> int:
    """_coefficient_bound of the matrix with these columns, from each column's sum of squared L1 norms."""
    return _coefficient_bound([sum([sum([abs(c) for _, c in e.terms]) ** 2 for e in column]) for column in columns])


def packed_det(m: Rows) -> LaurentPoly:
    """_bareiss on the entries' values at t = 2^k, whatever route det() would take.

    Column j is shifted by its lowest exponent low_j first, so the result
    is the determinant times t^-(sum of the lows); each entry is packed by
    _pack, and k leaves room for the coefficient bound of the nonzero
    columns as a signed digit.
    """
    columns = list(zip(*m))
    lows = [min([e.min_exp() for e in column if e], default=0) for column in columns]
    k = 8 * (coefficient_bound([column for column in columns if any(column)]).bit_length() // 8 + 1)
    packed = [[_pack(e.terms, k) << k * (e.min_exp() - low) if e else 0 for e, low in zip(row, lows)] for row in m]
    return LaurentPoly.from_packed(_bareiss(packed, int.bit_length, int.__floordiv__, 0), k, sum(lows))


def dets(m: Rows) -> list[LaurentPoly]:
    """The determinant by det() and by _bareiss on each of its two entry types."""
    return [LaurentMatrix.from_rows(m).det(), packed_det(m), poly_det(m)]


def spy_entry_types(monkeypatch) -> list[type]:
    """Patch laurent._bareiss to record the entry type of each matrix it gets."""
    entry_types = []
    method = laurent._bareiss
    monkeypatch.setattr(laurent, "_bareiss", lambda a, *rest: entry_types.append(type(a[0][0])) or method(a, *rest))
    return entry_types


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
    @example(1, LaurentPoly.from_dict({-3: 5, 0: -127, 2: 1}))
    @example(64, LaurentPoly.from_dict({1: -(2**62), 4: 3}))
    def test_pack_round_trip(self, bits, a):
        # Without typecodes every width takes the per-slot branch, as on a
        # big-endian host.
        k = slot_bits(max(bits, max(abs(c) for _, c in a.terms).bit_length() + 1))
        for typecodes in (laurent._TYPECODES, {}):
            with mock.patch.object(laurent, "_TYPECODES", typecodes):
                assert LaurentPoly.from_packed(_pack(a.terms, k), k, a.min_exp()) == a

    def test_slot_widths(self):
        assert [slot_bits(b) for b in (1, 8, 9, 16, 17, 33, 64, 65, 129)] == [8, 8, 16, 16, 32, 64, 64, 128, 192]


WIDTHS = [8, 16, 24, 64, 128, 192]


@st.composite
def packed_entries(draw):
    """(k, stride, columns): columns[c][r] holds the stride digits of entry (r, c), each a k-bit signed digit.

    Entries are often zero, and one column is zero throughout.
    """
    k, d, stride = draw(st.sampled_from(WIDTHS)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    digit = st.one_of(st.just(0), st.integers(-(2 ** (k - 1)), 2 ** (k - 1) - 1))
    entry = st.one_of(st.just([0] * stride), st.lists(digit, min_size=stride, max_size=stride))
    columns = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    columns[draw(st.integers(0, d - 1))] = [[0] * stride] * d
    return k, stride, columns


class TestColumnReader:
    # _column_window and _respace on packed columns, against the entries
    # packed into them, with the typecodes and without them, as on a
    # big-endian host.

    @pytest.mark.parametrize("typecodes", [True, False], ids=["typecodes", "per slot"])
    @settings(max_examples=100, deadline=None)
    @given(packed_entries(), st.sampled_from(WIDTHS))
    @example((8, 2, [[[-128, 0], [0, 127]], [[0, 0], [0, 0]]]), 8)
    @example((24, 3, [[[0, 0, 0]]]), 8)
    @example((64, 1, [[[5], [-3]], [[0], [0]]]), 8)
    def test_window_norms_and_values(self, typecodes, drawn, width):
        # The digits move to ``width`` where it holds every one of them,
        # narrower or wider than k, and stay at k otherwise.
        k, stride, columns = drawn
        if max([abs(c) for column in columns for entry in column for c in entry]).bit_length() >= width:
            width = k
        d = len(columns)
        with mock.patch.object(laurent, "_TYPECODES", laurent._TYPECODES if typecodes else {}):
            for column in columns:
                x = sum([c << k * (r * stride + i) for r, entry in enumerate(column) for i, c in enumerate(entry)])
                raw = _twos_complement(x, k, d * stride)
                first, last, norms = _column_window(raw, k, stride)
                assert norms == [sum(map(abs, entry)) for entry in column]
                slots = [i for entry in column for i, c in enumerate(entry) if c]
                assert (first, last) == ((min(slots), max(slots)) if slots else (stride, 0))
                # From slot 0, each entry's value at t = 2^width.
                values = _respace(raw, k, width, stride, 0, stride - 1)
                assert values == [sum([c << width * i for i, c in enumerate(entry)]) for entry in column]


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

    # Lowest and leading coefficients of the divisor up to 6 in size, so
    # most divisors do not start with 1.
    @given(polys(max_terms=6, coeff_range=50), polys(max_terms=4, coeff_range=6), polys(max_terms=2, coeff_range=3))
    @example(T(0) + T(1), T(0, 2) + T(1), ZERO)
    @example(T(0) + T(1), T(0, -1) + T(3), T(5, 2))
    def test_agrees_with_long_division(self, a, den, noise):
        # Divisible, perturbed by noise, and a itself, which rarely divides.
        if den.is_zero:
            return
        for num in (a * den, a * den + noise, a):
            assert_same_quotient(lambda: divide_exact(num, den), num, den)


def assert_same_quotient(divide, num, den):
    """divide() equals the reference long division of num by den, or both raise DivisibilityError."""
    try:
        expected = long_division(num, den)
    except DivisibilityError:
        with pytest.raises(DivisibilityError):
            divide()
    else:
        assert divide() == expected


def cyclic_sum(n):
    return LaurentPoly.from_dict({e: 1 for e in range(n)})


class TestDivideCyclic:
    """Division by 1 + t + ... + t^(n-1) as that of num * (1 - t) by 1 - t^n, against the
    reference long division by the n terms themselves, which shares no code with it."""

    @given(polys(max_terms=8, coeff_range=10**6), st.integers(1, 9))
    def test_exact_quotient(self, a, n):
        assert divide_cyclic(a * cyclic_sum(n), n) == a

    @settings(deadline=None)
    @given(
        polys(max_terms=8, exp_range=40, coeff_range=10**6),
        st.integers(1, 300),
        polys(max_terms=2, exp_range=300, coeff_range=3),
    )
    @example(T(-2, 7) + T(3, -1), 300, T(299))
    def test_raises_exactly_when_long_division_does(self, a, n, noise):
        # Divisible, perturbed by noise, and a itself, which rarely divides.
        for num in (a * cyclic_sum(n), a * cyclic_sum(n) + noise, a):
            assert_same_quotient(lambda: divide_cyclic(num, n), num, cyclic_sum(n))

    def test_identity_closure_on_256_strands(self, capsys):
        # The lift of "2 1 256 :" closes the full twist on 256 strands: its
        # numerator is the binomial (t^256 - 1)^255, 256 terms of up to 250
        # bits spread over 65,281 exponents.
        num = LaurentPoly.from_dict({256 * k: (-1) ** (255 - k) * comb(255, k) for k in range(256)})
        expected = AlexanderPoly.from_laurent(long_division(num, cyclic_sum(256)))
        start = time.perf_counter()
        code = cli.run(["alexander", "--band", "2 1 256 :", "--json"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["alexander"] == str(expected)

    def test_nonzero_remainders_raise(self):
        # t^(n-1) leaves -(1 + ... + t^(n-2)), -3 t^(n-2) is its own
        # remainder, and 1 + t^n leaves 2 after the fold modulo t^n - 1.
        for n in range(2, 7):
            for a in (T(n - 1), T(n - 2, -3), LaurentPoly.from_dict({0: 1, n: 1})):
                with pytest.raises(DivisibilityError):
                    divide_cyclic(a, n)

    def test_zero(self):
        assert divide_cyclic(ZERO, 4) == ZERO


class TestLaurentMatrix:
    def test_identity_neutral(self):
        m = ((T(1), ONE), (ZERO, T(-1, 2)))
        eye = identity(2)
        assert matmul(eye, m) == m
        assert matmul(m, eye) == m

    def test_hand_product(self):
        a = ((ONE, T(1)), (ZERO, ONE))
        b = ((ONE, ZERO), (T(1), ONE))
        expected = ((LaurentPoly.from_dict({0: 1, 2: 1}), T(1)), (T(1), ONE))
        assert matmul(a, b) == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            LaurentMatrix.from_rows([[ONE, ZERO]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LaurentMatrix.from_rows([])

    def test_det_identity(self):
        for d in range(1, 5):
            assert LaurentMatrix.from_rows(identity(d)).det() == ONE

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
        product = LaurentMatrix.from_rows(matmul(a, b)).det()
        assert product == LaurentMatrix.from_rows(a).det() * LaurentMatrix.from_rows(b).det()

    def test_det_zero_leading_entry(self):
        m = LaurentMatrix.from_rows([[ZERO, ONE], [ONE, ZERO]])
        assert m.det() == -ONE

    def test_det_one_by_one(self):
        assert LaurentMatrix.from_rows([[T(-3, 7)]]).det() == T(-3, 7)


class TestDetAgainstLeibniz:
    # det() sends small random matrices on one route only, so each test also
    # runs _bareiss on both entry types directly.

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(matrices))
    def test_random(self, m):
        assert dets(m) == [leibniz_det(m)] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6).flatmap(matrices), polys(max_terms=2))
    def test_singular(self, m, scale):
        s = singular(m, scale)
        assert dets(s) == [leibniz_det(s)] * 3 == [ZERO] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(matrices))
    def test_zero_leading_pivot(self, m):
        z = zero_leading_pivot(m)
        assert dets(z) == [leibniz_det(z)] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda d: matrices(d, polys(max_terms=2, exp_range=1, coeff_range=1))))
    def test_sparse(self, m):
        # Entries are often zero, and so are many minors.
        assert dets(m) == [leibniz_det(m)] * 3


def random_matrix(d, seed, density=1.0, terms=(1, 3)):
    """A d x d matrix of random polynomials with exponents in -2..2.

    Each entry is nonzero with probability ``density`` and then has a number
    of terms drawn from the range ``terms``.
    """
    rng = random.Random(seed)

    def entry():
        if rng.random() >= density:
            return ZERO
        exponents = rng.sample(range(-2, 3), rng.randint(*terms))
        return LaurentPoly.from_dict({e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in exponents})

    return tuple([tuple([entry() for _ in range(d)]) for _ in range(d)])


def with_entries(m: Rows, entries: dict) -> Rows:
    rows = [list(row) for row in m]
    for (i, j), value in entries.items():
        rows[i][j] = value
    return tuple([tuple(row) for row in rows])


class TestBareiss:
    @pytest.mark.parametrize("d", range(5, 15))
    @pytest.mark.parametrize("density", [1.0, 0.4])
    def test_against_elimination_mod_p(self, d, density):
        m = random_matrix(d, seed=f"{d} {density}", density=density)
        r = random_point(f"{d} {density}")
        values = [[poly_mod(entry, r) for entry in row] for row in m]
        assert [poly_mod(det, r) for det in dets(m)] == [det_mod(values)] * 3

    @settings(max_examples=30, deadline=None)
    @given(st.integers(5, 8).flatmap(matrices))
    def test_against_laplace(self, m):
        assert dets(m) == [laplace_det(m)] * 3

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize(
        "cell",
        [(0, 0), (2, 0), (0, 3), (2, 3), (4, 4), (3, 1)],
        ids=["diagonal", "row swap", "column swap", "row and column swap", "late cell", "off diagonal"],
    )
    def test_pivot_off_the_diagonal(self, d, cell):
        # Every other entry has three terms, so the monomial is the first pivot.
        m = with_entries(random_matrix(d, seed=d, terms=(3, 3)), {cell: T(1, -2)})
        assert dets(m) == [laplace_det(m)] * 3 == [leibniz_det(m)] * 3
        assert not LaurentMatrix.from_rows(m).det().is_zero

    @pytest.mark.parametrize("d", [5, 6])
    def test_zero_column_mid_elimination(self, d):
        # The monomial at (0, 0) is the first pivot, and column 2 is t times
        # column 0: after the first step, column 2 of the remaining block is
        # zero and the pivot search must pass over it.
        m = with_entries(random_matrix(d, seed=d, terms=(3, 3)), {(0, 0): T(1, 3)})
        m = with_entries(m, {(i, 2): T(1) * m[i][0] for i in range(d)})
        assert dets(m) == [leibniz_det(m)] * 3 == [ZERO] * 3

    @pytest.mark.parametrize("d", [5, 6])
    def test_singular(self, d):
        m = random_matrix(d, seed=d)
        # The last row is the sum of the first two, scaled by 1 - t.
        scale = LaurentPoly.from_dict({0: 1, 1: -1})
        last = tuple(scale * (a + b) for a, b in zip(m[0], m[1]))
        s = m[:-1] + (last,)
        assert dets(s) == [leibniz_det(s)] * 3 == [ZERO] * 3

    def test_rank_one_block_is_zero(self):
        u = [T(i - 2, i + 1) for i in range(6)]
        v = [LaurentPoly.from_dict({0: 1, j: -j - 1}) for j in range(6)]
        m = [[a * b for b in v] for a in u]
        assert dets(m) == [ZERO] * 3

    def test_products_cubic_in_size(self, monkeypatch):
        d = 10
        m = random_matrix(d, seed="dense")
        calls = []
        mul = LaurentPoly.__mul__
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        poly_det(m)
        # Laplace expansion makes d * 2^(d-1) = 5,120 products here.
        assert len(calls) <= d**3


# Entries of burau(s1 s2^-1)^60: 118-120 terms, coefficients of 78-79 bits.
BIG_ENTRIES = [entry for row in burau_reduced(BraidWord(3, (1, -2)), 60) for entry in row]


@st.composite
def hard_matrices(draw, sizes):
    """Matrices of a size in ``sizes`` with negative exponents and coefficients past 2^64.

    Some have a zero column, and some a column that is a monomial times
    another, which becomes zero once that other column has been eliminated.
    """
    d = draw(sizes)
    entry = st.one_of(
        polys(max_terms=4, exp_range=3, coeff_range=3),
        polys(max_terms=2, exp_range=3, coeff_range=2**70),
    )
    rows = [[draw(entry) for _ in range(d)] for _ in range(d)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(st.sampled_from(BIG_ENTRIES))
    # A 1x1 matrix has no second column: its "dependent column" is itself, scaled.
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)) if d > 1 else (0, 0)
    shape = draw(st.sampled_from(["full", "zero column", "dependent column"]))
    if shape != "full":
        scale = ZERO if shape == "zero column" else T(draw(st.integers(-2, 2)), draw(st.sampled_from([-2, -1, 1, 3])))
        for row in rows:
            row[j] = scale * row[i]
    return tuple([tuple(row) for row in rows])


class TestPackedDet:
    @settings(max_examples=60, deadline=None)
    @given(hard_matrices(st.integers(5, 8)))
    def test_packed_equals_polynomial(self, m):
        assert packed_det(m) == poly_det(m) == LaurentMatrix.from_rows(m).det()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: matrices(d, polys(max_terms=4, exp_range=3, coeff_range=2**40))))
    def test_coefficients_below_the_bound(self, m):
        bound = coefficient_bound(zip(*m))
        assert all(abs(c) < bound for _, c in LaurentMatrix.from_rows(m).det().terms)

    def test_bound_is_attained_by_a_hadamard_matrix(self):
        # The d x d Sylvester matrix of +-t^j has |det| = d^(d/2) = sqrt(d^d),
        # the bound minus 1.
        for d, bound in [(4, 17), (8, 4097)]:
            rows = [[T(j, (-1) ** bin(i & j).count("1")) for j in range(d)] for i in range(d)]
            assert coefficient_bound(zip(*rows)) == bound
            assert [abs(c) for _, c in LaurentMatrix.from_rows(rows).det().terms] == [bound - 1]

    @pytest.mark.parametrize("d", [1, 4, 5])
    @pytest.mark.parametrize("bits", [8, 16, 23, 24, 39, 40, 64, 71, 72, 128])
    def test_width_holds_the_sign(self, monkeypatch, d, bits):
        # A diagonal matrix of monomials attains the bound minus 1, here
        # 2^bits - 2: it takes all ``bits`` bits of magnitude, so the slot
        # is the least multiple of 8 bits that also holds the sign bit.  At
        # 23, 39 and 71 bits that is 24, 40 and 72 where a power of two
        # would take 32, 64 and 128; at a multiple of 8 the sign bit alone
        # moves the slot a byte up.
        diagonal = [T(1 - i, -1 if i % 2 else 1) for i in range(d - 1)] + [T(-2, 2**bits - 2)]
        rows = [[diagonal[i] if i == j else ZERO for j in range(d)] for i in range(d)]
        assert coefficient_bound(zip(*rows)).bit_length() == bits
        m = LaurentMatrix.from_rows(rows)
        widths, unpack = [], laurent._unpack
        monkeypatch.setattr(laurent, "_unpack", lambda x, k, low: widths.append(k) or unpack(x, k, low))
        assert m.det() == leibniz_det(rows)
        assert widths == [8 * -(-(bits + 1) // 8)]

    def test_wide_closure_makes_no_polynomial_products(self, monkeypatch):
        # The 11x11 u Y - X^-1 of the two half-length passes over 60-66
        # mixed-sign letters on 12 strands.
        rng = random.Random("wide")
        words = []
        while len(words) < 5:
            w = BraidWord(12, tuple([rng.choice((-1, 1)) * rng.randint(1, 11) for _ in range(rng.randint(60, 66))]))
            # A zero column of burau - id, the column of a generator missing
            # from the word or one that M fixes, is one of u Y - X^-1 too,
            # and its determinant is 0 without elimination.
            if all(any(column) for column in zip(*closure_matrix(w))):
                words.append(w)
        expected = [det_numerator(w, 1, 0) for w in words]
        # K of each determinant, from the digits of the columns handed to det.
        widths = []
        for w in words:
            ((columns, k, stride, lows),) = handed_to_det(w, 1, 0)[1]
            bound = coefficient_bound(zip(*pass_rows(columns, k, stride, lows)))
            widths.append(8 * -(-(bound.bit_length() + 1) // 8))
        entry_types = spy_entry_types(monkeypatch)
        mul, calls = LaurentPoly.__mul__, []
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        # The pass columns go to Bareiss as integers: no column is split
        # into rows of terms, which would unpack each of its 11 entries, and
        # no LaurentPoly is made per entry; each determinant is unpacked
        # once, at its K.
        unpack, trusted, unpacked, made = laurent._unpack, laurent._trusted, [], []
        monkeypatch.setattr(laurent, "_unpack", lambda x, k, low: unpacked.append(k) or unpack(x, k, low))
        monkeypatch.setattr(laurent, "_trusted", lambda terms: made.append(1) or trusted(terms))
        dets = [_det_numerator(w, 1, 0) for w in words]
        monkeypatch.undo()
        assert dets == expected
        assert entry_types == [int] * 5
        assert not calls
        assert unpacked == widths
        # One each for the determinant, its shift by det X and its sign,
        # against 121 entries a matrix.
        assert len(made) <= 3 * 5

    def test_24_strands_eliminate_on_integers(self, monkeypatch):
        # 8n seeded mixed-sign letters on n = 24 strands, unreduced: the
        # 23x23 u Y - X^-1 packs at a byte width into under 2^14 bits, so it
        # eliminates on integers.
        n = 24
        rng = random.Random(n)
        letters = [rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(8 * n)]
        det, matrices = LaurentMatrix.det, []
        monkeypatch.setattr(LaurentMatrix, "det", lambda m: matrices.append(m) or det(m))
        entry_types = spy_entry_types(monkeypatch)
        numerator = _det_numerator(BraidWord(n, tuple(letters)), 1, 0)
        assert entry_types == [int]
        (m,) = matrices
        assert det(m) == poly_det(pass_rows(m.columns, m.k, m.stride, m.lows))
        r = random_point(n)
        assert poly_mod(numerator, r) == det_mod(closure_mod(n, letters, r))

    @pytest.mark.parametrize(
        "argv, entry_type",
        [
            (["alexander", "--band", "30 29 6 : 1"], int),
            (["alexander", "--band", "30 29 5 : 1"], int),
            (["alexander", "--band", "32 1 5 : 1 -2 3 -4"], LaurentPoly),
            (["alexander", "--band", "10 3 5 : 1 -3 -4 2"], int),
            (["alexander", "--braid", "1 -2 3 -4 1", "--strands", "5"], int),
        ],
        ids=["14,416 bits", "9,776 bits", "69,904 bits", "4,000 bits", "88 bits"],
    )
    def test_route_follows_packed_size(self, monkeypatch, capsys, argv, entry_type):
        # The route of det() on B - id of each closure, by the bits its
        # determinant packs into alone.  "32 1 5 : 1 -2 3 -4" would pack
        # into 69,904 bits, above 2^14, and keeps polynomial entries.  The
        # others pack into at most 2^14 bits and eliminate on integers, with
        # no polynomial product, though the lifts of "30 29 6 : 1" and
        # "30 29 5 : 1" store terms in under 1% and 1.6% of their slots.
        if argv[1] == "--band":
            d = parse_band_diagram(argv[2])
            n, m = d.word.strands, closure_matrix(d.word, d.space.p, d.space.q)
        else:
            n = int(argv[4])
            m = closure_matrix(parse_braid_word(argv[2], n))
        matrix = LaurentMatrix.from_rows(m)
        entry_types = spy_entry_types(monkeypatch)
        mul, calls = LaurentPoly.__mul__, []
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        det = matrix.det()
        monkeypatch.setattr(LaurentPoly, "__mul__", mul)
        assert entry_types == [entry_type]
        assert bool(calls) == (entry_type is LaurentPoly)
        assert det == packed_det(m) == poly_det(m) == laplace_det(m)
        # The CLI takes another route (no determinant up to 6 strands), and
        # agrees with this one.
        expected = divide_cyclic(AlexanderPoly.from_laurent(det).poly, n)
        assert cli.run(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["alexander"] == str(expected)


def pass_rows(columns, k: int, stride: int, lows) -> list[list[LaurentPoly]]:
    """The rows of LaurentMatrix(columns, k, stride, lows), decoded digit by digit."""
    d = len(columns)
    entries = []
    for x, low in zip(columns, lows):
        digits = centered_digits(x, k, d * stride)
        chunks = [digits[r * stride : (r + 1) * stride] for r in range(d)]
        entries.append([LaurentPoly.from_dict({low + i: c for i, c in enumerate(chunk)}) for chunk in chunks])
    return [list(row) for row in zip(*entries)]


def pass_columns(rows, k: int, stride: int, lows) -> list[int]:
    """The columns that pass_rows decodes back to ``rows``: entry (r, c) from t^lows[c] up, r * stride slots of k bits up."""
    return [
        sum(c << k * (stride * r + e - low) for r, entry in enumerate(column) for e, c in entry.terms)
        for column, low in zip(zip(*rows), lows)
    ]


def handed_to_det(w: BraidWord, power: int, twists: int):
    """(numerator, fields) of _det_numerator: the (columns, k, stride, lows) of the LaurentMatrix whose det it takes, if any."""
    det, handed = LaurentMatrix.det, []
    with mock.patch.object(LaurentMatrix, "det", lambda m: handed.append((m.columns, m.k, m.stride, m.lows)) or det(m)):
        numerator = _det_numerator(w, power, twists)
    return numerator, handed


@st.composite
def lift_draws(draw):
    n = draw(st.integers(7, 14))
    letters = draw(st.lists(st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))), min_size=n // 2, max_size=2 * n))
    return BraidWord(n, tuple(letters)), draw(st.integers(1, 4)), draw(st.integers(0, 2))


# T(11, 7) as the run on 7 strands at power 4 with one full twist: K = 8
# bits holds its determinant's coefficients, below the pass width k = 16.
TORUS_11_7 = (BraidWord(7, (6, 5, 4, 3, 2, 1)), 4, 1)
# Alternating letters on 7 strands: K = 24 above the pass width k = 8.
ALTERNATING_7 = (BraidWord(7, (1, -2, 3, -4, 5, -6) * 3), 1, 0)


class TestPassColumns:
    # det() on the packed columns of u Y - X^-1 that _det_numerator builds
    # its LaurentMatrix from: the digits go straight to Bareiss.

    @settings(max_examples=100, deadline=None)
    @given(
        lift_draws(),
        st.sampled_from([None, 8, 16, 24, 40, 64, 128, 192]),
        st.sampled_from(["as is", "zero column", "equal columns"]),
        st.booleans(),
    )
    @example(TORUS_11_7, None, "as is", True)
    @example(ALTERNATING_7, None, "as is", True)
    @example(ALTERNATING_7, 128, "as is", True)
    @example(TORUS_11_7, 192, "zero column", True)
    @example(ALTERNATING_7, 16, "equal columns", False)
    def test_against_polynomial_bareiss_and_mod_p(self, lift, width, shape, typecodes):
        # The columns are packed again at ``width`` where it holds every
        # coefficient (128 and 192 have no typecode), and optionally read
        # without typecodes, as on a big-endian host.  A zero column and two
        # equal columns make the determinant 0.
        w, power, twists = lift
        numerator, handed = handed_to_det(w, power, twists)
        r = random_point(str(lift))
        assert poly_mod(numerator, r) == det_mod(closure_mod(w.strands, spelled_out(w, power, twists).letters, r))
        if not handed:
            # A zero column of u Y - X^-1: the numerator is 0 before det.
            assert numerator.is_zero
            return
        ((columns, k, stride, lows),) = handed
        rows, lows = pass_rows(columns, k, stride, lows), list(lows)
        if shape == "zero column":
            for row in rows:
                row[len(rows) // 2] = ZERO
        elif shape == "equal columns":
            for row in rows:
                row[-1] = row[0]
            lows[-1] = lows[0]
        top = max([abs(c) for row in rows for entry in row for _, c in entry.terms])
        if width is None or top.bit_length() >= width:
            width = k
        m = LaurentMatrix(tuple(pass_columns(rows, width, stride, lows)), width, stride, tuple(lows))
        with mock.patch.object(laurent, "_TYPECODES", laurent._TYPECODES if typecodes else {}):
            assert m.size == len(rows)
            det = m.det()
            # The polynomial route's decode, each entry from its value at
            # t = 2^width, gives back the rows.
            raws = [_twos_complement(x, width, stride * len(rows)) for x in m.columns]
            entries = [
                [LaurentPoly.from_packed(value, width, low) for value in _respace(raw, width, width, stride, 0, stride - 1)]
                for raw, low in zip(raws, lows)
            ]
            assert list(zip(*entries)) == [tuple(row) for row in rows]
        assert det == poly_det(rows)
        assert poly_mod(det, r) == det_mod([[poly_mod(entry, r) for entry in row] for row in rows])
        assert det.is_zero or shape == "as is"

    def test_polynomial_route_reads_each_column_once(self, monkeypatch, capsys):
        # The golden "16 1 7 : 1 -2 3 -4 5 -6" packs above 2^14 bits, so det
        # decodes the 6 columns of u Y - X^-1 into polynomials, from the
        # same bytes that gave each column's window: one to_bytes of all
        # stride * d slots per column, and no matrix packed from rows.
        det, matrices = LaurentMatrix.det, []
        monkeypatch.setattr(LaurentMatrix, "det", lambda m: matrices.append(m) or det(m))
        twos_complement, slots = laurent._twos_complement, []
        monkeypatch.setattr(laurent, "_twos_complement", lambda x, k, n: slots.append(n) or twos_complement(x, k, n))
        from_rows, packed = LaurentMatrix.from_rows, []
        monkeypatch.setattr(LaurentMatrix, "from_rows", staticmethod(lambda rows: packed.append(1) or from_rows(rows)))
        entry_types = spy_entry_types(monkeypatch)
        assert cli.run(["alexander", "--band", "16 1 7 : 1 -2 3 -4 5 -6"]) == 0
        (m,) = matrices
        assert entry_types == [LaurentPoly]
        assert m.size == 6
        assert slots.count(m.stride * m.size) == 6
        assert not packed

    @pytest.mark.parametrize("lift, k, width", [(TORUS_11_7, 16, 8), (ALTERNATING_7, 8, 24)], ids=["narrower", "wider"])
    def test_width_against_the_pass(self, monkeypatch, lift, k, width):
        # The determinant's width K may lie below the pass width k or above
        # it; its digits move either way.
        numerator, handed = handed_to_det(*lift)
        ((columns, pass_k, stride, lows),) = handed
        widths, unpack = [], laurent._unpack
        monkeypatch.setattr(laurent, "_unpack", lambda x, k, low: widths.append(k) or unpack(x, k, low))
        det = LaurentMatrix(columns, pass_k, stride, lows).det()
        # poly_det's products may go through _unpack too, so it runs uncounted.
        monkeypatch.undo()
        assert det == poly_det(pass_rows(columns, pass_k, stride, lows))
        assert (pass_k, widths) == (k, [width])

    @pytest.mark.parametrize(
        "k, diagonal",
        [
            (16, [1, -1, 1, 2**15 - 2]),
            (64, [1, -1, 1, 2**23 - 2]),
            (64, [1, -1, 1, 2**40 - 2]),
            (128, [1, -1, 1, 2**71 - 2]),
            (8, [127, -127, 127, 127]),
            (16, [2**15 - 1, -(2**15 - 1), 2**15 - 1, 2**15 - 2]),
        ],
    )
    def test_width_holds_the_sign(self, monkeypatch, k, diagonal):
        # A diagonal matrix of monomials attains the coefficient bound minus
        # 1, so its determinant takes every bit of magnitude that the bound
        # has, and K is the least multiple of 8 bits that also holds the
        # sign: 16, 24, 48, 72, 32 and 64 bits here, at, below or above the
        # pass width k.
        d, stride = len(diagonal), 3
        rows = [[T(i - 1, diagonal[i]) if i == j else ZERO for j in range(d)] for i in range(d)]
        lows = [i - 2 for i in range(d)]
        bound = coefficient_bound(zip(*rows))
        assert bound == abs(prod(diagonal)) + 1
        widths, unpack = [], laurent._unpack
        monkeypatch.setattr(laurent, "_unpack", lambda x, k, low: widths.append(k) or unpack(x, k, low))
        m = LaurentMatrix(tuple(pass_columns(rows, k, stride, lows)), k, stride, tuple(lows))
        assert m.det() == T(sum(range(-1, d - 1)), prod(diagonal))
        assert widths == [8 * -(-(bound.bit_length() + 1) // 8)]


class TestPackedLaplace:
    # Up to 4x4, where expansion by minors and Leibniz are cheap references,
    # det() and _bareiss on either entry type agree with both.

    @settings(max_examples=60, deadline=None)
    @given(hard_matrices(st.integers(1, 4)))
    def test_packed_equals_polynomial(self, m):
        assert dets(m) == [laplace_det(m)] * 3 == [leibniz_det(m)] * 3
