"""Reduced Burau representation and Alexander polynomials of closures."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lenslinks.braid import BraidWord, concat, free_reduce, garside, permutation, power
from lenslinks.invariants import (
    AlexanderPoly,
    _norm_bound,
    _updates,
    alexander_of_closure,
    burau_reduced,
    equal_up_to_unit,
    torus_braid,
)
from lenslinks.laurent import LaurentMatrix, LaurentPoly
from lenslinks.lens import BandDiagram, LensSpace, lift


def signed_letters(n):
    return st.builds(lambda i, neg: -i if neg else i, st.integers(1, n - 1), st.booleans())


def words(max_strands=4, max_len=10, min_strands=2):
    def build(n):
        return st.lists(signed_letters(n), max_size=max_len).map(
            lambda ls: BraidWord(n, tuple(ls))
        )

    return st.integers(min_strands, max_strands).flatmap(build)


def word_pairs(max_strands=4, max_len=8):
    def build(n):
        letters = st.lists(signed_letters(n), max_size=max_len)
        return st.tuples(letters, letters).map(
            lambda ab: (BraidWord(n, tuple(ab[0])), BraidWord(n, tuple(ab[1])))
        )

    return st.integers(2, max_strands).flatmap(build)


def inverse_word(w):
    return BraidWord(w.strands, tuple(-letter for letter in reversed(w.letters)))


def generator_matrix(n, letter):
    """Reference: the reduced Burau matrix of one generator, written out in full."""
    d = n - 1
    col = abs(letter) - 1
    rows = [[LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(d)] for r in range(d)]
    if letter > 0:
        rows[col][col] = LaurentPoly.monomial(1, -1)
        if col - 1 >= 0:
            rows[col - 1][col] = LaurentPoly.monomial(1)
        if col + 1 < d:
            rows[col + 1][col] = LaurentPoly.one()
    else:
        rows[col][col] = LaurentPoly.monomial(-1, -1)
        if col - 1 >= 0:
            rows[col - 1][col] = LaurentPoly.one()
        if col + 1 < d:
            rows[col + 1][col] = LaurentPoly.monomial(-1)
    return LaurentMatrix.from_rows(rows)


def burau_by_products(w):
    """Reference: the product of the generator matrices in word order."""
    acc = LaurentMatrix.identity(w.strands - 1)
    for letter in w.letters:
        acc = acc @ generator_matrix(w.strands, letter)
    return acc


def scalar(n, exponent):
    """t^exponent times the identity of size n - 1."""
    unit, zero = LaurentPoly.monomial(exponent), LaurentPoly.zero()
    return LaurentMatrix.from_rows([[unit if r == c else zero for c in range(n - 1)] for r in range(n - 1)])


def band_diagrams(max_strands=4, max_len=5, max_p=5):
    def build(n, p, data):
        q = data.draw(st.sampled_from([0] if p == 1 else [q for q in range(1, p) if math.gcd(p, q) == 1]))
        letters = data.draw(st.lists(signed_letters(n), max_size=max_len))
        return BandDiagram(LensSpace(p, q), BraidWord(n, tuple(letters)))

    return st.builds(build, st.integers(2, max_strands), st.integers(1, max_p), st.data())


class TestBurauReduced:
    def test_empty_word_is_identity(self):
        assert burau_reduced(BraidWord(3)) == LaurentMatrix.identity(2)

    def test_cancelling_pair_is_identity(self):
        assert burau_reduced(BraidWord(2, (1, -1))) == LaurentMatrix.identity(1)

    def test_full_twist_identity(self):
        # The square of the half twist and the cube of (s2 s1) are the same
        # braid, so their matrices and permutations must agree entrywise.
        lhs = power(garside(3), 2)
        rhs = BraidWord(3, (2, 1) * 3)
        assert burau_reduced(lhs) == burau_reduced(rhs)
        assert permutation(lhs) == permutation(rhs)

    def test_single_strand_rejected(self):
        with pytest.raises(ValueError):
            burau_reduced(BraidWord(1))

    @settings(max_examples=60)
    @given(word_pairs())
    def test_multiplicative(self, pair):
        a, b = pair
        assert burau_reduced(concat(a, b)) == burau_reduced(a) @ burau_reduced(b)

    @settings(max_examples=60)
    @given(words())
    def test_inverse_word_gives_inverse_matrix(self, w):
        product = burau_reduced(w) @ burau_reduced(inverse_word(w))
        assert product == LaurentMatrix.identity(w.strands - 1)


class TestBurauAgainstProducts:
    @settings(max_examples=80)
    @given(words(max_strands=6, max_len=12))
    def test_column_updates_equal_generator_products(self, w):
        assert burau_reduced(w) == burau_by_products(w)

    @pytest.mark.parametrize("letters", [(), (1,), (-1,), (1, 1, -1, 1), (-1, -1, -1)])
    def test_two_strands(self, letters):
        w = BraidWord(2, letters)
        assert burau_reduced(w) == burau_by_products(w)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_twist_is_scalar(self, n):
        assert burau_reduced(power(garside(n), 2)) == scalar(n, n)

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=5, max_len=6), st.integers(0, 3), st.integers(0, 2))
    def test_power_and_twists(self, w, e, k):
        full = concat(power(w, e), power(garside(w.strands), 2 * k))
        assert burau_reduced(w, e, k) == burau_by_products(full)

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=6, max_len=16), st.integers(1, 3))
    def test_inverse_heavy_words(self, w, e):
        # Every letter but the first is an inverse: the column offsets keep growing.
        w = BraidWord(w.strands, tuple(-abs(letter) if i else letter for i, letter in enumerate(w.letters)))
        assert burau_reduced(w, e) == burau_by_products(power(w, e))

    @settings(max_examples=30, deadline=None)
    @given(words(max_strands=5, max_len=8), st.integers(0, 3))
    def test_power_zero_is_the_twist_alone(self, w, k):
        assert burau_reduced(w, 0, k) == scalar(w.strands, w.strands * k)

    @pytest.mark.parametrize("e, k", [(0, 0), (1, 0), (3, 1), (5, 2)])
    def test_two_strands_with_twists(self, e, k):
        w = BraidWord(2, (1, -1, -1, 1, 1, 1))
        full = concat(power(w, e), power(garside(2), 2 * k))
        assert burau_reduced(w, e, k) == burau_by_products(full)

    def test_entries_beyond_64_bits(self):
        # s1 s2^-1 is pseudo-Anosov: its coefficients grow like 2.618^60.
        w = BraidWord(3, (1, -2))
        matrix = burau_reduced(w, 60)
        assert matrix == burau_by_products(power(w, 60))
        top = max(abs(c) for row in matrix.rows for entry in row for _, c in entry.terms)
        assert top > 2**64

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=6, max_len=10), st.integers(0, 4))
    def test_norm_bound_holds(self, w, e):
        d = w.strands - 1
        steps = [(abs(letter) - 1, _updates(letter, d)) for letter in w.letters]
        bound = _norm_bound(d, steps, e)
        matrix = burau_reduced(w, e)
        assert all(sum(abs(c) for _, c in entry.terms) <= bound for row in matrix.rows for entry in row)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            burau_reduced(BraidWord(3, (1,)), -1)


class TestAlexanderOfLift:
    @settings(max_examples=60, deadline=None)
    @given(band_diagrams())
    def test_structured_lift_equals_materialized_lift(self, d):
        structured = alexander_of_closure(d.word, d.space.p, d.space.q)
        assert structured == alexander_of_closure(lift(d))

    def test_torus_9_3_from_l31(self):
        word = BraidWord(3, (2, 1, 2, 1))
        assert alexander_of_closure(word, 3, 1) == alexander_of_closure(torus_braid(9, 3))


class TestAlexanderPoly:
    def test_normalization(self):
        raw = LaurentPoly.from_dict({-2: 1, -1: -1, 0: 1})  # t^-2 - t^-1 + 1
        expected = LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
        assert AlexanderPoly.from_laurent(raw).poly == expected

    def test_sign_normalization(self):
        raw = LaurentPoly.from_dict({3: -1, 4: 1})
        assert AlexanderPoly.from_laurent(raw).poly == LaurentPoly.from_dict({0: 1, 1: -1})

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            AlexanderPoly(LaurentPoly.from_dict({1: 1}))
        with pytest.raises(ValueError):
            AlexanderPoly(LaurentPoly.from_dict({0: -1}))

    def test_equal_up_to_unit(self):
        trefoil = AlexanderPoly(LaurentPoly.from_dict({0: 1, 1: -1, 2: 1}))
        other = AlexanderPoly(LaurentPoly.from_dict({0: 1, 1: 1}))
        assert equal_up_to_unit(trefoil, trefoil)
        assert not equal_up_to_unit(trefoil, other)
        shifted = AlexanderPoly.from_laurent(LaurentPoly.from_dict({-2: 1, -1: -1, 0: 1}))
        assert equal_up_to_unit(shifted, trefoil)


class TestAlexanderOfClosure:
    def test_trefoil(self):
        assert str(alexander_of_closure(BraidWord(2, (1, 1, 1)))) == "1 - t + t^2"

    def test_split_link_vanishes(self):
        assert alexander_of_closure(BraidWord(2)).poly.is_zero

    def test_hopf_link(self):
        assert str(alexander_of_closure(BraidWord(2, (1, 1)))) == "1 - t"

    def test_single_strand_rejected(self):
        with pytest.raises(ValueError):
            alexander_of_closure(BraidWord(1))

    @settings(max_examples=40, deadline=None)
    @given(words(max_len=8))
    def test_invariant_under_free_reduction(self, w):
        padded = BraidWord(w.strands, w.letters + (1, -1))
        assert free_reduce(padded) == free_reduce(w)
        assert alexander_of_closure(padded) == alexander_of_closure(w)
        assert alexander_of_closure(free_reduce(w)) == alexander_of_closure(w)

    @settings(max_examples=40, deadline=None)
    @given(words(max_len=10), st.integers(0, 9))
    def test_invariant_under_rotation(self, w, shift):
        if not w.letters:
            return
        k = shift % len(w.letters)
        rotated = BraidWord(w.strands, w.letters[k:] + w.letters[:k])
        assert alexander_of_closure(rotated) == alexander_of_closure(w)

    @settings(max_examples=40, deadline=None)
    @given(words(max_len=10), st.integers(-3, 3))
    def test_invariant_under_conjugation(self, w, g):
        if g == 0 or abs(g) > w.strands - 1:
            g = 1
        conjugated = BraidWord(w.strands, (g,) + w.letters + (-g,))
        assert alexander_of_closure(conjugated) == alexander_of_closure(w)


class TestTorusBraid:
    def test_9_3(self):
        assert torus_braid(9, 3) == BraidWord(3, (2, 1) * 9)

    def test_8_2(self):
        assert torus_braid(8, 2) == BraidWord(2, (1,) * 8)

    def test_single_strand(self):
        assert torus_braid(5, 1) == BraidWord(1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            torus_braid(0, 2)

    @pytest.mark.parametrize("a", range(2, 7))
    @pytest.mark.parametrize("b", range(2, 7))
    def test_symmetry(self, a, b):
        lhs = alexander_of_closure(torus_braid(a, b))
        rhs = alexander_of_closure(torus_braid(b, a))
        assert equal_up_to_unit(lhs, rhs)
