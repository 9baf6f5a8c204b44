"""Braid words: construction, permutations, closures, free reduction."""

import pytest
from hypothesis import example, given, strategies as st

from lenslinks.braid import (
    BraidWord,
    StrandPermutation,
    garside,
    parse_braid_word,
    permutation,
)
from lenslinks.errors import ParseError
from lenslinks.laurent import LaurentMatrix, LaurentPoly
from reference import burau_reduced, closure_components, free_reduce


def signed_letters(n):
    return st.builds(lambda i, neg: -i if neg else i, st.integers(1, n - 1), st.booleans())


def braid_words(min_strands=2, max_strands=6, max_len=12):
    def build(n):
        return st.lists(signed_letters(n), max_size=max_len).map(
            lambda ls: BraidWord(n, tuple(ls))
        )

    return st.integers(min_strands, max_strands).flatmap(build)


def braid_texts():
    """(text, strands): token soups of letters, out-of-range and malformed tokens, between assorted whitespace."""

    def build(n):
        # Below 2 strands no token is a letter; past n - 1 every one is out of range.
        m = max(n, 1)
        letter = signed_letters(n).map(str) if n > 1 else st.just("1")
        odd = st.one_of(
            st.sampled_from(["0", "-0", "-", "+", "+1", "--1", "+-1", "1_0", "\u0663", "-\u0663", "x", "1x", "", "00"]),
            st.integers(m, m + 3).map(str),
            st.integers(-m - 3, -m).map(str),
            st.integers(1, m + 1).map(lambda i: f"+{i}"),
        )
        gap = st.sampled_from([" ", "  ", "\t", "\n", " \t\n ", "\r\n", "\u3000"])
        tokens = st.lists(st.one_of(letter, letter, letter, odd), max_size=8)
        text = st.tuples(st.sampled_from(["", " ", "\t"]), tokens, gap, gap).map(
            lambda parts: parts[0] + parts[2].join(parts[1]) + parts[3]
        )
        return st.tuples(text, st.just(n))

    return st.integers(-1, 7).flatmap(build)


def braid_word_pairs(max_strands=6, max_len=10):
    def build(n):
        letters = st.lists(signed_letters(n), max_size=max_len)
        return st.tuples(letters, letters).map(
            lambda ab: (BraidWord(n, tuple(ab[0])), BraidWord(n, tuple(ab[1])))
        )

    return st.integers(2, max_strands).flatmap(build)


class TestBraidWord:
    def test_letters_validated(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(0, ())

    def test_empty_word_is_valid(self):
        assert len(BraidWord(5)) == 0

    def test_single_strand_allows_only_empty(self):
        assert BraidWord(1).letters == ()
        with pytest.raises(ValueError):
            BraidWord(1, (1,))


class TestGarside:
    def test_two_strands(self):
        assert garside(2).letters == (1,)

    def test_one_strand_is_empty(self):
        assert garside(1).letters == ()

    def test_zero_strands_rejected(self):
        with pytest.raises(ValueError):
            garside(0)

    def test_three_strands_word(self):
        # Half twist on 3 strands; descending-run factorization (s2 s1)(s2).
        assert garside(3).letters == (2, 1, 2)

    def test_square_equals_full_twist_permutation(self):
        lhs = permutation(BraidWord(3, garside(3).letters * 2))
        rhs = permutation(BraidWord(3, (2, 1) * 3))
        assert lhs == rhs
        assert lhs == StrandPermutation.identity(3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_length_and_exponent_sum(self, n):
        g = garside(n)
        assert len(g) == n * (n - 1) // 2
        assert all(letter > 0 for letter in g.letters)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_permutation_is_order_reversing(self, n):
        assert permutation(garside(n)).image == tuple(range(n, 0, -1))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_square_is_pure(self, n):
        assert permutation(BraidWord(n, garside(n).letters * 2)) == StrandPermutation.identity(n)


class TestPermutation:
    def test_single_generator_swaps(self):
        assert permutation(BraidWord(2, (1,))).image == (2, 1)

    def test_empty_is_identity(self):
        assert permutation(BraidWord(5)) == StrandPermutation.identity(5)

    def test_nine_fold_three_cycle(self):
        # The permutation of (s2 s1) is a 3-cycle, so its 9th power is trivial.
        assert permutation(BraidWord(3, (2, 1) * 9)) == StrandPermutation.identity(3)

    def test_image_validation(self):
        with pytest.raises(ValueError):
            StrandPermutation(3, (1, 1, 2))

    @given(braid_word_pairs())
    def test_homomorphism(self, pair):
        a, b = pair
        assert permutation(BraidWord(a.strands, a.letters + b.letters)) == permutation(a).then(permutation(b))


class TestPermutationPower:
    @given(braid_words(), st.integers(0, 20))
    def test_matches_repeated_composition(self, w, e):
        perm = permutation(w)
        expected = StrandPermutation.identity(w.strands)
        for _ in range(e):
            expected = expected.then(perm)
        assert perm**e == expected

    def test_zero_is_identity(self):
        assert permutation(BraidWord(4, (3, -2))) ** 0 == StrandPermutation.identity(4)

    def test_positive_powers_build_no_identity(self, monkeypatch):
        # Squaring starts from the permutation itself: a power of 1 is free.
        perm = permutation(BraidWord(4, (1, 2, 3)))

        def forbidden(n):
            raise AssertionError("identity built for a positive power")

        monkeypatch.setattr(StrandPermutation, "identity", staticmethod(forbidden))
        assert perm**1 is perm
        assert perm**5 == perm
        assert perm**4 == StrandPermutation(4, (1, 2, 3, 4))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            permutation(BraidWord(2, (1,))) ** -1


class TestClosureComponents:
    def test_torus_8_2(self):
        assert len(closure_components(BraidWord(2, (1,) * 8))) == 2

    def test_unlink(self):
        assert len(closure_components(BraidWord(4))) == 4

    def test_identity_permutation_word(self):
        assert len(closure_components(BraidWord(3, (2, 1) * 9))) == 3

    @given(braid_words())
    def test_invariant_under_free_reduction(self, w):
        assert closure_components(free_reduce(w)) == closure_components(w)

    @given(braid_words(), st.integers(0, 40))
    @example(BraidWord(1), 0)
    @example(BraidWord(1), 40)
    @example(BraidWord(4), 7)
    @example(BraidWord(3, (2, 1)), 0)
    def test_power_matches_spelled_out_power(self, w, e):
        assert closure_components(w, e) == closure_components(BraidWord(w.strands, w.letters * e))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            closure_components(BraidWord(2, (1,)), -1)

    @given(braid_words(), st.integers(0, 11))
    def test_cycle_structure_invariant_under_rotation(self, w, shift):
        if not w.letters:
            return
        k = shift % len(w.letters)
        rotated = BraidWord(w.strands, w.letters[k:] + w.letters[:k])
        lengths = sorted(len(c) for c in closure_components(w))
        assert sorted(len(c) for c in closure_components(rotated)) == lengths


def det_is_unit(w, e):
    """Whether the reduced Burau determinant of ``w`` is (-t)^e.

    The image of s_i^(+-1) has determinant (-t)^(+-1), so e must be the
    exponent sum of the word.
    """
    return LaurentMatrix.from_rows(burau_reduced(w)).det() == LaurentPoly.from_dict({e: -1 if e % 2 else 1})


class TestExponentSum:
    def test_positive_word(self):
        assert det_is_unit(BraidWord(2, (1,) * 8), 8)

    def test_empty(self):
        assert det_is_unit(BraidWord(3), 0)

    def test_torus_word(self):
        assert det_is_unit(BraidWord(3, (2, 1) * 9), 18)

    def test_mixed_signs(self):
        assert det_is_unit(BraidWord(3, (1, -2, -2)), -1)


class TestFreeReduce:
    def test_single_pair(self):
        assert free_reduce(BraidWord(2, (1, -1))).letters == ()

    def test_inner_pair(self):
        assert free_reduce(BraidWord(3, (1, 2, -2, 1))).letters == (1, 1)

    def test_nested_pairs(self):
        assert free_reduce(BraidWord(3, (-2, 2, 2, -2))).letters == ()

    @given(braid_words())
    def test_result_is_reduced(self, w):
        reduced = free_reduce(w).letters
        assert all(reduced[i] != -reduced[i + 1] for i in range(len(reduced) - 1))


class TestParseBraidWord:
    def test_roundtrip(self):
        w = parse_braid_word("2 1 -2 1", 3)
        assert w.letters == (2, 1, -2, 1)
        assert parse_braid_word(" ".join(map(str, w.letters)), 3) == w

    def test_empty_text(self):
        assert parse_braid_word("   ", 4) == BraidWord(4)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_braid_word("1 x", 3)

    def test_out_of_range_letter(self):
        with pytest.raises(ParseError):
            parse_braid_word("3", 3)

    @given(braid_texts())
    @example(("", 3))
    @example(("\t\n", 1))
    @example(("1 \u0663\t--1", 5))
    @example(("-1 -", 2))
    def test_reads_token_soups(self, case):
        # The word of the tokens, or an error at the first token that is no letter.
        text, strands = case
        if strands < 1:
            with pytest.raises(ValueError, match="at least one strand"):
                parse_braid_word(text, strands)
            return
        letters, pos = [], 0
        for token in text.split():
            pos = text.index(token, pos)
            try:
                value = int(token)
            except ValueError:
                expected = f"expected a signed integer, got {token!r}"
                break
            if not 0 < abs(value) < strands:
                expected = f"letter {value} is not a generator index for {strands} strands"
                break
            letters.append(value)
            pos += len(token)
        else:
            assert parse_braid_word(text, strands) == BraidWord(strands, tuple(letters))
            return
        with pytest.raises(ParseError) as info:
            parse_braid_word(text, strands)
        assert (str(info.value), info.value.position) == (f"{expected} (at position {pos})", pos)
