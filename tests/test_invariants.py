"""Reduced Burau representation and Alexander polynomials of closures."""

import ast
import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lenslinks.invariants as invariants
from lenslinks.braid import BraidWord, garside, permutation
from lenslinks.genus import bennequin_fiber
from lenslinks.invariants import (
    AlexanderPoly,
    _burau_pass,
    _det_numerator,
    _elementary,
    _newton,
    _numerator,
    _power_sum,
    _principal_minors,
    _reduce,
    _steps,
    _stride,
    _windows,
    alexander_of_closure,
    torus_closure,
)
from lenslinks.laurent import LaurentMatrix, LaurentPoly, divide_cyclic, slot_bits
from lenslinks.lens import BandDiagram, LensSpace, lift
from modp import lift_numerator_mod, poly_mod, random_point, root_of_unity_field
import reference
from reference import (
    burau_reduced,
    centered_digits,
    cyclic_reduce,
    det_numerator,
    free_reduce,
    identity,
    leibniz_det,
    matmul,
    norm_bound_loop,
    norm_matrix,
    spelled_out,
    torus_braid,
)


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
    rows = [[LaurentPoly.one() if r == c else LaurentPoly() for c in range(d)] for r in range(d)]
    if letter > 0:
        rows[col][col] = LaurentPoly.from_dict({1: -1})
        if col - 1 >= 0:
            rows[col - 1][col] = LaurentPoly.from_dict({1: 1})
        if col + 1 < d:
            rows[col + 1][col] = LaurentPoly.one()
    else:
        rows[col][col] = LaurentPoly.from_dict({-1: -1})
        if col - 1 >= 0:
            rows[col - 1][col] = LaurentPoly.one()
        if col + 1 < d:
            rows[col + 1][col] = LaurentPoly.from_dict({-1: 1})
    return tuple([tuple(row) for row in rows])


def trace(m):
    return sum([row[i] for i, row in enumerate(m)], LaurentPoly())


def reflect(poly):
    """poly(1/t)."""
    return LaurentPoly.from_dict({-e: c for e, c in poly.terms})


def principal_minor_sums(m):
    """[e_1 .. e_d] of the d x d matrix with rows m: the sums of its principal k x k minors, each by Leibniz."""
    sums = []
    for k in range(1, len(m) + 1):
        minors = [leibniz_det([[m[r][c] for c in rows] for r in rows]) for rows in combinations(range(len(m)), k)]
        sums.append(sum(minors, LaurentPoly()))
    return sums


def burau_by_products(w):
    """Reference: the product of the generator matrices in word order."""
    acc = identity(w.strands - 1)
    for letter in w.letters:
        acc = matmul(acc, generator_matrix(w.strands, letter))
    return acc


def scalar(n, exponent):
    """t^exponent times the identity of size n - 1."""
    unit, zero = LaurentPoly.from_dict({exponent: 1}), LaurentPoly()
    return tuple([tuple([unit if r == c else zero for c in range(n - 1)]) for r in range(n - 1)])


def band_diagrams(max_strands=4, max_len=5, max_p=5):
    def build(n, p, data):
        q = data.draw(st.sampled_from([0] if p == 1 else [q for q in range(1, p) if math.gcd(p, q) == 1]))
        letters = data.draw(st.lists(signed_letters(n), max_size=max_len))
        return BandDiagram(LensSpace(p, q), BraidWord(n, tuple(letters)))

    return st.builds(build, st.integers(2, max_strands), st.integers(1, max_p), st.data())


class TestBurauReduced:
    def test_empty_word_is_identity(self):
        assert burau_reduced(BraidWord(3)) == identity(2)

    def test_cancelling_pair_is_identity(self):
        assert burau_reduced(BraidWord(2, (1, -1))) == identity(1)

    def test_full_twist_identity(self):
        # The square of the half twist and the cube of (s2 s1) are the same
        # braid, so their matrices and permutations must agree entrywise.
        lhs = BraidWord(3, garside(3).letters * 2)
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
        assert burau_reduced(BraidWord(a.strands, a.letters + b.letters)) == matmul(burau_reduced(a), burau_reduced(b))

    @settings(max_examples=60)
    @given(words())
    def test_inverse_word_gives_inverse_matrix(self, w):
        product = matmul(burau_reduced(w), burau_reduced(inverse_word(w)))
        assert product == identity(w.strands - 1)

    def test_reference_shares_no_private_code(self):
        # burau_reduced and det_numerator check the packed passes, so they
        # must not be built from them: tests/reference.py names nothing
        # private of the library, by import or by attribute.
        tree = ast.parse(Path(reference.__file__).read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lenslinks")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        private += [
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        ]
        assert private == []


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
        assert burau_reduced(BraidWord(n, garside(n).letters * 2)) == scalar(n, n)

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=5, max_len=6), st.integers(0, 3), st.integers(0, 2))
    def test_power_and_twists(self, w, e, k):
        assert burau_reduced(w, e, k) == burau_by_products(spelled_out(w, e, k))

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=6, max_len=16), st.integers(1, 3))
    def test_inverse_heavy_words(self, w, e):
        # Every letter but the first is an inverse: the column offsets keep growing.
        w = BraidWord(w.strands, tuple(-abs(letter) if i else letter for i, letter in enumerate(w.letters)))
        assert burau_reduced(w, e) == burau_by_products(spelled_out(w, e))

    @settings(max_examples=30, deadline=None)
    @given(words(max_strands=5, max_len=8), st.integers(0, 3))
    def test_power_zero_is_the_twist_alone(self, w, k):
        assert burau_reduced(w, 0, k) == scalar(w.strands, w.strands * k)

    @pytest.mark.parametrize("e, k", [(0, 0), (1, 0), (3, 1), (5, 2)])
    def test_two_strands_with_twists(self, e, k):
        w = BraidWord(2, (1, -1, -1, 1, 1, 1))
        assert burau_reduced(w, e, k) == burau_by_products(spelled_out(w, e, k))

    def test_entries_beyond_64_bits(self):
        # s1 s2^-1 is pseudo-Anosov: its coefficients grow like 2.618^60.
        w = BraidWord(3, (1, -2))
        matrix = burau_reduced(w, 60)
        assert matrix == burau_by_products(spelled_out(w, 60))
        top = max(abs(c) for row in matrix for entry in row for _, c in entry.terms)
        assert top > 2**64

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=6, max_len=10), st.integers(0, 4))
    def test_norm_bound_holds(self, w, e):
        d = w.strands - 1
        bound = max(_windows(d, _steps(w.letters, d), e)[2])
        matrix = burau_reduced(w, e)
        assert all(sum(abs(c) for _, c in entry.terms) <= bound for row in matrix for entry in row)

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=12, max_len=10), st.integers(0, 40))
    @example(BraidWord(3, (1, -2) * 50), 3)
    def test_walk_sums_are_the_norm_column_sums(self, w, e):
        # In the example the norms pass 2^64 within one pass.
        d = w.strands - 1
        steps = _steps(w.letters, d)
        sums = _windows(d, steps, e)[2]
        assert sums == [sum(column) for column in norm_matrix(d, steps, e)]
        # A column sum bounds each of its d entries and is at most d of them.
        loop = norm_bound_loop(d, steps, e)
        assert loop <= max(sums) <= d * loop
        assert _windows(d, steps, 0)[2] == [1] * d == _windows(d, [], e)[2]

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=8, max_len=10))
    def test_inverse_trace_is_the_reflected_trace(self, w):
        # Squier: the Burau representation is unitary for t -> 1/t.
        assert trace(burau_reduced(inverse_word(w))) == reflect(trace(burau_reduced(w)))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            burau_reduced(BraidWord(3, (1,)), -1)


def shaped_words(max_strands=12, max_len=12):
    """Words of any letters, of inverses after the first letter, or of a positive run and then a negative one."""

    def build(n, letters, shape):
        if shape == "inverse-heavy":
            letters = [-abs(letter) if i else letter for i, letter in enumerate(letters)]
        elif shape == "positive-then-negative":
            half = len(letters) // 2
            letters = [abs(letter) for letter in letters[:half]] + [-abs(letter) for letter in letters[half:]]
        return BraidWord(n, tuple(letters))

    shapes = st.sampled_from(["any", "inverse-heavy", "positive-then-negative"])
    return st.integers(2, max_strands).flatmap(
        lambda n: st.builds(build, st.just(n), st.lists(signed_letters(n), max_size=max_len), shapes)
    )


def column_pass(w, power):
    """(lows, highs, stride, entries) of the packed pass: entries[c][r] holds the terms of entry (r, c).

    Each column is decoded digit by digit by repeated division, not by the library's reader.
    """
    d = w.strands - 1
    steps = _steps(w.letters, d)
    lows, highs, sums = _windows(d, steps, power)
    k = slot_bits(max(sums).bit_length() + 1)
    stride = _stride(lows, highs)
    entries = []
    for x, low in zip(_burau_pass(d, steps, power, k, stride), lows):
        digits = centered_digits(x, k, d * stride)
        chunks = [digits[r * stride : (r + 1) * stride] for r in range(d)]
        entries.append([tuple([(low + i, c) for i, c in enumerate(chunk) if c]) for chunk in chunks])
    return lows, highs, stride, entries


class TestColumnPass:
    """One integer per column, packed in t and the row index at the stride its exponent windows need."""

    @settings(max_examples=80, deadline=None)
    @given(shaped_words(), st.integers(0, 6), st.integers(0, 3))
    @example(BraidWord(4, (1, 2, 3, -1, -2, -3)), 1, 0)
    @example(BraidWord(3, (1, 2, -1, -2)), 2, 3)
    @example(BraidWord(3, (1, -2)), 60, 1)
    def test_decodes_to_the_reference(self, w, power, twists):
        # At power 60 the coefficients pass 2^64, so the slots are 128 bits wide.
        _, _, _, entries = column_pass(w, power)
        u = w.strands * twists
        shifted = [[LaurentPoly(tuple([(e + u, c) for e, c in entry])) for entry in column] for column in entries]
        rows = list(zip(*shifted))
        assert tuple(rows) == burau_reduced(w, power, twists)

    @settings(max_examples=80, deadline=None)
    @given(shaped_words(), st.integers(0, 6))
    def test_exponents_lie_in_their_windows(self, w, power):
        lows, highs, stride, entries = column_pass(w, power)
        for low, high, column in zip(lows, highs, entries):
            assert high - low < stride
            assert all(low <= e <= high for entry in column for e, _ in entry)

    @pytest.mark.parametrize(
        "w, power",
        [
            (BraidWord(4, (1, 2, 3, -1, -2, -3)), 1),
            (BraidWord(3, (1, 2, -1, -2)), 2),
            (BraidWord(5, (4, 3, -1, -2)), 3),
        ],
    )
    def test_entries_reach_both_window_edges(self, w, power):
        # A positive run raises the top of a window and a negative run lowers
        # its bottom; here some column has entries at both edges, so a
        # stride one slot narrower would run one row into the next.
        lows, highs, stride, entries = column_pass(w, power)
        reached = [
            low
            for low, high, column in zip(lows, highs, entries)
            if high - low + 1 == stride
            and low in [entry[0][0] for entry in column if entry]
            and high in [entry[-1][0] for entry in column if entry]
        ]
        assert reached


class TestAlexanderOfLift:
    @settings(max_examples=60, deadline=None)
    @given(band_diagrams())
    def test_structured_lift_equals_materialized_lift(self, d):
        structured = alexander_of_closure(d.word, d.space.p, d.space.q)
        assert structured == alexander_of_closure(lift(d))

    def test_torus_9_3_from_l31(self):
        word = BraidWord(3, (2, 1, 2, 1))
        assert alexander_of_closure(word, 3, 1) == alexander_of_closure(*torus_closure(9, 3))


def lift_words(strands, max_len=6):
    return st.sampled_from(strands).flatmap(
        lambda n: st.lists(signed_letters(n), max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))
    )


# A 60-letter word on 12 strands with every generator, from the wide_closure
# benchmark pool at seed 1, whose Burau matrix fixes a basis vector.
WIDE_FIXED_COLUMN = (
    6, -9, 6, -3, 5, 2, -5, 6, 6, -1, -6, -9, -8, 5, 6, -11, 1, 9, -9, -7, -2, 1, 8, -9, -1, 5, 1, -1, 11, 5,
    11, -8, -7, 4, 6, -8, 3, 1, 3, -8, 7, 4, 7, -11, -1, 6, -3, 8, -10, 9, -11, -6, 4, -4, -6, 1, -8, -6, -1, 5,
)  # fmt: skip


class TestTraceRoute:
    """det(t^(n*q) M^p - id) from power sums, against the p passes and against roots of unity mod a prime."""

    @settings(max_examples=80, deadline=None)
    @given(lift_words((2, 3, 4, 5, 6), max_len=8), st.integers(0, 14), st.integers(0, 4))
    @example(BraidWord(5, (1, -2, 3, -4)), 7, 0)
    def test_equals_the_passes(self, w, p, q):
        # In the example the pass packs at 16 bits, and e_2 of M^7 needs 18.
        assert _numerator(w, p, q) == det_numerator(w, p, q)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=3), st.integers(1, 24))
    @example([1, 2], 1)
    def test_newton_gives_the_power_sums_of_integer_roots(self, roots, p):
        signed = [(-1) ** (i - 1) * sum(map(math.prod, combinations(roots, i))) for i in range(1, len(roots) + 1)]
        assert _newton([[(0, a)] for a in signed], p) == sum(r**p for r in roots)

    @settings(max_examples=60, deadline=None)
    @given(words(max_strands=6, max_len=8), st.integers(1, 4))
    @example(BraidWord(4, (1, 2, -3)), 1)
    @example(BraidWord(6, (1, -2, 3, 4, -5)), 3)
    def test_elementary_gives_the_principal_minor_sums(self, w, power):
        # Given the true lower half, the upper half follows by Squier's
        # reflection e_(d-k) = (-t)^exponent e_k(1/t); the examples have an
        # odd exponent, where the unit's sign is -1.
        d = w.strands - 1
        expected = principal_minor_sums(burau_reduced(w, power))
        exponent = sum(1 if letter > 0 else -1 for letter in w.letters) * power
        assert _elementary([e.terms for e in expected[: d // 2]], exponent, d) == [e.terms for e in expected]

    @settings(max_examples=40, deadline=None)
    @given(lift_words((3, 4), max_len=8), st.integers(1, 30))
    @example(BraidWord(3, (1, 2, 1)), 2)
    def test_newton_on_the_norms_bounds_the_power_sum(self, w, p):
        # The slot width of _power_sum holds this bound: no coefficient of
        # tr(M^p) may exceed it.  The half twist on 3 strands has trace 0, so
        # there only the e_2 term bounds tr(M^2) = -2 e_2.
        writhe = sum(1 if letter > 0 else -1 for letter in w.letters)
        elementary = _elementary([trace(burau_reduced(w)).terms], writhe, w.strands - 1)
        bound = _newton([[(0, sum(abs(c) for _, c in terms))] for terms in elementary], p)
        assert all(abs(c) <= bound for _, c in trace(burau_reduced(w, p)).terms)

    @pytest.mark.parametrize(
        "w, power",
        [(BraidWord(2, (1, 1, -1, 1)), 9), (BraidWord(3, (1, -2)), 0), (BraidWord(4, (3, -2, 1)), 0)]
        + [(BraidWord(n), 10**9) for n in (2, 3, 4)]
        + [(BraidWord(5), 10**9), (BraidWord(5, (4, -3, 2, -1)), 0)]
        + [(BraidWord(n), 10**9) for n in (8, 64)]
        + [(BraidWord(n, (1, -2, 3, -4, 5, -6, 7)), 0) for n in (8, 64)],
    )
    def test_unit_or_identity_takes_no_power_sum(self, monkeypatch, w, power):
        # On 2 strands M is the unit (-t)^(exponent sum), and at power 0 or
        # on the empty word M^power = id on any strand count: no pass, no
        # Newton step and no determinant, however large the power.  On 64
        # strands eliminating the diagonal matrix takes seconds, so the
        # product of its entries stands in for it.
        if w.strands <= 8:
            expected = det_numerator(w, power, 2)
        else:
            u_minus_one = LaurentPoly.from_dict({2 * w.strands: 1, 0: -1})
            expected = math.prod([u_minus_one] * (w.strands - 1), start=LaurentPoly.one())
        for name in ("_power_sum", "_principal_minors", "_burau_pass", "_det_numerator"):
            monkeypatch.setattr(invariants, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        monkeypatch.setattr(LaurentMatrix, "det", lambda *args: pytest.fail("LaurentMatrix.det called"))
        assert _numerator(w, power, 2) == expected

    @pytest.mark.parametrize("letters", [(1, -2), (2, 1), (1, 1), (1, -1), (2, 2, 2), (1, -2, 3, -4)])
    def test_large_powers(self, letters):
        # Pseudo-Anosov, periodic, reducible and trivial braids on 3 strands,
        # and a pseudo-Anosov one on 5, where the passes cost more.
        n = max(3, max(map(abs, letters)) + 1)
        w = BraidWord(n, letters)
        for p in (50, 200) if n == 3 else (64,):
            assert _numerator(w, p, 1) == det_numerator(w, p, 1), p

    def test_trace_is_summed_wider_than_the_pass(self, monkeypatch):
        # Sized by the largest coefficient of M, 116, instead of the walk's
        # looser bound, the pass packs at 8 bits, yet tr M has a coefficient
        # of 137: the diagonal entries are summed at a width that holds the
        # sum of their L1 norms, never at the pass width.
        w = BraidWord(3, (-2, 1, -2, 1, -1, -2, -2, 1, -1, 1, -2, 1, 1, 1, -2, 1, -2, -2, 1, 1))
        m = burau_reduced(w)
        top = max([abs(c) for row in m for entry in row for _, c in entry.terms])
        windows = invariants._windows
        monkeypatch.setattr(invariants, "_windows", lambda d, steps, power: (*windows(d, steps, power)[:2], [top] * d))
        assert max([abs(c) for _, c in trace(m).terms]) >= 2**7 > top
        assert _power_sum(w, 1) == trace(m)

    @settings(max_examples=40, deadline=None)
    @given(lift_words((3, 4, 5, 6), max_len=8), st.integers(1, 10))
    @example(BraidWord(5, (1, -2, 3, -4)), 7)
    def test_principal_minors_of_the_decoded_matrix(self, w, p):
        a = burau_reduced(w, p)
        pairs = combinations(range(w.strands - 1), 2)
        second = sum([a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in pairs], LaurentPoly())
        assert _principal_minors(w, p) == [trace(burau_reduced(w, p)), second]

    @pytest.mark.parametrize(
        "w, power, k, width",
        [(BraidWord(5, (2, 4, -3, 1, 4, -2)), 2, 8, 16), (BraidWord(5, (3, -2, 4, 1)), 1, 8, 8)],
        ids=["wider than the pass", "at the pass width"],
    )
    def test_principal_minors_move_whole_windows(self, monkeypatch, w, power, k, width):
        # The minors' bound needs 16 bits where the pass packs at 8 in the
        # first case and fits the pass width in the second.  In both, some
        # column's digits start above slot 0 of its window, so its entries
        # are moved from slot 0, where t^lows[c] puts them.
        moved, firsts = [], []
        respace, window = invariants._respace, invariants._column_window

        def spy_respace(raw, k, width, stride, first, last):
            moved.append((k, width, first, last - stride))
            return respace(raw, k, width, stride, first, last)

        def spy_window(raw, k, stride):
            read = window(raw, k, stride)
            firsts.append(read[0])
            return read

        monkeypatch.setattr(invariants, "_respace", spy_respace)
        monkeypatch.setattr(invariants, "_column_window", spy_window)
        minors = _principal_minors(w, power)
        monkeypatch.undo()
        assert set(moved) == {(k, width, 0, -1)}
        assert max(firsts) > 0
        a = burau_reduced(w, power)
        second = sum([a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in combinations(range(4), 2)], LaurentPoly())
        assert minors == [trace(burau_reduced(w, power)), second]

    @settings(max_examples=40, deadline=None)
    @given(lift_words(range(2, 10)), st.integers(2, 12), st.integers(0, 3), st.integers(0, 2**32))
    @example(BraidWord(5, (1, -2, 3, -4)), 7, 1, 0)
    @example(BraidWord(6, (1, -2, 3, -4, 5)), 7, 1, 0)
    @example(BraidWord(8, (1, -2, 3, -4, 5, -6, 7)), 5, 0, 0)
    def test_both_routes_at_roots_of_unity(self, w, p, q, seed):
        # On 7 to 9 strands _numerator takes the two half-length passes of
        # _det_numerator, which on 2 to 6 strands is checked directly.
        modulus, zeta = root_of_unity_field(p)
        r = random_point(seed, modulus)
        expected = lift_numerator_mod(burau_reduced(w), w.strands, p, q, r, modulus, zeta)
        t = pow(r, p, modulus)
        assert poly_mod(det_numerator(w, p, q), t, modulus) == expected
        assert poly_mod(_numerator(w, p, q), t, modulus) == expected
        if w.letters:
            assert poly_mod(_det_numerator(w, p, q), t, modulus) == expected

    @settings(max_examples=60, deadline=None)
    @given(lift_words(range(7, 13), max_len=8), st.booleans(), st.integers(0, 6), st.integers(0, 3))
    @example(BraidWord(7, ()), False, 3, 0)
    @example(BraidWord(7, ()), False, 1, 2)
    @example(BraidWord(8, (3,)), False, 1, 1)
    @example(BraidWord(8, (-3,)), True, 1, 0)
    @example(BraidWord(7, (1, -2, 3, -4, 5, -6, 2)), False, 1, 0)
    @example(BraidWord(9, (1, 2, -3, 4, -5, 6, 7, -8)), False, 5, 1)
    def test_split_route_equals_the_reference(self, w, cover, p, q):
        # det X * det(u Y - X^-1) from two half-length passes, against the
        # whole matrix of all the passes less the identity.  ``cover`` adds
        # every generator that w lacks, so that at q = 0 the closure is not
        # split and the route is taken.  At power 1 a word of one letter
        # leaves the first half empty.
        if cover:
            missing = [i for i in range(1, w.strands) if i not in map(abs, w.letters)]
            w = BraidWord(w.strands, w.letters + tuple(missing))
        assert _numerator(w, p, q) == det_numerator(w, p, q)

    @settings(max_examples=40, deadline=None)
    @given(lift_words(range(7, 10), max_len=10).filter(lambda w: w.letters), st.integers(1, 4), st.integers(0, 5))
    @example(BraidWord(8, (1, 2, 3, -4, -5, -6, -7)), 1, 5)
    def test_det_numerator_equals_the_reference(self, w, p, q):
        # The stride covers each column's window in u Y and in X^-1 however
        # far the twist u = t^(n*q) moves the first from the second.
        assert _det_numerator(w, p, q) == det_numerator(w, p, q)

    def test_fixed_column_takes_no_det(self, monkeypatch):
        # This 12-strand word has every generator, so the closure is not
        # split by a missing generator, but M fixes a basis vector: that
        # column of u Y - X^-1 is zero, and the numerator is 0 before any
        # entry is decoded or any determinant taken.
        w = BraidWord(12, WIDE_FIXED_COLUMN)
        assert len({abs(letter) for letter in w.letters}) == w.strands - 1
        assert det_numerator(w, 1, 0) == LaurentPoly()
        monkeypatch.setattr(LaurentMatrix, "det", lambda *args: pytest.fail("LaurentMatrix.det called"))
        assert _numerator(w, 1, 0) == LaurentPoly()

    @pytest.mark.parametrize(
        "w, power",
        [(BraidWord(3, (1, 1)), 1), (BraidWord(5, (1, -2, 4)), 3), (BraidWord(6, (1, -2, 3, -4)), 7)]
        + [(BraidWord(7, (1, -2, 3, -4, 5)), 1), (BraidWord(8, (2, 3, -3, -1) * 4), 2)]
        + [(BraidWord(12, (1, -2, 3, 5, -6, 7, -8, 9, -10, 11) * 6), 1)],
    )
    def test_split_closure_takes_no_pass(self, monkeypatch, w, power):
        # With no twist and some s_i missing from w, column i - 1 of
        # M^power - id is zero: the closure is split and the numerator 0.
        assert det_numerator(w, power, 0) == LaurentPoly()
        for name in ("_power_sum", "_principal_minors", "_burau_pass", "_det_numerator"):
            monkeypatch.setattr(invariants, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        monkeypatch.setattr(LaurentMatrix, "det", lambda *args: pytest.fail("LaurentMatrix.det called"))
        assert _numerator(w, power, 0) == LaurentPoly()


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
        # Normalized forms make == the test for equality up to +-t^k.
        trefoil = AlexanderPoly(LaurentPoly.from_dict({0: 1, 1: -1, 2: 1}))
        other = AlexanderPoly(LaurentPoly.from_dict({0: 1, 1: 1}))
        assert trefoil == trefoil
        assert trefoil != other
        for unit in (LaurentPoly.from_dict({-2: 1}), LaurentPoly.from_dict({5: -1})):
            assert AlexanderPoly.from_laurent(unit * trefoil.poly) == trefoil


class TestAlexanderOfClosure:
    def test_trefoil(self):
        assert str(alexander_of_closure(BraidWord(2, (1, 1, 1)))) == "1 - t + t^2"

    def test_split_link_vanishes(self):
        assert alexander_of_closure(BraidWord(2)).poly.is_zero

    def test_hopf_link(self):
        assert str(alexander_of_closure(BraidWord(2, (1, 1)))) == "1 - t"

    def test_single_strand_is_unknot(self):
        # An empty determinant over the cyclic sum 1, whatever the power.
        for power, twists in ((1, 0), (0, 5), (7, 3)):
            assert str(alexander_of_closure(BraidWord(1), power, twists)) == "1"

    @pytest.mark.parametrize("n", range(2, 6))
    def test_subtracts_the_identity_on_the_diagonal_only(self, monkeypatch, n):
        # Up to 4x4 the determinant subtracts nothing, so each call of
        # __sub__ is one diagonal entry of burau - id.  The library never
        # builds burau - id, so this pins the reference route.
        sub, calls = LaurentPoly.__sub__, []

        def counted(a, b):
            calls.append(b)
            return sub(a, b)

        monkeypatch.setattr(LaurentPoly, "__sub__", counted)
        det_numerator(BraidWord(n, tuple(range(1, n)) * 3), 1, 0)
        assert calls == [LaurentPoly.one()] * (n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("power, twists", [(-1, 0), (2, -1), (1, -1)])
    def test_negative_power_or_twists_rejected(self, n, power, twists):
        with pytest.raises(ValueError, match="non-negative"):
            alexander_of_closure(BraidWord(n, tuple(range(1, n))), power, twists)

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


@st.composite
def reducible_words(draw, max_strands=9, max_len=6):
    """u w u^-1 on 2 to ``max_strands`` strands, with pairs s s^-1 put in at random places: words that reduce."""
    n = draw(st.integers(2, max_strands))
    letters = st.lists(signed_letters(n), max_size=max_len)
    u, core = draw(letters), draw(letters)
    word = u + core + [-letter for letter in reversed(u)]
    for letter in draw(letters):
        i = draw(st.integers(0, len(word)))
        word[i:i] = [letter, -letter]
    return BraidWord(n, tuple(word))


# Cyclically reduced words with an inverse pair s_i^e ... s_i^-e that only a
# step across an s_(i-1) or s_(i+1) would remove: a cancellation, or a peel
# that overlooks the neighbour after the last s_i.
REDUCED_ACROSS_A_NEIGHBOUR = [
    BraidWord(3, (1, 2, -1, 2)),
    BraidWord(4, (2, 1, 3, -2, 1)),
    BraidWord(4, (1, 3, 2, -1, -3, 2)),
]


class TestReduce:
    # _reduce against the rescanning reference; the closure invariants it
    # keeps; and Delta of the reduced word against Delta of the input.
    any_words = st.one_of(words(max_strands=9, max_len=16), reducible_words())

    @settings(max_examples=200, deadline=None)
    @given(any_words)
    @example(BraidWord(4, (2, 1, 3, -2)))
    @example(BraidWord(5, (1, 3, 2, -1, -3, 4, -2)))
    def test_length_equals_the_reference(self, w):
        assert len(_reduce(w.letters, w.strands)) == len(cyclic_reduce(w).letters)

    # Free reduction leaves 2 1 3 -2 whole; the cyclic step peels its s_2
    # pair, and then s_1 s_3 misses s_2.
    @pytest.mark.parametrize(
        "w, reduced",
        [(w, w.letters) for w in REDUCED_ACROSS_A_NEIGHBOUR] + [(BraidWord(4, (2, 1, 3, -2)), (1, 3))],
        ids=str,
    )
    def test_reduced_form(self, w, reduced):
        assert _reduce(w.letters, w.strands) == reduced == cyclic_reduce(w).letters

    @settings(max_examples=150, deadline=None)
    @given(any_words)
    def test_idempotent(self, w):
        reduced = _reduce(w.letters, w.strands)
        assert _reduce(reduced, w.strands) == reduced

    @settings(max_examples=150, deadline=None)
    @given(any_words)
    def test_keeps_exponent_sums_and_cycle_type(self, w):
        reduced = BraidWord(w.strands, _reduce(w.letters, w.strands))

        def exponent_sums(word):
            return [sum([(1 if x > 0 else -1) for x in word.letters if abs(x) == g]) for g in range(1, word.strands)]

        def cycle_type(word):
            return sorted([len(cycle) for cycle in permutation(word).cycles()])

        assert exponent_sums(reduced) == exponent_sums(w)
        assert cycle_type(reduced) == cycle_type(w)

    @settings(max_examples=150, deadline=None)
    @given(any_words, st.integers(0, 3), st.sampled_from([0, 1, 2]))
    @example(BraidWord(4, (2, 1, 3, -2)), 1, 0)
    @example(BraidWord(4, (2, 1, 3, -2)), 3, 1)
    @example(BraidWord(7, (1, -2, 3, -4, 5, -6, 6, 4)), 2, 0)
    def test_alexander_equals_the_unreduced_numerator(self, w, power, twists):
        n = w.strands
        unreduced = AlexanderPoly.from_laurent(divide_cyclic(_numerator(w, power, twists), n))
        assert alexander_of_closure(w, power, twists) == unreduced


@st.composite
def fibration_lifts(draw):
    """(w, p, q): a word of at most 5 letters on 2-8 strands, all positive or of any signs, p <= 8 and q a unit of p (0 at p = 1)."""
    n, p = draw(st.integers(2, 8)), draw(st.integers(1, 8))
    q = 0 if p == 1 else draw(st.sampled_from([q for q in range(1, p) if math.gcd(p, q) == 1]))
    letters = st.integers(1, n - 1) if draw(st.booleans()) else signed_letters(n)
    return BraidWord(n, tuple(draw(st.lists(letters, max_size=5)))), p, q


class TestFibration:
    """The lift of (w, p, q) closes w^p . Delta^(2q) against its Bennequin surface.

    That surface has Euler characteristic n - p|w| - q n(n-1) for a word of
    any signs.  A positive closure is fibered with it as the fiber
    (Stallings, "Constructions of fibred knots and links", 1978), and a
    fibered link has a monic Alexander polynomial of span 1 - chi (Milnor,
    "Singular Points of Complex Hypersurfaces", 1968).
    """

    @settings(max_examples=200, deadline=None)
    @given(fibration_lifts())
    # Packs into 17,584 bits, above 2^14, so det eliminates on polynomials;
    # random draws this far out are rare.
    @example((BraidWord(8, (-4, 3, -2, -4, 5)), 8, 5))
    def test_alexander_against_the_bennequin_surface(self, lifted):
        w, p, q = lifted
        n = w.strands
        terms = alexander_of_closure(w, p, q).poly.terms
        # Delta(1) is +-1 on a knot and 0 on a link of two or more components.
        knot = permutation(w).cycle_count(p) == 1
        assert abs(sum([c for _, c in terms])) == (1 if knot else 0)
        if terms:
            assert terms[-1][0] <= p * len(w.letters) + q * n * (n - 1) - n + 1
        if all(letter > 0 for letter in w.letters):
            # Split exactly when no twist joins the strands a missing
            # generator leaves apart.
            assert (not terms) == (q == 0 and len(set(w.letters)) < n - 1)
            if terms:
                assert abs(terms[0][1]) == abs(terms[-1][1]) == 1
                assert terms[-1][0] == 1 - bennequin_fiber(w, p, q).euler


class TestTorusBraid:
    """T(a,b) as the triple (run, a mod b, a // b), against the reference braid spelled out."""

    def test_9_3(self):
        assert torus_closure(9, 3) == (BraidWord(3, (2, 1)), 0, 3)
        assert torus_braid(9, 3) == BraidWord(3, (2, 1) * 9)

    def test_8_2(self):
        assert torus_closure(8, 2) == (BraidWord(2, (1,)), 0, 4)
        assert torus_braid(8, 2) == BraidWord(2, (1,) * 8)

    def test_single_strand(self):
        assert torus_closure(5, 1) == (BraidWord(1), 0, 5)
        assert torus_braid(5, 1) == BraidWord(1)

    def test_invalid(self):
        for a, b in ((0, 2), (2, 0), (-3, 4)):
            with pytest.raises(ValueError, match="torus parameters must be positive"):
                torus_closure(a, b)

    @pytest.mark.parametrize("a", range(2, 7))
    @pytest.mark.parametrize("b", range(2, 7))
    def test_symmetry(self, a, b):
        assert alexander_of_closure(*torus_closure(a, b)) == alexander_of_closure(*torus_closure(b, a))

    @pytest.mark.parametrize("b", range(1, 9))
    def test_matches_spelled_out_braid(self, b):
        # a = b*m leaves run^0: only the full twists remain.
        for a in range(1, 41):
            assert alexander_of_closure(*torus_closure(a, b)) == alexander_of_closure(torus_braid(a, b)), a

    @pytest.mark.parametrize("b", range(1, 13))
    def test_span_is_a_minus_1_times_b_minus_1(self, b):
        # lift --compare-torus answers false on any other span without
        # building the torus polynomial, so it must never be 0 either.
        for a in range(1, 31):
            terms = alexander_of_closure(*torus_closure(a, b)).poly.terms
            assert terms and terms[0][0] == 0 and terms[-1][0] == (a - 1) * (b - 1), a
