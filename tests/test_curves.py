"""Polynomial parsing, invariance classes, torus criteria, Puiseux pairs."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lenslinks.curves import (
    CableSequence,
    PuiseuxData,
    SupportPoly,
    invariance_class,
    is_torus_knot_lift,
    parse_poly,
    puiseux_pairs,
    torus_poly,
)
from lenslinks.errors import ParseError
from lenslinks.lens import LensSpace, lifted_component_count, parse_band_diagram
from reference import closure_components, descent_parse_poly, support_mul, support_poly


def _outcome(parse, text):
    """``parse(text)``, or the message and position of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


# The grammar's alphabet; digits and spaces that only some str predicates
# accept (ARABIC-INDIC DIGIT THREE is decimal, SUPERSCRIPT TWO is a digit
# but not decimal, NO-BREAK SPACE, EM SPACE and the file separator \x1c
# are spaces); letters that are no variable; and numbers past the
# interpreter's limit of 4,300 digits.
_POLY_PIECES = st.sampled_from(
    list("xy^*/+- 0123456789")
    + ["\u0663", "\u00b2", "\u00a0", "\u2003", "\x1c", "z", "\u00e9", "/0", "x^0", " + ", "1/2*"]
)
_LONG_NUMBERS = st.sampled_from(["9" * 5000, "0" * 5000, "1" * 4301, "2" * 4300])
_SOUP_TEXTS = st.lists(_POLY_PIECES, max_size=12).map("".join)
_LONG_SOUP_TEXTS = st.tuples(_SOUP_TEXTS, _LONG_NUMBERS, _SOUP_TEXTS).map("".join)
_COEFFICIENTS = st.sampled_from(["", "", "3*", "1/2 * ", "007\u2003*", "0*", "2/0*", "\u0663/4*"])
_FACTOR = st.sampled_from(["x", "y", "x^2", "y ^ \u0663", "x^0", "y\x1c^10"])
_TERMS = st.builds(
    lambda coefficient, factors, glue: coefficient + glue.join(factors),
    _COEFFICIENTS,
    st.lists(_FACTOR, min_size=1, max_size=3),
    st.sampled_from(["*", " * ", "\u00a0*"]),
)


@st.composite
def _grammar_texts(draw):
    """Text of the grammar, with one piece inserted or replaced half the time."""
    glue = draw(st.sampled_from([" + ", " - ", "-", " +- ", "\u2003-\u2003"]))
    text = draw(st.sampled_from(["", "-", " + "])) + glue.join(draw(st.lists(_TERMS, min_size=1, max_size=4)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.one_of(_POLY_PIECES, _LONG_NUMBERS)) + text[at + draw(st.integers(0, 1)) :]
    return text


class TestParsePoly:
    def test_two_monomials(self):
        f = parse_poly("x^8 + y^2")
        assert dict(f.terms) == {(8, 0): 1, (0, 2): 1}

    def test_cancellation_to_zero(self):
        assert parse_poly("x - x").is_zero

    def test_like_terms_combined(self):
        f = parse_poly("3*x^2*y - y + x^2*y")
        assert dict(f.terms) == {(2, 1): 4, (0, 1): -1}

    def test_rational_coefficient(self):
        f = parse_poly("1/2*x*y^3")
        assert dict(f.terms) == {(1, 3): Fraction(1, 2)}

    def test_leading_minus(self):
        f = parse_poly("-x + y")
        assert dict(f.terms) == {(1, 0): -1, (0, 1): 1}

    def test_repeated_variable_factors_multiply(self):
        f = parse_poly("x*x*y")
        assert dict(f.terms) == {(2, 1): 1}

    @pytest.mark.parametrize(
        "text",
        ["", "0", "3", "z^2", "x +", "x^", "x^y", "1/0*x", "x & y", "2x"],
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_poly("x + z")
        assert excinfo.value.position == 4

    def test_str_roundtrip(self):
        for text in ["x^8 + y^2", "3*x^2*y - y", "x*y - 1/2*y^3"]:
            f = parse_poly(text)
            assert parse_poly(str(f)) == f

    @pytest.mark.parametrize(
        "text, position",
        [("x^0 + y^0", 0), ("x + 2*y^0", 4), ("x^0 - x^0", 0), ("-  3/4*x^0*y^0*x^0", 3), ("x + y^0 + x^0", 4)],
    )
    def test_a_term_of_degree_zero_is_refused(self, text, position):
        # str would print such a term as a bare number, which does not parse.
        with pytest.raises(ParseError) as excinfo:
            parse_poly(text)
        assert str(excinfo.value) == f"a term must have positive degree (at position {position})"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x^0 z", "expected '+' or '-', got 'z' (at position 4)"),
            ("x^0 + z", "unknown variable 'z' (at position 6)"),
            ("y^0 + 1/0*x", "zero denominator (at position 9)"),
        ],
    )
    def test_grammar_errors_come_before_the_degree_rule(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse_poly(text)
        assert str(excinfo.value) == message

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 40), st.integers(0, 12)).filter(lambda key: key != (0, 0)),
            st.fractions(max_denominator=10**6).filter(bool),
            min_size=1,
            max_size=6,
        )
    )
    def test_every_printed_polynomial_parses_back(self, coeffs):
        f = support_poly(coeffs)
        assert parse_poly(str(f)) == f

    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(_SOUP_TEXTS, _LONG_SOUP_TEXTS, _grammar_texts()))
    def test_matches_the_descent_parser(self, text):
        # The same polynomial, or the same error at the same position, as
        # the character-by-character parser, which accepts terms of degree 0.
        mine, theirs = _outcome(parse_poly, text), _outcome(descent_parse_poly, text)
        if isinstance(mine, tuple) and mine[0].startswith("a term must have positive degree"):
            assert isinstance(theirs, SupportPoly)
        else:
            assert mine == theirs


class TestInvarianceClass:
    def test_order_three(self):
        assert invariance_class(parse_poly("x^8 + y^2"), 3, 1) == 2

    def test_order_two(self):
        assert invariance_class(parse_poly("x^8 + y^2"), 2, 1) == 0

    def test_not_invariant(self):
        assert invariance_class(parse_poly("x + y"), 3, 2) is None

    def test_p_one_always_zero(self):
        assert invariance_class(parse_poly("x + y^5"), 1, 0) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            invariance_class(parse_poly("x"), 4, 2)
        with pytest.raises(ValueError):
            invariance_class(SupportPoly(), 3, 1)
        with pytest.raises(ValueError):
            invariance_class(parse_poly("x"), 0, 1)

    @pytest.mark.parametrize("p, q", [(5, 7), (5, 0), (3, -1), (1, 1), (0, 1), (4, 2)])
    def test_validated_as_a_lens_space(self, p, q):
        # The same (p, q) that LensSpace refuses, with its message.
        with pytest.raises(ValueError) as expected:
            LensSpace(p, q)
        with pytest.raises(ValueError) as refused:
            invariance_class(parse_poly("x"), p, q)
        assert str(refused.value) == str(expected.value)

    @given(st.integers(1, 7), st.data())
    def test_multiplicative(self, p, data):
        qs = [q for q in range(p)] if p == 1 else [q for q in range(1, p) if math.gcd(p, q) == 1]
        q = data.draw(st.sampled_from(qs)) if p > 1 else 0

        def invariant_poly(k):
            terms = {}
            n_terms = data.draw(st.integers(1, 5))
            for _ in range(n_terms):
                j = data.draw(st.integers(0, 6))
                base = (k - q * j) % p
                i = base + p * data.draw(st.integers(0, 3))
                terms[(i, j)] = terms.get((i, j), 0) + data.draw(st.integers(1, 4))
            return support_poly(terms)

        k1 = data.draw(st.integers(0, p - 1))
        k2 = data.draw(st.integers(0, p - 1))
        f, g = invariant_poly(k1), invariant_poly(k2)
        assert invariance_class(f, p, q) == k1
        assert invariance_class(g, p, q) == k2
        assert invariance_class(support_mul(f, g), p, q) == (k1 + k2) % p


class TestSubstitutePowers:
    # f(x^p, y^p) has invariance class 0 in every L(p,q).
    def test_square_and_class(self):
        # f = x^2 + x*y + y^3 with p = 2
        assert invariance_class(parse_poly("x^4 + x^2*y^2 + y^6"), 2, 1) == 0

    @given(st.integers(1, 7), st.data())
    def test_result_class_is_zero_for_all_q(self, p, data):
        terms = {}
        for _ in range(data.draw(st.integers(1, 8))):
            i = data.draw(st.integers(0, 6))
            j = data.draw(st.integers(0, 6))
            if (i, j) == (0, 0):
                i = 1
            terms[(i, j)] = data.draw(st.integers(1, 9))
        g = support_poly({(p * i, p * j): c for (i, j), c in terms.items()})
        qs = [0] if p == 1 else [q for q in range(1, p) if math.gcd(p, q) == 1]
        for q in qs:
            assert invariance_class(g, p, q) == 0


def _knot_lift_in(a, b, p, q):
    # Reference rule for one action: the quotient of T(a,b) by
    # (zeta x, zeta^q y) has d gcd(q b/d - a/d, p)/p components, d = gcd(a,b).
    d = math.gcd(a, b)
    return d * math.gcd(q * (b // d) - a // d, p) == p


class TestTorusCriteria:
    def test_witness_for_8_2_in_l31(self):
        assert invariance_class(torus_poly(8, 2), 3, 1) == 2

    def test_9_3_in_l32(self):
        assert invariance_class(torus_poly(9, 3), 3, 2) is not None

    def test_5_1_in_l31_fails(self):
        assert invariance_class(torus_poly(5, 1), 3, 1) is None

    def test_knot_lift_gcd(self):
        assert is_torus_knot_lift(9, 3, 3)
        assert is_torus_knot_lift(4, 2, 2)
        assert not is_torus_knot_lift(6, 4, 3)

    def test_knot_lift_depends_on_the_action(self):
        # T(6,2) lifts only a two-component link from L(2,1); the knot T(5,2)
        # is the lift of a knot in L(3,1) although gcd(5,2) = 1.
        assert not is_torus_knot_lift(6, 2, 2)
        assert is_torus_knot_lift(5, 2, 3)
        assert _knot_lift_in(5, 2, 3, 1)
        assert not _knot_lift_in(5, 2, 3, 2)

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
    def test_some_q_matches_search(self, a, b, p):
        units = [q for q in range(p) if math.gcd(p, q) == 1]
        passing = [q for q in units if _knot_lift_in(a, b, p, q)]
        assert is_torus_knot_lift(a, b, p) == bool(passing)
        # a knot's defining polynomial is invariant
        assert all(invariance_class(torus_poly(a, b), p, q) is not None for q in passing)

    @given(
        st.integers(1, 12).flatmap(
            lambda p: st.tuples(st.just(p), st.sampled_from([q for q in range(p) if math.gcd(p, q) == 1]))
        ),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_matches_band_diagram(self, space, n, j):
        # p q n : (n-1 ... 1)^j lifts to T(jp + qn, n); it is a knot in
        # L(p,q) exactly when its closure has one cycle.
        p, q = space
        letters = " ".join(map(str, range(n - 1, 0, -1))) + " "
        diagram = parse_band_diagram(f"{p} {q} {n} : {letters * j}")
        a = j * p + q * n
        assert lifted_component_count(diagram) == math.gcd(a, n)
        assert _knot_lift_in(a, n, p, q) == (len(closure_components(diagram.word)) == 1)

    def test_matches_polynomial_invariance(self):
        # x^a + y^b is invariant exactly when a = qb (mod p), with k = a mod p.
        for a in range(1, 9):
            for b in range(1, 9):
                for p in range(2, 6):
                    for q in range(1, p):
                        if math.gcd(p, q) != 1:
                            continue
                        k = a % p if (a - q * b) % p == 0 else None
                        assert invariance_class(torus_poly(a, b), p, q) == k


class TestTorusPoly:
    def test_examples(self):
        assert torus_poly(8, 2) == parse_poly("x^8 + y^2")
        assert torus_poly(1, 1) == parse_poly("x + y")

    def test_9_3_class(self):
        assert invariance_class(torus_poly(9, 3), 3, 1) == 0


class TestPuiseuxPairs:
    def test_two_characteristic_pairs(self):
        assert puiseux_pairs(PuiseuxData(4, (6, 7))).pairs == ((2, 3), (2, 7))

    def test_smooth_branch(self):
        assert puiseux_pairs(PuiseuxData(1, (2,))).pairs == ()

    def test_trefoil_branch(self):
        assert puiseux_pairs(PuiseuxData(2, (3,))).pairs == ((2, 3),)

    def test_unit_pair_kept_by_default(self):
        seq = puiseux_pairs(PuiseuxData(4, (4, 6, 7)))
        assert seq.pairs == ((1, 1), (2, 3), (2, 7))

    def test_characteristic_only_drops_unit_pairs(self):
        seq = puiseux_pairs(PuiseuxData(4, (4, 6, 7)), characteristic_only=True)
        assert seq.pairs == ((2, 3), (2, 7))

    def test_incomplete_data(self):
        with pytest.raises(ValueError):
            puiseux_pairs(PuiseuxData(4, (6,)))
        with pytest.raises(ValueError):
            puiseux_pairs(PuiseuxData(4, (6, 10)))

    def test_puiseux_data_validation(self):
        with pytest.raises(ValueError):
            PuiseuxData(0, (1,))
        with pytest.raises(ValueError):
            PuiseuxData(3, (2,))
        with pytest.raises(ValueError):
            PuiseuxData(2, (4, 3))

    def test_cable_sequence_validation(self):
        with pytest.raises(ValueError):
            CableSequence(((2, 4),))
        with pytest.raises(ValueError):
            CableSequence(((3, 2),))
        with pytest.raises(ValueError):
            CableSequence(((2, 3), (2, 6)))
        with pytest.raises(ValueError):
            CableSequence(((2, 3), (3, 8)))

    @given(st.data())
    def test_randomized_invariants(self, data):
        m = data.draw(st.integers(1, 60))
        exponents = []
        current = data.draw(st.integers(m, m + 10))
        for _ in range(data.draw(st.integers(1, 5))):
            exponents.append(current)
            current += data.draw(st.integers(1, 12))
        datum = PuiseuxData(m, tuple(exponents))
        try:
            seq = puiseux_pairs(datum)
        except ValueError:
            return  # incomplete expansion; nothing to check
        product = 1
        for m_i, n_i in seq.pairs:
            product *= m_i
        assert product == m
        for idx, (m_i, n_i) in enumerate(seq.pairs):
            running = 1
            for m_j, _ in seq.pairs[: idx + 1]:
                running *= m_j
            assert Fraction(n_i, running) == Fraction(exponents[idx], m)
