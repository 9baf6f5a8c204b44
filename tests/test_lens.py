"""Band diagrams in lens spaces: lifts, homology classes, component counts."""

import itertools
import math
import random

import pytest

from lenslinks.braid import BraidWord, StrandPermutation, garside, permutation
from lenslinks.errors import ParseError
from lenslinks import lens
from lenslinks.invariants import alexander_of_closure
from lenslinks.lens import (
    BandDiagram,
    HomologyClass,
    LensSpace,
    homology_classes,
    lift,
    lifted_component_count,
    nullhomologous_orientation,
    parse_band_diagram,
)
from reference import closure_components, torus_braid


def random_diagram(rng, max_strands=6, max_len=12, max_p=7):
    n = rng.randint(1, max_strands)
    length = rng.randint(0, max_len) if n > 1 else 0
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    p = rng.randint(1, max_p)
    valid_q = [0] if p == 1 else [q for q in range(1, p) if math.gcd(p, q) == 1]
    q = rng.choice(valid_q)
    return BandDiagram(LensSpace(p, q), BraidWord(n, letters))


class TestLensSpace:
    def test_sphere(self):
        space = LensSpace(1, 0)
        assert (space.p, space.q) == (1, 0)

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (2, 0), (3, 3), (4, 2), (6, 3)])
    def test_invalid_parameters(self, p, q):
        with pytest.raises(ValueError):
            LensSpace(p, q)

    def test_all_small_valid(self):
        for p in range(2, 8):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    LensSpace(p, q)


class TestBandDiagram:
    def test_orientation_count_checked(self):
        word = BraidWord(2, (1, 1))  # two components
        BandDiagram(LensSpace(3, 1), word, (1, -1))
        with pytest.raises(ValueError):
            BandDiagram(LensSpace(3, 1), word, (1,))

    def test_orientation_values_checked(self):
        with pytest.raises(ValueError):
            BandDiagram(LensSpace(3, 1), BraidWord(2, (1, 1)), (1, 2))


class TestLift:
    def test_eight_crossing_lift(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(2, (1, 1)))
        lifted = lift(d)
        assert lifted.letters == (1,) * 8
        assert len(closure_components(lifted)) == 2

    def test_sphere_lift_is_identity(self):
        w = BraidWord(3, (2, -1, 2))
        assert lift(BandDiagram(LensSpace(1, 0), w)) == w

    def test_sphere_lift_builds_no_twist(self, monkeypatch):
        # garside(n) has n(n-1)/2 letters; L(1,0) must not build it.
        def forbidden(n):
            raise AssertionError("garside built for L(1,0)")

        monkeypatch.setattr(lens, "garside", forbidden)
        assert lift(BandDiagram(LensSpace(1, 0), BraidWord(100_000))) == BraidWord(100_000)

    def test_lift_in_l32_matches_torus_9_3(self):
        d = BandDiagram(LensSpace(3, 2), BraidWord(3, (2, 1)))
        assert alexander_of_closure(lift(d)) == alexander_of_closure(torus_braid(9, 3))

    def test_word_then_twist(self):
        d = BandDiagram(LensSpace(5, 2), BraidWord(3, (1, -2)))
        assert lift(d).letters == (1, -2) * 5 + (2, 1, 2) * 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closing_twist_is_pure(self, n):
        # The lift of the empty word is the twist alone: q full twists of
        # positive letters, each of which brings every strand home.
        lifted = lift(BandDiagram(LensSpace(5, 3), BraidWord(n)))
        assert len(lifted) == 3 * n * (n - 1)
        assert all(letter > 0 for letter in lifted.letters)
        assert permutation(lifted) == StrandPermutation.identity(n)

    def test_huge_repeats_of_empty_tuples(self):
        # An empty word or an empty twist is repeated without tuple * int,
        # which refuses counts past a machine index.
        huge = LensSpace(2**64 + 1, 2**63 + 1)
        assert lift(BandDiagram(huge, BraidWord(1))) == BraidWord(1)
        twist_only = lift(BandDiagram(LensSpace(2**64 + 1, 1), BraidWord(3)))
        assert twist_only == BraidWord(3, garside(3).letters * 2)

    @pytest.mark.parametrize("p, q, built", [(5, 2, 1), (1, 0, 0)])
    def test_validates_the_lifted_word_once(self, monkeypatch, p, q, built):
        # The letters of d.word were checked when it was built, so only
        # garside(n), if q > 0, is checked again; the lifted word is not.
        check, calls = BraidWord.__post_init__, []

        def counted(w):
            calls.append(len(w))
            return check(w)

        d = BandDiagram(LensSpace(p, q), BraidWord(3, (1, -2)))
        monkeypatch.setattr(BraidWord, "__post_init__", counted)
        lift(d)
        assert len(calls) == built

    def test_length_and_strand_count(self):
        rng = random.Random(7)
        for _ in range(100):
            d = random_diagram(rng)
            lifted = lift(d)
            n, p, q = d.word.strands, d.space.p, d.space.q
            assert lifted.strands == n
            assert len(lifted) == p * len(d.word) + q * n * (n - 1)


class TestComponents:
    def test_two_component_band(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(2, (1, 1)))
        assert len(closure_components(d.word)) == 2

    def test_single_strand(self):
        assert len(closure_components(BandDiagram(LensSpace(5, 2), BraidWord(1)).word)) == 1

    def test_knot_band(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(3, (2, 1, 2, 1)))
        assert len(closure_components(d.word)) == 1


class TestHomologyClasses:
    def test_opposite_orientations(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(2, (1, 1)), (1, -1))
        assert [c.value for c in homology_classes(d)] == [1, 2]

    def test_nullhomologous_knot(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(3, (2, 1, 2, 1)))
        assert [c.value for c in homology_classes(d)] == [0]

    def test_single_strand_winds_once(self):
        d = BandDiagram(LensSpace(5, 2), BraidWord(1))
        assert [c.value for c in homology_classes(d)] == [1]

    def test_residue_validation(self):
        with pytest.raises(ValueError):
            HomologyClass(3, 3)


class TestLiftedComponentCount:
    def test_nullhomologous_knot_lifts_to_p_components(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(3, (2, 1, 2, 1)))
        assert lifted_component_count(d) == 3

    def test_two_component_band(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(2, (1, 1)))
        assert lifted_component_count(d) == 2

    def test_sphere_case(self):
        w = BraidWord(4, (1, 3))
        d = BandDiagram(LensSpace(1, 0), w)
        assert lifted_component_count(d) == len(closure_components(w))

    def test_randomized_cross_check(self):
        # gcd-of-classes count vs cycles of the lifted closure, across the
        # whole parameter box; the library itself re-verifies on every call.
        rng = random.Random(20240517)
        for _ in range(200):
            d = random_diagram(rng)
            predicted = sum(
                math.gcd(c.value, d.space.p) for c in homology_classes(d)
            )
            assert lifted_component_count(d) == predicted

    def test_knot_with_null_class_gets_p_lift_components(self):
        # One cycle of length divisible by p forces exactly p lifted pieces.
        rng = random.Random(99)
        found = 0
        for _ in range(5000):
            d = random_diagram(rng)
            cycles = closure_components(d.word)
            if len(cycles) == 1 and len(cycles[0]) % d.space.p == 0:
                assert lifted_component_count(d) == d.space.p
                found += 1
        assert found >= 25

    def test_two_components_with_opposite_classes(self):
        # With orientations (+, -) and cycle lengths equal mod p, the classes
        # are opposite and the lift has 2*gcd(delta, p) components.
        rng = random.Random(4)
        found = 0
        for _ in range(5000):
            d = random_diagram(rng)
            cycles = closure_components(d.word)
            if len(cycles) != 2:
                continue
            p = d.space.p
            l1, l2 = len(cycles[0]), len(cycles[1])
            if (l1 - l2) % p != 0:
                continue
            signed = BandDiagram(d.space, d.word, (1, -1))
            delta1 = l1 % p
            assert lifted_component_count(signed) == 2 * math.gcd(delta1, p)
            found += 1
        assert found >= 25


def brute_force_orientation(d):
    """Reference: the first of all 2^r sign vectors, +1 before -1, that vanishes mod p."""
    lengths = [len(cycle) for cycle in closure_components(d.word)]
    for signs in itertools.product((1, -1), repeat=len(lengths)):
        if sum(s * l for s, l in zip(signs, lengths)) % d.space.p == 0:
            return signs
    return None


class TestNullhomologousOrientation:
    def test_matches_brute_force(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(400):
            n, p = rng.randint(1, 10), rng.randint(1, 25)
            q = 0 if p == 1 else rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))) if n > 1 else ()
            d = BandDiagram(LensSpace(p, q), BraidWord(n, letters))
            assert nullhomologous_orientation(d) == brute_force_orientation(d), d
            checked += nullhomologous_orientation(d) is not None
        assert checked > 100

    def test_many_components(self):
        # 60 components of length 1 mod 7: brute force would try up to 2^60
        # vectors.  60 - 2k = 0 mod 7 first holds for k = 2 minus signs,
        # which come last in +1-before--1 order.
        d = BandDiagram(LensSpace(7, 3), BraidWord(60))
        assert nullhomologous_orientation(d) == (1,) * 58 + (-1, -1)
    def test_opposite_signs_found(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(2, (1, 1)))
        assert nullhomologous_orientation(d) == (1, -1)

    def test_already_null(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(3, (2, 1, 2, 1)))
        assert nullhomologous_orientation(d) == (1,)

    def test_impossible(self):
        d = BandDiagram(LensSpace(3, 1), BraidWord(1))
        assert nullhomologous_orientation(d) is None

    def test_found_assignment_actually_vanishes(self):
        rng = random.Random(11)
        for _ in range(100):
            d = random_diagram(rng)
            signs = nullhomologous_orientation(d)
            if signs is None:
                continue
            total = sum(
                s * len(c) for s, c in zip(signs, closure_components(d.word))
            )
            assert total % d.space.p == 0


class TestParseBandDiagram:
    def test_basic(self):
        d = parse_band_diagram("3 1 3 : 2 1 2 1")
        assert d.space == LensSpace(3, 1)
        assert d.word == BraidWord(3, (2, 1, 2, 1))
        assert d.orientations is None

    def test_with_orientations(self):
        d = parse_band_diagram("3 1 2 : 1 1 | + -")
        assert d.orientations == (1, -1)

    def test_empty_word(self):
        d = parse_band_diagram("5 2 1 :")
        assert d.word == BraidWord(1)

    @pytest.mark.parametrize(
        "text",
        [
            "3 1 3",  # no colon
            "3 1 : 1",  # missing field
            "3 x 3 : 1",  # bad integer
            "3 1 3 : 5",  # letter out of range
            "4 2 2 : 1",  # p, q not coprime
            "3 1 2 : 1 1 | + ?",  # bad orientation token
            "3 1 2 : 1 1 | +",  # wrong orientation count
        ],
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_band_diagram(text)
