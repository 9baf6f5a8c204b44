"""Closure permutations: the cross-check of the lifted component count, and the StrandPermutation contract.

Composites and powers are built without re-checking their images; the
tests here hold them to what the validating constructor gives.
"""

import pickle
import shlex

import pytest
from hypothesis import given, strategies as st

import lenslinks.braid
import lenslinks.cli as cli
from lenslinks.braid import StrandPermutation

# Every component count goes through StrandPermutation.cycle_count, which
# counts the cycles of a power two ways.  Each argv below takes a power of
# one cycle that splits it in two: a 4-cycle to the power 6, and for
# T(14,8) an 8-cycle to the power 6, as its full twist is taken out.  A
# power route that returns the identity sees 4 or 8 cycles, one that
# returns its base sees one, and a gcd route that takes the min instead
# sees min(4, 6) = 4 or min(8, 6) = 6, so each broken route disagrees with
# the other route.
BROKEN_ROUTE_ARGV = [
    ["lift", "--band", "6 1 4 : 1 2 3"],
    ["homology", "--band", "6 1 4 : 1 2 3", "--json"],
    ["genus", "--torus", "14", "8"],
]

# A power that leaves a cycle whole, as the 5th and the 2nd power of a
# 3-cycle do (for T(8,3), 8 mod 3 = 2), shows a power route that returns
# the identity or a gcd route that takes the min, but not a power route
# that returns its base.
WHOLE_CYCLE_ARGV = [
    ["lift", "--band", "5 2 3 : 1 2"],
    ["homology", "--band", "5 2 3 : 1 2"],
    ["genus", "--torus", "8", "3"],
]


def _power_is_identity(monkeypatch):
    monkeypatch.setattr(StrandPermutation, "__pow__", lambda perm, e: StrandPermutation.identity(perm.n))


def _power_returns_base(monkeypatch):
    monkeypatch.setattr(StrandPermutation, "__pow__", lambda perm, e: perm)


def _gcd_is_min(monkeypatch):
    monkeypatch.setattr(lenslinks.braid, "gcd", min)


BREAKS = {"identity": _power_is_identity, "base": _power_returns_base, "gcd": _gcd_is_min}
BROKEN_ROUTE_CASES = [(name, argv) for name in BREAKS for argv in BROKEN_ROUTE_ARGV] + [
    (name, argv) for name in ("identity", "gcd") for argv in WHOLE_CYCLE_ARGV
]


@pytest.mark.parametrize(
    "breaks, argv",
    [(BREAKS[name], argv) for name, argv in BROKEN_ROUTE_CASES],
    ids=[f"{name}-{' '.join(argv)}" for name, argv in BROKEN_ROUTE_CASES],
)
def test_broken_route_caught(capsys, monkeypatch, breaks, argv):
    assert cli.run(argv) == 0
    capsys.readouterr()
    breaks(monkeypatch)
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("internal consistency fault: the cycle lengths predict ")
    assert captured.err.endswith(f"; reproduce with: lenslinks {shlex.join(argv)}\n")


def permutations_of(n):
    return st.permutations(range(1, n + 1)).map(lambda image: StrandPermutation(n, tuple(image)))


def permutations(max_n=9):
    return st.integers(1, max_n).flatmap(permutations_of)


def permutation_pairs(max_n=9):
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(permutations_of(n), permutations_of(n)))


class TestContract:
    @pytest.mark.parametrize(
        "n, image",
        [(3, (1, 1, 2)), (3, (1, 2)), (2, (1, 2, 3)), (3, (0, 1, 2)), (3, (2, 3, 4)), (0, ())],
    )
    def test_invalid_images_raise(self, n, image):
        with pytest.raises(ValueError, match="is not a permutation of"):
            StrandPermutation(n, image)

    def test_sizes_must_agree(self):
        with pytest.raises(ValueError, match="different sizes"):
            StrandPermutation.identity(2).then(StrandPermutation.identity(3))

    @given(permutation_pairs())
    def test_then_equals_validated_composite(self, pair):
        first, second = pair
        composite = first.then(second)
        expected = StrandPermutation(first.n, tuple([second.image[j - 1] for j in first.image]))
        assert type(composite) is StrandPermutation
        assert composite == expected

    @given(permutations(), st.integers(0, 40))
    def test_power_equals_validated_composites(self, perm, e):
        expected = StrandPermutation.identity(perm.n)
        for _ in range(e):
            expected = StrandPermutation(perm.n, tuple([perm.image[j - 1] for j in expected.image]))
        power = perm**e
        assert power == expected

    def test_composites_are_not_checked_again(self, monkeypatch):
        checks = []
        check = StrandPermutation.__post_init__
        monkeypatch.setattr(StrandPermutation, "__post_init__", lambda perm: checks.append(perm.n) or check(perm))
        perm = StrandPermutation(5, (2, 3, 1, 5, 4))
        assert checks == [5]
        assert perm.then(perm) ** 13 == perm**26
        assert checks == [5]

    def test_clone_of_a_composite_is_checked(self):
        # A clone is rebuilt through the public constructor, which checks the
        # image of a composite that was built without the check.
        perm = StrandPermutation(4, (2, 3, 4, 1)).then(StrandPermutation(4, (4, 1, 2, 3)))
        assert pickle.loads(pickle.dumps(perm)) == StrandPermutation.identity(4)
