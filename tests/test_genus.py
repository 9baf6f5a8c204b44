"""Fiber surface combinatorics and quotient-genus formulas."""

import contextlib
import io
import json
import math

import pytest

import lenslinks.cli as cli
from lenslinks.braid import BraidWord
from lenslinks.genus import FiberData, bennequin_fiber, quotient_genus
from lenslinks.invariants import torus_closure
from reference import torus_braid


def torus_genus(a, b):
    """``genus --torus a b``: the quotient genus, or ValueError with the refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["genus", "--torus", str(a), str(b), "--json"])
    if code == 1:
        raise ValueError(err.getvalue())
    assert code == 0
    return json.loads(out.getvalue())["quotient_genus"]


class TestFiberData:
    def test_identity_enforced(self):
        FiberData(euler=-15, boundary_components=3, genus=7)
        with pytest.raises(ValueError):
            FiberData(euler=-15, boundary_components=3, genus=6)

    def test_from_euler(self):
        fd = FiberData.from_euler(-6, 2)
        assert fd.genus == 3

    def test_from_euler_parity_guard(self):
        with pytest.raises(ValueError):
            FiberData.from_euler(0, 1)
        with pytest.raises(ValueError):
            FiberData.from_euler(4, 1)


class TestBennequinFiber:
    def test_torus_9_3(self):
        fd = bennequin_fiber(torus_braid(9, 3))
        assert (fd.euler, fd.boundary_components, fd.genus) == (-15, 3, 7)

    def test_hopf_annulus(self):
        fd = bennequin_fiber(torus_braid(2, 2))
        assert (fd.euler, fd.boundary_components, fd.genus) == (0, 2, 0)

    def test_torus_8_2(self):
        fd = bennequin_fiber(torus_braid(8, 2))
        assert (fd.euler, fd.boundary_components, fd.genus) == (-6, 2, 3)

    def test_negative_letter_rejected(self):
        with pytest.raises(ValueError):
            bennequin_fiber(BraidWord(2, (-1,)))

    def test_negative_power_or_twists_rejected(self):
        for power, twists in ((-1, 0), (1, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                bennequin_fiber(BraidWord(3, (2, 1)), power, twists)

    @pytest.mark.parametrize("b", range(1, 31))
    def test_triple_matches_spelled_out_braid(self, b):
        # chi = n - power*|w| - twists*n(n-1) and r from perm(w)^power.
        for a in range(1, 31):
            assert bennequin_fiber(*torus_closure(a, b)) == bennequin_fiber(torus_braid(a, b)), a

    @pytest.mark.parametrize("a", range(2, 11))
    @pytest.mark.parametrize("b", range(2, 11))
    def test_milnor_number_relation(self, a, b):
        # chi of the fiber of x^a + y^b is 1 - (a-1)(b-1).
        fd = bennequin_fiber(torus_braid(a, b))
        assert fd.euler == 1 - (a - 1) * (b - 1)


class TestQuotientGenus:
    def test_range_check(self):
        with pytest.raises(ValueError):
            quotient_genus(3, 3, 0)
        with pytest.raises(ValueError):
            quotient_genus(3, -1, 0)

    def test_torus_8_2_quotient(self):
        assert quotient_genus(2, 0, 3) == 2

    def test_sphere_is_identity(self):
        for g in range(0, 10):
            assert quotient_genus(1, 0, g) == g

    def test_torus_9_3_quotient(self):
        assert quotient_genus(3, 0, 7) == 3

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            quotient_genus(2, 0, 2)
        with pytest.raises(ValueError):
            quotient_genus(3, 0, 2)

    def test_agrees_with_knot_formula_when_class_zero(self):
        # With k = 0 the general formula and (g~ + p - 1)/p coincide whenever
        # the latter is an integer; otherwise both must reject.
        for p in range(1, 13):
            for lift_genus in range(0, 61):
                if (lift_genus + p - 1) % p == 0:
                    assert quotient_genus(p, 0, lift_genus) == (lift_genus + p - 1) // p
                else:
                    with pytest.raises(ValueError):
                        quotient_genus(p, 0, lift_genus)

    def test_euler_characteristic_identity(self):
        # pbar * (2 - 2g~ - p) = p * (1 - 2g) whenever the formula is integral.
        checked = 0
        for p in range(1, 11):
            for k in range(0, p):
                for lift_genus in range(0, 31):
                    try:
                        g = quotient_genus(p, k, lift_genus)
                    except ValueError:
                        continue
                    pbar = p // math.gcd(k, p)
                    assert pbar * (2 - 2 * lift_genus - p) == p * (1 - 2 * g)
                    checked += 1
        assert checked > 100


class TestTorusQuotientGenus:
    def test_table(self):
        assert torus_genus(9, 3) == 3
        assert torus_genus(3, 3) == 1
        assert torus_genus(4, 2) == 1
        assert torus_genus(8, 2) == 2

    def test_coprime_case_is_lift_genus(self):
        assert torus_genus(5, 2) == bennequin_fiber(torus_braid(5, 2)).genus

    def test_nonorientable_quotient_rejected(self):
        # For even p with both a/p and b/p odd the quotient fiber is not an
        # orientable surface and the formula goes non-integral; hard error.
        for a, b in [(2, 2), (4, 4), (2, 6), (6, 6)]:
            with pytest.raises(ValueError):
                torus_genus(a, b)

    @pytest.mark.parametrize("a", range(2, 9))
    @pytest.mark.parametrize("b", range(2, 9))
    def test_symmetry(self, a, b):
        try:
            lhs = torus_genus(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                torus_genus(b, a)
            return
        assert lhs == torus_genus(b, a)
