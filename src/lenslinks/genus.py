"""Euler characteristic and Seifert genus arithmetic for fibered links.

The Bennequin surface of a positive braid closure is a fiber surface, so
its Euler characteristic is simply  strands - letters  and its genus
follows from  chi = 2 - 2g - r.  That combinatorial count is the genus
oracle used throughout: the quotient-genus formulas below are always fed
(and tested against) values derived from it rather than from a closed-form
torus-knot genus formula.

For a knot in L(p,q) whose lift has Seifert genus g~, the quotient genus is

    g = (2 g~ + p + gcd(p,k) - 2) / (2 gcd(p,k)),

where k is the invariance class of the defining polynomial; integrality of
the result is a consistency requirement on the inputs, not a rounding
situation.  When the lift is the torus link T(a,b) with gcd(a,b) = p the
class is k = 0 and the formula collapses to g = (g~ + p - 1)/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BraidWord, closure_components
from .invariants import torus_braid


@dataclass(frozen=True)
class FiberData:
    """Euler characteristic, boundary components and genus of a fiber surface."""

    euler: int
    boundary_components: int
    genus: int

    def __post_init__(self):
        if self.boundary_components < 1:
            raise ValueError("a fiber surface has at least one boundary component")
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.euler != 2 - 2 * self.genus - self.boundary_components:
            raise ValueError(
                f"chi = {self.euler} violates chi = 2 - 2g - r "
                f"with g = {self.genus}, r = {self.boundary_components}"
            )

    @staticmethod
    def from_euler(euler: int, boundary_components: int) -> FiberData:
        double_genus = 2 - boundary_components - euler
        if double_genus % 2 != 0 or double_genus < 0:
            raise ValueError(
                f"chi = {euler} with r = {boundary_components} is not a surface with boundary"
            )
        return FiberData(euler, boundary_components, double_genus // 2)


def bennequin_fiber(w: BraidWord) -> FiberData:
    """Fiber surface data of a positive braid closure: chi = strands - letters."""
    if any(letter < 0 for letter in w.letters):
        raise ValueError("the Bennequin fiber count needs a positive braid word")
    euler = w.strands - len(w.letters)
    return FiberData.from_euler(euler, len(closure_components(w)))


def fiber_multiplicity(p: int, k: int) -> int:
    """p / gcd(k, p): how many fibers of the sphere fibration make one quotient fiber."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if not 0 <= k < p:
        raise ValueError(f"the invariance class must satisfy 0 <= k < p, got {k}")
    return p // math.gcd(k, p)


def quotient_genus(p: int, k: int, lift_genus: int) -> int:
    """Seifert genus of an algebraic knot in L(p,q) from the genus of its lift.

    The caller asserts the configuration really comes from an algebraic
    knot whose lift has Seifert genus ``lift_genus`` (the lift then has p
    components); a non-integral or negative value means the inputs cannot
    describe such a knot and raises ValueError.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if not 0 <= k < p:
        raise ValueError(f"the invariance class must satisfy 0 <= k < p, got {k}")
    if lift_genus < 0:
        raise ValueError("genus must be nonnegative")
    d = math.gcd(p, k)
    numerator = 2 * lift_genus + p + d - 2
    if numerator % (2 * d) != 0:
        raise ValueError(
            f"(2*{lift_genus} + {p} + {d} - 2) / (2*{d}) is not an integer; "
            "the inputs do not describe an algebraic knot's lift"
        )
    g = numerator // (2 * d)
    if g < 0:
        raise ValueError("negative quotient genus; inconsistent inputs")
    return g


def torus_quotient_genus(a: int, b: int) -> int:
    """Seifert genus of the knot in L(p,q) lifting to T(a,b), where p = gcd(a,b).

    The lift genus comes from the Bennequin fiber of the standard positive
    torus braid, and the quotient genus is ``quotient_genus(p, 0, g~)``,
    which is (g~ + p - 1)/p.
    """
    return quotient_genus(math.gcd(a, b), 0, bennequin_fiber(torus_braid(a, b)).genus)
