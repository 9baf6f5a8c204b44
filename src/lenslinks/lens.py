"""Links in lens spaces presented as band diagrams, and their lifts to S^3.

The lens space L(p,q) is the quotient of the 3-sphere by the free Z_p
action generated by (x, y) -> (zeta x, zeta^q y) for a primitive p-th root
of unity zeta.  A link in L(p,q) is presented here as a band diagram: a
braid-form tangle with n endpoints on the cut disk of the surgery solid
torus, closed by joining endpoint i on top to endpoint i on bottom.

Lifting a band diagram to the 3-sphere juxtaposes p copies of the tangle
and closes with the square of the half-twist raised to q, so the lifted
word is  word^p  followed by  garside(n)^{2q}.  :func:`lift` repeats the
two letter tuples and builds that word once.

H_1(L(p,q)) is cyclic of order p, generated by a single strand passing
once through the band; a component's homology class is its signed strand
count mod p.  The component count of the lift is tied to these classes by

    sum_i gcd(delta_i, p)  =  (number of lifted components),

which this module recomputes both ways as a permanent cross-check.  A
:class:`BandDiagram` walks its word once, when it is built, and every
reader of the closure permutation perm(word) shares that walk: the
orientation check, the classes (its cycles), the lifted components (the
cycles of perm(word)^p, through :meth:`StrandPermutation.cycle_count`)
and the nullhomologous orientation search.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._value import Value
from .braid import BraidWord, _trusted_word, garside, parse_braid_word, permutation
from .errors import ParseError


class LensSpace(Value):
    """L(p,q) with p >= 1, gcd(p,q) = 1; L(1,0) is the 3-sphere."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        self.__post_init__()

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.p == 1:
            if self.q != 0:
                raise ValueError("the 3-sphere is written L(1,0)")
        elif not 1 <= self.q < self.p:
            raise ValueError("q must satisfy 1 <= q < p")
        elif math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p={self.p} and q={self.q} must be coprime")


class HomologyClass(Value):
    """An element of H_1(L(p,q)) = Z_p, stored as a residue 0 <= value < p."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", modulus)
        self.__post_init__()

    def __post_init__(self):
        if self.modulus < 1 or not 0 <= self.value < self.modulus:
            raise ValueError(f"{self.value} is not a residue mod {self.modulus}")


class BandDiagram(Value):
    """A link in a lens space: a braid-form tangle between n band endpoints.

    ``orientations`` optionally assigns a sign to each closure component,
    listed in the order of the cycles of perm(word) (sorted by their
    minimum strand); omitted means all positive.  ``_perm`` is perm(word),
    walked once here; it is derived from ``word``, so it is not a field.
    """

    __slots__ = ("space", "word", "orientations", "_perm")

    def __init__(self, space: LensSpace, word: BraidWord, orientations: tuple[int, ...] | None = None):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "orientations", orientations)
        object.__setattr__(self, "_perm", permutation(word))
        self.__post_init__()

    def __post_init__(self):
        if self.orientations is not None:
            r = len(self._perm.cycles())
            if len(self.orientations) != r:
                raise ValueError(
                    f"{len(self.orientations)} orientations given for {r} components"
                )
            if any(sign not in (1, -1) for sign in self.orientations):
                raise ValueError("orientations must be +1 or -1")


def lift(d: BandDiagram) -> BraidWord:
    """The braid word  word^p . garside(n)^{2q}  whose closure is the lift of ``d``.

    Every letter comes from the validated ``d.word`` or from ``garside(n)``,
    so the lifted word is built without checking its letters again.
    """
    p, q = d.space.p, d.space.q
    # An empty tuple repeats nothing, so a huge p or q never reaches
    # tuple * int, which refuses counts past a machine index.
    letters = d.word.letters * p if d.word.letters else ()
    # L(1,0) has no closing twist; building garside(n) anyway would cost
    # n(n-1)/2 letters that the size checks do not count.
    twist = garside(d.word.strands).letters if q else ()
    if twist:
        letters += twist * (2 * q)
    return _trusted_word(d.word.strands, letters)


def homology_classes(d: BandDiagram) -> tuple[HomologyClass, ...]:
    """The class of each component: its signed strand count mod p."""
    p = d.space.p
    cycles = d._perm.cycles()
    signs = d.orientations or (1,) * len(cycles)
    return tuple([HomologyClass((sign * len(cycle)) % p, p) for sign, cycle in zip(signs, cycles)])


def lifted_component_count(d: BandDiagram) -> int:
    """Number of components of the lift, as sum_i gcd(delta_i, p).

    The closing twist garside(n)^(2q) is a pure braid, so the lift's closure
    permutation is perm(word)^p, and its cycles are the lifted components.
    :meth:`StrandPermutation.cycle_count` counts them by both routes and
    raises :class:`ConsistencyError` if they differ: the sum of
    gcd(len(cycle_i), p), which is sum_i gcd(delta_i, p) since delta_i is
    +-len(cycle_i) mod p, and the cycles of perm(word)^p built by squaring.
    Neither route builds the lifted word.
    """
    return d._perm.cycle_count(d.space.p)


def nullhomologous_orientation(d: BandDiagram) -> tuple[int, ...] | None:
    """A sign assignment making the total homology class vanish, if one exists.

    Returns the first assignment (in the order +1 before -1 per component)
    with  sum_i sign_i * length_i = 0 (mod p), else None.  Existence is a
    necessary condition for the diagram to present an algebraic link.

    The lengths sum to n, so the signed sum lies in [-n, n]; modulo
    m = min(p, n + 1) it vanishes exactly when it vanishes modulo p.  A
    table of the residues mod m reachable by each suffix of the components,
    held as m-bit masks, costs O(r * m); the signs are then chosen greedily
    from the front, taking +1 whenever the rest can still reach zero.
    """
    lengths = [len(cycle) for cycle in d._perm.cycles()]
    m = min(d.space.p, d.word.strands + 1)
    full = (1 << m) - 1

    def rotate(mask: int, k: int) -> int:
        k %= m
        return ((mask << k) | (mask >> (m - k))) & full

    # After the reversal, bit x of reachable[i] says that components i..r-1
    # can sum to x mod m; reachable[r] holds only 0.
    reachable = [1]
    for length in reversed(lengths):
        rest = reachable[-1]
        reachable.append(rotate(rest, length) | rotate(rest, -length))
    reachable.reverse()
    if not reachable[0] & 1:
        return None
    signs, total = [], 0
    for length, rest in zip(lengths, reachable[1:]):
        sign = 1 if rest >> (-(total + length) % m) & 1 else -1
        signs.append(sign)
        total += sign * length
    return tuple(signs)


def parse_band_diagram(text: str, check: Callable[[LensSpace, BraidWord], None] | None = None) -> BandDiagram:
    """Parse ``"p q n : <letters>"`` with an optional ``"| + - ..."`` orientation suffix.

    Examples: ``"3 1 3 : 2 1 2 1"``, ``"3 1 2 : 1 1 | + -"``.

    ``check``, if given, sees the parsed space and word before the diagram
    is built, and so before its word is walked; it refuses the input by
    raising.
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError("expected 'p q n : <braid word>'", len(text))
    fields = head.split()
    if len(fields) != 3:
        raise ParseError(f"expected three integers before ':', got {len(fields)}")
    try:
        p, q, n = (int(f) for f in fields)
    except ValueError:
        raise ParseError(f"non-integer in header {head.strip()!r}") from None

    word_text, bar, tail = rest.partition("|")
    orientations: tuple[int, ...] | None = None
    if bar:
        signs = []
        for token in tail.split():
            if token == "+":
                signs.append(1)
            elif token == "-":
                signs.append(-1)
            else:
                raise ParseError(f"orientation must be '+' or '-', got {token!r}")
        orientations = tuple(signs)

    try:
        space = LensSpace(p, q)
        word = parse_braid_word(word_text, n)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if check is not None:
        check(space, word)
    try:
        return BandDiagram(space, word, orientations)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
