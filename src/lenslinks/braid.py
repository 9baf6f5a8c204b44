"""Braid words on n strands and their underlying permutations.

A braid word is a sequence of signed Artin generator indices: the letter
``i`` (1 <= i <= n-1) stands for the generator crossing strands i and i+1,
and ``-i`` for its inverse.  Words compose left to right: the first letter
acts first, and the induced map to the symmetric group follows the same
convention.  Closing a word top-to-bottom identifies matching endpoints, so
the components of the closure are exactly the cycles of the underlying
permutation.

No normal form is computed here; braid-level equality certificates live in
:mod:`lenslinks.invariants` via the reduced Burau representation.
"""

from __future__ import annotations

from math import gcd

from ._value import Value
from .errors import ConsistencyError, ParseError


class BraidWord(Value):
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise ValueError(
                    f"letter {letter} is not a generator index for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)


def _trusted_word(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """A BraidWord on letters already known to be generators on ``strands`` strands, without re-validating them."""
    word = object.__new__(BraidWord)
    object.__setattr__(word, "strands", strands)
    object.__setattr__(word, "letters", letters)
    return word


def _trusted_perm(n: int, image: tuple[int, ...]) -> StrandPermutation:
    """A StrandPermutation on an image already known to be a permutation of 1..n, without re-validating it."""
    perm = object.__new__(StrandPermutation)
    object.__setattr__(perm, "n", n)
    object.__setattr__(perm, "image", image)
    return perm


class StrandPermutation(Value):
    """A bijection of {1..n}; ``image[i-1]`` is where strand i ends."""

    __slots__ = ("n", "image")

    def __init__(self, n: int, image: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "image", image)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1 or len(self.image) != self.n or set(self.image) != set(range(1, self.n + 1)):
            raise ValueError(f"image {self.image} is not a permutation of 1..{self.n}")

    @staticmethod
    def identity(n: int) -> StrandPermutation:
        return StrandPermutation(n, tuple(range(1, n + 1)))

    def then(self, other: StrandPermutation) -> StrandPermutation:
        """Composite permutation: apply ``self`` first, then ``other``.

        A composite of two permutations of 1..n is one, so it is built
        without checking its image again.
        """
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        image = other.image
        return _trusted_perm(self.n, tuple([image[j - 1] for j in self.image]))

    def __pow__(self, e: int) -> StrandPermutation:
        """``self`` composed with itself e times (e >= 0), by squaring in O(n log e)."""
        if e < 0:
            raise ValueError("negative powers are not defined for words")
        # Start from the first factor, not the identity: e = 1 builds nothing.
        square, result = self, None
        while e:
            if e & 1:
                result = square if result is None else result.then(square)
            e >>= 1
            if e:
                square = square.then(square)
        return result or StrandPermutation.identity(self.n)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; cycles start at their minimum and are sorted by it."""
        seen = [False] * self.n
        out: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cycle.append(i)
                i = self.image[i - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_count(self, power: int) -> int:
        """Number of cycles of ``self ** power`` (power >= 0), counted two ways.

        A cycle of length l falls apart under the power into gcd(l, power)
        cycles, so the count is the sum of those gcds over the cycles of
        ``self``.  It is compared with the cycles of ``self ** power``, built
        by squaring.  The routes share only ``self``, so they must agree for
        every permutation; a disagreement is a fault in the code and raises
        :class:`ConsistencyError`.
        """
        from_cycles = sum([gcd(len(cycle), power) for cycle in self.cycles()])
        from_power = len((self**power).cycles())
        if from_cycles != from_power:
            raise ConsistencyError(
                f"the cycle lengths predict {from_cycles} cycles of the permutation "
                f"to the power {power}, the power has {from_power}"
            )
        return from_cycles


def garside(n: int) -> BraidWord:
    """The positive half-twist braid on n strands.

    Factorized as (s_{n-1} ... s_1)(s_{n-1} ... s_2) ... (s_{n-1}): each
    factor is a descending run, one letter shorter than the previous.  The
    word has length n(n-1)/2, underlying permutation i -> n+1-i, and its
    square is the central full twist.
    """
    if n < 1:
        raise ValueError("a braid needs at least one strand")
    letters = []
    for low in range(1, n):
        letters.extend(range(n - 1, low - 1, -1))
    return BraidWord(n, tuple(letters))


def permutation(w: BraidWord) -> StrandPermutation:
    """The underlying permutation: strand start position -> end position."""
    content = list(range(1, w.strands + 1))
    for letter in w.letters:
        i = abs(letter)
        content[i - 1], content[i] = content[i], content[i - 1]
    image = [0] * w.strands
    for pos, strand in enumerate(content, start=1):
        image[strand - 1] = pos
    return StrandPermutation(w.strands, tuple(image))


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices, e.g. ``"2 1 -2 1"``.

    An empty (or all-whitespace) string is the identity braid.  The strand
    count is checked first, so a count below 1 gives one message whatever
    the letters.
    """
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    letters = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        try:
            letter = int(token)
        except ValueError:
            raise ParseError(f"expected a signed integer, got {token!r}", pos) from None
        if letter == 0 or abs(letter) > strands - 1:
            raise ParseError(
                f"letter {letter} is not a generator index for {strands} strands", pos
            )
        letters.append(letter)
        pos += len(token)
    # Every letter is checked above, with its position.
    return _trusted_word(strands, tuple(letters))
