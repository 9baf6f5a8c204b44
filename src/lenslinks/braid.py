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

from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

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

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)


@dataclass(frozen=True)
class StrandPermutation:
    """A bijection of {1..n}; ``image[i-1]`` is where strand i ends."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.image) != self.n or set(self.image) != set(range(1, self.n + 1)):
            raise ValueError(f"image {self.image} is not a permutation of 1..{self.n}")

    @staticmethod
    def identity(n: int) -> StrandPermutation:
        return StrandPermutation(n, tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def then(self, other: StrandPermutation) -> StrandPermutation:
        """Composite permutation: apply ``self`` first, then ``other``."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return StrandPermutation(self.n, tuple(other.image[j - 1] for j in self.image))

    @property
    def is_identity(self) -> bool:
        return all(self.image[i] == i + 1 for i in range(self.n))

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


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def power(w: BraidWord, e: int) -> BraidWord:
    """The e-fold concatenation of ``w`` with itself (e >= 0)."""
    if e < 0:
        raise ValueError("negative powers are not defined for words")
    # Repeating an empty tuple still checks that e fits a machine index.
    return BraidWord(w.strands, w.letters * e if w.letters else ())


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


def closure_components(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Cycles of the underlying permutation = components of the closed braid."""
    return permutation(w).cycles()


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if letter > 0 else -1 for letter in w.letters)


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in w.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(w.strands, tuple(stack))


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices, e.g. ``"2 1 -2 1"``.

    An empty (or all-whitespace) string is the identity braid.
    """
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
    return BraidWord(strands, tuple(letters))
