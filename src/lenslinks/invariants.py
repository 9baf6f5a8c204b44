"""Reduced Burau representation and Alexander polynomials of closed braids.

The reduced Burau representation sends a braid on n strands to an
(n-1)x(n-1) matrix over Z[t, t^-1].  The generator s_i acts as the identity
except on column i, which becomes

    t * col_{i-1}  -  t * col_i  +  col_{i+1}

(matrix entries (i-1,i) = t, (i,i) = -t, (i+1,i) = 1, rows outside 1..n-1
dropped); its inverse has entries (i-1,i) = 1, (i,i) = -1/t, (i+1,i) = 1/t.
The product of a word is therefore built by updating one column per
letter.  Each entry is held packed as one integer, its value at t = 2^k
(see :mod:`lenslinks.laurent`), so an update is a few big-integer shifts
and adds; the entries are decoded once at the end.  The full twist Delta^2
is central and maps to t^n * id, so a power of it is a unit factor
t^{n*k}, never a product of letters.  The Alexander polynomial of the
closure is then

    det(burau(w) - id) / (1 + t + ... + t^{n-1})

up to a unit +-t^k, and every comparison here happens after normalizing
away the unit: the lowest exponent is shifted to 0 and the sign fixed so
its coefficient is positive.  The determinant is a cofactor expansion, see
:meth:`LaurentMatrix.det`.

Burau is faithful on at most 3 strands; on more strands equal matrices are
a strong necessary condition, not a proof of braid equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord
from .laurent import LaurentMatrix, LaurentPoly, divide_exact, slot_bits


@dataclass(frozen=True)
class AlexanderPoly:
    """A unit-normalized Alexander polynomial.

    Either zero, or the minimum stored exponent is 0 with a positive
    coefficient; two closures have the same polynomial up to units exactly
    when their normalized forms are equal.
    """

    poly: LaurentPoly

    def __post_init__(self):
        if not self.poly.is_zero:
            exp = self.poly.min_exp()
            if exp != 0 or self.poly.coefficient(0) <= 0:
                raise ValueError("AlexanderPoly must be unit-normalized")

    @staticmethod
    def from_laurent(p: LaurentPoly) -> AlexanderPoly:
        """Normalize an arbitrary Laurent polynomial by a unit +-t^k."""
        if p.is_zero:
            return AlexanderPoly(p)
        p = p.shift(-p.min_exp())
        if p.coefficient(0) < 0:
            p = -p
        return AlexanderPoly(p)

    def __str__(self) -> str:
        return str(self.poly)


def _updates(letter: int, d: int) -> list[tuple[int, int, int]]:
    """(Laurent shift, sign, source column) of the parts of the new column ``abs(letter) - 1``.

    s_i makes column i  t*c_{i-1} - t*c_i + c_{i+1},  and s_i^-1 makes it
    c_{i-1} - c_i/t + c_{i+1}/t; columns outside 0..d-1 are dropped.
    """
    c = abs(letter) - 1
    if letter > 0:
        parts = [(1, 1, c - 1), (1, -1, c), (0, 1, c + 1)]
    else:
        parts = [(0, 1, c - 1), (-1, -1, c), (-1, 1, c + 1)]
    return [part for part in parts if 0 <= part[2] < d]


def _norm_bound(d: int, steps: list[tuple[int, list[tuple[int, int, int]]]], power: int) -> int:
    """A bound on every |coefficient| of the Burau matrix that ``steps``, ``power`` times, build.

    The same column updates on the L1 norms of the entries: a new entry's
    norm is at most the sum of the norms of the entries it adds.
    """
    norms = [[int(r == c) for r in range(d)] for c in range(d)]
    sources = [(c, [j for _, _, j in parts]) for c, parts in steps]
    for _ in range(power):
        for c, columns in sources:
            norms[c] = [sum(row) for row in zip(*[norms[j] for j in columns])]
    return max([max(col) for col in norms])


def burau_reduced(w: BraidWord, power: int = 1, twists: int = 0) -> LaurentMatrix:
    """Reduced Burau matrix of  w^power . Delta^{2*twists},  in word order.

    The letters of w are applied ``power`` times as column updates.  The
    full twist Delta^2 is central and its reduced Burau image is t^n * id,
    so the twists multiply every entry by the unit t^{n*twists} instead of
    being applied letter by letter.

    Each column is held as d integers and one offset: entry (r, j) is
    X(t) * t^-offset_j for a polynomial X stored as its value X(2^k).  A
    letter then costs a few shifts and adds on d integers.  The slot width
    k comes from :func:`_norm_bound` before the pass, so every coefficient
    fits its slot and the entries decode exactly at the end.
    """
    if w.strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    if power < 0 or twists < 0:
        raise ValueError("power and twists must be non-negative")
    d = w.strands - 1
    steps = [(abs(letter) - 1, _updates(letter, d)) for letter in w.letters]
    # An empty word takes no passes, however large the power.
    passes = power if steps else 0
    k = slot_bits(_norm_bound(d, steps, passes).bit_length() + 1)
    columns = [[int(r == c) for r in range(d)] for c in range(d)]
    offsets = [0] * d
    for _ in range(passes):
        for c, parts in steps:
            # The smallest offset that leaves every part a non-negative shift.
            offset = max([offsets[j] - shift for shift, _, j in parts])
            column = [0] * d
            for shift, sign, j in parts:
                bits = k * (shift - offsets[j] + offset)
                if sign > 0:
                    column = [x + (y << bits) for x, y in zip(column, columns[j])]
                else:
                    column = [x - (y << bits) for x, y in zip(column, columns[j])]
            columns[c] = column
            offsets[c] = offset
    unit = w.strands * twists
    return LaurentMatrix(
        tuple(
            [
                tuple([LaurentPoly.from_packed(col[r], k, unit - off) for col, off in zip(columns, offsets)])
                for r in range(d)
            ]
        )
    )


def alexander_of_closure(w: BraidWord, power: int = 1, twists: int = 0) -> AlexanderPoly:
    """The one-variable Alexander polynomial of the closure of  w^power . Delta^{2*twists}.

    Computed as det(burau - id) divided exactly by 1 + t + ... + t^{n-1},
    then unit-normalized.  The lift of a band diagram in L(p,q) is the
    closure of word^p . Delta^{2q}, so its polynomial is
    ``alexander_of_closure(word, p, q)`` without the lifted word ever being
    built.  Split links (in particular unlinks on >= 2 strands) give the
    zero polynomial.
    """
    n = w.strands
    numerator = (burau_reduced(w, power, twists) - LaurentMatrix.identity(n - 1)).det()
    if numerator.is_zero:
        return AlexanderPoly(LaurentPoly.zero())
    cyclic_sum = LaurentPoly.from_dict({k: 1 for k in range(n)})
    return AlexanderPoly.from_laurent(divide_exact(numerator, cyclic_sum))


def equal_up_to_unit(a: AlexanderPoly, b: AlexanderPoly) -> bool:
    """Whether a = +-t^k b; after normalization this is plain equality."""
    return a.poly == b.poly


def torus_braid(a: int, b: int) -> BraidWord:
    """The standard positive braid (s_{b-1} ... s_1)^a on b strands, closing to T(a,b)."""
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    run = tuple(range(b - 1, 0, -1))
    return BraidWord(b, run * a if run else ())
