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
its coefficient is positive.  The determinant is a cofactor expansion up
to 4x4 and fraction-free elimination above, on the entries packed at
t = 2^K when they fill their slots densely enough and on the polynomials
otherwise, see :meth:`LaurentMatrix.det`.

Burau is faithful on at most 3 strands; on more strands equal matrices are
a strong necessary condition, not a proof of braid equality.

A lift in L(p,q) is the triple (word, p, q).  The run s_{b-1} ... s_1 on
b strands has run^b = Delta^2, so T(a,b) is the closure of
run^(a mod b) . Delta^{2*floor(a/b)}: :func:`torus_closure` gives that
triple, and its a(b-1) letters are never spelled out.
"""

from __future__ import annotations

from ._value import Value
from .braid import BraidWord
from .laurent import LaurentMatrix, LaurentPoly, divide_exact, slot_bits


class AlexanderPoly(Value):
    """A unit-normalized Alexander polynomial.

    Either zero, or the minimum stored exponent is 0 with a positive
    coefficient; two closures have the same polynomial up to units exactly
    when their normalized forms are equal.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: LaurentPoly):
        object.__setattr__(self, "poly", poly)
        self.__post_init__()

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

    Computed as det(burau - id), unit-normalized, divided exactly by
    1 + t + ... + t^{n-1}; the divisor starts at 1, so the quotient comes
    out normalized and is never copied to shift it.  Subtracting the
    identity touches only the d diagonal entries.  The lift of a band
    diagram in L(p,q) is the closure of word^p . Delta^{2q}, so its
    polynomial is ``alexander_of_closure(word, p, q)`` without the lifted
    word ever being built.  Split links (in particular unlinks on >= 2
    strands) give the zero polynomial; one strand closes to the unknot,
    whose polynomial is 1.
    """
    n = w.strands
    if n == 1:
        return AlexanderPoly(LaurentPoly.one())
    one = LaurentPoly.one()
    rows = burau_reduced(w, power, twists).rows
    numerator = LaurentMatrix(
        tuple([row[:i] + (row[i] - one,) + row[i + 1 :] for i, row in enumerate(rows)])
    ).det()
    cyclic_sum = LaurentPoly.from_dict({k: 1 for k in range(n)})
    return AlexanderPoly(divide_exact(AlexanderPoly.from_laurent(numerator).poly, cyclic_sum))


def torus_closure(a: int, b: int) -> tuple[BraidWord, int, int]:
    """(run, a mod b, a // b) with run = s_{b-1} ... s_1 on b strands: T(a,b) as (word, power, twists)."""
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    return BraidWord(b, tuple(range(b - 1, 0, -1))), a % b, a // b
