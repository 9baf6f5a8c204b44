"""Reduced Burau representation and Alexander polynomials of closed braids.

The reduced Burau representation sends a braid on n strands to an
(n-1)x(n-1) matrix over Z[t, t^-1].  The generator s_i acts as the identity
except on column i, which becomes

    t * col_{i-1}  -  t * col_i  +  col_{i+1}

(matrix entries (i-1,i) = t, (i,i) = -t, (i+1,i) = 1, rows outside 1..n-1
dropped); its inverse has entries (i-1,i) = 1, (i,i) = -1/t, (i+1,i) = 1/t.
The product of a word is therefore built by updating one column per
letter.  Each column is held packed as one integer, in t and in the row
index at once: entry r is its value at t = 2^k (see
:mod:`lenslinks.laurent`), placed r * S slots of k bits up.  A letter
shifts every entry of a column by the same power of t, so an update is at
most three big-integer shifts and adds, and each column is decoded once at
the end.  S and k are no guess: one walk of the same updates on scalars
(:func:`_windows`) gives each column's exponent window, whose span every
entry fits in, and its column sum of coefficient norms, which bounds every
coefficient.  The full twist Delta^2 is central and maps to t^n * id, so a
power of it is a unit factor t^{n*k}, never a product of letters.  The
Alexander polynomial of the closure is then

    det(burau(w) - id) / (1 + t + ... + t^{n-1})

up to a unit +-t^k, and every comparison here happens after normalizing
away the unit: the lowest exponent is shifted to 0 and the sign fixed so
its coefficient is positive.  The division is :func:`~lenslinks.laurent.divide_cyclic`.

The determinant of a lift, det(t^{nq} A - id) with A = M^p and M the
d x d matrix of one pass over w, d = n - 1, is a polynomial in the
characteristic polynomial of A.  Its coefficients e_k(A) come in pairs:
the Burau representation is unitary (Squier, Proc. AMS 90, 1984), so
e_(d-k)(A) = det(A) e_k(A)(1/t), with det(A) = det(M)^p a unit: the
terms of e_k reversed, shifted and signed.  Only the lower half e_1 ..
e_h, h = d//2, is needed.  Its source is one route table
(:func:`_numerator`), read from h and the power alone:

- A = id (power 0, or the empty word, on any n): e_k = C(d, k); on 2
  strands (h = 0) A is the unit det(A).  No pass is made.
- h = 1 (3 and 4 strands): e_1 = tr(M^p) = s_p, from one pass and
  Newton's identity

      s_k = sum_{i=1..min(k,d)} (-1)^(i-1) e_i(M) s_{k-i},   k in place of s_0,

  run on packed integers; the same recurrence on the L1 norms of the e_i(M)
  bounds the coefficients of s_p, which sets the slot width.
- h = 2 (5 and 6 strands): e_1 and e_2, the sums of the principal 1x1 and
  2x2 minors of A, from p passes on packed integers and no determinant.
- h >= 3 (7 or more strands): the lifted braid splits into halves X and
  Y, A = X Y, and det(u A - id) = det X * det(u Y - X^-1), with det X a
  unit and X^-1 the matrix of the inverted first half.  Each half is one
  packed pass of half the letters, and the packed columns of u Y - X^-1
  go to :meth:`lenslinks.laurent.LaurentMatrix.det` as they are: Bareiss
  fraction-free elimination on their digits moved to the width t = 2^K
  needs, with no polynomial per entry, or on the decoded polynomials when
  the packed determinant would be too large.

Before any of these, at power >= 1, the word is cyclically reduced
(:func:`_reduce`): s_i^e cancels s_i^-e across letters that commute with
s_i, and inverse pairs that conjugate the word are peeled off its ends.
Neither step changes the closure of w^p . Delta^(2q), and every route
then runs on fewer letters.  A closure with no twist whose reduced word
misses some generator s_i is split: column i - 1 of A - id is zero, and
the numerator is 0 with no pass.

Burau is faithful on at most 3 strands; on more strands equal matrices are
a strong necessary condition, not a proof of braid equality.

A lift in L(p,q) is the triple (word, p, q).  The run s_{b-1} ... s_1 on
b strands has run^b = Delta^2, so T(a,b) is the closure of
run^(a mod b) . Delta^{2*floor(a/b)}: :func:`torus_closure` gives that
triple, and its a(b-1) letters are never spelled out.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ._value import Value
from .braid import BraidWord, _trusted_word
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    _column_window,
    _respace,
    _twos_complement,
    divide_cyclic,
    slot_bits,
)


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
    if c == d - 1:
        del parts[2]
    if c == 0:
        del parts[0]
    return parts


def _steps(letters, d: int) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """(column, updates) of each letter, in word order, for d x d matrices."""
    return [(abs(letter) - 1, _updates(letter, d)) for letter in letters]


def _writhe(letters) -> int:
    """The exponent sum of a word; its Burau matrix has determinant (-t)^writhe."""
    return sum([1 if letter > 0 else -1 for letter in letters])


def _windows(
    d: int, steps: list[tuple[int, list[tuple[int, int, int]]]], power: int
) -> tuple[list[int], list[int], list[int]]:
    """(lows, highs, sums) of ``power`` passes over ``steps``: every exponent of column c lies in [lows[c], highs[c]].

    The passes walked on scalars alone.  A new column's entries are sums of
    the parts' entries times t^shift, so its window runs from the least to
    the greatest shifted window of its parts, and the L1 norm of each new
    entry is at most the sum of the norms of the entries it adds.  sums[c]
    is therefore the column sum of those norm bounds, from 1 for the
    identity to the sum of the parts' sums at each letter, and max(sums)
    bounds every |coefficient| of the matrix: it is at least the largest of
    those norm bounds and at most d times it.  :func:`_burau_pass` packs
    entry (r, c) from t^lows[c] up, at a width that holds max(sums).
    """
    lows, highs, sums = [0] * d, [0] * d, [1] * d
    for _ in range(power if steps else 0):
        for c, parts in steps:
            shift, _, j = parts[0]
            low, high, total = lows[j] + shift, highs[j] + shift, 0
            for shift, _, j in parts:
                if lows[j] + shift < low:
                    low = lows[j] + shift
                if highs[j] + shift > high:
                    high = highs[j] + shift
                total += sums[j]
            lows[c], highs[c], sums[c] = low, high, total
    return lows, highs, sums


def _stride(lows: list[int], highs: list[int]) -> int:
    """The slots a packed entry needs for every column window [lows[c], highs[c]]."""
    return max([high - low for low, high in zip(lows, highs)]) + 1


def _burau_pass(d: int, steps: list[tuple[int, list[tuple[int, int, int]]]], power: int, k: int, stride: int):
    """The d x d reduced Burau matrix of ``power`` passes over ``steps``, one integer per column.

    Entry (r, j) is t^lows[j] * X(t) for a polynomial X and the lows of
    :func:`_windows`, and column j is the integer sum over the rows r of
    X(2^k) * 2^(k*stride*r): each column is packed in t and in the row
    index at once, as in Kronecker substitution in two variables.  A letter
    shifts the whole column by one amount per part, so it costs at most
    three shifts and adds on one integer.  The one walk of :func:`_windows`
    over the same passes sizes it: k must hold max(sums) as a signed digit,
    and ``stride`` be at least :func:`_stride` of (lows, highs), so every
    coefficient fits its slot, every X has fewer than ``stride`` slots, and
    each column reads exactly through the reader of :mod:`lenslinks.laurent`.
    """
    # An empty word takes no passes, however large the power.
    passes = power if steps else 0
    columns = [1 << k * stride * c for c in range(d)]
    lows = [0] * d
    for _ in range(passes):
        for c, parts in steps:
            # The new column starts where its lowest shifted part does, so every shift is non-negative.
            shift, _, j = parts[0]
            low = lows[j] + shift
            for shift, _, j in parts:
                if lows[j] + shift < low:
                    low = lows[j] + shift
            column = 0
            for shift, sign, j in parts:
                if sign > 0:
                    column += columns[j] << k * (lows[j] + shift - low)
                else:
                    column -= columns[j] << k * (lows[j] + shift - low)
            columns[c] = column
            lows[c] = low
    return columns


def _det_numerator(w: BraidWord, power: int, twists: int) -> LaurentPoly:
    """det(u * M^power - id) for u = t^{n*twists}, power >= 1 and a non-empty w, from two half-length passes.

    The lifted braid w^power splits into halves with Burau matrices X and
    Y, M^power = X Y: at power 1 w splits at its middle letter, and above
    the power splits as floor(power/2) + ceil(power/2).  Then

        det(u X Y - id) = det X * det(u Y - X^-1),

    det X = (-t)^(exponent sum of the first half) is a unit, and X^-1 is the
    matrix of the inverted first half.  Each half is one packed
    :func:`_burau_pass`, sized by the walk of :func:`_windows` over that
    half at its own power: a slot width k that holds the sum of the two
    halves' max(sums), so the difference of two entries fits too, and one
    stride that holds the union of column c's windows in u Y and in X^-1,
    for every c.  Column c of u Y - X^-1 is then one aligned subtraction
    of two integers; every column is formed first, and a zero one makes the
    determinant 0 before :meth:`LaurentMatrix.det` is entered.  Otherwise the
    columns go to it as they are (``LaurentMatrix._from_passes``): it reads
    each column's window and norms from its digits and moves the digits to
    the least multiple of 8 bits that its coefficient bound needs, with no
    :class:`LaurentPoly` per entry unless the determinant is too large to
    pack.  Each half
    has half the letters, so the entries have about half the coefficient
    bits and half the span of those of M^power, and so does the
    determinant's packed width.
    """
    d, letters = w.strands - 1, w.letters
    if power == 1:
        half = len(letters) // 2
        first, second, first_power, second_power = letters[:half], letters[half:], 1, 1
    else:
        first, second, first_power, second_power = letters, letters, power // 2, power - power // 2
    inverse, steps = _steps([-letter for letter in reversed(first)], d), _steps(second, d)
    x_lows, x_highs, x_sums = _windows(d, inverse, first_power)
    y_lows, y_highs, y_sums = _windows(d, steps, second_power)
    k = slot_bits((max(x_sums) + max(y_sums)).bit_length() + 1)
    u = w.strands * twists
    lows = [min(y_low + u, x_low) for x_low, y_low in zip(x_lows, y_lows)]
    highs = [max(y_high + u, x_high) for x_high, y_high in zip(x_highs, y_highs)]
    stride = _stride(lows, highs)
    x_columns = _burau_pass(d, inverse, first_power, k, stride)
    y_columns = _burau_pass(d, steps, second_power, k, stride)
    # Entry r of column c is t^low (t^(y_low+u-low) y_r - t^(x_low-low) x_r), both shifts non-negative.
    columns = [
        (y << k * (y_low + u - low)) - (x << k * (x_low - low))
        for x, x_low, y, y_low, low in zip(x_columns, x_lows, y_columns, y_lows, lows)
    ]
    if not all(columns):
        return LaurentPoly()
    det = LaurentMatrix._from_passes(columns, k, stride, lows).det()
    exponent = _writhe(first) * first_power
    return det.shift(exponent) if exponent % 2 == 0 else -det.shift(exponent)


def _elementary(lower: list[tuple[tuple[int, int], ...]], exponent: int, d: int) -> list[tuple[tuple[int, int], ...]]:
    """Terms of e_1..e_d of a d x d Burau image A, from those of e_1 .. e_(d//2), ``lower``, and det A = (-t)^exponent.

    e_d = det A, and e_(d-k) = det(A) e_k(A^-1) = det(A) e_k(1/t) for every
    k < d/2: the Burau representation is unitary (Squier, "The Burau
    representation is unitary", Proc. AMS 90, 1984), so A^-1 is similar to
    the transpose of A(1/t), and e_k(A^-1)(t) = e_k(A)(1/t).  det A is a
    monomial, so each upper e_k is the lower one's terms reversed, every
    exponent e turned into ``exponent`` - e and every coefficient times the
    sign (-1)^exponent.
    """
    sign = -1 if exponent % 2 else 1
    upper = [
        tuple([(exponent - e, sign * c) for e, c in reversed(lower[d - k - 1])]) for k in range(len(lower) + 1, d)
    ]
    return lower + upper + [((exponent, sign),)]


def _newton(parts: list[list[tuple[int, int]]], power: int) -> int:
    """s_power of  s_k = sum_{i=1..min(k,d)} a_i s_(k-i),  with k in place of s_0, for power >= 1.

    ``parts[i-1]`` holds a_i as (shift, coefficient) terms, and a_i s applies
    as the sum of c * (s << shift) over them.  With a_i = (-1)^(i-1) e_i this
    is Newton's identity for the power sums s_k of d numbers with elementary
    symmetric functions e_i: while k <= d the i = k term is (-1)^(k-1) k e_k,
    so no start-up values are needed.  With a_i the L1 norm of e_i, as one
    term at shift 0, it bounds the L1 norm of s_k, since that norm is
    subadditive and submultiplicative.
    """
    # s_(k-1), s_(k-2), ..., at most d of them, newest first.
    d, sums = len(parts), []
    for k in range(1, power + 1):
        x = 0
        for part, previous in zip(parts, sums + [k]):
            for shift, c in part:
                if c == 1:
                    x += previous << shift
                elif c == -1:
                    x -= previous << shift
                else:
                    x += (previous << shift) * c
        sums.insert(0, x)
        del sums[d:]
    return sums[0]


def _power_sum(w: BraidWord, power: int) -> LaurentPoly:
    """s = tr(M^power) for the d x d Burau matrix M of w, d = 2 or 3, and power >= 1, from one pass over w.

    For power >= 2, s is the power sum s_power of M's eigenvalues, from
    their elementary symmetric functions e_i(M) (:func:`_elementary`, with
    det M = (-t)^(exponent sum of w)) by Newton's identity
    (:func:`_newton`).  Scaling M by t^m scales e_i by t^(i*m) and s_k by
    t^(k*m); m makes every e_i a polynomial, so every s_k is one, and the
    recurrence runs on their values at t = 2^K, each e_i applied as a few
    shifts of its terms.  The same recurrence on the L1 norms of the e_i
    bounds |coefficients of s|, and so does the sum of the column sums of
    :func:`_windows` over ``power`` passes, which bounds the norm of every
    diagonal entry of M^power at once; K holds the smaller bound as a
    signed digit, so ``from_packed`` reads s back exactly.  Newton's bound
    is the one that stays small where the entries grow but the trace does
    not.  The one pass over w packs at the power-1 walk's max(sums), and
    only its diagonal entries are read: tr M sums them at a width that holds
    the sum of their L1 norms, since the pass width holds each entry's
    coefficients but not their sum.  On d = 4 and 5 the lower half of the
    e_k(M^power) is e_1 and e_2, and e_2 = (s_power^2 - s_(2*power))/2
    would need twice the steps at twice the width, so those take
    :func:`_principal_minors`.
    """
    d = w.strands - 1
    steps = _steps(w.letters, d)
    lows, highs, sums = _windows(d, steps, 1)
    width = slot_bits(max(sums).bit_length() + 1)
    stride = _stride(lows, highs)
    columns = _burau_pass(d, steps, 1, width, stride)
    # Entry (r, r) of column r becomes entry r of one packed column.
    step = stride * width // 8
    raws = [_twos_complement(x, width, stride * d) for x in columns]
    diagonal = b"".join([raw[r * step : (r + 1) * step] for r, raw in enumerate(raws)])
    bits = slot_bits(sum(_column_window(diagonal, width, stride)[2]).bit_length() + 1)
    low = min(lows)
    entries = _respace(diagonal, width, bits, stride, 0, stride - 1)
    trace = LaurentPoly.from_packed(sum([x << bits * (x_low - low) for x, x_low in zip(entries, lows)]), bits, low)
    if power == 1:
        return trace
    elementary = _elementary([trace.terms], _writhe(w.letters), d)
    m = max([-(terms[0][0] // i) for i, terms in enumerate(elementary, 1) if terms])
    norms = [[(0, sum([abs(c) for _, c in terms]))] for terms in elementary]
    k = slot_bits(min(_newton(norms, power), sum(_windows(d, steps, power)[2])).bit_length() + 1)
    # (shift, signed coefficient) of each term of (-1)^(i-1) e_i t^(i*m) at t = 2^k.
    parts = [
        [(k * (e + i * m), -c if i % 2 == 0 else c) for e, c in terms] for i, terms in enumerate(elementary, 1)
    ]
    return LaurentPoly.from_packed(_newton(parts, power), k, -power * m)


def _principal_minors(w: BraidWord, power: int) -> list[LaurentPoly]:
    """[e_1, e_2] of A = M^power (M the Burau matrix of w, power >= 1): the sums of A's principal 1x1 and 2x2 minors.

    A comes from ``power`` packed passes over w (:func:`_burau_pass`), one
    integer per column, at the width and stride of the one walk of
    :func:`_windows` over the same passes.  One read of each column's
    digits gives its entries' L1 norms N_rj, which bound every |coefficient|
    of e_1 by sum N_ii and of e_2 by sum_(i<j) N_ii N_jj + N_ij N_ji.  Entry
    (r, j) is t^lows[j] X_rj(t), and the digits of X_rj, from slot 0 up, are
    moved to a width that holds both that bound and the pass's entries,
    giving X_rj(2^width).  a_ii a_jj and a_ij a_ji share the unit
    t^(lows[i] + lows[j]): the diagonal entries, and the minors, are
    aligned by shifts to their lowest unit, and e_1 and e_2 are read back
    by one ``_unpack`` each.
    """
    d = w.strands - 1
    steps = _steps(w.letters, d)
    lows, highs, sums = _windows(d, steps, power)
    k = slot_bits(max(sums).bit_length() + 1)
    stride = _stride(lows, highs)
    raws = [_twos_complement(x, k, stride * d) for x in _burau_pass(d, steps, power, k, stride)]
    norms = [_column_window(raw, k, stride)[2] for raw in raws]
    pairs = list(combinations(range(d), 2))
    bound = max(
        sum([norms[i][i] for i in range(d)]),
        sum([norms[i][i] * norms[j][j] + norms[j][i] * norms[i][j] for i, j in pairs]),
    )
    width = max(k, slot_bits(bound.bit_length() + 1))
    columns = [_respace(raw, k, width, stride, 0, stride - 1) for raw in raws]
    low = min(lows)
    first = sum([columns[i][i] << width * (lows[i] - low) for i in range(d)])
    low_pairs = min([lows[i] + lows[j] for i, j in pairs])
    second = sum(
        [
            (columns[i][i] * columns[j][j] - columns[j][i] * columns[i][j])
            << width * (lows[i] + lows[j] - low_pairs)
            for i, j in pairs
        ]
    )
    return [LaurentPoly.from_packed(first, width, low), LaurentPoly.from_packed(second, width, low_pairs)]


def _reduce(letters: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The cyclically reduced form of a word on n strands, with s_i s_j = s_j s_i for |i - j| >= 2 as the only relation.

    The closure of w^p . Delta^(2q) does not change when s_i^e cancels
    s_i^-e across letters that commute with s_i, nor when w is conjugated:
    conjugation commutes with the power, and Delta^2 is central.  This is
    free and cyclic reduction in a partially commutative group (Cartier and
    Foata, LNM 85, 1969), in O(|w| + n) steps, and the result is reduced
    and has no shorter conjugate there.

    Free reduction keeps, for each generator, a stack of the positions of
    its uncancelled letters.  s_i^e cancels the top s_i^-e unless the top
    s_(i-1) or s_(i+1) lies after it.  Cyclic reduction then peels pairs:
    the first s_i, when no s_(i-1) or s_(i+1) comes before it, against an
    opposite last s_i, when none comes after it.  A peel changes only what
    s_(i-1), s_i and s_(i+1) can peel, so those three go back on the
    worklist.
    """
    live: list[list[int]] = [[] for _ in range(n + 1)]
    keep = [True] * len(letters)
    for pos, letter in enumerate(letters):
        g = letter if letter > 0 else -letter
        stack = live[g]
        if stack:
            top = stack[-1]
            if letters[top] == -letter:
                below, above = live[g - 1], live[g + 1]
                if (not below or below[-1] < top) and (not above or above[-1] < top):
                    keep[stack.pop()] = keep[pos] = False
                    continue
        stack.append(pos)
    # The first and last uncancelled s_g; with none left, past either end.
    end = len(letters)
    firsts = [0] * (n + 1)
    heads = [stack[0] if stack else end for stack in live]
    tails = [stack[-1] if stack else -1 for stack in live]
    work = list(range(1, n))
    while work:
        g = work.pop()
        a, b = heads[g], tails[g]
        if (
            a < b
            and letters[a] == -letters[b]
            and a < heads[g - 1]
            and a < heads[g + 1]
            and b > tails[g - 1]
            and b > tails[g + 1]
        ):
            keep[a] = keep[b] = False
            stack = live[g]
            stack.pop()
            first = firsts[g] = firsts[g] + 1
            heads[g], tails[g] = (stack[first], stack[-1]) if first < len(stack) else (end, -1)
            work += (g - 1, g, g + 1)
    return tuple([letter for letter, kept in zip(letters, keep) if kept])


def _numerator(w: BraidWord, power: int, twists: int) -> LaurentPoly:
    """det(u * M^power - id) for the d x d Burau matrix M of w, d = n - 1, and u = t^{n*twists}: the route table.

    det(u*A - id) = sum_k (-1)^(d-k) u^k e_k(A) over the elementary
    symmetric functions e_k of A's eigenvalues, e_0 = 1, and the upper half
    of the e_k follows from the lower one, e_1 .. e_h with h = d//2, and
    det(A) = D^power, D = det M = (-t)^(exponent sum of w)
    (:func:`_elementary`).  What A and h need picks the source of the lower
    half.  With u = 1 and power >= 1, a generator s_i missing from w
    leaves column i - 1 of A - id zero, and the numerator is 0; w comes
    cyclically reduced from :func:`alexander_of_closure` (:func:`_reduce`),
    so a generator whose letters all cancel is missing too.  At power 0 or
    on the empty word A = id and e_k = C(d, k), and on d = 1 (h = 0) the
    sum is u D^power - 1.  None of these reads more than the letters' set,
    nor takes ``power`` steps.  Otherwise e_1 = tr(M^power) is
    :func:`_power_sum` at h = 1, e_1 and e_2 are :func:`_principal_minors`
    at h = 2, and h >= 3 takes the two half-length passes and the
    determinant of :func:`_det_numerator`.
    """
    d, u = w.strands - 1, w.strands * twists
    h = d // 2
    if power and not twists and len({abs(letter) for letter in w.letters}) < d:
        return LaurentPoly()
    if not (power and w.letters and h):
        lower = [((0, comb(d, k)),) for k in range(1, h + 1)]
    elif h == 1:
        lower = [_power_sum(w, power).terms]
    elif h == 2:
        lower = [e.terms for e in _principal_minors(w, power)]
    else:
        return _det_numerator(w, power, twists)
    elementary = [LaurentPoly.one().terms] + _elementary(lower, _writhe(w.letters) * power, d)
    coeffs: dict[int, int] = {}
    for k, terms in enumerate(elementary):
        for exponent, c in terms:
            coeffs[exponent + k * u] = coeffs.get(exponent + k * u, 0) + (c if (d - k) % 2 == 0 else -c)
    return LaurentPoly.from_dict(coeffs)


def alexander_of_closure(w: BraidWord, power: int = 1, twists: int = 0) -> AlexanderPoly:
    """The one-variable Alexander polynomial of the closure of  w^power . Delta^{2*twists}.

    Computed as det(B - id) for the Burau matrix B, divided exactly by
    1 + t + ... + t^{n-1} (:func:`divide_cyclic`) and unit-normalized once.
    The lift of a band diagram in L(p,q) is the closure of word^p .
    Delta^{2q}, so its polynomial is ``alexander_of_closure(word, p, q)``
    without the lifted word ever being built.  Split links (in particular
    unlinks on >= 2 strands) give the zero polynomial; one strand closes to
    the unknot, whose polynomial is 1.

    At power >= 1, :func:`_numerator` gets the cyclically reduced word
    (:func:`_reduce`), whose closure is the same; its writhe and the sign
    of det X follow from that word.  ``w`` itself is not changed, so the
    fields that print the word print the input.  :func:`_numerator` picks
    the route from h = (n - 1)//2 and the power: on 2 to 6 strands, at
    power 0 or on the empty word on any n, and on a closure with no twist
    whose reduced word misses a generator, it takes no determinant.
    """
    if power < 0 or twists < 0:
        raise ValueError("power and twists must be non-negative")
    n = w.strands
    if n == 1:
        return AlexanderPoly(LaurentPoly.one())
    if power:
        w = _trusted_word(n, _reduce(w.letters, n))
    return AlexanderPoly.from_laurent(divide_cyclic(_numerator(w, power, twists), n))


def torus_closure(a: int, b: int) -> tuple[BraidWord, int, int]:
    """(run, a mod b, a // b) with run = s_{b-1} ... s_1 on b strands: T(a,b) as (word, power, twists)."""
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    return BraidWord(b, tuple(range(b - 1, 0, -1))), a % b, a // b
