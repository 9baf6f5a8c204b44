"""Reference routes that tests compare the library against.

The library itself never needs them: the Burau product is built by column
updates on one integer per column, sized by one walk of the same updates on
scalars that carries the column sums of the norm matrix, the numerator of a
lift on 7 or more strands comes from two half-length passes and never
decodes the whole Burau matrix, determinants
are eliminated and never expanded by minors, exact division runs from the
lowest term up on dense coefficients, a lift or a torus link is a
(word, power, twists) triple, a band diagram holds its closure
permutation, no subcommand multiplies bivariate polynomials, a braid
word is reduced by one stack per generator, not by rescanning, and
polynomial text is read one compiled pattern per term, not one character
at a time.  This
module imports no private name of the library, so a route here shares no
code with the route it checks.
"""

from fractions import Fraction
from itertools import combinations, permutations

from lenslinks.braid import BraidWord, garside, permutation
from lenslinks.curves import SupportPoly
from lenslinks.errors import DivisibilityError, ParseError
from lenslinks.laurent import LaurentMatrix, LaurentPoly, slot_bits

# A matrix over Z[t, t^-1] as a tuple of row tuples, compared entry by entry.
Rows = tuple[tuple[LaurentPoly, ...], ...]


def column_updates(letters, d: int) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """(column, [(Laurent shift, sign, source column), ...]) of each letter, in word order, for d x d matrices.

    s_i makes column i - 1 of the product  t*c_(i-2) - t*c_(i-1) + c_i,  and
    s_i^-1 makes it  c_(i-2) - c_(i-1)/t + c_i/t;  columns outside 0..d-1
    are dropped.
    """
    steps = []
    for letter in letters:
        c = abs(letter) - 1
        if letter > 0:
            parts = [(1, 1, c - 1), (1, -1, c), (0, 1, c + 1)]
        else:
            parts = [(0, 1, c - 1), (-1, -1, c), (-1, 1, c + 1)]
        steps.append((c, [part for part in parts if 0 <= part[2] < d]))
    return steps


def norm_matrix(d: int, steps, power: int) -> list[list[int]]:
    """The columns of ``power`` passes of the column updates on the L1 norms of the entries, from the identity."""
    norms = [[int(r == c) for r in range(d)] for c in range(d)]
    sources = [(c, [j for _, _, j in parts]) for c, parts in steps]
    # An empty word takes no passes, however large the power.
    for _ in range(power if steps else 0):
        for c, columns in sources:
            norms[c] = [sum(row) for row in zip(*[norms[j] for j in columns])]
    return norms


def norm_bound_loop(d: int, steps, power: int) -> int:
    """The largest entry of :func:`norm_matrix`: a bound on every |coefficient| of the Burau matrix of the passes."""
    return max([max(col) for col in norm_matrix(d, steps, power)])


def burau_columns(d: int, steps, power: int, k: int):
    """(columns, offsets): ``power`` passes over ``steps``, each entry packed as its own integer at t = 2^k.

    Entry (r, j) is X(t) * t^-offsets[j] for a polynomial X stored as its
    value columns[j][r] = X(2^k), so a letter costs a few shifts and adds
    on each of the d entries of one column.  k must hold the norm bound of
    the passes as a signed digit.
    """
    passes = power if steps else 0
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
    return columns, offsets


def centered_digits(x: int, k: int, count: int) -> list[int]:
    """The ``count`` signed base-2^k digits of x, lowest first, each in [-2^(k-1), 2^(k-1)), by repeated division."""
    half, digits = 1 << (k - 1), []
    for _ in range(count):
        digit = (x + half) % (2 * half) - half
        digits.append(digit)
        x = (x - digit) >> k
    assert x == 0
    return digits


def burau_reduced(w: BraidWord, power: int = 1, twists: int = 0) -> Rows:
    """Rows of the reduced Burau matrix of  w^power . Delta^{2*twists},  in word order.

    The letters of w are applied ``power`` times as column updates on
    entries packed one integer each (:func:`burau_columns`), at a width
    from :func:`norm_bound_loop`, and the entries are decoded once at the
    end.  The full twist Delta^2 is central and its reduced Burau image is
    t^n * id, so the twists multiply every entry by the unit t^{n*twists}
    instead of being applied letter by letter.
    """
    if w.strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    if power < 0 or twists < 0:
        raise ValueError("power and twists must be non-negative")
    d = w.strands - 1
    steps = column_updates(w.letters, d)
    k = slot_bits(norm_bound_loop(d, steps, power).bit_length() + 1)
    columns, offsets = burau_columns(d, steps, power, k)
    unit = w.strands * twists
    return tuple(
        [tuple([LaurentPoly.from_packed(col[r], k, unit - off) for col, off in zip(columns, offsets)]) for r in range(d)]
    )


def closure_matrix(w: BraidWord, power: int = 1, twists: int = 0) -> Rows:
    """Rows of B - id for the Burau matrix B of  w^power . Delta^{2*twists}."""
    one = LaurentPoly.one()
    rows = burau_reduced(w, power, twists)
    return tuple([row[:i] + (row[i] - one,) + row[i + 1 :] for i, row in enumerate(rows)])


def det_numerator(w: BraidWord, power: int, twists: int) -> LaurentPoly:
    """det(B - id) for the Burau matrix B of  w^power . Delta^{2*twists}: the whole matrix, decoded, then its determinant."""
    return LaurentMatrix.from_rows(closure_matrix(w, power, twists)).det()


def leibniz_det(m: Rows) -> LaurentPoly:
    """det of the matrix with rows m as the sum over all d! permutations; only for small d."""
    d = len(m)
    total = LaurentPoly()
    for perm in permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(d), 2))
        term = LaurentPoly.one()
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total - term if inversions % 2 else total + term
    return total


def laplace_det(m: Rows) -> LaurentPoly:
    """det of the matrix with rows m by Laplace expansion along the rows, memoized over column subsets.

    Row k is expanded against all k-column minors of the rows above it, so
    d x d costs at most d * 2^(d-1) products and no division: exact, and
    free of the pivots and exact divisions of elimination.
    """
    # minors[S] = det of the first popcount(S) rows on the column set S
    minors = {0: LaurentPoly.one()}
    for k, row in enumerate(m):
        grown: dict[int, LaurentPoly] = {}
        for subset, minor in minors.items():
            position = 0
            for j, entry in enumerate(row):
                if subset >> j & 1:
                    position += 1
                elif entry and minor:
                    # Column j lands at place `position` of the grown set, in row k.
                    term = entry * minor if (k + position) % 2 == 0 else -(entry * minor)
                    key = subset | 1 << j
                    grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors.get((1 << len(m)) - 1, LaurentPoly())


def long_division(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num / den in Z[t, t^-1] by long division from the top, on a dict of the remainder's terms.

    Raises DivisibilityError when den's leading coefficient does not divide
    a leading term, or when a remainder of lower degree is left.
    """
    if num.is_zero:
        return LaurentPoly()
    d_low, (d_high, d_lead) = den.terms[0][0], den.terms[-1]
    # Both sides shifted to start at t^0; the unit t^offset comes back at the end.
    n_low = num.terms[0][0]
    offset = n_low - d_low
    rem = {e - n_low: c for e, c in num.terms}
    lower = [(e - d_low, c) for e, c in den.terms[:-1]]
    d_deg = d_high - d_low
    quotient = []
    for k in range(num.terms[-1][0] - n_low - d_deg, -1, -1):
        top = rem.pop(k + d_deg, 0)
        if top == 0:
            continue
        lead, r = divmod(top, d_lead)
        if r != 0:
            raise DivisibilityError("non-exact division (leading coefficient)")
        quotient.append((k + offset, lead))
        for e, c in lower:
            rem[k + e] = rem.get(k + e, 0) - lead * c
    if any(rem.values()):
        raise DivisibilityError("non-exact division (remainder of lower degree)")
    return LaurentPoly(tuple(reversed(quotient)))


def matmul(a: Rows, b: Rows) -> Rows:
    """The rows of the matrix product a * b, entry by entry."""
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    cols = list(zip(*b))
    rows = []
    for row in a:
        new_row = []
        for col in cols:
            acc = LaurentPoly()
            for x, y in zip(row, col):
                acc = acc + x * y
            new_row.append(acc)
        rows.append(tuple(new_row))
    return tuple(rows)


def identity(size: int) -> Rows:
    """The rows of the identity matrix of the given size."""
    one, zero = LaurentPoly.one(), LaurentPoly()
    return tuple([tuple([one if r == c else zero for c in range(size)]) for r in range(size)])


def spelled_out(w: BraidWord, power: int = 1, twists: int = 0) -> BraidWord:
    """The word w^power . Delta^{2*twists}, every letter written out."""
    return BraidWord(w.strands, w.letters * power + garside(w.strands).letters * (2 * twists))


def closure_components(w: BraidWord, power: int = 1) -> tuple[tuple[int, ...], ...]:
    """Cycles of perm(w)^power = components of the closure of w^power."""
    return (permutation(w) ** power).cycles()


def torus_braid(a: int, b: int) -> BraidWord:
    """The standard positive braid (s_{b-1} ... s_1)^a on b strands, closing to T(a,b), spelled out."""
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    run = tuple(range(b - 1, 0, -1))
    return BraidWord(b, run * a if run else ())


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in w.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(w.strands, tuple(stack))


def cyclic_reduce(w: BraidWord) -> BraidWord:
    """Cancel s_i^e against s_i^-e across commuting letters, and peel conjugating pairs, until neither applies.

    A letter commutes with s_i when its index is 2 or more away from i.  A
    letter cancels when the first later letter that does not commute with
    it is its inverse.  A pair peels when the first and the last s_i are
    inverse and no s_(i-1) or s_(i+1) comes before the first or after the
    last.  Each removal rescans the whole word.
    """
    letters = list(w.letters)
    while True:
        for i, a in enumerate(letters):
            j = next((j for j in range(i + 1, len(letters)) if abs(abs(letters[j]) - abs(a)) <= 1), None)
            if j is not None and letters[j] == -a:
                del letters[j], letters[i]
                break
        else:
            for g in {abs(letter) for letter in letters}:
                at = [k for k, letter in enumerate(letters) if abs(letter) == g]
                a, b = at[0], at[-1]
                outside = letters[:a] + letters[b + 1 :]
                if a < b and letters[a] == -letters[b] and all(abs(abs(x) - g) != 1 for x in outside):
                    del letters[b], letters[a]
                    break
            else:
                return BraidWord(w.strands, tuple(letters))


def support_poly(coeffs: dict[tuple[int, int], Fraction | int]) -> SupportPoly:
    """The polynomial with these coefficients, zero ones left out."""
    return SupportPoly(tuple(sorted((k, Fraction(c)) for k, c in coeffs.items() if c != 0)))


def support_mul(f: SupportPoly, g: SupportPoly) -> SupportPoly:
    """The product f * g of two bivariate polynomials."""
    coeffs: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in f.terms:
        for (i2, j2), c2 in g.terms:
            key = (i1 + i2, j1 + j2)
            coeffs[key] = coeffs.get(key, Fraction(0)) + c1 * c2
    return support_poly(coeffs)


class PolyParser:
    """Recursive descent for  poly := term (('+'|'-') term)*,
    term := [coef '*'] factor ('*' factor)*,  factor := ('x'|'y') ['^' uint],
    coef := int | int '/' uint.  A sign directly before a term is also accepted.

    It peeks one character at a time, and it accepts a term of degree 0.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self) -> int:
        # isdecimal, not isdigit: int() rejects digits such as superscripts.
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError(f"a number of {self.pos - start} digits is too long", start) from None

    def take_sign(self) -> int:
        sign = 1
        while self.peek() and self.peek() in "+-":
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
            self.skip_ws()
        return sign

    def parse(self) -> SupportPoly:
        coeffs: dict[tuple[int, int], Fraction] = {}
        self.skip_ws()
        if not self.peek():
            raise self.error("empty polynomial")
        while True:
            sign = self.take_sign()
            key, coef = self.parse_term()
            coeffs[key] = coeffs.get(key, Fraction(0)) + sign * coef
            self.skip_ws()
            if not self.peek():
                break
            if self.peek() not in "+-":
                raise self.error(f"expected '+' or '-', got {self.peek()!r}")
        return support_poly(coeffs)

    def parse_term(self) -> tuple[tuple[int, int], Fraction]:
        coef = Fraction(1)
        if self.peek().isdecimal():
            num = self.take_uint()
            self.skip_ws()
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                den = self.take_uint()
                if den == 0:
                    raise self.error("zero denominator")
                coef = Fraction(num, den)
            else:
                coef = Fraction(num)
            self.skip_ws()
            if self.peek() != "*":
                raise self.error("a coefficient must be followed by '*' and a variable")
            self.pos += 1
            self.skip_ws()
        i = j = 0
        while True:
            di, dj = self.parse_factor()
            i, j = i + di, j + dj
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
                continue
            return (i, j), coef

    def parse_factor(self) -> tuple[int, int]:
        ch = self.peek()
        if not ch.isalpha():
            raise self.error(f"expected a variable, got {ch!r}" if ch else "expected a variable")
        if ch not in "xy":
            raise self.error(f"unknown variable {ch!r}")
        self.pos += 1
        exp = 1
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            exp = self.take_uint()
        return (exp, 0) if ch == "x" else (0, exp)


def descent_parse_poly(text: str) -> SupportPoly:
    """Polynomial text read by :class:`PolyParser`."""
    return PolyParser(text).parse()

