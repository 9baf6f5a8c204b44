"""Exact arithmetic in the ring Z[t, t^-1] and for small matrices over it.

Laurent polynomials are stored sparsely as sorted (exponent, coefficient)
pairs with arbitrary-precision integer coefficients, so every operation is
exact.  Determinants use Bareiss fraction-free elimination, O(d^3) products
with exact division by the previous pivot, on one of two entry types.  A
matrix reaches ``det`` as packed columns, one integer per column holding
every entry's coefficients as signed digits, either straight from the Burau
passes of :mod:`lenslinks.invariants` or packed from its rows.  One read of
each column's digits gives its exponent window and its entries' L1 norms.
When the determinant packs into at most 2^14 bits, the digits are moved
byte by byte to the width K at t = 2^K, as in Kronecker substitution
(below), the elimination runs on plain integers, and the one result is
decoded; K is the least multiple of 8 that holds the Goldstein-Graham bound
on the determinant's coefficients as a signed digit.  Larger matrices are
decoded and stay on the polynomials.

Large dense products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comp. 44,
2009): each operand is packed into one integer, its value at t = 2^k, the
two integers are multiplied once, and the product's coefficients are read
back as signed base-2^k digits, k-bit two's complement slots from one
``to_bytes`` (:func:`_twos_complement`).  k leaves room for the largest
possible product coefficient, so the digits never overlap.  Small or sparse
operands stay on the schoolbook loop, where packing costs more than it
saves.
``LaurentPoly.from_packed`` decodes such an integer for other modules.  A
column of the Burau passes of :mod:`lenslinks.invariants`, polynomials a
fixed number of slots apart, is read only by :func:`_column_window`, for
each entry's window and L1 norm, and :func:`_respace`, for its values at
any width, both on the slots of :func:`_twos_complement`.
Exact division runs from the lowest term up; :func:`divide_cyclic` first
multiplies by 1 - t, so its divisor 1 + ... + t^(n-1) becomes 1 - t^n.

All values are immutable, with slots, on the :class:`~lenslinks._value.Value`
base; operations return new objects and never mutate.  Only the public
constructor ``LaurentPoly(terms)`` validates its input; the results of
arithmetic are canonical by construction and skip the check.
"""

from __future__ import annotations

import sys
from array import array
from math import isqrt, prod

from ._value import Value
from .errors import DivisibilityError


# Tuples here are built from lists, never from generators: tuple(<generator>)
# grows its result by resizing, which bypasses CPython's per-size tuple free
# lists while freeing still fills them, so memory creeps up call after call.


def _canonical(coeffs: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((e, c) for e, c in coeffs.items() if c != 0))


# Kronecker substitution: a product of two operands with at least this many
# terms, each spanning at most _KRONECKER_MAX_SPREAD exponents per term, is
# one big-int product.  Smaller or sparser operands stay on the schoolbook
# loop, where packing costs more than it saves.
_KRONECKER_MIN_TERMS = 16
_KRONECKER_MAX_SPREAD = 4

# Slot widths whose signed digits array and memoryview.cast convert directly;
# on big-endian hosts every width takes the per-slot route.
_TYPECODES = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


def slot_bits(bits: int) -> int:
    """The slot width for signed digits of ``bits`` bits: 8, 16, 32, 64 or a multiple of 64."""
    for k in (8, 16, 32, 64):
        if bits <= k:
            return k
    return -(-bits // 64) * 64


def _bias(k: int, slots: int) -> int:
    """2^(k-1) in each of ``slots`` slots of k bits: makes signed digits non-negative."""
    return int.from_bytes((1 << (k - 1)).to_bytes(k // 8, "little") * slots, "little")


def _coefficients(terms: tuple[tuple[int, int], ...]) -> list[int]:
    """The coefficients of the terms, densely from the lowest exponent to the highest."""
    low = terms[0][0]
    dense = [0] * (terms[-1][0] - low + 1)
    for e, c in terms:
        dense[e - low] = c
    return dense


def _pack(terms: tuple[tuple[int, int], ...], k: int) -> int:
    """The sum of c * 2^(k*(e - low)) over the terms, low being the lowest exponent.

    Every |c| must be below 2^(k-1), and k a multiple of 8.  The
    coefficients are written as k-bit two's complement, and the inverse of
    :func:`_twos_complement` turns those slots into the signed sum.
    """
    dense = _coefficients(terms)
    code = _TYPECODES.get(k)
    if code is not None:
        raw = array(code, dense).tobytes()
    else:
        size = k // 8
        raw = b"".join([c.to_bytes(size, "little", signed=True) for c in dense])
    bias = _bias(k, len(dense))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _twos_complement(x: int, k: int, slots: int) -> bytes:
    """The ``slots`` signed base-2^k digits of x, lowest first, as k-bit two's complement from one ``to_bytes``.

    Every digit must lie in [-2^(k-1), 2^(k-1)).  Adding 2^(k-1) to each
    slot makes every digit non-negative, so no slot borrows from the next;
    flipping that bit back in each slot leaves the digit's two's complement.
    """
    bias = _bias(k, slots)
    return ((x + bias) ^ bias).to_bytes(slots * k // 8, "little")


def _digits(raw: bytes, k: int):
    """The signed values of the k-bit two's complement slots of ``raw``, lowest first."""
    code = _TYPECODES.get(k)
    if code is not None:
        return memoryview(raw).cast(code)
    size = k // 8
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]


def _unpack(x: int, k: int, low: int) -> tuple[tuple[int, int], ...]:
    """Canonical terms of the polynomial whose digit i in base 2^k is the coefficient of t^(low + i).

    The inverse of :func:`_pack`: every digit must lie strictly between
    -2^(k-1) and 2^(k-1), and one ``to_bytes`` yields them all.
    """
    slots = abs(x).bit_length() // k + 1
    return tuple([(low + i, v) for i, v in enumerate(_digits(_twos_complement(x, k, slots), k)) if v])


def _dense(terms: tuple[tuple[int, int], ...]) -> bool:
    return terms[-1][0] - terms[0][0] < _KRONECKER_MAX_SPREAD * len(terms)


def _kronecker(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The product's terms by one big-int product of the operands packed at t = 2^k.

    A product coefficient sums at most min(len(a), len(b)) products of
    coefficients, so k = bits(max|a|) + bits(max|b|) + bits(min len) + 1
    holds it as a signed digit.
    """
    bits = (
        max([abs(c) for _, c in a]).bit_length()
        + max([abs(c) for _, c in b]).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    k = slot_bits(bits)
    return _unpack(_pack(a, k) * _pack(b, k), k, a[0][0] + b[0][0])


def _trusted(terms: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """A LaurentPoly on terms already in canonical form, without re-validating them."""
    poly = object.__new__(LaurentPoly)
    object.__setattr__(poly, "terms", terms)
    return poly


class LaurentPoly(Value):
    """An element of Z[t, t^-1].

    ``terms`` holds (exponent, coefficient) pairs in strictly increasing
    exponent order with no zero coefficients; the zero polynomial is the
    empty tuple.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if exps != sorted(set(exps)):
            raise ValueError("terms must have strictly increasing exponents")
        if any(c == 0 for _, c in self.terms):
            raise ValueError("zero coefficients may not be stored")

    @staticmethod
    def from_dict(coeffs: dict[int, int]) -> LaurentPoly:
        return _trusted(_canonical(coeffs))

    @staticmethod
    def from_packed(x: int, k: int, low: int) -> LaurentPoly:
        """The polynomial whose signed base-2^k digit i is the coefficient of t^(low + i).

        ``x`` is the polynomial's value at t = 2^k, shifted to start at
        t^0; every coefficient must lie strictly between -2^(k-1) and
        2^(k-1), and k be a multiple of 8.
        """
        return _trusted(_unpack(x, k, low))

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly(((0, 1),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no minimum exponent")
        return self.terms[0][0]

    def coefficient(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by the unit t^k."""
        if k == 0:
            return self
        return _trusted(tuple([(e + k, c) for e, c in self.terms]))

    def __neg__(self) -> LaurentPoly:
        return _trusted(tuple([(e, -c) for e, c in self.terms]))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        coeffs = dict(self.terms)
        for e, c in other.terms:
            coeffs[e] = coeffs.get(e, 0) + c
        return _trusted(_canonical(coeffs))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + -other

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentPoly()
        if len(a) >= _KRONECKER_MIN_TERMS <= len(b) and _dense(a) and _dense(b):
            return _trusted(_kronecker(a, b))
        coeffs: dict[int, int] = {}
        get = coeffs.get
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                coeffs[e] = get(e, 0) + c1 * c2
        return _trusted(_canonical(coeffs))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for idx, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                base = "t" if e == 1 else f"t^{e}"
                body = base if mag == 1 else f"{mag}*{base}"
            if idx == 0:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
        return "".join(pieces)


def _long_division(rem: list[int], low: int, den: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """The exact quotient of the sum of rem[i] * t^(low + i) (rem is overwritten) by the terms ``den``.

    Quotient coefficient i, lowest first, is rem[i] over den's lowest coefficient.  A remainder,
    in the top span(den) entries or of that division, raises DivisibilityError.
    """
    (d_low, lead), *rest = den
    rest = [(e - d_low, c) for e, c in rest]
    top = len(rem) - den[-1][0] + d_low
    quotient = []
    for i in range(top):
        q = rem[i]
        if q:
            if lead != 1:
                q, r = divmod(q, lead)
                if r:
                    raise DivisibilityError("non-exact division")
            quotient.append((low - d_low + i, q))
            for e, c in rest:
                rem[i + e] -= q * c
    if any(rem[max(top, 0) :]):
        raise DivisibilityError("non-exact division")
    return _trusted(tuple(quotient))


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient in Z[t, t^-1] by :func:`_long_division`; raises DivisibilityError on any remainder."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return num
    return _long_division(_coefficients(num.terms), num.terms[0][0], den.terms)


def divide_cyclic(num: LaurentPoly, n: int) -> LaurentPoly:
    """Exact quotient of num by 1 + t + ... + t^(n-1): that of num * (1 - t) by 1 - t^n, with num's lowest exponent."""
    if num.is_zero:
        return num
    low = num.terms[0][0]
    y = _coefficients(num.terms) + [0]
    for e, c in num.terms:
        y[e - low + 1] -= c
    try:
        return _long_division(y, low, ((0, 1), (n, -1)))
    except DivisibilityError:
        raise DivisibilityError(f"non-exact division by 1 + t + ... + t^{n - 1}") from None


# LaurentMatrix.det eliminates on packed integers when the determinant packs
# into at most this many bits; larger matrices stay on polynomials.
_PACKED_MAX_BITS = 1 << 14


def _bareiss(a: list[list], size, divide, zero):
    """Determinant of the square matrix ``a`` (a list of row lists, overwritten) by Bareiss elimination.

    Bareiss fraction-free elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968) makes O(d^3) products, each entry divided exactly by the previous
    pivot.  Each step pivots on the entry of least nonzero ``size``, which
    keeps the products small; ``size`` is 0 only on a zero entry.  The
    entries are packed ``int`` values or :class:`LaurentPoly` values,
    ``divide`` is exact division in their ring, and ``zero`` is returned
    for a singular matrix.
    """
    d = len(a)
    negate = False
    previous = None
    for k in range(d - 1):
        best = None
        for i in range(k, d):
            row = a[i]
            for j in range(k, d):
                s = size(row[j])
                if s and (best is None or s < best[0]):
                    best = (s, i, j)
        if best is None:
            return zero
        _, i, j = best
        if i != k:
            a[k], a[i] = a[i], a[k]
            negate = not negate
        if j != k:
            # Rows above k no longer take part, so only rows k.. swap.
            for row in a[k:]:
                row[k], row[j] = row[j], row[k]
            negate = not negate
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, d):
                entry = pivot * row[j]
                if lead and pivot_row[j]:
                    entry = entry - lead * pivot_row[j]
                row[j] = divide(entry, previous) if k else entry
        previous = pivot
    result = a[-1][-1]
    return -result if negate else result


def _term_count(poly: LaurentPoly) -> int:
    return len(poly.terms)


def _coefficient_bound(squares: list[int]) -> int:
    """A strict bound on |c| for every coefficient c of a determinant whose column j has sum_r |a_rj|_1^2 = squares[j].

    Hadamard's inequality at each point of the unit circle bounds every
    coefficient by sqrt(prod_j sum_r |a_rj|_1^2), the L1 norm being the sum
    of the absolute coefficients (Goldstein and Graham, "A Hadamard-type
    bound on the coefficients of a determinant of polynomials", SIAM Review
    16, 1974).
    """
    return isqrt(prod(squares)) + 1


def _column_window(raw: bytes, k: int, stride: int) -> tuple[int, int, list[int]]:
    """(first, last, norms) of a packed column, ``raw`` holding its k-bit two's complement slots.

    Entry r of the column is slots r * stride .. r * stride + stride - 1,
    and norms[r] is its L1 norm.  Every nonzero digit of every entry lies
    in the entry's slots first .. last; a zero column has first = stride
    and last = 0.  Stripping an entry's zero bytes at both ends finds its
    nonzero slots, and its norm sums the absolute digits between them.
    """
    size = k // 8
    step = stride * size
    digits = _digits(raw, k)
    first, last, norms = stride, 0, []
    for start in range(0, len(raw), step):
        entry = raw[start : start + step]
        top = len(entry.rstrip(b"\0"))
        norm = 0
        if top:
            i, j = (step - len(entry.lstrip(b"\0"))) // size, (top - 1) // size
            first, last = min(first, i), max(last, j)
            offset = start // size
            norm = sum(map(abs, digits[offset + i : offset + j + 1]))
        norms.append(norm)
    return first, last, norms


def _respace(raw: bytes, k: int, width: int, stride: int, first: int, last: int) -> list[int]:
    """The entries of a packed column, ``raw`` holding its k-bit two's complement slots, at t = 2^width.

    Entry r is slots r * stride + first .. r * stride + last, and each of
    its digits must fit ``width`` bits as well as k.  The low m = min(k,
    width) bits of every slot are copied byte by byte into a slot of
    ``width`` bits, where they are the digit's m-bit two's complement.
    Flipping bit m - 1 of each slot and subtracting it again, as
    :func:`_twos_complement` added it, gives the signed sum, so each entry
    costs one ``from_bytes``.
    """
    size, step = k // 8, width // 8
    copied = min(size, step)
    out = bytearray(len(raw) // size * step)
    for b in range(copied):
        out[b::step] = raw[b::size]
    length = (last - first + 1) * step
    half = _bias(width, last - first + 1) >> (width - 8 * copied)
    return [
        (int.from_bytes(out[start : start + length], "little") ^ half) - half
        for start in range(first * step, len(out), stride * step)
    ]


class LaurentMatrix(Value):
    """A square matrix over Z[t, t^-1], stored as a tuple of row tuples.

    :meth:`_from_passes` builds one from packed columns instead; its rows are
    decoded on first read, and :meth:`det` never reads them on its packed
    route.
    """

    __slots__ = ("rows", "_passes")

    def __init__(self, rows: tuple[tuple[LaurentPoly, ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_passes", None)
        self.__post_init__()

    def __post_init__(self):
        d = self.size
        if d == 0:
            raise ValueError("matrices must have positive size")
        if any(len(row) != d for row in self.rows):
            raise ValueError("matrix must be square")

    def __getattr__(self, name):
        # Only an unset slot gets here: the rows of a matrix from
        # _from_passes, decoded and checked once, on first read.
        if name != "rows":
            raise AttributeError(name)
        columns, k, stride, lows = self._passes
        raws = [_twos_complement(x, k, stride * len(columns)) for x in columns]
        entries = [
            [_trusted(_unpack(value, k, low)) for value in _respace(raw, k, k, stride, 0, stride - 1)]
            for raw, low in zip(raws, lows)
        ]
        rows = LaurentMatrix.from_rows(zip(*entries)).rows
        object.__setattr__(self, "rows", rows)
        return rows

    @property
    def size(self) -> int:
        return len(self._passes[0]) if self._passes else len(self.rows)

    @staticmethod
    def from_rows(rows) -> LaurentMatrix:
        return LaurentMatrix(tuple([tuple(row) for row in rows]))

    @staticmethod
    def _from_passes(columns: list[int], k: int, stride: int, lows: list[int]) -> LaurentMatrix:
        """The d x d matrix, d = len(columns), whose entry (r, c) is t^lows[c] times the polynomial X_rc.

        Signed base-2^k digit r * stride + i of columns[c] is the
        coefficient of t^i in X_rc, for i < stride: the form in which
        :func:`~lenslinks.invariants._burau_pass` packs a column.  Every
        digit must lie strictly between -2^(k-1) and 2^(k-1), and k be a
        multiple of 8.  Nothing is decoded here.
        """
        m = object.__new__(LaurentMatrix)
        object.__setattr__(m, "_passes", (columns, k, stride, lows))
        return m

    def det(self) -> LaurentPoly:
        """Determinant by :func:`_bareiss` elimination, on packed integers or on the polynomials.

        Both routes start from packed columns, as :meth:`_from_passes` takes
        them; a matrix built from its rows is packed into that form first, at
        the least slot width that holds its coefficients.  A zero column
        gives 0 at once.  Each column is read as two's complement digits
        with one ``to_bytes`` (:func:`_column_window`): the slots that hold a
        nonzero digit in some entry, first .. last, give the column's lowest
        exponent and its span, and the entries' L1 norms its sum of squared
        norms.

        Packed: each column is shifted by its lowest exponent, which divides
        the determinant by the unit t^(sum of the lows), and its digits are
        moved byte by byte from the pass width k to the determinant's width
        K (:func:`_respace`), which may be wider or narrower than k, so each
        entry is its value at t = 2^K.  t -> 2^K is a ring homomorphism from
        Z[t] to Z, so elimination with exact ``//`` on these integers gives
        the determinant's value there, and one ``_unpack`` reads back its
        coefficients.  K is the least multiple of 8 that holds
        :func:`_coefficient_bound` as a signed digit, so they never overlap;
        every entry's coefficient is below that bound too, so its digits fit
        K bits.  No :class:`LaurentPoly` is built for an entry.

        Polynomial: the same elimination on the decoded :class:`LaurentPoly`
        entries, dividing with :func:`divide_exact`.

        The packed route replaces each polynomial product by one integer
        product; the packed determinant has at most K * (sum of column
        spans + 1) bits, and the minors that elimination builds no more.
        It runs when that size is at most ``_PACKED_MAX_BITS``, however
        sparse the entries: on larger integers elimination's quadratic
        ``//`` costs more than the polynomial products.
        """
        if self._passes is not None:
            columns, k, stride, lows = self._passes
        else:
            rows = self.rows
            lows = [min([e.terms[0][0] for e in column if e.terms], default=0) for column in zip(*rows)]
            stride = max([e.terms[-1][0] - low for row in rows for e, low in zip(row, lows) if e.terms], default=0) + 1
            k = slot_bits(max([abs(c) for row in rows for e in row for _, c in e.terms], default=0).bit_length() + 1)
            columns = [
                sum([c << k * (stride * r + e - low) for r, entry in enumerate(column) for e, c in entry.terms])
                for column, low in zip(zip(*rows), lows)
            ]
        if not all(columns):
            return LaurentPoly()
        raws = [_twos_complement(x, k, stride * len(columns)) for x in columns]
        windows = [_column_window(raw, k, stride) for raw in raws]
        bound = _coefficient_bound([sum([n * n for n in norms]) for _, _, norms in windows])
        width = 8 * -(-(bound.bit_length() + 1) // 8)
        if width * (sum([last - first for first, last, _ in windows]) + 1) > _PACKED_MAX_BITS:
            return _bareiss([list(row) for row in self.rows], _term_count, divide_exact, LaurentPoly())
        packed = [_respace(raw, k, width, stride, first, last) for raw, (first, last, _) in zip(raws, windows)]
        value = _bareiss([list(row) for row in zip(*packed)], int.bit_length, int.__floordiv__, 0)
        return _trusted(_unpack(value, width, sum(lows) + sum([first for first, _, _ in windows])))
