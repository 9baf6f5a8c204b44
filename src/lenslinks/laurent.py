"""Exact arithmetic in the ring Z[t, t^-1] and for small matrices over it.

Laurent polynomials are stored sparsely as sorted (exponent, coefficient)
pairs with arbitrary-precision integer coefficients, so every operation is
exact.  Matrices are kept small (reduced Burau matrices on a handful of
strands), and determinants use cofactor expansion memoized over column
subsets.

Large dense products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symb. Comp. 44,
2009): each operand is packed into one integer, its value at t = 2^k, the
two integers are multiplied once, and the product's coefficients are read
back as signed base-2^k digits.  k leaves room for the largest possible
product coefficient, so the digits never overlap.  Small or sparse operands
stay on the schoolbook loop, where packing costs more than it saves.
``LaurentPoly.from_packed`` decodes such an integer for other modules.

All values are immutable; operations return new objects and never mutate.
Only the public constructor ``LaurentPoly(terms)`` validates its input; the
results of arithmetic are canonical by construction and skip the check.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass


class DivisibilityError(ArithmeticError):
    """Exact division failed: the divisor does not divide the dividend in Z[t, t^-1]."""


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

# Slot widths whose digits memoryview.cast reads directly; on big-endian
# hosts every width takes the per-slot route.
_TYPECODES = {8: "B", 16: "H", 32: "I", 64: "Q"} if sys.byteorder == "little" else {}


def slot_bits(bits: int) -> int:
    """The slot width for signed digits of ``bits`` bits: 8, 16, 32, 64 or a multiple of 64."""
    for k in (8, 16, 32, 64):
        if bits <= k:
            return k
    return -(-bits // 64) * 64


def _bias(k: int, slots: int) -> int:
    """2^(k-1) in each of ``slots`` slots of k bits: makes signed digits non-negative."""
    return int.from_bytes((1 << (k - 1)).to_bytes(k // 8, "little") * slots, "little")


def _pack(terms: tuple[tuple[int, int], ...], k: int) -> int:
    """The sum of c * 2^(k*(e - low)) over the terms, low being the lowest exponent.

    Every |c| must be below 2^(k-1), and k a width from :func:`slot_bits`.
    """
    low = terms[0][0]
    slots = terms[-1][0] - low + 1
    half = 1 << (k - 1)
    dense = [half] * slots
    for e, c in terms:
        dense[e - low] = c + half
    code = _TYPECODES.get(k)
    if code is not None:
        raw = array(code, dense).tobytes()
    else:
        size = k // 8
        raw = b"".join([v.to_bytes(size, "little") for v in dense])
    return int.from_bytes(raw, "little") - _bias(k, slots)


def _unpack(x: int, k: int, low: int) -> tuple[tuple[int, int], ...]:
    """Canonical terms of the polynomial whose digit i in base 2^k is the coefficient of t^(low + i).

    The inverse of :func:`_pack`: every digit must lie strictly between
    -2^(k-1) and 2^(k-1).  Adding 2^(k-1) to each slot makes them all
    non-negative, so one ``to_bytes`` yields every digit at once.
    """
    slots = abs(x).bit_length() // k + 1
    half = 1 << (k - 1)
    raw = (x + _bias(k, slots)).to_bytes(slots * k // 8, "little")
    code = _TYPECODES.get(k)
    if code is not None:
        digits = memoryview(raw).cast(code)
    else:
        size = k // 8
        digits = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    return tuple([(low + i, v - half) for i, v in enumerate(digits) if v != half])


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


@dataclass(frozen=True)
class LaurentPoly:
    """An element of Z[t, t^-1].

    ``terms`` holds (exponent, coefficient) pairs in strictly increasing
    exponent order with no zero coefficients; the zero polynomial is the
    empty tuple.
    """

    terms: tuple[tuple[int, int], ...] = ()

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
        2^(k-1), and k be a width from :func:`slot_bits`.
        """
        return _trusted(_unpack(x, k, low))

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly()

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> LaurentPoly:
        """The monomial ``coefficient * t^exponent``."""
        if coefficient == 0:
            return LaurentPoly()
        return LaurentPoly(((exponent, coefficient),))

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
        coeffs = dict(self.terms)
        for e, c in other.terms:
            coeffs[e] = coeffs.get(e, 0) - c
        return _trusted(_canonical(coeffs))

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


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient in Z[t, t^-1]; raises DivisibilityError on any remainder."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly()

    d_low, (d_high, d_lead) = den.terms[0][0], den.terms[-1]
    # Long division from the top on honest polynomials with nonzero constant
    # term; the discarded unit t^offset is restored at the end.
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
            e += k
            rem[e] = rem.get(e, 0) - lead * c
    if any(rem.values()):
        raise DivisibilityError("non-exact division (remainder of lower degree)")
    quotient.reverse()
    return _trusted(tuple(quotient))


@dataclass(frozen=True)
class LaurentMatrix:
    """A square matrix over Z[t, t^-1], stored as a tuple of row tuples."""

    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if d == 0:
            raise ValueError("matrices must have positive size")
        if any(len(row) != d for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_rows(rows) -> LaurentMatrix:
        return LaurentMatrix(tuple([tuple(row) for row in rows]))

    @staticmethod
    def identity(size: int) -> LaurentMatrix:
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return LaurentMatrix(
            tuple([tuple([one if i == j else zero for j in range(size)]) for i in range(size)])
        )

    def entry(self, i: int, j: int) -> LaurentPoly:
        """0-based access."""
        return self.rows[i][j]

    def __matmul__(self, other: LaurentMatrix) -> LaurentMatrix:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        d = self.size
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            new_row = []
            for col in cols:
                acc = LaurentPoly()
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                new_row.append(acc)
            out.append(tuple(new_row))
        return LaurentMatrix(tuple(out))

    def __sub__(self, other: LaurentMatrix) -> LaurentMatrix:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        return LaurentMatrix(
            tuple([tuple([a - b for a, b in zip(r1, r2)]) for r1, r2 in zip(self.rows, other.rows)])
        )

    def det(self) -> LaurentPoly:
        """Determinant by Laplace expansion, memoized over column subsets.

        Row k is expanded against all k-column minors of the first k rows,
        which costs d * 2^(d-1) polynomial multiplications; ample for the
        small matrices used here.
        """
        d = self.size
        # minors[S] = det of rows 0..popcount(S)-1 on the column set S
        minors: dict[int, LaurentPoly] = {0: LaurentPoly.one()}
        for k in range(1, d + 1):
            row = self.rows[k - 1]
            next_minors: dict[int, LaurentPoly] = {}
            for subset, minor in minors.items():
                if not minor:
                    continue
                sign = 1
                position = 0
                for j in range(d):
                    bit = 1 << j
                    if subset & bit:
                        position += 1
                        continue
                    entry = row[j]
                    if entry:
                        # sign of placing column j (at index `position` within
                        # the grown set) into row k: (-1)^(k-1+position)
                        term = entry * minor
                        grown = subset | bit
                        acc = next_minors.get(grown)
                        signed = term if (position + k) % 2 == 1 else -term
                        next_minors[grown] = signed if acc is None else acc + signed
            minors = next_minors
        full = (1 << d) - 1
        return minors.get(full, LaurentPoly())
