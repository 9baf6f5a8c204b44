"""Bivariate polynomials over Q, their symmetry classes, and Puiseux cable pairs.

Under the lens-space action (x, y) -> (zeta x, zeta^q y), a monomial
x^i y^j scales by zeta^(i+qj).  A nonzero polynomial therefore transforms
by a single power zeta^k exactly when all of its support satisfies
i + qj = k (mod p) for one common residue k; that residue is the
polynomial's invariance class, and its existence means the zero set
descends to a link in L(p,q).

Only the monomial support and exact rational coefficients are stored;
irreducibility over C is never checked and remains a caller obligation
where the geometry needs it.

:func:`parse_poly` reads polynomial text by this grammar::

    poly   := sign* term (sign+ term)*
    term   := [coef '*'] factor ('*' factor)*
    factor := ('x' | 'y') ['^' uint]
    coef   := uint ['/' uint]
    sign   := '+' | '-'

Whitespace (whatever ``str.isspace`` accepts) may stand before and after
any token.  A uint is a run of decimal digits, of any script that
``str.isdecimal`` and ``int`` accept, and no longer than the interpreter's
limit on digits (4,300 by default); a denominator may not be 0.  An odd
number of '-' before a term negates it, and like terms are added.  A term
must have positive degree: at least one of its exponents is above 0, so
"x^0" and "x^0*y^0" are refused, and ``str`` of every nonzero polynomial
that :func:`parse_poly` returns reads back as the same polynomial.  That
rule is checked once the whole text has been read, so a text that also
breaks the grammar reports the grammar error.

The Puiseux half of the module rewrites a fractional power series exponent
list (m; N_1 < N_2 < ...) into the coprime cable pairs (m_i, n_i) of the
corresponding iterated torus knot, via e_0 = m, e_i = gcd(e_{i-1}, N_i),
m_i = e_{i-1}/e_i, n_i = N_i/e_i, stopping at the first e_k = 1.
"""

from __future__ import annotations

import functools
import math

from ._value import Value
from .errors import ParseError
from .lens import LensSpace


@functools.cache
def _fraction_type() -> type:
    """``fractions.Fraction``, imported on first use.

    fractions loads decimal and numbers, which most CLI calls never need.
    An import statement in each function that builds a Fraction would cost
    about 2 us per call on CPython 3.11; this cached lookup, under 0.1 us.
    """
    from fractions import Fraction

    return Fraction


class SupportPoly(Value):
    """A polynomial in x, y with exact rational coefficients, stored by support.

    ``terms`` maps exponent pairs (i, j) to nonzero coefficients, kept as a
    sorted tuple of ((i, j), Fraction) pairs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple[int, int], Fraction], ...] = ()):
        object.__setattr__(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self):
        keys = [k for k, _ in self.terms]
        if keys != sorted(set(keys)):
            raise ValueError("terms must be sorted by exponent pair, without repeats")
        for (i, j), c in self.terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            if c == 0:
                raise ValueError("zero coefficients may not be stored")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple([k for k, _ in self.terms])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (i, j), c in reversed(self.terms):
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            num, den = c.numerator, c.denominator
            mag = -num if num < 0 else num
            if not factors or mag != 1 or den != 1:
                factors.insert(0, str(mag) if den == 1 else f"{mag}/{den}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(f"-{body}" if num < 0 else body)
            else:
                pieces.append(f"{' - ' if num < 0 else ' + '}{body}")
        return "".join(pieces)


@functools.cache
def _poly_patterns() -> tuple:
    """The term and extra-factor patterns of :func:`parse_poly`, compiled on first use.

    Every piece of a term is optional, so the term pattern always matches,
    and it stops where the grammar's one-character lookahead would.  A
    trigger ('/', '^' or '*') is read even when what must follow it is
    missing, and the lookbehinds then let nothing more be read, so the
    last character read says what was expected.  Whitespace is read before
    a token, never after it, except after the signs and at the end; so no
    two runs of whitespace meet, and no match backtracks further than one
    run of whitespace.  A term's first two factors have groups of their
    own; any further ones are read again by the factor pattern.
    """
    import re

    term = re.compile(
        r"""\s*((?:[+-]\s*)*)                     # 1 signs
        (                                          # 2 the term, up to its last token
          (?:(\d+)                                 # 3 numerator
             (?:\s*/(?:\s*(\d+))?)?                # 4 denominator
             (?:(?<=\d)\s*\*)?
          )?
          (?:(?<![\d/])\s*([xy])(?:\s*\^(?:\s*(\d+))?)?                # 5, 6
             (?:(?<!\^)\s*\*(?:\s*([xy])(?:\s*\^(?:\s*(\d+))?)?)?)?     # 7, 8
             ((?:(?<![*^])\s*\*(?:\s*[xy](?:\s*\^(?:\s*\d+)?)?)?)*)   # 9
          )?
        )\s*""",
        re.VERBOSE,
    )
    return term, re.compile(r"\*\s*([xy])(?:\s*\^\s*(\d+))?")


def _too_long(m, group: int) -> ParseError:
    return ParseError(f"a number of {len(m.group(group))} digits is too long", m.start(group))


def _number_error(m) -> ParseError:
    """The first fault among a term's numbers, in reading order: a number
    past the interpreter's limit on digits, or a zero denominator."""
    for group in (3, 4, 6, 8):
        if m.group(group) is not None:
            try:
                value = int(m.group(group))
            except ValueError:
                return _too_long(m, group)
            if group == 4 and not value:
                return ParseError("zero denominator", m.end(4))
    raise AssertionError("the term's numbers are all valid")


def _missing(text: str, m, first: bool) -> ParseError:
    """The error of a term that the term pattern read only part of."""
    end = m.end()
    if m.end(2) > m.start(2):
        last = text[m.end(2) - 1]
        if last in "/^":
            return ParseError("expected a number", end)
        if last != "*":  # a digit of the coefficient
            return ParseError("a coefficient must be followed by '*' and a variable", end)
    elif first and end == len(text) and not m.group(1):
        return ParseError("empty polynomial", end)
    ch = text[end : end + 1]
    if ch.isalpha():
        return ParseError(f"unknown variable {ch!r}", end)
    return ParseError(f"expected a variable, got {ch!r}" if ch else "expected a variable", end)


def parse_poly(text: str) -> SupportPoly:
    """Parse polynomial text such as ``"x^8 + y^2"`` or ``"3*x^2*y - 1/2*y^3"``.

    The grammar is in the module docstring.  Raises :class:`ParseError`,
    with the position of the first character that breaks the grammar.
    """
    term, factor = _poly_patterns()
    sums: dict[tuple[int, int], list[int]] = {}
    pos, size = 0, len(text)
    degree_zero = None  # where the first term of degree 0 starts
    while True:
        m = term.match(text, pos)
        signs, num, den, v1, e1, v2, e2, more = m.group(1, 3, 4, 5, 6, 7, 8, 9)
        i = j = 0
        try:
            n = 1 if num is None else int(num)
            d = 1 if den is None else int(den)
            if v1 is not None:
                e = 1 if e1 is None else int(e1)
                if v1 == "x":
                    i = e
                else:
                    j = e
                if v2 is not None:
                    e = 1 if e2 is None else int(e2)
                    if v2 == "x":
                        i += e
                    else:
                        j += e
        except ValueError:  # a number past the interpreter's limit on digits
            raise _number_error(m) from None
        if not d:
            raise _number_error(m)
        if more:
            for f in factor.finditer(text, m.start(9), m.end(9)):
                try:
                    e = 1 if f.group(2) is None else int(f.group(2))
                except ValueError:
                    raise _too_long(f, 2) from None
                if f.group(1) == "x":
                    i += e
                else:
                    j += e
        if v1 is None or text[m.end(2) - 1] in "*^":
            raise _missing(text, m, pos == 0)
        if not i + j and degree_zero is None:
            degree_zero = m.start(2)
        if signs.count("-") % 2:
            n = -n
        key = (i, j)
        old = sums.get(key)
        if old is None:
            sums[key] = [n, d]
        elif old[1] == d:
            old[0] += n
        else:
            old[0] = old[0] * d + n * old[1]
            old[1] *= d
        pos = m.end()
        if pos == size:
            break
        if text[pos] not in "+-":
            raise ParseError(f"expected '+' or '-', got {text[pos]!r}", pos)
    if degree_zero is not None:
        raise ParseError("a term must have positive degree", degree_zero)
    Fraction = _fraction_type()
    return SupportPoly(
        tuple(sorted([(k, Fraction(n) if d == 1 else Fraction(n, d)) for k, (n, d) in sums.items() if n]))
    )


def invariance_class(f: SupportPoly, p: int, q: int) -> int | None:
    """The residue k with f(zeta x, zeta^q y) = zeta^k f(x, y), or None.

    Exists exactly when all support pairs (i, j) share one residue
    i + q*j mod p.  Requires f != 0 and a lens space L(p,q), validated by
    :class:`LensSpace`.
    """
    LensSpace(p, q)
    if f.is_zero:
        raise ValueError("the zero polynomial has no invariance class")
    residues = {(i + q * j) % p for i, j in f.support()}
    if len(residues) == 1:
        return residues.pop()
    return None


def torus_poly(a: int, b: int) -> SupportPoly:
    """x^a + y^b, whose zero set meets a small sphere in the torus link T(a,b)."""
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    one = _fraction_type()(1)
    return SupportPoly((((0, b), one), ((a, 0), one)))


def is_torus_knot_lift(a: int, b: int, p: int) -> bool:
    """Whether T(a,b) is the lift of an algebraic KNOT in L(p,q) for some q coprime to p.

    The action (x, y) -> (zeta x, zeta^q y) moves the d = gcd(a,b)
    components x^(a/d) = w y^(b/d) of x^a + y^b by w -> w zeta^m with
    m = q b/d - a/d.  Each orbit has p/gcd(m,p) components, so the quotient
    has d gcd(m,p)/p of them, and it is a knot exactly when d gcd(m,p) = p;
    that also forces a = qb (mod p), the invariance of the polynomial.

    Some q coprime to p passes exactly when d divides p, e = p/d is coprime
    to a'b' (a' = a/d, b' = b/d), and not (d even, e odd and a'b' odd).
    Prime by prime of p: where r divides e, q = a'/b' (mod r) must be a
    unit; where 2 divides d but not e, m = q b' - a' must be odd for an odd
    q, which fails when a' and b' are both odd.
    """
    if a < 1 or b < 1 or p < 1:
        raise ValueError("arguments must be positive")
    d = math.gcd(a, b)
    if p % d != 0:
        return False
    e, ab = p // d, (a // d) * (b // d)
    return math.gcd(e, ab) == 1 and not (d % 2 == 0 and e % 2 == 1 and ab % 2 == 1)


class PuiseuxData(Value):
    """Exponent data of a fractional power series y = sum a_i x^(N_i/m).

    ``m`` is the common denominator and ``exponents`` the strictly
    increasing numerators with m <= N_1.
    """

    __slots__ = ("m", "exponents")

    def __init__(self, m: int, exponents: tuple[int, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "exponents", exponents)
        self.__post_init__()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("the denominator m must be positive")
        if any(n < 1 for n in self.exponents):
            raise ValueError("exponents must be positive")
        if list(self.exponents) != sorted(set(self.exponents)):
            raise ValueError("exponents must be strictly increasing")
        if self.exponents and self.exponents[0] < self.m:
            raise ValueError("the first exponent must be at least m")


class CableSequence(Value):
    """Coprime pairs (m_i, n_i) of an iterated torus knot.

    Invariants: gcd(m_i, n_i) = 1, m_1 <= n_1, and n_i m_{i+1} < n_{i+1}.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "pairs", pairs)
        self.__post_init__()

    def __post_init__(self):
        for m, n in self.pairs:
            if m < 1 or n < 1:
                raise ValueError("cable pairs must be positive")
            if math.gcd(m, n) != 1:
                raise ValueError(f"cable pair {(m, n)} is not coprime")
        if self.pairs and self.pairs[0][0] > self.pairs[0][1]:
            raise ValueError("the first pair must satisfy m_1 <= n_1")
        for (_, n1), (m2, n2) in zip(self.pairs, self.pairs[1:]):
            if n1 * m2 >= n2:
                raise ValueError(f"cable condition n_i*m_(i+1) < n_(i+1) fails at {(n1, m2, n2)}")


def puiseux_pairs(data: PuiseuxData, characteristic_only: bool = False) -> CableSequence:
    """Rewrite Puiseux exponent data into its cable pairs.

    With e_0 = m and e_i = gcd(e_{i-1}, N_i), emits (e_{i-1}/e_i, N_i/e_i)
    for i = 1..k where k is minimal with e_k = 1, so the denominators
    multiply back to m and n_i/(m_1...m_i) = N_i/m for every i.  Pairs with
    m_i = 1 are kept unless ``characteristic_only`` is set.

    Raises ValueError if the exponent list ends before e reaches 1: the
    expansion given does not determine the knot.
    """
    e = data.m
    pairs = []
    for big_n in data.exponents:
        if e == 1:
            break
        e_next = math.gcd(e, big_n)
        pairs.append((e // e_next, big_n // e_next))
        e = e_next
    if e != 1:
        raise ValueError(
            f"exponent data is incomplete: gcd chain stops at {e}, not 1"
        )
    if characteristic_only:
        pairs = [(m, n) for m, n in pairs if m > 1]
    return CableSequence(tuple(pairs))
