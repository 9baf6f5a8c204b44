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

The Puiseux half of the module rewrites a fractional power series exponent
list (m; N_1 < N_2 < ...) into the coprime cable pairs (m_i, n_i) of the
corresponding iterated torus knot, via e_0 = m, e_i = gcd(e_{i-1}, N_i),
m_i = e_{i-1}/e_i, n_i = N_i/e_i, stopping at the first e_k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


@dataclass(frozen=True)
class SupportPoly:
    """A polynomial in x, y with exact rational coefficients, stored by support.

    ``terms`` maps exponent pairs (i, j) to nonzero coefficients, kept as a
    sorted tuple of ((i, j), Fraction) pairs.
    """

    terms: tuple[tuple[tuple[int, int], Fraction], ...] = ()

    def __post_init__(self):
        keys = [k for k, _ in self.terms]
        if keys != sorted(set(keys)):
            raise ValueError("terms must be sorted by exponent pair, without repeats")
        for (i, j), c in self.terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            if c == 0:
                raise ValueError("zero coefficients may not be stored")

    @staticmethod
    def from_dict(coeffs: dict[tuple[int, int], Fraction | int]) -> SupportPoly:
        items = sorted((k, Fraction(c)) for k, c in coeffs.items() if c != 0)
        return SupportPoly(tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(k for k, _ in self.terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        for key, c in self.terms:
            if key == (i, j):
                return c
        return Fraction(0)

    def __add__(self, other: SupportPoly) -> SupportPoly:
        coeffs = dict(self.terms)
        for key, c in other.terms:
            coeffs[key] = coeffs.get(key, Fraction(0)) + c
        return SupportPoly.from_dict(coeffs)

    def __neg__(self) -> SupportPoly:
        return SupportPoly(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other: SupportPoly) -> SupportPoly:
        coeffs: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                coeffs[key] = coeffs.get(key, Fraction(0)) + c1 * c2
        return SupportPoly.from_dict(coeffs)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (i, j), c in sorted(self.terms, reverse=True):
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            mag = abs(c)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"{' - ' if c < 0 else ' + '}{body}")
        return "".join(pieces)


class _PolyParser:
    """Recursive descent for  poly := term (('+'|'-') term)*,
    term := [coef '*'] factor ('*' factor)*,  factor := ('x'|'y') ['^' uint],
    coef := int | int '/' uint.  A sign directly before a term is also accepted.
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
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start : self.pos])

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
        return SupportPoly.from_dict(coeffs)

    def parse_term(self) -> tuple[tuple[int, int], Fraction]:
        coef = Fraction(1)
        if self.peek().isdigit():
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


def parse_poly(text: str) -> SupportPoly:
    """Parse ASCII polynomial text such as ``"x^8 + y^2"`` or ``"3*x^2*y - 1/2*y^3"``."""
    return _PolyParser(text).parse()


def invariance_class(f: SupportPoly, p: int, q: int) -> int | None:
    """The residue k with f(zeta x, zeta^q y) = zeta^k f(x, y), or None.

    Exists exactly when all support pairs (i, j) share one residue
    i + q*j mod p.  Requires gcd(p,q) = 1 and f != 0.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime")
    if f.is_zero:
        raise ValueError("the zero polynomial has no invariance class")
    residues = {(i + q * j) % p for i, j in f.support()}
    if len(residues) == 1:
        return residues.pop()
    return None


def substitute_powers(f: SupportPoly, p: int) -> SupportPoly:
    """The polynomial f(x^p, y^p); its invariance class is 0 for every valid q.

    Requires f(0,0) = 0, so the result still vanishes at the origin and
    defines a link there.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if f.coefficient(0, 0) != 0:
        raise ValueError("the polynomial must vanish at the origin")
    return SupportPoly(tuple(((p * i, p * j), c) for (i, j), c in f.terms))


def torus_poly(a: int, b: int) -> SupportPoly:
    """x^a + y^b, whose zero set meets a small sphere in the torus link T(a,b)."""
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    return SupportPoly.from_dict({(a, 0): 1, (0, b): 1})


def torus_lift_class(a: int, b: int, p: int, q: int) -> int | None:
    """Invariance witness for x^a + y^b in L(p,q): a mod p if a = qb (mod p), else None.

    T(a,b) is the lift of an algebraic link in L(p,q) exactly when the
    witness exists.
    """
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    if p < 1:
        raise ValueError("p must be a positive integer")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime")
    if (a - q * b) % p == 0:
        return a % p
    return None


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


@dataclass(frozen=True)
class PuiseuxData:
    """Exponent data of a fractional power series y = sum a_i x^(N_i/m).

    ``m`` is the common denominator and ``exponents`` the strictly
    increasing numerators with m <= N_1.
    """

    m: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("the denominator m must be positive")
        if any(n < 1 for n in self.exponents):
            raise ValueError("exponents must be positive")
        if list(self.exponents) != sorted(set(self.exponents)):
            raise ValueError("exponents must be strictly increasing")
        if self.exponents and self.exponents[0] < self.m:
            raise ValueError("the first exponent must be at least m")


@dataclass(frozen=True)
class CableSequence:
    """Coprime pairs (m_i, n_i) of an iterated torus knot.

    Invariants: gcd(m_i, n_i) = 1, m_1 <= n_1, and n_i m_{i+1} < n_{i+1}.
    """

    pairs: tuple[tuple[int, int], ...] = ()

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

    def __str__(self) -> str:
        return "{" + "; ".join(f"({m},{n})" for m, n in self.pairs) + "}"


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
