"""Values at a random point modulo a prime: an independent route to exact results.

Two Laurent polynomials that agree at a random t = r mod P are equal with
probability at least 1 - (degree span) / P, so an exact determinant is
checked against Gaussian elimination over the field Z/P.
"""

import random

P = 2**61 - 1


def random_point(seed, modulus=P) -> int:
    return random.Random(seed).randrange(2, modulus - 1)


def poly_mod(poly, r: int, modulus=P) -> int:
    """The value of a LaurentPoly at t = r, modulo ``modulus``."""
    return sum(c * pow(r, e, modulus) for e, c in poly.terms) % modulus


def closure_mod(strands: int, letters, r: int, modulus=P) -> list[list[int]]:
    """The rows of burau(w) - id at t = r, modulo ``modulus``, from the generator matrices.

    The product is kept as columns: right-multiplying by the generator of
    ``letter`` replaces column i = |letter| - 1 by the combination of columns
    i - 1, i, i + 1 that the generator's column i holds.
    """
    d = strands - 1
    cols = [[int(row == col) for row in range(d)] for col in range(d)]
    inverse = pow(r, -1, modulus)
    for letter in letters:
        i = abs(letter) - 1
        weights = (r, -r, 1) if letter > 0 else (1, -inverse, inverse)
        new = [0] * d
        for j, weight in zip((i - 1, i, i + 1), weights):
            if 0 <= j < d:
                new = [(x + weight * y) % modulus for x, y in zip(new, cols[j])]
        cols[i] = new
    return [[cols[c][row] - (row == c) for c in range(d)] for row in range(d)]


def det_mod(rows: list[list[int]], modulus=P) -> int:
    """Determinant modulo the prime ``modulus`` by Gaussian elimination with row swaps."""
    a = [[x % modulus for x in row] for row in rows]
    d = len(a)
    det = 1
    for k in range(d):
        pivot = next((i for i in range(k, d) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % modulus
        inverse = pow(a[k][k], -1, modulus)
        for i in range(k + 1, d):
            factor = a[i][k] * inverse % modulus
            if factor:
                a[i] = [(x - factor * y) % modulus for x, y in zip(a[i], a[k])]
    return det % modulus


def is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for b in bases:
        if m % b == 0:
            return m == b
    odd, twos = m - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in bases:
        x = pow(b, odd, m)
        if x in (1, m - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def root_of_unity_field(p: int) -> tuple[int, int]:
    """(Q, zeta): the largest prime Q < 2^61 with Q = 1 mod p, and an element of order exactly p mod Q."""
    modulus = (2**61 - 2) // p * p + 1
    while not is_prime(modulus):
        modulus -= p
    factors = {f for f in range(2, p + 1) if p % f == 0 and all(f % g for g in range(2, f))}
    for g in range(2, modulus):
        zeta = pow(g, (modulus - 1) // p, modulus)
        if all(pow(zeta, p // f, modulus) != 1 for f in factors):
            return modulus, zeta
    raise AssertionError("unreachable: the multiplicative group mod a prime is cyclic")


def lift_numerator_mod(burau, n: int, power: int, twists: int, r: int, modulus: int, zeta: int) -> int:
    """det(t^(n*twists) M^power - id) at t = r^power mod ``modulus``, from the rows of M = ``burau`` alone.

    At t = r^power the unit t^(n*twists) is s^power with s = r^(n*twists),
    so the matrix is (sM)^power - id, and x^power - 1 = prod_j (x - zeta^j)
    factors its determinant as prod_{j < power} det(sM - zeta^j id), the
    characteristic polynomial of sM at the roots of unity: no matrix power
    and no power sum.
    """
    t = pow(r, power, modulus)
    s = pow(r, n * twists, modulus)
    entries = [[s * poly_mod(entry, t, modulus) % modulus for entry in row] for row in burau]
    value = 1
    for j in range(power):
        root = pow(zeta, j, modulus)
        rows = [[x - root if i == c else x for c, x in enumerate(row)] for i, row in enumerate(entries)]
        value = value * det_mod(rows, modulus) % modulus
    return value
