"""Values at a random point modulo a prime: an independent route to exact results.

Two Laurent polynomials that agree at a random t = r mod P are equal with
probability at least 1 - (degree span) / P, so an exact determinant is
checked against Gaussian elimination over the field Z/P.
"""

import random

P = 2**61 - 1


def random_point(seed) -> int:
    return random.Random(seed).randrange(2, P - 1)


def poly_mod(poly, r: int) -> int:
    """The value of a LaurentPoly at t = r, modulo P."""
    return sum(c * pow(r, e, P) for e, c in poly.terms) % P


def det_mod(rows: list[list[int]]) -> int:
    """Determinant modulo P by Gaussian elimination with row swaps."""
    a = [[x % P for x in row] for row in rows]
    d = len(a)
    det = 1
    for k in range(d):
        pivot = next((i for i in range(k, d) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % P
        inverse = pow(a[k][k], -1, P)
        for i in range(k + 1, d):
            factor = a[i][k] * inverse % P
            if factor:
                a[i] = [(x - factor * y) % P for x, y in zip(a[i], a[k])]
    return det % P
