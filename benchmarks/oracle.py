"""Independent checks of every CLI result the benchmark produces.

Nothing here imports ``lenslinks``.  Each check recomputes the answer from
first principles with code of its own and returns ``None`` when the output
is right, or a one-line reason when it is not.

Alexander polynomials are checked by evaluation.  The reduced Burau matrix
of the word is built numerically modulo the prime P = 2^61 - 1 at t = r and
at t = r^2 (an O(d) column update per letter), and det(B - I)/(1 + ... +
t^(n-1)) is found by Gaussian elimination mod P.  If the program's
polynomial A is the oracle's polynomial D times a unit +-t^k, the ratio
R(x) = D(x)/A(x) satisfies R(r^2) = +-R(r)^2 with R(r) != 0; a wrong A
passes only when r hits one of at most deg roots, with probability about
deg/P.
"""

from __future__ import annotations

import json
import math
import random

P = (1 << 61) - 1


# --------------------------------------------------------------------------
# braid words


def cycles(n: int, letters: list[int]) -> list[list[int]]:
    """Cycles of the strand permutation of a braid word, sorted by minimum strand."""
    return image_cycles(permutation_image(n, letters))


def image_cycles(image: list[int]) -> list[list[int]]:
    """Cycles of i -> image[i] on 1..len(image)-1, each starting at its minimum."""
    seen = [False] * len(image)
    out = []
    for start in range(1, len(image)):
        if seen[start]:
            continue
        cycle, i = [], start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = image[i]
        out.append(cycle)
    return out


def permutation_image(n: int, letters: list[int]) -> list[int]:
    """image[i] = end position of the strand starting at i (index 0 unused)."""
    position = list(range(n + 1))  # position[strand] = current slot
    occupant = list(range(n + 1))  # occupant[slot] = strand
    for letter in letters:
        i = abs(letter)
        a, b = occupant[i], occupant[i + 1]
        occupant[i], occupant[i + 1] = b, a
        position[a], position[b] = i + 1, i
    return position


def garside(n: int) -> list[int]:
    """The half twist (s_{n-1}..s_1)(s_{n-1}..s_2)..(s_{n-1})."""
    return [i for low in range(1, n) for i in range(n - 1, low - 1, -1)]


def lift_word(p: int, q: int, n: int, letters: list[int]) -> list[int]:
    """word^p followed by the full twist to the power q."""
    return letters * p + garside(n) * (2 * q)


def permutation_power_cycles(n: int, letters: list[int], e: int) -> int:
    """Number of cycles of perm(word)^e, by composing the permutation e times."""
    image = permutation_image(n, letters)
    power = list(range(n + 1))
    for _ in range(e):
        power = [image[j] for j in power]
    return len(image_cycles(power))


# --------------------------------------------------------------------------
# Alexander polynomials mod P


def burau_mod(n: int, letters: list[int], t: int) -> list[list[int]]:
    """Reduced Burau matrix of the word at t, mod P, as a list of columns.

    Right multiplication by s_i replaces only column i with
    t*c_{i-1} - t*c_i + c_{i+1}; by s_i^-1 with c_{i-1} - c_i/t + c_{i+1}/t.
    Columns outside 1..n-1 are dropped.
    """
    d = n - 1
    cols = [[1 if r == c else 0 for r in range(d)] for c in range(d)]
    zero = [0] * d
    t_inv = pow(t, P - 2, P)
    for letter in letters:
        c = abs(letter) - 1
        left = cols[c - 1] if c > 0 else zero
        right = cols[c + 1] if c + 1 < d else zero
        mid = cols[c]
        if letter > 0:
            cols[c] = [(t * (a - b) + e) % P for a, b, e in zip(left, mid, right)]
        else:
            cols[c] = [(a + t_inv * (e - b)) % P for a, b, e in zip(left, mid, right)]
    return cols


def det_mod(rows: list[list[int]]) -> int:
    """Determinant mod P by Gaussian elimination."""
    m = [row[:] for row in rows]
    d, det = len(m), 1
    for k in range(d):
        pivot = next((i for i in range(k, d) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % P
        inv = pow(m[k][k], P - 2, P)
        for i in range(k + 1, d):
            f = m[i][k] * inv % P
            if f:
                m[i] = [(a - f * b) % P for a, b in zip(m[i], m[k])]
    return det % P


def alexander_mod(n: int, letters: list[int], t: int) -> int:
    """det(burau(w) - I) / (1 + t + ... + t^(n-1)) at t, mod P."""
    cols = burau_mod(n, letters, t)
    d = n - 1
    rows = [[(cols[c][r] - (r == c)) % P for c in range(d)] for r in range(d)]
    cyclic = sum(pow(t, k, P) for k in range(n)) % P
    return det_mod(rows) * pow(cyclic, P - 2, P) % P


def parse_laurent(text: str) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of text such as '1 - 3*t^2 + t^-1'."""
    if text.strip() == "0":
        return []
    terms = []
    for piece in text.replace(" - ", " + -").split(" + "):
        piece = piece.strip()
        sign = -1 if piece.startswith("-") else 1
        body = piece.lstrip("-")
        coef_text, star, var = body.partition("*")
        if not star:
            coef_text, var = ("1", body) if body.startswith("t") else (body, "")
        coef = sign * int(coef_text)
        if var == "":
            exp = 0
        elif var == "t":
            exp = 1
        elif var.startswith("t^"):
            exp = int(var[2:])
        else:
            raise ValueError(f"unreadable term {piece!r}")
        terms.append((exp, coef))
    return terms


def eval_laurent(terms: list[tuple[int, int]], t: int) -> int:
    return sum(c * pow(t, e, P) for e, c in terms) % P


def check_alexander(n: int, letters: list[int], text: str, rng: random.Random) -> str | None:
    """None when ``text`` is the unit-normalized Alexander polynomial of the closure."""
    try:
        terms = parse_laurent(text)
    except ValueError as exc:
        return f"unparsable polynomial: {exc}"
    exps = [e for e, _ in terms]
    if terms and (exps != sorted(set(exps)) or exps[0] != 0 or terms[0][1] <= 0):
        return "polynomial is not unit-normalized"
    r = rng.randrange(2, P - 1)
    r2 = r * r % P
    d1, d2 = alexander_mod(n, letters, r), alexander_mod(n, letters, r2)
    if not terms:
        return None if d1 == d2 == 0 else "program gives 0, oracle does not"
    a1, a2 = eval_laurent(terms, r), eval_laurent(terms, r2)
    if a1 == 0 or a2 == 0:
        return "program polynomial vanishes at the evaluation point"
    ratio1 = d1 * pow(a1, P - 2, P) % P
    ratio2 = d2 * pow(a2, P - 2, P) % P
    square = ratio1 * ratio1 % P
    if ratio1 == 0 or ratio2 not in (square, (P - square) % P):
        return "polynomial differs from the oracle's by more than a unit"
    return None


# --------------------------------------------------------------------------
# genus and Puiseux arithmetic


def torus_genus(a: int, b: int) -> tuple[int, int, int, int | None]:
    """(p, lift genus, lift components, quotient genus or None) of T(a, b).

    The standard torus braid has b strands and a(b-1) positive letters, so
    its fiber has chi = b - a(b-1); the closure has gcd(a, b) components and
    genus (2 - chi - r)/2.  The quotient genus (g + p - 1)/p exists only
    when that is an integer.
    """
    p = r = math.gcd(a, b)
    chi = b - a * (b - 1)
    genus = (2 - chi - r) // 2
    quotient = (genus + p - 1) // p if (genus + p - 1) % p == 0 else None
    return p, genus, r, quotient


def quotient_genus(p: int, k: int, lift_genus: int) -> int | None:
    """(2g + p + d - 2) / (2d) with d = gcd(p, k), or None when that is not an integer."""
    d = math.gcd(p, k)
    num = 2 * lift_genus + p + d - 2
    return num // (2 * d) if num % (2 * d) == 0 else None


def puiseux_pairs(m: int, exponents: list[int], characteristic_only: bool):
    """Cable pairs from the gcd chain e_0 = m, e_i = gcd(e_{i-1}, N_i); None if it stops above 1."""
    e, pairs = m, []
    for big_n in exponents:
        if e == 1:
            break
        e_next = math.gcd(e, big_n)
        pairs.append([e // e_next, big_n // e_next])
        e = e_next
    if e != 1:
        return None
    return [pair for pair in pairs if pair[0] > 1] if characteristic_only else pairs


# --------------------------------------------------------------------------
# per-subcommand checks


def _expect(fields: dict, **expected) -> str | None:
    for key, value in expected.items():
        if key not in fields:
            return f"missing field {key!r}"
        if fields[key] != value:
            return f"{key} = {fields[key]!r}, expected {value!r}"
    return None


def _fields_alexander_band(c, f, rng):
    p, q, n, word = c.params["p"], c.params["q"], c.params["n"], c.params["word"]
    lifted = lift_word(p, q, n, word)
    return _expect(f, p=p, q=q, n=n, lifted_word=lifted) or check_alexander(
        n, lifted, f.get("alexander", ""), rng
    )


def _fields_alexander_braid(c, f, rng):
    n, word = c.params["n"], c.params["word"]
    return _expect(f, strands=n, word=word) or check_alexander(n, word, f.get("alexander", ""), rng)


def _fields_invariance(c, f, rng):
    p, q = c.params["p"], c.params["q"]
    residues = {(i + q * j) % p for i, j in c.params["support"]}
    k = residues.pop() if len(residues) == 1 else None
    return _expect(f, p=p, q=q, invariant=k is not None, k=k)


def _fields_torus_test_q(c, f, rng):
    a, b, p, q = (c.params[x] for x in "abpq")
    # support {(a, 0), (0, b)} has residues a and q*b mod p
    k = a % p if (a - q * b) % p == 0 else None
    return _expect(f, a=a, b=b, p=p, q=q, lift_of_link=k is not None, k=k)


def _fields_torus_test(c, f, rng):
    # The correct knot criterion is an open defect, so only the schema is checked.
    a, b, p = (c.params[x] for x in "abp")
    if not isinstance(f.get("lift_of_knot"), bool):
        return "lift_of_knot is not a boolean"
    return _expect(f, a=a, b=b, p=p)


def _fields_genus_torus(c, f, rng):
    p, genus, r, quotient = torus_genus(c.params["a"], c.params["b"])
    return _expect(f, p=p, lift_genus=genus, lift_components=r, quotient_genus=quotient)


def _fields_genus_quotient(c, f, rng):
    p, k, g = c.params["p"], c.params["k"], c.params["g"]
    return _expect(
        f, p=p, k=k, lift_genus=g, quotient_genus=quotient_genus(p, k, g), unvalidated_regime=k != 0
    )


def _fields_puiseux(c, f, rng):
    m, exps = c.params["m"], c.params["exponents"]
    return _expect(f, m=m, exponents=exps, pairs=puiseux_pairs(m, exps, c.params["char_only"]))


def _fields_lift(c, f, rng):
    p, q, n, word = c.params["p"], c.params["q"], c.params["n"], c.params["word"]
    return _expect(
        f,
        p=p,
        q=q,
        n=n,
        lifted_word=lift_word(p, q, n, word),
        components=permutation_power_cycles(n, word, p),
    )


def _fields_homology(c, f, rng):
    p, q, n, word = c.params["p"], c.params["q"], c.params["n"], c.params["word"]
    cyc = cycles(n, word)
    signs = c.params["signs"] or [1] * len(cyc)
    return _expect(
        f,
        p=p,
        q=q,
        n=n,
        components=len(cyc),
        classes=[(s * len(cycle)) % p for s, cycle in zip(signs, cyc)],
        lifted_components=permutation_power_cycles(n, word, p),
    )


def _fields_nullhomologous(c, f, rng):
    p, q, n, word = c.params["p"], c.params["q"], c.params["n"], c.params["word"]
    lengths = [len(cycle) for cycle in cycles(n, word)]
    bad = _expect(f, p=p, q=q, n=n)
    if bad:
        return bad
    orientation = f.get("orientation")
    if f.get("exists") is True:
        if not isinstance(orientation, list) or len(orientation) != len(lengths):
            return "orientation does not list one sign per component"
        if any(s not in ("+", "-") for s in orientation):
            return "orientation signs must be '+' or '-'"
        total = sum(l if s == "+" else -l for s, l in zip(orientation, lengths))
        return None if total % p == 0 else f"orientation sums to {total}, not 0 mod {p}"
    if f.get("exists") is False:
        if orientation is not None:
            return "orientation given although exists is false"
        reachable = {0}
        for l in lengths:
            reachable = {(x + l) % p for x in reachable} | {(x - l) % p for x in reachable}
        return "a nullhomologous orientation exists" if 0 in reachable else None
    return "exists is not a boolean"


_CHECKS = {
    "alexander_band": _fields_alexander_band,
    "alexander_braid": _fields_alexander_braid,
    "invariance": _fields_invariance,
    "torus_test_q": _fields_torus_test_q,
    "torus_test": _fields_torus_test,
    "genus_torus": _fields_genus_torus,
    "genus_quotient": _fields_genus_quotient,
    "puiseux": _fields_puiseux,
    "lift": _fields_lift,
    "homology": _fields_homology,
    "nullhomologous": _fields_nullhomologous,
}


def check(case, code: int, out: str, err: str, rng: random.Random) -> str | None:
    """None when one CLI call's exit code and output are right for ``case``."""
    if "Traceback" in err:
        return "traceback on stderr"
    if case.kind == "malformed":
        return None if code == 2 else f"malformed argv exited {code}, expected 2"
    if code != 0:
        return f"exited {code}: {err.strip()[-200:]}"
    try:
        fields = json.loads(out)
    except ValueError:
        return "stdout is not one JSON object"
    if not isinstance(fields, dict):
        return "stdout is not one JSON object"
    return _CHECKS[case.kind](case, fields, rng)


# --------------------------------------------------------------------------
# kernel results


def check_product(a, b, product, rng: random.Random) -> bool:
    """a*b == product for term lists, tested at a random point mod P."""
    r = rng.randrange(2, P - 1)
    return eval_laurent(a, r) * eval_laurent(b, r) % P == eval_laurent(product, r)


def check_det(matrix, det, rng: random.Random) -> bool:
    """det(matrix) == det for a matrix of term lists, tested at a random point mod P."""
    r = rng.randrange(2, P - 1)
    rows = [[eval_laurent(entry, r) for entry in row] for row in matrix]
    return det_mod(rows) == eval_laurent(det, r)
