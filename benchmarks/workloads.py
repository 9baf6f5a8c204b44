"""Seeded argv streams for the three benchmark workloads.

Each workload is an endless iterator of :class:`Case` values.  ``argv`` is
everything the program sees; ``params`` holds the generator's own record of
the input (braid letters, lens parameters, polynomial support, ...), which
the oracle checks the output against without re-parsing the argv.

Inputs are drawn in rounds: every round visits each stratum of the
workload once, in a shuffled order.  A run therefore sees nearly the same
mix of input sizes whatever the seed, so less of the run-to-run spread of
the latency percentiles comes from an unlucky draw of sizes.

A run calls a fixed pool of the first :data:`POOL_SIZE` cases of its
stream, in several passes (see worker.py).  Each pool is a whole number of
rounds.

This module is pure stdlib and never imports ``lenslinks``; the arithmetic it
uses to keep inputs valid comes from :mod:`oracle`.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from itertools import islice
from typing import Iterator, NamedTuple

from oracle import P, burau_mod, cycles, lift_word, puiseux_pairs, quotient_genus, torus_genus

WORKLOADS = ("deep_lift", "wide_closure", "cli_mix")
# Cases per run: whole rounds and at least 100, as the p90 needs.  Fewer
# cases give more passes, so more calls of each case, in a run.
POOL_SIZE = {"deep_lift": 100, "wide_closure": 100, "cli_mix": 200}


class Case(NamedTuple):
    kind: str
    argv: list[str]
    params: dict


def units(p: int) -> list[int]:
    """The q with 1 <= q < p and gcd(p, q) = 1."""
    return [q for q in range(1, p) if math.gcd(p, q) == 1]


def random_word(rng: random.Random, n: int, length: int) -> list[int]:
    """Letters drawn uniformly from the 2(n-1) signed generators."""
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def word_text(letters: list[int]) -> str:
    return " ".join(str(x) for x in letters)


def band_text(p: int, q: int, n: int, letters: list[int], signs=None) -> str:
    text = f"{p} {q} {n} : {word_text(letters)}"
    if signs is not None:
        text += " | " + " ".join("+" if s > 0 else "-" for s in signs)
    return text


def stratified(rng: random.Random, draw, stratum, count: int) -> Iterator:
    """Endless draws in rounds that take one draw from each of ``count`` strata.

    ``stratum(x)`` is the index of draw ``x``'s stratum, or None to drop it.
    A draw that lands in another stratum than the one wanted waits in that
    stratum's bucket for a later round, so few draws are wasted.
    """
    buckets = [[] for _ in range(count)]
    while True:
        order = list(range(count))
        rng.shuffle(order)
        for k in order:
            while not buckets[k]:
                x = draw()
                s = stratum(x)
                if s is not None:
                    buckets[s].append(x)
            yield buckets[k].pop(0)


# --------------------------------------------------------------------------
# deep_lift: alexander --band, lifted words of a few hundred letters


def burau_terms(n: int, letters: list[int]) -> int:
    """Sum over the letters of the terms of the reduced Burau matrix after that letter.

    The program multiplies its whole matrix by each letter's generator, so
    its time follows the sizes of the entries.  This builds the matrix
    itself, with entries as {exponent: coefficient} dicts: s_i makes column
    i t*c_{i-1} - t*c_i + c_{i+1}, and s_i^-1 makes it c_{i-1} - c_i/t +
    c_{i+1}/t.
    """
    d = n - 1
    columns = [[({0: 1} if r == c else {}) for r in range(d)] for c in range(d)]
    work = 0
    for letter in letters:
        c = abs(letter) - 1
        left = columns[c - 1] if c > 0 else None
        right = columns[c + 1] if c + 1 < d else None
        if letter > 0:
            parts = ((1, 1, left), (1, -1, columns[c]), (0, 1, right))
        else:
            parts = ((0, 1, left), (-1, -1, columns[c]), (-1, 1, right))
        column = []
        for r in range(d):
            entry: dict[int, int] = {}
            for shift, sign, source in parts:
                if source is not None:
                    for e, v in source[r].items():
                        entry[e + shift] = entry.get(e + shift, 0) + sign * v
            column.append({e: v for e, v in entry.items() if v})
        columns[c] = column
        work += sum(len(entry) for col in columns for entry in col)
    return work


def _deep_draw(rng: random.Random) -> tuple[int, int, int, list[int], int]:
    n, p = rng.choice((4, 5)), rng.randint(10, 18)
    q = rng.choice(units(p))
    letters = random_word(rng, n, rng.choice((4, 5)))
    return n, p, q, letters, burau_terms(n, lift_word(p, q, n, letters))


def deep_lift(rng: random.Random) -> Iterator[Case]:
    # Per-call time spans 20x across these inputs and follows burau_terms
    # (correlation 0.96 on the development VM), so each round takes one
    # input from each 5% band of burau_terms (20 bands, from a fixed pilot
    # sample); the p90 then falls between two bands.
    pilot = random.Random("deep_lift:pilot")
    bands = statistics.quantiles([_deep_draw(pilot)[4] for _ in range(400)], n=20)
    draws = stratified(rng, lambda: _deep_draw(rng), lambda x: bisect.bisect(bands, x[4]), 20)
    for n, p, q, letters, _ in draws:
        yield Case(
            "alexander_band",
            ["alexander", "--band", band_text(p, q, n, letters), "--json"],
            {"p": p, "q": q, "n": n, "word": letters},
        )


# --------------------------------------------------------------------------
# wide_closure: alexander --braid on 12 strands, 11x11 Burau matrices

WIDE_STRANDS = 12
WIDE_LETTERS = (60, 66)  # 5n .. 5.5n


def laplace_products(rows: list[list[int]]) -> int:
    """Products made by the memoized Laplace expansion of a matrix given mod P.

    Row k is multiplied into every nonzero k-column minor of the rows above
    it, one product per nonzero entry outside the minor's columns.  Minors
    and entries that vanish as polynomials vanish mod P at a random t (and
    the converse fails with negligible probability), so this counts the
    polynomial products of that expansion, which set the cost of a
    cofactor determinant.
    """
    d, products = len(rows), 0
    minors = {0: 1}
    for k, row in enumerate(rows):
        grown: dict[int, int] = {}
        for subset, minor in minors.items():
            if not minor:
                continue
            position = 0
            for j, entry in enumerate(row):
                bit = 1 << j
                if subset & bit:
                    position += 1
                elif entry:
                    products += 1
                    term = entry * minor if (position + k) % 2 == 0 else -entry * minor
                    grown[subset | bit] = (grown.get(subset | bit, 0) + term) % P
        minors = grown
    return products


def _wide_draw(rng: random.Random, t: int) -> tuple[list[int], int]:
    n = WIDE_STRANDS
    letters = random_word(rng, n, rng.randint(*WIDE_LETTERS))
    columns = burau_mod(n, letters, t)
    rows = [[(columns[c][r] - (r == c)) % P for c in range(n - 1)] for r in range(n - 1)]
    return letters, laplace_products(rows)


def wide_closure(rng: random.Random) -> Iterator[Case]:
    # The Burau product costs about the same for every word of this length;
    # the determinant of B - I spans 100x and follows laplace_products.  So,
    # as in deep_lift, each round takes one word from each 5% band of it.
    pilot = random.Random("wide_closure:pilot")
    pilot_t = pilot.randrange(2, P)
    bands = statistics.quantiles([_wide_draw(pilot, pilot_t)[1] for _ in range(400)], n=20)
    t = rng.randrange(2, P)
    draws = stratified(rng, lambda: _wide_draw(rng, t), lambda x: bisect.bisect(bands, x[1]), 20)
    for letters, _ in draws:
        yield Case(
            "alexander_braid",
            ["alexander", "--braid", word_text(letters), "--strands", str(WIDE_STRANDS), "--json"],
            {"n": WIDE_STRANDS, "word": letters},
        )


# --------------------------------------------------------------------------
# cli_mix: every subcommand on small inputs, plus malformed argv


def _invariance(rng):
    p = rng.randint(2, 12)
    q = rng.choice(units(p))
    size = rng.randint(1, 4)
    support = set()
    if rng.random() < 0.5:
        # force one common residue so that about half the cases are invariant
        k = rng.randrange(p)
        while len(support) < size:
            j = rng.randint(0, 6)
            i = (k - q * j) % p + p * rng.randint(0, 2)
            if (i, j) != (0, 0):
                support.add((i, j))
    else:
        while len(support) < size:
            pair = (rng.randint(0, 10), rng.randint(0, 10))
            if pair != (0, 0):
                support.add(pair)
    terms = []
    for i, j in sorted(support):
        factors = ([f"x^{i}"] if i else []) + ([f"y^{j}"] if j else [])
        num = rng.randint(1, 9)
        coef = f"{num}/{rng.randint(2, 5)}*" if rng.random() < 0.2 else (f"{num}*" if num > 1 else "")
        sign = rng.choice(("+", "-"))
        terms.append((sign, coef + "*".join(factors)))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    argv = ["invariance", f"--poly={text}", "--p", str(p), "--q", str(q), "--json"]
    return Case("invariance", argv, {"p": p, "q": q, "support": sorted(support)})


def _torus_test_q(rng):
    p = rng.randint(2, 12)
    q = rng.choice(units(p))
    b = rng.randint(1, 30)
    a = rng.randint(1, 30)
    if rng.random() < 0.5:
        a = (q * b) % p + p * rng.randint(0, 3) or p
    argv = ["torus-test", "--a", str(a), "--b", str(b), "--p", str(p), "--q", str(q), "--json"]
    return Case("torus_test_q", argv, {"a": a, "b": b, "p": p, "q": q})


def _torus_test(rng):
    p = rng.randint(1, 8)
    a, b = p * rng.randint(1, 6), p * rng.randint(1, 6)
    if rng.random() < 0.5:
        a = rng.randint(1, 40)
    argv = ["torus-test", "--a", str(a), "--b", str(b), "--p", str(p), "--json"]
    return Case("torus_test", argv, {"a": a, "b": b, "p": p})


def _genus_torus(rng):
    while True:
        a, b = rng.randint(2, 24), rng.randint(2, 24)
        if torus_genus(a, b)[3] is not None:
            break
    argv = ["genus", "--torus", str(a), str(b), "--json"]
    return Case("genus_torus", argv, {"a": a, "b": b})


def _genus_quotient(rng):
    while True:
        p = rng.randint(1, 20)
        k = rng.choice((0, rng.randrange(p)))
        g = rng.randint(0, 60)
        if quotient_genus(p, k, g) is not None:
            break
    argv = ["genus", "--quotient", str(p), str(k), str(g), "--json"]
    return Case("genus_quotient", argv, {"p": p, "k": k, "g": g})


def _puiseux(rng):
    char_only = rng.random() < 0.3
    while True:
        m = rng.randint(2, 12)
        exps = sorted(rng.sample(range(m, 6 * m + 1), rng.randint(1, 4)))
        if puiseux_pairs(m, exps, char_only) is not None:
            break
    argv = ["puiseux", "--m", str(m), "--exponents", ",".join(map(str, exps))]
    argv += ["--characteristic-only"] if char_only else []
    return Case("puiseux", argv + ["--json"], {"m": m, "exponents": exps, "char_only": char_only})


def _lift(rng):
    p = rng.randint(2, 12)
    q = rng.choice(units(p))
    n = rng.randint(2, 4)
    letters = random_word(rng, n, rng.randint(1, 5))
    argv = ["lift", "--band", band_text(p, q, n, letters), "--json"]
    return Case("lift", argv, {"p": p, "q": q, "n": n, "word": letters})


def _alexander_braid(rng):
    n = rng.randint(2, 5)
    letters = random_word(rng, n, rng.randint(1, 12))
    argv = ["alexander", "--braid", word_text(letters), "--strands", str(n), "--json"]
    return Case("alexander_braid", argv, {"n": n, "word": letters})


def _homology(rng):
    p = rng.randint(2, 60)
    q = rng.choice(units(p))
    n = rng.randint(2, 6)
    letters = random_word(rng, n, rng.randint(1, 8))
    signs = None
    if rng.random() < 0.5:
        signs = [rng.choice((1, -1)) for _ in cycles(n, letters)]
    argv = ["homology", "--band", band_text(p, q, n, letters, signs), "--json"]
    return Case("homology", argv, {"p": p, "q": q, "n": n, "word": letters, "signs": signs})


def _nullhomologous(rng, r, exhaustive):
    # The sum of +-(cycle lengths) has the parity of n, so an odd n with an
    # even p has no solution and the search visits all 2^r sign vectors.
    while True:
        k = rng.randint(1, 4)
        n = r + k
        if exhaustive and n % 2 == 0:
            continue
        letters = random_word(rng, n, k)
        if len(cycles(n, letters)) == r:
            break
    p = 2 * rng.randint(1, 30) if exhaustive else rng.randint(2, 60)
    q = rng.choice(units(p))
    argv = ["nullhomologous", "--band", band_text(p, q, n, letters), "--json"]
    return Case("nullhomologous", argv, {"p": p, "q": q, "n": n, "word": letters})


_MALFORMED = (
    lambda rng: ["frobnicate", "--json"],
    lambda rng: ["invariance", "--poly", "x^2 + y^3", "--json"],
    lambda rng: ["torus-test", "--a", f"x{rng.randint(1, 9)}", "--b", "2", "--p", "2", "--json"],
    lambda rng: ["homology", "--band", f"{rng.randint(2, 9)} 1 : 1 1", "--json"],
    lambda rng: ["lift", "--band", f"5 2 3 : 1 {rng.randint(3, 9)}", "--json"],
    lambda rng: ["invariance", "--poly", "x^2 + + z", "--p", "3", "--q", "1", "--json"],
    lambda rng: ["nullhomologous", "--band", f"6 {rng.choice((2, 3, 4))} 3 : 1 2", "--json"],
    lambda rng: ["homology", "--band", "5 2 3 : 1 | + x", "--json"],
    lambda rng: ["puiseux", "--m", "6", "--exponents", "6,x", "--json"],
    lambda rng: ["genus", "--torus", "6", "4", "--quotient", "2", "0", "1", "--json"],
    lambda rng: ["alexander", "--braid", "1 0 2", "--strands", "4", "--json"],
)


def _malformed(rng):
    return Case("malformed", rng.choice(_MALFORMED)(rng), {})


# One round of cli_mix: 20 calls, 2 of them (10%) malformed and 4 (20%)
# nullhomologous.  Three of the four search all 2^12 sign vectors, so the
# three dearest calls of most rounds cost the same and the p90, which falls
# among them, sits on a plateau rather than on the step between two search
# sizes.  The fourth search walks r through 8..14 with a random p, so it
# mostly stops early, and lands above or below the plateau.
_MIX_ROUND = (
    [_invariance] * 2
    + [_torus_test_q, _torus_test, _genus_torus, _genus_quotient]
    + [_puiseux] * 2
    + [_lift] * 2
    + [_alexander_braid] * 2
    + [_homology] * 2
    + [_nullhomologous] * 4
    + [_malformed] * 2
)
PLATEAU_COMPONENTS = 12


def cli_mix(rng: random.Random) -> Iterator[Case]:
    walk = 0
    while True:
        order = _MIX_ROUND[:]
        rng.shuffle(order)
        searches = 0
        for make in order:
            if make is _nullhomologous:
                if searches < 3:
                    yield make(rng, PLATEAU_COMPONENTS, True)
                else:
                    yield make(rng, 8 + walk % 7, False)
                    walk += 1
                searches += 1
            else:
                yield make(rng)


def cases(workload: str, seed: int) -> Iterator[Case]:
    """The endless, seed-determined stream of cases for ``workload``."""
    generator = {"deep_lift": deep_lift, "wide_closure": wide_closure, "cli_mix": cli_mix}
    if workload not in generator:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return generator[workload](random.Random(f"{workload}:{seed}"))


def pool(workload: str, seed: int) -> list[Case]:
    """The cases one run of ``workload`` calls: the first POOL_SIZE of its stream."""
    return list(islice(cases(workload, seed), POOL_SIZE[workload]))
