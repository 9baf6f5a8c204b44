"""The host's speed, read from a fixed task timed next to every measurement.

The benchmark runs on shared virtual machines whose speed drifts: on the
2-vCPU VM it was built on, a pure-Python loop ran up to 1.9x slower for
tens of seconds at a time, at every granularity from 4 ms to 64 ms, with no
steal time.  Such a drift moves every wall time of a run alike, so the
benchmark times :func:`reference` next to each measurement and scales the
measurement to a host on which the reference takes NOMINAL_MS.  The
reference is the benchmark's own code and never changes, so a change to
``lenslinks`` moves the scaled times in the same proportion as the wall
times.

The reference is dict- and allocation-bound polynomial arithmetic, like the
program's own.  In slow spells on the VM it slowed by about as much as the
program did (1.75x against 1.7x), where a plain integer loop slowed by only
1.5x and left a fifth of the drift in the scaled times.
"""

from __future__ import annotations

import inspect
import time

# The reference's duration on the nominal host; the VM above took 4-8 ms.
NOMINAL_MS = 5.0


def reference() -> tuple:
    """Fifty products of two fixed 24-term Laurent polynomials held as {exponent: coefficient} dicts."""
    a = [(e, (e * 7919) % 1000003 - 500000) for e in range(24)]
    b = [(e, (e * 104729) % 1000003 - 500000) for e in range(-4, 20)]
    terms = ()
    for _ in range(50):
        product: dict[int, int] = {}
        for ea, ca in a:
            for eb, cb in b:
                product[ea + eb] = product.get(ea + eb, 0) + ca * cb
        terms = tuple(sorted((e, c) for e, c in product.items() if c))
    return terms


def reference_ms() -> float:
    """Wall ms of one call of :func:`reference`."""
    start = time.perf_counter_ns()
    reference()
    return (time.perf_counter_ns() - start) / 1e6


def scaled(ms: float, reference_ms: float) -> float:
    """``ms`` measured next to a reference that took ``reference_ms``, at nominal speed."""
    return ms * NOMINAL_MS / reference_ms


def timed_child_source(statement: str) -> str:
    """Python source that runs ``statement``, then prints the ns one reference takes.

    It lets a fresh interpreter report its own speed: the caller's wall time
    of the whole process, less the printed ns, is the time of ``statement``
    and the interpreter's start.
    """
    return "\n".join([
        statement,
        "import time",
        inspect.getsource(reference),
        "start = time.perf_counter_ns()",
        "reference()",
        "print(time.perf_counter_ns() - start)",
    ])
