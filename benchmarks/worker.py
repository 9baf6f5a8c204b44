"""Child process that makes the benchmark's CLI calls.

``run.py`` starts it from the checkout root with ``src`` on ``PYTHONPATH``,
so it runs only the one workload it was given and its ``ru_maxrss`` is that
workload's peak memory.  Every call goes in-process through
``lenslinks.cli.run(argv)`` with stdout and stderr captured, one client,
closed loop: each call starts when the previous one has returned.

Output, one JSON object per line on stdout:

* ``{"i", "pass", "code", "out", "err", "ns"}`` for each call, where ``i`` is
  the case's index in the run's pool and ``pass`` is ``warmup``, the
  number of a timed pass (0, 1, ...), ``untraced`` or ``traced``;
* ``{"reference_ms"}`` in timed runs: one timing of the host's reference
  task (hostspeed.py), which scales the calls written before it;
* a last line ``{"done": {...}}`` with the run's wall time, peak memory
  and, for a traced run, the per-layer metrics.

``run.py`` writes the run's pool of cases (workloads.pool) to stdin as
one JSON list of argv lists.  A timed run calls the whole pool once per pass,
each pass in a fresh seeded order.  It makes at least ``--min-passes``
whole passes, and then goes on until the calls have taken ``--seconds``,
so every case is called at least that many times, with its calls spread
over the run.

Usage: python3 benchmarks/worker.py --workload W --seed N --seconds S
       --trace 0|1 --min-passes K
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import hostspeed
import oracle
import spans
import workloads

WARMUP_CALLS = 3
REFERENCE_EVERY_S = 0.025  # at most 1 reference (about 5 ms) per 25 ms of calls
TRACE_MIN_CALLS = 10
TRACE_DIR = ".bench_out"
LAYERS = ("laurent", "invariants", "braid", "lens", "curves", "genus")
LIFT_KERNEL_WORD = [1, -2, 3, 2, 1]  # band "p 3 4 : 1 -2 3 2 1", p = 8, 16, 32


def call(cli, argv: list[str]) -> tuple[int | None, str, str, int]:
    """(exit code or None if it raised, stdout, stderr, elapsed ns) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.run(argv)
            elapsed = time.perf_counter_ns() - start
        except (Exception, SystemExit):
            elapsed = time.perf_counter_ns() - start
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue(), elapsed


def call_and_emit(cli, out, i: int, argv: list[str], label: str) -> tuple[str, int]:
    """Make one call and write its record to ``out``; returns (stdout, elapsed ns)."""
    code, stdout, stderr, ns = call(cli, argv)
    out.write(json.dumps({"i": i, "pass": label, "code": code, "out": stdout, "err": stderr, "ns": ns}) + "\n")
    return stdout, ns


def timed_passes(cli, pool, out, seconds, min_passes, seed) -> float:
    """Passes over ``pool``: at least ``min_passes`` whole ones, then calls until they have taken ``seconds``.

    Each pass calls the cases in a fresh seeded order.  Whenever the calls
    since the last reference have taken REFERENCE_EVERY_S, and once at the
    end, the host's reference task is timed and written as a
    ``{"reference_ms"}`` record; each call is scaled by the first one after
    it.  Returns the busy seconds: the wall time of the calls and their
    output records.  Nothing is kept, so peak memory does not grow with the
    number of passes.
    """
    busy, since_reference, index = 0.0, 0.0, list(range(len(pool)))
    for number in itertools.count():
        random.Random(f"pass:{seed}:{number}").shuffle(index)
        for i in index:
            if number >= min_passes and busy >= seconds:
                out.write(json.dumps({"reference_ms": hostspeed.reference_ms()}) + "\n")
                return busy
            start = time.perf_counter()
            call_and_emit(cli, out, i, pool[i], str(number))
            elapsed = time.perf_counter() - start
            busy += elapsed
            since_reference += elapsed
            if since_reference >= REFERENCE_EVERY_S:
                out.write(json.dumps({"reference_ms": hostspeed.reference_ms()}) + "\n")
                since_reference = 0.0


def untraced_calls(cli, pool, out, seconds, min_calls) -> list:
    """Calls in pool order, cycling, until they have taken ``seconds`` and ``min_calls`` are done.

    Returns the (index, argv, ns) of each call.
    """
    made, busy = [], 0.0
    for i, argv in itertools.cycle(enumerate(pool)):
        if len(made) >= min_calls and busy >= seconds:
            return made
        start = time.perf_counter()
        _, ns = call_and_emit(cli, out, i, argv, "untraced")
        busy += time.perf_counter() - start
        made.append((i, argv, ns))


def median_ms(fn, reps: int):
    """(median wall ms over ``reps`` calls, last result)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        result = fn()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times), result


def kernels(cli, seed: int) -> tuple[dict, bool]:
    """The fixed-size kernel rows of ROADMAP item 1, each result checked by the oracle."""
    from lenslinks.laurent import LaurentMatrix, LaurentPoly

    rng = random.Random(f"kernel:{seed}")
    check_rng = random.Random(f"kernel-check:{seed}")
    metrics, ok = {}, True

    def coef():
        return rng.choice((-1, 1)) * rng.randint(1, 99)

    for size, reps in ((200, 5), (1000, 3)):
        a = LaurentPoly(tuple((e, coef()) for e in range(size)))
        b = LaurentPoly(tuple((e, coef()) for e in range(size)))
        ms, product = median_ms(lambda: a * b, reps)
        ok &= oracle.check_product(a.terms, b.terms, product.terms, check_rng)
        metrics[f"laurent.kernel.mul_dense_{size}_ms"] = ms
    for d in (10, 12):
        rows = [[LaurentPoly.from_dict({e: coef() for e in (-1, 0, 1)}) for _ in range(d)] for _ in range(d)]
        matrix = LaurentMatrix.from_rows(rows)
        ms, det = median_ms(matrix.det, 3)
        ok &= oracle.check_det([[e.terms for e in row] for row in rows], det.terms, check_rng)
        metrics[f"laurent.kernel.det_dense_{d}_ms"] = ms
    for p in (8, 16, 32):
        params = {"p": p, "q": 3, "n": 4, "word": LIFT_KERNEL_WORD}
        case = workloads.Case(
            "alexander_band",
            ["alexander", "--band", workloads.band_text(p, 3, 4, LIFT_KERNEL_WORD), "--json"],
            params,
        )
        ms, (code, stdout, stderr, _) = median_ms(lambda: call(cli, case.argv), 3)
        ok &= oracle.check(case, code, stdout, stderr, check_rng) is None
        metrics[f"invariants.alexander.lift_p{p}_ms"] = ms
    return metrics, ok


def layer_metrics(tracer, calls: int) -> dict:
    """Span totals as means per CLI call; sizes named max_* stay maxima."""
    metrics = {}
    for name, (total, own, count) in tracer.spans.items():
        metrics[f"{name}.ms"] = total / 1e6 / calls
        metrics[f"{name}.self_ms"] = own / 1e6 / calls
        metrics[f"{name}.calls"] = count / calls
    for key, value in tracer.stats.items():
        metrics[key] = value / calls
    metrics["laurent.poly_new.calls"] = tracer.constructions / calls
    metrics.update(tracer.maxima)
    for layer in LAYERS:
        own = sum(s[1] for name, s in tracer.spans.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = own / 1e6 / calls
    return metrics


def traced_run(cli, pool, out, args) -> dict:
    """Untraced calls for a third of the run, then the same calls again with spans installed."""
    made = untraced_calls(cli, pool, out, args.seconds / 3, TRACE_MIN_CALLS)
    tracer = spans.Tracer()
    tracer.install()
    per_call, traced_ns, out_bytes = [], 0, 0
    try:
        for i, argv, _ in made:
            before = tracer.snapshot()
            stdout, ns = call_and_emit(cli, out, i, argv, "traced")
            after = tracer.snapshot()
            traced_ns += ns
            out_bytes += len(stdout.encode())
            delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
            per_call.append({"i": i, "argv": argv, "ms": ns / 1e6, "totals": delta})
    finally:
        tracer.uninstall()

    calls = len(made)
    untraced_ns = sum(ns for _, _, ns in made)
    metrics = layer_metrics(tracer, calls)
    metrics["cli.out_bytes"] = out_bytes / calls
    metrics["trace.overhead_ms"] = (traced_ns - untraced_ns) / 1e6 / calls
    metrics["trace.calls"] = calls
    kernel_metrics, kernels_ok = kernels(cli, args.seed)
    metrics.update(kernel_metrics)

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics, "calls": per_call}, f)
    return {"metrics": metrics, "kernels_ok": kernels_ok, "trace_file": path}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import lenslinks
    import lenslinks.cli as cli

    if not os.path.abspath(lenslinks.__file__).startswith(src + os.sep):
        print(f"lenslinks was imported from {lenslinks.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = sys.stdout
    pool = json.load(sys.stdin)
    for i in range(WARMUP_CALLS):
        call_and_emit(cli, out, i, pool[i], "warmup")

    if args.trace:
        done = traced_run(cli, pool, out, args)
    else:
        done = {"busy_s": timed_passes(cli, pool, out, args.seconds, args.min_passes, args.seed)}
    done["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"done": done}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
