"""The lenslinks benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload deep_lift --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the directory the command runs
in; without it the benchmark exits 2.  The run

1. times a fresh interpreter importing ``lenslinks.cli`` several times,
   half before and half after the calls (``setup_s``; untraced runs only);
2. starts ``worker.py`` in a child process that calls the workload's pool
   of at least 100 cases in passes, for ``--seconds`` seconds and at least
   three whole passes (see worker.py);
3. checks every call's exit code and output with ``oracle.py``, which never
   imports ``lenslinks``;
4. prints one summary line, then, as the last line, the JSON result with the
   end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
   Every timing is scaled to a host of nominal speed (hostspeed.py), and a
   case's latency is the median of its scaled calls.

Metric names, units and the workloads are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import oracle
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SPAWNS = 16  # half before the calls, half after
MIN_SAMPLES = 100  # cases per timed run, so that >= 10 lie beyond the p90
MIN_PASSES = 3  # calls of each case per timed run
REFERENCE_WINDOW = 9  # references whose median scales a call
RUN_LIMIT_S = 170  # the whole run, including set-up and checking


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit, in output order, of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class BenchError(RuntimeError):
    """The run could not be measured; the benchmark exits without a result."""


def percentile90(samples: list[float]) -> float:
    """The 90th percentile; refuses fewer than MIN_SAMPLES samples (fewer than 10 beyond it)."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"{len(samples)} samples; the p90 needs at least {MIN_SAMPLES}")
    return statistics.quantiles(samples, n=10)[8]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users import with the bytecode cache
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path, env: dict, spawns: int) -> list[tuple[float, float]]:
    """(wall s, reference ms) of ``spawns`` fresh interpreters importing lenslinks.cli.

    Each interpreter then times the host's reference task and prints it;
    the wall time is that of the whole process less the reference.
    """
    source = hostspeed.timed_child_source("import lenslinks.cli")
    times = []
    for _ in range(spawns):
        start = time.perf_counter_ns()
        done = subprocess.run(
            [sys.executable, "-c", source], cwd=root, env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter_ns() - start
        if done.returncode != 0:
            raise BenchError(f"import lenslinks.cli failed: {done.stderr[-500:]}")
        reference_ns = int(done.stdout)
        times.append(((elapsed - reference_ns) / 1e9, reference_ns / 1e6))
    return times


def run_worker(root: Path, env: dict, args, pool: list, timeout: float) -> tuple[list[dict], dict]:
    """(per-call records, done record) from one worker process that calls ``pool``."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--min-passes", str(MIN_PASSES),
    ]
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps([case.argv for case in pool]), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s; a call is hanging") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {stderr[-1000:]}")
    return read_records(stdout.splitlines())


def read_records(lines: list[str]) -> tuple[list[dict], dict]:
    """(per-call records, done record) from the worker's output lines.

    Each timed call gets as ``reference_ms`` the median of the
    REFERENCE_WINDOW references centred on the first one written after it:
    the host's speed around the call, with the jitter of single timings of
    the reference smoothed out.
    """
    records, done, references, timed = [], None, [], []
    for line in lines:
        record = json.loads(line)
        if "done" in record:
            done = record["done"]
        elif "reference_ms" in record:
            references.append(record["reference_ms"])
        else:
            records.append(record)
            if record["pass"].isdigit():
                timed.append((record, len(references)))
    if done is None or (timed and timed[-1][1] == len(references)):
        raise BenchError("worker ended without its summary line or its last reference")
    for record, after in timed:
        low = max(0, after - REFERENCE_WINDOW // 2)
        record["reference_ms"] = statistics.median(references[low:low + REFERENCE_WINDOW])
    return records, done


def verify(pool: list, seed: int, records: list[dict]) -> list[str]:
    """One reason per call that fails the oracle; equal calls are checked once."""
    rng = random.Random(f"oracle:{seed}")
    verdicts, failures = {}, []
    for r in records:
        case = pool[r["i"]]
        code = -1 if r["code"] is None else r["code"]
        key = (r["i"], code, r["out"], r["err"])
        if key not in verdicts:
            verdicts[key] = oracle.check(case, code, r["out"], r["err"], rng)
        if verdicts[key]:
            failures.append(f"{' '.join(case.argv)[:120]} -> {verdicts[key]}")
    return failures


def case_times_ms(records: list[dict], scale: bool = True) -> list[float]:
    """Per case of the pool, the median of its timed calls in ms, scaled to nominal host speed."""
    times = {}
    for r in records:
        if r["pass"].isdigit():
            ms = r["ns"] / 1e6
            times.setdefault(r["i"], []).append(hostspeed.scaled(ms, r["reference_ms"]) if scale else ms)
    return [statistics.median(times[i]) for i in sorted(times)]


def end_to_end(records: list[dict], done: dict, setup_times: list[tuple[float, float]]) -> tuple[dict, int]:
    latencies = case_times_ms(records)
    values = {
        "setup_s": statistics.median(hostspeed.scaled(s, ref) for s, ref in setup_times),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile90(latencies),
        "calls_per_s": 1000 * len(latencies) / sum(latencies),
        "peak_rss_mb": done["maxrss_kb"] / 1024,
    }
    return values, len(latencies)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "lenslinks" / "cli.py").is_file():
        print(f"error: no src/lenslinks/cli.py under {root}; run from a lenslinks checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        pool = workloads.pool(args.workload, args.seed)
        spawns = 0 if args.trace else SETUP_SPAWNS // 2
        setup_times = measure_setup(root, env, spawns + 1)[1:]  # the first spawn warms the caches
        timeout = RUN_LIMIT_S - (time.monotonic() - started) - 15
        records, done = run_worker(root, env, args, pool, timeout)
        setup_times += measure_setup(root, env, spawns)
        failures = verify(pool, args.seed, records)
        if args.trace:
            values, calls = done["metrics"], done["metrics"]["trace.calls"]
        else:
            values, calls = end_to_end(records, done, setup_times)
        units = metric_units("per_layer" if args.trace else "end_to_end")
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for reason in failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    correct = not failures and done.get("kernels_ok", True)
    # A per-layer span that a workload never enters reads 0.
    metrics = {name: {"value": float(values.get(name, 0) if args.trace else values[name]), "unit": unit}
               for name, unit in units.items()}
    summary = f"# workload={args.workload} seed={args.seed} trace={args.trace}"
    if args.trace:
        summary += f" calls={calls} trace_file={done['trace_file']}"
    else:
        unscaled = case_times_ms(records, scale=False)
        summary += f" cases={calls} passes={len({r['pass'] for r in records if r['pass'].isdigit()})}"
        summary += f" unscaled_p50_ms={statistics.median(unscaled):.4g} unscaled_p90_ms={percentile90(unscaled):.4g}"
        summary += f" unscaled_setup_s={statistics.median(s for s, _ in setup_times):.4g}"
        summary += f" reference_ms={statistics.median(r['reference_ms'] for r in records if r['pass'].isdigit()):.4g}"
    summary += f" attempted={len(records)} failed={len(failures)}"
    print(summary)
    result = {"correct": bool(correct), "attempted": len(records), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
