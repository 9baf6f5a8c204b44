"""Tests of the benchmark itself; they need neither lenslinks nor a run.

    python3 -m pytest -q benchmarks/check_bench.py

The file name keeps these out of the repository's tier-1 test collection.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402


def argvs(workload, seed, count=60):
    return [case.argv for case in islice(workloads.cases(workload, seed), count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_and_other_seed_differs(workload):
    assert argvs(workload, 7) == argvs(workload, 7)
    assert argvs(workload, 7) != argvs(workload, 8)


def test_cli_mix_has_every_subcommand_and_ten_percent_malformed():
    cases = list(islice(workloads.cases("cli_mix", 3), 200))
    commands = {case.argv[0] for case in cases if case.kind != "malformed"}
    assert commands == {
        "invariance", "torus-test", "genus", "puiseux", "lift", "alexander", "homology", "nullhomologous",
    }
    assert sum(case.kind == "malformed" for case in cases) == 20


def check(case, fields, code=0, err=""):
    return oracle.check(case, code, json.dumps(fields), err, random.Random(0))


# Reference values that do not come from lenslinks: the trefoil T(2,3) and the
# figure-eight knot, and T(2,4) = the lift of the band "2 1 2 : 1" (word^2 and
# one full twist give s1^4), whose polynomial (t^4 - 1)/(1 + t) normalizes to
# 1 - t + t^2 - t^3.
TREFOIL = Case("alexander_braid", [], {"n": 2, "word": [1, 1, 1]})
FIGURE_EIGHT = Case("alexander_braid", [], {"n": 3, "word": [1, -2, 1, -2]})
LIFT_T24 = Case("alexander_band", [], {"p": 2, "q": 1, "n": 2, "word": [1]})


def test_oracle_accepts_known_alexander_polynomials():
    assert check(TREFOIL, {"strands": 2, "word": [1, 1, 1], "alexander": "1 - t + t^2"}) is None
    assert check(FIGURE_EIGHT, {"strands": 3, "word": [1, -2, 1, -2], "alexander": "1 - 3*t + t^2"}) is None
    fields = {"p": 2, "q": 1, "n": 2, "lifted_word": [1, 1, 1, 1], "alexander": "1 - t + t^2 - t^3"}
    assert check(LIFT_T24, fields) is None


@pytest.mark.parametrize("wrong", ["1 - 2*t + t^2", "1 + t^2", "1 - t + t^2 - t^3", "0", "t - t^2 + t^3", "1 - t +"])
def test_oracle_rejects_perturbed_alexander_polynomial(wrong):
    assert check(TREFOIL, {"strands": 2, "word": [1, 1, 1], "alexander": wrong}) is not None


def test_oracle_rejects_wrong_lifted_word():
    fields = {"p": 2, "q": 1, "n": 2, "lifted_word": [1, 1, 1], "alexander": "1 - t + t^2 - t^3"}
    assert check(LIFT_T24, fields) is not None


def test_oracle_rejects_wrong_lifted_components():
    # one 2-cycle in L(3,1): class 2, and perm^3 is still one 2-cycle
    case = Case("homology", [], {"p": 3, "q": 1, "n": 2, "word": [1], "signs": None})
    fields = {"p": 3, "q": 1, "n": 2, "components": 1, "classes": [2], "lifted_components": 1}
    assert check(case, fields) is None
    assert check(case, {**fields, "lifted_components": 2}) is not None
    assert check(case, {**fields, "classes": [1]}) is not None


def test_oracle_rejects_orientation_with_nonzero_sum():
    # three 1-cycles in L(3,1): + + + sums to 3 = 0 mod 3, + - + sums to 1
    case = Case("nullhomologous", [], {"p": 3, "q": 1, "n": 3, "word": []})
    base = {"p": 3, "q": 1, "n": 3, "exists": True}
    assert check(case, {**base, "orientation": ["+", "+", "+"]}) is None
    assert check(case, {**base, "orientation": ["+", "-", "+"]}) is not None
    assert check(case, {**base, "exists": False, "orientation": None}) is not None


def test_oracle_confirms_no_orientation_by_residue_table():
    # lengths 1, 1, 1 have an odd signed sum, never 0 mod 2
    case = Case("nullhomologous", [], {"p": 2, "q": 1, "n": 3, "word": []})
    assert check(case, {"p": 2, "q": 1, "n": 3, "exists": False, "orientation": None}) is None


def test_malformed_argv_fails_unless_it_exits_2_without_traceback():
    case = Case("malformed", ["frobnicate"], {})
    assert oracle.check(case, 2, "", "usage: ...", random.Random(0)) is None
    for code in (0, 1, 3, -1):
        assert oracle.check(case, code, "", "", random.Random(0)) is not None
    assert oracle.check(case, 2, "", "Traceback (most recent call last):", random.Random(0)) is not None


def test_kernel_checks_reject_wrong_results():
    rng = random.Random(0)
    a, b = [(0, 1), (1, 1)], [(0, 1), (1, -1)]
    assert oracle.check_product(a, b, [(0, 1), (2, -1)], rng)
    assert not oracle.check_product(a, b, [(0, 1), (2, 1)], rng)
    matrix = [[[(1, 1)], [(0, 2)]], [[(0, 3)], [(0, 1)]]]  # det = t - 6
    assert oracle.check_det(matrix, [(0, -6), (1, 1)], rng)
    assert not oracle.check_det(matrix, [(0, 6), (1, 1)], rng)


def test_p90_refuses_fewer_than_100_samples():
    with pytest.raises(ValueError):
        run.percentile90([1.0] * 99)
    assert run.percentile90([float(x) for x in range(100)]) == pytest.approx(89.9)


def test_calls_are_scaled_by_the_references_around_them_and_cases_take_the_median(monkeypatch):
    nominal = hostspeed.NOMINAL_MS
    lines = [
        {"i": 0, "pass": "warmup", "ns": 1e6},
        {"i": 0, "pass": "0", "ns": 5e6},
        {"i": 1, "pass": "0", "ns": 2e6},
        {"reference_ms": 2 * nominal},
        {"i": 0, "pass": "1", "ns": 3e6},
        {"i": 1, "pass": "1", "ns": 4e6},
        {"reference_ms": nominal},
        {"i": 0, "pass": "2", "ns": 9e6},
        {"i": 1, "pass": "2", "ns": 1e6},
        {"reference_ms": nominal / 2},
        {"done": {"busy_s": 1.0}},
    ]
    records, done = run.read_records([json.dumps(x) for x in lines])
    assert done == {"busy_s": 1.0} and len(records) == 7
    assert run.case_times_ms(records, scale=False) == [5.0, 2.0]
    # every window holds all three references, whose median is nominal
    assert run.case_times_ms(records) == [5.0, 2.0]
    monkeypatch.setattr(run, "REFERENCE_WINDOW", 1)
    records, _ = run.read_records([json.dumps(x) for x in lines])
    # case 0: 2.5, 3, 18 ms scaled; case 1: 1, 4, 2 ms scaled
    assert run.case_times_ms(records) == [3.0, 2.0]


def test_a_call_without_a_later_reference_is_refused():
    lines = [{"i": 0, "pass": "0", "ns": 5e6}, {"done": {}}]
    with pytest.raises(run.BenchError):
        run.read_records([json.dumps(x) for x in lines])


def test_fresh_interpreter_reports_its_reference_time():
    source = hostspeed.timed_child_source("import json")
    done = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, check=True)
    assert int(done.stdout) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pool_is_whole_rounds_of_at_least_100_cases(workload):
    size = workloads.POOL_SIZE[workload]
    assert size >= run.MIN_SAMPLES and size % 20 == 0
    assert [c.argv for c in workloads.pool(workload, 5)] == argvs(workload, 5, size)


def test_end_to_end_metrics_match_benchmark_json():
    nominal = hostspeed.NOMINAL_MS
    records = [{"i": k, "pass": str(p), "ns": 1e6 * (k + 1 + p), "reference_ms": nominal}
               for p in range(3) for k in range(100)]
    setup = [(0.1, nominal), (0.3, nominal), (0.1, nominal / 2)]
    values, cases = run.end_to_end(records, {"busy_s": 2.0, "maxrss_kb": 20480}, setup_times=setup)
    assert cases == 100
    assert set(values) == set(run.metric_units("end_to_end"))
    assert values["latency_p50_ms"] == 51.5 and values["peak_rss_mb"] == 20.0 and values["setup_s"] == 0.2
    assert values["calls_per_s"] == pytest.approx(1000 / 51.5)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
