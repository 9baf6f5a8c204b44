"""The command-line contract: JSON fields, exit codes and size refusals."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lenslinks
import lenslinks.cli as cli
import lenslinks.invariants
import lenslinks.laurent
import lenslinks.lens
from lenslinks.errors import ConsistencyError, DivisibilityError
from modp import P, closure_mod, det_mod, random_point

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "cli_golden.json").read_text())
# Error argv with their exit code and stderr, the same on every supported
# interpreter; cli_errors.py checks them in new processes without pytest.
ERRORS = json.loads((FIXTURES / "cli_errors.json").read_text(encoding="utf-8"))
SRC = str(Path(lenslinks.__file__).resolve().parent.parent)


def run(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv):
    """(exit code, stdout, stderr) of the same call in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "lenslinks.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


# Every case pins its text output; the subcommand cases pin their JSON too,
# and the --help cases (recorded with COLUMNS=80) only their text.
JSON_CASES = [case for case in GOLDEN if "json" in case]


def _ids(cases):
    return [" ".join(case["argv"]) for case in cases]


@pytest.mark.parametrize("case", JSON_CASES, ids=_ids(JSON_CASES))
def test_golden_json(capsys, case):
    code, out, err = run(capsys, case["argv"] + ["--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == case["json"]


@pytest.mark.parametrize("case", GOLDEN, ids=_ids(GOLDEN))
def test_golden_text(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, case["argv"]) == (0, case["text"], "")


@pytest.mark.parametrize("case", JSON_CASES, ids=_ids(JSON_CASES))
def test_golden_text_renders_from_golden_json(case):
    # The text is a function of the JSON fields alone.
    assert cli._text(case["argv"][0], case["json"]) + "\n" == case["text"]


@pytest.mark.parametrize("case", JSON_CASES, ids=_ids(JSON_CASES))
def test_json_builds_no_text(capsys, monkeypatch, case):
    def refuse(command, fields):
        raise AssertionError("text rendered under --json")

    monkeypatch.setattr(cli, "_text", refuse)
    code, out, err = run(capsys, case["argv"] + ["--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == case["json"]


@pytest.mark.parametrize("case", ERRORS, ids=[" ".join(case["argv"])[:60] for case in ERRORS])
def test_error_fixture(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, case["argv"]) == (case["code"], "", case["stderr"])


def test_golden_covers_every_help():
    helps = {tuple(case["argv"]) for case in GOLDEN if "json" not in case}
    subcommands = {case["argv"][0] for case in JSON_CASES}
    assert helps == {("--help",)} | {(name, "--help") for name in subcommands}


def test_golden_covers_both_alexander_inputs():
    flags = {case["argv"][1] for case in JSON_CASES if case["argv"][0] == "alexander"}
    assert flags == {"--band", "--braid"}


def test_import_leaves_out_dataclasses_inspect_and_fractions():
    # Each CLI call is a new process, so what the import loads is paid on
    # every call; -S keeps site's own imports out of the check.
    source = (
        "import sys\n"
        "import lenslinks.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))\n"
        "f = lenslinks.cli.parse_poly('1/2*x^2 + y^3')\n"
        "print([type(c).__name__ for _, c in f.terms], f)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", source],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n['Fraction', 'Fraction'] 1/2*x^2 + y^3\n"


# Public code that no subcommand needs, each with the reason it stays.
REACH_EXEMPT: dict[str, str] = {}


def _method_code(cls, name):
    """Code object -> "name.attr" of each method, property and operator written in ``cls``."""
    codes = {}
    for attr, value in vars(cls).items():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        code = getattr(value, "__code__", None)
        if code is not None:
            codes[code] = f"{name}.{attr}"
    return codes


def _public_code():
    """Code object -> name of each exported function, and of each method,
    property and operator written in an exported non-exception class."""
    codes = {}
    for name in lenslinks.__all__:
        obj = getattr(lenslinks, name)
        if not isinstance(obj, type):
            codes[obj.__code__] = name
        elif not issubclass(obj, BaseException):
            codes.update(_method_code(obj, name))
    return codes


@functools.cache
def _entered_by_goldens() -> frozenset:
    """The code objects that the golden argvs enter, with and without --json."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for case in GOLDEN:
            for extra in ([], ["--json"]) if "json" in case else ([],):
                run_captured(case["argv"] + extra)
    finally:
        sys.setprofile(previous)
    return frozenset(entered)


def test_every_public_name_is_reached():
    # Public code is either entered by some golden argv or exempt: code that
    # only tests call belongs in the tests.
    entered = _entered_by_goldens()
    unreached = sorted(name for code, name in _public_code().items() if code not in entered)
    assert unreached == sorted(REACH_EXEMPT), f"no golden argv enters {unreached}"


# Code of the arithmetic layers that no golden argv enters, each with the
# reason it stays.
PRIVATE_REACH_EXEMPT: dict[str, str] = {
    "laurent.LaurentMatrix.from_rows": "benchmarks/worker.py packs the rows of its det_dense_{10,12} kernel matrices with it",
    "laurent.LaurentMatrix.size": "benchmarks/spans.py's det hook reads it as laurent.det.max_dim, which CI's smoke step asserts",
}


def _module_code(module):
    """Code object -> name of each function defined in ``module``, and of
    each method, property and operator of the classes defined there."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    codes = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            codes.update(_method_code(obj, f"{prefix}.{name}"))
        elif hasattr(obj, "__code__"):
            codes[obj.__code__] = f"{prefix}.{name}"
    return codes


def test_every_private_function_is_reached():
    # Connect or delete: every function of the arithmetic layers, private
    # ones too, is entered by some golden argv or exempt with its reason.
    entered = _entered_by_goldens()
    codes = {**_module_code(lenslinks.laurent), **_module_code(lenslinks.invariants)}
    unreached = sorted(name for code, name in codes.items() if code not in entered)
    assert unreached == sorted(PRIVATE_REACH_EXEMPT), f"no golden argv enters {unreached}"


def test_text_output(capsys):
    code, out, _ = run(capsys, ["alexander", "--braid", "1 1 1", "--strands", "2"])
    assert (code, out) == (0, "alexander: 1 - t + t^2\n")


class TestExitCodes:
    def test_success(self, capsys):
        assert run(capsys, ["genus", "--torus", "9", "3"])[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["alexander", "--braid", "1 1"],  # --braid without --strands
            ["genus", "--torus", "0", "2"],
            ["genus", "--torus", "6", "2"],  # non-integral genus
        ],
    )
    def test_domain_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["lift"],  # missing --band
            ["genus", "--torus", "9", "x"],
            ["alexander", "--band", "3 1 : 1"],  # bad header
            ["alexander", "--braid", "1 5", "--strands", "3"],  # generator out of range
            ["homology", "--band", "4 2 2 : 1"],  # p, q not coprime
        ],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["alexander", "--braid", "", "--strands", "0"], 1),
            (["alexander", "--braid", "1", "--strands", "0"], 1),
            (["alexander", "--braid", "1", "--strands", "-3"], 1),
            (["alexander", "--braid", "x", "--strands", "0"], 1),
            (["alexander", "--band", "3 1 0 :"], 2),
            (["alexander", "--band", "3 1 0 : 1"], 2),
            (["alexander", "--band", "3 1 -2 : 1"], 2),
            (["lift", "--band", "3 1 0 : 1 x"], 2),
        ],
    )
    def test_strand_count_checked_before_letters(self, capsys, argv, code):
        # A strand count below 1 gives one message whatever the letters: exit
        # 1 on --braid, and 2 in a band diagram, where it is a parse error.
        assert run(capsys, argv) == (code, "", "error: a braid needs at least one strand\n")

    @pytest.mark.parametrize(
        "poly, err",
        [
            # A superscript is a digit but not a decimal, and int() refuses it.
            ("x^\u00b2", "expected a number (at position 2)"),
            ("\u00b2*x + y", "expected a variable, got '\u00b2' (at position 0)"),
            # Past 4,300 digits int() refuses a decimal string.
            ("x^" + "9" * 5000 + " + y", "a number of 5000 digits is too long (at position 2)"),
            ("1/" + "9" * 5000 + "*x", "a number of 5000 digits is too long (at position 2)"),
            # It would print as "2", which does not parse.
            ("x^0 + y^0", "a term must have positive degree (at position 0)"),
        ],
        ids=["superscript-exponent", "superscript-coefficient", "long-exponent", "long-denominator", "degree-zero"],
    )
    def test_malformed_poly_number(self, capsys, poly, err):
        assert run(capsys, ["invariance", "--poly", poly, "--p", "3", "--q", "1"]) == (2, "", f"error: {err}\n")

    def test_empty_poly(self, capsys):
        # "--poly=--" is the text "--" on every interpreter, as on 3.13;
        # argparse before 3.13 handed it over as an empty list, which read as
        # an empty polynomial.
        argv = ["invariance", "--poly=--", "--p", "3", "--q", "1"]
        assert run(capsys, argv) == (2, "", "error: expected a variable (at position 2)\n")

    def test_poly_accepts_any_decimal_digit(self, capsys):
        # ARABIC-INDIC DIGIT THREE is a decimal digit, which int() reads as 3.
        argv = ["invariance", "--poly", "x^\u0663 + y", "--p", "3", "--q", "1", "--json"]
        code, out, _ = run(capsys, argv)
        assert (code, json.loads(out)["poly"]) == (0, "x^3 + y")

    @pytest.mark.parametrize("error", [ConsistencyError, DivisibilityError])
    def test_consistency_fault(self, capsys, monkeypatch, error):
        def broken(*args):
            raise error("injected")

        monkeypatch.setattr(cli, "alexander_of_closure", broken)
        code, out, err = run(capsys, ["alexander", "--band", "3 1 2 : 1 1"])
        expected = "internal consistency fault: injected; reproduce with: lenslinks alexander --band '3 1 2 : 1 1'\n"
        assert (code, out, err) == (3, "", expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "--band", "5 2 3 : 1 | + -", "--json"],
            ["homology", "--band", "3 1 2 : 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1"],
        ],
    )
    def test_fault_message_reproduces_argv(self, capsys, monkeypatch, argv):
        # Quoting survives the shell: the printed command splits back into argv.
        def broken(*args):
            raise ConsistencyError("injected")

        monkeypatch.setattr(cli, "lifted_component_count", broken)
        code, _, err = run(capsys, argv)
        assert code == 3
        reproduce = err.rstrip("\n").split("; reproduce with: lenslinks ", 1)[1]
        assert shlex.split(reproduce) == argv

    def test_unexpected_exception_exits_3_with_its_class(self, capsys, monkeypatch):
        # The last resort: an exception no clause expects is a fault of the
        # program, reported like a consistency fault and never as a traceback.
        def broken(*args):
            raise KeyError("injected")

        monkeypatch.setattr(cli, "homology_classes", broken)
        code, out, err = run(capsys, ["homology", "--band", "5 2 3 : 1 2", "--json"])
        expected = "internal error: KeyError: 'injected'; reproduce with: lenslinks homology --band '5 2 3 : 1 2' --json\n"
        assert (code, out, err) == (3, "", expected)

    def test_fault_message_from_process_argv(self, capsys, monkeypatch):
        def broken(*args):
            raise DivisibilityError("injected")

        monkeypatch.setattr(cli, "alexander_of_closure", broken)
        monkeypatch.setattr(sys, "argv", ["lenslinks", "alexander", "--band", "3 1 2 : 1 1"])
        assert cli.run() == 3
        assert capsys.readouterr().err.endswith("lenslinks alexander --band '3 1 2 : 1 1'\n")


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["alexander", "--braid", "", "--strands", "1"], "alexander: 1"),
        (["alexander", "--band", "3 1 1 :"], "alexander: 1"),
        (["lift", "--band", "3 1 1 :", "--compare-torus", "5", "1"], "equal_up_to_unit: true"),
    ],
)
def test_single_strand_closure_is_unknot(capsys, argv, last_line):
    # homology --band "3 1 1 :" and genus --torus 5 1 answer the unknot too.
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last_line


@pytest.mark.parametrize(
    "band, a, b, equal",
    [
        ("3 1 2 : 1 1", 8, 2, True),
        ("3 1 2 : 1 1", 6, 2, False),
        ("3 1 3 : 2 1 2 1", 9, 3, True),
        ("3 1 3 : 2 1 2 1", 10, 3, False),
    ],
)
def test_compare_torus_in_either_order(capsys, band, a, b, equal):
    # T(a,b) = T(b,a): the torus braid goes on whichever parameter is the
    # lift's strand count, here b.
    for pair in ([a, b], [b, a]):
        argv = ["lift", "--band", band, "--compare-torus", *map(str, pair)]
        code, out, err = run(capsys, argv + ["--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["equal_up_to_unit"] is equal
        assert run(capsys, argv)[1].splitlines()[-1] == f"equal_up_to_unit: {str(equal).lower()}"


TORUS_PAIRS = [(a, b) for a in range(1, 31) for b in range(a, 31)] + [(2, 999999)]


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--torus"],
        ["lift", "--band", "3 1 2 : 1 1", "--compare-torus"],
        ["lift", "--band", "3 1 3 : 2 1 2 1", "--compare-torus"],
    ],
    ids=["genus", "lift-2-strands", "lift-3-strands"],
)
def test_torus_inputs_answer_alike_in_either_order(capsys, argv):
    # T(a,b) = T(b,a): genus --torus builds the closure on min(a, b) strands
    # and --compare-torus the one on the lift's, and each is sized as built,
    # so both orders print the same values; --compare-torus echoes its order.
    def values(pair):
        code, out, err = run(capsys, argv + [*map(str, pair), "--json"])
        return code, err, {k: v for k, v in json.loads(out).items() if k != "compare_torus"} if out else None

    for a, b in TORUS_PAIRS:
        assert values((a, b)) == values((b, a)), (a, b)
        if argv[0] == "genus":
            assert run(capsys, argv + [str(a), str(b)]) == run(capsys, argv + [str(b), str(a)]), (a, b)


def test_compare_torus_span_answers_without_the_torus_polynomial(capsys, monkeypatch):
    # T(999999,2)'s polynomial has 999,999 terms; the lift's spans 7, not
    # (999999-1)(2-1), so only the lift's polynomial is built.
    built = []

    def spy(*args):
        built.append(args)
        return lenslinks.invariants.alexander_of_closure(*args)

    monkeypatch.setattr(cli, "alexander_of_closure", spy)
    for pair in (["999999", "2"], ["2", "999999"]):
        code, out, _ = run(capsys, ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", *pair, "--json"])
        assert code == 0
        assert json.loads(out)["equal_up_to_unit"] is False
    assert [args[0].strands for args in built] == [2, 2]
    assert [args[1:] for args in built] == [(3, 1), (3, 1)]


def test_compare_torus_span_test_keeps_memory_small():
    # Building T(999999,2)'s polynomial took 125 MB at its peak; the span
    # test answers in the memory of the interpreter and the import.  Linux
    # carries a process's peak RSS across exec into its child, so a small
    # interpreter starts the call and reads its child's peak.
    argv = ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "999999", "2", "--json"]
    source = (
        "import resource, subprocess, sys\n"
        f"done = subprocess.run([sys.executable, '-m', 'lenslinks.cli', *{argv!r}], capture_output=True, text=True)\n"
        "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, done.stdout)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    code, peak_kb, out = done.stdout.split(maxsplit=2)
    assert code == "0"
    assert json.loads(out)["equal_up_to_unit"] is False
    assert int(peak_kb) < 30 * 1024


def test_torus_test_agrees_with_genus(capsys):
    # With p = gcd(a,b), T(a,b) lifts a knot exactly when the quotient genus
    # (g~ + p - 1)/p is an integer.
    for a in range(1, 25):
        for b in range(1, 25):
            p = math.gcd(a, b)
            _, out, _ = run(capsys, ["torus-test", "--a", str(a), "--b", str(b), "--p", str(p), "--json"])
            knot = json.loads(out)["lift_of_knot"]
            assert run(capsys, ["genus", "--torus", str(a), str(b)])[0] == (0 if knot else 1), (a, b)


def alexander_mod(strands, letters, r):
    """det(burau - id) / (1 + t + ... + t^(n-1)) at t = r mod P, from the generator matrices."""
    numerator = det_mod(closure_mod(strands, letters, r))
    return numerator * pow(sum(pow(r, k, P) for k in range(strands)), -1, P) % P


def printed_mod(text, r):
    """The value at t = r mod P of a polynomial as ``LaurentPoly.__str__`` prints it."""
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, var, power = term.lstrip("-").partition("t")
        exponent = int(power.lstrip("^") or 1) if var else 0
        total += sign * int(coeff.rstrip("*") or 1) * pow(r, exponent, P)
    return total % P


# A p of 4,300 digits, the most that int() reads from text.
HUGE_P = 9 * 10**4299 + 1


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv, size",
        [
            (["genus", "--torus", "1200", "1200"], 1200 * 1199),
            (["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "1000001", "2"], 1000001),
            (["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "1001", "1001"], 1001 * 1000),
            (["alexander", "--band", "3 1 1001 :"], 1001 * 1000),
            (["lift", "--band", "3 2 1000 :"], 2 * 1000 * 999),
        ],
    )
    def test_refused_with_size(self, capsys, argv, size):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert f"would have {size} letters; refusing" in err

    def test_refused_before_building(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the size check")

        for name in ("torus_closure", "lift", "homology_classes", "bennequin_fiber"):
            monkeypatch.setattr(cli, name, forbidden)
        for argv in (
            ["genus", "--torus", "1200", "1200"],
            ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "1001", "1001"],
            ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "2", "1000002"],
            ["homology", "--band", "3 2 1000 :"],
        ):
            assert run(capsys, argv)[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [["lift", "--band", "3 1 2 : 1 1", "--compare-torus", a, b] for a, b in [("0", "2"), ("-8", "2"), ("2", "-8"), ("2", "0")]]
        + [["genus", "--torus", "0", "3"]],
        ids=["lift 0 2", "lift -8 2", "lift 2 -8", "lift 2 0", "genus 0 3"],
    )
    def test_non_positive_torus_refused_before_building(self, capsys, monkeypatch, argv):
        # _torus_on checks the signs before the lift, its component count or
        # the torus braid is built.
        def forbidden(*args):
            raise AssertionError("built before the sign check")

        for name in ("torus_closure", "lift", "lifted_component_count", "bennequin_fiber"):
            monkeypatch.setattr(cli, name, forbidden)
        monkeypatch.setattr(lenslinks.lens, "lift", forbidden)
        assert run(capsys, argv) == (1, "", "error: torus parameters must be positive\n")

    def test_torus_link_never_spelled_out(self, capsys):
        # T(333333, 4) enters as run^1 . Delta^(2*83333): spelled out, its
        # 999,999 letters took minutes and hundreds of MB.
        argv = ["lift", "--band", "3 1 4 : 1 2 3", "--compare-torus", "333333", "4", "--json"]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert json.loads(out)["equal_up_to_unit"] is False

    def test_torus_genus_answered_quickly(self, capsys):
        # 999,000 letters spelled out; as a triple, one run of 999 letters.
        start = time.perf_counter()
        code, _, err = run(capsys, ["genus", "--torus", "1000", "1000"])
        assert time.perf_counter() - start < 0.05
        assert code == 1
        assert "is not an integer" in err

    def test_orientation_table_refused(self, capsys):
        # The strand limit bounds the table at 256 masks of 257 bits.
        code, _, err = run(capsys, ["nullhomologous", "--band", "1009 1 1200 :"])
        assert code == 1
        assert "band diagram would have 1200 strands; refusing" in err

    def test_homology_does_not_count_the_lift(self, capsys):
        # Neither command builds the 2,000,000-letter lift of this diagram.
        code, out, _ = run(capsys, ["homology", "--band", "2000000 1 2 : 1", "--json"])
        assert code == 0
        assert json.loads(out)["classes"] == [2]
        assert json.loads(out)["lifted_components"] == 2
        code, out, _ = run(capsys, ["nullhomologous", "--band", "2000000 1 2 : 1", "--json"])
        assert code == 0
        assert json.loads(out)["orientation"] is None

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["lift", "--band", f"{HUGE_P} 1 2 : " + "1 " * 20], "lifted word"),
            (["genus", "--torus", str(HUGE_P), "20"], f"torus braid T({HUGE_P},20)"),
            (["alexander", "--band", f"{HUGE_P} 1 2 : 1"], "lifted word"),
        ],
        ids=["lift", "genus", "alexander"],
    )
    def test_huge_size_refused_quickly(self, capsys, argv, what):
        # The sizes run past 4,300 digits, which str() refuses; the message
        # gives the leading power of two instead.
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {what} would have at least 2^")
        assert err.endswith(" letters; refusing\n")

    @pytest.mark.parametrize("p", [1_000_003, 2**61 - 1, 2**200 + 1])
    def test_homology_of_large_p_answered_quickly(self, capsys, p):
        # 2,000 letters on 256 strands: perm(word)^p takes log2(p) squarings.
        rng = random.Random(p)
        letters = " ".join(str(rng.choice([-1, 1]) * rng.randint(1, 255)) for _ in range(2000))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["homology", "--band", f"{p} 1 256 : {letters}", "--json"])
        assert time.perf_counter() - start < 1
        assert code == 0
        fields = json.loads(out)
        assert fields["components"] == len(fields["classes"]) >= 1

    def test_power_of_empty_word_answered_quickly(self, capsys):
        # Only the closing twist is left of the lift; no pass over the
        # billion copies of the empty word is made.
        code, out, _ = run(capsys, ["alexander", "--band", "1000000000 1 2 :", "--json"])
        assert code == 0
        assert json.loads(out)["alexander"] == "1 - t"

    @pytest.mark.parametrize(
        "argv",
        [
            ["genus", "--torus", str(2**64), "1"],
            ["lift", "--band", f"{2**64} 1 2 :"],
            ["homology", "--band", f"{2**64} 1 2 :"],
        ],
    )
    def test_huge_repeat_of_nothing(self, capsys, argv):
        # An empty word or run repeated 2^64 times is empty, not an overflow.
        assert run(capsys, argv)[0] == 0

    def test_many_components_answered_quickly(self, capsys):
        # 41 odd-length components mod 2: no solution, which a search over
        # all 2^41 sign vectors would never finish proving.
        code, out, _ = run(capsys, ["nullhomologous", "--band", "2 1 41 :", "--json"])
        assert code == 0
        assert json.loads(out)["exists"] is False

    @pytest.mark.parametrize("n", [24, 28, 32])
    def test_long_dense_braids_answered_quickly(self, capsys, monkeypatch, n):
        # 8n mixed-sign letters on n strands: a cofactor determinant of the
        # (n-1)x(n-1) Burau matrix would take tens of seconds.  Each reduced
        # word keeps every generator, so the answer takes the determinant of
        # the two half-length passes.  The seed is n, except on 24 strands:
        # the word of random.Random(24) reduces to a split closure (see
        # below), and 25 is the next seed whose reduced word keeps them all.
        rng = random.Random(25 if n == 24 else n)
        letters = [rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(8 * n)]
        det_numerator, calls = lenslinks.invariants._det_numerator, []
        monkeypatch.setattr(lenslinks.invariants, "_det_numerator", lambda *args: calls.append(1) or det_numerator(*args))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["alexander", "--braid", " ".join(map(str, letters)), "--strands", str(n), "--json"])
        assert time.perf_counter() - start < 5
        assert code == 0
        assert calls == [1]
        r = random_point(n)
        printed, expected = printed_mod(json.loads(out)["alexander"], r), alexander_mod(n, letters, r)
        # Equal up to a unit +-t^k; the normalized polynomial starts at t^0.
        units = {sign * pow(r, k, P) % P for sign in (1, -1) for k in range(-9 * n, 9 * n + 1)}
        assert any(printed * unit % P == expected for unit in units)

    @pytest.mark.parametrize("n", [255, 24])
    def test_word_that_reduces_to_a_split_closure_answered_quickly(self, capsys, n):
        # Once reduced, each word misses a generator: its closure is split,
        # and the answer 0 needs no pass.  Unreduced, the 255-strand word
        # took 137 s to reach the same 0.  On 255 strands each generator
        # comes twice with one sign, among 257 random letters; on 24 the
        # word is the 8n letters of random.Random(24), drawn as above.
        rng = random.Random(8 if n == 255 else n)
        if n == 255:
            letters = [sign * i for i in range(1, n) for sign in [rng.choice((1, -1))] * 2]
            letters += [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(257)]
            rng.shuffle(letters)
        else:
            letters = [rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(8 * n)]
        start = time.perf_counter()
        code, out, _ = run(capsys, ["alexander", "--braid", " ".join(map(str, letters)), "--strands", str(n)])
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "alexander: 0\n")


class TestRepeatedCalls:
    @pytest.mark.parametrize(
        "failing",
        [
            ["frobnicate"],
            ["lift"],
            ["alexander", "--band", "3 1 : 1"],
            ["genus", "--torus", "6", "2"],
            ["genus", "--torus", "2", "3", "extra"],
            ["genus", "-h"],
            ["genus", "--tor", "2", "x"],
        ],
    )
    def test_error_then_valid_call_matches_fresh_process(self, capsys, monkeypatch, failing):
        monkeypatch.setenv("COLUMNS", "80")
        valid = ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "8", "2", "--json"]
        first = run(capsys, failing)
        second = run(capsys, valid)
        assert first == run_fresh(failing)
        assert second == run_fresh(valid)

    @pytest.mark.parametrize(
        "command, walks",
        [("homology", 1), ("lift", 1), ("nullhomologous", 1), ("alexander", 1), ("genus", 1)],
    )
    def test_permutation_walks(self, capsys, monkeypatch, command, walks):
        # A band diagram walks its word once, when it is built; the
        # orientation check, the classes, both routes of the lifted count and
        # the orientation search read that walk.  genus --torus walks the run
        # of its (word, power, twists) triple once.
        original, calls = lenslinks.braid.permutation, []

        def counted(w):
            calls.append(w)
            return original(w)

        for name, module in list(sys.modules.items()):
            if name.startswith("lenslinks.") and getattr(module, "permutation", None) is original:
                monkeypatch.setattr(module, "permutation", counted)
        if command == "genus":
            argvs = [["genus", "--torus", "9", "3"]]
        else:
            argvs = [[command, "--band", band] for band in ("3 1 2 : 1 1", "3 1 2 : 1 1 | + -")]
        for argv in argvs:
            calls.clear()
            assert run(capsys, argv)[0] == 0, argv
            assert len(calls) == walks, argv

    @pytest.mark.parametrize(
        "argv, validations",
        [
            (["alexander", "--braid", "1 -2 1", "--strands", "3"], 0),
            (["alexander", "--band", "5 2 3 : 1 2"], 1),
        ],
        ids=["braid", "band"],
    )
    def test_validates_the_parsed_word_once(self, capsys, monkeypatch, argv, validations):
        # parse_braid_word checks each letter with its position and builds
        # the word without checking it again; only garside(n), for the
        # closing twist of a band's lift, goes through BraidWord's own check.
        check, calls = lenslinks.braid.BraidWord.__post_init__, []

        def counted(w):
            calls.append(len(w))
            return check(w)

        monkeypatch.setattr(lenslinks.braid.BraidWord, "__post_init__", counted)
        assert run(capsys, argv)[0] == 0
        assert len(calls) == validations

    @pytest.mark.parametrize(
        "band, letters",
        [
            ("7 3 4 : 1 -2 3 2", 4),
            ("500 1 3 : 1 -2", 2),
            ("7 3 5 : 1 -2 3 4", 28),
            ("7 3 2 : 1 1 -1", 0),
            ("1 0 4 : 1 -2 3 2", 4),
        ],
    )
    def test_burau_pass_letters(self, capsys, monkeypatch, band, letters):
        # A lift on 3 or 4 strands passes over its word once and takes the
        # power from the pass's characteristic polynomial; on 2 strands the
        # matrix is the unit (-t)^(exponent sum) and no pass is made; on 5
        # strands the word enters the pass p times.
        original, calls = lenslinks.invariants._burau_pass, []

        def counted(d, steps, power, k, stride):
            calls.append(len(steps) * power)
            return original(d, steps, power, k, stride)

        monkeypatch.setattr(lenslinks.invariants, "_burau_pass", counted)
        assert run(capsys, ["alexander", "--band", band])[0] == 0
        assert sum(calls) == letters

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["alexander", "--braid", "1 1 1", "--strands", "2"], 0),
            (["alexander", "--braid", "1 -2 1 -2", "--strands", "3"], 0),
            (["alexander", "--braid", "1 -2 3 2 -1", "--strands", "4"], 0),
            (["lift", "--band", "3 1 3 : 2 1 2 1", "--compare-torus", "9", "3"], 0),
            (["alexander", "--braid", "1 -2 3 -4 2", "--strands", "5"], 0),
            (["alexander", "--braid", "1 -2 3 -4 5 2", "--strands", "6"], 0),
            (["alexander", "--braid", "1 -2 3 -4 5 -6 2", "--strands", "7"], 1),
        ],
    )
    def test_burau_matrix_and_det_only_on_seven_or_more_strands(self, capsys, monkeypatch, argv, calls):
        # On 2 to 6 strands the power sums and principal minors build no
        # Burau matrix and take no determinant, at power 1 and at power 0
        # (T(9,3)) too; on 7 the two half-length passes build u Y - X^-1.
        counts = {"_det_numerator": 0, "det": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(lenslinks.invariants, "_det_numerator")
        counted(lenslinks.laurent.LaurentMatrix, "det")
        # The determinant route splits no packed column into rows of terms,
        # which would unpack each of the 36 entries of the 6x6 u Y - X^-1,
        # and makes no LaurentPoly per entry: it unpacks the determinant
        # alone, at its width K = 16 bits; the passes pack at 8.
        unpack, trusted, widths, made = lenslinks.laurent._unpack, lenslinks.laurent._trusted, [], []
        monkeypatch.setattr(lenslinks.laurent, "_unpack", lambda x, k, low: widths.append(k) or unpack(x, k, low))
        monkeypatch.setattr(lenslinks.laurent, "_trusted", lambda terms: made.append(1) or trusted(terms))
        assert run(capsys, argv)[0] == 0
        assert counts == {"_det_numerator": calls, "det": calls}
        if calls:
            assert widths == [16]
            assert len(made) < 6 * 6

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        run(capsys, ["frobnicate"])
        run(capsys, ["torus-test", "--a", "3", "--b", "2", "--p", "5"])
        run(capsys, ["genus", "--help"])
        parser, commands = cli._build_parser()
        assert cli._build_parser.cache_info().misses == 1
        assert set(commands) == {case["argv"][0] for case in JSON_CASES}
        assert all(p.prog == f"lenslinks {name}" for name, p in commands.items())

    def test_usage_cache_is_transparent(self, capsys, monkeypatch):
        # A usage error prints the usage line argparse formats fresh at the
        # width of that moment, however often the width changes; --help
        # pages are formatted fresh, never from the cache.
        parser, commands = cli._build_parser()
        # An unknown name is an error of the top-level parser; every
        # subcommand requires an option, so its name alone is an error of
        # its own parser.
        parsers = {"frobnicate": parser, **commands}
        fresh = {}
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            for name, owner in parsers.items():
                usage = argparse.ArgumentParser.format_usage(owner)
                code, out, err = run(capsys, [name])
                assert (code, out) == (2, "")
                assert err.startswith(usage + f"{owner.prog}: error: "), name
                fresh[columns, name] = usage
                help_argv = ["--help"] if owner is parser else [name, "--help"]
                assert run(capsys, help_argv) == (0, owner.format_help(), ""), help_argv
        # The widths give different lines, so a cache blind to the width would fail.
        assert any(fresh["40", name] != fresh["200", name] for name in parsers)

    def test_help_unchanged_by_reuse(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = run_fresh(["alexander", "--help"])
        assert fresh[0] == 0
        run(capsys, ["frobnicate"])
        assert run(capsys, ["alexander", "--help"]) == fresh
        assert run(capsys, ["alexander", "--help"]) == fresh


class TestStrandLimit:
    @pytest.mark.parametrize(
        "argv, what, n",
        [
            (["alexander", "--braid", "", "--strands", "1000"], "braid", 1000),
            (["alexander", "--braid", "1 2", "--strands", str(cli._STRAND_LIMIT + 1)], "braid", cli._STRAND_LIMIT + 1),
            (["alexander", "--band", "1 0 1000000 :"], "band diagram", 1000000),
            (["lift", "--band", "1 0 1000000 :"], "band diagram", 1000000),
            (["lift", "--band", "1 0 1000000 : 1 | +"], "band diagram", 1000000),
            (["homology", "--band", "2 1 300 :"], "band diagram", 300),
            (["nullhomologous", "--band", "2 1 300 : | +"], "band diagram", 300),
            (["homology", "--band", "3 2 1000 :"], "band diagram", 1000),
        ],
    )
    def test_refused_with_strand_count(self, capsys, argv, what, n):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: {what} would have {n} strands; refusing\n"

    def test_refused_before_building(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("built before the strand check")

        monkeypatch.setattr(lenslinks.lens, "permutation", forbidden)
        for name in ("alexander_of_closure", "lift"):
            monkeypatch.setattr(cli, name, forbidden)
        for argv in (
            ["alexander", "--braid", "", "--strands", "100000"],
            ["alexander", "--band", "1 0 100000 : 1 | + " + "+ " * 99998],
            ["lift", "--band", "1 0 100000 :"],
            ["homology", "--band", "1 0 100000 : | +"],
            ["nullhomologous", "--band", "2 1 100000 : | +"],
        ):
            assert run(capsys, argv)[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "--band", f"1 0 {cli._STRAND_LIMIT} :"],
            ["nullhomologous", "--band", f"3 1 {cli._STRAND_LIMIT} : 1"],
            ["alexander", "--braid", "1 -2 1", "--strands", str(cli._STRAND_LIMIT)],
        ],
    )
    def test_limit_itself_accepted(self, capsys, argv):
        assert run(capsys, argv)[0] == 0


# Tokens chosen to reach every refusal and parse error: huge and negative
# integers, unicode digits, separators, and band diagrams whose p, q, n and
# letters are drawn from the same mix.  Words stay short so that each draw
# is fast; TestSizeLimits covers long dense words on many strands.
_INTS = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([10**6, 10**9, 10**18, 2**64, 10**40, -(10**18)]),
)
_WORDS = st.lists(
    st.one_of(st.integers(-4, 4), st.sampled_from([10**6, -(10**18)])), max_size=6
).map(lambda letters: " ".join(map(str, letters)))
_BANDS = st.builds(
    lambda p, q, n, word, signs: f"{p} {q} {n} : {word}{signs}",
    _INTS,
    _INTS,
    _INTS,
    _WORDS,
    st.sampled_from(["", " | +", " | + -", " | - - -", " | x"]),
)
_POLYS = st.one_of(
    st.sampled_from(
        [
            "x^8 + y^2", "x^1000000000000 + y^2", "x^2*y^3 - 1/2*x*y", "x^-1", "0", "x + + y",
            "x^0", "x^0 + y^0", "2*y^0 - x", "x*" * 50, "+ " * 50 + "x", "x^2*y" + " + x^2*y" * 50,
        ]
    ),
    st.builds(lambda a, b: f"x^{a} + y^{b}", _INTS, _INTS),
)
_EXPONENTS = st.lists(_INTS, max_size=4).map(lambda xs: ",".join(map(str, xs)))
_TOKENS = st.one_of(
    _INTS.map(str),
    _WORDS,
    _BANDS,
    _POLYS,
    _EXPONENTS,
    st.sampled_from(["", " ", ":", "|", ",,", "1e9", "٣", "nan", "-", "--json"]),
    st.text(max_size=8),
)


def _options(*parts):
    return st.tuples(*parts).map(lambda tokens: [str(t) for t in tokens])


# Each subcommand with its own options in place, so that the values reach
# the commands instead of stopping at argparse.
_COMMANDS = st.one_of(
    _options(st.just("invariance"), st.just("--poly"), _POLYS, st.just("--p"), _INTS, st.just("--q"), _INTS),
    _options(st.just("lift"), st.just("--band"), _BANDS),
    _options(st.just("lift"), st.just("--band"), _BANDS, st.just("--compare-torus"), _INTS, _INTS),
    _options(st.just("torus-test"), st.just("--a"), _INTS, st.just("--b"), _INTS, st.just("--p"), _INTS),
    _options(
        st.just("torus-test"), st.just("--a"), _INTS, st.just("--b"), _INTS, st.just("--p"), _INTS, st.just("--q"), _INTS
    ),
    _options(st.just("genus"), st.just("--torus"), _INTS, _INTS),
    _options(st.just("genus"), st.just("--quotient"), _INTS, _INTS, _INTS),
    _options(st.just("alexander"), st.just("--band"), _BANDS),
    _options(st.just("alexander"), st.just("--braid"), _WORDS, st.just("--strands"), _INTS),
    _options(st.just("puiseux"), st.just("--m"), _INTS, st.just("--exponents"), _EXPONENTS),
    _options(st.just("puiseux"), st.just("--m"), _INTS, st.just("--exponents"), _EXPONENTS, st.just("--characteristic-only")),
    _options(st.sampled_from(["homology", "nullhomologous"]), st.just("--band"), _BANDS),
)
# Options of one value, and values for their --opt=VALUE spelling that
# would read as the separator, an option or nothing if given apart.
_ONE_VALUE = {"--poly", "--p", "--q", "--band", "--a", "--b", "--braid", "--strands", "--m", "--exponents"}
_EDGE_VALUES = st.sampled_from(["--", "", "-1", "-h", "=", "--json"])


@st.composite
def _spelled(draw, argvs):
    """An argv of ``argvs`` with each option of one value given apart, as --opt=VALUE, or as --opt=EDGE."""
    argv = draw(argvs)
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        if token not in _ONE_VALUE:
            out.append(token)
            continue
        value = next(tokens)
        how = draw(st.sampled_from(["apart", "joined", "edge"]))
        out += [token, value] if how == "apart" else [f"{token}={value if how == 'joined' else draw(_EDGE_VALUES)}"]
    return out


_SPELLED = _spelled(_COMMANDS)
_SUBCOMMANDS = st.sampled_from(
    ["invariance", "lift", "torus-test", "genus", "alexander", "puiseux", "homology", "nullhomologous", "frobnicate"]
)
_FLAGS = st.sampled_from(
    [
        "--poly", "--p", "--q", "--band", "--compare-torus", "--a", "--b", "--torus", "--quotient",
        "--braid", "--strands", "--m", "--exponents", "--characteristic-only", "--json",
    ]
)
# Any flags after any subcommand, each with up to three tokens, some flags
# spelled --flag=VALUE.
_SOUP = st.builds(
    lambda command, options: [command] + [token for flag, values in options for token in (flag, *values)],
    _SUBCOMMANDS,
    st.lists(
        st.tuples(
            st.one_of(_FLAGS, st.builds(lambda flag, value: f"{flag}={value}", _FLAGS, st.one_of(_EDGE_VALUES, _TOKENS))),
            st.lists(_TOKENS, max_size=3),
        ),
        max_size=5,
    ),
)
_ARGV = st.one_of(_COMMANDS, _SPELLED, _SPELLED.map(lambda argv: argv + ["--json"]), _SOUP)


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process call, outside pytest's capture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_ARGV)
    def test_any_argv_exits_cleanly(self, argv):
        start = time.perf_counter()
        code, out, err = run_captured(argv)
        assert time.perf_counter() - start < 5
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert len(out) + len(err) < 100_000

    @pytest.mark.parametrize(
        "poly",
        ["x*" * 50000, "+ " * 50000 + "x", " " * 10**5, "x^2*y" + " + x^2*y" * 20000, "1/" + "9" * 4000 + "*x"],
        ids=["trailing-star", "signs", "spaces", "like-terms", "long-denominator"],
    )
    def test_long_polynomial_text_in_bounded_time(self, poly):
        # About 10^5 characters each: a pattern that backtracked over them
        # would take minutes.
        start = time.perf_counter()
        code, _, err = run_captured(["invariance", f"--poly={poly}", "--p", "3", "--q", "1"])
        assert time.perf_counter() - start < 1
        assert code in (0, 2)
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_COMMANDS, _SPELLED))
    def test_text_and_json_agree(self, argv):
        code, text, err = run_captured(argv)
        json_code, out, json_err = run_captured(argv + ["--json"])
        assert (json_code, json_err) == (code, err)
        if code == 0:
            assert text == cli._text(argv[0], json.loads(out)) + "\n"


def parsed(parse, argv):
    """vars() of ``parse(argv)``'s namespace, or (SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def top_level_parse(argv):
    return cli._build_parser()[0].parse_args(argv)


_EDGE_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["--json", "genus", "--torus", "2", "3"],
    ["frobnicate"],
    ["alex"],
    ["genus", "--torus", "2", "3", "extra"],
    ["genus", "--torus", "2", "3", "--", "x"],
    ["genus", "-h"],
    ["alexander", "--br", "1 2", "--str", "3"],
    ["alexander", "--braid=1", "--strands=3", "--js"],
    ["genus", "--torus", "2", "3", "--torus", "3", "5"],
    ["alexander", "--braid", "1", "--braid", "1 1", "--strands", "2", "--strands", "3"],
    ["nullhomologous", "--band", "4 1 2 : 1", "junk", "--json"],
    ["lift", "--band=--"],
    ["lift", "--ban=--"],
    ["lift", "--band=--", "--json", "--json"],
    ["invariance", "--poly=", "--p=-1", "--q=="],
    ["invariance", "--poly=x", "--p=-h", "--q", "1", "--p", "2"],
    ["alexander", "--braid", "-1 2", "--strands", "-h"],
    ["alexander", "--braid", "-1", "--strands", "--json"],
    ["alexander", "--braid", "-x", "--strands", "2"],
    ["alexander", "--braid", "-h 1", "--strands", "2"],
    ["alexander", "--strands", "x", "--b", "1"],
    ["genus", "--torus=2", "3"],
    ["genus", "--torus", "-2", "-3", "--json=1"],
    ["genus", "--quotient", "3", "0", "7", "--torus", "2", "3"],
    ["puiseux", "--m", "-1", "--exponents", "--characteristic-only"],
    ["torus-test", "--a", "x", "--b", "y", "--p", "3"],
]


class TestOnePassParse:
    # _parse must give what the top-level parse_args gives: the same
    # namespace, or the same exit with the same usage and error text.
    @pytest.mark.parametrize(
        "argv",
        [case["argv"] + extra for case in GOLDEN for extra in ([], ["--json"])] + _EDGE_ARGV,
        ids=lambda argv: " ".join(argv) or "(none)",
    )
    def test_matches_top_level_parse(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert parsed(cli._parse, argv) == parsed(top_level_parse, argv)

    @settings(max_examples=300, deadline=None)
    @given(_ARGV)
    def test_any_argv_matches_top_level_parse(self, argv):
        assert parsed(cli._parse, argv) == parsed(top_level_parse, argv)

    def test_dashes_after_equals_are_text(self):
        # The one reading that argparse itself changes by interpreter: before
        # 3.13 a plain parser reads --band=-- as [], without the type.  The
        # table and cli's parser class read the text "--" on every one.
        plain = argparse.ArgumentParser()
        plain.add_argument("--band")
        band = plain.parse_args(["--band=--"]).band
        assert band == "--" if sys.version_info >= (3, 13) else band in ([], "--")
        for argv in (["lift", "--band=--"], ["lift", "--ban=--"], ["lift", "--band=--", "--json", "--json"]):
            assert parsed(cli._parse, argv)["band"] == parsed(top_level_parse, argv)["band"] == "--"
        argv = ["invariance", "--poly=x", "--p=--", "--q", "1"]
        usage = cli._build_parser()[1]["invariance"].format_usage()
        assert parsed(cli._parse, argv) == (2, "", f"{usage}lenslinks invariance: error: argument --p: invalid int value: '--'\n")

    def test_table_reads_every_declared_action(self):
        # _read mirrors argparse for options that store their values and for
        # flags; choices, a default given as text (which argparse converts),
        # or an option string that looks like a negative number would each
        # need their own reading there.
        kinds = (argparse._StoreAction, argparse._StoreTrueAction)
        for name, parser in cli._build_parser()[1].items():
            assert not parser._has_negative_number_optionals, name
            for action in parser._actions:
                if not isinstance(action, argparse._HelpAction):
                    assert isinstance(action, kinds), (name, action.dest)
                    assert action.choices is None and not isinstance(action.default, str), (name, action.dest)

    @pytest.mark.parametrize(
        "argv",
        [case["argv"] + extra for case in JSON_CASES for extra in ([], ["--json"])]
        + [
            ["alexander", "--braid", "-1 2 -1", "--strands", "3"],
            ["alexander", "--braid", "-1", "--strands", "2", "--json"],
            ["alexander", "--braid=-2 1 -2 1", "--strands=3", "--json"],
            ["invariance", "--poly=x^8 + y^2", "--p", "3", "--q=1", "--json"],
            ["puiseux", "--exponents=4,6,7", "--characteristic-only", "--m=4"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_well_formed_argv_never_enters_argparse(self, capsys, monkeypatch, argv):
        # The option table reads every golden subcommand argv, with and
        # without --json, a braid word that starts with "-" and --opt=VALUE:
        # no parser's parse_known_args (which parse_args calls) runs.
        calls = []
        original = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            calls.append(self.prog)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        assert run(capsys, argv)[0] == 0
        assert calls == []

    @pytest.mark.parametrize(
        "argv, entered",
        [
            (["genus", "--torus", "9", "3"], 0),
            (["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "8", "2", "--json"], 0),
            (["genus", "--torus", "2", "3", "extra"], 0),
            (["genus", "-h"], 0),
            (["frobnicate"], 1),
            (["-h"], 1),
            ([], 1),
        ],
        ids=["genus", "lift --json", "leftover token", "genus -h", "frobnicate", "-h", "(none)"],
    )
    def test_top_level_parser_only_for_help_and_errors(self, capsys, monkeypatch, argv, entered):
        # A named subcommand's parser reads its own tokens; the top-level
        # parser's parse_known_args runs only where argv[0] names none.
        parser, calls = cli._build_parser()[0], []
        original = parser.parse_known_args

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counted)
        run(capsys, argv)
        assert len(calls) == entered
