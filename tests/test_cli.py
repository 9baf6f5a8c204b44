"""The command-line contract: JSON fields, exit codes and size refusals."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lenslinks
import lenslinks.cli as cli
import lenslinks.lens
from lenslinks.laurent import DivisibilityError
from lenslinks.lens import ConsistencyError

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text())
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


def test_golden_covers_every_help():
    helps = {tuple(case["argv"]) for case in GOLDEN if "json" not in case}
    subcommands = {case["argv"][0] for case in JSON_CASES}
    assert helps == {("--help",)} | {(name, "--help") for name in subcommands}


def test_golden_covers_both_alexander_inputs():
    flags = {case["argv"][1] for case in JSON_CASES if case["argv"][0] == "alexander"}
    assert flags == {"--band", "--braid"}


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

    def test_fault_message_from_process_argv(self, capsys, monkeypatch):
        def broken(*args):
            raise DivisibilityError("injected")

        monkeypatch.setattr(cli, "alexander_of_closure", broken)
        monkeypatch.setattr(sys, "argv", ["lenslinks", "alexander", "--band", "3 1 2 : 1 1"])
        assert cli.run() == 3
        assert capsys.readouterr().err.endswith("lenslinks alexander --band '3 1 2 : 1 1'\n")


def test_torus_test_agrees_with_genus(capsys):
    # With p = gcd(a,b), T(a,b) lifts a knot exactly when the quotient genus
    # (g~ + p - 1)/p is an integer.
    for a in range(1, 25):
        for b in range(1, 25):
            p = math.gcd(a, b)
            _, out, _ = run(capsys, ["torus-test", "--a", str(a), "--b", str(b), "--p", str(p), "--json"])
            knot = json.loads(out)["lift_of_knot"]
            assert run(capsys, ["genus", "--torus", str(a), str(b)])[0] == (0 if knot else 1), (a, b)


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv, size",
        [
            (["genus", "--torus", "1200", "1200"], 1200 * 1199),
            (["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "1000001", "2"], 1000001),
            (["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "1001", "1001"], 1001 * 1000),
            (["alexander", "--band", "3 1 1001 :"], 1001 * 1000),
            (["homology", "--band", "3 2 1000 :"], 2 * 1000 * 999),
        ],
    )
    def test_refused_with_size(self, capsys, argv, size):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert f"would have {size} letters; refusing" in err

    def test_refused_before_building(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built before the size check")

        for name in ("torus_braid", "lift", "homology_classes", "bennequin_fiber"):
            monkeypatch.setattr(cli, name, forbidden)
        for argv in (
            ["genus", "--torus", "1200", "1200"],
            ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "1001", "1001"],
            ["homology", "--band", "3 2 1000 :"],
        ):
            assert run(capsys, argv)[0] == 1

    def test_orientation_table_refused(self, capsys):
        code, _, err = run(capsys, ["nullhomologous", "--band", "1009 1 1200 :"])
        assert code == 1
        assert f"orientation table would have {1200 * 1009} bits; refusing" in err

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


class TestRepeatedCalls:
    @pytest.mark.parametrize(
        "failing",
        [["frobnicate"], ["lift"], ["alexander", "--band", "3 1 : 1"], ["genus", "--torus", "6", "2"]],
    )
    def test_error_then_valid_call_matches_fresh_process(self, capsys, monkeypatch, failing):
        monkeypatch.setenv("COLUMNS", "80")
        valid = ["lift", "--band", "3 1 2 : 1 1", "--compare-torus", "8", "2", "--json"]
        first = run(capsys, failing)
        second = run(capsys, valid)
        assert first == run_fresh(failing)
        assert second == run_fresh(valid)

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
        ],
    )
    def test_refused_with_strand_count(self, capsys, argv, what, n):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: {what} would have {n} strands; refusing\n"

    def test_refused_before_building(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("built before the strand check")

        monkeypatch.setattr(lenslinks.lens, "closure_components", forbidden)
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
# letters are drawn from the same mix.  Words stay short: on a dense word of
# a few dozen strands the cofactor determinant takes minutes.
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
    st.sampled_from(["x^8 + y^2", "x^1000000000000 + y^2", "x^2*y^3 - 1/2*x*y", "x^-1", "0", "x + + y"]),
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
_SUBCOMMANDS = st.sampled_from(
    ["invariance", "lift", "torus-test", "genus", "alexander", "puiseux", "homology", "nullhomologous", "frobnicate"]
)
_FLAGS = st.sampled_from(
    [
        "--poly", "--p", "--q", "--band", "--compare-torus", "--a", "--b", "--torus", "--quotient",
        "--braid", "--strands", "--m", "--exponents", "--characteristic-only", "--json",
    ]
)
# Any flags after any subcommand, each with up to three tokens.
_SOUP = st.builds(
    lambda command, options: [command] + [token for flag, values in options for token in (flag, *values)],
    _SUBCOMMANDS,
    st.lists(st.tuples(_FLAGS, st.lists(_TOKENS, max_size=3)), max_size=5),
)
_ARGV = st.one_of(_COMMANDS, _COMMANDS.map(lambda argv: argv + ["--json"]), _SOUP)


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

    @settings(max_examples=100, deadline=None)
    @given(_COMMANDS)
    def test_text_and_json_agree(self, argv):
        code, text, err = run_captured(argv)
        json_code, out, json_err = run_captured(argv + ["--json"])
        assert (json_code, json_err) == (code, err)
        if code == 0:
            assert text.strip()
            assert isinstance(json.loads(out), dict)
