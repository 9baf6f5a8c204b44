"""The command-line contract: JSON fields, exit codes and size refusals."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lenslinks
import lenslinks.cli as cli
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


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(case["argv"]) for case in GOLDEN])
def test_golden_json(capsys, case):
    code, out, err = run(capsys, case["argv"] + ["--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == case["json"]


def test_golden_covers_both_alexander_inputs():
    flags = {case["argv"][1] for case in GOLDEN if case["argv"][0] == "alexander"}
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
        assert (code, out, err) == (3, "", "internal consistency fault: injected\n")


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
