"""Run every error argv of fixtures/cli_errors.json and check its exit code and stderr.

Standard library only, so that it runs on every supported interpreter,
including those on which the test dependencies do not import:

    python tests/cli_errors.py              # python -m lenslinks.cli, from src/
    python tests/cli_errors.py lenslinks    # an installed console script
    python tests/cli_errors.py --in-process # lenslinks.cli.run, from src/

The first two forms run each argv in a new process.  ``--in-process`` runs
every argv through ``lenslinks.cli.run`` in this one interpreter, twice in
a row, so that the second round reads what the first left cached, such as
the usage lines.  Each argv runs with COLUMNS=80, so that argparse wraps its
usage lines as they were recorded, and must print nothing on stdout.  The
exit status is 1 if any argv differs from its case, and each such argv is
printed.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CASES = json.loads((TESTS / "fixtures" / "cli_errors.json").read_text(encoding="utf-8"))


def in_process():
    """A call that runs an argv through ``lenslinks.cli.run`` here and returns (exit code, stdout, stderr)."""
    sys.path.insert(0, str(TESTS.parent / "src"))
    from lenslinks.cli import run

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def in_processes(command: list[str], env: dict):
    """A call that runs an argv in a new process of ``command`` and returns (exit code, stdout, stderr)."""

    def call(argv):
        done = subprocess.run(command + argv, capture_output=True, encoding="utf-8", env=env)
        return done.returncode, done.stdout, done.stderr

    return call


def main(args: list[str]) -> int:
    os.environ["COLUMNS"] = "80"
    env = dict(os.environ)
    if args == ["--in-process"]:
        call, rounds = in_process(), 2
    else:
        command = args
        if not command:
            command = [sys.executable, "-m", "lenslinks.cli"]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
        call, rounds = in_processes(command, env), 1
    failed = 0
    for _ in range(rounds):
        for case in CASES:
            code, out, err = call(case["argv"])
            if (code, out, err) != (case["code"], "", case["stderr"]):
                failed += 1
                print(f"differs from its case: {case['argv']!r:.200}\n  exit {code}: {err!r:.400}")
    total = rounds * len(CASES)
    print(f"{total - failed} of {total} error argv match, on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
