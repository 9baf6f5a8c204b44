"""Run every error argv of fixtures/cli_errors.json in a new process and check its exit code and stderr.

Standard library only, so that it runs on every supported interpreter,
including those on which the test dependencies do not import:

    python tests/cli_errors.py              # python -m lenslinks.cli, from src/
    python tests/cli_errors.py lenslinks    # an installed console script

Each argv runs with COLUMNS=80, so that argparse wraps its usage lines as
they were recorded, and must print nothing on stdout.  The exit status is 1
if any argv differs from its case, and each such argv is printed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
CASES = json.loads((TESTS / "fixtures" / "cli_errors.json").read_text(encoding="utf-8"))


def main(command: list[str]) -> int:
    env = dict(os.environ, COLUMNS="80")
    if not command:
        command = [sys.executable, "-m", "lenslinks.cli"]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
    failed = 0
    for case in CASES:
        done = subprocess.run(command + case["argv"], capture_output=True, encoding="utf-8", env=env)
        if (done.returncode, done.stdout, done.stderr) != (case["code"], "", case["stderr"]):
            failed += 1
            print(f"differs from its case: {case['argv']!r:.200}\n  exit {done.returncode}: {done.stderr!r:.400}")
    print(f"{len(CASES) - failed} of {len(CASES)} error argv match, on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
