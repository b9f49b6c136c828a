"""Golden CLI transcript: stdout, stderr and exit code, byte for byte.

`cli_golden.json` holds one record per invocation: the README examples
(every line of its CLI block, which is checked here too), the
dirac-check example's `--j0-scale 1.01` control, four more enumerations
(JSON from a right and a left start, a one-segment path, text from a
left start), an empty sector, a linear sweep with skipped sizes, one
refusal per nonzero exit code, an exact value past float range (exit
3), and a boost from a negative generator with a common factor, which
boost() reduces. A change that claims byte-identical output is held to
it here. The first record of each exit code also replays through
`python -m checkerboard` in a fresh process.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from checkerboard.cli import main

TESTS = Path(__file__).parent
RECORDS = json.loads((TESTS / "cli_golden.json").read_text())


@pytest.mark.parametrize("record", RECORDS,
                         ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_golden_transcript(record, monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(record["argv"]))
    assert (code, out.getvalue(), err.getvalue()) == (
        record["code"], record["stdout"], record["stderr"])


FIRST_PER_CODE = sorted({r["code"]: r for r in reversed(RECORDS)}.values(),
                        key=lambda r: r["code"])


@pytest.mark.parametrize("record", FIRST_PER_CODE,
                         ids=[str(r["code"]) for r in FIRST_PER_CODE])
def test_cli_golden_transcript_in_a_process(record):
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str((TESTS.parent / "src").resolve()))
    done = subprocess.run([sys.executable, "-m", "checkerboard",
                           *record["argv"]], env=env, capture_output=True,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        record["code"], record["stdout"].encode(), record["stderr"].encode())


NUMPY_PROBE = """import sys
import checkerboard, checkerboard.cli
print("numpy" in sys.modules)
checkerboard.cli.main(sys.argv[1:])
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("command, after", [("member", False),
                                            ("dirac-check", True)])
def test_numpy_is_imported_only_where_a_grid_is_built(command, after):
    # importing the package and its CLI loads no numpy, and nor does a run
    # that builds no grid
    argv = next(r["argv"] for r in RECORDS if r["argv"][0] == command)
    env = dict(os.environ, PYTHONPATH=str((TESTS.parent / "src").resolve()))
    done = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", str(after))


def test_readme_cli_block_is_recorded():
    # every command of the README's CLI block replays above, so no example
    # there can drift from what the program prints
    section = (TESTS.parent / "README.md").read_text().split("\n## CLI\n")[1]
    block = section.split("```\n")[1]
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("checkerboard ")]
    assert commands
    recorded = [record["argv"] for record in RECORDS]
    assert [argv for argv in commands if argv not in recorded] == []
