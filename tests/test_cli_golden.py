"""Golden CLI transcript: stdout, stderr and exit code, byte for byte.

`cli_golden.json` holds one record per invocation: the README examples
(except dirac-check, covered in test_cli), four more enumerations (JSON
from a right and a left start, a one-segment path, text from a left
start), an empty sector, a linear sweep with skipped sizes, and one
refusal per nonzero exit code. A change that claims byte-identical output is held to it here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from checkerboard.cli import main

RECORDS = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


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
