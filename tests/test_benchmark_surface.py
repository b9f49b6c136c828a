"""The package surface the benchmark in perfbench/ calls.

perfbench/workloads.py and perfbench/spans.py are imported as they are,
never edited: each workload's warm-up and each hand-traced operation
must still run against the package, and the traced form must return what
the untraced one does. A rename or a moved name in the package then
fails here, in the ordinary suite, rather than in a benchmark run.
"""

import ast
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checkerboard as cb

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, os.fspath(ROOT / "perfbench"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Crosscheck, Field, Refine  # noqa: E402

R, L = cb.Direction.R, cb.Direction.L


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warm_up_runs(name):
    WORKLOADS[name](cb).warm()


TRACED = [
    (Refine, "_quadratic", (3, 2, Fraction(2))),
    (Refine, "_linear", (5, 3, 2, Fraction(2))),
    (Field, "_closed", (2.0, 0.5)),
    (Field, "_dirac", ((0.5, 1.0, 0.2), 0.1, 1.0)),
    (Crosscheck, "_sector", (3, 2, R, L)),
]


@pytest.mark.parametrize("cls,op,args", TRACED,
                         ids=[op for _, op, _ in TRACED])
def test_traced_operation_equals_untraced(cls, op, args):
    work = cls(cb)
    tr = Tracer()
    assert getattr(work, op + "_traced")(tr, *args) == getattr(work, op)(*args)
    assert tr.busy


def test_every_exported_name_resolves():
    for name in cb.__all__:
        assert getattr(cb, name) is not None, name


def test_no_module_imports_a_private_name():
    for path in (ROOT / "src" / "checkerboard").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)
