"""The package surface the benchmark in perfbench/ calls.

perfbench/workloads.py and perfbench/spans.py are imported as they are,
never edited: each workload's warm-up and each hand-traced operation
must still run against the package, and the traced form must return what
the untraced one does. A rename or a moved name in the package then
fails here, in the ordinary suite, rather than in a benchmark run.

The same reading of the source guards the exported surface: every name in
__all__ has a caller in the package, in perfbench/ or in the README quick
tour, or a reason to stay in KEEP, and no module imports a name it never
uses, nor writes a value in an f-string with !r (errors.brief writes
every caller value a message echoes). The quick tour is a doctest block, and it runs here. Every field of a dataclass in the package is read as an attribute
there, in perfbench/ or in the quick tour, or its class is walked by
dataclasses.fields, or it has a reason to stay in KEEP_FIELDS.
"""

import ast
import doctest
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checkerboard as cb

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "checkerboard"
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
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


def test_no_f_string_writes_a_value_by_its_repr():
    # brief bounds what it writes; a !r would echo a caller's text in full
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FormattedValue):
                assert node.conversion != ord("r"), (path.name, node.lineno)


# Exported names that no program code calls, each kept for one reason.
KEEP = {
    "count_paths": "oracle: closed-form path counts, checked against "
                   "enumeration and the uniform-lattice coefficients",
    "make_point": "the paper's event set, which is_member inverts",
    "matrix_product": "oracle: the direct product compose is checked against",
    "pq_identity_check": "the paper's identity 2 P Q gamma = P^2 + Q^2",
}


def loaded_names(tree, attributes=False):
    """Names the code reads; with attributes, also every attribute it
    reads off an object, as perfbench reads the package (cb.name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif attributes and isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def quick_tour_block():
    """The doctest block of the README's library quick tour."""
    section = (ROOT / "README.md").read_text().split(
        "## Library quick tour", 1)[1]
    return section.split("```pycon", 1)[1].split("```", 1)[0]


def quick_tour():
    """The source of the quick tour's examples, as one program."""
    return "".join(example.source for example in
                   doctest.DocTestParser().get_examples(quick_tour_block()))


def test_quick_tour_runs_as_stated():
    test = doctest.DocTestParser().get_doctest(
        quick_tour_block(), {}, "README quick tour", "README.md", 0)
    assert len(test.examples) >= 10
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_every_exported_name_has_a_caller_or_a_reason():
    used = loaded_names(ast.parse(quick_tour()))
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= loaded_names(ast.parse(path.read_text()))
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= loaded_names(ast.parse(path.read_text()), attributes=True)
    assert set(KEEP) <= set(cb.__all__)
    assert sorted(set(cb.__all__) - used - set(KEEP)) == []


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports what it exports
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
        used = (set(cb.__all__) if path.name == "__init__.py"
                else loaded_names(tree))
        assert sorted(imported - used) == [], path.name


# Dataclass fields that no program code reads, each kept for one reason.
KEEP_FIELDS = {
    "SeriesResult.error_bound": "the bound behind each series value, which "
                                "the tests hold to mpmath",
}


def dataclass_fields(tree):
    """(class, field) for each annotated field of each @dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id


def read_attributes(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def walked_classes(tree):
    """Classes passed by name to dataclasses.fields."""
    return {node.args[0].id for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("fields", "dataclasses.fields")
            and node.args and isinstance(node.args[0], ast.Name)}


def test_every_dataclass_field_is_read_or_kept():
    src = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    bench = [ast.parse(path.read_text())
             for path in (ROOT / "perfbench").glob("*.py")]
    read = set().union(*map(read_attributes,
                            src + bench + [ast.parse(quick_tour())]))
    walked = set().union(*map(walked_classes, src))
    members = {f"{cls}.{name}": (cls, name)
               for tree in src for cls, name in dataclass_fields(tree)}
    unread = {member for member, (cls, name) in members.items()
              if name not in read and cls not in walked}
    assert set(KEEP_FIELDS) <= unread  # a field that gains a reader leaves KEEP
    assert sorted(unread - set(KEEP_FIELDS)) == []
