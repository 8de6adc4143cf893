"""The package namespace: what `from tightspan import *` exports."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import tightspan
from helpers import loaded_modules


def test_all_lists_every_public_name_and_no_module():
    assert len(tightspan.__all__) == len(set(tightspan.__all__))
    for name in tightspan.__all__:
        assert not isinstance(getattr(tightspan, name), types.ModuleType), name
    imported = {
        name
        for name, value in vars(tightspan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert imported == set(tightspan.__all__)


def test_every_public_name_is_its_defining_modules_object():
    for name in tightspan.__all__:
        value = getattr(tightspan, name)
        assert value.__module__.startswith("tightspan."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_import_loads_no_submodule():
    assert loaded_modules("import tightspan") == {"tightspan"}


def _absolute_imports():
    """(file name, top-level module) of each absolute import in the package's source."""
    for path in sorted(Path(tightspan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name.partition(".")[0]


def test_no_module_imports_dataclasses():
    # records are NamedTuples: dataclasses would pull inspect, ast and dis
    # into every process
    for file_name, module in _absolute_imports():
        assert module != "dataclasses", file_name


def test_package_imports_only_itself_and_the_standard_library():
    # the tests put tests/ on sys.path, so a package import of a test module
    # such as oracles would pass them and break the installed package
    for file_name, module in _absolute_imports():
        assert module in sys.stdlib_module_names, (file_name, module)


def test_every_exception_class_is_raised_and_defined_in_errors():
    # one class per failure: each class of errors.py but the base is raised
    # somewhere in the package, so a class whose last raise goes is deleted
    # with it; and no other module defines an exception class
    package = Path(tightspan.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    defined = {
        node.name for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)
    }
    exceptional = {"Exception", "BaseException", *defined}
    raised = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            if isinstance(node, ast.ClassDef) and name != "errors.py":
                bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
                assert not bases & exceptional, f"{name}: exception class {node.name}"
                assert not any(base.endswith("Error") for base in bases), f"{name}: {node.name}"
    assert "TightSpanError" in defined
    assert sorted(defined - {"TightSpanError"} - raised) == []


def test_errors_defines_one_class_per_meaning_a_caller_acts_on():
    # a refused input and a broken invariant: no caller tells two refusals
    # apart, so their messages name the reason, not their classes
    path = Path(tightspan.__file__).parent / "errors.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert defined == ["TightSpanError", "PreconditionViolated", "DegenerateRidge"]


def test_submodules_resolve_on_first_access():
    # the attribute path the benchmark reads: tightspan.<submodule>.<name>
    code = (
        "import tightspan\n"
        "assert tightspan.errors.TightSpanError and tightspan.graphs.EdgeGraph\n"
        "assert tightspan.metrics.gen_dmax and tightspan.subdivision.compute_subdivision\n"
    )
    loaded = loaded_modules(code)
    assert {f"tightspan.{m}" for m in ("errors", "graphs", "metrics", "subdivision")} <= loaded
    assert "tightspan.primal" not in loaded and "tightspan.cli" not in loaded


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tightspan.no_such_name
    assert set(tightspan.__all__) <= set(dir(tightspan))
