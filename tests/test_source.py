"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import ribbonlab
from ribbonlab import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_package_source_has_no_assert_statements():
    # python -O strips asserts, so every check in the package is an explicit raise
    files = sorted(Path(ribbonlab.__file__).parent.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_traced_names_resolve():
    # the traced benchmark patches these by name; a renamed or deleted one
    # would otherwise only show up there (bench/tracer.py imports only the
    # standard library)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr in tracer.FUNCTIONS.values():
        module = importlib.import_module("ribbonlab." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), attr
        else:
            assert isinstance(getattr(module, attr, None), types.FunctionType), attr
    for name in tracer.CLI_COMMANDS:
        assert isinstance(getattr(cli, name, None), types.FunctionType), name
