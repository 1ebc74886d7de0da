"""Static checks on the package source."""

import ast
from pathlib import Path

import ribbonlab


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
