"""Static checks on the package source."""

import ast
import importlib
import importlib.util
import json
import types
from pathlib import Path

import ribbonlab
from ribbonlab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def test_every_module_level_import_is_used():
    # a name imported at module level and never read only costs start-up;
    # `from __future__` imports are compiler directives, not names
    found = []
    for path in sorted(Path(ribbonlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += ["%s:%d %s" % (path.name, node.lineno, alias.name)
                          for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in used]
    assert found == []


# Every private name a module of the package imports from a sibling, as
# (importer, source, name), with the reason it is shared instead of made
# public.  A new coupling is added here with its reason.
PRIVATE_IMPORTS = {
    ("families", "exact", "_ZERO"): "the zero digit that truncated series share",
    ("suites", "exact", "_ZERO"): "the shared zero that an identity test passes over",
    ("xg", "exact", "_ZERO"): "the zero coefficient that the built forms share",
    ("xg", "exact", "_clear"): "Buchberger's integer reduction clears a lead by the engine's rule",
    ("xg", "exact", "_primitive"): "Buchberger's integer reduction divides by the content as the engine does",
    ("xg", "poly", "_compositions"): "the pure-v classes of the split quotient, in grlex order",
}


def test_private_imports_are_the_listed_couplings():
    # every relative `from .module import _name`, at module level and inside
    # functions alike
    found = set()
    for path in sorted(Path(ribbonlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.stem, node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names if alias.name.startswith("_")}
    assert found == set(PRIVATE_IMPORTS)


def test_every_test_module_imports():
    # the suite runs with --continue-on-collection-errors, where a test module
    # that fails to import (say, of a removed name) shows only as a collection
    # error and not as a failed test
    failed = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location("imported_" + path.stem, path)
        try:
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        except Exception as exc:
            failed.append("%s: %r" % (path.name, exc))
    assert failed == []


def test_cli_reads_every_document_through_a_from_json_reader():
    # a value class built by name in the CLI would be a second reader of its
    # document, beside the from_json one that checks every field
    classes = {"QuadForm", "BinaryForm", "WPoly", "TruncatedScalar", "TruncatedFamily"}
    tree = ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__)
    found = ["cli.py:%d %s" % (node.lineno, node.func.id) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in classes]
    assert found == []


def _load(path):
    spec = importlib.util.spec_from_file_location("bench_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _references(path):
    """(names, attributes): every name a file reads as a Name, an Attribute or
    an import alias, and those it reads as an Attribute (`.name`), except
    where they are read inside a def of that same name."""
    names, attributes = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name.split(".")[-1] if isinstance(node, ast.alias)
                else None)
        if name is not None and name not in inside:
            names.add(name)
            if isinstance(node, ast.Attribute):
                attributes.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return names, attributes


def test_every_public_name_is_used():
    # a public function or method that no code path reads is dead API: each
    # name of ribbonlab.__all__ is read somewhere in the package or the
    # benchmark outside its own def, and each public method of an exported
    # class is read there as an attribute, `.name` (a local variable or an
    # import of the same name is no call of the method); the names the tracer
    # patches by string count as read.  Receivers are not told apart: a
    # method counts as read when any object's attribute of its name is.
    tracer = _load(TRACER)
    traced = {attr for _, attr in tracer.FUNCTIONS.values()}
    files = sorted(Path(ribbonlab.__file__).parent.glob("*.py")) + sorted(BENCH.glob("*.py"))
    refs = [_references(path) for path in files]
    names = set().union(*(n for n, _ in refs))
    attributes = set().union(*(a for _, a in refs))
    unread = [name for name in ribbonlab.__all__ if name not in names]
    for name in ribbonlab.__all__:
        obj = getattr(ribbonlab, name)
        if isinstance(obj, type):
            unread += ["%s.%s" % (name, attr) for attr, value in vars(obj).items()
                       if not attr.startswith("_") and attr not in attributes
                       and isinstance(value, (types.FunctionType, classmethod,
                                              staticmethod, property))]
    assert sorted(q for q in unread if q not in traced) == []


def _defaulted_parameters(path):
    """(qualified name, called name, parameter, positional index or None) of
    every defaulted parameter of a public function, method or constructor in
    a file; a constructor is called by its class name, and the index counts
    the arguments a call passes, so a method's self or cls is not counted."""
    out = []
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = [(None, node) for node in tree.body]
    defs += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
             and not cls.name.startswith("_") for node in cls.body]
    for owner, node in defs:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "__init__" and owner is not None:
            qualified = name = owner
        elif node.name.startswith("_"):
            continue
        else:
            qualified = node.name if owner is None else "%s.%s" % (owner, node.name)
            name = node.name
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if bound else 0
        first = len(positional) - len(node.args.defaults)
        out += [(qualified, name, arg.arg, i - skip)
                for i, arg in enumerate(positional) if i >= first]
        out += [(qualified, name, arg.arg, None)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None]
    return out


def _calls(path):
    """{called name: [(positional count, keyword names, starred)]} of every
    call in a file, by the name it calls (`f(...)` or `x.f(...)`, and
    `cls(...)` in a classmethod as its class), except calls inside a def of
    that same name; `starred` is whether the call has a *args or **kwargs."""
    calls = {}

    def visit(node, inside, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name == "cls" and owner is not None:
                name = owner
            if name is not None and name not in inside:
                keywords = {k.arg for k in node.keywords}
                starred = None in keywords or any(isinstance(a, ast.Starred)
                                                  for a in node.args)
                calls.setdefault(name, []).append((len(node.args), keywords, starred))
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef):  # owner: the class of a classmethod
                owner = node.name if isinstance(child, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "classmethod"
                    for d in child.decorator_list) else None
            visit(child, inside, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset(), None)
    return calls


def _program_calls():
    """(package files, {called name: calls}) over src/ribbonlab and bench/."""
    package = sorted(Path(ribbonlab.__file__).parent.glob("*.py"))
    calls = {}
    for path in package + sorted(BENCH.glob("*.py")):
        for name, found in _calls(path).items():
            calls.setdefault(name, []).extend(found)
    return package, calls


def test_every_optional_parameter_is_passed():
    # a default that no call overrides is a mode nobody runs: every defaulted
    # parameter of a public function, method or constructor in the package is
    # passed, by keyword or by position, by some call in the package or the
    # benchmark.  Calls are resolved by name only, as in
    # test_every_public_name_is_used.
    package, calls = _program_calls()

    def passed(name, parameter, index):
        return any(starred or parameter in keywords
                   or (index is not None and count > index)
                   for count, keywords, starred in calls.get(name, ()))

    unpassed = ["%s:%s(%s)" % (path.name, qualified, parameter)
                for path in package
                for qualified, name, parameter, index in _defaulted_parameters(path)
                if not passed(name, parameter, index)]
    assert unpassed == []


def test_every_default_is_relied_on():
    # the mirror rule: a default that every call overrides is a required
    # parameter in disguise, so every defaulted parameter of a public
    # function, method or constructor in the package is omitted by some call
    # in the package or the benchmark.  A starred call counts as omitting.
    package, calls = _program_calls()

    def omitted(name, parameter, index):
        return any(starred or (parameter not in keywords
                               and (index is None or count <= index))
                   for count, keywords, starred in calls.get(name, ()))

    overridden = ["%s:%s(%s)" % (path.name, qualified, parameter)
                  for path in package
                  for qualified, name, parameter, index in _defaulted_parameters(path)
                  if not omitted(name, parameter, index)]
    assert overridden == []


def test_traced_names_resolve():
    # the traced benchmark patches these by name; a renamed or deleted one
    # would otherwise only show up there (bench/tracer.py imports only the
    # standard library)
    tracer = _load(TRACER)
    for module_name, attr in tracer.FUNCTIONS.values():
        module = importlib.import_module("ribbonlab." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), attr
        else:
            assert isinstance(getattr(module, attr, None), types.FunctionType), attr
    for name in tracer.CLI_COMMANDS:
        assert isinstance(getattr(cli, name, None), types.FunctionType), name


# One small call per LIBRARY_JOBS entry of bench/job.py, with the payload the
# closed forms give: the split Hilbert function (2d-1)(g-1), the g=4 minimal
# syzygy shapes, and dim I_d - ((d-1)(g-1)-1) for the eliminated ribbon.
LIBRARY_CALLS = [
    ("hilbert", {"g": 4, "degrees": [2, 3, 4], "h": [-1] + [0] * 9 + [1]},
     {"hilbert": [9, 15, 21]}),
    ("syzygies", {"model": "split", "g": 4, "max_degree": 5},
     {"minimal": {"3": 2, "4": 6, "5": 6}, "kernel": {"3": 2, "4": 14, "5": 51}}),
    ("syzygies", {"model": "hyperelliptic", "g": 4, "max_degree": 5,
                  "h": [-1] + [0] * 9 + [1]},
     {"minimal": {"3": 2, "4": 6, "5": 6}, "kernel": {"3": 2, "4": 14, "5": 51}}),
    ("syzygies", {"model": "ribbon", "g": 4, "max_degree": 5, "coeffs": [1, 2]},
     {"minimal": {"3": 2, "4": 6, "5": 3}, "kernel": {"3": 2, "4": 14, "5": 51}}),
    ("eliminate", {"g": 4, "d": 3, "coeffs": [1, 2]}, {"dim": 5}),
    ("ell_space", {"g": 5}, {"dim": 3}),
    ("groebner", {"g": 4, "degrees": [2, 3]},
     {"order": "grlex", "basis": 9, "normal": [9, 15]}),
]


def test_benchmark_library_jobs_run():
    # the benchmark's lib jobs call the package through bench/job.py; a changed
    # signature would otherwise only fail the benchmark's own tests
    job = _load(BENCH / "job.py")
    assert {kind for kind, _, _ in LIBRARY_CALLS} == set(job.LIBRARY_JOBS)
    for kind, params, want in LIBRARY_CALLS:
        payload = job.LIBRARY_JOBS[kind](ribbonlab, params)
        assert json.loads(json.dumps(payload)) == want, (kind, params)
