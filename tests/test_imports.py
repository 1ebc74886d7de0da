"""What each entry point imports, and the package's lazy namespace."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ribbonlab
from ribbonlab.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ribbonlab.__file__)))

# A fresh interpreter runs BODY, then prints the ribbonlab modules it holds.
SCRIPT = """
import json, sys
%s
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "ribbonlab")))
"""

# What a quadric verdict runs (QuadForm is rnc's) and what a relation verdict
# runs (WPoly is poly's); neither loads the other's module.
QUADRIC_MODULES = {"ribbonlab", "ribbonlab.cli", "ribbonlab.conormal", "ribbonlab.rnc",
                   "ribbonlab.exact"}
RELATION_MODULES = {"ribbonlab", "ribbonlab.cli", "ribbonlab.conormal", "ribbonlab.poly",
                    "ribbonlab.exact"}

# What the weighted-model calls run; eliminate_v_degree adds rnc.
MODEL_MODULES = {"ribbonlab", "ribbonlab.xg", "ribbonlab.poly", "ribbonlab.exact"}

RELATION = json.dumps([{"u": [1, 0, 1], "v": [0], "c": "1"},
                       {"u": [0, 2, 0], "v": [0], "c": "-1"}])


def loaded_after(body):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT % body],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def loaded_after_command(*argv):
    """The modules loaded by one cli.main call, which must exit 0."""
    return loaded_after("from ribbonlab import cli\n"
                        "if cli.main(%r) != 0:\n"
                        "    sys.exit('command failed')" % (list(argv) + ["--quiet"],))


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import ribbonlab") == {"ribbonlab"}
    assert loaded_after("import ribbonlab\nimport ribbonlab.cli") == {
        "ribbonlab", "ribbonlab.cli"}


def test_verdicts_load_only_what_they_run():
    assert loaded_after_command("limit-quadric", "--g", "4", "--q", "[[1,0],[0,0]]") \
        == QUADRIC_MODULES
    assert loaded_after_command("limit-relation", "--g", "3", "--poly", RELATION) \
        == RELATION_MODULES


def test_model_calls_load_only_what_they_run():
    setup = "import ribbonlab as r\nsplit = r.split_ribbon_ideal(4)\n"
    for call in ("r.hyperelliptic_model(4, r.BinaryForm(10, [1] + [0] * 9 + [-1]))",
                 "r.hilbert_function(split, 'weighted', [2, 3])",
                 "r.syzygies_by_degree(split, 4, 'ribbon')",
                 "r.certify_groebner(split)"):
        assert loaded_after(setup + call) == MODEL_MODULES, call
    assert loaded_after(setup + "r.eliminate_v_degree(split, 4)") == \
        MODEL_MODULES | {"ribbonlab.rnc"}


def test_family_commands_load_no_suite(tmp_path):
    def family_file(name, argv):
        out = tmp_path / (name + ".out")
        assert main(argv + ["--quiet", "--json-out", str(out)]) == 0
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(json.loads(out.read_text())["payload"]["family"]))
        return str(path)

    octic = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    built = family_file("built", ["family", "build", "--g", "3", "--h", octic])
    scaled = family_file("scaled", ["family", "rescale", "--family", built, "--k", "1"])
    for argv in (["build", "--g", "3", "--h", octic],
                 ["build", "--g", "3", "--model", "split"],
                 ["build", "--g", "3", "--model", "hyperelliptic", "--h", octic],
                 ["rescale", "--family", built, "--k", "1"],
                 ["order", "--family", scaled],
                 ["discriminant", "--family", scaled]):
        loaded = loaded_after_command("family", *argv)
        assert "ribbonlab.families" in loaded, argv
        assert not loaded & {"ribbonlab.suites", "ribbonlab.fitting"}, argv


def test_verify_still_loads_its_suites():
    loaded = loaded_after_command("verify", "--suite", "fitting", "--gmax", "3",
                                  "--dmax", "2")
    assert {"ribbonlab.suites", "ribbonlab.fitting"} <= loaded


def test_exports_are_their_defining_modules_objects():
    assert set(ribbonlab.__all__) == set(ribbonlab._EXPORTS)
    assert set(ribbonlab.__all__) <= set(dir(ribbonlab))
    for name, module_name in ribbonlab._EXPORTS.items():
        module = importlib.import_module("ribbonlab." + module_name)
        value = getattr(ribbonlab, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name
    with pytest.raises(AttributeError, match="no_such_name"):
        ribbonlab.no_such_name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ribbonlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ribbonlab.__all__
    assert len(namespace) == 48
