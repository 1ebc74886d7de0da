"""Smoke test of the benchmark itself: one cycle of each workload.

    python3 -m pytest -q bench

Each traced run starts every job twice, plain and under the timing wrappers,
so it checks the known answers, the recorded --seed 1 digests and that
tracing leaves stdout unchanged.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# workload -> jobs in one cycle, which is what a --seconds 0 run starts
CYCLE = {"verify": 1, "relations": 6, "models": 8, "families": 58, "defects": 6}


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py")] + list(args),
                          cwd=root, capture_output=True, text=True, timeout=170)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(CYCLE))
def test_one_cycle_traced_run(workload):
    out = bench("--workload", workload, "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["attempted"] == CYCLE[workload]
    failed = [line for line in out.stdout.splitlines() if line.startswith("  FAILED")]
    # only the recorded crash inputs of the defects workload may fail
    assert all(line.startswith("  FAILED crash ") for line in failed), failed
    assert result["failed"] == len(failed)
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric():
    out = bench("--workload", "families", "--seconds", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"correct": True, "attempted": CYCLE["families"], "failed": 0,
                      "metrics": result["metrics"]}
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("--workload", "families", "--seconds", "1", root=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""
