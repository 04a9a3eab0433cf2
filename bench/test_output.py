"""Output self-test: the benchmark prints what BENCHMARK.json declares.

Runs the command once per workload and trace mode at its smallest size
(one second, so one round) and checks the result line.  Takes about a
minute; run with ``python3 -m pytest bench/test_output.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# per-layer metrics that read 0 on a workload because it never enters
# that layer (or that part of it); every other value must be positive
UNUSED = {
    "grid": ("terms.", "metric.", "cli.", "gadgets.indicator_calls_per_index"),
    "search": ("terms.", "metric.", "gadgets.indicator_calls_per_index"),
    "constructions": ("metric.", "cli."),
    "coded": ("cli.", "realfns.probe", "realfns.searches", "terms.composed_nodes"),
}


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, *DECLARED["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_declared_workloads_are_the_ones_the_command_accepts():
    import workloads

    assert sorted(WORKLOADS) == sorted(workloads.SETUPS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_the_declaration(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)], ROOT
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        value = reading["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric
        if trace and metric["name"].startswith(UNUSED[workload]):
            assert value >= 0, metric
        else:
            assert value > 0, metric


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
