"""Self-tests of the benchmark harness.

Run from the root of the checkout with ``python3 -m pytest bench``. The
repository's own test suite does not collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_source_tree()

import workloads  # noqa: E402  (needs the source tree on sys.path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ["fn.points_per_sample", "fn.distinct_frac", "sampling.calls",
          "popoviciu.theorem_margins.calls"]


def _tiny_run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_named_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _tiny_run(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["audit", "search"])
def test_count_metrics_repeat_across_traced_runs(workload):
    first, second = _tiny_run(workload, 1, seed=5), _tiny_run(workload, 1, seed=5)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_wrong_expected_exit_code_counts_in_failed_frac(tmp_path):
    case = workloads.verify_sweep(tiny=True)[0]
    wrong = dataclasses.replace(case, expected_exit=1 - case.expected_exit)
    [outcomes] = workloads.closed_loop(
        iter([[(case, 3), (wrong, 3)]]), str(tmp_path / "report.json"),
        n_cycles=1)
    assert [o.ok for o in outcomes] == [True, False]
    assert "exit code" in outcomes[1].problem
    assert run.failed_frac(outcomes) == 0.5


def test_witness_that_does_not_replay_is_a_failure():
    w = {"x": 1.0, "y": 1.0, "z": 2.0, "lhs": 0.0, "rhs": 0.0}
    with pytest.raises(workloads.CheckError):
        workloads._replay_theorem("GH", "cosh", "identity", None, "concave",
                                  w, 1e-9)


def test_windows_hold_whole_cycles_in_order():
    cycles_run = [[c] * 2 for c in range(10)]
    windows = run.split_windows(cycles_run, 4)
    assert [len(w) for w in windows] == [4, 6, 4, 6]
    assert [o for w in windows for o in w] == run._flat(cycles_run)
    assert run.split_windows(cycles_run[:2], 4) == [[0, 0], [1, 1]]


def test_tail_latency_leaves_ten_requests_above():
    value, percentile, above = run.tail_latency([float(i) for i in range(100)])
    assert (value, percentile, above) == (89.0, 90.0, 10)
