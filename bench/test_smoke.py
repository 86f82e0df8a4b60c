"""Smoke test for the benchmark: every workload at tiny sizes, both modes.

Checks that each run exits 0 and emits every metric BENCHMARK.json names
for the mode, plus the workload's own metrics in the report line; and
that the benchmark refuses to run without the program sources.  The
correctness checks themselves are not asserted here: criteria 5 and 6
are properties of the full-size instances, not of the tiny ones.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = {
    "stream-rff": {"rows_per_s", "snapshot_ms.p50", "snapshot_ms.p90",
                   "oneshot_s", "oneshot_log10_err", "cov_err_over_bound"},
    "sweep-lowrank": {"table_s"},
    "iterate-rff": {"table_s", "time_to_tol_s", "iters_to_tol"},
}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(REPORTED)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(REPORTED))
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(report_line)["report"]
    assert report["machine"]["blas"]["pinned_threads"] >= 1
    if not trace:
        assert REPORTED[workload] <= set(report["metrics"])
        for value in report["metrics"].values():
            assert value["samples"] >= 1 and value["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "stream-rff", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
