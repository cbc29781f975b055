"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_every_layer_metric():
    assert SPEC["per_layer"] == layers.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == ["paint", "extension", "skew", "cli"]


@pytest.mark.parametrize("workload", ["paint", "extension", "skew", "cli"])
def test_smoke_end_to_end(tmp_path, workload):
    res = result_of(bench(tmp_path, "--workload", workload, "--smoke", "--seconds", "0", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["paint", "extension", "skew", "cli"])
def test_smoke_traced(tmp_path, workload):
    res = result_of(bench(tmp_path, "--workload", workload, "--smoke", "--seconds", "0", "--trace", "1"))
    assert res["correct"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert (tmp_path / ".perfbench" / f"spans-{workload}-seed1.jsonl").is_file()
    if workload == "paint":
        # one alignment per scanned shift, plus one inside each paint step
        assert metrics["towers.base_aligned_labels.calls"] == (
            metrics["towers.shifts_scanned"] + metrics["towers.paint_tower.calls"]
        )
    if workload == "extension":
        assert metrics["extension.extend_family.calls"] == metrics["extension.extend_family_chain.calls"] > 0
        assert metrics["towers.paint_tower.calls"] == 0
    if workload == "skew":
        assert metrics["rds.mixing_samples_per_s"] > 0
        assert metrics["extension.extend_family.calls"] == 0
    if workload == "cli":
        assert all(metrics[f"cli.{c}.wall_s"] > 0 for c in layers.CLI_COMMANDS)
        assert metrics["measures.project.calls"] == 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paint", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
