"""A tiny-scale run of every workload through the benchmark's one command."""
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["warm_grid"])
def test_workload_runs_and_checks_answers(workload, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--sf", "0.005",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in wanted:
        assert f"{m['name']} = " in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_tmp").exists()


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    cmd = SPEC["command"] + ["--workload", "cold_query", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
