"""The command's printed result against BENCHMARK.json, and its refusal to
run where the package sources are missing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from spectradag import cpsd, reconstruct

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert f"attempted {result['attempted']}, failed 0" in proc.stdout


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "recon-p20", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_restores_every_binding():
    before = [getattr(module, attr) for module, attr, _ in tracing.BINDINGS]
    with tracing.Tracer().patched():
        assert reconstruct.cpsd_f is not cpsd.cpsd_f
    assert [getattr(module, attr) for module, attr, _ in tracing.BINDINGS] == before
