"""Smoke tests of the benchmark itself, at level 1.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT, level=1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + (["--level", str(level)] if level else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace, seed=3):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_reported_and_correct(workload):
    res = result(workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_repeats_its_counts(workload):
    # Counts depend on the seeded probes, so both runs use one seed.
    first, second = result(workload, trace=1), result(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    counts = [k for k, unit in expected.items() if unit == "count"]
    assert {k: metrics[k] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}
    assert metrics["quadrature.far_pairs"] > 0 and metrics["quadrature.singular_pairs"] > 0
    assert metrics["trace.assemble_cover"] >= 0.95
    if "constant" in workload:
        # No volume work: P f is skipped and R returns its zero block at once.
        assert metrics["parametrix.P_s"] == 0.0 and metrics["laplace.newton_s"] == 0.0
        assert metrics["parametrix.R_centers_s"] < 1e-2
        assert metrics["parametrix.R_boundary_s"] < 1e-2


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path, level=None)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
