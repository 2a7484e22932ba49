"""Smoke tests of the benchmark itself; run with `python -m pytest benchmarks`.

Each run uses `--smoke`, which sends toy-sized inputs through the same code
path as a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    done = run_benchmark(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_spec_and_nothing_fails(workload: str, trace: int) -> None:
    info, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in spec}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    environment = info["environment"]
    assert environment["seed"] == 1 and environment["backend"] in ("gmpy2", "fractions")
    assert {"python", "nproc", "KEYMARK_KEYSET_CAP"} <= set(environment)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload: str) -> None:
    first, _ = smoke(workload, trace=1, seed=7)
    second, _ = smoke(workload, trace=1, seed=7)
    assert first["counts"] == second["counts"]
    assert first["counts"]["scheme.cells"] > 0 and first["counts"]["simplex.pivots"] > 0


def test_exits_nonzero_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_samples_are_host_normalised_per_step_and_combined_per_shape() -> None:
    sys.path.insert(0, str(HERE))
    from run import REFERENCE_GAUGE_S, Runner, stage_value

    runner = Runner(km=None, trials=1)
    # A step run while the gauge read twice the reference counts half.
    runner.record("verify_s", [(0.2, 2 * REFERENCE_GAUGE_S), (0.1, REFERENCE_GAUGE_S)], shape=0)
    assert runner.raw["verify_s"][0] == [pytest.approx(0.3)]
    assert runner.scaled["verify_s"][0] == [pytest.approx(0.2)]
    per_shape = {0: [3.0, 1.0, 2.0], 1: [5.0]}
    assert stage_value(per_shape, "certify_s") == 7.0  # seconds per pass over the LP set
    assert stage_value(per_shape, "scheme_a_s") == 3.5  # seconds per instance
