"""Tiny-scale smoke test of the benchmark: every workload, untraced and
traced, emits every metric BENCHMARK.json declares and passes its own
correctness checks; without the program it fails without a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETAIL_METRICS = {
    "train": ("train_samples_per_s", "train_step_s_p50", "train_loss"),
    "enroll": ("extract_utts_per_s", "eval_trials_per_s"),
}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_checks_pass(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]

    detail = json.loads(next(line for line in lines
                             if line.startswith("detail "))[7:])
    assert detail["ops_failed_frac"] == {"value": 0.0,
                                         "base": result["attempted"]}
    for name in DETAIL_METRICS[workload]:
        assert detail[name]["value"] > 0, name
    assert any(line.startswith("env ") for line in lines)

    if trace:
        v = {name: m["value"] for name, m in result["metrics"].items()}
        if workload == "train":
            assert v["autodiff.conv2d_same.b4c2.bwd_s"] > 0
            assert v["trainer.steps"] == 3 and v["autodiff.graph_nodes"] > 0
            assert v["metrics.cosine_score.calls"] == 0
        else:
            assert v["encoder.encode.calls"] == 6      # one per utterance
            assert v["metrics.cosine_score.calls"] == 15  # one per trial
            assert v["autodiff.backward.s"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "enroll", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
