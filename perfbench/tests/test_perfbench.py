"""The benchmark's own checks.

The traced run's call counts must equal the counts derived from the tiny
config, and a smoke run of every workload at the tiny size must print every
metric named in BENCHMARK.json with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import per_layer_names  # noqa: E402

TINY = workloads.SIZES["tiny"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PTQLAB_WORKSPACE", raising=False)


def traced(name: str) -> tuple:
    """Per-operation metrics of a traced run of a workload at the tiny size.

    The run traces more than one operation, so counts that equal the
    config's per-operation counts show that the metrics are per operation.
    """
    wl = workloads.WORKLOADS[name](seed=0, size="tiny", reference=None)
    ops, metrics = run.per_layer(wl, seconds=0)
    assert run.TRACED_OPS >= 2
    assert len(ops) == 2 * run.TRACED_OPS  # untraced, then as many traced
    assert all(op.ok for op in ops), [op.problems for op in ops]
    return wl, {k: v["value"] for k, v in metrics.items()}


def modules_per_model(wl) -> int:
    return len(wl.ws.require_checkpoint("ar").quantizable_paths())


def test_train_pair_counts(in_tmp):
    _, m = traced("train-pair")
    steps = TINY["train"]["steps"] * 2  # both modes
    assert m["model.network.backward_from_logits.f32.calls"] == steps
    assert m["trainer.train.calls"] == 2
    assert m["sensitivity.gradient.calls"] == 0
    assert m["gptq.gptq_quantize_layer.calls"] == 0
    assert m["model.generate.tokens_out"] == 0


def test_ptq_grid_counts(in_tmp):
    wl, m = traced("ptq-grid")
    modules = modules_per_model(wl)
    iters = TINY["sensitivity"]["n_power_iters"]
    bits = TINY["grid"]["bits"]
    assert m["sensitivity.gradient.calls"] == 2 * modules * (iters + 1)
    assert m["sensitivity.power_iteration_sensitivity.calls"] == 2 * modules
    assert m["gptq.gptq_quantize_layer.calls"] == modules * len(bits) * 2
    assert m["evaluation.evaluate_tasks.calls"] == wl.n_cells()
    assert m["evaluation.measure_latency.calls"] == wl.n_cells()
    assert m["evaluation.cache_hit_ratio"] == 0.0
    assert m["model.network.backward_from_logits.f32.calls"] == 0
    assert m["model.network.backward_from_logits.f64.calls"] == m["sensitivity.gradient.calls"]


def test_cached_rerun_counts(in_tmp):
    _, m = traced("cached-rerun")
    assert m["evaluation.evaluate_tasks.calls"] == 0
    assert m["evaluation.cache_hit_ratio"] == 1.0
    assert m["model.checkpoint.load.calls"] == 4
    assert m["reporting.emit.calls"] == 1


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def copy_tree(dst: Path, with_sources: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "perfbench", dst / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src", ignore=ignore)


def test_smoke_all_workloads_print_every_metric(tmp_path):
    copy_tree(tmp_path, with_sources=True)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seconds", "0", "--size", "tiny"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr[-3000:]
    names = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    for wl in workloads.WORKLOADS:
        for name, unit in names:
            assert result["metrics"][f"{wl}.{name}"]["unit"] == unit
            assert any(line.startswith(f"{wl}  {name} = ") and line.endswith(f" {unit}")
                       for line in lines), (wl, name)
    for alias in ("train_steps_per_s", "grid_cells_per_min", "reruns_per_s", "failed_frac"):
        assert any(f"  {alias} = " in line for line in lines), alias
    assert not (tmp_path / workloads.WORK).exists()


def test_fails_without_the_program(tmp_path):
    copy_tree(tmp_path, with_sources=False)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-pair",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
