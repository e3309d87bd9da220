import dataclasses
import json
import shutil

import pytest

import ptqlab.evaluation as ev
import ptqlab.gptq as gptq_mod
from ptqlab.errors import ContractError, ParameterError
from ptqlab.evaluation import (LatencyConfig, TaskSuite, evaluate_tasks, measure_latency,
                               plan_grid)
from ptqlab.model import ModelConfig, new_checkpoint
from ptqlab.pipeline import (ENV_WORKSPACE, SECTIONS, PipelineConfig, Workspace, cell_hash,
                             stage_eval, stage_train)
from ptqlab.quant import QuantPlan, memory_footprint
from ptqlab.trainer import TrainConfig, train

SMALL = dict(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32)
TINY_SUITE = TaskSuite(n_eval_prompts=4, diffusion_steps=4)
TINY_LATENCY = LatencyConfig(warmup_runs=2, timed_runs=5, seq_len=32)


@pytest.fixture(scope="module")
def pair():
    ar = train(TrainConfig(mode="ar", steps=2, seed=0, **SMALL))
    diff = train(TrainConfig(mode="diffusion", steps=2, seed=0, **SMALL))
    return ar, diff


class TestSuiteAndConfigs:
    def test_empty_suite_rejected(self):
        with pytest.raises(ContractError):
            TaskSuite(tasks=())

    def test_unknown_task_rejected(self):
        with pytest.raises(ParameterError):
            TaskSuite(tasks=("copy", "mystery"))

    def test_latency_validation(self):
        with pytest.raises(ParameterError):
            LatencyConfig(timed_runs=1)
        with pytest.raises(ParameterError):
            LatencyConfig(warmup_runs=-1)
        with pytest.raises(ParameterError):
            LatencyConfig(unit_of_work="both")

    def test_protocol_defaults(self):
        cfg = LatencyConfig()
        assert (cfg.warmup_runs, cfg.timed_runs) == (200, 2000)
        assert TaskSuite().n_eval_prompts == 50
        assert TaskSuite().diffusion_steps == 16


class TestEvaluateTasks:
    def test_untrained_scores_near_zero_and_deterministic(self, pair):
        ar, diff = pair
        scores = evaluate_tasks(ar, TINY_SUITE)
        assert set(scores) == set(TINY_SUITE.tasks)
        assert scores["copy"] < 0.05
        assert all(0.0 <= v <= 1.0 for v in scores.values())
        assert evaluate_tasks(ar, TINY_SUITE) == scores
        assert evaluate_tasks(diff, TINY_SUITE)["copy"] < 0.05


class TestLatency:
    def test_counts_recorded_exactly(self, pair):
        ar, _ = pair
        res = measure_latency(ar, TINY_LATENCY)
        assert (res.warmup_runs, res.timed_runs) == (2, 5)
        assert res.mean_ms > 0 and res.std_ms >= 0
        assert isinstance(res.timer_warning, bool)

    def test_unit_mode_mismatch(self, pair):
        ar, diff = pair
        with pytest.raises(ContractError):
            measure_latency(diff, TINY_LATENCY)  # defaults to ar_token
        with pytest.raises(ContractError):
            measure_latency(ar, dataclasses.replace(TINY_LATENCY, unit_of_work="diffusion_step"))

    def test_bigger_model_is_slower(self):
        small = new_checkpoint(ModelConfig(mode="ar", **SMALL), 0)
        big_cfg = dict(SMALL, d_model=128, d_ff=256)
        big = new_checkpoint(ModelConfig(mode="ar", **big_cfg), 0)
        cfg = LatencyConfig(warmup_runs=5, timed_runs=50, seq_len=32)
        # wall-clock measurement: allow rare scheduler stalls one retry
        for attempt in range(3):
            if measure_latency(big, cfg).mean_ms > measure_latency(small, cfg).mean_ms:
                break
        else:
            pytest.fail("bigger model never measured slower in 3 attempts")


GRID_DOC = {
    "seed": 0,
    "train": dict(steps=2, **SMALL),
    "suite": {"n_eval_prompts": 4, "diffusion_steps": 4},
    "latency": {"warmup_runs": 2, "timed_runs": 5, "seq_len": 32},
    "sensitivity": {"rho": 0.5, "n_power_iters": 1, "n_batches": 1},
    "grid": {"n_calibration_batches": 2},
}


def workspace(root, **overrides) -> Workspace:
    return Workspace(PipelineConfig.from_dict({**GRID_DOC, "workspace": str(root), **overrides}))


@pytest.fixture(autouse=True)
def no_workspace_override(monkeypatch):
    monkeypatch.delenv(ENV_WORKSPACE, raising=False)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A trained pair and one cold grid over it, with the grid's results."""
    ws = workspace(tmp_path_factory.mktemp("grid") / "ws")
    stage_train(ws)
    return ws, stage_eval(ws)["results"]


@pytest.fixture
def failing_3bit_gptq(monkeypatch):
    """Makes every 3-bit GPTQ layer raise; returns the real layer function."""
    real = gptq_mod.gptq_quantize_layer

    def flaky(weight, calib, cfg):
        if cfg.bits == 3:
            raise ContractError("injected failure")
        return real(weight, calib, cfg)

    monkeypatch.setattr(gptq_mod, "gptq_quantize_layer", flaky)
    return real


def copy_of(ws, tmp_path, **overrides) -> Workspace:
    shutil.copytree(ws.root, tmp_path / "ws")
    return workspace(tmp_path / "ws", **overrides)


def cache_listing(ws) -> dict:
    return {p.name: p.stat().st_mtime_ns for p in (ws.root / "cache").glob("*.json")}


def by_key(results) -> dict:
    return {(r.model, r.method, r.bits_or_plan): r for r in results}


# One changed value for each field of each section a cell's hash covers.
# latency.unit_of_work is left out: the pipeline sets it from the cell's model.
FLIPS = {
    "suite": {"tasks": ("copy",), "n_eval_prompts": 7, "seed": 1, "diffusion_steps": 3},
    "latency": {"warmup_runs": 3, "timed_runs": 7, "seq_len": 16},
    "sensitivity": {"rho": 0.2, "n_power_iters": 2, "eps_scale": 1e-2, "n_batches": 2,
                    "seed": 1},
    "grid": {"bits": (4,), "hawq_splits": ((16, 4),), "hawq_ratio": 0.25,
             "rank_mode": "normalized", "n_calibration_batches": 2},
    "gptq": {"bits": 3, "group_size": 64, "damping": 0.1, "column_order": "by_diag_desc"},
}


class TestGrid:
    def test_cell_hash_covers_every_field(self):
        cfg = PipelineConfig(workspace="ws")
        cell = ("toy-ar", "rtn", "4bit")
        key = cell_hash(cfg, cell, "fingerprint")
        assert set(FLIPS) == set(SECTIONS) - {"train"}  # the fingerprint covers train
        for section, flips in FLIPS.items():
            value = getattr(cfg, section)
            fields = {f.name for f in dataclasses.fields(value)} - {"unit_of_work"}
            assert set(flips) == fields, section
            for name, flipped in flips.items():
                changed = dataclasses.replace(
                    cfg, **{section: dataclasses.replace(value, **{name: flipped})})
                assert cell_hash(changed, cell, "fingerprint") != key, (section, name)
        unit = dataclasses.replace(cfg.latency, unit_of_work="diffusion_step")
        assert cell_hash(dataclasses.replace(cfg, latency=unit), cell, "fingerprint") == key
        assert cell_hash(dataclasses.replace(cfg, seed=1), cell, "fingerprint") != key
        assert cell_hash(cfg, cell, "other fingerprint") != key
        assert cell_hash(cfg, ("toy-ar", "gptq", "4bit"), "fingerprint") != key

    def test_plan_has_22_rows(self):
        rows = plan_grid()
        assert len(rows) == 22

    def test_grid_rows_baseline_and_cache(self, cold, tmp_path):
        ws, results = cold
        assert len(results) == 22
        assert all(r.status == "ok" for r in results)
        assert [(r.model, r.method, r.bits_or_plan) for r in results] == plan_grid(ws.cfg.grid)
        rows = by_key(results)
        base_ar = rows[("toy-ar", "baseline", "16bit")]
        assert base_ar.scores == evaluate_tasks(ws.require_checkpoint("ar"), ws.cfg.suite)
        assert base_ar.raw_bits == 16.0 and base_ar.eff_bits == 16.0
        hawq_rows = [r for r in results if r.method == "hawq"]
        assert {r.bits_or_plan for r in hawq_rows} == {"hawq-16/8", "hawq-8/4"}
        for r in hawq_rows:
            assert 4.0 <= r.raw_bits <= 16.0

        # the grid leaves the sensitivity reports and the plans its hawq cells used
        for mode in ("ar", "diffusion"):
            assert (ws.root / "sensitivity" / f"{mode}.json").exists()
            assert (ws.root / "sensitivity" / f"{mode}.csv").exists()
            ckpt = ws.require_checkpoint(mode)
            for label, split in (("hawq-16/8", "16-8"), ("hawq-8/4", "8-4")):
                plan = QuantPlan.load(ws.root / "plans" / f"{mode}_split_{split}.json")
                raw, eff, _ = memory_footprint(plan, ckpt)
                row = rows[(f"toy-{mode}", "hawq", label)]
                assert (row.raw_bits, row.eff_bits) == (raw, eff)

        # a completed grid re-runs from cache with zero model forwards and
        # rewrites none of its files
        again_ws = copy_of(ws, tmp_path)
        files = {p: p.stat().st_mtime_ns for p in again_ws.root.rglob("*.*")}

        def bomb(*args, **kwargs):
            raise AssertionError("model forward during cached re-run")

        import ptqlab.model.network as network_mod

        original = network_mod.forward_logits
        try:
            ev.forward_logits = bomb
            network_mod.forward_logits = bomb
            again = stage_eval(again_ws)["results"]
        finally:
            ev.forward_logits = original
            network_mod.forward_logits = original
        assert again == results
        assert {p: p.stat().st_mtime_ns for p in files} == files

    def test_failed_cell_recorded_grid_continues(self, cold, tmp_path, failing_3bit_gptq):
        ws = copy_of(cold[0], tmp_path)
        shutil.rmtree(ws.root / "cache")
        results = stage_eval(ws)["results"]
        assert len(results) == 22
        failed = [r for r in results if r.status == "failed"]
        assert {(r.method, r.bits_or_plan) for r in failed} == {("gptq", "3bit")}
        assert all("injected failure" in r.error for r in failed)

    def test_failed_cell_is_not_cached(self, cold, tmp_path, monkeypatch, failing_3bit_gptq):
        ws = copy_of(cold[0], tmp_path)
        shutil.rmtree(ws.root / "cache")
        assert stage_eval(ws)["n_failed"] == 2
        stored = cache_listing(ws)
        assert len(stored) == 20
        monkeypatch.setattr(gptq_mod, "gptq_quantize_layer", failing_3bit_gptq)
        evaled = stage_eval(ws)
        assert evaled["n_failed"] == 0
        listing = cache_listing(ws)
        assert len(listing) == 22 and all(listing[k] == v for k, v in stored.items())
        rebuilt = by_key(evaled["results"])[("toy-ar", "gptq", "3bit")]
        assert rebuilt.scores == by_key(cold[1])[("toy-ar", "gptq", "3bit")].scores

    def test_unreadable_cache_entry_is_a_miss(self, cold, tmp_path):
        ws = copy_of(cold[0], tmp_path)
        cell = by_key(cold[1])[("toy-ar", "rtn", "4bit")]
        entry = ws.root / "cache" / f"{cell.config_hash}.json"
        entry.write_text(entry.read_text()[:20])  # a write cut short
        again = stage_eval(ws)["results"]
        assert by_key(again)[("toy-ar", "rtn", "4bit")].scores == cell.scores
        assert json.loads(entry.read_text())["config_hash"] == cell.config_hash

    def test_gptq_group_size_rebuilds_cells(self, cold, tmp_path):
        ws = copy_of(cold[0], tmp_path, gptq={"group_size": 32})
        before = by_key(cold[1])
        after = by_key(stage_eval(ws)["results"])
        assert all(r.status == "ok" for r in after.values())
        for key, row in after.items():
            if key[1] in ("rtn", "gptq", "hawq"):
                assert row.config_hash != before[key].config_hash, key
        assert after[("toy-ar", "rtn", "4bit")].eff_bits == 4 + 16 / 32
        assert after[("toy-diffusion", "gptq", "4bit")].eff_bits == 4 + 16 / 32
        plan = json.loads((ws.root / "plans" / "ar_split_16-8.json").read_text())
        assert plan["group_size"] == 32
