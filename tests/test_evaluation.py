import dataclasses
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import pytest

import ptqlab.evaluation as ev
import ptqlab.gptq as gptq_mod
import ptqlab.pipeline as pipeline
from ptqlab.allocator import assign_precision
from ptqlab.errors import ContractError, ParameterError, ShapeError, is_number
from ptqlab.evaluation import (LatencyConfig, TaskSuite, evaluate_tasks, measure_latency,
                               plan_grid)
from ptqlab.model import ModelConfig, new_checkpoint
from ptqlab.numerics import make_rng
import ptqlab.reporting as reporting
from ptqlab.pipeline import (LATENCY_UNIT, SECTIONS, PipelineConfig, Workspace, _hash,
                             cell_hasher, reproduce, stage_assign, stage_eval, stage_report,
                             stage_sensitivity, stage_train)
from ptqlab.quant import QuantPlan, memory_footprint
from ptqlab.sensitivity import load_report, rank_sensitivities
from ptqlab.tasks import sample_example
from ptqlab.trainer import TrainConfig, train
from test_reporting import RENDERERS, refuse

SMALL = dict(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32)
TINY_SUITE = TaskSuite(n_eval_prompts=4, diffusion_steps=4)
TINY_LATENCY = LatencyConfig(warmup_runs=2, timed_runs=5, seq_len=32)


@pytest.fixture(scope="module")
def pair():
    ar = train(TrainConfig(mode="ar", steps=2, seed=0, **SMALL))
    diff = train(TrainConfig(mode="diffusion", steps=2, seed=0, **SMALL))
    return ar, diff


class TestSuiteAndConfigs:
    @pytest.mark.parametrize("tasks", [(), None])
    def test_empty_suite_rejected(self, tasks):
        with pytest.raises(ParameterError, match="task suite is empty"):
            TaskSuite(tasks=tasks)

    def test_unknown_task_rejected(self):
        with pytest.raises(ParameterError):
            TaskSuite(tasks=("copy", "mystery"))
        # a scored task that generates nothing has no example to sample
        with pytest.raises(ParameterError, match="unknown generation task"):
            sample_example(make_rng(0), "heldout_token_accuracy")

    @pytest.mark.parametrize("tasks", [{"copy": 1}, ["copy", "copy"], "copy", ["mystery"]],
                             ids=["object", "repeat", "string", "unknown"])
    def test_suite_tasks_is_an_array_of_known_names_each_once(self, tasks):
        with pytest.raises(ParameterError, match="suite.tasks"):
            PipelineConfig.from_dict({"workspace": "ws", "suite": {"tasks": tasks}})

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
    def test_counts_recorded_exactly(self, pair, monkeypatch):
        ar, _ = pair
        calls = []
        forward = ev.forward_logits
        monkeypatch.setattr(ev, "forward_logits", lambda *a: calls.append(a) or forward(*a))
        mean_ms, std_ms = measure_latency(ar, TINY_LATENCY)
        assert len(calls) == 2 + 5  # warmup_runs + timed_runs, one unit each
        assert mean_ms > 0 and std_ms >= 0

    def test_unit_mode_mismatch(self, pair):
        ar, diff = pair
        with pytest.raises(ContractError):
            measure_latency(diff, TINY_LATENCY)  # defaults to ar_token
        with pytest.raises(ContractError):
            measure_latency(ar, dataclasses.replace(TINY_LATENCY, unit_of_work="diffusion_step"))

    def test_sequence_longer_than_the_model_is_refused(self, pair):
        ar, _ = pair
        with pytest.raises(ShapeError, match="exceeds max_seq_len"):
            measure_latency(ar, dataclasses.replace(TINY_LATENCY, seq_len=33))

    def test_bigger_model_is_slower(self):
        small = new_checkpoint(ModelConfig(mode="ar", **SMALL), 0)
        big_cfg = dict(SMALL, d_model=128, d_ff=256)
        big = new_checkpoint(ModelConfig(mode="ar", **big_cfg), 0)
        cfg = LatencyConfig(warmup_runs=5, timed_runs=50, seq_len=32)
        # wall-clock measurement: allow rare scheduler stalls one retry
        for attempt in range(3):
            if measure_latency(big, cfg)[0] > measure_latency(small, cfg)[0]:
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

    def flaky(weight, calib, spec, cfg):
        if spec.bits == 3:
            raise ContractError("injected failure")
        return real(weight, calib, spec, cfg)

    monkeypatch.setattr(gptq_mod, "gptq_quantize_layer", flaky)
    return real


def copy_of(ws, tmp_path, **overrides) -> Workspace:
    shutil.copytree(ws.root, tmp_path / "ws")
    return workspace(tmp_path / "ws", **overrides)


def cache_listing(ws) -> dict:
    return {p.name: p.stat().st_mtime_ns for p in (ws.root / "cache").glob("*.json")}


def by_key(results) -> dict:
    return {(r.model, r.method, r.bits_or_plan): r for r in results}


def hawq_plan_path(ws, mode, levels):
    """The plan file of ``mode``'s hawq cell of ``levels``, named by its widths and group size."""
    records, _ = load_report(ws.root / "sensitivity" / f"{mode}.json")
    split = (ws.cfg.grid.hawq_ratio, 1.0 - ws.cfg.grid.hawq_ratio, 0.0)
    plan = assign_precision(rank_sensitivities(records, ws.cfg.grid.rank_mode), split,
                            ws.cfg.gptq.group_size, levels)
    name = _hash({"bits": plan.bits, "group_size": plan.group_size})
    return ws.root / "plans" / f"{mode}_{name}.json"


# One changed value for each field of each section a cell's hash covers,
# except the fields the pipeline sets from the cell's model and the run seed.
SET_BY_PIPELINE = {"latency": {"unit_of_work"}, "sensitivity": {"seed"}}
FLIPS = {
    "suite": {"tasks": ("copy",), "n_eval_prompts": 7, "seed": 1, "diffusion_steps": 3},
    "latency": {"warmup_runs": 3, "timed_runs": 7, "seq_len": 16},
    "sensitivity": {"rho": 0.2, "n_power_iters": 2, "eps_scale": 1e-2, "n_batches": 2},
    "grid": {"bits": (4,), "hawq_splits": ((16, 4),), "hawq_ratio": 0.25,
             "rank_mode": "normalized", "n_calibration_batches": 2},
    "gptq": {"group_size": 64, "damping": 0.1},
}


def cell_hash(cfg, cell, fingerprint):
    return cell_hasher(cfg, cell[0].removeprefix("toy-"), fingerprint)(cell)


class TestGrid:
    def test_cell_hash_covers_every_field(self):
        cfg = PipelineConfig(workspace="ws")
        cell = ("toy-ar", "rtn", "4bit")
        key = cell_hash(cfg, cell, "fingerprint")
        assert set(FLIPS) == set(SECTIONS) - {"train"}  # the fingerprint covers train
        for section, flips in FLIPS.items():
            value = getattr(cfg, section)
            fields = {f.name for f in dataclasses.fields(value)}
            fields -= SET_BY_PIPELINE.get(section, set())
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

    def test_cell_keys_hash_the_full_payload(self):
        default = PipelineConfig(workspace="ws")
        flipped = PipelineConfig(workspace="ws", seed=5, **{
            section: dataclasses.replace(getattr(default, section), **flips)
            for section, flips in FLIPS.items()})
        for cfg in (default, flipped):
            for mode in ("ar", "diffusion"):
                sections = {name: dataclasses.asdict(getattr(cfg, name)) for name in SECTIONS
                            if name != "train"}
                sections["latency"]["unit_of_work"] = LATENCY_UNIT[mode]
                key = cell_hasher(cfg, mode, "fingerprint")
                cells = [c for c in plan_grid(cfg.grid) if c[0] == f"toy-{mode}"]
                assert cells
                for cell in cells:
                    payload = {"cell": [*cell, cfg.seed], "ckpt": "fingerprint", **sections}
                    assert key(cell) == _hash(payload), (cell, cfg.seed)

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
        plans = set()
        for mode in ("ar", "diffusion"):
            assert (ws.root / "sensitivity" / f"{mode}.json").exists()
            assert not (ws.root / "sensitivity" / f"{mode}.csv").exists()
            ckpt = ws.require_checkpoint(mode)
            for label, levels in (("hawq-16/8", (16, 8, 8)), ("hawq-8/4", (8, 4, 4))):
                path = hawq_plan_path(ws, mode, levels)
                plans.add(path)
                raw, eff = memory_footprint(QuantPlan.load(path), ckpt)
                row = rows[(f"toy-{mode}", "hawq", label)]
                assert (row.raw_bits, row.eff_bits) == (raw, eff)
        assert set((ws.root / "plans").iterdir()) == plans

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

    def test_one_model_grid_runs_alone(self, cold, tmp_path, monkeypatch):
        # the diffusion cells alone, on a cold copy of the trained pair, are the
        # full grid's diffusion cells; they score once and write nothing of AR
        ws = copy_of(cold[0], tmp_path)
        for name in ("cache", "sensitivity", "plans"):
            shutil.rmtree(ws.root / name)
        scored, real = [], pipeline.stage_sensitivity
        monkeypatch.setattr(pipeline, "stage_sensitivity",
                            lambda *args: scored.append(1) or real(*args))
        with pipeline._bench_lock(ws):
            cells = pipeline.model_cells(ws, ws.require_checkpoint("diffusion"))

        def fields(results):
            return [(r.model, r.method, r.bits_or_plan, r.status, r.scores, r.raw_bits,
                     r.eff_bits, r.config_hash) for r in results]

        assert len(cells) == 11 and scored == [1]
        assert fields(cells) == fields(r for r in cold[1] if r.mode == "diffusion")
        report = Path("sensitivity", "diffusion.json")
        assert (ws.root / report).read_bytes() == (cold[0].root / report).read_bytes()
        assert not (ws.root / "sensitivity" / "ar.json").exists()
        assert len(cache_listing(ws)) == 11

    def test_cache_keys_hash_the_serialized_checkpoint(self, cold):
        ws, results = cold
        fingerprints = {mode: hashlib.sha256(ws.require_checkpoint(mode).to_bytes())
                        .hexdigest()[:16] for mode in ("ar", "diffusion")}
        for r in results:
            key = cell_hash(ws.cfg, (r.model, r.method, r.bits_or_plan), fingerprints[r.mode])
            assert r.config_hash == key
            assert (ws.root / "cache" / f"{key}.json").exists()

    def test_cached_reproduce_changes_no_file(self, cold, tmp_path, monkeypatch):
        ws = copy_of(cold[0], tmp_path)
        reproduce(ws)  # writes report/
        files = sorted(p for p in ws.root.rglob("*") if p.is_file())
        assert ws.root / "report" / "results.csv" in files
        assert ws.root / "report" / reporting.MANIFEST in files
        for p in files:
            os.utime(p, ns=(10**18, 10**18))  # a rewrite in the same clock tick still shows
        before = {p: p.read_bytes() for p in files}
        for name in RENDERERS:
            monkeypatch.setattr(reporting, name, refuse)
        reproduce(ws)
        assert sorted(p for p in ws.root.rglob("*") if p.is_file()) == files
        for p in files:
            assert (p.read_bytes(), p.stat().st_mtime_ns) == (before[p], 10**18), p

    def test_a_command_reads_each_checkpoint_once_per_verification(self, cold, tmp_path,
                                                                    monkeypatch):
        # a cold grid verifies each checkpoint once, and its stages name their
        # reports and cells by that checkpoint's fingerprint; a cached
        # reproduce verifies it in stage_train and again in stage_eval
        ws = copy_of(cold[0], tmp_path)
        shutil.rmtree(ws.root / "cache")
        reads, real = [], Path.read_bytes

        def counting(path):
            if path.suffix == ".ckpt":
                reads.append(path)
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        stage_eval(ws)
        pair = [ws.checkpoint_path(mode) for mode in ("ar", "diffusion")]
        assert sorted(reads) == pair
        reads.clear()
        reproduce(ws)
        assert sorted(reads) == sorted(pair * 2)

    def test_a_report_names_the_checkpoint_it_scored(self, cold, tmp_path, monkeypatch):
        # another config retrains the pair while the scores are computed: the
        # report is stamped with the checkpoint it scored, so it is stale for
        # the new checkpoint
        ws = copy_of(cold[0], tmp_path)
        other = workspace(ws.root, train={**GRID_DOC["train"], "steps": 3})
        real = pipeline.compute_sensitivities

        def racing(*args):
            records = real(*args)
            stage_train(other)
            return records

        monkeypatch.setattr(pipeline, "compute_sensitivities", racing)
        ckpt = ws.require_checkpoint("ar")
        scored = hashlib.sha256(ckpt.to_bytes()).hexdigest()[:16]
        out = stage_sensitivity(ws, ckpt)
        assert out["config_hash"] == ws.cfg.sensitivity_hash(scored)
        assert load_report(ws.root / "sensitivity" / "ar.json")[1] == out["config_hash"]
        with pytest.raises(ContractError, match="ptqlab sensitivity --model ar"):
            stage_assign(other, other.require_checkpoint("ar"))

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

    @pytest.mark.parametrize("spoil", [
        lambda text, other: text[:20],  # a write cut short
        lambda text, other: json.dumps({**json.loads(text), "lat_mean_ms": "1.0"}),
        lambda text, other: json.dumps({**json.loads(text), "scores": {"copy": "1"}}),
        lambda text, other: other,  # another cell's entry
        # values no ok cell has
        lambda text, other: json.dumps({**json.loads(text), "lat_mean_ms": float("nan")}),
        lambda text, other: json.dumps({**json.loads(text),
                                        "scores": {**json.loads(text)["scores"], "copy": 7.5}}),
    ], ids=["cut-short", "string-latency", "string-score", "other-cell", "nan-latency",
            "score-above-one"])
    def test_unreadable_cache_entry_is_a_miss(self, cold, tmp_path, spoil):
        ws = copy_of(cold[0], tmp_path)
        rows = by_key(cold[1])
        cell = rows[("toy-ar", "rtn", "4bit")]
        entry = ws.root / "cache" / f"{cell.config_hash}.json"
        other = ws.root / "cache" / f"{rows[('toy-ar', 'rtn', '3bit')].config_hash}.json"
        entry.write_text(spoil(entry.read_text(), other.read_text()))
        again = stage_eval(ws)["results"]
        rebuilt = by_key(again)[("toy-ar", "rtn", "4bit")]
        assert rebuilt.scores == cell.scores
        stored = json.loads(entry.read_text())
        assert stored == rebuilt.to_dict() and stored["config_hash"] == cell.config_hash
        assert is_number(stored["lat_mean_ms"]) and math.isfinite(stored["lat_mean_ms"])
        stage_report(ws, again)

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
        plan = json.loads(hawq_plan_path(ws, "ar", (16, 8, 8)).read_text())
        assert plan["group_size"] == 32
