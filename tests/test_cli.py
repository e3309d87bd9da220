import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ptqlab.reporting as reporting
from ptqlab.cli import main
from ptqlab.errors import ContractError
from ptqlab.pipeline import PipelineConfig, Workspace, _bench_lock
from ptqlab.model import ModelCheckpoint
from ptqlab.quant import QuantPlan, uniform_plan
from ptqlab.sensitivity import SensitivityRecord, save_report
from test_reporting import RENDERERS, refuse

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"

MICRO = {
    "seed": 0,
    "train": {"steps": 2, "d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
              "max_seq_len": 32},
    "suite": {"n_eval_prompts": 2, "diffusion_steps": 2},
    "latency": {"warmup_runs": 1, "timed_runs": 3, "seq_len": 32},
    "sensitivity": {"rho": 0.5, "n_power_iters": 1, "n_batches": 1},
    "grid": {"n_calibration_batches": 1},
}


def write_config(tmp_path, **overrides):
    doc = dict(MICRO, workspace=str(tmp_path / "ws"), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCliContracts:
    def test_unknown_flag_nonzero_exit(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "-c", cfg, "--frobnicate"])
        assert exc.value.code != 0

    def test_invalid_config_json_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workspace": str(tmp_path / "ws"), "bogus": {}}))
        assert main(["train", "-c", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["stage"] == "train"

    # unknown keys, and fields the pipeline sets itself
    @pytest.mark.parametrize("section, key", [
        ("train", "stepz"), ("gptq", "groupsize"), ("sensitivity", "granularity"),
        ("train", "mode"), ("train", "log_path"), ("latency", "unit_of_work")])
    def test_unknown_config_key_error(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, **{section: {**MICRO.get(section, {}), key: 32}})
        assert main(["train", "-c", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert section in err["message"] and key in err["message"]
        assert not (tmp_path / "ws" / "checkpoints").exists()

    @pytest.mark.parametrize("override", [{"seed": "abc"}, {"train": {"steps": "3"}},
                                          {"assign": {"ratios": 5}},
                                          {"suite": {"n_eval_prompts": 0}},
                                          {"suite": {"diffusion_steps": 0}},
                                          {"latency": {"seq_len": 0}},
                                          {"assign": {"levels": [16, 8.0, 4]}},
                                          {"assign": {"levels": [16, 8]}},
                                          {"assign": {"levels": [16, 8, 4, 2]}},
                                          {"assign": {"ratios": [0.5, 0.5]}},
                                          {"assign": {"ratios": [0.5, 0.5, 0, 0]}},
                                          {"assign": {"levels": [4, 8, 16]}}])
    def test_malformed_config_value_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        assert main(["train", "-c", cfg]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    def test_config_that_is_a_directory_is_a_json_error(self, tmp_path, capsys):
        assert main(["train", "-c", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and str(tmp_path) in err["message"]

    def test_missing_prerequisite_names_producer(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "ptqlab train" in err["message"]

    def test_readme_config_reference_loads_as_the_defaults(self):
        block = README.read_text().split("### Config reference")[1]
        block = block.split("```jsonc\n")[1].split("```")[0]
        doc = json.loads(re.sub(r"//[^\n]*", "", block))
        assert PipelineConfig.from_dict(doc) == PipelineConfig(workspace=doc["workspace"])

    def test_run_seed_sets_the_section_seeds(self):
        direct = PipelineConfig(workspace="w", seed=5)
        loaded = PipelineConfig.from_dict({"workspace": "w", "seed": 5})
        assert direct.train.seed == direct.sensitivity.seed == 5
        assert direct == loaded
        assert direct.train_hash("ar") == loaded.train_hash("ar")
        assert direct.sensitivity_hash("ar") == loaded.sensitivity_hash("ar")

    def test_plan_hash_covers_rank_mode_and_group_size(self):
        cfg = PipelineConfig(workspace="w")
        changed = [replace(cfg, grid=replace(cfg.grid, rank_mode="normalized")),
                   replace(cfg, gptq=replace(cfg.gptq, group_size=64))]
        hashes = {c.plan_hash("ar", (0.5, 0.5, 0.0), (16, 8, 4)) for c in [cfg, *changed]}
        assert len(hashes) == 3

    def test_dry_run_plans_22_cells(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["reproduce", "-c", cfg, "--dry-run"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_cells"] == 22
        assert "toy-ar gptq 4bit" in out["cells"]
        assert not (tmp_path / "ws" / "checkpoints").exists()


class TestPipelineStages:
    def test_train_quantize_sensitivity_assign_bench(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ws = tmp_path / "ws"

        assert main(["train", "-c", cfg]) == 0
        capsys.readouterr()
        assert (ws / "checkpoints" / "ar.ckpt").exists()
        assert (ws / "checkpoints" / "diffusion.ckpt").exists()
        assert (ws / "logs" / "train_ar.csv").exists()

        # train again: checkpoints reused
        assert main(["train", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ar"]["reused"] is True

        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "gptq",
                     "--bits", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["checkpoint"]).exists()
        assert Path(out["layer_report"]).exists()

        assert main(["sensitivity", "-c", cfg, "--model", "diffusion"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["report"]).exists()

        assert main(["assign", "-c", cfg, "--model", "diffusion",
                     "--ratios", "0.5,0.5,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        plan = QuantPlan.load(out["plan"])
        assert sorted(plan.bits.values()) == [8, 8, 8, 16, 16, 16]  # 6 modules split 50/50
        assert plan.provenance == "hawq_split"

        assert main(["bench", "-c", cfg, "--model", "ar"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["timed_runs"] == 3 and out["warmup_runs"] == 1
        assert out["mean_ms"] > 0

    def test_assign_three_tier_ratios(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--ratios", "0.34,0.33,0.33"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["plan"].endswith(f"ar_{out['config_hash']}.json")
        assert sorted(QuantPlan.load(out["plan"]).bits.values()) == [4, 4, 8, 8, 16, 16]

    def test_each_plan_has_its_own_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        plans = {}
        for args in (["--ratios", "0.34,0.33,0.33"], ["--budget", "10"]):
            assert main(["assign", "-c", cfg, "--model", "ar", *args]) == 0
            out = json.loads(capsys.readouterr().out)
            plans[out["plan"]] = out["ratios"]
        assert len(plans) == 2
        for path, ratios in plans.items():
            assert list(QuantPlan.load(path).ratios) == ratios

    def test_assign_budget_plan_has_the_reported_average(self, tmp_path, capsys):
        # 18 modules: 7 attention projections, one 4x larger MLP projection,
        # then the rest; a 5.1-bit budget puts the first at 16 bits and the
        # next six at 8 (floor((1/18 + 6/18) * 18) is 6, not 7)
        train = {**MICRO["train"], "n_layers": 3, "d_ff": 64}
        cfg = write_config(tmp_path, train=train)
        assert main(["train", "-c", cfg]) == 0
        ws = Workspace(PipelineConfig.load(cfg))
        ckpt = ws.require_checkpoint("ar")
        paths = ckpt.quantizable_paths()
        mlp = [p for p in paths if ".mlp." in p]
        attn = [p for p in paths if ".attn." in p]
        ranked = attn[:7] + mlp[:1] + attn[7:] + mlp[1:]
        records = [SensitivityRecord(p, float(100 - i), ckpt.n_params(p), 1, True)
                   for i, p in enumerate(ranked)]
        save_report(records, ws.cfg.sensitivity, ws.path("sensitivity", "ar.json"),
                    ws.path("sensitivity", "ar.csv"), ws.cfg.sensitivity_hash("ar"))
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "5.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        bits = {m["path"]: m["bits"] for m in json.loads(Path(out["plan"]).read_text())["modules"]}
        assert [bits[p] for p in ranked] == [16] + [8] * 6 + [4] * 11
        average = sum(bits[p] * ckpt.n_params(p) for p in paths) / sum(map(ckpt.n_params, paths))
        assert average == pytest.approx(out["achieved_avg_bits"]) == 5.0
        assert out["ratios"] == [1 / 18, 6 / 18, 11 / 18]

    def test_assign_budget_rejects_levels(self, tmp_path, capsys):
        # the budget search assigns 16/8/4 bits; other levels would break its average
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "10",
                     "--levels", "8,4,4"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "ws" / "plans").exists()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "10"]) == 0

    @pytest.fixture(scope="class")
    def scored(self, tmp_path_factory):
        """A config whose workspace holds a trained pair and the AR sensitivity report."""
        cfg = write_config(tmp_path_factory.mktemp("scored"))
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        return cfg

    @pytest.mark.parametrize("args", [["--ratios", "0.5,x"], ["--levels", "8,4.5"],
                                      ["--ratios", "0.5,0.5"], ["--ratios", "0.5,0.5,0,0"],
                                      ["--ratios", "0.4,0.3,0.3", "--levels", "16,8"],
                                      ["--levels", "16,8,4,2"], ["--levels", "4,8,16"]])
    def test_malformed_assign_flags_are_a_json_error(self, scored, capsys, args):
        capsys.readouterr()
        assert main(["assign", "-c", scored, "--model", "ar", *args]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (Path(scored).parent / "ws" / "plans").exists()

    def test_assign_budget_rejects_ratios(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "10",
                     "--ratios", "0.5,0.5,0"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "ws" / "plans").exists()

    def test_rtn_rejects_bits_with_a_plan(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        ckpt = ModelCheckpoint.load(tmp_path / "ws" / "checkpoints" / "ar.ckpt")
        plan = tmp_path / "plan.json"
        uniform_plan(ckpt, 8).save(plan)
        capsys.readouterr()
        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "rtn",
                     "--bits", "2", "--plan", str(plan)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "ws" / "quantized").exists()
        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "rtn",
                     "--plan", str(plan)]) == 0

    def test_gptq_takes_a_plan(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        ckpt = ModelCheckpoint.load(tmp_path / "ws" / "checkpoints" / "ar.ckpt")
        plan = uniform_plan(ckpt, 8)
        kept = plan.paths()[0]
        plan.bits[kept] = 16
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        capsys.readouterr()
        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "gptq",
                     "--bits", "4", "--plan", str(plan_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "ws" / "quantized").exists()
        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "gptq",
                     "--plan", str(plan_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        quantized = ModelCheckpoint.load(out["checkpoint"])
        assert quantized.meta["quantization"] == {"method": "gptq", "plan": plan.bits}
        assert quantized.params[kept].tobytes() == ckpt.params[kept].tobytes()
        layers = Path(out["layer_report"]).read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in layers] == \
            [[p, "8"] for p in ckpt.quantizable_paths() if p != kept]

    @pytest.mark.parametrize("text", ['{"version": 1, "group_size": 128, "modu',
                                      '{"version": 1, "group_size": 128}'])
    def test_malformed_plan_is_a_json_error(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        capsys.readouterr()
        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "rtn",
                     "--plan", str(plan)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and str(plan) in err["message"]

    def test_malformed_sensitivity_report_is_a_json_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        report = tmp_path / "ws" / "sensitivity" / "ar.json"
        doc = json.loads(report.read_text())
        del doc["records"][0]["lambda"]
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--force"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and "lambda" in err["message"]

    def test_assign_rejects_stale_sensitivity(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        # changing the sensitivity config invalidates the stored report
        stale = write_config(tmp_path, sensitivity={"rho": 0.9, "n_power_iters": 1,
                                                    "n_batches": 1})
        assert main(["assign", "-c", stale, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "sensitivity" in err["message"]
        capsys.readouterr()
        assert main(["assign", "-c", stale, "--model", "ar", "--force"]) == 0

    def test_reproduce_idempotent_and_deterministic(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        ws = tmp_path / "ws"
        assert main(["reproduce", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eval"]["n_cells"] == 22
        assert out["eval"]["n_failed"] == 0
        assert (ws / "report" / "pareto.svg").exists()
        report = {p: p.read_bytes() for p in (ws / "report").iterdir()}
        assert ws / "report" / reporting.MANIFEST in report

        # the cached cells equal the fresh ones, so the report is not rendered again
        for name in RENDERERS:
            monkeypatch.setattr(reporting, name, refuse)
        assert main(["reproduce", "-c", cfg]) == 0
        capsys.readouterr()
        assert {p: p.read_bytes() for p in (ws / "report").iterdir()} == report

    def test_truncated_checkpoint_is_retrained(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        ckpt = tmp_path / "ws" / "checkpoints" / "ar.ckpt"
        good = ckpt.read_bytes()
        ckpt.write_bytes(good[:len(good) // 2])
        capsys.readouterr()
        assert main(["eval", "-c", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and "truncated" in err["message"]
        assert main(["train", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ar"]["reused"] is False and out["diffusion"]["reused"] is True
        assert ckpt.read_bytes() == good


# a process that holds the bench lock of the workspace in argv[1] until it is killed
HOLDER = """
import sys, time
from ptqlab.pipeline import PipelineConfig, Workspace, _bench_lock
with _bench_lock(Workspace(PipelineConfig(workspace=sys.argv[1]))):
    print("held", flush=True)
    time.sleep(600)
"""


class TestBenchLock:
    def workspace(self, tmp_path):
        return Workspace(PipelineConfig.from_dict({"workspace": str(tmp_path / "ws")}))

    @pytest.fixture
    def holder(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PTQLAB_WORKSPACE", None)
        proc = subprocess.Popen([sys.executable, "-c", HOLDER, str(tmp_path / "ws")],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert proc.stdout.readline() == "held\n"
            yield proc
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_lock_of_a_running_process_is_kept(self, tmp_path, holder):
        ws = self.workspace(tmp_path)
        start = time.monotonic()
        with pytest.raises(ContractError, match="bench.lock"):
            with _bench_lock(ws, timeout_s=0.3):
                pass
        assert time.monotonic() - start >= 0.3
        assert holder.poll() is None

    def test_lock_of_an_exited_process_is_taken_over(self, tmp_path, holder):
        ws = self.workspace(tmp_path)
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=10)
        with _bench_lock(ws, timeout_s=0):  # no wait: the kernel dropped the lock
            pass
        assert ws.path("bench.lock").exists()

    def test_pid_file_of_an_older_version_is_no_lock(self, tmp_path):
        ws = self.workspace(tmp_path)
        lock = ws.path("bench.lock")
        lock.write_text(str(os.getpid()))  # a live pid, which the pid-file protocol waited on
        with _bench_lock(ws, timeout_s=0):
            pass

    def test_lock_is_released_when_the_body_raises(self, tmp_path):
        ws = self.workspace(tmp_path)
        with pytest.raises(RuntimeError):
            with _bench_lock(ws, timeout_s=0):
                raise RuntimeError("timing failed")
        # a second open file description conflicts with one still holding the lock
        with _bench_lock(ws, timeout_s=0):
            pass
