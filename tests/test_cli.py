import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ptqlab.cli import main
from ptqlab.errors import ContractError
from ptqlab.pipeline import PipelineConfig, Workspace, _bench_lock
from ptqlab.quant import QuantPlan

README = Path(__file__).resolve().parents[1] / "README.md"

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
                                          {"assign": {"ratios": 5}}])
    def test_malformed_config_value_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        assert main(["train", "-c", cfg]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

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
        bits = sorted(s.bits for s in plan.specs.values())
        assert bits == [8, 8, 8, 16, 16, 16]  # 6 modules split 50/50
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
        assert out["plan"].endswith("ar_split_16-8-4.json")
        bits = sorted(s.bits for s in QuantPlan.load(out["plan"]).specs.values())
        assert bits == [4, 4, 8, 8, 16, 16]

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

    def test_reproduce_idempotent_and_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ws = tmp_path / "ws"
        assert main(["reproduce", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eval"]["n_cells"] == 22
        assert out["eval"]["n_failed"] == 0
        results_csv = (ws / "report" / "results.csv").read_bytes()
        assert (ws / "report" / "pareto.svg").exists()

        assert main(["reproduce", "-c", cfg]) == 0
        capsys.readouterr()
        assert (ws / "report" / "results.csv").read_bytes() == results_csv

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


class TestBenchLock:
    def workspace(self, tmp_path):
        return Workspace(PipelineConfig.from_dict({"workspace": str(tmp_path / "ws")}))

    def test_lock_of_an_exited_process_is_taken_over(self, tmp_path):
        ws = self.workspace(tmp_path)
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait()
        lock = ws.path("bench.lock")
        lock.write_text(str(exited.pid))
        with _bench_lock(ws, timeout_s=1):
            assert lock.read_text() == str(os.getpid())
        assert not lock.exists()

    def test_lock_of_a_running_process_is_kept(self, tmp_path):
        ws = self.workspace(tmp_path)
        lock = ws.path("bench.lock")
        lock.write_text(str(os.getpid()))
        with pytest.raises(ContractError):
            with _bench_lock(ws, timeout_s=0.2):
                pass
        assert lock.read_text() == str(os.getpid())
