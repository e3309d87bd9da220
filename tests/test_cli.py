import argparse
import dataclasses
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ptqlab.reporting as reporting
from ptqlab.cli import build_parser, main
from ptqlab.errors import ContractError
from ptqlab.gptq import GptqConfig, gptq_quantize_model
from ptqlab.pipeline import SECTIONS, PipelineConfig, Workspace, _bench_lock, _hash
from ptqlab.model import ModelCheckpoint, new_checkpoint
from ptqlab.quant import QuantPlan, rtn_quantize_model, uniform_plan
from ptqlab.sensitivity import SensitivityRecord, load_report, rank_sensitivities, save_report
from ptqlab.tasks import TEXT_ROW_LEN, load_corpus
from ptqlab.trainer import TrainConfig, calibration_batches
from test_model import with_header
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


# every integer field of the config, by section (None: the top level), with its least value
COUNTS = [(None, "seed", 0), ("suite", "n_eval_prompts", 1),
          ("suite", "diffusion_steps", 1), ("latency", "warmup_runs", 0),
          ("latency", "timed_runs", 2), ("latency", "seq_len", 1),
          ("grid", "n_calibration_batches", 1), ("gptq", "group_size", 1),
          ("sensitivity", "n_power_iters", 1), ("sensitivity", "n_batches", 1),
          ("train", "steps", 1), ("train", "batch_size", 1), ("train", "d_model", 1),
          ("train", "n_layers", 1), ("train", "n_heads", 1), ("train", "d_ff", 1),
          ("train", "max_seq_len", 32)]  # a text row needs 32 while text_fraction > 0


def config_with(section, key, value):
    """write_config overrides that set ``key`` of ``section`` (None: the top level) to ``value``."""
    return {key: value} if section is None else {section: {**MICRO.get(section, {}), key: value}}


def write_config(tmp_path, **overrides):
    doc = {**MICRO, "workspace": str(tmp_path / "ws"), **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def plan_name(mode, path) -> str:
    """The name of ``mode``'s plan file ``path``: the hash of its widths and group size."""
    plan = QuantPlan.load(path)
    return f"{mode}_{_hash({'bits': plan.bits, 'group_size': plan.group_size})}.json"


def assert_usage_error(capsys, message):
    """Stdout is empty and stderr holds a usage error's JSON, whose message names ``message``."""
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert out == ""
    assert err["error"] == "ParameterError" and err["stage"] is None
    assert message in err["message"]


def without_meta(blob: bytes, key: str) -> bytes:
    """The checkpoint ``blob`` without ``key`` in its header's meta."""
    return with_header(blob, lambda h: {**h, "meta": {k: v for k, v in h["meta"].items()
                                                      if k != key}})


def path_not_a_string(records: list) -> None:
    """Record 0's path made the number 7, and record 1 given its lambda: ranking
    the tie would compare the two paths."""
    records[0]["path"] = 7
    records[1]["lambda"] = records[0]["lambda"]


def unknown_module(records: list) -> None:
    """Record 0 named after a block that the one-block MICRO model lacks."""
    records[0]["path"] = "blocks.9.attn.q.weight"


def wrong_n_params(records: list) -> None:
    records[0]["n_params"] = 1


RATIOS = ("--ratios", "0.5,0.5,0")
BUDGET = ("--budget", "8")


def with_params(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with its tensors edited in place by ``edit(params)``."""
    ckpt = ModelCheckpoint.from_bytes(blob)
    edit(ckpt.params)
    return ckpt.to_bytes()


def non_utf8_tensor_name(blob: bytes) -> bytes:
    """The checkpoint ``blob`` with the first byte of its first tensor name made 0xff,
    which no UTF-8 text starts with."""
    (hlen,) = struct.unpack_from("<I", blob, 8)
    at = 8 + 4 + hlen + 4 + 2  # magic, header, tensor count, name length
    return blob[:at] + b"\xff" + blob[at + 1:]


class TestCliContracts:
    def test_unknown_flag_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg, "--frobnicate"]) == 2
        assert_usage_error(capsys, "--frobnicate")

    @pytest.mark.parametrize("argv, message", [
        ([], "command"), (["bogus"], "bogus"), (["train"], "--config"),
        (["quantize", "-c", "c.json", "--model", "ar"], "--method"),
        (["sensitivity", "-c", "c.json", "--model", "gpt"], "gpt"),
        # a model's latency is the lat_mean_ms/lat_std_ms of its baseline 16bit rows
        (["bench", "-c", "c.json", "--model", "ar"], "bench")])
    def test_usage_errors_are_json(self, capsys, argv, message):
        assert main(argv) == 2
        assert_usage_error(capsys, message)

    def test_invalid_config_json_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workspace": str(tmp_path / "ws"), "bogus": {},
                                    "assign": {"ratios": [1, 0, 0]}}))
        assert main(["train", "-c", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["stage"] == "train"
        assert "unknown config sections: ['assign', 'bogus']" in err["message"]
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("text, message", [
        ("{", "is not valid JSON"), ("[1, 2]", "must be a JSON object"),
        ('{"seed": 0}', "needs a 'workspace' entry"),
        ('{"workspace": "ws", "suite": {"tasks": 5}}', "malformed config value")])
    def test_malformed_config_file_error(self, tmp_path, capsys, monkeypatch, text, message):
        monkeypatch.chdir(tmp_path)  # where the relative workspace would go
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["train", "-c", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and message in err["message"]
        assert list(tmp_path.iterdir()) == [path]

    # unknown keys, fields the pipeline sets itself, and fixed fields
    @pytest.mark.parametrize("section, key", [
        ("train", "stepz"), ("gptq", "groupsize"), ("sensitivity", "granularity"),
        ("train", "mode"), ("train", "log_path"), ("latency", "unit_of_work"),
        ("gptq", "column_order"), ("train", "beta1"), ("train", "beta2"),
        ("train", "adam_eps"), ("suite", "seed")])
    def test_unknown_config_key_error(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path, **{section: {**MICRO.get(section, {}), key: 32}})
        assert main(["train", "-c", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert section in err["message"] and key in err["message"]
        assert not (tmp_path / "ws" / "checkpoints").exists()

    @pytest.mark.parametrize("override", [{"seed": "abc"}, {"train": {"steps": "3"}},
                                          {"suite": {"n_eval_prompts": 0}},
                                          {"suite": {"diffusion_steps": 0}},
                                          {"latency": {"seq_len": 0}},
                                          {"grid": {"bits": [5]}},
                                          {"grid": {"hawq_splits": [[4, 8]]}},
                                          {"grid": {"hawq_ratio": 1.5}},
                                          {"grid": {"rank_mode": "bogus"}},
                                          {"grid": {"n_calibration_batches": 0}},
                                          {"grid": {"bits": [3.0]}},
                                          {"grid": {"hawq_splits": [[16, 8, 4]]}},
                                          {"sensitivity": {"n_batches": 0}},
                                          {"sensitivity": {"n_batches": -3}},
                                          {"sensitivity": {"n_batches": 2.5}},
                                          {"sensitivity": {"n_power_iters": 2.5}},
                                          {"train": 5},
                                          {"suite": {"tasks": ["bogus"]}},
                                          {"suite": {"tasks": []}}, {"suite": {"tasks": None}},
                                          # an array of known task names, each listed once
                                          {"suite": {"tasks": {"copy": 1}}},
                                          {"suite": {"tasks": ["copy", "copy"]}},
                                          {"suite": {"tasks": "copy"}},
                                          config_with("train", "n_heads", 3),
                                          config_with("train", "learning_rate", -1.0),
                                          config_with("train", "text_fraction", 1.0),
                                          config_with("sensitivity", "rho", 0.0),
                                          config_with("sensitivity", "eps_scale", 0.0),
                                          config_with("gptq", "damping", 0.0),
                                          *(config_with(section, key, value)
                                            for section, key, least in COUNTS
                                            for value in (2.5, True, least - 1)),
                                          *(config_with(section, key, float("nan"))
                                            for section, key in [("grid", "hawq_ratio"),
                                                                 ("gptq", "damping"),
                                                                 ("sensitivity", "eps_scale"),
                                                                 ("sensitivity", "rho"),
                                                                 ("train", "learning_rate"),
                                                                 ("train", "text_fraction")]),
                                          {"workspace": 5}, {"workspace": None},
                                          {"workspace": ["a"]}, {"workspace": ""},
                                          config_with("train", "corpus_path", 0),
                                          config_with("train", "corpus_path", True),
                                          config_with("train", "corpus_path", ["a"]),
                                          {"grid": {"bits": [4, 4]}},
                                          {"grid": {"hawq_splits": [[16, 8], [8, 4], [16, 8]]}},
                                          # json.loads reads Infinity
                                          config_with("train", "learning_rate", float("inf")),
                                          config_with("sensitivity", "eps_scale", float("inf")),
                                          config_with("gptq", "damping", float("inf")),
                                          # a bool is no number
                                          config_with("sensitivity", "rho", True),
                                          config_with("grid", "hawq_ratio", False),
                                          config_with("train", "text_fraction", False),
                                          # longer than the model's positions
                                          config_with("latency", "seq_len", 33)])
    def test_malformed_config_value_error(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        assert main(["train", "-c", cfg]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", 0), ("train", "batch_size", 2.5), ("train", "d_model", 16.0),
        (None, "seed", -1), (None, "seed", 2.7),
        # fixed fields, whatever value the file gives
        ("train", "beta1", float("nan")), ("train", "beta2", 1.5), ("train", "adam_eps", -1.0),
        ("suite", "seed", 7)])
    def test_bad_count_fails_train_before_it_writes(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path, **config_with(section, key, value))
        assert main(["train", "-c", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and key in err["message"]
        assert not (tmp_path / "ws").exists()

    def test_corpus_that_is_a_directory_is_a_json_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **config_with("train", "corpus_path", str(tmp_path)))
        assert main(["train", "-c", cfg]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    def test_corpus_shorter_than_a_text_row_fails_train_before_it_writes(self, tmp_path,
                                                                          capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"x" * (TEXT_ROW_LEN - 1))
        # nearly every batch is text, so the first one draws from the corpus
        cfg = write_config(tmp_path, train={**MICRO["train"], "corpus_path": str(corpus),
                                            "text_fraction": 0.99})
        assert main(["train", "-c", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "shorter than one text row" in err["message"]
        assert not (tmp_path / "ws").exists()

    def test_config_that_is_a_directory_is_a_json_error(self, tmp_path, capsys):
        for path in (tmp_path, tmp_path / "missing.json"):
            assert main(["train", "-c", str(path)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ParameterError" and "cannot be read" in err["message"]
            assert str(path) in err["message"]

    def test_missing_prerequisite_names_producer(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "ptqlab train" in err["message"]

    def test_readme_lists_every_subcommand(self):
        # each `ptqlab` line of the README's shell blocks parses, and they name every subcommand
        blocks = [b.split("```")[0] for b in README.read_text().split("```bash\n")[1:]]
        lines = [line.split("#")[0].split() for b in blocks for line in b.splitlines()
                 if line.startswith("ptqlab ")]
        parser = build_parser()
        for argv in lines:
            parser.parse_args(argv[1:])
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        assert {argv[1] for argv in lines} == set(subcommands)

    def test_readme_config_reference_loads_as_the_defaults(self):
        block = README.read_text().split("### Config reference")[1]
        block = block.split("```jsonc\n")[1].split("```")[0]
        doc = json.loads(re.sub(r"//[^\n]*", "", block))
        assert PipelineConfig.from_dict(doc) == PipelineConfig(workspace=doc["workspace"])
        # the reference lists exactly the keys the file may set
        assert set(doc) == {"workspace", "seed", *SECTIONS}
        for name, (section_cls, fixed) in SECTIONS.items():
            fields = {f.name for f in dataclasses.fields(section_cls)}
            assert set(doc[name]) == fields - set(fixed), name

    def test_readme_file_formats_name_the_written_keys(self, tmp_path):
        section = README.read_text().split("## File formats")[1].split("\n## ")[0]

        def named(title):
            """The quoted keys of the first ``{...}`` code span after ``title``."""
            span = re.search(r"`(\{[^`]*\})`", section.split(f"**{title}**")[1]).group(1)
            return set(re.findall(r'"(\w+)"', span))

        plan_path, report_path = tmp_path / "plan.json", tmp_path / "report.json"
        QuantPlan({"blocks.0.attn.q.weight": 4}).save(plan_path)
        plan = json.loads(plan_path.read_text())
        assert named("Quantization plan") == set(plan) | set(plan["modules"][0])
        cfg = TrainConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32)
        ckpt = new_checkpoint(cfg.model_config(), 0)
        header = gptq_quantize_model(ckpt, uniform_plan(ckpt, 8), calibration_batches(cfg, 1),
                                     GptqConfig()).meta["quantization"]
        assert named("Quantized checkpoint") == set(header) | set(header["layers"][0])
        rtn = rtn_quantize_model(ckpt, uniform_plan(ckpt, 8)).meta["quantization"]
        assert set(rtn) == set(header) - {"layers"}
        record = SensitivityRecord("blocks.0.attn.q.weight", 1.5, 256, 2, True)
        save_report([record], PipelineConfig(workspace="w").sensitivity, report_path, "abc")
        report = json.loads(report_path.read_text())
        assert named("Sensitivity report") == set(report) | set(record.to_dict())

    def test_run_seed_sets_the_section_seeds(self):
        direct = PipelineConfig(workspace="w", seed=5)
        loaded = PipelineConfig.from_dict({"workspace": "w", "seed": 5})
        assert direct.train.seed == direct.sensitivity.seed == 5
        assert direct == loaded
        assert direct.train_hash("ar") == loaded.train_hash("ar")
        assert direct.sensitivity_hash("fingerprint") == loaded.sensitivity_hash("fingerprint")

    def test_scope_hashes_are_pinned(self):
        # pinned: a change here makes every existing checkpoint and sensitivity report stale
        cfg = PipelineConfig.from_dict({"workspace": "x", "seed": 3,
                                        "train": {"steps": 40, "corpus_path": "/tmp/c.txt"}})
        assert cfg.train_hash("ar") == "3a4d57f36e6fab09"
        assert cfg.train_hash("diffusion") == "2c4d34b911ba0b18"
        assert cfg.sensitivity_hash("0123456789abcdef") == "c42c9cd4c5fbeb1c"

    @pytest.mark.parametrize("command", [["eval"], ["sensitivity", "--model", "ar"],
                                         ["assign", "--model", "ar"]])
    def test_missing_workspace_is_left_missing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        assert main([command[0], "-c", cfg, *command[1:]]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ContractError"
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["quantize", "--model", "ar", "--method", "rtn", "--bits", "4"],
        ["sensitivity", "--model", "ar"], ["assign", "--model", "ar"], ["eval"],
        ["reproduce"]], ids=lambda command: command[0])
    def test_force_is_not_an_option(self, tmp_path, capsys, command):
        # no flag overrides a stale artifact: `train` retrains what is stale
        cfg = write_config(tmp_path)
        assert main([command[0], "-c", cfg, *command[1:], "--force"]) == 2
        assert_usage_error(capsys, "--force")
        assert not (tmp_path / "ws").exists()

    def test_integer_corpus_path_leaves_stdin_unread(self, tmp_path):
        # an integer path would open a file descriptor: 0 is stdin
        cfg = write_config(tmp_path, **config_with("train", "corpus_path", 0))
        stdin = tmp_path / "stdin.txt"
        stdin.write_bytes(b"Piped text that must not become the corpus.\n" * 20)
        with stdin.open("rb") as fh:
            proc = subprocess.run([sys.executable, "-m", "ptqlab.cli", "train", "-c", cfg],
                                  stdin=fh, capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(SRC)})
            assert os.lseek(fh.fileno(), 0, os.SEEK_CUR) == 0  # shared with the child
        assert proc.returncode == 1 and proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"] == "ParameterError" and "corpus_path" in err["message"]
        assert not (tmp_path / "ws").exists()

    def test_dry_run_plans_22_cells(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["reproduce", "-c", cfg, "--dry-run"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_cells"] == 22
        assert "toy-ar gptq 4bit" in out["cells"]
        assert not (tmp_path / "ws" / "checkpoints").exists()


class TestPipelineStages:
    def test_train_quantize_sensitivity_assign(self, tmp_path, capsys):
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
        assert set(out) == {"checkpoint", "layers"}
        assert [p.name for p in (ws / "quantized").iterdir()] == ["ar_gptq_4bit.ckpt"]
        # the printed rows are the header's
        quantized = ModelCheckpoint.load(out["checkpoint"])
        assert out["layers"] == quantized.meta["quantization"]["layers"]
        assert [row["path"] for row in out["layers"]] == quantized.quantizable_paths()

        assert main(["sensitivity", "-c", cfg, "--model", "diffusion"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["report"]).exists()

        assert main(["assign", "-c", cfg, "--model", "diffusion",
                     "--ratios", "0.5,0.5,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        plan = QuantPlan.load(out["plan"])
        assert sorted(plan.bits.values()) == [8, 8, 8, 16, 16, 16]  # 6 modules split 50/50
        assert set(out) == {"plan", "achieved_avg_bits"}
        ckpt = ModelCheckpoint.load(ws / "checkpoints" / "diffusion.ckpt")
        average = sum(b * ckpt.n_params(p) for p, b in plan.bits.items()) / \
            sum(map(ckpt.n_params, plan.bits))
        assert out["achieved_avg_bits"] == average

    def test_assign_three_tier_ratios(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--ratios", "0.34,0.33,0.33"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["plan"]).name == plan_name("ar", out["plan"])
        assert sorted(QuantPlan.load(out["plan"]).bits.values()) == [4, 4, 8, 8, 16, 16]

    def test_each_plan_has_its_own_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        plans = set()
        for args in (["--ratios", "0.34,0.33,0.33"], ["--budget", "10"]):
            assert main(["assign", "-c", cfg, "--model", "ar", *args]) == 0
            plans.add(json.loads(capsys.readouterr().out)["plan"])
        assert len(plans) == 2
        for path in plans:  # each is named by its widths
            assert Path(path).name == plan_name("ar", path)

    def test_plan_name_covers_the_widths_and_the_group_size(self, tmp_path, capsys):
        # the name hashes what the file holds, however the modules were ranked
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0

        def assign(ratios):
            capsys.readouterr()
            assert main(["assign", "-c", cfg, "--model", "ar", "--ratios", ratios]) == 0
            path = json.loads(capsys.readouterr().out)["plan"]
            assert Path(path).name == plan_name("ar", path)
            return path

        all_16 = assign("1,0,0")
        assert assign("0,1,0") != all_16  # other widths
        write_config(tmp_path, gptq={"group_size": 64})  # rewrites cfg
        assert assign("1,0,0") != all_16  # another group size
        write_config(tmp_path, grid={**MICRO["grid"], "rank_mode": "normalized"})
        assert assign("1,0,0") == all_16  # the same widths, ranked another way
        assert len(list((tmp_path / "ws" / "plans").iterdir())) == 3

    def test_a_plan_has_one_file(self, tmp_path, capsys):
        # `assign` without flags splits as the grid's hawq cells do, and a
        # rescoring that leaves the widths as they were adds no file
        grid = {**MICRO["grid"], "bits": [], "hawq_splits": [[16, 8]], "hawq_ratio": 0.25}
        cfg = write_config(tmp_path, grid=grid)
        assert main(["train", "-c", cfg]) == 0
        assert main(["eval", "-c", cfg]) == 0  # two cells of each model: baseline, hawq-16/8
        plans = tmp_path / "ws" / "plans"
        files = {p: p.read_bytes() for p in plans.iterdir()}
        assert len(files) == 2
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["plan"]) in files
        assert sorted(QuantPlan.load(out["plan"]).bits.values()) == [8] * 5 + [16]
        assert main(["assign", "-c", cfg, "--model", "ar", "--ratios", "1,0,0"]) == 0
        files = {p: p.read_bytes() for p in plans.iterdir()}
        rescored = write_config(tmp_path, grid=grid,
                                sensitivity={**MICRO["sensitivity"], "rho": 0.25})
        assert main(["sensitivity", "-c", rescored, "--model", "ar"]) == 0
        assert main(["assign", "-c", rescored, "--model", "ar", "--ratios", "1,0,0"]) == 0
        assert {p: p.read_bytes() for p in plans.iterdir()} == files

    def test_assign_needs_a_sensitivity_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError"
        assert "`ptqlab sensitivity --model ar`" in err["message"]
        assert not (tmp_path / "ws" / "plans").exists()

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
                    ws.cfg.sensitivity_hash(ckpt.fingerprint))
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "5.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        bits = {m["path"]: m["bits"] for m in json.loads(Path(out["plan"]).read_text())["modules"]}
        assert [bits[p] for p in ranked] == [16] + [8] * 6 + [4] * 11
        average = sum(bits[p] * ckpt.n_params(p) for p in paths) / sum(map(ckpt.n_params, paths))
        assert average == pytest.approx(out["achieved_avg_bits"]) == 5.0

    def test_assign_budget_honours_levels(self, tmp_path, capsys):
        # the waterfill runs over the given levels, to a target between the lowest and highest
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "9",
                     "--levels", "8,4,2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError" and "[2, 8]" in err["message"]
        assert not (tmp_path / "ws" / "plans").exists()
        assert main(["assign", "-c", cfg, "--model", "ar", "--budget", "3",
                     "--levels", "8,4,2"]) == 0
        out = json.loads(capsys.readouterr().out)
        ws = Workspace(PipelineConfig.load(cfg))
        ckpt = ws.require_checkpoint("ar")
        records, _ = load_report(ws.path("sensitivity", "ar.json"))
        ranked = [r.path for r in rank_sensitivities(records, ws.cfg.grid.rank_mode)]
        bits = QuantPlan.load(out["plan"]).bits
        widths = [bits[p] for p in ranked]
        assert set(widths) <= {8, 4, 2} and widths == sorted(widths, reverse=True)
        average = sum(bits[p] * ckpt.n_params(p) for p in ranked) / sum(map(ckpt.n_params, ranked))
        assert average <= 3 and average == pytest.approx(out["achieved_avg_bits"])
        assert widths[0] > widths[-1]  # a mix, not one width

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
                                      ["--levels", "16,8,4,2"], ["--levels", "4,8,16"],
                                      ["--ratios", "nan,0.5,0.5"]])
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

    def test_plan_is_its_widths(self, tmp_path, capsys):
        # an older plan file's other keys are neither read nor copied
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        ckpt = ModelCheckpoint.load(tmp_path / "ws" / "checkpoints" / "ar.ckpt")
        plan = uniform_plan(ckpt, 8, group_size=64)
        path = tmp_path / "plan.json"
        plan.save(path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "version": 1, "config_hash": "0123456789abcdef",
                                    "provenance": "hawq_split", "ratios": ["a", None]}))
        assert QuantPlan.load(path) == plan
        capsys.readouterr()
        assert main(["quantize", "-c", cfg, "--model", "ar", "--method", "rtn",
                     "--plan", str(path)]) == 0
        quantized = ModelCheckpoint.load(json.loads(capsys.readouterr().out)["checkpoint"])
        assert quantized.meta["quantization"] == {"method": "rtn", "plan": plan.bits,
                                                  "group_size": 64}

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
        assert [p.name for p in (tmp_path / "ws" / "quantized").iterdir()] == \
            [Path(out["checkpoint"]).name]
        quantized = ModelCheckpoint.load(out["checkpoint"])
        header = quantized.meta["quantization"]
        assert header == {"method": "gptq", "plan": plan.bits, "group_size": plan.group_size,
                          "layers": out["layers"]}
        assert quantized.params[kept].tobytes() == ckpt.params[kept].tobytes()
        # one row per quantized layer in forward order; the 16-bit layer has none
        assert [(row["path"], row["bits"]) for row in header["layers"]] == \
            [(p, 8) for p in ckpt.quantizable_paths() if p != kept]

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

    def test_plan_that_is_a_directory_is_a_json_error(self, scored, tmp_path, capsys):
        capsys.readouterr()
        assert main(["quantize", "-c", scored, "--model", "ar", "--method", "rtn",
                     "--plan", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    @pytest.mark.parametrize("spoil, message, args", [
        (lambda records: records[0].pop("lambda"), "lambda", RATIOS),
        # a record listed again: a cut would count it twice
        (lambda records: records.append(records[len(records) // 2]), "listed twice", RATIOS),
        (path_not_a_string, "path", RATIOS),
        # the hash still matches, but the records are not the checkpoint's modules
        (unknown_module, "ptqlab sensitivity --model ar", RATIOS),
        (unknown_module, "ptqlab sensitivity --model ar", BUDGET),
        (wrong_n_params, "ptqlab sensitivity --model ar", BUDGET),
    ], ids=["no-lambda", "module-twice", "path-not-a-string", "unknown-module-ratios",
            "unknown-module-budget", "wrong-n-params"])
    def test_malformed_sensitivity_report_is_a_json_error(self, tmp_path, capsys, spoil,
                                                           message, args):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        report = tmp_path / "ws" / "sensitivity" / "ar.json"
        doc = json.loads(report.read_text())
        spoil(doc["records"])
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar", *args]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and message in err["message"]
        assert str(report) in err["message"]
        assert not (tmp_path / "ws" / "plans").exists()

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
        assert "`ptqlab sensitivity --model ar`" in err["message"]
        assert not (tmp_path / "ws" / "plans").exists()
        assert main(["sensitivity", "-c", stale, "--model", "ar"]) == 0
        assert main(["assign", "-c", stale, "--model", "ar"]) == 0

    def test_assign_rejects_a_report_of_a_retrained_checkpoint(self, tmp_path, capsys):
        # a report of checkpoint bytes that were since retrained is stale,
        # though its sensitivity section matches the active config
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        other = write_config(tmp_path, train={**MICRO["train"], "steps": 3})
        capsys.readouterr()
        assert main(["sensitivity", "-c", other, "--model", "ar", "--force"]) == 2
        assert_usage_error(capsys, "--force")
        for command in (["sensitivity"], ["assign"]):  # the checkpoint is stale
            assert main([*command, "-c", other, "--model", "ar"]) == 1
            assert "`ptqlab train`" in json.loads(capsys.readouterr().err)["message"]
        assert main(["train", "-c", other]) == 0
        capsys.readouterr()
        assert main(["assign", "-c", other, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and "ptqlab sensitivity" in err["message"]
        assert not (tmp_path / "ws" / "plans").exists()

    def test_assign_rejects_a_report_of_rewritten_checkpoint_bytes(self, tmp_path, capsys):
        # the checkpoint header, and with it the train hash, is kept: only its bytes tell
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        path = tmp_path / "ws" / "checkpoints" / "ar.ckpt"
        ckpt = ModelCheckpoint.load(path)
        name = ckpt.quantizable_paths()[0]
        ckpt.params[name] = ckpt.params[name] * 2
        ckpt.save(path)
        capsys.readouterr()
        assert main(["assign", "-c", cfg, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and "ptqlab sensitivity" in err["message"]
        assert not (tmp_path / "ws" / "plans").exists()

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

    def test_report_refuses_a_stale_checkpoint(self, tmp_path, capsys):
        assert main(["train", "-c", write_config(tmp_path)]) == 0
        stale = write_config(tmp_path, train={**MICRO["train"], "steps": 3})
        capsys.readouterr()
        assert main(["eval", "-c", stale]) == 1
        assert "`ptqlab train`" in json.loads(capsys.readouterr().err)["message"]
        assert main(["train", "-c", stale]) == 0
        capsys.readouterr()
        assert main(["eval", "-c", stale]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["report"]["results.csv"]).read_text().count("\n") > 22

    def test_edited_corpus_makes_the_checkpoints_stale(self, tmp_path, capsys):
        # the train hash covers the corpus path, not the corpus bytes
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(load_corpus())
        cfg = write_config(tmp_path, **config_with("train", "corpus_path", str(corpus)))
        assert main(["train", "-c", cfg]) == 0
        corpus.write_bytes(load_corpus()[::-1])
        capsys.readouterr()
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ContractError" and "`ptqlab train`" in err["message"]
        assert main(["train", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ar"]["reused"] is False and out["diffusion"]["reused"] is False
        assert main(["train", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ar"]["reused"] is True and out["diffusion"]["reused"] is True

    @pytest.mark.parametrize("spoil, message", [
        (lambda blob: blob[:len(blob) // 2], "truncated"),
        (lambda blob: with_header(blob, lambda h: {**h, "meta": []}), "meta"),
        # the train and corpus hashes stay: the meta lacks a field the stages read
        (lambda blob: without_meta(blob, "heldout_loss_final"), "heldout_loss_final"),
        (non_utf8_tensor_name, "tensor name"),
        # both hashes stay: the tensors or the header config do not fit the configured model
        (lambda blob: with_params(blob, lambda p: p.pop("blocks.0.mlp.fc_in.bias")),
         "blocks.0.mlp.fc_in.bias"),
        (lambda blob: with_params(blob, lambda p: p.update(
            {"blocks.0.ln1.gain": np.ones(7, np.float32)})), "blocks.0.ln1.gain"),
        (lambda blob: with_params(blob, lambda p: p.update(
            {"blocks.1.ln1.gain": np.ones(16, np.float32)})), "blocks.1.ln1.gain"),
        (lambda blob: with_header(blob, lambda h: {**h, "config": {**h["config"],
                                                                   "n_heads": 4}}),
         "model config"),
    ], ids=["truncated", "meta-array", "no-heldout-loss", "tensor-name-not-utf8",
            "missing-tensor", "wrong-shape", "unexpected-tensor", "edited-config"])
    def test_corrupt_checkpoint_is_retrained(self, tmp_path, capsys, spoil, message):
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        ckpt = tmp_path / "ws" / "checkpoints" / "ar.ckpt"
        good = ckpt.read_bytes()
        ckpt.write_bytes(spoil(good))
        capsys.readouterr()
        for command in (["eval"], ["sensitivity", "--model", "ar"]):
            assert main([*command, "-c", cfg]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ContractError" and message in err["message"]
        assert main(["train", "-c", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ar"]["reused"] is False and out["diffusion"]["reused"] is True
        assert ckpt.read_bytes() == good

    @pytest.mark.parametrize("train_config", [None, {"max_seq_len": 32, "batch_size": 64}],
                             ids=["no-train-config", "edited-train-config"])
    def test_calibration_ignores_the_train_config_copy_in_the_meta(self, tmp_path, capsys,
                                                                   train_config):
        # the train hash ties the checkpoint to the config's train section, which
        # calibration reads; the meta's copy of it is vouched for by nothing
        cfg = write_config(tmp_path)
        assert main(["train", "-c", cfg]) == 0
        report = tmp_path / "ws" / "sensitivity" / "ar.json"
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        records = json.loads(report.read_text())["records"]
        ckpt = tmp_path / "ws" / "checkpoints" / "ar.ckpt"
        blob = without_meta(ckpt.read_bytes(), "train_config")
        if train_config is not None:
            blob = with_header(blob, lambda h: {**h, "meta": {**h["meta"],
                                                              "train_config": train_config}})
        ckpt.write_bytes(blob)
        report.unlink()
        capsys.readouterr()
        assert main(["train", "-c", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["ar"]["reused"] is True
        assert main(["sensitivity", "-c", cfg, "--model", "ar"]) == 0
        assert json.loads(report.read_text())["records"] == records


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
        proc = subprocess.Popen([sys.executable, "-c", HOLDER, str(tmp_path / "ws")],
                                stdout=subprocess.PIPE, text=True,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
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
        ws.root.mkdir()
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
