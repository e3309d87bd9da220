import csv
import dataclasses

import numpy as np
import pytest

import ptqlab.trainer as trainer_mod
from ptqlab.errors import DivergenceError, NumericError, ParameterError
from ptqlab.model import MODE_AR, MODE_DIFFUSION
from ptqlab.numerics import make_rng
from ptqlab.tasks import corpus_hash, load_corpus
from ptqlab.trainer import TrainConfig, train

SMALL = dict(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=32)


class TestConfig:
    def test_zero_steps_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(steps=0)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.0)

    def test_short_context_rejected_with_text(self):
        with pytest.raises(ParameterError):
            TrainConfig(max_seq_len=24)


class TestTraining:
    def test_deterministic_checkpoints(self):
        cfg = TrainConfig(mode=MODE_AR, steps=25, seed=5, **SMALL)
        a = train(cfg)
        b = train(cfg)
        assert a.to_bytes() == b.to_bytes()

    def test_heldout_loss_improves(self):
        ckpt = train(TrainConfig(mode=MODE_AR, steps=300, seed=1, **SMALL))
        assert ckpt.meta["heldout_loss_final"] < ckpt.meta["heldout_loss_init"]

    def test_loss_curve_csv(self, tmp_path):
        log = tmp_path / "curve.csv"
        train(TrainConfig(mode=MODE_AR, steps=12, seed=0, log_path=str(log), **SMALL))
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert rows[0]["step"] == "1"
        assert all(float(r["loss"]) > 0 for r in rows)

    def test_trailing_loss_below_leading(self, tmp_path):
        log = tmp_path / "curve.csv"
        train(TrainConfig(mode=MODE_AR, steps=400, seed=3, log_path=str(log), **SMALL))
        with open(log) as fh:
            losses = [float(r["loss"]) for r in csv.DictReader(fh)]
        assert np.mean(losses[-100:]) < np.mean(losses[:100])

    def test_divergence_names_the_step(self, monkeypatch):
        calls = {"n": 0}
        real = trainer_mod.loss_and_grads

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 7:  # 4 heldout evals run first, then steps 1-3
                raise NumericError("non-finite training loss")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "loss_and_grads", flaky)
        with pytest.raises(DivergenceError, match="^loss became non-finite at step 4$"):
            train(TrainConfig(mode=MODE_AR, steps=50, seed=0, **SMALL))


class TestPairing:
    def test_paired_checkpoints_differ_only_in_mode(self):
        ar = train(TrainConfig(mode=MODE_AR, steps=20, seed=7, **SMALL))
        diff = train(TrainConfig(mode=MODE_DIFFUSION, steps=20, seed=7, **SMALL))
        assert ar.config.mode == MODE_AR
        assert diff.config.mode == MODE_DIFFUSION
        assert dataclasses.replace(ar.config, mode=MODE_DIFFUSION) == diff.config
        assert ar.meta["corpus_hash"] == diff.meta["corpus_hash"] == corpus_hash(load_corpus())

    def test_same_clean_data_stream(self):
        cfg_ar = TrainConfig(mode=MODE_AR, steps=1, seed=9, **SMALL)
        cfg_diff = TrainConfig(mode=MODE_DIFFUSION, steps=1, seed=9, **SMALL)
        corpus = load_corpus()
        batches = {}
        for cfg in (cfg_ar, cfg_diff):
            data_rng = make_rng(cfg.seed + 1)
            corrupt_rng = make_rng(cfg.seed + 2)
            batches[cfg.mode] = [trainer_mod._next_batch(cfg, data_rng, corrupt_rng, corpus)
                                 for _ in range(5)]
        for b_ar, b_diff in zip(batches[MODE_AR], batches[MODE_DIFFUSION]):
            assert np.array_equal(b_ar.token_ids, b_diff.token_ids)
            assert not np.array_equal(b_ar.loss_mask, b_diff.loss_mask)
