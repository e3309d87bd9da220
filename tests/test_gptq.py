import itertools

import numpy as np
import pytest

from ptqlab.errors import NotPositiveDefiniteError, ParameterError
from ptqlab.gptq import (MAX_RETRIES, GptqConfig, LayerCalibration, collect_calibration,
                         gptq_quantize_layer, gptq_quantize_model)
from ptqlab.model import Batch, ModelConfig, new_checkpoint
from ptqlab.numerics import make_rng
from ptqlab.quant import GroupQuantSpec, dequantize, quantize_weight
from ptqlab.trainer import TrainConfig, calibration_batches


def recon_error(w, deq, h):
    d = np.asarray(w, dtype=np.float64) - deq
    return float(np.trace(d.T @ d @ h)) / 2.0


def rtn_deq(w, bits, group_size=128):
    return dequantize(quantize_weight(w, GroupQuantSpec(bits, group_size)))


def calib_from_inputs(x, path="layer"):
    x = np.asarray(x, dtype=np.float64)
    c = LayerCalibration(path, np.zeros((x.shape[1], x.shape[1])))
    c.add(x)
    return c


class TestCalibration:
    def test_single_outer_product(self):
        c = calib_from_inputs(np.array([[1.0, 0.0]]))
        assert np.array_equal(c.hessian, np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert c.n_samples == 1

    def test_additivity_doubles(self):
        rng = make_rng(0)
        x = rng.standard_normal((5, 3))
        once = calib_from_inputs(x)
        twice = calib_from_inputs(np.vstack([x, x]))
        assert np.allclose(twice.hessian, 2.0 * once.hessian, rtol=1e-12)

    def test_model_level_hessians_psd_and_double(self):
        ckpt = new_checkpoint(ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                          max_seq_len=32, mode="ar"), 1)
        rng = make_rng(5)
        ids = rng.integers(0, 256, size=(2, 6))
        batch = Batch(ids, np.zeros_like(ids, dtype=bool))
        single = collect_calibration(ckpt, [batch])
        double = collect_calibration(ckpt, [batch, batch])
        for path, calib in single.items():
            assert np.allclose(calib.hessian, calib.hessian.T, atol=1e-9)
            eigs = np.linalg.eigvalsh(calib.hessian)
            assert eigs.min() >= -1e-8  # dense PSD oracle
            assert np.allclose(double[path].hessian, 2 * calib.hessian, rtol=1e-12)


class TestLayerQuantization:
    def test_identity_hessian_equals_rtn(self):
        rng = make_rng(3)
        w = rng.standard_normal((6, 12))
        calib = LayerCalibration("l", np.eye(12), n_samples=12)
        qw, _ = gptq_quantize_layer(w, calib, GptqConfig(bits=3))
        rtn_qw = quantize_weight(w, GroupQuantSpec(3, 128))
        assert np.array_equal(qw.codes, rtn_qw.codes)
        assert np.allclose(qw.scales, rtn_qw.scales)

    def test_two_column_instance_matches_brute_force(self):
        # strongly correlated inputs; scale is 1.0 so codes live on {-1,0,1}
        w = np.array([[1.0, 0.55]])
        x = np.array([[1.0, 0.97], [0.9, 0.88], [1.1, 1.05], [-1.0, -0.96]])
        calib = calib_from_inputs(x)
        cfg = GptqConfig(bits=2)
        qw, err = gptq_quantize_layer(w, calib, cfg)
        h = calib.hessian

        scale = qw.scales[0, 0]
        best = min(recon_error(w, np.array([[c1 * scale, c2 * scale]]), h)
                   for c1, c2 in itertools.product((-1, 0, 1), repeat=2))
        assert err <= best * (1 + 1e-9)
        assert err <= recon_error(w, rtn_deq(w, 2), h) * (1 + 1e-9)

    def test_compensation_changes_codes_and_wins(self):
        # inputs where dim 0 dominates dim 1, so the inverse-Hessian update
        # moves column 1 across a rounding boundary after column 0 quantizes
        rng = make_rng(11)
        x1 = rng.standard_normal(200)
        x2 = 0.3 * x1 + 0.02 * rng.standard_normal(200)
        x = np.stack([x1, x2], axis=1)
        calib = calib_from_inputs(x)
        w = np.array([[0.55, 1.0]])
        qw, err = gptq_quantize_layer(w, calib, GptqConfig(bits=2))
        rtn_qw = quantize_weight(w, GroupQuantSpec(2, 128))
        assert not np.array_equal(qw.codes, rtn_qw.codes)
        assert err <= recon_error(w, dequantize(rtn_qw), calib.hessian) * (1 + 1e-9)

    def test_statistical_dominance_over_rtn(self):
        # 100 random 16x16 layers at 3 bits with correlated calibration
        rng = make_rng(1234)
        wins = 0
        improvements = []
        for _ in range(100):
            mix = rng.standard_normal((16, 16))
            x = rng.standard_normal((64, 16)) @ mix
            calib = calib_from_inputs(x)
            w = rng.standard_normal((16, 16)) * 0.5
            _, gptq_err = gptq_quantize_layer(w, calib, GptqConfig(bits=3))
            rtn_err = recon_error(w, rtn_deq(w, 3), calib.hessian)
            wins += gptq_err <= rtn_err
            improvements.append(rtn_err - gptq_err)
        assert wins >= 90
        assert np.median(improvements) > 0

    def test_ragged_groups_and_diag_order(self):
        rng = make_rng(7)
        w = rng.standard_normal((4, 10))
        x = rng.standard_normal((40, 10)) @ rng.standard_normal((10, 10))
        calib = calib_from_inputs(x)
        for order in ("ascending", "by_diag_desc"):
            qw, err = gptq_quantize_layer(w, calib, GptqConfig(bits=4, group_size=4,
                                                               column_order=order))
            assert qw.codes.shape == w.shape
            assert qw.scales.shape == (4, 3)  # 4,4,2 ragged split
            assert err >= 0
            # output sits on its own grid: re-quantizing is a fixed point
            deq = dequantize(qw)
            again = quantize_weight(deq, GroupQuantSpec(4, 4))
            assert np.allclose(dequantize(again), deq, atol=1e-12)

    def test_damping_retries_then_hard_error(self):
        # [[0, a], [a, 0]] has a zero diagonal, so damping starts at 0.01 and
        # H + delta I is positive definite only once delta > a; each retry
        # multiplies delta by 10
        def indefinite(a):
            return LayerCalibration("l", np.array([[0.0, a], [a, 0.0]]), n_samples=4)

        w = np.array([[0.5, -0.2]])
        assert MAX_RETRIES == 3
        qw, _ = gptq_quantize_layer(w, indefinite(5.0), GptqConfig(bits=3))  # delta 10: last try
        assert qw.codes.shape == (1, 2)
        with pytest.raises(NotPositiveDefiniteError):
            gptq_quantize_layer(w, indefinite(50.0), GptqConfig(bits=3))

    def test_config_rejects_16_bits(self):
        with pytest.raises(ParameterError):
            GptqConfig(bits=16)


class TestModelQuantization:
    def make_setup(self, mode="ar"):
        cfg = TrainConfig(mode=mode, steps=1, seed=2, d_model=16, n_layers=1,
                          n_heads=2, d_ff=32, max_seq_len=32)
        from ptqlab.trainer import train

        ckpt = train(cfg)
        return ckpt, calibration_batches(cfg, 3)

    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_quantize_model_runs_and_reports(self, mode):
        ckpt, batches = self.make_setup(mode)
        out, report = gptq_quantize_model(ckpt, batches, GptqConfig(bits=4))
        paths = ckpt.quantizable_paths()
        assert [r["path"] for r in report] == paths
        for row in report:
            assert row["recon_error"] >= 0
            assert row["scale_min"] > 0
        for p in paths:
            assert not np.array_equal(out.params[p], ckpt.params[p])
        untouched = set(ckpt.params) - set(paths)
        for p in untouched:
            assert np.array_equal(out.params[p], ckpt.params[p])

    def test_deterministic(self):
        ckpt, batches = self.make_setup()
        a, _ = gptq_quantize_model(ckpt, batches, GptqConfig(bits=3))
        b, _ = gptq_quantize_model(ckpt, batches, GptqConfig(bits=3))
        assert a.to_bytes() == b.to_bytes()

    def test_sequential_differs_from_isolated(self):
        ckpt, batches = self.make_setup()
        cfg = GptqConfig(bits=2)
        seq, _ = gptq_quantize_model(ckpt, batches, cfg)
        # reference: every layer calibrated on the unquantized model
        calibs = collect_calibration(ckpt, batches)
        paths = ckpt.quantizable_paths()
        iso = {p: dequantize(gptq_quantize_layer(ckpt.params[p], calibs[p], cfg)[0])
               .astype(np.float32) for p in paths}
        # the first stage (q/k/v) sees the same calibration either way, later
        # stages see the quantized prefix only in sequential calibration
        assert paths[:3] == [f"blocks.0.attn.{x}.weight" for x in "qkv"]
        assert all(np.array_equal(seq.params[p], iso[p]) for p in paths[:3])
        assert any(not np.array_equal(seq.params[p], iso[p]) for p in paths[3:])

    def test_gptq4_at_least_rtn4_minus_one_point_over_seeds(self):
        # paired end-task comparison across three training seeds
        from ptqlab.evaluation import TaskSuite, evaluate_tasks
        from ptqlab.quant import rtn_quantize_model, uniform_plan
        from ptqlab.trainer import train

        suite = TaskSuite(tasks=("copy", "reverse", "pattern_completion"),
                          n_eval_prompts=100)
        for seed in (0, 1, 2):
            cfg = TrainConfig(mode="ar", steps=600, seed=seed, d_model=32,
                              n_layers=1, n_heads=2, d_ff=64, max_seq_len=32)
            ckpt = train(cfg)
            batches = calibration_batches(cfg, 4)
            gptq_ckpt, _ = gptq_quantize_model(ckpt, batches, GptqConfig(bits=4))
            rtn_ckpt = rtn_quantize_model(ckpt, uniform_plan(ckpt, 4))
            g = np.mean(list(evaluate_tasks(gptq_ckpt, suite).values()))
            r = np.mean(list(evaluate_tasks(rtn_ckpt, suite).values()))
            assert g >= r - 0.01 - 1e-9, (seed, g, r)
