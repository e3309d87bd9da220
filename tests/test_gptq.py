import itertools
import math

import numpy as np
import pytest

import ptqlab.gptq as gptq_mod
from ptqlab.errors import CoverageError, NotPositiveDefiniteError, ParameterError
from ptqlab.gptq import (MAX_RETRIES, GptqConfig, _damped_inverse_factor, collect_calibration,
                         gptq_quantize_layer, gptq_quantize_model)
from ptqlab.model import (ModelConfig, forward_logits, layers, network, new_checkpoint,
                          prediction_targets)
from ptqlab.model.network import projection_key
from ptqlab.numerics import cholesky_upper_of_inverse, make_rng
from ptqlab.quant import (GroupQuantSpec, QuantizedWeight, QuantPlan, dequantize,
                          group_scales, quantize_weight, uniform_plan)

from kernel_reference import round_half_away_from_zero
from ptqlab.trainer import TrainConfig, calibration_batches


def recon_error(w, deq, h):
    d = np.asarray(w, dtype=np.float64) - deq
    return float(np.sum((d @ h) * d)) / 2.0


def rtn_deq(w, bits, group_size=128):
    return dequantize(quantize_weight(w, GroupQuantSpec(bits, group_size)))


def calib_from_inputs(x):
    """The calibration Hessian 2 xᵀx of a (tokens, d_in) block of inputs."""
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * (x.T @ x)


def full_forward_inputs(ckpt, batches) -> dict:
    """path -> the 2-D input of that projection in a full forward (head included) per batch."""
    by_id = {id(ckpt.params[p]): p for p in ckpt.quantizable_paths()}
    seen: dict = {}
    real = layers.linear_fwd

    def recording(x, weight, bias):
        if id(weight) in by_id:
            seen.setdefault(by_id[id(weight)], []).append(np.array(x, dtype=np.float32))
        return real(x, weight, bias)

    layers.linear_fwd = recording
    try:
        for batch in batches:
            forward_logits(ckpt.params, ckpt.config, prediction_targets(ckpt.config, batch)[0])
    finally:
        layers.linear_fwd = real
    return seen


def calib_from_list(xs, d_in):
    """The Hessian summed batch by batch, as the pipeline sums it."""
    h = np.zeros((d_in, d_in))
    for x in xs:
        h += calib_from_inputs(x)
    return h


def reference_quantize_layer(weight, h, spec, cfg):
    """The column loop on an untransposed (d_out, d_in) working copy.

    It rounds by sign(x) * floor(|x| + 0.5) and clips with ``np.clip``.
    """
    w_orig = np.asarray(weight, dtype=np.float64)
    d_out, d_in = w_orig.shape
    w = w_orig.copy()
    upper = _damped_inverse_factor(h, cfg.damping)
    qmax, gs = spec.qmax, spec.group_size
    scales = np.zeros((d_out, math.ceil(d_in / gs)))
    codes = np.zeros((d_out, d_in), dtype=np.int16)
    deq = np.zeros((d_out, d_in))
    for j in range(d_in):
        if j % gs == 0:
            scales[:, j // gs] = group_scales(w[:, j:j + gs], qmax)
        s = scales[:, j // gs]
        codes[:, j] = np.clip(round_half_away_from_zero(w[:, j] / s), -qmax, qmax)
        deq[:, j] = codes[:, j].astype(np.float64) * s
        if j + 1 < d_in:
            err = (w[:, j] - deq[:, j]) / upper[j, j]
            w[:, j + 1:] -= np.outer(err, upper[j, j + 1:])
    delta = w_orig - deq
    qw = QuantizedWeight(spec, scales, codes)
    return qw, float(np.sum((delta @ h) * delta)) / 2.0


def reference_quantize_model(ckpt, plan, batches, cfg):
    """Sequential GPTQ, each stage calibrated by full forwards of the quantized prefix.

    The layers of ``plan`` at 16 bits are kept.
    """
    out = ckpt.copy()
    errors = []
    # (block, stage): the layers of a stage share an input
    for _, stage in itertools.groupby(ckpt.quantizable_paths(),
                                      key=lambda p: projection_key(p)[:2]):
        stage = [p for p in stage if plan.bits[p] != 16]
        seen = full_forward_inputs(out, batches)
        for p in stage:
            h = calib_from_list(seen[p], out.params[p].shape[1])
            spec = GroupQuantSpec(plan.bits[p], plan.group_size)
            qw, err = reference_quantize_layer(out.params[p], h, spec, cfg)
            out.params[p] = dequantize(qw).astype(np.float32)
            errors.append((p, err))
    return out, errors


class TestCalibration:
    def test_single_outer_product(self):
        h = calib_from_inputs(np.array([[1.0, 0.0]]))
        assert np.array_equal(h, np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_additivity_doubles(self):
        rng = make_rng(0)
        x = rng.standard_normal((5, 3))
        once = calib_from_inputs(x)
        twice = calib_from_inputs(np.vstack([x, x]))
        assert np.allclose(twice, 2.0 * once, rtol=1e-12)

    def test_model_level_hessians_psd_and_double(self):
        ckpt = new_checkpoint(ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                          max_seq_len=32, mode="ar"), 1)
        rng = make_rng(5)
        x, _ = network.embed_fwd(ckpt.params, ckpt.config, rng.integers(0, 256, size=(2, 6)))
        for path in ckpt.quantizable_paths():
            h = collect_calibration(ckpt, [x], [path])
            double = collect_calibration(ckpt, [x, x], [path])
            assert h.dtype == np.float64
            assert np.allclose(h, h.T, atol=1e-9)
            eigs = np.linalg.eigvalsh(h)
            assert eigs.min() >= -1e-8  # dense PSD oracle
            assert np.allclose(double, 2 * h, rtol=1e-12)


class TestLayerQuantization:
    def test_identity_hessian_equals_rtn(self):
        rng = make_rng(3)
        w = rng.standard_normal((6, 12))
        qw, _ = gptq_quantize_layer(w, np.eye(12), GroupQuantSpec(3), GptqConfig())
        rtn_qw = quantize_weight(w, GroupQuantSpec(3, 128))
        assert np.array_equal(qw.codes, rtn_qw.codes)
        assert np.allclose(qw.scales, rtn_qw.scales)

    def test_two_column_instance_matches_brute_force(self):
        # strongly correlated inputs; scale is 1.0 so codes live on {-1,0,1}
        w = np.array([[1.0, 0.55]])
        x = np.array([[1.0, 0.97], [0.9, 0.88], [1.1, 1.05], [-1.0, -0.96]])
        h = calib_from_inputs(x)
        qw, err = gptq_quantize_layer(w, h, GroupQuantSpec(2), GptqConfig())

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
        h = calib_from_inputs(x)
        w = np.array([[0.55, 1.0]])
        qw, err = gptq_quantize_layer(w, h, GroupQuantSpec(2), GptqConfig())
        rtn_qw = quantize_weight(w, GroupQuantSpec(2, 128))
        assert not np.array_equal(qw.codes, rtn_qw.codes)
        assert err <= recon_error(w, dequantize(rtn_qw), h) * (1 + 1e-9)

    def test_statistical_dominance_over_rtn(self):
        # 100 random 16x16 layers at 3 bits with correlated calibration
        rng = make_rng(1234)
        wins = 0
        improvements = []
        for _ in range(100):
            mix = rng.standard_normal((16, 16))
            x = rng.standard_normal((64, 16)) @ mix
            h = calib_from_inputs(x)
            w = rng.standard_normal((16, 16)) * 0.5
            _, gptq_err = gptq_quantize_layer(w, h, GroupQuantSpec(3), GptqConfig())
            rtn_err = recon_error(w, rtn_deq(w, 3), h)
            wins += gptq_err <= rtn_err
            improvements.append(rtn_err - gptq_err)
        assert wins >= 90
        assert np.median(improvements) > 0

    def test_ragged_groups_land_on_their_grid(self):
        rng = make_rng(7)
        w = rng.standard_normal((4, 10))
        x = rng.standard_normal((40, 10)) @ rng.standard_normal((10, 10))
        h = calib_from_inputs(x)
        qw, err = gptq_quantize_layer(w, h, GroupQuantSpec(4, 4), GptqConfig())
        assert qw.codes.shape == w.shape
        assert qw.scales.shape == (4, 3)  # 4,4,2 ragged split
        assert err >= 0
        # output sits on its own grid: re-quantizing is a fixed point
        deq = dequantize(qw)
        again = quantize_weight(deq, GroupQuantSpec(4, 4))
        assert np.allclose(dequantize(again), deq, atol=1e-12)

    def test_one_row_float64_weight_is_left_unchanged(self):
        # the transpose of a (1, d_in) float64 weight is already contiguous,
        # so only an explicit copy keeps the loop off the caller's array
        rng = make_rng(8)
        w = rng.standard_normal((1, 9))
        before = w.tobytes()
        h = calib_from_inputs(rng.standard_normal((20, 9)) @ rng.standard_normal((9, 9)))
        qw, _ = gptq_quantize_layer(w, h, GroupQuantSpec(2, 4), GptqConfig())
        assert not np.array_equal(dequantize(qw), w)
        assert w.tobytes() == before

    def test_damping_retries_then_hard_error(self):
        # [[0, a], [a, 0]] has a zero diagonal, so damping starts at 0.01 and
        # H + delta I is positive definite only once delta > a; each retry
        # multiplies delta by 10
        def indefinite(a):
            return np.array([[0.0, a], [a, 0.0]])

        w = np.array([[0.5, -0.2]])
        assert MAX_RETRIES == 3
        # delta 10: the last try
        qw, _ = gptq_quantize_layer(w, indefinite(5.0), GroupQuantSpec(3), GptqConfig())
        assert qw.codes.shape == (1, 2)
        with pytest.raises(NotPositiveDefiniteError):
            gptq_quantize_layer(w, indefinite(50.0), GroupQuantSpec(3), GptqConfig())

    def test_a_failed_factorization_retries_with_more_damping(self, monkeypatch):
        # In floating point the Cholesky factorization of an SPD matrix can
        # fail when its eigenvalues span many decades. The fake below fails
        # the first factorization on every BLAS build.
        real, seen = np.linalg.cholesky, []

        def cholesky(a):
            seen.append(a)
            if len(seen) == 1:
                raise np.linalg.LinAlgError("injected")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        h = 2.0 * np.eye(2)
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            cholesky_upper_of_inverse(h)
        seen.clear()
        upper = _damped_inverse_factor(h, 0.01)
        # delta 0.02 fails, the retry at delta 0.2 succeeds
        assert [a[0, 0] for a in seen] == pytest.approx([2.02, 2.2])
        assert len(seen) == 2
        assert np.allclose(upper, np.eye(2) / np.sqrt(2.2))

    def test_transposed_loop_matches_reference_bytes(self):
        rng = make_rng(21)
        for d_out, d_in, group in ((5, 12, 4), (7, 10, 128), (3, 9, 4)):
            w = rng.standard_normal((d_out, d_in))
            h = calib_from_inputs(rng.standard_normal((30, d_in)) @
                                  rng.standard_normal((d_in, d_in)))
            cfg = GptqConfig()
            for bits in (2, 3, 4, 8):
                spec = GroupQuantSpec(bits, group)
                qw, err = gptq_quantize_layer(w, h, spec, cfg)
                ref, ref_err = reference_quantize_layer(w, h, spec, cfg)
                assert qw.codes.tobytes() == ref.codes.tobytes()
                assert qw.scales.tobytes() == ref.scales.tobytes()
                assert err == ref_err

    def test_ties_round_away_from_zero_as_the_reference(self):
        # column 0 holds the peak qmax, so every scale is 1.0; with a
        # diagonal Hessian no column compensates another, and every other
        # w / scale stays an exact tie k + 0.5
        rng = make_rng(22)
        h = np.eye(12)
        for bits in (2, 3, 4, 8):
            qmax = 2 ** (bits - 1) - 1
            ties = rng.integers(-qmax, qmax, size=(4, 11)) + 0.5
            w = np.concatenate([np.full((4, 1), float(qmax)), ties], axis=1)
            spec = GroupQuantSpec(bits)
            qw, err = gptq_quantize_layer(w, h, spec, GptqConfig())
            ref, ref_err = reference_quantize_layer(w, h, spec, GptqConfig())
            assert np.array_equal(qw.scales, np.ones((4, 1)))
            assert np.array_equal(qw.codes[:, 1:], ties + np.sign(ties) * 0.5)
            assert qw.codes.tobytes() == ref.codes.tobytes()
            assert err == ref_err

    def test_layer_rejects_16_bits(self):
        with pytest.raises(ParameterError):
            gptq_quantize_layer(np.ones((1, 2)), np.eye(2), GroupQuantSpec(16), GptqConfig())
        with pytest.raises(ParameterError, match="does not match d_in=2"):  # and a 3x3 Hessian
            gptq_quantize_layer(np.ones((1, 2)), np.eye(3), GroupQuantSpec(4), GptqConfig())

    def test_config_rejects_group_size_below_one(self):
        with pytest.raises(ParameterError):
            GptqConfig(group_size=0)


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
        out = gptq_quantize_model(ckpt, uniform_plan(ckpt, 4), batches, GptqConfig())
        report = out.meta["quantization"]["layers"]
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

    def two_block_setup(self, mode):
        cfg = TrainConfig(mode=mode, steps=3, seed=4, d_model=16, n_layers=2, n_heads=2,
                          d_ff=32, max_seq_len=32)
        from ptqlab.trainer import train

        return train(cfg), calibration_batches(cfg, 2)

    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_matches_full_forward_reference_bytes(self, mode):
        ckpt, batches = self.two_block_setup(mode)
        for bits in (2, 3, 4, 8):
            plan = uniform_plan(ckpt, bits)
            out = gptq_quantize_model(ckpt, plan, batches, GptqConfig())
            report = out.meta["quantization"]["layers"]
            ref, ref_errors = reference_quantize_model(ckpt, plan, batches, GptqConfig())
            assert [(r["path"], r["recon_error"]) for r in report] == ref_errors
            assert {r["bits"] for r in report} == {bits}
            for p in ckpt.params:
                assert out.params[p].tobytes() == ref.params[p].tobytes(), (bits, p)

    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_mixed_plan_quantizes_each_layer_at_its_width(self, mode):
        ckpt, batches = self.two_block_setup(mode)
        paths = ckpt.quantizable_paths()
        plan = QuantPlan({p: (16, 2, 3, 4, 8)[i % 5] for i, p in enumerate(paths)})
        out = gptq_quantize_model(ckpt, plan, batches, GptqConfig())
        report = out.meta["quantization"]["layers"]
        ref, ref_errors = reference_quantize_model(ckpt, plan, batches, GptqConfig())
        assert [(r["path"], r["recon_error"]) for r in report] == ref_errors
        assert [(r["path"], r["bits"]) for r in report] == \
            [(p, plan.bits[p]) for p in paths if plan.bits[p] != 16]
        assert out.meta["quantization"] == {"method": "gptq", "plan": plan.bits,
                                            "group_size": plan.group_size, "layers": report}
        for p in ckpt.params:
            assert out.params[p].tobytes() == ref.params[p].tobytes(), p
            if plan.bits.get(p, 16) == 16:
                assert out.params[p].tobytes() == ckpt.params[p].tobytes(), p
            else:  # on its own grid: one group per row (d_in < 128), 2**bits - 1 levels
                w = out.params[p]
                assert not np.array_equal(w, ckpt.params[p]), p
                assert max(len(np.unique(row)) for row in w) <= 2 ** plan.bits[p] - 1, p

    def test_a_stage_of_16_bit_layers_collects_no_calibration(self, monkeypatch):
        ckpt, batches = self.two_block_setup("ar")
        paths = ckpt.quantizable_paths()
        stages = []
        real = gptq_mod.collect_calibration

        def recording(ckpt, inputs, stage_paths):
            stages.append(list(stage_paths))
            return real(ckpt, inputs, stage_paths)

        monkeypatch.setattr(gptq_mod, "collect_calibration", recording)
        # block 0's q/k/v and all of block 1 stay at 16 bits
        plan = QuantPlan({p: 16 if ".attn.q" in p or ".attn.k" in p or ".attn.v" in p
                          or p.startswith("blocks.1.") else 4 for p in paths})
        gptq_quantize_model(ckpt, plan, batches, GptqConfig())
        assert stages == [[f"blocks.0.{x}.weight"] for x in ("attn.o", "mlp.fc_in", "mlp.fc_out")]

        stages.clear()
        out = gptq_quantize_model(ckpt, uniform_plan(ckpt, 16), batches, GptqConfig())
        assert stages == [] and out.meta["quantization"]["layers"] == []
        assert out.to_bytes() != ckpt.to_bytes()  # the meta records the plan
        assert all(out.params[p].tobytes() == ckpt.params[p].tobytes() for p in ckpt.params)

    def test_plan_naming_an_embedding_is_rejected(self):
        ckpt, batches = self.make_setup()
        plan = uniform_plan(ckpt, 4)
        plan.bits["head.weight"] = 8
        with pytest.raises(CoverageError, match="head.weight"):
            gptq_quantize_model(ckpt, plan, batches, GptqConfig())

    def test_a_stage_never_runs_the_head(self, monkeypatch):
        ckpt, batches = self.make_setup()
        for name in ("head_fwd", "forward_logits"):
            monkeypatch.setattr(network, name, lambda *a, _n=name, **k: pytest.fail(_n))
        gptq_quantize_model(ckpt, uniform_plan(ckpt, 4), batches, GptqConfig())

    def test_deterministic(self):
        ckpt, batches = self.make_setup()
        a = gptq_quantize_model(ckpt, uniform_plan(ckpt, 3), batches, GptqConfig())
        b = gptq_quantize_model(ckpt, uniform_plan(ckpt, 3), batches, GptqConfig())
        assert a.to_bytes() == b.to_bytes()

    def test_sequential_differs_from_isolated(self):
        ckpt, batches = self.make_setup()
        spec, cfg = GroupQuantSpec(2), GptqConfig()
        seq = gptq_quantize_model(ckpt, uniform_plan(ckpt, 2), batches, cfg)
        # reference: every layer calibrated on the unquantized model
        paths = ckpt.quantizable_paths()
        seen = full_forward_inputs(ckpt, batches)
        hessians = {p: calib_from_list(seen[p], ckpt.params[p].shape[1]) for p in paths}
        iso = {p: dequantize(gptq_quantize_layer(ckpt.params[p], hessians[p], spec, cfg)[0])
               .astype(np.float32) for p in paths}
        # the first stage (q/k/v) sees the same calibration either way, later
        # stages see the quantized prefix only in sequential calibration
        assert paths[:3] == [f"blocks.0.attn.{x}.weight" for x in "qkv"]
        assert all(np.array_equal(seq.params[p], iso[p]) for p in paths[:3])
        assert any(not np.array_equal(seq.params[p], iso[p]) for p in paths[3:])

    def test_gptq4_at_least_rtn4_minus_one_point_over_seeds(self):
        # paired end-task comparison across three training seeds
        from ptqlab.evaluation import TaskSuite, evaluate_tasks
        from ptqlab.quant import rtn_quantize_model
        from ptqlab.trainer import train

        suite = TaskSuite(tasks=("copy", "reverse", "pattern_completion"),
                          n_eval_prompts=100)
        for seed in (0, 1, 2):
            cfg = TrainConfig(mode="ar", steps=600, seed=seed, d_model=32,
                              n_layers=1, n_heads=2, d_ff=64, max_seq_len=32)
            ckpt = train(cfg)
            batches = calibration_batches(cfg, 4)
            gptq_ckpt = gptq_quantize_model(ckpt, uniform_plan(ckpt, 4), batches, GptqConfig())
            rtn_ckpt = rtn_quantize_model(ckpt, uniform_plan(ckpt, 4))
            g = np.mean(list(evaluate_tasks(gptq_ckpt, suite).values()))
            r = np.mean(list(evaluate_tasks(rtn_ckpt, suite).values()))
            assert g >= r - 0.01 - 1e-9, (seed, g, r)
