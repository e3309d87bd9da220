import json

import numpy as np
import pytest

from ptqlab.errors import ContractError, CoverageError, NumericError, ParameterError
from ptqlab.model import ModelConfig, new_checkpoint
from ptqlab.numerics import make_rng
from ptqlab.quant import (GroupQuantSpec, QuantPlan, dequantize, memory_footprint,
                          quantize_weight, rtn_quantize_model, uniform_plan)


def quantize_row(values, bits):
    """(scale, codes) of a one-row weight that fits in one group."""
    qw = quantize_weight(np.asarray([values], dtype=np.float64), GroupQuantSpec(bits))
    assert qw.scales.shape == (1, 1)
    return qw.scales[0, 0], qw.codes[0]


class TestQuantizeGroup:
    def test_reference_example_bits2(self):
        scale, codes = quantize_row([1.0, -2.0, 0.5, 0.25], bits=2)
        assert scale == 2.0
        assert codes.tolist() == [1, -1, 0, 0]
        deq = codes.astype(np.float64) * scale
        assert deq.tolist() == [2.0, -2.0, 0.0, 0.0]

    def test_all_zero_convention(self):
        for bits in (2, 3, 4, 8):
            scale, codes = quantize_row(np.zeros(5), bits)
            assert scale == 1.0
            assert not codes.any()

    def test_bits8_error_bound(self):
        vals = np.array([0.3, -0.7])
        scale, codes = quantize_row(vals, bits=8)
        assert scale == pytest.approx(0.7 / 127)
        deq = codes.astype(np.float64) * scale
        assert np.abs(vals - deq).max() <= scale / 2

    def test_rejects_16_and_nonfinite(self):
        # 16 bits is passthrough: rtn_quantize_model keeps the weight
        with pytest.raises(ParameterError):
            quantize_weight(np.array([[1.0]]), GroupQuantSpec(16))
        with pytest.raises(ParameterError, match="2-D weight"):  # and a 1-D weight
            quantize_weight(np.ones(4), GroupQuantSpec(4))
        with pytest.raises(NumericError):
            quantize_row([1.0, np.nan], bits=4)

    def test_ragged_groups_match_a_per_group_loop(self):
        w = make_rng(11).standard_normal((3, 200))
        w[1, 128:] = 0.0  # an all-zero ragged group
        spec = GroupQuantSpec(4, group_size=128)
        qw = quantize_weight(w, spec)
        assert qw.scales.shape == (3, 2) and qw.codes.shape == (3, 200)
        deq = dequantize(qw)
        for g, (lo, hi) in enumerate(((0, 128), (128, 200))):
            block = w[:, lo:hi]
            peak = np.max(np.abs(block), axis=1)
            scale = np.where(peak > 0, peak / spec.qmax, 1.0)
            codes = np.clip(np.sign(block / scale[:, None])
                            * np.floor(np.abs(block / scale[:, None]) + 0.5),
                            -spec.qmax, spec.qmax).astype(np.int16)
            assert np.array_equal(qw.scales[:, g], scale)
            assert np.array_equal(qw.codes[:, lo:hi], codes)
            assert np.array_equal(deq[:, lo:hi], codes.astype(np.float64) * scale[:, None])
        assert qw.scales[1, 1] == 1.0


class TestWeightProperties:
    def random_weights(self, n_cases=40):
        rng = make_rng(2024)
        for _ in range(n_cases):
            d_out = int(rng.integers(1, 9))
            d_in = int(rng.integers(1, 300))
            scale = 10.0 ** rng.uniform(-3, 2)
            yield (rng.standard_normal((d_out, d_in)) * scale), rng

    def test_error_bound_all_bits_including_ragged(self):
        # >= 1e4 random groups across the sweep (ragged tails included)
        total_groups = 0
        for w, _ in self.random_weights(100):
            for bits in (2, 3, 4, 8):
                spec = GroupQuantSpec(bits, group_size=24)
                qw = quantize_weight(w, spec)
                deq = dequantize(qw)
                per_group_bound = np.repeat(qw.scales, [min(24, w.shape[1] - 24 * g) for g in
                                                        range(qw.scales.shape[1])], axis=1)
                assert np.all(np.abs(w - deq) <= per_group_bound / 2 + 1e-7)
                total_groups += qw.scales.size
        assert total_groups >= 10_000

    def test_idempotence(self):
        rng = make_rng(5)
        w = rng.standard_normal((6, 70))
        for bits in (2, 3, 4, 8):
            spec = GroupQuantSpec(bits, group_size=32)
            q1 = quantize_weight(w, spec)
            q2 = quantize_weight(dequantize(q1), spec)
            assert np.array_equal(q1.codes, q2.codes)
            assert np.allclose(q1.scales, q2.scales, rtol=0, atol=0)

    def test_sign_symmetry(self):
        rng = make_rng(6)
        w = rng.standard_normal((4, 50))
        for bits in (2, 3, 4, 8):
            spec = GroupQuantSpec(bits, group_size=16)
            qp = quantize_weight(w, spec)
            qn = quantize_weight(-w, spec)
            assert np.array_equal(qn.codes, -qp.codes)
            assert np.array_equal(qn.scales, qp.scales)

    def test_monotone_fidelity_across_bits(self):
        rng = make_rng(7)
        for _ in range(25):
            d_in = int(rng.integers(64, 200))
            w = rng.standard_normal((4, d_in))
            mses = []
            for bits in (2, 3, 4, 8):
                deq = dequantize(quantize_weight(w, GroupQuantSpec(bits, 48)))
                mses.append(float(np.mean((w - deq) ** 2)))
            assert mses[0] >= mses[1] >= mses[2] >= mses[3]

    def test_passthrough_is_exact(self):
        # the 16-bit modules of a mixed plan keep their float32 bytes
        ckpt = small_ckpt()
        plan = uniform_plan(ckpt, 4)
        kept = plan.paths()[::2]
        for path in kept:
            plan.bits[path] = 16
        out = rtn_quantize_model(ckpt, plan)
        for path in plan.paths():
            same = out.params[path].tobytes() == ckpt.params[path].tobytes()
            assert same == (path in kept)


def small_ckpt(mode="ar", seed=1):
    # d_ff = 2*d_model makes total attention params equal total mlp params
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=16, mode=mode)
    return new_checkpoint(cfg, seed)


class TestModelQuantization:
    def test_uniform_16_is_bit_identical(self):
        ckpt = small_ckpt()
        out = rtn_quantize_model(ckpt, uniform_plan(ckpt, 16))
        for path in ckpt.params:
            assert np.array_equal(out.params[path], ckpt.params[path])

    def test_quantized_paths_change_others_untouched(self):
        ckpt = small_ckpt()
        plan = uniform_plan(ckpt, 4)
        out = rtn_quantize_model(ckpt, plan)
        for path in plan.bits:
            assert not np.array_equal(out.params[path], ckpt.params[path])
        for path in set(ckpt.params) - set(plan.bits):
            assert np.array_equal(out.params[path], ckpt.params[path])

    def test_embeddings_skipped_by_default_allowed_in_a_written_plan(self):
        # neither embedding is quantizable, so a written plan that names one fails coverage
        ckpt = small_ckpt()
        assert not {"embed.tok", "head.weight"} & set(uniform_plan(ckpt, 4).bits)
        for embedding in ("head.weight", "embed.tok"):
            plan = uniform_plan(ckpt, 4)
            plan.bits[embedding] = 8
            with pytest.raises(CoverageError, match=f"unknown=\\['{embedding}'\\]"):
                rtn_quantize_model(ckpt, plan)

    def test_coverage_error_lists_missing(self):
        ckpt = small_ckpt()
        plan = uniform_plan(ckpt, 4)
        dropped = plan.paths()[0]
        del plan.bits[dropped]
        with pytest.raises(CoverageError) as exc:
            rtn_quantize_model(ckpt, plan)
        assert dropped in str(exc.value)

    def test_coverage_error_on_unknown_path(self):
        ckpt = small_ckpt()
        plan = uniform_plan(ckpt, 4)
        plan.bits["blocks.9.attn.q.weight"] = 4
        with pytest.raises(CoverageError):
            rtn_quantize_model(ckpt, plan)


class TestMemoryFootprint:
    def test_uniform_4bit_group128(self):
        ckpt = small_ckpt()
        raw, eff = memory_footprint(uniform_plan(ckpt, 4, group_size=128), ckpt)
        assert raw == pytest.approx(4.0)
        assert eff == pytest.approx(4.125)  # 4 + 16/128

    def test_half_16_half_8_weighted_mean(self):
        ckpt = small_ckpt()
        plan = uniform_plan(ckpt, 8)
        # attention params == mlp params by construction (d_ff = 2*d_model)
        for p in plan.paths():
            if ".attn." in p:
                plan.bits[p] = 16
        raw, _ = memory_footprint(plan, ckpt)
        assert raw == pytest.approx(12.0)


class TestPlanIO:
    def test_round_trip(self, tmp_path):
        ckpt = small_ckpt()
        plan = uniform_plan(ckpt, 4)
        plan.bits[plan.paths()[0]] = 8
        path = tmp_path / "plan.json"
        plan.save(path)
        assert QuantPlan.load(path) == plan
        assert set(json.loads(path.read_text())) == {"group_size", "modules"}

    @pytest.mark.parametrize("text", [
        '{"version": 1, "group_size": 128, "modules": [{"pa',  # cut short
        '{"version": 1, "group_size": 128}',
        '{"version": 1, "group_size": 128, "modules": [{"path": "blocks.0.attn.q.weight"}]}',
        '{"version": 1, "modules": []}',
        '["modules"]'])
    def test_malformed_file_is_a_contract_error(self, tmp_path, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(ContractError, match="malformed"):
            QuantPlan.load(path)

    @pytest.mark.parametrize("field, bits, group_size", [
        ("bits", 8.9, 128), ("bits", 8.0, 128), ("bits", "8", 128), ("bits", True, 128),
        ("group_size", 8, 64.9), ("group_size", 8, "64"), ("group_size", 8, False)])
    def test_non_integer_width_or_group_size_is_rejected(self, tmp_path, field, bits,
                                                          group_size):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"version": 1, "group_size": group_size, "modules": [
            {"path": "blocks.0.attn.q.weight", "bits": bits}]}))
        with pytest.raises(ContractError, match=f"malformed.*{field} must be an integer"):
            QuantPlan.load(path)

    def test_repeated_module_is_a_contract_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"version": 1, "group_size": 128, "modules": [
            {"path": "blocks.0.attn.q.weight", "bits": 2},
            {"path": "blocks.0.attn.k.weight", "bits": 4},
            {"path": "blocks.0.attn.q.weight", "bits": 8}]}))
        with pytest.raises(ContractError, match="malformed.*blocks.0.attn.q.weight is listed twice"):
            QuantPlan.load(path)

    def test_unsupported_width_or_group_size_is_rejected(self):
        with pytest.raises(ParameterError):
            QuantPlan({"blocks.0.attn.q.weight": 5})
        with pytest.raises(ParameterError):
            QuantPlan({"blocks.0.attn.q.weight": 4}, group_size=0)
