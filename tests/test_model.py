import numpy as np
import pytest

from ptqlab.errors import ContractError, ParameterError, ShapeError
from ptqlab.model import (BOS_ID, MASK_ID, Batch, ModelCheckpoint, ModelConfig,
                          forward_logits, generate_ar, generate_diffusion,
                          loss_and_grads, new_checkpoint, prediction_targets)
from ptqlab.numerics import finite_diff_grad_check, make_rng

TINY = dict(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=16)


def tiny_ckpt(mode="ar", seed=3):
    return new_checkpoint(ModelConfig(mode=mode, **TINY), seed)


def rand_ids(rng, shape):
    return rng.integers(0, 256, size=shape)


class TestForward:
    def test_ar_causality(self):
        ckpt = tiny_ckpt("ar")
        rng = make_rng(0)
        ids = rand_ids(rng, (1, 8))
        base, _ = forward_logits(ckpt.params, ckpt.config, ids)
        bumped = ids.copy()
        bumped[0, 5] = (bumped[0, 5] + 1) % 256
        out, _ = forward_logits(ckpt.params, ckpt.config, bumped)
        assert np.array_equal(out[0, :5], base[0, :5])
        assert not np.array_equal(out[0, 5:], base[0, 5:])

    def test_diffusion_bidirectionality(self):
        ckpt = tiny_ckpt("diffusion")
        rng = make_rng(1)
        ids = rand_ids(rng, (1, 8))
        base, _ = forward_logits(ckpt.params, ckpt.config, ids)
        bumped = ids.copy()
        bumped[0, 5] = (bumped[0, 5] + 1) % 256
        out, _ = forward_logits(ckpt.params, ckpt.config, bumped)
        assert not np.array_equal(out[0, :5], base[0, :5])  # earlier positions see it

    def test_zero_weights_give_uniform_logits(self):
        ckpt = tiny_ckpt("ar")
        for p in ckpt.params:
            ckpt.params[p] = np.zeros_like(ckpt.params[p])
        logits, _ = forward_logits(ckpt.params, ckpt.config, rand_ids(make_rng(2), (2, 5)))
        assert np.allclose(logits, logits[..., :1], atol=0)  # all-equal per position

    def test_oversized_sequence(self):
        ckpt = tiny_ckpt()
        with pytest.raises(ShapeError):
            forward_logits(ckpt.params, ckpt.config, np.zeros((1, 17), dtype=np.int64))


class TestGradients:
    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_grads_match_central_differences(self, mode):
        # check at a briefly trained point: at raw init many gradients are
        # degenerately close to zero and the relative metric is all noise
        from ptqlab.trainer import TrainConfig, train

        ckpt = train(TrainConfig(mode=mode, steps=300, seed=9, d_model=8, n_layers=1,
                                 n_heads=2, d_ff=16, max_seq_len=32))
        config = ckpt.config
        rng = make_rng(4)
        ids = rand_ids(rng, (2, 8))
        mask = np.zeros((2, 8), dtype=bool)
        mask[:, 1:] = True
        batch = Batch(ids, mask)
        params = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
        _, grads = loss_and_grads(params, config, batch, dtype=np.float64)

        pick = make_rng(10)
        for name, value in params.items():
            # full check on projections; sampled coordinates on the big tables
            if value.size <= 300:
                idx = np.arange(value.size)
            else:
                idx = pick.choice(value.size, size=60, replace=False)
            flat = value.ravel()
            gflat = grads[name].ravel()
            eps = 1e-4
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                lp, _ = loss_and_grads(params, config, batch, dtype=np.float64, want_grads=False)
                flat[i] = orig - eps
                lm, _ = loss_and_grads(params, config, batch, dtype=np.float64, want_grads=False)
                flat[i] = orig
                numeric = (lp - lm) / (2 * eps)
                rel = abs(numeric - gflat[i]) / (abs(gflat[i]) + 1e-8)
                assert rel <= 1e-4, f"{name}[{i}]: {rel}"

    def test_gradcheck_helper_on_single_weight(self):
        ckpt = tiny_ckpt("ar", seed=5)
        params = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
        batch = Batch(rand_ids(make_rng(6), (1, 5)), np.array([[False, True, True, True, True]]))
        path = "blocks.0.attn.o.weight"
        _, grads = loss_and_grads(params, ckpt.config, batch, dtype=np.float64)

        def f(w):
            params[path] = w
            loss, _ = loss_and_grads(params, ckpt.config, batch, dtype=np.float64, want_grads=False)
            return loss

        err = finite_diff_grad_check(f, grads[path], params[path].copy(), eps=1e-5)
        assert err <= 1e-4


class TestLoss:
    def test_duplicate_rows_mean_invariance(self):
        ckpt = tiny_ckpt("ar")
        ids = rand_ids(make_rng(7), (1, 6))
        mask = np.array([[False, True, True, True, True, True]])
        single, _ = loss_and_grads(ckpt.params, ckpt.config, Batch(ids, mask), want_grads=False)
        doubled, _ = loss_and_grads(ckpt.params, ckpt.config,
                                    Batch(np.vstack([ids, ids]), np.vstack([mask, mask])),
                                    want_grads=False)
        assert doubled == pytest.approx(single, rel=1e-6)

    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_loss_at_init_near_log_vocab(self, mode):
        ckpt = tiny_ckpt(mode, seed=11)
        ids = rand_ids(make_rng(8), (4, 8))
        mask = np.zeros((4, 8), dtype=bool)
        mask[:, 3:] = True
        loss, _ = loss_and_grads(ckpt.params, ckpt.config, Batch(ids, mask), want_grads=False)
        assert abs(loss - np.log(259)) <= 0.1 * np.log(259)

    def test_empty_mask_rejected(self):
        ckpt = tiny_ckpt()
        with pytest.raises(ContractError):
            loss_and_grads(ckpt.params, ckpt.config,
                           Batch(rand_ids(make_rng(9), (1, 4))), want_grads=False)

    def test_ar_cannot_target_column_zero(self):
        ckpt = tiny_ckpt("ar")
        mask = np.zeros((1, 4), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ContractError):
            loss_and_grads(ckpt.params, ckpt.config,
                           Batch(rand_ids(make_rng(9), (1, 4)), mask), want_grads=False)

    def test_diffusion_input_gets_masked(self):
        config = ModelConfig(mode="diffusion", **TINY)
        ids = rand_ids(make_rng(12), (1, 5))
        mask = np.array([[False, True, False, True, False]])
        input_ids, (rows, cols), targets = prediction_targets(config, Batch(ids, mask))
        assert (input_ids[0, [1, 3]] == MASK_ID).all()
        assert (input_ids[0, [0, 2, 4]] == ids[0, [0, 2, 4]]).all()
        assert cols.tolist() == [1, 3]
        assert targets.tolist() == ids[0, [1, 3]].tolist()


class TestGenerateAr:
    def test_zero_new_tokens(self):
        ckpt = tiny_ckpt("ar")
        assert generate_ar(ckpt, [BOS_ID, 65, 66], 0) == [BOS_ID, 65, 66]

    def test_deterministic(self):
        ckpt = tiny_ckpt("ar")
        a = generate_ar(ckpt, [BOS_ID, 65], 6)
        b = generate_ar(ckpt, [BOS_ID, 65], 6)
        assert a == b

    def test_mode_mismatch(self):
        with pytest.raises(ContractError):
            generate_ar(tiny_ckpt("diffusion"), [BOS_ID], 2)

    def test_length_guard(self):
        with pytest.raises(ShapeError):
            generate_ar(tiny_ckpt("ar"), [BOS_ID] * 10, 10)


class TestGenerateDiffusion:
    def test_single_step_commits_everything(self):
        ckpt = tiny_ckpt("diffusion")
        history = []
        out = generate_diffusion(ckpt, [BOS_ID, 65], 6, steps=1, history=history)
        assert history == [0]
        assert MASK_ID not in out

    def test_one_position_per_step(self):
        ckpt = tiny_ckpt("diffusion")
        history = []
        generate_diffusion(ckpt, [BOS_ID], 5, steps=5, history=history)
        assert history == [4, 3, 2, 1, 0]

    def test_masked_count_trajectory_10_4(self):
        # k = ceil(remaining / steps_left): 10->7->4->2->0
        ckpt = tiny_ckpt("diffusion")
        history = []
        generate_diffusion(ckpt, [BOS_ID], 10, steps=4, history=history)
        assert history == [7, 4, 2, 0]

    def test_terminates_for_all_step_counts(self):
        ckpt = tiny_ckpt("diffusion", seed=13)
        for target_len in range(1, 7):
            for steps in range(1, target_len + 1):
                out = generate_diffusion(ckpt, [BOS_ID, 70], target_len, steps)
                assert MASK_ID not in out
                assert len(out) == 2 + target_len

    def test_parameter_errors(self):
        ckpt = tiny_ckpt("diffusion")
        with pytest.raises(ParameterError):
            generate_diffusion(ckpt, [BOS_ID], 4, steps=0)
        with pytest.raises(ParameterError):
            generate_diffusion(ckpt, [BOS_ID] * 10, 8, steps=2)
        with pytest.raises(ContractError):
            generate_diffusion(tiny_ckpt("ar"), [BOS_ID], 4, steps=2)


class TestCheckpointIO:
    def test_round_trip_bit_identical(self, tmp_path):
        ckpt = tiny_ckpt("diffusion", seed=21)
        ckpt.meta["note"] = "fixture"
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = ModelCheckpoint.load(path)
        assert loaded.config == ckpt.config
        assert loaded.meta == ckpt.meta
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
        assert loaded.to_bytes() == ckpt.to_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ContractError):
            ModelCheckpoint.load(path)

    def test_quantizable_paths(self):
        ckpt = tiny_ckpt()
        default = ckpt.quantizable_paths()
        assert default == [
            "blocks.0.attn.q.weight", "blocks.0.attn.k.weight", "blocks.0.attn.v.weight",
            "blocks.0.attn.o.weight", "blocks.0.mlp.fc_in.weight", "blocks.0.mlp.fc_out.weight",
        ]

    def test_truncated_or_padded_blob_is_contract_error(self):
        blob = tiny_ckpt().to_bytes()
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        # inside the header length, the header, the tensor count, a name, a tensor
        for cut in (10, 40, header_end + 2, header_end + 6, len(blob) - 1):
            with pytest.raises(ContractError):
                ModelCheckpoint.from_bytes(blob[:cut])
        with pytest.raises(ContractError):
            ModelCheckpoint.from_bytes(blob + b"\x00")
        assert ModelCheckpoint.from_bytes(blob).to_bytes() == blob


class TestBatchValidation:
    def test_token_ids_out_of_range(self):
        with pytest.raises(ContractError):
            Batch(np.array([[0, 300]]))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ContractError):
            Batch(np.zeros((1, 4), dtype=np.int64), np.zeros((1, 5), dtype=bool))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ModelConfig(d_model=10, n_heads=4)
        with pytest.raises(ParameterError):
            ModelConfig(mode="both")
