import json
import struct

import numpy as np
import pytest

from ptqlab.errors import ContractError, ParameterError, ShapeError
from ptqlab.model import (BOS_ID, MASK_ID, Batch, ModelCheckpoint, ModelConfig,
                          forward_logits, generate_ar, generate_diffusion,
                          loss_and_grads, new_checkpoint, prediction_targets)
from ptqlab.numerics import make_rng

from gradcheck import finite_diff_grad_check

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_resumed_forward_matches_full_forward_bytes(self, dtype):
        ckpt = new_checkpoint(ModelConfig(mode="ar", **dict(TINY, n_layers=3)), 4)
        ids = rand_ids(make_rng(6), (2, 7))
        full, tape = forward_logits(ckpt.params, ckpt.config, ids, dtype)
        for i, x in enumerate(tape["inputs"]):
            resumed, _ = forward_logits(ckpt.params, ckpt.config, None, dtype, start=i, x=x)
            assert resumed.tobytes() == full.tobytes()
        with pytest.raises(ContractError):
            forward_logits(ckpt.params, ckpt.config, ids, dtype, start=1, x=tape["inputs"][1])


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
                           Batch(rand_ids(make_rng(9), (1, 4)), np.zeros((1, 4), dtype=bool)),
                           want_grads=False)

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
        assert generate_ar(ckpt, [[BOS_ID, 65, 66]], 0) == [[BOS_ID, 65, 66]]

    def test_deterministic(self):
        ckpt = tiny_ckpt("ar")
        a = generate_ar(ckpt, [[BOS_ID, 65]], 6)
        b = generate_ar(ckpt, [[BOS_ID, 65]], 6)
        assert a == b

    def test_mode_mismatch(self):
        with pytest.raises(ContractError):
            generate_ar(tiny_ckpt("diffusion"), [[BOS_ID]], 2)

    def test_length_guard(self):
        with pytest.raises(ShapeError):
            generate_ar(tiny_ckpt("ar"), [[BOS_ID] * 10], 10)


def masked_inputs(monkeypatch) -> list:
    """The MASK count of the input of every forward pass generate_diffusion runs."""
    counts = []
    real = forward_logits

    def counting(params, config, ids, *args, **kwargs):
        counts.append(int(np.sum(ids == MASK_ID)))
        return real(params, config, ids, *args, **kwargs)

    monkeypatch.setattr("ptqlab.model.generate.forward_logits", counting)
    return counts


class TestGenerateDiffusion:
    def test_single_step_commits_everything(self, monkeypatch):
        ckpt = tiny_ckpt("diffusion")
        counts = masked_inputs(monkeypatch)
        [out] = generate_diffusion(ckpt, [[BOS_ID, 65]], 6, steps=1)
        assert counts == [6]
        assert MASK_ID not in out

    def test_one_position_per_step(self, monkeypatch):
        ckpt = tiny_ckpt("diffusion")
        counts = masked_inputs(monkeypatch)
        [out] = generate_diffusion(ckpt, [[BOS_ID]], 5, steps=5)
        assert counts == [5, 4, 3, 2, 1]
        assert MASK_ID not in out

    def test_masked_count_trajectory_10_4(self, monkeypatch):
        # k = ceil(remaining / steps_left): 10->7->4->2->0
        ckpt = tiny_ckpt("diffusion")
        counts = masked_inputs(monkeypatch)
        [out] = generate_diffusion(ckpt, [[BOS_ID]], 10, steps=4)
        assert counts == [10, 7, 4, 2]
        assert MASK_ID not in out

    def test_terminates_for_all_step_counts(self):
        ckpt = tiny_ckpt("diffusion", seed=13)
        for target_len in range(1, 7):
            for steps in range(1, target_len + 1):
                [out] = generate_diffusion(ckpt, [[BOS_ID, 70]], target_len, steps)
                assert MASK_ID not in out
                assert len(out) == 2 + target_len

    def test_parameter_errors(self):
        ckpt = tiny_ckpt("diffusion")
        with pytest.raises(ParameterError):
            generate_diffusion(ckpt, [[BOS_ID]], 4, steps=0)
        with pytest.raises(ParameterError):
            generate_diffusion(ckpt, [[BOS_ID] * 10], 8, steps=2)
        with pytest.raises(ContractError):
            generate_diffusion(tiny_ckpt("ar"), [[BOS_ID]], 4, steps=2)
        with pytest.raises(ShapeError):
            generate_diffusion(ckpt, [[BOS_ID], [BOS_ID, 65]], 4, steps=2)


@pytest.fixture(scope="module")
def trained_pair():
    """A small AR/diffusion pair trained until greedy decoding scores some exact matches."""
    from ptqlab.trainer import TrainConfig, train

    cfg = dict(steps=300, seed=0, learning_rate=1e-2, text_fraction=0.0, d_model=16,
               n_layers=2, n_heads=2, d_ff=32, max_seq_len=32)
    return {mode: train(TrainConfig(mode=mode, **cfg)) for mode in ("ar", "diffusion")}


def suite_examples(n_per_task=50):
    from ptqlab.evaluation import TaskSuite, _task_seed
    from ptqlab.tasks import GENERATION_TASKS, sample_example

    examples = []
    for task in GENERATION_TASKS:
        rng = make_rng(_task_seed(TaskSuite().seed, task))
        examples += [sample_example(rng, task) for _ in range(n_per_task)]
    return examples


def decode(ckpt, prompts, n_new):
    if ckpt.config.mode == "ar":
        return generate_ar(ckpt, prompts, n_new)
    return generate_diffusion(ckpt, prompts, n_new, steps=4)


def fake_forward(monkeypatch, fill):
    """Replace the decoders' forward by ``fill(logits, ids)`` on zero logits."""
    seen = []

    def forward(params, config, ids, *args, **kwargs):
        ids = np.asarray(ids)
        seen.append(ids.copy())
        logits = np.zeros(ids.shape + (config.vocab_size,), dtype=np.float32)
        fill(logits, ids)
        return logits, None

    monkeypatch.setattr("ptqlab.model.generate.forward_logits", forward)
    return seen


class TestBatchedDecoding:
    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_rows_equal_their_batch_of_one_decode(self, trained_pair, mode):
        ckpt = trained_pair[mode]
        examples = suite_examples()
        n_new = len(examples[0].answer)
        batched = decode(ckpt, [ex.prompt for ex in examples], n_new)
        assert len(batched) == len(examples)
        hits = 0
        for ex, row in zip(examples, batched):
            assert row == decode(ckpt, [ex.prompt], n_new)[0]
            hits += tuple(row[len(ex.prompt):]) == ex.answer
        assert hits > 0  # the decodes are not all wrong in the same way

    def test_ar_row_stops_at_its_own_pad(self, monkeypatch):
        from ptqlab.model.config import PAD_ID

        # a row whose second token is 66 emits PAD once it is 4 tokens long
        def fill(logits, ids):
            for r, row in enumerate(ids):
                logits[r, -1, PAD_ID if row[1] == 66 and len(row) == 4 else 70 + len(row)] = 1.0

        seen = fake_forward(monkeypatch, fill)
        prompts = [[BOS_ID, 65], [BOS_ID, 66], [BOS_ID, 67]]
        out = generate_ar(tiny_ckpt("ar"), prompts, 5)
        assert out[1] == [BOS_ID, 66, 72, 73]
        assert out[0] == [BOS_ID, 65, 72, 73, 74, 75, 76]
        assert out[2] == [BOS_ID, 67, 72, 73, 74, 75, 76]
        assert [ids.shape[0] for ids in seen] == [3, 3, 3, 2, 2]  # the stopped row runs no more
        for prompt, row in zip(prompts, out):
            assert generate_ar(tiny_ckpt("ar"), [prompt], 5) == [row]

    def test_diffusion_row_that_commits_mask_keeps_its_own_count(self, monkeypatch):
        # the second row commits MASK at position 2, its most confident
        # position, so from then on it has one mask more than the others
        def fill(logits, ids):
            logits[:, :, 80] = 1.0
            logits[ids[:, 1] == 66, 2, MASK_ID] = 5.0

        seen = fake_forward(monkeypatch, fill)
        prompts = [[BOS_ID, 65], [BOS_ID, 66], [BOS_ID, 67]]
        out = generate_diffusion(tiny_ckpt("diffusion"), prompts, 6, steps=3)
        assert [np.sum(ids == MASK_ID, axis=1).tolist() for ids in seen] == [
            [6, 6, 6], [4, 5, 4], [2, 3, 2]]  # k = ceil(masks / steps left), per row
        assert out[0] == [BOS_ID, 65] + [80] * 6 and out[2] == [BOS_ID, 67] + [80] * 6
        assert out[1] == [BOS_ID, 66, MASK_ID] + [80] * 5
        for prompt, row in zip(prompts, out):
            assert generate_diffusion(tiny_ckpt("diffusion"), [prompt], 6, steps=3) == [row]


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
        # blocks in numeric order, not name order: block 10 comes after block 9
        deep = new_checkpoint(ModelConfig(mode="ar", **{**TINY, "n_layers": 11}), 3)
        assert deep.quantizable_paths() == [
            f"blocks.{i}.{sub}.{name}.weight" for i in range(11)
            for sub, name in (("attn", "q"), ("attn", "k"), ("attn", "v"), ("attn", "o"),
                              ("mlp", "fc_in"), ("mlp", "fc_out"))]

    def test_truncated_or_padded_blob_is_contract_error(self):
        blob = tiny_ckpt().to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(ContractError):
                ModelCheckpoint.from_bytes(blob[:cut])
        with pytest.raises(ContractError):
            ModelCheckpoint.from_bytes(blob + b"\x00")
        assert ModelCheckpoint.from_bytes(blob).to_bytes() == blob

    @pytest.mark.parametrize("edit", [lambda h: [h], lambda h: {**h, "meta": []},
                                      lambda h: {**h, "meta": "seed"}],
                             ids=["header-array", "meta-array", "meta-string"])
    def test_header_and_its_meta_are_objects(self, edit):
        blob = with_header(tiny_ckpt().to_bytes(), edit)
        with pytest.raises(ContractError, match="malformed checkpoint header"):
            ModelCheckpoint.from_bytes(blob)

    def test_loaded_tensors_are_bit_identical_and_their_own(self):
        ckpt = tiny_ckpt()
        blob = bytearray(ckpt.to_bytes())
        loaded = ModelCheckpoint.from_bytes(blob)
        blob[-4:] = b"\xff" * 4  # the tensors do not share the buffer they came from
        assert sorted(loaded.params) == sorted(ckpt.params)
        for name, arr in ckpt.params.items():
            got = loaded.params[name]
            assert got.dtype == np.float32 and got.shape == arr.shape, name
            assert got.tobytes() == arr.tobytes(), name
            assert got.flags.writeable and got.flags.c_contiguous, name


def with_header(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with its header JSON replaced by ``edit(header)``."""
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.dumps(edit(json.loads(blob[12:12 + hlen]))).encode()
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + hlen:]


class TestBatchValidation:
    def test_token_ids_out_of_range(self):
        with pytest.raises(ContractError):
            Batch(np.array([[0, 300]]), np.zeros((1, 2), dtype=bool))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ContractError):
            Batch(np.zeros((1, 4), dtype=np.int64), np.zeros((1, 5), dtype=bool))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ModelConfig(d_model=10, n_heads=4)
        with pytest.raises(ParameterError):
            ModelConfig(mode="both")
