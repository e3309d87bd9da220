import json
import math

import numpy as np
import pytest
from scipy import stats

from ptqlab.errors import ContractError, ParameterError
from ptqlab.model import Batch, ModelConfig, loss_and_grads, new_checkpoint
from ptqlab.model import layers, network
from ptqlab.numerics import make_rng, sample_sparse_direction
from ptqlab.sensitivity import (ModuleGradientOracle, SensitivityConfig, SensitivityRecord,
                                compute_sensitivities, finite_diff_hvp,
                                float64_pass, load_report, power_iteration,
                                power_iteration_sensitivity, rank_sensitivities,
                                save_report)
from ptqlab.trainer import TrainConfig, calibration_batches

RECORD = {"path": "x", "lambda": 1.5, "n_params": 64, "iters_used": 2, "converged": False}


class QuadraticProbe:
    """grad(w0 + delta) = A (w0 + delta) for L(w) = 0.5 w^T A w."""

    def __init__(self, a, w0=None):
        self.a = np.asarray(a, dtype=np.float64)
        self.w0 = np.zeros(self.a.shape[0]) if w0 is None else np.asarray(w0, dtype=np.float64)

    def gradient(self, delta=None):
        w = self.w0 if delta is None else self.w0 + delta
        return self.a @ w


class TestFiniteDiffHvp:
    def test_matches_analytic_hessian(self):
        probe = QuadraticProbe(np.diag([3.0, 1.0]), w0=np.array([0.7, -0.4]))
        hv = finite_diff_hvp(probe.gradient, np.array([1.0, 0.0]), 1e-3, probe.gradient(None))
        assert np.abs(hv - np.array([3.0, 0.0])).max() <= 1e-6 * 3.0

    def test_eps_invariance_on_quadratics(self):
        rng = make_rng(0)
        m = rng.standard_normal((5, 5))
        probe = QuadraticProbe(m.T @ m, w0=rng.standard_normal(5))
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        base = probe.gradient(None)
        a = finite_diff_hvp(probe.gradient, v, 1e-3, base)
        b = finite_diff_hvp(probe.gradient, v, 5e-4, base)
        assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())


class TestPowerIteration:
    def test_recovers_top_eigenvalue_dense(self):
        probe = QuadraticProbe(np.diag([5.0, 1.0, 0.1]))
        lam, iters, converged = power_iteration(probe.gradient, 3, make_rng(3),
                                                rho=1.0, n_iters=100, eps=1e-3)
        assert abs(lam - 5.0) <= 0.01 * 5.0
        assert converged

    def test_monotone_and_bounded_five_iters(self):
        probe = QuadraticProbe(np.diag([5.0, 1.0, 0.1]))
        lams = []
        for n in range(1, 6):
            lam, _, _ = power_iteration(probe.gradient, 3, make_rng(3),
                                        rho=1.0, n_iters=n, eps=1e-3)
            lams.append(lam)
        for lo, hi in zip(lams, lams[1:]):
            assert hi >= lo - 1e-6
        assert lams[0] <= lams[-1] <= 5.0 * 1.01

    def test_random_psd_within_one_percent(self):
        # dense eigen-oracle over random symmetric PSD probes
        rng = make_rng(17)
        for _ in range(5):
            m = rng.standard_normal((12, 12))
            a = m.T @ m
            top = float(np.linalg.eigvalsh(a)[-1])
            lam, _, _ = power_iteration(QuadraticProbe(a).gradient, 12, make_rng(23),
                                        rho=1.0, n_iters=100, eps=1e-3)
            assert abs(lam - top) <= 0.01 * top

    def test_sparse_estimate_bounded_by_restricted_eigenvalue(self):
        rng = make_rng(29)
        m = rng.standard_normal((20, 20))
        a = m.T @ m
        for seed in range(10):
            v0 = sample_sparse_direction(make_rng(seed), 20, 0.3)
            support = np.nonzero(v0)[0]
            restricted_top = float(np.linalg.eigvalsh(a[np.ix_(support, support)])[-1])
            lam, _, _ = power_iteration(QuadraticProbe(a).gradient, 20, make_rng(seed),
                                        rho=0.3, n_iters=50, eps=1e-3)
            assert lam <= restricted_top * (1 + 1e-6)

    def test_sparse_correlates_with_dense_on_block_diagonal_probes(self):
        # 50 resampled block-diagonal probes with curvature spanning two
        # decades (the regime that separates sensitive from robust modules);
        # paper defaults rho=0.1, 5 iterations
        rng = make_rng(31)
        sparse_lams = []
        dense_lams = []
        for trial in range(50):
            blocks = [rng.standard_normal((10, 10)) for _ in range(3)]
            a = np.zeros((30, 30))
            for i, b in enumerate(blocks):
                a[i * 10:(i + 1) * 10, i * 10:(i + 1) * 10] = b.T @ b
            a *= 10.0 ** rng.uniform(-1.0, 1.0)
            probe = QuadraticProbe(a)
            lam_s, _, _ = power_iteration(probe.gradient, 30, make_rng(1000 + trial),
                                          rho=0.1, n_iters=5, eps=1e-3)
            lam_d, _, _ = power_iteration(probe.gradient, 30, make_rng(2000 + trial),
                                          rho=1.0, n_iters=100, eps=1e-3)
            sparse_lams.append(lam_s)
            dense_lams.append(lam_d)
        rho_s, _ = stats.spearmanr(sparse_lams, dense_lams)
        assert rho_s >= 0.5

    def test_flat_direction_reports_zero_converged(self):
        probe = QuadraticProbe(np.zeros((4, 4)))
        lam, _, converged = power_iteration(probe.gradient, 4, make_rng(0),
                                            rho=1.0, n_iters=5, eps=1e-3)
        assert lam == 0.0
        assert converged

    def test_scale_covariance(self):
        rng = make_rng(37)
        m = rng.standard_normal((8, 8))
        a = m.T @ m
        lam1, _, _ = power_iteration(QuadraticProbe(a).gradient, 8, make_rng(5),
                                     rho=1.0, n_iters=40, eps=1e-3)
        lam3, _, _ = power_iteration(QuadraticProbe(3.0 * a).gradient, 8, make_rng(5),
                                     rho=1.0, n_iters=40, eps=1e-3)
        assert lam3 == pytest.approx(3.0 * lam1, rel=1e-9)


def tiny_ckpt(mode="ar", seed=3):
    return new_checkpoint(ModelConfig(mode=mode, d_model=8, n_layers=1, n_heads=2,
                                      d_ff=16, max_seq_len=16), seed)


def tiny_batches(n=2, seed=4):
    rng = make_rng(seed)
    batches = []
    for _ in range(n):
        ids = rng.integers(0, 256, size=(2, 6))
        mask = np.zeros((2, 6), dtype=bool)
        mask[:, 2:] = True
        batches.append(Batch(ids, mask))
    return batches


def make_oracle(ckpt, batches, path):
    params, inputs = float64_pass(ckpt, batches)
    return ModuleGradientOracle(ckpt.config, params, batches, inputs, path)


class TestModelHvp:
    def test_sign_negation(self):
        ckpt = tiny_ckpt()
        batches = tiny_batches()
        path = "blocks.0.attn.q.weight"
        v = sample_sparse_direction(make_rng(7), ckpt.params[path].size, 1.0)
        oracle = make_oracle(ckpt, batches, path)
        eps = 1e-3 * (1.0 + float(np.max(np.abs(oracle.params[path]))))
        base = oracle.gradient(None)
        hv_pos = finite_diff_hvp(oracle.gradient, v, eps, base)
        hv_neg = finite_diff_hvp(oracle.gradient, -v, eps, base)
        denom = np.abs(hv_pos).max() + 1e-12
        assert np.abs(hv_pos + hv_neg).max() / denom <= 1e-4

    def test_perturb_and_restore_bytes_identical(self):
        ckpt = tiny_ckpt("diffusion")
        before = ckpt.to_bytes()
        cfg = SensitivityConfig(rho=0.5, n_power_iters=2, n_batches=2)
        compute_sensitivities(ckpt, tiny_batches(), cfg)
        assert ckpt.to_bytes() == before

    def test_zero_weights_flat_loss(self):
        ckpt = tiny_ckpt()
        for p in ckpt.params:
            ckpt.params[p] = np.zeros_like(ckpt.params[p])
        cfg = SensitivityConfig(rho=1.0, n_power_iters=3, n_batches=1)
        rec = power_iteration_sensitivity(
            make_oracle(ckpt, tiny_batches(1), "blocks.0.attn.q.weight"), cfg)
        assert rec.lam <= 1e-12
        assert rec.converged

    def test_compute_sensitivities_all_modules(self):
        ckpt = tiny_ckpt()
        cfg = SensitivityConfig(rho=0.25, n_power_iters=2, n_batches=2)
        records = compute_sensitivities(ckpt, tiny_batches(), cfg)
        assert [r.path for r in records] == ckpt.quantizable_paths()
        assert all(r.lam >= 0 and r.n_params == ckpt.n_params(r.path) for r in records)


def two_block_setup(mode):
    """A two-block checkpoint and calibration batches mixing task and text rows."""
    cfg = TrainConfig(mode=mode, steps=1, seed=5, batch_size=3, text_fraction=0.5,
                      d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=32)
    ckpt = new_checkpoint(cfg.model_config(), 5)
    batches = calibration_batches(cfg, 4)
    assert {b.token_ids.shape[1] for b in batches} == {20, 32}  # task and text rows
    return ckpt, batches


class TestPartialPasses:
    @pytest.mark.parametrize("mode", ["ar", "diffusion"])
    def test_partial_gradient_equals_full_gradient_bytes(self, mode):
        ckpt, batches = two_block_setup(mode)
        params, inputs = float64_pass(ckpt, batches)
        for path in ckpt.quantizable_paths():
            oracle = ModuleGradientOracle(ckpt.config, params, batches, inputs, path)
            delta = 1e-3 * sample_sparse_direction(make_rng(9), oracle.n_params, 0.5)
            for d in (None, delta):
                full = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
                if d is not None:
                    full[path] = full[path] + d.reshape(full[path].shape)
                want = np.zeros(oracle.n_params)
                for batch in batches:
                    want += loss_and_grads(full, ckpt.config, batch, np.float64)[1][path].ravel()
                want /= len(batches)
                assert oracle.gradient(d).tobytes() == want.tobytes(), (path, d is None)

    def test_no_embedding_backward(self, monkeypatch):
        monkeypatch.setattr(layers, "embedding_bwd", lambda *a, **k: pytest.fail("embedding_bwd"))
        ckpt, batches = two_block_setup("ar")
        compute_sensitivities(ckpt, batches, SensitivityConfig(rho=0.5, n_power_iters=1,
                                                               n_batches=2))

    def test_block_one_gradient_runs_no_block_zero_layer(self, monkeypatch):
        ckpt, batches = two_block_setup("ar")
        oracle = make_oracle(ckpt, batches, "blocks.1.attn.k.weight")
        ran = []
        for name in ("embed_fwd", "block_fwd", "block_bwd"):
            real = getattr(network, name)

            def recording(*args, _real=real, _name=name, **kwargs):
                block = args[2] if _name == "block_fwd" else args[1] if _name == "block_bwd" \
                    else "embed"
                ran.append(block)
                return _real(*args, **kwargs)

            monkeypatch.setattr(network, name, recording)
        oracle.gradient(None)
        assert ran == [1, 1] * len(batches)  # one block forward and backward per batch


class TestRanking:
    def make(self, lams, n_params=None, paths=None):
        n = len(lams)
        paths = paths or [chr(ord("a") + i) for i in range(n)]
        n_params = n_params or [10] * n
        return [SensitivityRecord(p, l, np_, 1, True)
                for p, l, np_ in zip(paths, lams, n_params)]

    def test_raw_descending(self):
        ranked = rank_sensitivities(self.make([5.0, 1.0, 3.0]))
        assert [r.path for r in ranked] == ["a", "c", "b"]

    def test_normalized_divides_by_size(self):
        ranked = rank_sensitivities(self.make([4.0, 4.0], n_params=[10, 2]),
                                    mode="normalized")
        assert [r.path for r in ranked] == ["b", "a"]  # 2.0 > 0.4

    def test_ties_break_lexicographically(self):
        ranked = rank_sensitivities(self.make([2.0, 2.0, 2.0], paths=["z", "m", "a"]))
        assert [r.path for r in ranked] == ["a", "m", "z"]

    def test_argsort_invariance_under_scaling(self):
        recs = self.make([5.0, 1.0, 3.0])
        scaled = self.make([15.0, 3.0, 9.0])
        assert [r.path for r in rank_sensitivities(recs)] == \
               [r.path for r in rank_sensitivities(scaled)]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            rank_sensitivities([])


class TestReportIO:
    def test_round_trip(self, tmp_path):
        cfg = SensitivityConfig(rho=0.2, n_power_iters=3)
        records = [SensitivityRecord("blocks.0.attn.q.weight", 1.5, 64, 3, True),
                   SensitivityRecord("head.weight", 0.25, 2072, 3, False)]
        jp = tmp_path / "sens.json"
        save_report(records, cfg, jp, config_hash="abc123")
        loaded, config_hash = load_report(jp)
        assert config_hash == "abc123"
        assert SensitivityConfig(**json.loads(jp.read_text())["config"]) == cfg
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]
        assert [p.name for p in tmp_path.iterdir()] == ["sens.json"]

    @pytest.mark.parametrize("text", [
        '{"config_hash": "abc", "records": [{"path": "x", "lam',  # cut short
        '{"config_hash": "abc"}',
        '{"records": [{"path": "x", "n_params": 4, "iters_used": 1, "converged": true}]}',
        '["records"]',
        # each field is its own JSON type, never coerced
        *(json.dumps({"config_hash": "abc", "records": [{**RECORD, key: value}]})
          for key, value in [("lambda", "1.5"), ("lambda", True),
                             # compute_sensitivities writes only finite lambdas >= 0
                             ("lambda", math.nan), ("lambda", -5), ("lambda", math.inf),
                             ("n_params", 64.9),
                             ("n_params", "64"), ("iters_used", 2.5), ("iters_used", 0),
                             ("converged", "false"), ("converged", 1)]),
        # a module listed twice would count twice in a cut
        json.dumps({"config_hash": "abc", "records": [RECORD, {**RECORD, "lambda": 0.5}]})])
    def test_malformed_report_is_a_contract_error(self, tmp_path, text):
        jp = tmp_path / "sens.json"
        jp.write_text(text)
        with pytest.raises(ContractError, match="malformed"):
            load_report(jp)
