"""Acceptance suite: one criterion per test, each printing a PASS line.

The end-to-end criteria run against a single shared `reproduce` workspace
(full-size 3000-step paired training, the default 50-prompt task suite,
a shortened latency protocol for wall-clock sanity; the 200/2000 protocol
itself is verified separately at its exact counts). Run with

    pytest tests/test_acceptance.py -v -s
"""

import csv
import io
import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ptqlab import evaluation
from ptqlab.evaluation import EvalResult, LatencyConfig, measure_latency
from ptqlab.gptq import GptqConfig, gptq_quantize_layer
from ptqlab.model import Batch, ModelCheckpoint, ModelConfig, loss_and_grads, new_checkpoint
from ptqlab.numerics import cholesky_upper_of_inverse, make_rng
from ptqlab.pipeline import PipelineConfig, Workspace, reproduce
from ptqlab.quant import GroupQuantSpec, dequantize, quantize_weight
from ptqlab.reporting import results_to_csv_text
from ptqlab.sensitivity import power_iteration
from ptqlab.trainer import TrainConfig, train
from test_allocator import cut

REPORT = []


def ok(criterion, detail=""):
    line = f"ACCEPTANCE {criterion}: PASS {detail}"
    REPORT.append(line)
    print("\n" + line)


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Full `reproduce` on defaults except a shortened latency protocol."""
    root = tmp_path_factory.mktemp("acceptance")
    doc = {
        "workspace": str(root / "ws"),
        "seed": 0,
        "latency": {"warmup_runs": 10, "timed_runs": 50, "seq_len": 128},
    }
    cfg = PipelineConfig.from_dict(doc)
    ws = Workspace(cfg)
    t0 = time.time()
    summary = reproduce(ws)
    elapsed = time.time() - t0
    results_csv = (ws.root / "report" / "results.csv").read_bytes()
    report_json = json.loads((ws.root / "report" / "report.json").read_text())
    return {"ws": ws, "summary": summary, "elapsed": elapsed,
            "results_csv": results_csv, "report": report_json}


def rows_by(report, **filters):
    rows = report["results"]
    for key, val in filters.items():
        rows = [r for r in rows if r[key] == val]
    return rows


class TestCriterion1Numerics:
    def test_gradients_and_cholesky(self):
        t0 = time.time()
        ckpt = train(TrainConfig(mode="ar", steps=300, seed=9, d_model=8, n_layers=1,
                                 n_heads=2, d_ff=16, max_seq_len=32))
        rng = make_rng(4)
        ids = rng.integers(0, 256, size=(2, 8))
        mask = np.zeros((2, 8), dtype=bool)
        mask[:, 1:] = True
        batch = Batch(ids, mask)
        params = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
        _, grads = loss_and_grads(params, ckpt.config, batch, dtype=np.float64)
        worst = 0.0
        for name, value in params.items():
            if value.size > 300:
                continue
            flat = value.ravel()
            gflat = grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                eps = 1e-4
                flat[i] = orig + eps
                lp, _ = loss_and_grads(params, ckpt.config, batch, dtype=np.float64,
                                       want_grads=False)
                flat[i] = orig - eps
                lm, _ = loss_and_grads(params, ckpt.config, batch, dtype=np.float64,
                                       want_grads=False)
                flat[i] = orig
                worst = max(worst, abs((lp - lm) / (2 * eps) - gflat[i]) / (abs(gflat[i]) + 1e-8))
        assert worst <= 1e-4

        rng = make_rng(11)
        for n in (16, 64, 128):
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            upper = cholesky_upper_of_inverse(a)
            err = np.abs(a @ (upper.T @ upper) - np.eye(n)).max()
            assert err <= 1e-8
        elapsed = time.time() - t0
        assert elapsed < 60
        ok(1, f"(grad rel err {worst:.2e}, multiply-back <= 1e-8, {elapsed:.1f}s)")


class TestCriterion2QuantProperties:
    def test_property_sweep(self):
        t0 = time.time()
        rng = make_rng(2024)
        groups = 0
        for _ in range(110):
            d_out = int(rng.integers(1, 9))
            d_in = int(rng.integers(1, 300))
            w = rng.standard_normal((d_out, d_in)) * 10.0 ** rng.uniform(-3, 2)
            for bits in (2, 3, 4, 8):
                spec = GroupQuantSpec(bits, group_size=24)
                qw = quantize_weight(w, spec)
                deq = dequantize(qw)
                widths = [min(24, d_in - 24 * g) for g in range(qw.scales.shape[1])]
                bound = np.repeat(qw.scales, widths, axis=1)
                assert np.all(np.abs(w - deq) <= bound / 2 + 1e-7)
                again = quantize_weight(deq, spec)
                assert np.array_equal(qw.codes, again.codes)
                assert np.array_equal(qw.scales, again.scales)
                neg = quantize_weight(-w, spec)
                assert np.array_equal(neg.codes, -qw.codes)
                groups += qw.scales.size
            mses = [float(np.mean((w - dequantize(quantize_weight(w, GroupQuantSpec(b, 24)))) ** 2))
                    for b in (2, 3, 4, 8)]
            assert mses[0] >= mses[1] >= mses[2] >= mses[3]
        elapsed = time.time() - t0
        assert groups >= 10_000
        assert elapsed < 30
        ok(2, f"({groups} groups incl. ragged, {elapsed:.1f}s)")


class QuadraticProbe:
    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)

    def gradient(self, delta=None):
        return np.zeros(self.a.shape[0]) if delta is None else self.a @ delta


class TestCriterion3HvpPowerIteration:
    def test_hvp_and_power_iteration(self):
        probe = QuadraticProbe(np.diag([3.0, 1.0]))
        hv = (probe.gradient(1e-3 * np.array([1.0, 0.0]))) / 1e-3
        assert np.abs(hv - [3.0, 0.0]).max() <= 1e-6 * 3.0

        rng = make_rng(17)
        for _ in range(5):
            m = rng.standard_normal((12, 12))
            a = m.T @ m
            top = float(np.linalg.eigvalsh(a)[-1])
            lam, _, _ = power_iteration(QuadraticProbe(a).gradient, 12, make_rng(23),
                                        rho=1.0, n_iters=100, eps=1e-3)
            assert abs(lam - top) <= 0.01 * top

        sparse, dense = [], []
        rng = make_rng(31)
        for trial in range(50):
            a = np.zeros((30, 30))
            for i in range(3):
                b = rng.standard_normal((10, 10))
                a[i * 10:(i + 1) * 10, i * 10:(i + 1) * 10] = b.T @ b
            a *= 10.0 ** rng.uniform(-1.0, 1.0)
            lam_s, _, _ = power_iteration(QuadraticProbe(a).gradient, 30,
                                          make_rng(1000 + trial), rho=0.1, n_iters=5, eps=1e-3)
            lam_d, _, _ = power_iteration(QuadraticProbe(a).gradient, 30,
                                          make_rng(2000 + trial), rho=1.0, n_iters=100, eps=1e-3)
            sparse.append(lam_s)
            dense.append(lam_d)
        rho_s, _ = stats.spearmanr(sparse, dense)
        assert rho_s >= 0.5
        ok(3, f"(HVP 1e-6, top-eig 1%, spearman {rho_s:.3f} at rho=0.1/5 iters)")


class TestCriterion4Algorithm3:
    def test_cutoff_exactness(self):
        # floor(p * M) in exact arithmetic; the ratios reach assign_precision as floats
        grid = [Fraction(n, d) for n, d in ((0, 1), (1, 10), (1, 5), (1, 4), (1, 3), (1, 2),
                                            (3, 4), (1, 1))]
        for m in range(1, 101):
            for p16, p8 in itertools.product(grid, repeat=2):
                if p16 + p8 > 1:
                    continue
                bits = cut(m, (float(p16), float(p8), max(0.0, 1.0 - p16 - p8)))
                k16 = math.floor(p16 * m)
                k8 = math.floor((p16 + p8) * m)
                assert bits == [16 if i <= k16 else 8 if i <= k8 else 4
                                for i in range(1, m + 1)]
                assert all(a >= b for a, b in zip(bits, bits[1:]))
        assert cut(10, (0.2, 0.3, 0.5)) == \
            [16, 16, 8, 8, 8, 4, 4, 4, 4, 4]
        ok(4, "(floors match for M in [1,100] x ratio grid; M=10 example exact)")


class TestCriterion5Gptq:
    def test_gptq_quality(self):
        t0 = time.time()
        rng = make_rng(3)
        w = rng.standard_normal((6, 12))
        qw, _ = gptq_quantize_layer(w, np.eye(12), GroupQuantSpec(3), GptqConfig())
        rtn = quantize_weight(w, GroupQuantSpec(3, 128))
        assert np.array_equal(qw.codes, rtn.codes)

        w = np.array([[1.0, 0.55]])
        x = np.array([[1.0, 0.97], [0.9, 0.88], [1.1, 1.05], [-1.0, -0.96]])
        h = 2.0 * (x.T @ x)
        qw, err = gptq_quantize_layer(w, h, GroupQuantSpec(2), GptqConfig())
        scale = qw.scales[0, 0]

        def recon(deq):
            d = w - deq
            return float(np.trace(d.T @ d @ h)) / 2

        best = min(recon(np.array([[c1 * scale, c2 * scale]]))
                   for c1, c2 in itertools.product((-1, 0, 1), repeat=2))
        assert err <= best * (1 + 1e-9)

        rng = make_rng(1234)
        wins = 0
        improvements = []
        for _ in range(100):
            x = rng.standard_normal((64, 16)) @ rng.standard_normal((16, 16))
            h = 2.0 * (x.T @ x)
            w = rng.standard_normal((16, 16)) * 0.5
            _, ge = gptq_quantize_layer(w, h, GroupQuantSpec(3), GptqConfig())
            re = recon_vs(w, h)
            wins += ge <= re
            improvements.append(re - ge)
        elapsed = time.time() - t0
        assert wins >= 90
        assert np.median(improvements) > 0
        assert elapsed < 300
        ok(5, f"(RTN equality, brute-force optimal, {wins}/100 wins, "
              f"median gain {np.median(improvements):.3f}, {elapsed:.1f}s)")


def recon_vs(w, h):
    deq = dequantize(quantize_weight(w, GroupQuantSpec(3, 128)))
    d = w - deq
    return float(np.trace(d.T @ d @ h)) / 2


class TestCriterion6EndToEnd:
    def test_training_quality(self, workspace):
        report = workspace["report"]
        for model in ("toy-ar", "toy-diffusion"):
            base = rows_by(report, model=model, method="baseline")[0]
            for task, score in base["scores"].items():
                assert score >= 0.85, (model, task, score)
        ar_base = rows_by(report, model="toy-ar", method="baseline")[0]
        assert ar_base["scores"]["copy"] >= 0.90
        assert ar_base["scores"]["heldout_token_accuracy"] >= 0.90
        ok("6a", "(paired checkpoints reach >= 0.85 on every task)")

    def test_16bit_rows_equal_baseline(self, workspace):
        from ptqlab.evaluation import evaluate_tasks

        ws = workspace["ws"]
        report = workspace["report"]
        for mode, model in (("ar", "toy-ar"), ("diffusion", "toy-diffusion")):
            ckpt = ModelCheckpoint.load(ws.checkpoint_path(mode))
            fresh = evaluate_tasks(ckpt, ws.cfg.suite)
            row = rows_by(report, model=model, method="baseline")[0]
            assert row["scores"] == fresh
            assert row["raw_bits"] == 16.0
        ok("6b", "(16-bit rows equal the unquantized baselines exactly)")

    def test_8bit_within_two_points(self, workspace):
        report = workspace["report"]
        for model in ("toy-ar", "toy-diffusion"):
            base = rows_by(report, model=model, method="baseline")[0]["scores"]
            for method in ("gptq", "rtn"):
                q8 = rows_by(report, model=model, method=method,
                             bits_or_plan="8bit")[0]["scores"]
                for task in base:
                    assert abs(base[task] - q8[task]) <= 0.02 + 1e-9, (model, method, task)
        ok("6c", "(8-bit within 2 points of baseline on every task, both methods)")

    def test_2bit_strictly_below_4bit(self, workspace):
        report = workspace["report"]
        for model in ("toy-ar", "toy-diffusion"):
            base = np.mean(list(rows_by(report, model=model,
                                        method="baseline")[0]["scores"].values()))
            for method in ("gptq", "rtn"):
                s2 = np.mean(list(rows_by(report, model=model, method=method,
                                          bits_or_plan="2bit")[0]["scores"].values()))
                s4 = np.mean(list(rows_by(report, model=model, method=method,
                                          bits_or_plan="4bit")[0]["scores"].values()))
                assert s2 < s4, (model, method, s2, s4)
                assert s2 < base, (model, method, s2, base)
        ok("6d", "(2-bit strictly below 4-bit and baseline, both models and methods)")

    def test_robustness_trend_reported_not_asserted(self, workspace):
        trends = workspace["report"]["trends"]
        assert "robustness_gap" in trends
        for bits in ("3bit", "4bit"):
            assert "diffusion_more_robust" in trends["robustness_gap"][bits]
        flag = {b: trends["robustness_gap"][b]["diffusion_more_robust"]
                for b in ("3bit", "4bit")}
        ok("6e", f"(robustness trend reported, flags={flag}; not asserted)")

    def test_wall_clock_budget(self, workspace):
        assert workspace["elapsed"] < 30 * 60
        assert workspace["summary"]["eval"]["n_failed"] == 0
        assert workspace["summary"]["eval"]["n_cells"] == 22
        ok("6f", f"(reproduce finished in {workspace['elapsed'] / 60:.1f} min, 22 cells, 0 failed)")


class TestCriterion7LatencyProtocol:
    def test_protocol_counts_and_roundtrip(self, monkeypatch):
        assert LatencyConfig().warmup_runs == 200
        assert LatencyConfig().timed_runs == 2000
        ckpt = new_checkpoint(ModelConfig(mode="ar", d_model=8, n_layers=1, n_heads=2,
                                          d_ff=16, max_seq_len=128), 0)
        calls = []
        forward = evaluation.forward_logits
        monkeypatch.setattr(evaluation, "forward_logits",
                            lambda *a: calls.append(a) or forward(*a))
        mean_ms, std_ms = measure_latency(ckpt, LatencyConfig(seq_len=64))
        assert len(calls) == 200 + 2000  # one unit of work per run
        assert mean_ms > 0 and std_ms >= 0

        row = EvalResult("toy-ar", "ar", "baseline", "16bit", {"copy": 0.5},
                         26.843, 0.305, 16.0, 16.0, 0, "fixture")
        (back,) = csv.DictReader(io.StringIO(results_to_csv_text([row])))
        assert (float(back["lat_mean_ms"]), float(back["lat_std_ms"])) == (26.843, 0.305)
        ok(7, f"(200 warmup + 2000 timed runs; 26.843/0.305 round-trips; "
              f"mean {mean_ms:.3f} ms)")


class TestCriterion8Reporting:
    def test_pareto_and_table(self, workspace):
        from ptqlab.reporting import ParetoPoint, pareto_frontier

        rng = make_rng(99)
        pts = [ParetoPoint(f"p{i:03d}", float(rng.integers(2, 17)),
                           float(np.round(rng.random(), 2))) for i in range(400)]
        frontier, dominated = pareto_frontier(pts)
        for p in pts:
            expect = any(
                (q.effective_avg_bits <= p.effective_avg_bits and q.score >= p.score
                 and (q.effective_avg_bits < p.effective_avg_bits or q.score > p.score))
                or (q.effective_avg_bits == p.effective_avg_bits and q.score == p.score
                    and q.label < p.label)
                for q in pts if q is not p)
            assert any(d is p for d in dominated) == expect

        golden = Path(__file__).parent / "golden" / "table.md"
        from test_reporting import table1_fixture
        from ptqlab.reporting import degradation_table

        md = degradation_table(table1_fixture())
        assert "0.457 (0.439)" in md
        assert md == golden.read_text()

        # results.csv is a function of the results report.json records
        results = [EvalResult(**r) for r in workspace["report"]["results"]]
        assert results_to_csv_text(results).encode() == workspace["results_csv"]
        ok(8, "(pareto matches O(n^2) oracle; table cell 0.457 (0.439); deterministic bytes)")


class TestCriterion9Determinism:
    def test_reproduce_twice_identical_results_csv(self, workspace):
        ws = workspace["ws"]
        first = workspace["results_csv"]
        reproduce(ws)  # idempotent re-run through the eval cache
        second = (ws.root / "report" / "results.csv").read_bytes()
        assert first == second
        ok(9, "(second reproduce byte-identical results.csv)")


@pytest.fixture(scope="session", autouse=True)
def print_summary():
    yield
    if REPORT:
        print("\n" + "=" * 72)
        for line in sorted(REPORT):
            print(line)
        print("=" * 72)
