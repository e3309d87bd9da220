"""The in-place kernels equal their reference formulas byte for byte."""

import numpy as np
import pytest

import kernel_reference as ref
from ptqlab.model import layers
from ptqlab.model.network import _split_heads
from ptqlab.numerics import make_rng
from ptqlab.quant import round_half_away_from_zero
from ptqlab.trainer import AdamState

SHAPES = [(1, 16), (1, 128), (16, 20), (32, 32)]
DTYPES = [np.float32, np.float64]
CASES = [(shape, dtype) for shape in SHAPES for dtype in DTYPES]


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw(rng, shape, dtype, std=1.0):
    return (rng.standard_normal(shape) * std).astype(dtype)


@pytest.mark.parametrize("shape, dtype", CASES)
class TestKernelBytes:
    def test_linear(self, shape, dtype):
        rng = make_rng(1)
        x, w, b = draw(rng, shape, dtype), draw(rng, (24, shape[1]), dtype), draw(rng, 24, dtype)
        for bias in (b, None):
            y, cache = layers.linear_fwd(x, w, bias)
            assert same(y, ref.linear_fwd(x, w, bias))
        dout = draw(rng, (shape[0], 24), dtype)
        for got, want in zip(layers.linear_bwd(dout, cache), ref.linear_bwd(dout, x, w)):
            assert same(got, want)

    def test_layer_norm(self, shape, dtype):
        rng = make_rng(2)
        for lead in ((), (3,)):  # a 2-D input and a (batch, seq, d) one
            x = draw(rng, lead + shape, dtype, std=3.0) + dtype(0.5)
            gain = draw(rng, shape[-1], dtype) + dtype(1.0)
            bias = draw(rng, shape[-1], dtype)
            out, cache = layers.layer_norm_fwd(x, gain, bias)
            want, ref_cache = ref.layer_norm_fwd(x, gain, bias)
            assert same(out, want)
            for got_part, want_part in zip(cache, ref_cache):
                assert same(got_part, want_part)
            dout = draw(rng, x.shape, dtype)
            got = layers.layer_norm_bwd(dout, cache)
            for got_part, want_part in zip(got, ref.layer_norm_bwd(dout, ref_cache)):
                assert same(got_part, want_part)
            dx, none_g, none_b = layers.layer_norm_bwd(dout, cache, weight_grads=False)
            assert same(dx, got[0]) and none_g is None and none_b is None

    def test_gelu(self, shape, dtype):
        rng = make_rng(3)
        x = draw(rng, shape, dtype, std=2.0)
        out, (cached_x, t) = layers.gelu_fwd(x)
        want, ref_t = ref.gelu_fwd(x)
        assert same(out, want) and same(t, ref_t) and cached_x is x
        dout = draw(rng, shape, dtype)
        assert same(layers.gelu_bwd(dout, (x, t)), ref.gelu_bwd(dout, x, ref_t))

    @pytest.mark.parametrize("causal", [True, False])
    def test_attention(self, shape, dtype, causal):
        rng = make_rng(4)
        s, d_head = shape
        q, k, v = (draw(rng, (2, 3, s, d_head), dtype, std=2.0) for _ in range(3))
        out, (_, _, _, probs) = layers.attention_fwd(q, k, v, causal)
        want, ref_probs = ref.attention_fwd(q, k, v, causal)
        assert same(out, want) and same(probs, ref_probs)
        # heads split from a (batch, seq, d) projection, as the network runs it
        x = draw(rng, (2, s, 3 * d_head), dtype, std=2.0)
        heads = _split_heads(x, 3)
        assert heads.flags.c_contiguous and same(heads, ref.split_heads(x, 3))
        out, _ = layers.attention_fwd(heads, heads, heads, causal)
        want, _ = ref.attention_fwd(*(ref.split_heads(x, 3),) * 3, causal)
        assert same(out, want)

    def test_adam_step(self, shape, dtype):
        rng = make_rng(5)
        params = {"a": draw(rng, shape, dtype), "b": draw(rng, (shape[1],), dtype)}
        expected = {k: p.copy() for k, p in params.items()}
        hp = dict(lr=3e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        opt = AdamState(params, **hp)
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 4):
            grads = {k: draw(rng, p.shape, dtype, std=0.1) for k, p in params.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            opt.step(params, grads)
            ref.adam_step(expected, grads, m, v, t, **hp)
            assert all(same(grads[k], kept[k]) for k in grads)  # gradients are not consumed
            for k in params:
                assert same(params[k], expected[k])
                assert same(opt.m[k], m[k]) and same(opt.v[k], v[k])


@pytest.mark.parametrize("dtype", DTYPES)
def test_rounding_rule_matches_sign_floor(dtype):
    rng = make_rng(6)
    halves = np.arange(-40, 41) / 2.0  # every tie between -20 and 20
    near = np.concatenate([halves + d for d in (-1e-9, 1e-9)])
    x = np.concatenate([halves, near, rng.standard_normal(500) * 9.0,
                        [0.0, -0.0, 1e15 + 0.5, -1e15 - 0.5, 2.0**52 + 1, -(2.0**52) - 1]])
    x = x.astype(dtype)
    got = round_half_away_from_zero(x)
    want = ref.round_half_away_from_zero(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    nonzero = want != 0  # the sign of a zero result may differ; it becomes code 0
    assert same(got[nonzero], want[nonzero])
