import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfacefuse.data import make_batch
from surfacefuse.errors import ConfigError, InvalidParameterError
from surfacefuse.model import ModelConfig, Seq2Seq
from surfacefuse.surface import (
    FusionConfig,
    SurfaceHead,
    hard_fuse,
    soft_fuse,
    surface_log_probability,
)
from surfacefuse.tensor import Rng, Tensor, no_grad
import surfacefuse.tensor as T


def head_and_inputs(seed=0, dim=8, heads=2, i=4, j=3):
    rng = Rng(seed)
    head = SurfaceHead(dim, heads, rng)
    y = Tensor(rng.spawn("y").normal(0, 1, (1, j, dim)))
    xn = Tensor(rng.spawn("xn").normal(0, 1, (1, i, dim)))
    emb = Tensor(rng.spawn("emb").normal(0, 1, (1, i, dim)))
    return head, y, xn, emb


class TestSurfaceAttention:
    def test_single_source_position(self):
        head, y, xn, emb = head_and_inputs(i=1)
        r = head(y, xn, emb)
        attn = head.attn
        expected = (emb.data @ attn.wv.w.data + attn.wv.b.data) @ attn.wo.w.data + attn.wo.b.data
        for j in range(3):
            np.testing.assert_allclose(r.data[0, j], expected[0, 0], atol=1e-10)

    def test_identical_keys_give_mean_of_values(self):
        head, y, _, emb = head_and_inputs(i=5)
        xn_same = Tensor(np.ones((1, 5, 8)))
        r = head(y, xn_same, emb)
        attn = head.attn
        v = emb.data @ attn.wv.w.data + attn.wv.b.data
        expected = v.mean(axis=1) @ attn.wo.w.data + attn.wo.b.data
        for j in range(3):
            np.testing.assert_allclose(r.data[0, j], expected[0], atol=1e-10)

    def test_two_positions_hand_rolled(self):
        head, y, xn, emb = head_and_inputs(seed=3, i=2, j=2)
        r = head(y, xn, emb)
        attn = head.attn
        q = (y.data @ attn.wq.w.data + attn.wq.b.data).reshape(1, 2, 2, 4).transpose(0, 2, 1, 3)
        k = (xn.data @ attn.wk.w.data + attn.wk.b.data).reshape(1, 2, 2, 4).transpose(0, 2, 1, 3)
        v = (emb.data @ attn.wv.w.data + attn.wv.b.data).reshape(1, 2, 2, 4).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(4)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        ctx = (w @ v).transpose(0, 2, 1, 3).reshape(1, 2, 8)
        expected = ctx @ attn.wo.w.data + attn.wo.b.data
        np.testing.assert_allclose(r.data, expected, atol=1e-10)


def surface_probability(r, v, tau):
    """Row-stochastic surface distribution, exp of the log-space path."""
    return np.exp(surface_log_probability(r, v, tau=tau).data)


class TestSurfaceProbability:
    def test_low_temperature_saturates_argmax(self):
        v = Tensor(np.eye(3, 4))  # vocab 4, dim 3; columns are one-hot-ish
        r = Tensor(np.array([[0.0, 3.0, 0.0]]))
        p = surface_probability(r, Tensor(v.data.T), tau=1e-3)
        assert p.argmax() == 1
        assert p[0, 1] > 1.0 - 1e-9

    def test_high_temperature_flattens(self):
        rng = Rng(2)
        r = Tensor(rng.normal(0, 1, (2, 4)))
        v = Tensor(rng.normal(0, 1, (5, 4)))
        p = surface_probability(r, v, tau=1e7)
        np.testing.assert_allclose(p, 1.0 / 5.0, atol=1e-6)

    def test_known_values_scalar_oracle(self):
        r = Tensor(np.array([[1.0, -2.0]]))
        v = Tensor(np.array([[0.5, 1.0], [2.0, 0.0], [-1.0, 0.25]]))  # vocab 3, dim 2
        tau = 1.7
        p = surface_probability(r, v, tau=tau)
        logits = [1.0 * 0.5 + -2.0 * 1.0, 1.0 * 2.0 + -2.0 * 0.0, 1.0 * -1.0 + -2.0 * 0.25]
        exps = [math.exp(z / tau) for z in logits]
        expected = [e / sum(exps) for e in exps]
        np.testing.assert_allclose(p[0], expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = Rng(4)
        p = surface_probability(Tensor(rng.normal(0, 2, (6, 5))),
                                Tensor(rng.normal(0, 1, (9, 5))), tau=3.3)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_log_matches_probability_path(self):
        rng = Rng(5)
        r = Tensor(rng.normal(0, 1, (3, 4)))
        v = Tensor(rng.normal(0, 1, (7, 4)))
        p = T.softmax_temp(T.matmul(r, T.transpose(v, (1, 0))), tau=5.0, axis=-1)
        logp = surface_log_probability(r, v, tau=5.0)
        np.testing.assert_allclose(np.exp(logp.data), p.data, atol=1e-12)

    def test_bad_tau(self):
        r = Tensor(np.ones((1, 2)))
        v = Tensor(np.ones((3, 2)))
        with pytest.raises(InvalidParameterError):
            surface_probability(r, v, tau=0.0)
        with pytest.raises(InvalidParameterError):
            surface_log_probability(r, v, tau=-1.0)


class TestHardFuse:
    def test_lambda_one_is_decoder_bits(self):
        rng = Rng(1)
        a = T.log_softmax(Tensor(rng.normal(0, 1, (3, 5))))
        b = T.log_softmax(Tensor(rng.normal(0, 1, (3, 5))))
        fused = hard_fuse(a, b, 1.0)
        np.testing.assert_array_equal(fused.data, a.data)

    def test_lambda_zero_is_surface_bits(self):
        rng = Rng(2)
        a = T.log_softmax(Tensor(rng.normal(0, 1, (3, 5))))
        b = T.log_softmax(Tensor(rng.normal(0, 1, (3, 5))))
        fused = hard_fuse(a, b, 0.0)
        np.testing.assert_array_equal(fused.data, b.data)

    def test_equal_inputs_fixed_point(self):
        rng = Rng(3)
        a = T.log_softmax(Tensor(rng.normal(0, 1, (2, 4))))
        fused = hard_fuse(a, a, 0.37)
        np.testing.assert_allclose(fused.data, a.data, atol=1e-12)

    def test_lambda_out_of_range(self):
        a = Tensor(np.zeros((1, 3)))
        with pytest.raises(InvalidParameterError):
            hard_fuse(a, a, 1.01)
        with pytest.raises(InvalidParameterError):
            hard_fuse(a, a, -0.1)


class TestSoftFuse:
    def test_uniform_surface_is_identity(self):
        rng = Rng(5)
        logits = Tensor(rng.normal(0, 2, (4, 7)))
        uniform = Tensor(np.full((4, 7), math.log(1.0 / 7.0)))
        fused = soft_fuse(logits, uniform)
        np.testing.assert_allclose(fused.data, T.log_softmax(logits).data, atol=1e-12)

    def test_constant_logits_return_surface(self):
        rng = Rng(6)
        surf = T.log_softmax(Tensor(rng.normal(0, 1, (3, 5))))
        logits = Tensor(np.full((3, 5), 2.5))
        fused = soft_fuse(logits, surf)
        np.testing.assert_allclose(fused.data, surf.data, atol=1e-12)

    def test_three_token_hand_example(self):
        e = Tensor(np.array([[1.0, 0.0, 0.0]]))
        logp2 = Tensor(np.log(np.array([[0.5, 0.25, 0.25]])))
        fused = soft_fuse(e, logp2)
        z = [1.0 + math.log(0.5), math.log(0.25), math.log(0.25)]
        exps = [math.exp(v) for v in z]
        expected = [math.log(v / sum(exps)) for v in exps]
        np.testing.assert_allclose(fused.data[0], expected, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rows_are_distributions(self, seed):
        rng = Rng(seed)
        e = Tensor(rng.spawn("e").normal(0, 3, (2, 6)))
        surf = T.log_softmax(Tensor(rng.spawn("s").normal(0, 3, (2, 6))))
        fused = soft_fuse(e, surf)
        np.testing.assert_allclose(np.exp(fused.data).sum(axis=-1), 1.0, atol=1e-9)


class TestFusionConfig:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            FusionConfig(mode="sideways").validate()
        with pytest.raises(ConfigError):
            FusionConfig(lambda_=1.5).validate()
        with pytest.raises(ConfigError):
            FusionConfig(tau=0.0).validate()
        with pytest.raises(ConfigError):
            FusionConfig(dropconnect=1.0).validate()
        FusionConfig(mode="surface-soft", tau=5.0).validate()


def surface_model(mode, seed=0, dtype="float64", **fusion_kw):
    cfg = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=8, n_heads=2, d_ff=16,
                      vocab_src=12, vocab_tgt=12, max_len=16, dtype=dtype)
    return Seq2Seq(cfg, FusionConfig(mode=mode, **fusion_kw), seed=seed)


class TestEndToEnd:
    def test_shared_presoftmax_storage_gets_surface_gradient(self):
        model = surface_model("surface-soft", tau=5.0)
        assert model.out_weight is model.src_embed
        batch = make_batch([([4, 5, 6], [4, 5, 6])])
        loss, _ = model.loss_on_batch(batch, training=False)
        loss.backward()
        assert np.linalg.norm(model.src_embed.grad) > 0

    @pytest.mark.parametrize("training", [False, True])
    def test_hard_lambda_one_equals_vanilla_loss_bitwise(self, training):
        batch = make_batch([([4, 5, 6], [4, 5, 6]), ([7, 8, 9, 10], [7, 8, 9, 10])])
        vanilla = surface_model("none", seed=3)
        fused = surface_model("surface-hard", seed=3, lambda_=1.0, tau=1.0)
        loss_v, stats_v = vanilla.loss_on_batch(batch, training=training, label_smoothing=0.1)
        loss_f, stats_f = fused.loss_on_batch(batch, training=training, label_smoothing=0.1)
        assert loss_v.item() == loss_f.item()
        assert stats_v == stats_f

    def test_surface_modes_produce_normalized_scores_where_promised(self):
        model = surface_model("surface-soft", tau=5.0)
        batch = make_batch([([4, 5, 6], [4, 5, 6])])
        out = model.encode(batch.src)
        scores = model.position_scores(out, batch.tgt_in)["score"]
        np.testing.assert_allclose(np.exp(scores.data).sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("mode,kw", [
        ("surface-soft", {"tau": 5.0}),
        ("surface-hard", {"lambda_": 0.8, "tau": 1.0}),
    ])
    def test_decode_cache_matches_graph_path(self, mode, kw):
        """Scores under no_grad (surface cache) equal the grad-enabled graph path."""
        model = surface_model(mode, seed=5, **kw)
        src = np.array([[4, 5, 6, 7, 8], [9, 10, 11, 0, 0]])
        tgt = np.array([[1, 8, 9, 4], [1, 5, 6, 7]])
        graph_out = model.encode(src)
        assert graph_out.surface is None
        with no_grad():
            cached_out = model.encode(src)
        assert cached_out.surface is not None
        for last_only in (False, True):
            graph = model.position_scores(graph_out, tgt, last_only=last_only)["score"]
            with no_grad():
                cached = model.position_scores(cached_out, tgt, last_only=last_only)["score"]
            assert graph.requires_grad and not cached.requires_grad
            assert cached.shape == graph.shape == (2, 1 if last_only else 4, 12)
            np.testing.assert_allclose(cached.data, graph.data, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode,kw", [
        ("surface-soft", {"tau": 5.0}),
        ("surface-hard", {"lambda_": 0.8, "tau": 1.0}),
    ])
    def test_float32_cache_keeps_model_dtype(self, mode, kw):
        """A float32 model's graph-free scores stay float32, like its graph path."""
        model = surface_model(mode, seed=5, dtype="float32", **kw)
        src = np.array([[4, 5, 6, 7, 8], [9, 10, 11, 0, 0]])
        tgt = np.array([[1, 8, 9, 4], [1, 5, 6, 7]])
        graph = model.position_scores(model.encode(src), tgt)["score"]
        with no_grad():
            cached = model.position_scores(model.encode(src), tgt)["score"]
        assert graph.dtype == cached.dtype == np.float32
        np.testing.assert_allclose(cached.data, graph.data, rtol=0, atol=1e-5)
