import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfacefuse.errors import DegenerateMaskError, InvalidParameterError
from surfacefuse.fusion import (
    FusionWeights,
    decoder_sources,
    fuse,
    mask_layer,
    normalize_weights,
    uppermost_sources,
)
from surfacefuse.model import ModelConfig, Seq2Seq
from surfacefuse.surface import FusionConfig
from surfacefuse.tensor import Rng, Tensor
from surfacefuse.training import beam_decode
from surfacefuse.data import make_batch


class FakeOutputs:
    """Stand-in LayerOutputs: layers[0] is ignored by fuse (x_emb is used)."""

    def __init__(self, x_emb, hidden_layers):
        self.x_emb = x_emb
        self.layers = [x_emb] + hidden_layers


def random_outputs(rng, n_layers, i, d):
    x_emb = Tensor(rng.spawn("emb").normal(0, 1, (1, i, d)))
    layers = [Tensor(rng.spawn(f"l{n}").normal(0, 1, (1, i, d))) for n in range(n_layers)]
    return FakeOutputs(x_emb, layers)


class TestNormalizeWeights:
    def test_zero_logits_uniform(self):
        w = Tensor(np.zeros((2, 3, 4)))
        out = normalize_weights(w)
        np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_saturated_logit(self):
        raw = np.zeros((1, 3, 2))
        raw[0, 1, :] = 40.0
        out = normalize_weights(Tensor(raw))
        assert np.all(out.data[0, 1, :] > 1.0 - 1e-12)

    def test_known_two_layer_split(self):
        raw = np.zeros((1, 2, 1))
        raw[0, 0, 0] = np.log(2.0)
        out = normalize_weights(Tensor(raw))
        np.testing.assert_allclose(out.data[0, :, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_sums_to_one_per_slot(self):
        raw = Tensor(Rng(3).normal(0, 4, (3, 5, 8)))
        out = normalize_weights(raw)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


class TestDropconnect:
    def test_p_zero_is_identity(self):
        rng = Rng(4)
        outputs = random_outputs(rng, 2, i=3, d=4)
        weights = FusionWeights(2, 3, 4, p=0.0)
        weights.raw.data[:] = rng.spawn("w").normal(0, 1, (2, 3, 4))
        trained = decoder_sources(outputs, weights, "fine", 2, Rng(0), training=True)
        evaluated = decoder_sources(outputs, weights, "fine", 2, None, training=False)
        for x, y in zip(trained, evaluated):
            np.testing.assert_array_equal(x.data, y.data)


class TestFuse:
    def test_one_hot_selects_layer(self):
        rng = Rng(1)
        outputs = random_outputs(rng, 2, i=4, d=3)
        raw = np.full((1, 3, 3), -60.0)
        raw[0, 2, :] = 60.0  # all weight on layer 2
        w_hat = normalize_weights(Tensor(raw))
        s = fuse(outputs, 0, w_hat)
        np.testing.assert_allclose(s.data, outputs.layers[2].data, atol=1e-12)

    def test_uniform_two_source_average(self):
        x_emb = Tensor(np.array([[[1.0, 2.0]]]))
        layer1 = Tensor(np.array([[[3.0, 4.0]]]))
        outputs = FakeOutputs(x_emb, [layer1])
        w_hat = normalize_weights(Tensor(np.zeros((1, 2, 2))))
        s = fuse(outputs, 0, w_hat)
        np.testing.assert_allclose(s.data, [[[2.0, 3.0]]], atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = Rng(9)
        outputs = random_outputs(rng, 2, i=5, d=4)
        w_hat = normalize_weights(Tensor(rng.spawn("w").normal(0, 1, (2, 3, 4))))
        m = 1
        s = fuse(outputs, m, w_hat)
        sources = [outputs.x_emb.data] + [l.data for l in outputs.layers[1:]]
        expected = np.zeros((1, 5, 4))
        for i in range(5):
            for d in range(4):
                for n in range(3):
                    expected[0, i, d] += w_hat.data[m, n, d] * sources[n][0, i, d]
        np.testing.assert_allclose(s.data, expected, atol=1e-12)

    def test_gradient_reaches_raw_weights(self):
        weights = FusionWeights(2, 3, 4)
        rng = Rng(2)
        outputs = random_outputs(rng, 2, i=3, d=4)
        w_hat = normalize_weights(weights.raw)
        target = rng.spawn("t").normal(0, 1, (1, 3, 4))
        diff = fuse(outputs, 0, w_hat) + Tensor(-target)
        (diff * diff).sum().backward()
        assert np.linalg.norm(weights.raw.grad) > 0


class TestMaskLayer:
    def test_renormalizes_exactly(self):
        w = Tensor(np.array([0.5, 0.3, 0.2]).reshape(1, 3, 1))
        out = mask_layer(w, 0)
        np.testing.assert_allclose(out.data.reshape(3), [0.0, 0.6, 0.4], atol=1e-12)

    def test_masking_zero_weight_layer_is_noop(self):
        w = Tensor(np.array([0.0, 0.7, 0.3]).reshape(1, 3, 1))
        out = mask_layer(w, 0)
        np.testing.assert_allclose(out.data, w.data, atol=1e-15)

    def test_middle_mask_arithmetic(self):
        w = Tensor(np.array([0.25, 0.25, 0.5]).reshape(1, 3, 1))
        out = mask_layer(w, 1)
        np.testing.assert_allclose(out.data.reshape(3), [1.0 / 3.0, 0.0, 2.0 / 3.0], atol=1e-12)

    def test_degenerate_mask_raises(self):
        w = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1))
        with pytest.raises(DegenerateMaskError):
            mask_layer(w, 0)

    def test_bad_index(self):
        w = Tensor(np.ones((1, 3, 1)) / 3.0)
        with pytest.raises(InvalidParameterError):
            mask_layer(w, 5)

    def test_mask_then_fuse_equals_reduced_fuse(self):
        # two-path equivalence: fusing with masked weights == mixing only the
        # surviving layers with independently renormalized weights
        rng = Rng(4)
        outputs = random_outputs(rng, 3, i=4, d=5)
        w_hat = normalize_weights(Tensor(rng.spawn("w").normal(0, 1, (1, 4, 5))))
        masked = mask_layer(w_hat, 2)
        fused = fuse(outputs, 0, masked)

        sources = [outputs.x_emb.data] + [l.data for l in outputs.layers[1:]]
        w = w_hat.data.copy()
        w[0, 2, :] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        expected = np.zeros((1, 4, 5))
        for n, src in enumerate(sources):
            expected += w[0, n] * src[0]
        np.testing.assert_allclose(fused.data, expected, atol=1e-12)


class TestCoarseFuse:
    """Coarse weights are (M, L, 1); fuse broadcasts them over dimensions."""

    def test_equals_fine_with_constant_weights(self):
        rng = Rng(6)
        outputs = random_outputs(rng, 2, i=3, d=4)
        scalars = normalize_weights(Tensor(rng.spawn("s").normal(0, 1, (2, 3, 1))))
        fine = np.repeat(scalars.data, 4, axis=2)
        a = fuse(outputs, 1, scalars)
        b = fuse(outputs, 1, Tensor(fine))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_one_hot_selection(self):
        rng = Rng(8)
        outputs = random_outputs(rng, 2, i=3, d=4)
        raw = np.full((1, 3, 1), -60.0)
        raw[0, 0, 0] = 60.0  # embeddings only
        s = fuse(outputs, 0, normalize_weights(Tensor(raw)))
        np.testing.assert_allclose(s.data, outputs.x_emb.data, atol=1e-12)

    def test_random_scalars_match_loop(self):
        rng = Rng(10)
        outputs = random_outputs(rng, 1, i=2, d=3)
        scalars = normalize_weights(Tensor(rng.spawn("s").normal(0, 1, (1, 2, 1))))
        s = fuse(outputs, 0, scalars)
        sources = [outputs.x_emb.data, outputs.layers[1].data]
        expected = np.zeros((1, 2, 3))
        for n, src in enumerate(sources):
            expected += scalars.data[0, n, 0] * src
        np.testing.assert_allclose(s.data, expected, atol=1e-12)

    @pytest.mark.parametrize("layer_mask", [None, 1])
    def test_decoder_sources_coarse_equals_fine_with_repeated_scalars(self, layer_mask):
        rng = Rng(12)
        outputs = random_outputs(rng, 2, i=3, d=4)
        coarse = FusionWeights(2, 3, 1)
        coarse.raw.data[:] = rng.spawn("s").normal(0, 1, (2, 3, 1))
        fine = FusionWeights(2, 3, 4)
        fine.raw.data[:] = np.repeat(coarse.raw.data, 4, axis=2)
        a = decoder_sources(outputs, coarse, "coarse", 2, None, False, layer_mask=layer_mask)
        b = decoder_sources(outputs, fine, "fine", 2, None, False, layer_mask=layer_mask)
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.data, y.data, atol=1e-12)


class TestUppermostMode:
    def test_lower_layers_get_final_encoder_output(self):
        rng = Rng(3)
        outputs = random_outputs(rng, 2, i=3, d=4)
        w = normalize_weights(Tensor(np.zeros((1, 2, 4))))
        sources = uppermost_sources(outputs, w, n_dec_layers=2)
        assert sources[0] is outputs.layers[-1]

    def test_uniform_two_way_average(self):
        rng = Rng(3)
        outputs = random_outputs(rng, 2, i=3, d=4)
        w = normalize_weights(Tensor(np.zeros((1, 2, 4))))
        sources = uppermost_sources(outputs, w, n_dec_layers=2)
        expected = (outputs.x_emb.data + outputs.layers[-1].data) / 2.0
        np.testing.assert_allclose(sources[-1].data, expected, atol=1e-12)

    def test_two_way_weights_normalized(self):
        model = Seq2Seq(ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=8, n_heads=2,
                                    d_ff=16, vocab_src=12, vocab_tgt=12, max_len=16),
                        FusionConfig(mode="fine-uppermost"), seed=0)
        assert model.fusion_weights.shape == (1, 2, 8)
        w = normalize_weights(model.fusion_weights.raw)
        np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)


class TestConvexCombinationBound:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fused_values_inside_layer_envelope(self, seed):
        rng = Rng(seed)
        n_layers = int(rng.spawn("n").integers(1, 4))
        i = int(rng.spawn("i").integers(1, 5))
        d = int(rng.spawn("d").integers(1, 6))
        outputs = random_outputs(rng, n_layers, i=i, d=d)
        m_slots = int(rng.spawn("m").integers(1, 3))
        w_hat = normalize_weights(
            Tensor(rng.spawn("w").normal(0, 3, (m_slots, n_layers + 1, d))))
        stack = np.stack([outputs.x_emb.data] + [l.data for l in outputs.layers[1:]])
        lo = stack.min(axis=0)
        hi = stack.max(axis=0)
        for m in range(m_slots):
            s = fuse(outputs, m, w_hat).data
            assert np.all(s >= lo - 1e-12)
            assert np.all(s <= hi + 1e-12)


class TestModelIntegration:
    def test_training_step_moves_fusion_weights(self):
        cfg = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=8, n_heads=2, d_ff=16,
                          vocab_src=12, vocab_tgt=12, max_len=16)
        model = Seq2Seq(cfg, FusionConfig(mode="fine", dropconnect=0.3), seed=0)
        batch = make_batch([([4, 5, 6], [4, 5, 6]), ([7, 8], [7, 8])])
        loss, _ = model.loss_on_batch(batch, training=True, label_smoothing=0.1)
        loss.backward()
        assert np.linalg.norm(model.fusion_weights.raw.grad) > 0

    def test_decoder_sources_mode_guard(self):
        rng = Rng(0)
        outputs = random_outputs(rng, 2, i=3, d=4)
        with pytest.raises(InvalidParameterError):
            decoder_sources(outputs, FusionWeights(1, 3, 4), "none", 2, None, False)

    def test_beam_decode_builds_fused_sources_once(self, monkeypatch):
        cfg = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=8, n_heads=2, d_ff=16,
                          vocab_src=12, vocab_tgt=12, max_len=16)
        model = Seq2Seq(cfg, FusionConfig(mode="fine"), seed=0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return decoder_sources(*args, **kwargs)

        monkeypatch.setattr("surfacefuse.fusion.decoder_sources", counting)
        beam_decode(model, [4, 5, 6, 7], beam_size=4)
        assert len(calls) == 1
