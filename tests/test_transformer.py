import numpy as np
import pytest

from surfacefuse.checkpoint import load_checkpoint, save_checkpoint
from surfacefuse.errors import ConfigError, InvalidParameterError, SequenceLengthError
from surfacefuse.layers import (
    Linear,
    MultiHeadAttentionLayer,
    causal_mask,
    padding_mask,
    sinusoid_positions,
)
from surfacefuse.model import BOS_ID, ModelConfig, Seq2Seq
from surfacefuse.surface import FUSION_MODES, FusionConfig
from surfacefuse.tensor import Rng, Tensor, no_grad
import surfacefuse.tensor as T


def tiny_config(**kw):
    base = dict(n_enc_layers=2, n_dec_layers=2, d_model=8, n_heads=2, d_ff=16,
                vocab_src=12, vocab_tgt=12, max_len=16, dropout=0.1)
    base.update(kw)
    return ModelConfig(**base)


def src_batch(*rows):
    return np.asarray(rows, dtype=np.int64)


class TestEncode:
    def test_layer_count_and_shapes(self):
        model = Seq2Seq(tiny_config(), seed=0)
        out = model.encode(src_batch([4, 5, 6, 7, 8]))
        assert len(out.layers) == 3
        for layer in out.layers:
            assert layer.shape == (1, 5, 8)
        assert out.x_emb.shape == (1, 5, 8)

    def test_x_emb_is_position_free(self):
        model = Seq2Seq(tiny_config(), seed=0)
        a = model.encode(src_batch([4, 5, 6, 7])).x_emb.data
        b = model.encode(src_batch([5, 4, 6, 7])).x_emb.data
        # swapping two source tokens swaps exactly those rows
        np.testing.assert_array_equal(a[0, 0], b[0, 1])
        np.testing.assert_array_equal(a[0, 1], b[0, 0])
        np.testing.assert_array_equal(a[0, 2:], b[0, 2:])

    def test_first_layer_mixes_positions(self):
        model = Seq2Seq(tiny_config(n_enc_layers=1), seed=3)
        out = model.encode(src_batch([4, 5, 6]))
        assert not np.allclose(out.layers[1].data, out.layers[0].data)

    def test_layer_zero_is_embeddings_plus_positions(self):
        model = Seq2Seq(tiny_config(), seed=0)
        ids = src_batch([4, 5, 6])
        out = model.encode(ids)
        expected = out.x_emb.data + sinusoid_positions(16, 8)[None, :3]
        np.testing.assert_allclose(out.layers[0].data, expected, atol=1e-12)

    def test_length_validation(self):
        model = Seq2Seq(tiny_config(max_len=4), seed=0)
        with pytest.raises(SequenceLengthError):
            model.encode(src_batch([4, 5, 6, 7, 8]))
        with pytest.raises(SequenceLengthError):
            model.encode(np.zeros((1, 0), dtype=np.int64))
        with pytest.raises(SequenceLengthError):
            model.encode(src_batch([0, 0, 0]))  # all-pad row forbidden


def weights_of(q, k, n_heads, mask=None):
    """The attention weights `T.attention(q, k, ., mask, n_heads)` applies."""
    k_t = T.split_heads(k.data, n_heads).transpose(0, 1, 3, 2)
    return T.attention_weights(T.split_heads(q.data, n_heads), k_t, mask)


class TestAttentionCore:
    def test_single_position_returns_value(self):
        q = Tensor(Rng(0).normal(0, 1, (1, 3, 4)))
        k = Tensor(Rng(1).normal(0, 1, (1, 1, 4)))
        v = Tensor(Rng(2).normal(0, 1, (1, 1, 4)))
        out = T.attention(q, k, v, n_heads=1)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=1), atol=1e-12)

    def test_identical_keys_give_uniform_weights(self):
        q = Tensor(Rng(0).normal(0, 1, (1, 2, 4)))
        k = Tensor(np.ones((1, 3, 4)))
        v = Tensor(Rng(2).normal(0, 1, (1, 3, 4)))
        out = T.attention(q, k, v, n_heads=2)
        np.testing.assert_allclose(weights_of(q, k, 2), 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(out.data, np.repeat(v.data.mean(axis=1, keepdims=True), 2, axis=1),
                                   atol=1e-12)

    def test_known_logit_gap(self):
        # single head, d=1: logits are q*k directly, gap ln 3 -> [0.75, 0.25]
        gap = np.log(3.0)
        q = Tensor(np.array([[[1.0]]]))
        k = Tensor(np.array([[[gap], [0.0]]]))
        v = Tensor(np.array([[[2.0], [-4.0]]]))
        out = T.attention(q, k, v, n_heads=1)
        np.testing.assert_allclose(weights_of(q, k, 1).reshape(2), [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(out.data, [[[0.75 * 2.0 + 0.25 * -4.0]]], atol=1e-12)

    def test_masked_positions_get_zero_weight(self):
        rng = Rng(5)
        q = Tensor(rng.normal(0, 1, (1, 2, 4)))
        k = Tensor(rng.normal(0, 1, (1, 3, 4)))
        mask = padding_mask(np.array([[5, 5, 0]]), pad_id=0)
        weights = weights_of(q, k, 2, mask)
        assert np.all(weights[..., 2] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_uniform_cross_attention_returns_mean_value(self):
        # zeroing the query projection forces uniform weights; each output row
        # must equal the output-projected mean of the value projections
        rng = Rng(7)
        layer = MultiHeadAttentionLayer("t", 8, 2, rng)
        layer.wq.w.data[:] = 0.0
        src = Tensor(rng.normal(0, 1, (1, 5, 8)))
        tgt = Tensor(rng.normal(0, 1, (1, 3, 8)))
        out = layer(tgt, src, src)
        v_proj = src.data @ layer.wv.w.data + layer.wv.b.data
        expected = v_proj.mean(axis=1) @ layer.wo.w.data + layer.wo.b.data
        for j in range(3):
            np.testing.assert_allclose(out.data[0, j], expected[0], atol=1e-10)


class TestDecode:
    def test_causality_by_perturbation(self):
        model = Seq2Seq(tiny_config(), seed=2)
        out = model.encode(src_batch([4, 5, 6, 7]))
        tgt = np.array([[BOS_ID, 5, 6, 7]])
        logits_a = model.decode(tgt, out)["logits"].data.copy()
        tgt_b = tgt.copy()
        tgt_b[0, -1] = 9  # change the final token only
        logits_b = model.decode(tgt_b, out)["logits"].data
        np.testing.assert_array_equal(logits_a[:, :-1], logits_b[:, :-1])
        assert not np.array_equal(logits_a[:, -1], logits_b[:, -1])

    def test_single_layer_single_position_shape(self):
        model = Seq2Seq(tiny_config(n_dec_layers=1), seed=0)
        out = model.encode(src_batch([4, 5]))
        logits = model.decode(np.array([[BOS_ID]]), out)["logits"]
        assert logits.shape == (1, 1, 12)

    def test_prefix_must_start_with_bos(self):
        model = Seq2Seq(tiny_config(), seed=0)
        out = model.encode(src_batch([4, 5]))
        with pytest.raises(InvalidParameterError):
            model.decode(np.array([[5, 6]]), out)
        with pytest.raises(SequenceLengthError):
            model.decode(np.zeros((1, 0), dtype=np.int64), out)

    def test_last_only_matches_full(self):
        model = Seq2Seq(tiny_config(), seed=4)
        out = model.encode(src_batch([4, 5, 6]))
        tgt = np.array([[BOS_ID, 7, 8]])
        full = model.decode(tgt, out)["logits"].data
        last = model.decode(tgt, out, last_only=True)["logits"].data
        # matmul of a sliced row reassociates differently than slicing after
        np.testing.assert_allclose(full[:, -1:], last, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", FUSION_MODES)
    def test_prefix_rows_share_one_encoding(self, mode, dtype):
        """Beam search scores its n live prefixes as one (n, t) batch against
        a batch-1 encoding; each row must equal that prefix scored alone."""
        model = Seq2Seq(tiny_config(dtype=dtype), FusionConfig(mode=mode), seed=3)
        rng = np.random.default_rng(0)
        with no_grad():
            out = model.encode(src_batch([4, 5, 6, 7, 8]))
            for t in (1, 3, 6):
                prefixes = np.concatenate([np.full((4, 1), BOS_ID), rng.integers(4, 12, (4, t - 1))],
                                          axis=1)
                for last_only in (False, True):
                    stacked = model.position_scores(out, prefixes, last_only=last_only)["score"].data
                    for i in range(len(prefixes)):
                        alone = model.position_scores(out, prefixes[i:i + 1], last_only=last_only)
                        assert np.array_equal(stacked[i], alone["score"].data[0]), (t, last_only, i)


class TestTiedEmbeddings:
    def test_shared_storage(self):
        model = Seq2Seq(tiny_config(tie_embeddings=True), seed=0)
        assert model.out_weight is model.src_embed
        assert model.tgt_embed is model.src_embed
        before = model.encode(src_batch([4, 5])).x_emb.data.copy()
        model.out_weight.data[4, :] += 1.0  # mutate through the projection view
        after = model.encode(src_batch([4, 5])).x_emb.data
        assert not np.array_equal(before, after)

    def test_untied_are_separate(self):
        model = Seq2Seq(tiny_config(tie_embeddings=False), seed=0)
        assert model.out_weight is not model.src_embed
        assert model.tgt_embed is not model.src_embed
        names = [n for n, _ in model.named_parameters()]
        assert "tgt_embed" in names and "out_weight" in names

    def test_tied_requires_joint_vocab(self):
        with pytest.raises(ConfigError):
            Seq2Seq(tiny_config(vocab_src=12, vocab_tgt=13, tie_embeddings=True), seed=0)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(d_model=10, n_heads=3),
        dict(n_enc_layers=0),
        dict(n_dec_layers=0),
        dict(vocab_src=3, vocab_tgt=3),
        dict(dropout=1.0),
        dict(max_len=0),
        dict(dtype="float16"),
    ])
    def test_bad_configs(self, kw):
        with pytest.raises(ConfigError):
            tiny_config(**kw).validate()


class TestDeterminismAndCheckpoint:
    def test_same_seed_same_forward(self):
        ids = src_batch([4, 5, 6])
        a = Seq2Seq(tiny_config(), seed=11).encode(ids).layers[-1].data
        b = Seq2Seq(tiny_config(), seed=11).encode(ids).layers[-1].data
        np.testing.assert_array_equal(a, b)

    def test_checkpoint_round_trip_bits(self, tmp_path):
        model = Seq2Seq(tiny_config(), seed=5)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, dict(model.named_parameters()))
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_restores_forward_exactly(self, tmp_path):
        ids = src_batch([4, 5, 6])
        model = Seq2Seq(tiny_config(), seed=5)
        ref = model.encode(ids).layers[-1].data.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, dict(model.named_parameters()))
        other = Seq2Seq(tiny_config(), seed=99)
        from surfacefuse.training import load_model_params
        load_model_params(other, load_checkpoint(path))
        np.testing.assert_array_equal(other.encode(ids).layers[-1].data, ref)

    def test_rank_zero_record(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"scalar": np.asarray(3.5)})
        loaded = load_checkpoint(path)["scalar"]
        assert loaded.shape == ()
        assert float(loaded) == 3.5


class TestMasks:
    def test_causal_mask_shape_and_content(self):
        m = causal_mask(3)
        assert m.shape == (1, 1, 3, 3)
        assert m[0, 0, 0, 1] < -1e8 and m[0, 0, 1, 0] == 0.0

    def test_sinusoid_positions_deterministic(self):
        np.testing.assert_array_equal(sinusoid_positions(10, 8), sinusoid_positions(10, 8))
        assert sinusoid_positions(10, 8).shape == (10, 8)
