import gc
import math
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import surfacefuse.checkpoint as checkpoint
import surfacefuse.training as training
from surfacefuse.checkpoint import load_checkpoint, save_checkpoint
from surfacefuse.data import (
    BOS_ID,
    EOS_ID,
    encode_pairs,
    gen_copy,
    make_batch,
    token_batches,
    vocab_for_task,
)
from surfacefuse.errors import ConfigError, DataError, InvalidParameterError, NumericError
from surfacefuse.model import ModelConfig, Seq2Seq
from surfacefuse.surface import FUSION_MODES, FusionConfig
from surfacefuse.tensor import Rng, Tensor, no_grad
from surfacefuse.training import (
    Adam,
    TrainConfig,
    avg_output_length,
    beam_decode,
    corpus_bleu,
    evaluate,
    greedy_decode,
    length_normalized_score,
    lr_at,
    train,
)


def toy_dataset(n=260, vocab_size=10, seed=0):
    rng = Rng(seed).spawn("gen")
    pairs = gen_copy(n, (3, 6), vocab_size, rng)
    vocab = vocab_for_task(vocab_size)
    ids = encode_pairs(pairs, vocab)
    return ids[: n - 60], ids[n - 60: n - 30], ids[n - 30:], vocab


def toy_model(seed=0, fusion=None, **kw):
    base = dict(n_enc_layers=2, n_dec_layers=2, d_model=16, n_heads=2, d_ff=32,
                vocab_src=14, vocab_tgt=14, max_len=16)
    base.update(kw)
    return Seq2Seq(ModelConfig(**base), fusion or FusionConfig(), seed=seed)


class TestSchedule:
    def test_warmup_then_decay(self):
        cfg = TrainConfig(lr=1e-3, warmup=400)
        assert lr_at(1, cfg) == pytest.approx(1e-3 / 400)
        assert lr_at(400, cfg) == pytest.approx(1e-3)
        assert lr_at(1600, cfg) == pytest.approx(1e-3 * 0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(label_smoothing=0.4).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0).validate()


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)])
        p.grad = np.array([0.5, -1.5])
        opt.step(lr=0.01)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = np.array([1.0, -2.0]) - 0.01 * np.array([0.5, -1.5]) / (
            np.sqrt(np.array([0.25, 2.25])) + 1e-9)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_none_grad_is_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([("p", p)])
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, np.ones(3))


class TestTrainLoop:
    def test_initial_loss_near_log_vocab(self):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        loss, _ = evaluate(model, token_batches(valid_ids, 128))
        assert abs(loss - math.log(len(vocab))) < 0.2

    def test_loss_decreases(self):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg = TrainConfig(steps=150, max_tokens=128, eval_interval=50, warmup=50,
                          lr=2e-3, seed=3)
        result = train(model, train_ids, valid_ids, cfg, out_dir=None)
        assert result.rows[-1]["val_loss"] < result.rows[0]["val_loss"]

    def test_metrics_and_checkpoints_written(self, tmp_path):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg = TrainConfig(steps=40, max_tokens=128, eval_interval=20, warmup=10, seed=3)
        result = train(model, train_ids, valid_ids, cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,token_acc,val_loss"
        assert len(lines) == 1 + len(result.rows)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        assert result.best_val_loss <= result.final_val_loss

    def test_reproducible_runs(self, tmp_path):
        train_ids, valid_ids, _, vocab = toy_dataset()
        outs = []
        for sub in ("a", "b"):
            model = toy_model(seed=7, vocab_src=len(vocab), vocab_tgt=len(vocab))
            cfg = TrainConfig(steps=30, max_tokens=128, eval_interval=10, warmup=10, seed=9)
            train(model, train_ids, valid_ids, cfg, out_dir=str(tmp_path / sub))
            outs.append(sub)
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "last.ckpt").read_bytes() == (tmp_path / "b" / "last.ckpt").read_bytes()
        assert (tmp_path / "a" / "best.ckpt").read_bytes() == (tmp_path / "b" / "best.ckpt").read_bytes()

    def test_checkpoint_save_load_save_byte_identical(self, tmp_path):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg = TrainConfig(steps=10, max_tokens=128, eval_interval=5, warmup=5, seed=1)
        train(model, train_ids, valid_ids, cfg, out_dir=str(tmp_path))
        path = tmp_path / "last.ckpt"
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, load_checkpoint(path))
        assert path.read_bytes() == resaved.read_bytes()

    def test_truncated_checkpoint_is_data_error_at_every_cut(self, tmp_path):
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, {"a.scalar": np.array(2.5),
                               "b.matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
                               "c.vector": np.linspace(0.0, 1.0, 4)})
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(DataError, match="truncated checkpoint"):
                load_checkpoint(cut)
        assert set(load_checkpoint(path)) == {"a.scalar", "b.matrix", "c.vector"}

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, {"a": np.arange(4.0), "b": np.zeros(2)})
        before = path.read_bytes()
        pack, calls = struct.pack, []

        def failing_pack(fmt, *values):  # fails once the header and a record are written
            calls.append(fmt)
            if len(calls) > 4:
                raise OSError("disk full")
            return pack(fmt, *values)

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "struct", SimpleNamespace(pack=failing_pack))
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(path, {"a": np.ones(4), "b": np.ones(2)})
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_checkpoint(path)["a"], np.arange(4.0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]

    def test_resume_keeps_best_checkpoint_when_validation_worsens(self, tmp_path):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg = TrainConfig(steps=40, max_tokens=128, eval_interval=20, warmup=10, seed=2)
        first = train(model, train_ids, valid_ids, cfg, out_dir=str(tmp_path))
        best = (tmp_path / "best.ckpt").read_bytes()
        assert float(load_checkpoint(tmp_path / "last.ckpt")["state.best_val"]) == first.best_val_loss
        model2 = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        worse = TrainConfig(steps=60, max_tokens=128, eval_interval=20, warmup=1, lr=0.5, seed=2)
        resumed = train(model2, train_ids, valid_ids, worse, out_dir=str(tmp_path), resume=True)
        assert resumed.final_val_loss > first.best_val_loss
        assert resumed.best_val_loss == first.best_val_loss
        assert (tmp_path / "best.ckpt").read_bytes() == best

    def test_training_leaves_no_cyclic_garbage(self):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = Seq2Seq(ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=16, n_heads=2, d_ff=32,
                                    vocab_src=len(vocab), vocab_tgt=len(vocab), max_len=16),
                        FusionConfig(mode="surface-soft", tau=5.0), seed=0)
        cfg = TrainConfig(steps=3, max_tokens=128, eval_interval=3, warmup=2, seed=1)
        gc.collect()
        gc.disable()
        try:
            train(model, train_ids, valid_ids, cfg, out_dir=None)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(isinstance(obj, Tensor) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0

    def test_resume_continues_step_count(self, tmp_path):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg = TrainConfig(steps=20, max_tokens=128, eval_interval=10, warmup=10, seed=2)
        train(model, train_ids, valid_ids, cfg, out_dir=str(tmp_path))
        model2 = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg2 = TrainConfig(steps=40, max_tokens=128, eval_interval=10, warmup=10, seed=2)
        result = train(model2, train_ids, valid_ids, cfg2, out_dir=str(tmp_path), resume=True)
        assert result.start_step == 20
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == [10, 20, 30, 40]

    def test_nothing_to_train_logs_one_row_and_rewrites_last(self, tmp_path, monkeypatch):
        train_ids, valid_ids, _, vocab = toy_dataset()
        cfg = TrainConfig(steps=20, max_tokens=128, eval_interval=10, warmup=10, seed=2)
        first = train(toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab)), train_ids, valid_ids,
                      cfg, out_dir=str(tmp_path))
        before = {name: (tmp_path / name).read_bytes()
                  for name in ("metrics.csv", "best.ckpt", "last.ckpt")}
        saved = []
        save = training.save_checkpoint
        monkeypatch.setattr(training, "save_checkpoint",
                            lambda path, tensors: (saved.append(os.path.basename(path)),
                                                   save(path, tensors)))
        resumed = train(toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab)), train_ids,
                        valid_ids, cfg, out_dir=str(tmp_path), resume=True)
        # the same parameters validate to the same loss, which does not improve on the best
        assert resumed.step_losses == [] and first.final_val_loss >= first.best_val_loss
        assert (tmp_path / "metrics.csv").read_bytes() == (
            before["metrics.csv"] + f"20,nan,nan,{first.final_val_loss!r}\n".encode())
        assert saved == ["last.ckpt"]
        assert (tmp_path / "best.ckpt").read_bytes() == before["best.ckpt"]
        assert (tmp_path / "last.ckpt").read_bytes() == before["last.ckpt"]
        assert resumed.best_val_loss == first.best_val_loss
        assert resumed.final_val_loss == first.final_val_loss

    def test_no_validation_set_still_writes_both_checkpoints(self, tmp_path):
        train_ids, _, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        cfg = TrainConfig(steps=20, max_tokens=128, eval_interval=10, warmup=10, seed=2)
        result = train(model, train_ids, [], cfg, out_dir=str(tmp_path))
        assert [row["step"] for row in result.rows] == [10, 20]
        assert all(math.isnan(row["val_loss"]) for row in result.rows)
        assert result.best_val_loss == math.inf and result.final_val_loss == math.inf
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["nan", "nan"]
        best = load_checkpoint(tmp_path / "best.ckpt")
        last = load_checkpoint(tmp_path / "last.ckpt")
        names = [name for name, _ in model.named_parameters()]
        assert sorted(best) == sorted(names)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(best[name], p.data)
            np.testing.assert_array_equal(last[name], p.data)
        assert float(last["state.best_val"]) == math.inf

    @pytest.mark.parametrize("fusion", [FusionConfig(), FusionConfig(mode="fine", dropconnect=0.3)],
                             ids=["none", "fine"])
    def test_resume_equals_uninterrupted_run(self, tmp_path, fusion):
        train_ids, valid_ids, _, vocab = toy_dataset()

        def run(out_dir, steps, resume=False):
            model = toy_model(fusion=fusion, dropout=0.1, vocab_src=len(vocab), vocab_tgt=len(vocab))
            cfg = TrainConfig(steps=steps, max_tokens=128, eval_interval=10, warmup=10, seed=2)
            train(model, train_ids, valid_ids, cfg, out_dir=str(out_dir), resume=resume)

        run(tmp_path / "straight", 40)
        run(tmp_path / "resumed", 20)
        run(tmp_path / "resumed", 40, resume=True)
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            assert (tmp_path / "straight" / name).read_bytes() == \
                (tmp_path / "resumed" / name).read_bytes(), name

    def test_resume_without_stream_states_and_with_malformed_ones(self, tmp_path):
        train_ids, valid_ids, _, vocab = toy_dataset()
        last = tmp_path / "last.ckpt"

        def run(steps, resume):
            cfg = TrainConfig(steps=steps, max_tokens=128, eval_interval=10, warmup=10, seed=2)
            return train(toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab)), train_ids,
                         valid_ids, cfg, out_dir=str(tmp_path), resume=resume)

        run(10, resume=False)
        state = load_checkpoint(last)
        assert "state.rng.drop:enc0.attn" in state
        # a checkpoint from before the stream states were saved: the streams start afresh
        save_checkpoint(last, {k: v for k, v in state.items() if not k.startswith("state.rng.")})
        assert run(20, resume=True).start_step == 10
        state = load_checkpoint(last)
        state["state.rng.drop:enc0.attn"] = np.full(10, 0.5)
        save_checkpoint(last, state)
        with pytest.raises(DataError, match="stream state"):
            run(30, resume=True)

    def test_nonfinite_loss_aborts_with_step(self):
        train_ids, valid_ids, _, vocab = toy_dataset()
        model = toy_model(vocab_src=len(vocab), vocab_tgt=len(vocab))
        model.loss_on_batch = lambda *a, **k: (Tensor(np.inf), {"ntokens": 1, "ncorrect": 0})
        cfg = TrainConfig(steps=5, max_tokens=128, eval_interval=5, warmup=5, seed=1)
        with pytest.raises(NumericError, match="step 1"):
            train(model, train_ids, valid_ids, cfg, out_dir=None)

    def test_empty_dataset_rejected(self):
        model = toy_model()
        with pytest.raises(ConfigError):
            train(model, [], [], TrainConfig(steps=5), out_dir=None)


@pytest.fixture(scope="module")
def trained_copy_model():
    train_ids, valid_ids, test_ids, vocab = toy_dataset(n=400, seed=5)
    model = toy_model(seed=4, d_model=32, d_ff=64, vocab_src=len(vocab), vocab_tgt=len(vocab))
    cfg = TrainConfig(steps=250, max_tokens=256, eval_interval=125, warmup=60, lr=2e-3, seed=6)
    train(model, train_ids, valid_ids, cfg, out_dir=None)
    return model, test_ids


class TestDecoding:
    def test_beam_one_equals_greedy(self, trained_copy_model):
        model, test_ids = trained_copy_model
        for src, _ in test_ids[:12]:
            assert greedy_decode(model, src) == beam_decode(model, src, beam_size=1)

    def test_beam_returns_eos_free_tokens(self, trained_copy_model):
        model, test_ids = trained_copy_model
        out = beam_decode(model, test_ids[0][0], beam_size=3, alpha=1.0)
        assert 2 not in out  # EOS stripped
        assert len(out) <= model.config.max_len

    def test_alpha_zero_is_pure_sum(self):
        assert length_normalized_score(-4.0, 8, alpha=0.0) == -4.0
        assert length_normalized_score(-4.0, 8, alpha=1.0) == -0.5

    def test_bad_beam_size(self, trained_copy_model):
        model, test_ids = trained_copy_model
        with pytest.raises(InvalidParameterError):
            beam_decode(model, test_ids[0][0], beam_size=0)

    @pytest.mark.parametrize("max_len", [0, -3, 16, 20])
    def test_max_len_outside_model_range_rejected(self, max_len):
        model = toy_model()  # config max_len 16: at most 15 generated tokens
        with pytest.raises(InvalidParameterError, match="max_len"):
            beam_decode(model, [4, 5, 6], beam_size=2, max_len=max_len)

    @pytest.mark.parametrize("max_len", [1, 15])
    def test_max_len_range_ends_accepted(self, max_len):
        out = beam_decode(toy_model(), [4, 5, 6], beam_size=2, max_len=max_len)
        assert len(out) <= max_len

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_or_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha"):
            beam_decode(toy_model(), [4, 5, 6], beam_size=2, alpha=alpha)

    def test_one_scoring_call_per_step_and_early_stop(self, trained_copy_model, monkeypatch):
        model, test_ids = trained_copy_model
        lengths = []
        position_scores = Seq2Seq.position_scores

        def counting(self, outputs, tgt_in_ids, **kwargs):
            lengths.append(np.shape(tgt_in_ids)[1])
            return position_scores(self, outputs, tgt_in_ids, **kwargs)

        monkeypatch.setattr(Seq2Seq, "position_scores", counting)
        limit = model.config.max_len - 1
        for src, _ in test_ids[:6]:
            lengths.clear()
            beam_decode(model, src, beam_size=4, alpha=1.0)
            # one call per step, each scoring the whole beam at that step's length
            assert lengths == list(range(1, len(lengths) + 1))
            assert len(lengths) < limit


def reference_beam_decode(model, src_ids, beam_size, alpha):
    """The search before batching and early stopping, kept as the reference:
    one decoder call per live hypothesis per step, always run to max_len."""
    limit = model.config.max_len - 1
    src = np.asarray(src_ids, dtype=np.int64)[None, :]
    with no_grad():
        outputs = model.encode(src, training=False)
        live = [([BOS_ID], 0.0)]
        finished = []
        for _ in range(limit):
            candidates = []
            for prefix, score in live:
                decoded = model.position_scores(outputs, np.asarray(prefix, dtype=np.int64)[None, :],
                                                last_only=True)
                token_scores = decoded["score"].data[0, -1]
                top = np.argsort(-token_scores, kind="stable")[:beam_size]
                for tok in top:
                    candidates.append((prefix + [int(tok)], score + float(token_scores[tok])))
            candidates.sort(key=lambda c: -c[1])
            live = []
            for prefix, score in candidates:
                if prefix[-1] == EOS_ID:
                    finished.append((prefix, score))
                elif len(live) < beam_size:
                    live.append((prefix, score))
                if len(live) >= beam_size and len(finished) >= beam_size:
                    break
            if not live:
                break
        for prefix, score in live:
            finished.append((prefix, score))

    def ranked(item):
        prefix, score = item
        return length_normalized_score(score, len(prefix) - 1, alpha)

    ids = max(finished, key=ranked)[0][1:]
    if ids and ids[-1] == EOS_ID:
        ids = ids[:-1]
    return ids


class TestBeamMatchesReference:
    """The batched, early-stopping search returns the reference's hypotheses."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", FUSION_MODES)
    def test_untrained_models(self, mode, dtype):
        tau = 5.0 if mode == "surface-soft" else 1.0
        model = Seq2Seq(ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=8, n_heads=2, d_ff=16,
                                    vocab_src=12, vocab_tgt=12, max_len=10, dtype=dtype),
                        FusionConfig(mode=mode, tau=tau), seed=1)
        for src in ([4, 5, 6], [7, 11, 4, 9, 8, 5]):
            for beam in (1, 2, 4):
                for alpha in (0.0, 1.0):
                    assert (beam_decode(model, src, beam_size=beam, alpha=alpha)
                            == reference_beam_decode(model, src, beam, alpha)), (src, beam, alpha)

    def test_trained_model_where_the_stop_fires(self, trained_copy_model):
        model, test_ids = trained_copy_model
        for src, _ in test_ids[:10]:
            for beam in (1, 2, 4):
                for alpha in (0.0, 1.0):
                    assert (beam_decode(model, src, beam_size=beam, alpha=alpha)
                            == reference_beam_decode(model, src, beam, alpha)), (src, beam, alpha)


class TestCorpusBleu:
    def test_perfect_match(self):
        refs = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w", "v"]]
        assert corpus_bleu(refs, refs) == pytest.approx(100.0)

    def test_no_fourgram_matches_is_zero(self):
        hyps = [["a", "b", "c", "q", "e"]]
        refs = [["a", "b", "c", "d", "e"]]
        assert corpus_bleu(hyps, refs) == 0.0

    def test_hand_computed_example(self):
        hyp = ["a", "b", "c", "d", "e"]
        ref = ["a", "b", "c", "d", "f"]
        # n-gram precisions counted by hand: 4/5, 3/4, 2/3, 1/2; BP = 1
        expected = 100.0 * math.exp(
            0.25 * (math.log(4 / 5) + math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2)))
        assert corpus_bleu([hyp], [ref]) == pytest.approx(expected, abs=1e-9)

    def test_brevity_penalty(self):
        hyps = [["a", "b"]]
        refs = [["a", "b", "c", "d"]]
        # unigram 2/2, bigram 1/1; 3/4-grams impossible -> zero matches
        assert corpus_bleu(hyps, refs) == 0.0
        short_hyps = [["a", "b", "c", "d"]]
        long_refs = [["a", "b", "c", "d", "e"]]
        score = corpus_bleu(short_hyps, long_refs)
        assert 0 < score < 100.0

    def test_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            corpus_bleu([["a"]], [])
        with pytest.raises(InvalidParameterError):
            corpus_bleu([], [])


class TestAvgOutputLength:
    def test_simple_mean(self):
        assert avg_output_length([[4] * 2, [4] * 4, [4] * 6]) == 4.0

    def test_single_output(self):
        assert avg_output_length([[5, 6, 7]]) == 3.0

    def test_eos_stripped(self):
        # ids: one hyp carries a trailing EOS (id 2), one is clean
        hyps = [[4, 5, 2], [6, 7, 8]]
        assert avg_output_length(hyps) == pytest.approx((2 + 3) / 2)

    def test_empty_raises(self):
        with pytest.raises(InvalidParameterError):
            avg_output_length([])
