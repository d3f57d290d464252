import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfacefuse.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    BatchStream,
    CipherTask,
    Vocabulary,
    content_token,
    encode_pairs,
    gen_copy,
    gen_cipher,
    load_parallel_text,
    make_batch,
    make_cipher_task,
    save_pairs,
    token_batches,
    vocab_for_task,
)
from surfacefuse.errors import DataError, InvalidParameterError
from surfacefuse.model import PAD_ID as MODEL_PAD_ID
from surfacefuse.tensor import Rng, Tensor
import surfacefuse.tensor as T


class TestVocabulary:
    def test_reserved_ids_fixed(self):
        v = vocab_for_task(5)
        assert v.tokens[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert (PAD_ID, BOS_ID, EOS_ID) == (0, 1, 2)
        assert MODEL_PAD_ID == PAD_ID

    def test_encode_decode_round_trip(self):
        v = vocab_for_task(5)
        tokens = [content_token(i) for i in (0, 3, 2)]
        assert v.decode(v.encode(tokens)) == tokens

    def test_unknown_maps_to_unk(self):
        v = vocab_for_task(3)
        assert v.encode(["zebra"]) == [3]

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(["<pad>", "<bos>", "<eos>", "<unk>", "a", "a"])


class TestCopyTask:
    def test_target_equals_source(self):
        pairs = gen_copy(20, (3, 6), 10, Rng(0))
        for src, tgt in pairs:
            assert src == tgt

    def test_fixed_length_range(self):
        pairs = gen_copy(30, (3, 3), 10, Rng(1))
        assert all(len(s) == 3 for s, _ in pairs)

    def test_seeded_determinism(self):
        a = gen_copy(15, (2, 7), 12, Rng(42))
        b = gen_copy(15, (2, 7), 12, Rng(42))
        assert a == b

    def test_bad_length_range(self):
        with pytest.raises(InvalidParameterError):
            gen_copy(5, (0, 3), 10, Rng(0))


class TestCipherTask:
    def test_identity_permutation_is_copy(self):
        task = CipherTask(20, np.arange(20), shared_fraction=1.0)
        pairs = gen_cipher(task, 10, (3, 5), Rng(2))
        for src, tgt in pairs:
            assert src == tgt

    def test_full_derangement_has_no_shared_pairs(self):
        task = make_cipher_task(24, 0.0, Rng(3))
        assert all(task.permutation[i] != i for i in range(24))
        non_shared = [(s, t) for s, t in task.alignment if s != t]
        assert len(non_shared) == 24

    def test_shared_fraction_exact_fixed_points(self):
        task = make_cipher_task(40, 0.25, Rng(4))
        fixed = sum(int(task.permutation[i]) == i for i in range(40))
        assert fixed == 10

    def test_targets_follow_permutation(self):
        task = make_cipher_task(20, 0.5, Rng(5))
        pairs = gen_cipher(task, 10, (4, 6), Rng(6))
        lookup = dict(task.alignment)
        for src, tgt in pairs:
            assert tgt == [lookup[t] for t in src]

    def test_inverse_recovers_source(self):
        task = make_cipher_task(30, 0.2, Rng(7))
        pairs = gen_cipher(task, 25, (3, 8), Rng(8))
        inverse = {t: s for s, t in task.alignment}
        for src, tgt in pairs:
            assert [inverse[t] for t in tgt] == src

    def test_reorder_keeps_token_multiset(self):
        task = make_cipher_task(20, 0.0, Rng(9), reorder=True)
        pairs = gen_cipher(task, 25, (4, 9), Rng(10))
        lookup = dict(task.alignment)
        for src, tgt in pairs:
            assert sorted(tgt) == sorted(lookup[t] for t in src)

    def test_skewed_frequencies(self):
        task = make_cipher_task(50, 0.0, Rng(11))
        pairs = gen_cipher(task, 400, (6, 10), Rng(12), skew=1.5)
        counts = np.zeros(50)
        lookup = dict(task.alignment)
        for src, tgt in pairs:
            assert tgt == [lookup[t] for t in src]  # alignment unaffected by skew
            for tok in src:
                counts[int(tok[1:])] += 1
        assert counts[0] > 10 * max(counts[40:].max(), 1)  # heavy head, thin tail

    def test_bad_shared_fraction(self):
        with pytest.raises(InvalidParameterError):
            make_cipher_task(30, 1.5, Rng(0))

    def test_needs_enough_tokens(self):
        with pytest.raises(InvalidParameterError):
            make_cipher_task(10, 0.0, Rng(0))

    def test_non_bijection_rejected(self):
        with pytest.raises(DataError):
            CipherTask(5, np.array([0, 0, 1, 2, 3]), 0.0)


class TestParallelText:
    def test_round_trip(self, tmp_path):
        pairs = [(["the", "cat"], ["le", "chat"]), (["a", "dog"], ["un", "chien"])]
        save_pairs(pairs, tmp_path / "x.src", tmp_path / "x.tgt")
        loaded, vocab, vocab2 = load_parallel_text(tmp_path / "x.src", tmp_path / "x.tgt")
        assert vocab is vocab2
        assert loaded == pairs
        for src, tgt in loaded:
            assert vocab.decode(vocab.encode(src)) == src

    def test_frequency_cutoff_maps_to_unk(self, tmp_path):
        pairs = [(["aa", "aa", "rare"], ["aa", "aa", "rare"])]
        save_pairs(pairs, tmp_path / "y.src", tmp_path / "y.tgt")
        _, vocab, _ = load_parallel_text(tmp_path / "y.src", tmp_path / "y.tgt", min_freq=3)
        assert vocab.encode(["rare"]) == [3]
        assert vocab.encode(["aa"]) != [3]

    def test_vocab_size_counts_kept_plus_reserved(self, tmp_path):
        pairs = [(["a", "b", "c"], ["d", "e"])]
        save_pairs(pairs, tmp_path / "z.src", tmp_path / "z.tgt")
        _, vocab, _ = load_parallel_text(tmp_path / "z.src", tmp_path / "z.tgt")
        distinct = {"a", "b", "c", "d", "e"}
        assert len(vocab) == len(distinct) + 4

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "a.src").write_text("x y\nz w\n")
        (tmp_path / "a.tgt").write_text("x y\n")
        with pytest.raises(DataError):
            load_parallel_text(tmp_path / "a.src", tmp_path / "a.tgt")

    def test_empty_file(self, tmp_path):
        (tmp_path / "e.src").write_text("")
        (tmp_path / "e.tgt").write_text("")
        with pytest.raises(DataError):
            load_parallel_text(tmp_path / "e.src", tmp_path / "e.tgt")


class TestBatching:
    def test_shift_and_padding_layout(self):
        batch = make_batch([([4, 5, 6], [7, 8]), ([9], [10, 11, 12])])
        np.testing.assert_array_equal(batch.tgt_in[:, 0], [BOS_ID, BOS_ID])
        np.testing.assert_array_equal(batch.tgt_in[0], [BOS_ID, 7, 8, PAD_ID])
        np.testing.assert_array_equal(batch.tgt_out[0], [7, 8, EOS_ID, PAD_ID])
        np.testing.assert_array_equal(batch.tgt_out[1], [10, 11, 12, EOS_ID])
        np.testing.assert_array_equal(batch.src[1], [9, PAD_ID, PAD_ID])

    def test_token_budget_respected(self):
        ids = [([4] * 5, [4] * 5)] * 20
        batches = token_batches(ids, max_tokens=24)
        for b in batches:
            assert b.src.shape[0] * max(b.src.shape[1], b.tgt_in.shape[1]) <= 24
        assert sum(b.src.shape[0] for b in batches) == 20

    def test_shuffle_is_seeded(self):
        ids = [([i + 4], [i + 4]) for i in range(30)]
        a = token_batches(ids, 16, Rng(3))
        b = token_batches(ids, 16, Rng(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.src, y.src)

    def test_pad_never_reaches_loss(self):
        # end to end: a batch with padding yields the same loss as the same
        # sequences evaluated without padding rows
        batch = make_batch([([4, 5, 6], [4, 5, 6]), ([7], [7])])
        rng = Rng(0)
        vocab = 12
        table = Tensor(rng.normal(0, 1, (vocab, 4)), requires_grad=True)
        logits = T.embedding(table, batch.tgt_out) @ Tensor(rng.normal(0, 1, (4, vocab)))
        lp = T.log_softmax(logits)
        loss = T.cross_entropy(lp, batch.tgt_out, PAD_ID)
        mask = batch.tgt_out != PAD_ID
        manual = -(lp.data[np.arange(2)[:, None], np.arange(4)[None, :], batch.tgt_out] * mask).sum() / mask.sum()
        assert abs(loss.item() - manual) < 1e-12
        loss.backward()
        np.testing.assert_array_equal(table.grad[PAD_ID], np.zeros(4))

    def test_stream_fast_forward_matches(self):
        ids = [([i % 7 + 4] * (i % 3 + 1), [i % 7 + 4] * (i % 3 + 1)) for i in range(40)]
        stream = BatchStream(ids, max_tokens=16, seed=5)
        direct = []
        for step, batch in stream.from_step(0):
            direct.append((step, batch.src.copy()))
            if step >= 9:
                break
        resumed = []
        for step, batch in stream.from_step(6):
            resumed.append((step, batch.src.copy()))
            if step >= 9:
                break
        tail = {s: b for s, b in direct if s >= 6}
        for step, src in resumed:
            np.testing.assert_array_equal(src, tail[step])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
def test_cipher_generation_properties(seed):
    rng = Rng(seed)
    frac = float(rng.spawn("f").random())
    task = make_cipher_task(25, frac, rng.spawn("perm"))
    perm = task.permutation
    assert sorted(perm.tolist()) == list(range(25))
    shared = [(s, t) for s, t in task.alignment if s == t]
    fixed = sum(int(perm[i]) == i for i in range(25))
    assert len(shared) == fixed
