"""Vocabularies, batching, and synthetic tasks with exact ground truth.

The copy task reproduces its input; the cipher task maps every content
token through a fixed bijection, so true word alignments are known exactly
and downstream embedding analyses need no external aligner. Real parallel
text (one whitespace-tokenized sentence per line) can be loaded as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvalidParameterError
from .tensor import Rng

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3


@dataclass
class Vocabulary:
    """Ordered token list with the four reserved ids fixed at 0..3."""

    tokens: list[str]
    _ids: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if tuple(self.tokens[:4]) != RESERVED:
            raise DataError("vocabulary must start with the reserved tokens")
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise DataError("duplicate token in vocabulary")

    @classmethod
    def from_content(cls, content_tokens) -> "Vocabulary":
        return cls(list(RESERVED) + list(content_tokens))

    def __len__(self):
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        return [self._ids.get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]


def content_token(i: int) -> str:
    return f"t{i:02d}"


@dataclass
class CipherTask:
    """Token bijection with a controllable fraction of fixed points.

    `permutation` maps content-token index to content-token index; the fixed
    points are exactly the shared pairs, mirroring an aligned dictionary
    split into "all" vs "non-shared" entries.
    """

    vocab_size: int
    permutation: np.ndarray
    shared_fraction: float
    reorder: bool = False
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        perm = np.asarray(self.permutation)
        if sorted(perm.tolist()) != list(range(self.vocab_size)):
            raise DataError("cipher permutation must be a bijection over content tokens")
        self._lookup = dict(self.alignment)

    @property
    def alignment(self) -> list[tuple[str, str]]:
        return [(content_token(i), content_token(int(self.permutation[i])))
                for i in range(self.vocab_size)]

    def apply(self, tokens: list[str]) -> list[str]:
        return [self._lookup[t] for t in tokens]


def make_cipher_task(vocab_size: int, shared_fraction: float, rng: Rng,
                     reorder: bool = False) -> CipherTask:
    """Build a bijection with round(shared_fraction * vocab_size) fixed points."""
    if not 0.0 <= shared_fraction <= 1.0:
        raise InvalidParameterError(f"shared_fraction must be in [0, 1], got {shared_fraction}")
    if vocab_size < 20:
        raise InvalidParameterError("cipher needs at least 20 content tokens")
    n_shared = int(round(shared_fraction * vocab_size))
    if vocab_size - n_shared == 1:
        n_shared -= 1  # a single leftover token cannot be deranged
    order = rng.permutation(vocab_size)
    moved = order[n_shared:]
    perm = np.arange(vocab_size)
    if len(moved) > 1:
        perm[moved] = np.roll(moved, -1)  # cyclic shift: a derangement of `moved`
    return CipherTask(vocab_size, perm, shared_fraction, reorder)


def _token_distribution(vocab_size: int, skew: float) -> np.ndarray | None:
    """Zipf-like sampling weights: token i drawn with prob ~ (i+1)^-skew."""
    if skew == 0.0:
        return None
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    weights = ranks ** -skew
    return weights / weights.sum()


def _random_sequence(length: int, vocab_size: int, rng: Rng,
                     probs: np.ndarray | None = None) -> list[str]:
    if probs is None:
        ids = rng.integers(0, vocab_size, size=length)
    else:
        ids = rng.choice(vocab_size, size=length, p=probs)
    return [content_token(int(i)) for i in ids]


def gen_copy(n: int, len_range: tuple[int, int], vocab_size: int, rng: Rng,
             skew: float = 0.0):
    """n (source, target) pairs with target == source: a cipher whose
    permutation is the identity. skew works as in gen_cipher."""
    return gen_cipher(CipherTask(vocab_size, np.arange(vocab_size), 1.0), n, len_range, rng, skew)


def gen_cipher(task: CipherTask, n: int, len_range: tuple[int, int], rng: Rng,
               skew: float = 0.0):
    """n pairs with target = permutation(source), optionally adjacent-swapped.

    skew > 0 draws source tokens Zipf-like instead of uniformly, giving the
    corpus a natural-language-shaped frequency tail; the alignment stays
    exact either way.
    """
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise InvalidParameterError(f"bad length range {len_range}")
    probs = _token_distribution(task.vocab_size, skew)
    pairs = []
    for _ in range(n):
        length = int(rng.integers(lo, hi + 1))
        src = _random_sequence(length, task.vocab_size, rng, probs)
        tgt = task.apply(src)
        if task.reorder:
            for i in range(0, length - 1, 2):
                if rng.random() < 0.5:
                    tgt[i], tgt[i + 1] = tgt[i + 1], tgt[i]
        pairs.append((src, tgt))
    return pairs


def vocab_for_task(vocab_size: int) -> Vocabulary:
    return Vocabulary.from_content([content_token(i) for i in range(vocab_size)])


def _build_vocab(sequences, min_freq: int) -> Vocabulary:
    counts = Counter()
    for seq in sequences:
        counts.update(seq)
    kept = sorted((t for t, c in counts.items() if c >= min_freq and t not in RESERVED),
                  key=lambda t: (-counts[t], t))
    return Vocabulary.from_content(kept)


def load_pairs(src_path, tgt_path):
    """Read aligned line files of whitespace-separated tokens as (src, tgt) pairs."""
    def read(path):
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
        if not lines or all(not line.strip() for line in lines):
            raise DataError(f"empty dataset file: {path}")
        return [line.split() for line in lines]

    src_lines = read(src_path)
    tgt_lines = read(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line-count mismatch: {src_path} has {len(src_lines)}, {tgt_path} has {len(tgt_lines)}")
    return list(zip(src_lines, tgt_lines))


def load_parallel_text(src_path, tgt_path, min_freq: int = 1):
    """Read aligned line files; returns (pairs, src_vocab, tgt_vocab).

    Both vocabularies are one shared object built from the union of sides.
    Tokens below the frequency cutoff map to unk at encode time. Vocabulary
    order is deterministic: frequency descending, then lexicographic.
    """
    pairs = load_pairs(src_path, tgt_path)
    vocab = _build_vocab((side for pair in pairs for side in pair), min_freq)
    return pairs, vocab, vocab


def save_pairs(pairs, src_path, tgt_path) -> None:
    with open(src_path, "w", encoding="utf-8") as fs, open(tgt_path, "w", encoding="utf-8") as ft:
        for src, tgt in pairs:
            fs.write(" ".join(src) + "\n")
            ft.write(" ".join(tgt) + "\n")


@dataclass
class Batch:
    """Padded id matrices: tgt_in is the shifted-right target (BOS first),
    tgt_out the gold target ending in EOS before padding."""

    src: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray


def make_batch(id_pairs) -> Batch:
    """Pad a list of (src_ids, tgt_ids) into one Batch."""
    max_src = max(len(s) for s, _ in id_pairs)
    max_tgt = max(len(t) for _, t in id_pairs) + 1  # room for BOS/EOS shift
    b = len(id_pairs)
    src = np.full((b, max_src), PAD_ID, dtype=np.int64)
    tgt_in = np.full((b, max_tgt), PAD_ID, dtype=np.int64)
    tgt_out = np.full((b, max_tgt), PAD_ID, dtype=np.int64)
    for i, (s, t) in enumerate(id_pairs):
        src[i, :len(s)] = s
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1:len(t) + 1] = t
        tgt_out[i, :len(t)] = t
        tgt_out[i, len(t)] = EOS_ID
    return Batch(src, tgt_in, tgt_out)


def encode_pairs(pairs, vocab: Vocabulary):
    return [(vocab.encode(s), vocab.encode(t)) for s, t in pairs]


def token_batches(id_pairs, max_tokens: int, rng: Rng | None = None) -> list[Batch]:
    """Group sequences into batches capped by padded token count.

    The cap applies to batch_size * max(src_len, tgt_len + 1) so padding is
    counted; a deterministic shuffle happens when an rng is supplied.
    """
    if max_tokens < 2:
        raise InvalidParameterError("max_tokens too small to fit any sequence")
    order = list(range(len(id_pairs)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(id_pairs))]
    batches = []
    current: list = []
    width = 0
    for idx in order:
        s, t = id_pairs[idx]
        w = max(len(s), len(t) + 1)
        new_width = max(width, w)
        if current and (len(current) + 1) * new_width > max_tokens:
            batches.append(make_batch([id_pairs[i] for i in current]))
            current, width = [], 0
            new_width = w
        current.append(idx)
        width = new_width
    if current:
        batches.append(make_batch([id_pairs[i] for i in current]))
    return batches


class BatchStream:
    """Endless deterministic stream of training batches.

    Epoch e is shuffled by a stream derived from (seed, e); a consumer can
    fast-forward to any step by replaying epoch sizes, which keeps resumed
    runs on the same batch sequence.
    """

    def __init__(self, id_pairs, max_tokens: int, seed: int):
        self.id_pairs = id_pairs
        self.max_tokens = max_tokens
        self.seed = seed

    def epoch(self, e: int) -> list[Batch]:
        rng = Rng(self.seed).spawn(f"data:epoch{e}")
        return token_batches(self.id_pairs, self.max_tokens, rng)

    def from_step(self, step: int):
        """Yield (step_index, batch) starting at `step` (0-based)."""
        e = 0
        seen = 0
        while True:
            batches = self.epoch(e)
            for b in batches:
                if seen >= step:
                    yield seen, b
                seen += 1
            e += 1
