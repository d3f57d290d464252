"""Optimization loop, decoding, and desk-scale metrics.

Adam with an inverse-sqrt learning-rate schedule and label smoothing, CSV
metric logging, best-by-validation checkpointing, greedy and small-beam
decoding with simple length normalization, corpus BLEU, and mean output
length.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from .checkpoint import load_checkpoint, save_checkpoint
from .data import BOS_ID, EOS_ID
from .errors import ConfigError, InvalidParameterError, NumericError
from .model import Seq2Seq
from .tensor import no_grad


@dataclass
class TrainConfig:
    """Optimization hyperparameters."""

    steps: int = 2000
    max_tokens: int = 1024
    lr: float = 2e-3
    warmup: int = 400
    label_smoothing: float = 0.1
    seed: int = 0
    eval_interval: int = 200

    def validate(self) -> None:
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.warmup < 1:
            raise ConfigError("warmup must be >= 1")
        if not 0.0 <= self.label_smoothing <= 0.3:
            raise ConfigError(f"label smoothing must be in [0, 0.3], got {self.label_smoothing}")
        if self.max_tokens < 2:
            raise ConfigError("max_tokens must be >= 2")
        if self.eval_interval < 1:
            raise ConfigError("eval_interval must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Inverse-sqrt schedule: linear warmup to cfg.lr, then 1/sqrt decay."""
    s = max(1, step)
    return cfg.lr * min(s / cfg.warmup, math.sqrt(cfg.warmup / s))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class Adam:
    """Standard Adam with bias correction over named parameters."""

    def __init__(self, named_params):
        self.named_params = list(named_params)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr: float) -> None:
        self.step_count += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()

    def state_tensors(self) -> dict:
        out = {"state.step": np.asarray(float(self.step_count))}
        for name, _ in self.named_params:
            out[f"state.m.{name}"] = self.m[name]
            out[f"state.v.{name}"] = self.v[name]
        return out

    def load_state(self, tensors: dict) -> None:
        self.step_count = int(tensors["state.step"])
        for name, p in self.named_params:
            self.m[name] = tensors[f"state.m.{name}"].astype(p.data.dtype).reshape(p.data.shape).copy()
            self.v[name] = tensors[f"state.v.{name}"].astype(p.data.dtype).reshape(p.data.shape).copy()


@dataclass
class TrainResult:
    step_losses: list[float] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    best_val_loss: float = math.inf
    final_val_loss: float = math.inf
    start_step: int = 0


def evaluate(model: Seq2Seq, batches) -> tuple[float, float]:
    """Teacher-forced mean loss (no smoothing) and token accuracy."""
    total_loss = 0.0
    total_tokens = 0
    total_correct = 0
    with no_grad():
        for batch in batches:
            loss, stats = model.loss_on_batch(batch, training=False, label_smoothing=0.0)
            total_loss += loss.item() * stats["ntokens"]
            total_tokens += stats["ntokens"]
            total_correct += stats["ncorrect"]
    if total_tokens == 0:
        raise InvalidParameterError("evaluation set is empty")
    return total_loss / total_tokens, total_correct / total_tokens


def train(model: Seq2Seq, train_ids, valid_ids, cfg: TrainConfig, out_dir=None,
          resume: bool = False) -> TrainResult:
    """Run cfg.steps optimizer updates; logs metrics and keeps checkpoints.

    Writes metrics.csv, best.ckpt (lowest validation loss, parameters only)
    and last.ckpt (parameters + optimizer and random-stream state) into
    out_dir when given. Aborts with the offending step on a non-finite loss.
    """
    cfg.validate()
    if not train_ids:
        raise ConfigError("training dataset is empty")
    stream = D.BatchStream(train_ids, cfg.max_tokens, cfg.seed)
    valid_batches = D.token_batches(valid_ids, cfg.max_tokens) if valid_ids else []
    opt = Adam(model.named_parameters())
    result = TrainResult()

    start_step = 0
    if resume:
        if out_dir is None:
            raise ConfigError("resume needs an output directory")
        state = load_checkpoint(os.path.join(out_dir, "last.ckpt"))
        load_model_params(model, state)
        opt.load_state(state)
        model.load_rng_state(state)
        start_step = int(state["state.step"])
        result.start_step = start_step
        # checkpoints written before best_val was stored resume with inf
        result.best_val_loss = float(state.get("state.best_val", math.inf))

    csv_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_fh = open(os.path.join(out_dir, "metrics.csv"), "a" if resume else "w", encoding="utf-8")
        if not resume:
            csv_fh.write("step,loss,token_acc,val_loss\n")

    window: list[tuple[float, int, int]] = []  # (loss, ntokens, ncorrect) per step since the last row

    def end_window(step: int) -> None:
        """Validate, log the row for the window ending at `step`, keep best.ckpt."""
        val_loss = evaluate(model, valid_batches)[0] if valid_batches else math.nan
        mean_loss = sum(w[0] for w in window) / len(window) if window else math.nan
        ntokens = sum(w[1] for w in window)
        acc = sum(w[2] for w in window) / ntokens if ntokens else math.nan
        window.clear()
        result.rows.append({"step": step, "loss": mean_loss, "token_acc": acc, "val_loss": val_loss})
        if csv_fh is not None:
            csv_fh.write(f"{step},{mean_loss!r},{acc!r},{val_loss!r}\n")
            csv_fh.flush()
        if not math.isnan(val_loss):
            result.final_val_loss = val_loss
            if val_loss < result.best_val_loss:
                result.best_val_loss = val_loss
                if out_dir is not None:
                    _save_model(model, os.path.join(out_dir, "best.ckpt"))

    try:
        n_steps = max(0, cfg.steps - start_step)
        for step, batch in itertools.islice(stream.from_step(start_step), n_steps):
            opt.zero_grad()
            loss, stats = model.loss_on_batch(batch, training=True,
                                              label_smoothing=cfg.label_smoothing)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise NumericError(f"non-finite training loss at step {step + 1}")
            loss.backward()
            opt.step(lr_at(step + 1, cfg))
            result.step_losses.append(loss_val)
            window.append((loss_val, stats["ntokens"], stats["ncorrect"]))
            done = step + 1
            if done % cfg.eval_interval == 0 or done == cfg.steps:
                end_window(done)
        if n_steps == 0:
            end_window(start_step)  # nothing to train; still record the state
        if out_dir is not None:
            if math.isinf(result.best_val_loss):  # no validation loss was ever kept
                _save_model(model, os.path.join(out_dir, "best.ckpt"))
            _save_model(model, os.path.join(out_dir, "last.ckpt"), opt, result.best_val_loss)
    finally:
        if csv_fh is not None:
            csv_fh.close()
    return result


def _save_model(model: Seq2Seq, path, opt: Adam | None = None, best_val: float = math.inf) -> None:
    """Parameters only, or with `opt` the resumable state: Adam, the random
    streams and best_val."""
    tensors = {name: p for name, p in model.named_parameters()}
    if opt is not None:
        tensors.update(opt.state_tensors())
        tensors.update(model.rng_state_tensors())
        tensors["state.best_val"] = np.asarray(best_val)
    save_checkpoint(path, tensors)


def load_model_params(model: Seq2Seq, tensors: dict) -> None:
    """Copy checkpoint arrays into model parameters, validating shapes."""
    for name, p in model.named_parameters():
        if name not in tensors:
            raise ConfigError(f"checkpoint is missing parameter {name!r}; "
                              "was it trained with a different fusion mode?")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise ConfigError(f"checkpoint parameter {name!r} has shape {arr.shape}, "
                              f"model expects {p.data.shape}")
        p.data = arr.astype(p.data.dtype).copy()


# ---------------------------------------------------------------------------
# decoding


def length_normalized_score(score: float, gen_len: int, alpha: float) -> float:
    """score / len**alpha; alpha=0 ranks by the raw sum of log-probs."""
    return score / (max(1, gen_len) ** alpha)


def greedy_decode(model: Seq2Seq, src_ids, max_len: int | None = None) -> list[int]:
    """Argmax decoding; returns generated ids without BOS/EOS."""
    return beam_decode(model, src_ids, beam_size=1, alpha=0.0, max_len=max_len)


def beam_decode(model: Seq2Seq, src_ids, beam_size: int = 4, alpha: float = 0.0,
                max_len: int | None = None) -> list[int]:
    """Beam search ranked by score / length**alpha.

    Length counts generated tokens including the EOS step; beam_size 1
    reproduces greedy decoding exactly (ties break toward the lower id).
    The live prefixes of a step share one length, so one decoder call
    scores them all as an (n, t) batch against the sentence's batch-1
    encoding.

    The search stops once no live prefix can still win. Every per-step
    score is <= 0 (a log-softmax, or a convex mix of two), so with
    alpha >= 0 a prefix with score s finishes at best at rank
    s / max_len**alpha. When the best finished hypothesis ranks at least
    that high for every live prefix, a later hypothesis can at most tie
    it, and `max` keeps the first of equal items: the result is the one a
    search run to max_len would return.
    """
    if beam_size < 1:
        raise InvalidParameterError("beam_size must be >= 1")
    longest = model.config.max_len - 1
    limit = max_len if max_len is not None else longest
    if not 1 <= limit <= longest:
        raise InvalidParameterError(f"max_len must be in [1, {longest}] for this model, got {limit}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidParameterError(f"alpha must be finite and >= 0, got {alpha}")

    def ranked(item):
        prefix, score = item
        # generated length excludes BOS but counts the EOS step
        return length_normalized_score(score, len(prefix) - 1, alpha)

    src = np.asarray(src_ids, dtype=np.int64)[None, :]
    with no_grad():
        outputs = model.encode(src, training=False)
        live = [([BOS_ID], 0.0)]
        finished: list[tuple[list[int], float]] = []
        best_rank = -math.inf  # of the finished hypotheses
        for _ in range(limit):
            prefixes = np.array([prefix for prefix, _ in live], dtype=np.int64)
            step_scores = model.position_scores(outputs, prefixes, last_only=True)["score"].data[:, -1]
            candidates = []
            for (prefix, score), token_scores in zip(live, step_scores):
                top = np.argsort(-token_scores, kind="stable")[:beam_size]
                for tok in top:
                    candidates.append((prefix + [int(tok)], score + float(token_scores[tok])))
            candidates.sort(key=lambda c: -c[1])
            live = []
            for prefix, score in candidates:
                if prefix[-1] == EOS_ID:
                    finished.append((prefix, score))
                    best_rank = max(best_rank, ranked((prefix, score)))
                elif len(live) < beam_size:
                    live.append((prefix, score))
                if len(live) >= beam_size and len(finished) >= beam_size:
                    break
            # live is sorted by score, so live[0] has the highest bound
            if not live or best_rank >= length_normalized_score(live[0][1], limit, alpha):
                break
        else:
            finished.extend(live)  # ran out of length without EOS

    best = max(finished, key=ranked)
    ids = best[0][1:]
    if ids and ids[-1] == EOS_ID:
        ids = ids[:-1]
    return ids


# ---------------------------------------------------------------------------
# metrics


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hyps, refs) -> float:
    """BLEU-4 in [0, 100]: clipped n-gram precision with brevity penalty,
    aggregated over the corpus, no smoothing."""
    if len(hyps) != len(refs):
        raise InvalidParameterError("hypothesis/reference counts differ")
    if not hyps:
        raise InvalidParameterError("empty corpus")
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h_counts = _ngrams(hyp, n)
            r_counts = _ngrams(ref, n)
            totals[n - 1] += max(0, len(hyp) - n + 1)
            matches[n - 1] += sum(min(c, r_counts[g]) for g, c in h_counts.items())
    if hyp_len == 0 or any(m == 0 for m in matches):
        return 0.0
    log_p = sum(0.25 * math.log(m / t) for m, t in zip(matches, totals))
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)


def avg_output_length(hyps) -> float:
    """Mean token count, not counting EOS markers."""
    if not hyps:
        raise InvalidParameterError("no outputs to average")
    lengths = []
    for hyp in hyps:
        lengths.append(sum(1 for t in hyp if t not in (EOS_ID, D.EOS)))
    return sum(lengths) / len(lengths)
