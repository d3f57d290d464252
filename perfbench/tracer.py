"""Span tracing for the benchmark's traced mode (`--trace 1`).

The tracer wraps the public calls of each surfacefuse module from outside
the library: nothing in `src/` knows it exists. Each wrapped call records
one span (name, parent, op id, start, end, Tensor objects created while it
was open). A span opened with no parent is a root and starts a new op; the
spans under it share its op id. Training steps have no single call to wrap,
so a `training.step` root opens at `Adam.zero_grad` and closes after
`Adam.step`.

Spans stay in memory until `write` dumps them as gzip JSON lines.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from surfacefuse import checkpoint, data, fusion, layers, model, surface, tensor, training

# (owner, attribute, span name); module functions are also replaced in every
# surfacefuse module that imported them by name
TARGETS = (
    (data.BatchStream, "epoch", "data.epoch"),
    (data, "token_batches", "data.token_batches"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (layers.MultiHeadAttentionLayer, "__call__", "layers.attention"),
    (layers.FeedForward, "__call__", "layers.ffn"),
    (layers.LayerNorm, "__call__", "layers.layer_norm"),
    (model.Seq2Seq, "loss_on_batch", "model.loss_on_batch"),
    (model.Seq2Seq, "encode", "model.encode"),
    (model.Seq2Seq, "decode", "model.decode"),
    (model.Seq2Seq, "position_scores", "model.position_scores"),
    (fusion, "decoder_sources", "fusion.decoder_sources"),
    (surface.SurfaceHead, "__call__", "surface.head"),
    (surface.SurfaceDecodeState, "__init__", "surface.state"),
    (surface.SurfaceDecodeState, "fused_scores", "surface.fused_scores"),
    (training.Adam, "zero_grad", "training.zero_grad"),
    (training.Adam, "step", "training.adam"),
    (training, "evaluate", "training.evaluate"),
    (training, "beam_decode", "training.beam_decode"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)

STEP = "training.step"
SENTENCE = "training.beam_decode"

# span fields
NAME, PARENT, OP, START, END, TENSORS, EXTRA = range(7)

# name -> unit of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = {
    "data.batch_s": "s/op",
    "data.pad_ratio": "share",
    "tensor.backward_ms_p50": "ms",
    "tensor.tensors_per_step": "count",
    "tensor.tensors_per_token": "count",
    "tensor.gc_s": "s/op",
    "tensor.gc_collections": "count/op",
    "layers.attention_s": "s/op",
    "layers.attention_calls": "count/op",
    "layers.ffn_s": "s/op",
    "layers.layer_norm_s": "s/op",
    "model.forward_ms_p50": "ms",
    "model.encode_s": "s/op",
    "model.decode_self_s": "s/op",
    "model.decode_calls_per_sentence": "count/op",
    "model.positions_per_token": "count",
    "fusion.sources_s": "s/op",
    "fusion.sources_calls_per_sentence": "count/op",
    "surface.head_s": "s/op",
    "surface.state_s": "s/op",
    "surface.fused_scores_s": "s/op",
    "training.adam_s": "s/op",
    "training.evaluate_s": "s/op",
    "training.beam_self_s": "s/op",
    "checkpoint.save_s": "s/op",
    "checkpoint.save_bytes": "bytes",
    "checkpoint.load_s": "s",
    "trace.root_coverage": "share",
    "trace.overhead": "share",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ops = 0
        self.tensor_count = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._step: int | None = None
        self.left_open: list[str] = []                 # names of spans open when tracing stopped
        self.epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        if self.stack:
            parent = self.stack[-1]
            op = self.spans[parent][OP]
        else:
            parent = -1
            self.ops += 1
            op = self.ops
        self.spans.append([name, parent, op, time.perf_counter(), 0.0, self.tensor_count, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if not self.stack or self.stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")
        self.stack.pop()
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[TENSORS] = self.tensor_count - span[TENSORS]

    def close_all(self) -> None:
        """Close spans left open by an exception."""
        while self.stack:
            self.close(self.stack[-1])
        self._step = None

    def _wrap(self, name: str, fn):
        tracer = self
        after = {
            "data.token_batches": _pad_counts,
            "model.decode": _positions,
            "checkpoint.save": _saved_bytes,
        }.get(name)

        begins_step, ends_step = name == "training.zero_grad", name == "training.adam"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if begins_step:
                tracer._begin_step()
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.spans[idx][EXTRA] = after(args, result)
            if ends_step:
                tracer._end_step()
            return result

        return traced

    def _begin_step(self) -> None:
        if self._step is not None:            # the previous step raised before Adam.step
            self.close_all()
        if not self.stack:
            self._step = self.open(STEP)

    def _end_step(self) -> None:
        if self._step is not None and self.stack and self.stack[-1] == self._step:
            self.close(self._step)
        self._step = None

    def _count_tensor(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            tracer.tensor_count += 1
            init(obj, *args, **kwargs)

        return counted

    def _gc_callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        saved = []
        modules = [m for n, m in sys.modules.items() if n.startswith("surfacefuse") and m]
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [m for m in modules if m is not owner and getattr(m, attr, None) is original]
            for holder in holders:
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        saved.append((tensor.Tensor, "__init__", tensor.Tensor.__init__))
        tensor.Tensor.__init__ = self._count_tensor(tensor.Tensor.__init__)
        gc.callbacks.append(self._gc_callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._gc_callback)
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)
            self.left_open = [self.spans[i][NAME] for i in self.stack]
            self.close_all()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def roots(self) -> list[list]:
        return [s for s in self.spans if s[PARENT] < 0]

    def check(self, measured_wall_s: float, op_s: list[float]) -> tuple[float, list[str]]:
        """Root coverage of the measured wall time, and what is wrong with the trace.

        `op_s` holds the times the workload took of its steps or sentences
        with its own clock, in order. Each needs exactly one op root span
        (`training.step` or `training.beam_decode`), which runs inside that
        clock: no longer than the op, and shorter only by the wrappers
        between them.
        """
        problems = []
        if self.left_open:
            problems.append(f"trace: {len(self.left_open)} spans were still open at the end "
                            f"({', '.join(self.left_open[:3])})")
        roots = self.roots()
        root_s = sum(s[END] - s[START] for s in roots)
        coverage = root_s / measured_wall_s if measured_wall_s > 0 else 0.0
        if coverage < 0.9:
            problems.append(f"trace: root spans cover {coverage:.1%} of the measured time (< 90%)")
        op_roots = [s[END] - s[START] for s in roots if s[NAME] in (STEP, SENTENCE)]
        if len(op_roots) != len(op_s):
            problems.append(f"trace: {len(op_roots)} op spans for {len(op_s)} measured ops")
        elif any(span > clock for span, clock in zip(op_roots, op_s)):
            problems.append("trace: an op span lasts longer than the op did by its own clock")
        elif sum(op_s) - sum(op_roots) > 0.05 * sum(op_s):
            problems.append(f"trace: op spans miss {1 - sum(op_roots) / sum(op_s):.1%} of the "
                            f"measured op time (> 5%)")
        return coverage, problems

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, self seconds, share of all root time) by span name."""
        calls, selfs = Counter(), defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            calls[s[NAME]] += 1
            selfs[s[NAME]] += t
        total = sum(selfs.values()) or 1.0
        return sorted(((n, calls[n], selfs[n], selfs[n] / total) for n in calls),
                      key=lambda row: -row[2])

    def layer_metrics(self, generated_tokens: int, load_s: list[float],
                      coverage: float, overhead: float) -> dict:
        """Every LAYER_METRICS value; 0 where a layer does no work on this workload.

        `_s` metrics are seconds per op: per training step on train-soft and
        per sentence on decode-*. They are self times (child spans excluded),
        except the composite calls model.encode, surface.head,
        training.evaluate and checkpoint.save, which are inclusive.
        """
        spans = self.spans
        selfs = self.self_times()
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter()
        for s, t in zip(spans, selfs):
            self_s[s[NAME]] += t
            incl_s[s[NAME]] += s[END] - s[START]
            calls[s[NAME]] += 1
        steps = [s for s in spans if s[PARENT] < 0 and s[NAME] == STEP]
        sentences = {s[OP] for s in spans if s[PARENT] < 0 and s[NAME] == SENTENCE}
        ops = max(1, len(steps) + len(sentences))
        per_op = lambda v: v / ops  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        step_idx = {i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == STEP}

        def durations_ms(name, parents=None):
            return [1e3 * (s[END] - s[START]) for s in spans
                    if s[NAME] == name and (parents is None or s[PARENT] in parents)]

        def median(values):
            return statistics.median(values) if values else 0.0

        pads = [s[EXTRA] for s in spans if s[NAME] == "data.token_batches"]
        positions = sum(s[EXTRA] for s in spans if s[NAME] == "model.decode" and s[OP] in sentences)
        saves = [s[EXTRA] for s in spans if s[NAME] == "checkpoint.save"]
        values = {
            "data.batch_s": per_op(self_s["data.epoch"] + self_s["data.token_batches"]),
            "data.pad_ratio": ratio(sum(p[0] for p in pads), sum(p[1] for p in pads)),
            "tensor.backward_ms_p50": median(durations_ms("tensor.backward")),
            "tensor.tensors_per_step": ratio(sum(s[TENSORS] for s in steps), len(steps)),
            "tensor.tensors_per_token": ratio(
                sum(s[TENSORS] for s in spans if s[PARENT] < 0 and s[OP] in sentences),
                generated_tokens),
            "tensor.gc_s": per_op(self.gc_s),
            "tensor.gc_collections": per_op(self.gc_collections),
            "layers.attention_s": per_op(self_s["layers.attention"]),
            "layers.attention_calls": per_op(calls["layers.attention"]),
            "layers.ffn_s": per_op(self_s["layers.ffn"]),
            "layers.layer_norm_s": per_op(self_s["layers.layer_norm"]),
            "model.forward_ms_p50": median(durations_ms("model.loss_on_batch", step_idx)),
            "model.encode_s": per_op(incl_s["model.encode"]),
            "model.decode_self_s": per_op(self_s["model.decode"] + self_s["model.position_scores"]),
            "model.decode_calls_per_sentence": per_op(calls["model.decode"]),
            "model.positions_per_token": ratio(positions, generated_tokens),
            "fusion.sources_s": per_op(self_s["fusion.decoder_sources"]),
            "fusion.sources_calls_per_sentence": per_op(calls["fusion.decoder_sources"]),
            "surface.head_s": per_op(incl_s["surface.head"]),
            "surface.state_s": per_op(incl_s["surface.state"]),
            "surface.fused_scores_s": per_op(incl_s["surface.fused_scores"]),
            "training.adam_s": per_op(self_s["training.adam"]),
            "training.evaluate_s": per_op(incl_s["training.evaluate"]),
            "training.beam_self_s": per_op(self_s[SENTENCE]),
            "checkpoint.save_s": per_op(incl_s["checkpoint.save"]),
            "checkpoint.save_bytes": ratio(sum(saves), len(saves)),
            "checkpoint.load_s": median(load_s),
            "trace.root_coverage": coverage,
            "trace.overhead": overhead,
        }
        return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}

    def write(self, path: str) -> None:
        """Dump the spans, one JSON list per line, times in µs from tracer start."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "parent", "op", "start_us", "end_us", "tensors",
                                 "extra"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[PARENT], s[OP],
                                     round(1e6 * (s[START] - self.epoch), 1),
                                     round(1e6 * (s[END] - self.epoch), 1),
                                     s[TENSORS], s[EXTRA]]) + "\n")


def _pad_counts(args, batches) -> list[int]:
    """[non-pad slots, all slots] over the sources and targets of the batches."""
    used = slots = 0
    for b in batches:
        used += int((b.src != data.PAD_ID).sum() + (b.tgt_out != data.PAD_ID).sum())
        slots += b.src.size + b.tgt_out.size
    return [used, slots]


def _positions(args, result) -> int:
    """Decoder positions computed by one Seq2Seq.decode call."""
    return int(np.asarray(args[1]).size)


def _saved_bytes(args, result) -> int:
    return os.path.getsize(args[0])
