"""Diagnostics: attention heatmaps, layer-masking sweeps, singular-value
spectra of embedding (sub)matrices, and aligned-embedding cosine reports.

Everything operates on a trained (or freshly built) model in eval mode and
emits plain data artifacts: JSON reports, CSV spectra, ASCII PGM heatmaps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fusion as F
from . import tensor as T
from .data import BOS_ID, EOS_ID, token_batches
from .errors import ConfigError, InvalidParameterError, ShapeError
from .model import Seq2Seq
from .tensor import Rng
from .training import avg_output_length, corpus_bleu, evaluate, greedy_decode


@dataclass
class HeatmapReport:
    """Mean fusion weight per (decoder layer, encoder source); rows sum to 1."""

    matrix: np.ndarray
    decoder_labels: list[str]
    encoder_labels: list[str]

    def to_dict(self) -> dict:
        return {
            "kind": "heatmap",
            "matrix": self.matrix.tolist(),
            "decoder_layers": self.decoder_labels,
            "encoder_layers": self.encoder_labels,
        }


@dataclass
class SpectrumReport:
    """Normalized singular values (descending, first = 1) and their logs."""

    values: np.ndarray
    log_values: np.ndarray = field(init=False)
    label: str = "spectrum"

    def __post_init__(self):
        self.log_values = np.log(self.values)

    def to_dict(self) -> dict:
        return {
            "kind": "spectrum",
            "label": self.label,
            "sigma": self.values.tolist(),
            "log_sigma": self.log_values.tolist(),
            "sum_log_sigma": float(self.log_values.sum()),
        }


def normalized_fusion_weights(model: Seq2Seq) -> np.ndarray:
    """Eval-mode normalized weights (no DropConnect), as a numpy array."""
    if model.fusion_weights is None:
        raise ConfigError(f"model mode {model.fusion_cfg.mode!r} has no fusion weights; "
                          "heatmap/mask analyses need a layer-fusion checkpoint")
    return F.normalize_weights(model.fusion_weights.raw).data


def heatmap(model: Seq2Seq) -> HeatmapReport:
    """Average the per-dimension weights over dimensions."""
    w = normalized_fusion_weights(model)
    matrix = w.mean(axis=2)
    if model.fusion_cfg.mode == "fine-uppermost":
        dec_labels = [str(model.config.n_dec_layers)]
    else:
        dec_labels = [str(m + 1) for m in range(model.config.n_dec_layers)]
    return HeatmapReport(matrix.astype(np.float64), dec_labels, source_labels(model))


def source_labels(model: Seq2Seq) -> list[str]:
    if model.fusion_cfg.mode == "fine-uppermost":
        return ["emb", str(model.config.n_enc_layers)]
    return ["emb"] + [str(i) for i in range(1, model.config.n_enc_layers + 1)]


def mask_sweep(model: Seq2Seq, eval_ids, metric: str = "acc", max_tokens: int = 1024,
               decode_limit: int | None = 100) -> list[dict]:
    """Re-evaluate with each fusion source masked in turn.

    Row 0 is the unmasked control (deltas are exactly zero by construction);
    each following row reports the relative metric change and relative mean
    output-length change for one masked source. `decode_limit` caps how many
    sequences are greedy-decoded for the length statistic (None decodes all,
    0 skips decoding).
    """
    if metric not in ("acc", "bleu"):
        raise InvalidParameterError(f"metric must be 'acc' or 'bleu', got {metric!r}")
    normalized_fusion_weights(model)  # raises on non-fusion models
    batches = token_batches(eval_ids, max_tokens)
    decode_ids = eval_ids if decode_limit is None else eval_ids[:decode_limit]

    def measure():
        _, acc = evaluate(model, batches)
        mean_len = math.nan
        score = acc
        if decode_ids:
            hyps = [greedy_decode(model, src) for src, _ in decode_ids]
            mean_len = avg_output_length(hyps)
            if metric == "bleu":
                score = corpus_bleu(hyps, [tgt for _, tgt in decode_ids])
        elif metric == "bleu":
            raise InvalidParameterError("bleu metric needs decode_limit > 0")
        return score, mean_len

    previous_mask = model.layer_mask
    rows = []
    try:
        model.layer_mask = None
        base_metric, base_len = measure()
        rows.append({"layer": "none", "metric": base_metric, "mean_len": base_len,
                     "d_metric": 0.0, "d_len": 0.0})
        for n, label in enumerate(source_labels(model)):
            model.layer_mask = n
            score, mean_len = measure()
            rows.append({
                "layer": label,
                "metric": score,
                "mean_len": mean_len,
                "d_metric": (score - base_metric) / base_metric if base_metric else math.nan,
                "d_len": (mean_len - base_len) / base_len if base_len else math.nan,
            })
    finally:
        model.layer_mask = previous_mask
    return rows


def svd_spectrum(matrix: np.ndarray, label: str = "spectrum") -> SpectrumReport:
    """Singular values normalized by the largest, with natural logs.

    Slow decay (values near 1) means the rows spread over many directions.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ShapeError(f"need a non-empty 2-d matrix, got shape {matrix.shape}")
    if not np.any(matrix):
        raise InvalidParameterError("svd_spectrum of an all-zero matrix")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return SpectrumReport(values=sigma / sigma[0], label=label)


def split_dims_by_attention(emb_matrix: np.ndarray, weights: np.ndarray, rng: Rng):
    """Split embedding columns into (more, less, random) halves.

    Ordering is by descending attention weight with ties broken by ascending
    dimension index; the random half is a seeded uniform sample. Returns a
    dict with the three submatrices and their column indices.
    """
    emb_matrix = np.asarray(emb_matrix)
    weights = np.asarray(weights)
    d = emb_matrix.shape[1]
    if d % 2 != 0:
        raise ShapeError(f"dimension count {d} must be even to split in half")
    if weights.shape != (d,):
        raise ShapeError(f"need one weight per dimension, got {weights.shape} for D={d}")
    order = np.argsort(-weights, kind="stable")
    more_idx = np.sort(order[: d // 2])
    less_idx = np.sort(order[d // 2:])
    random_idx = np.sort(rng.permutation(d)[: d // 2])
    return {
        "more": emb_matrix[:, more_idx],
        "less": emb_matrix[:, less_idx],
        "random": emb_matrix[:, random_idx],
        "more_idx": more_idx,
        "less_idx": less_idx,
        "random_idx": random_idx,
    }


def embed_cosine(src_emb: np.ndarray, tgt_emb: np.ndarray, dictionary, split: str = "all") -> float:
    """Mean cosine between aligned (source id, target id) embedding pairs.

    split="non-shared" drops pairs whose two sides are the same token.
    """
    if split not in ("all", "non-shared"):
        raise InvalidParameterError(f"split must be 'all' or 'non-shared', got {split!r}")
    src_emb = np.asarray(src_emb, dtype=np.float64)
    tgt_emb = np.asarray(tgt_emb, dtype=np.float64)
    values = []
    for s_id, t_id in dictionary:
        if split == "non-shared" and s_id == t_id:
            continue
        a = src_emb[s_id]
        b = tgt_emb[t_id]
        values.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    if not values:
        raise InvalidParameterError(f"no aligned pairs left after split={split!r}")
    return sum(values) / len(values)


def score_breakdown(model: Seq2Seq, src_ids, tgt_ids) -> list[dict]:
    """Per-token fused / base / surface log-probabilities, teacher-forced.

    `surface` entries are None outside the surface-fusion modes; `fused`
    equals `base` for the vanilla and layer-fusion modes. Call it outside
    `no_grad`: only the autograd path returns the surface log-probabilities
    on their own; the graph-free inference path folds them into the score.
    """
    tgt_ids = list(tgt_ids)
    outputs = model.encode(np.asarray(src_ids, dtype=np.int64)[None, :])
    tgt_in = np.asarray([BOS_ID] + tgt_ids, dtype=np.int64)[None, :]
    decoded = model.position_scores(outputs, tgt_in)
    fused = decoded["score"].data[0]
    base = T.log_softmax(decoded["logits"]).data[0]
    surface = decoded.get("surface_log_p")
    surface = surface.data[0] if surface is not None else None
    rows = []
    for j, token in enumerate(tgt_ids + [EOS_ID]):
        rows.append({
            "position": j,
            "token_id": int(token),
            "fused": float(fused[j, token]),
            "base": float(base[j, token]),
            "surface": float(surface[j, token]) if surface is not None else None,
        })
    return rows


# ---------------------------------------------------------------------------
# artifact writers


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def heatmap_to_pgm(matrix: np.ndarray) -> str:
    """ASCII (P2) PGM; one image row per decoder layer, brightest = largest."""
    m = np.asarray(matrix, dtype=np.float64)
    peak = m.max()
    gray = np.zeros_like(m, dtype=np.int64) if peak <= 0 else np.rint(m / peak * 255).astype(np.int64)
    lines = ["P2", f"{m.shape[1]} {m.shape[0]}", "255"]
    for row in gray:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_heatmap_pgm(path, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(heatmap_to_pgm(matrix))


def write_spectrum_csv(path, report: SpectrumReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,sigma,log_sigma\n")
        for i, (s, ls) in enumerate(zip(report.values, report.log_values)):
            fh.write(f"{i},{s!r},{ls!r}\n")
