"""Encoder layer fusion: per-dimension layer attention over encoder outputs.

A learnable weight tensor of shape (decoder layers, encoder layers + 1,
model dim) is softmax-normalized over the layer axis and used to mix all
encoder layer outputs, with index 0 standing for the position-free word
embeddings, into one source representation per decoder layer. Also covers
the coarse (scalar per layer) and uppermost-only variants, DropConnect on
the raw weights, and the layer-masking diagnostic.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DegenerateMaskError, InvalidParameterError, ShapeError
from .tensor import Rng, Tensor

LAYER_FUSION_MODES = ("coarse", "fine", "fine-uppermost")


class FusionWeights:
    """Raw fusion logits plus the DropConnect probability.

    `raw` has shape (M, L, D) where L is the number of fusable sources
    (embedding layer plus encoder layers); coarse weights use D == 1 and
    broadcast. Zero init gives uniform attention at step 0.
    """

    def __init__(self, n_dec_layers: int, n_sources: int, dim: int, p: float = 0.0, dtype=np.float64):
        if not 0.0 <= p < 1.0:
            raise InvalidParameterError(f"DropConnect probability must be in [0, 1), got {p}")
        self.raw = Tensor(np.zeros((n_dec_layers, n_sources, dim), dtype=dtype), requires_grad=True)
        self.p = p

    @property
    def shape(self):
        return self.raw.shape

    def named_parameters(self):
        yield "fusion.w", self.raw


def normalize_weights(raw: Tensor) -> Tensor:
    """Softmax over the layer axis, independently per (decoder layer, dim)."""
    if raw.ndim != 3:
        raise ShapeError(f"fusion weights must be 3-d (M, L, D), got {raw.shape}")
    return T.softmax_temp(raw, tau=1.0, axis=1)


def fuse(outputs, m: int, w_hat: Tensor) -> Tensor:
    """Per-dimension mixture of encoder layers for decoder layer index m.

    S[i, d] = sum_n w_hat[m, n, d] * X_n[i, d], where source 0 is the
    position-free embedding output and sources 1..N the encoder layers.
    `outputs` provides `.layers` and `.x_emb` (see model.LayerOutputs).
    Coarse (M, L, 1) weights broadcast over the dimensions.
    """
    sources = [outputs.x_emb] + list(outputs.layers[1:])
    n_sources = w_hat.shape[1]
    if n_sources != len(sources):
        raise ShapeError(f"{len(sources)} fusable sources but weights cover {n_sources}")
    mixed = None
    for n, layer in enumerate(sources):
        term = T.mul(layer, w_hat[m, n])
        mixed = term if mixed is None else mixed + term
    return mixed


def mask_layer(w_hat: Tensor, n: int) -> Tensor:
    """Zero source n's weight and renormalize the rest per (m, d).

    The encoder computation itself is untouched; only the fusion mixture
    changes. Masking the only remaining weight mass is an error.
    """
    n_sources = w_hat.shape[1]
    if not 0 <= n < n_sources:
        raise InvalidParameterError(f"mask index {n} outside [0, {n_sources})")
    keep = np.ones((1, n_sources, 1), dtype=w_hat.dtype)
    keep[0, n, 0] = 0.0
    kept = T.mul(w_hat, Tensor(keep))
    totals = T.tsum(kept, axis=1, keepdims=True)
    if totals.data.min() <= 0.0:
        raise DegenerateMaskError(f"masking source {n} removes all weight for some (m, d)")
    return T.div(kept, totals)


def uppermost_sources(outputs, w_hat_two_way: Tensor, n_dec_layers: int) -> list[Tensor]:
    """Simplified wiring: layers 1..M-1 read the final encoder output, the
    uppermost decoder layer reads a 2-way mixture of {embeddings, final}.
    """
    if w_hat_two_way.shape[:2] != (1, 2):
        raise ShapeError(f"uppermost variant needs (1, 2, D) weights, got {w_hat_two_way.shape}")
    final = outputs.layers[-1]
    top = T.mul(outputs.x_emb, w_hat_two_way[0, 0]) + T.mul(final, w_hat_two_way[0, 1])
    return [final] * (n_dec_layers - 1) + [top]


def decoder_sources(outputs, weights: FusionWeights, mode: str, n_dec_layers: int,
                    rng: Rng | None, training: bool, layer_mask: int | None = None) -> list[Tensor]:
    """Source representation fed to each decoder layer's cross-attention.

    Returns one tensor per decoder layer. DropConnect hits the raw logits
    while training. `layer_mask` applies the masking diagnostic to the
    normalized weights before mixing (fine/coarse over the full source
    list; for the uppermost variant the maskable sources are
    {0: embeddings, 1: final}).
    """
    if mode not in LAYER_FUSION_MODES:
        raise InvalidParameterError(f"no fusion sources for mode {mode!r}")
    w_hat = normalize_weights(T.dropout(weights.raw, weights.p, rng, training))
    if layer_mask is not None:
        w_hat = mask_layer(w_hat, layer_mask)
    if mode == "fine-uppermost":
        return uppermost_sources(outputs, w_hat, n_dec_layers)
    return [fuse(outputs, m, w_hat) for m in range(n_dec_layers)]
