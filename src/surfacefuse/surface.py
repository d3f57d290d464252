"""Surface fusion: route the encoder embedding layer into the softmax.

A dedicated multi-head attention reads decoder outputs as queries, final
encoder outputs as keys, and the position-free encoder embeddings as values,
producing a surface vector r per target position. r times the shared
pre-softmax weight, through a temperature softmax, gives a source-only token
distribution that is fused with the decoder's own distribution either with a
fixed interpolation weight in log space (hard) or by adding the surface
log-probabilities onto the decoder logits before the softmax (soft).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, InvalidParameterError
from .layers import MultiHeadAttentionLayer
from .tensor import Rng, Tensor

FUSION_MODES = ("none", "coarse", "fine", "fine-uppermost", "surface-hard", "surface-soft")


@dataclass
class FusionConfig:
    """How (and whether) encoder layers are fused into the decoder.

    lambda_ is the hard-fusion interpolation weight; tau the surface softmax
    temperature (1 works for hard fusion, 5 for soft); dropconnect is the
    probability of zeroing each raw (pre-softmax) layer-attention logit
    while training the layer-fusion modes. The hard-fused score is used
    unnormalized, for the loss and for ranking alike.
    """

    mode: str = "none"
    lambda_: float = 0.9
    tau: float = 1.0
    dropconnect: float = 0.0

    def validate(self) -> None:
        if self.mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion mode {self.mode!r}; pick one of {FUSION_MODES}")
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError(f"fusion lambda must be in [0, 1], got {self.lambda_}")
        if not self.tau > 0:
            raise ConfigError(f"fusion tau must be > 0, got {self.tau}")
        if not 0.0 <= self.dropconnect < 1.0:
            raise ConfigError(f"dropconnect must be in [0, 1), got {self.dropconnect}")

    @property
    def is_layer_fusion(self) -> bool:
        return self.mode in ("coarse", "fine", "fine-uppermost")

    @property
    def is_surface(self) -> bool:
        return self.mode in ("surface-hard", "surface-soft")


class SurfaceHead:
    """Attention head producing surface representations r (one per target).

    Owns its projection matrices; only the pre-softmax weight is shared with
    the decoder output projection. The value and output maps start as the
    identity: r then begins training inside the embedding basis, which the
    shared pre-softmax weight can already read, instead of a random rotation
    of it. Query/key projections keep the standard init.
    """

    def __init__(self, dim: int, n_heads: int, rng: Rng, dtype=np.float64):
        self.attn = MultiHeadAttentionLayer("surface.attn", dim, n_heads, rng, dtype)
        self.attn.wv.w.data[:] = np.eye(dim, dtype=dtype)
        self.attn.wo.w.data[:] = np.eye(dim, dtype=dtype)

    def __call__(self, decoder_out: Tensor, encoder_final: Tensor, x_emb: Tensor,
                 src_mask: np.ndarray | None = None) -> Tensor:
        """r = attention(query=decoder output, keys=final encoder layer,
        values=position-free embeddings), rows convex in the projected values."""
        return self.attn(decoder_out, encoder_final, x_emb, mask=src_mask)

    def named_parameters(self):
        yield from self.attn.named_parameters()


def surface_logits(r: Tensor, presoftmax_w: Tensor) -> Tensor:
    """Project surface vectors onto the vocabulary with the shared weight.

    `presoftmax_w` is the decoder's own (vocab, dim) output matrix, the very
    same storage, so surface gradients land in it too.
    """
    return T.matmul(r, T.transpose(presoftmax_w, (1, 0)))


def surface_log_probability(r: Tensor, presoftmax_w: Tensor, tau: float) -> Tensor:
    """Source-only log-distribution log softmax(r V / tau), computed stably."""
    if not tau > 0:
        raise InvalidParameterError(f"surface temperature must be > 0, got {tau}")
    return T.log_softmax(surface_logits(r, presoftmax_w) * (1.0 / tau), axis=-1)


def hard_fuse(log_p_decoder: Tensor, log_p_surface: Tensor, lambda_: float) -> Tensor:
    """lambda * log P(y|prefix, x) + (1 - lambda) * log P(y|x).

    The result is an unnormalized log-score; within a position it ranks
    tokens as its renormalized form would.
    """
    if not 0.0 <= lambda_ <= 1.0:
        raise InvalidParameterError(f"hard fusion lambda must be in [0, 1], got {lambda_}")
    return log_p_decoder * lambda_ + log_p_surface * (1.0 - lambda_)


def soft_fuse(decoder_logits: Tensor, log_p_surface: Tensor) -> Tensor:
    """log softmax(decoder pre-softmax logits + surface log-probabilities).

    Needs no interpolation weight; rows are valid log-distributions.
    """
    return T.log_softmax(decoder_logits + log_p_surface, axis=-1)


class SurfaceDecodeState:
    """Graph-free surface head and fusion for one encoded batch (inference).

    Everything that stays fixed while the batch is decoded is built once
    here: the encoder-side key/value projections, the transposed pre-softmax
    weight and the fusion settings. Each call then only projects the
    decoder states and runs the attention kernels of `T.attention` on plain
    arrays, which keeps the fused decode overhead well under the latency
    budget.
    """

    def __init__(self, head: SurfaceHead, encoder_final: np.ndarray, x_emb: np.ndarray,
                 attn_mask: np.ndarray, presoftmax_w: np.ndarray, cfg: FusionConfig):
        attn = head.attn
        self.heads = attn.n_heads
        self.cfg = cfg
        k = T.split_heads(encoder_final @ attn.wk.w.data + attn.wk.b.data, self.heads)
        self.k_t = np.ascontiguousarray(k.transpose(0, 1, 3, 2))  # (B, H, d_head, I)
        self.v = np.ascontiguousarray(T.split_heads(x_emb @ attn.wv.w.data + attn.wv.b.data,
                                                    self.heads))
        self.mask = attn_mask
        self.wq_w, self.wq_b = attn.wq.w.data, attn.wq.b.data
        self.wo_w, self.wo_b = attn.wo.w.data, attn.wo.b.data
        self.presoftmax_t = np.ascontiguousarray(presoftmax_w.T)

    def surface_logits(self, decoder_out: np.ndarray) -> np.ndarray:
        """Temperature-scaled surface logits for each decoder position (an
        unnormalized shift of the surface log-distribution)."""
        q = T.split_heads(decoder_out @ self.wq_w + self.wq_b, self.heads)
        weights = T.attention_weights(q, self.k_t, self.mask)
        r = T.merge_heads(weights @ self.v) @ self.wo_w + self.wo_b
        return (r @ self.presoftmax_t) / self.cfg.tau

    def fused_scores(self, decoder_logits: np.ndarray, decoder_out: np.ndarray) -> np.ndarray:
        """Mode-matched fused score, computed without the autograd graph.

        Soft fusion exploits log softmax's shift invariance: adding the
        unnormalized surface logits equals adding the normalized surface
        log-probabilities, so the surface normalization is skipped.
        """
        s_logits = self.surface_logits(decoder_out)
        if self.cfg.mode == "surface-soft":
            return T.log_softmax_array(decoder_logits + s_logits)
        return (self.cfg.lambda_ * T.log_softmax_array(decoder_logits)
                + (1.0 - self.cfg.lambda_) * T.log_softmax_array(s_logits))
