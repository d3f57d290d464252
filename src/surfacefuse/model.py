"""Encoder-decoder transformer that exposes every encoder layer's output.

Post-norm residual blocks, sinusoidal positions, and a decoder whose
cross-attention source is pluggable: the final encoder layer (vanilla), a
per-decoder-layer fusion of all encoder layers, or vanilla wiring plus a
surface head feeding the output distribution.

Every parameter and dropout site draws from its own named random stream, so
a given seed initializes shared parameters identically no matter which
optional modules (fusion weights, surface head) exist alongside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fusion as F
from . import surface as S
from . import tensor as T
from .data import BOS_ID, PAD_ID
from .errors import ConfigError, InvalidParameterError, SequenceLengthError
from .layers import (
    FeedForward,
    LayerNorm,
    MultiHeadAttentionLayer,
    causal_mask,
    padding_mask,
    sinusoid_positions,
)
from .tensor import Rng, Tensor


@dataclass
class ModelConfig:
    """Architecture hyperparameters."""

    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_src: int = 32
    vocab_tgt: int = 32
    tie_embeddings: bool = True
    dropout: float = 0.1
    max_len: int = 64
    dtype: str = "float64"

    def validate(self) -> None:
        if self.n_enc_layers < 1 or self.n_dec_layers < 1:
            raise ConfigError("need at least one encoder and one decoder layer")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.vocab_src < 4 or self.vocab_tgt < 4:
            raise ConfigError("vocabularies must reserve pad/bos/eos/unk (size >= 4)")
        if self.tie_embeddings and self.vocab_src != self.vocab_tgt:
            raise ConfigError("tied embeddings need a joint vocabulary")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass
class LayerOutputs:
    """Everything the decoder reads from one encoded batch.

    `layers` holds every encoder layer output, `x_emb` the position-free
    embeddings that fusion substitutes for index 0, `sources` the
    cross-attention source of each decoder layer, and `surface` the
    graph-free surface cache (surface modes at inference only, else None).
    """

    layers: list[Tensor]
    x_emb: Tensor
    attn_mask: np.ndarray = field(repr=False)
    sources: list[Tensor] = field(default_factory=list, repr=False)
    surface: S.SurfaceDecodeState | None = field(default=None, repr=False)


class EncoderLayer:
    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        dt = cfg.np_dtype
        self.self_attn = MultiHeadAttentionLayer(f"{name}.self_attn", cfg.d_model, cfg.n_heads, rng, dt)
        self.norm1 = LayerNorm(f"{name}.norm1", cfg.d_model, dt)
        self.ff = FeedForward(f"{name}.ff", cfg.d_model, cfg.d_ff, rng, dt)
        self.norm2 = LayerNorm(f"{name}.norm2", cfg.d_model, dt)

    def __call__(self, x, mask, drop):
        x = self.norm1(x + drop("attn", self.self_attn(x, x, x, mask)))
        x = self.norm2(x + drop("ff", self.ff(x)))
        return x

    def named_parameters(self):
        for part in (self.self_attn, self.norm1, self.ff, self.norm2):
            yield from part.named_parameters()


class DecoderLayer:
    def __init__(self, name: str, cfg: ModelConfig, rng: Rng):
        dt = cfg.np_dtype
        self.self_attn = MultiHeadAttentionLayer(f"{name}.self_attn", cfg.d_model, cfg.n_heads, rng, dt)
        self.norm1 = LayerNorm(f"{name}.norm1", cfg.d_model, dt)
        self.cross_attn = MultiHeadAttentionLayer(f"{name}.cross_attn", cfg.d_model, cfg.n_heads, rng, dt)
        self.norm2 = LayerNorm(f"{name}.norm2", cfg.d_model, dt)
        self.ff = FeedForward(f"{name}.ff", cfg.d_model, cfg.d_ff, rng, dt)
        self.norm3 = LayerNorm(f"{name}.norm3", cfg.d_model, dt)

    def __call__(self, y, source, self_mask, cross_mask, drop):
        y = self.norm1(y + drop("self", self.self_attn(y, y, y, self_mask)))
        y = self.norm2(y + drop("cross", self.cross_attn(y, source, source, cross_mask)))
        y = self.norm3(y + drop("ff", self.ff(y)))
        return y

    def named_parameters(self):
        for part in (self.self_attn, self.norm1, self.cross_attn, self.norm2, self.ff, self.norm3):
            yield from part.named_parameters()


class Seq2Seq:
    """Transformer with pluggable encoder-fusion behavior."""

    def __init__(self, config: ModelConfig, fusion_cfg: S.FusionConfig | None = None, seed: int = 0):
        config.validate()
        fusion_cfg = fusion_cfg or S.FusionConfig()
        fusion_cfg.validate()
        self.config = config
        self.fusion_cfg = fusion_cfg
        self.seed = seed
        self.layer_mask: int | None = None  # masking diagnostic, eval only

        root = Rng(seed)
        dt = config.np_dtype
        d = config.d_model

        def embed_init(name, vocab):
            init = root.spawn(f"param:{name}").uniform(-0.1, 0.1, (vocab, d))
            return Tensor(init.astype(dt), requires_grad=True)

        self.src_embed = embed_init("src_embed", config.vocab_src)
        if config.tie_embeddings:
            self.tgt_embed = self.src_embed
            self.out_weight = self.src_embed
        else:
            self.tgt_embed = embed_init("tgt_embed", config.vocab_tgt)
            self.out_weight = embed_init("out_weight", config.vocab_tgt)

        self.positions = sinusoid_positions(config.max_len, d, dt)
        self.enc_layers = [EncoderLayer(f"encoder.{i}", config, root) for i in range(config.n_enc_layers)]
        self.dec_layers = [DecoderLayer(f"decoder.{i}", config, root) for i in range(config.n_dec_layers)]

        self.fusion_weights: F.FusionWeights | None = None
        if fusion_cfg.is_layer_fusion:
            n_sources = 2 if fusion_cfg.mode == "fine-uppermost" else config.n_enc_layers + 1
            n_slots = 1 if fusion_cfg.mode == "fine-uppermost" else config.n_dec_layers
            dim = 1 if fusion_cfg.mode == "coarse" else d
            self.fusion_weights = F.FusionWeights(n_slots, n_sources, dim, fusion_cfg.dropconnect, dt)

        self.surface_head: S.SurfaceHead | None = None
        if fusion_cfg.is_surface:
            self.surface_head = S.SurfaceHead(d, config.n_heads, root, dt)

        self._drop_root = root
        self._drop_rngs: dict[str, Rng] = {}  # spawned on first use, keyed by site

    # ------------------------------------------------------------------
    # parameters and dropout plumbing

    def named_parameters(self):
        yield "src_embed", self.src_embed
        if not self.config.tie_embeddings:
            yield "tgt_embed", self.tgt_embed
            yield "out_weight", self.out_weight
        for layer in self.enc_layers:
            yield from layer.named_parameters()
        for layer in self.dec_layers:
            yield from layer.named_parameters()
        if self.fusion_weights is not None:
            yield from self.fusion_weights.named_parameters()
        if self.surface_head is not None:
            yield from self.surface_head.named_parameters()

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def _drop_rng(self, key: str) -> Rng:
        rng = self._drop_rngs.get(key)
        if rng is None:
            rng = self._drop_rngs[key] = self._drop_root.spawn(key)
        return rng

    def _dropper(self, site: str, training: bool):
        """Per-site dropout closure so streams never depend on sibling modules."""
        p = self.config.dropout

        def drop(tag: str, x: Tensor) -> Tensor:
            if not training or p == 0.0:
                return x
            return T.dropout(x, p, self._drop_rng(f"drop:{site}.{tag}"), training)

        return drop

    def rng_state_tensors(self) -> dict:
        """Exact state of every dropout/DropConnect stream spawned so far."""
        return {f"state.rng.{key}": rng.state_array() for key, rng in self._drop_rngs.items()}

    def load_rng_state(self, tensors: dict) -> None:
        """Continue the streams saved by `rng_state_tensors`; others start afresh."""
        for name, arr in tensors.items():
            if name.startswith("state.rng."):
                self._drop_rng(name[len("state.rng."):]).load_state_array(arr)

    # ------------------------------------------------------------------
    # forward passes

    def _embed(self, table: Tensor, ids: np.ndarray) -> Tensor:
        return T.embedding(table, ids) * math.sqrt(self.config.d_model)

    def encode(self, src_ids: np.ndarray, training: bool = False) -> LayerOutputs:
        """Run the encoder stack and build every input the decoder reads.

        The fused sources (with this call's DropConnect draw and the current
        `layer_mask`) are built once here. The surface cache is built only
        at inference, outside training with no graph being recorded.
        """
        src_ids = np.asarray(src_ids)
        if src_ids.ndim == 1:
            src_ids = src_ids[None, :]
        b, length = src_ids.shape
        if length == 0 or not ((src_ids != PAD_ID).any(axis=1)).all():
            raise SequenceLengthError("empty source sequence")
        if length > self.config.max_len:
            raise SequenceLengthError(f"source length {length} exceeds max_len {self.config.max_len}")
        if src_ids.max() >= self.config.vocab_src or src_ids.min() < 0:
            raise IndexError("source token id outside the vocabulary")

        x_emb = self._embed(self.src_embed, src_ids)
        x = x_emb + Tensor(self.positions[None, :length])
        x = self._dropper("enc_in", training)("emb", x)
        mask = padding_mask(src_ids, PAD_ID, self.config.np_dtype)
        layers = [x]
        for i, layer in enumerate(self.enc_layers):
            x = layer(x, mask, self._dropper(f"enc{i}", training))
            layers.append(x)
        outputs = LayerOutputs(layers=layers, x_emb=x_emb, attn_mask=mask)

        cfg = self.fusion_cfg
        n_dec = self.config.n_dec_layers
        if cfg.is_layer_fusion:
            outputs.sources = F.decoder_sources(outputs, self.fusion_weights, cfg.mode, n_dec,
                                                self._drop_rng("drop:fusion.dropconnect"), training,
                                                layer_mask=self.layer_mask)
        else:
            outputs.sources = [x] * n_dec
        if cfg.is_surface and not training and not T.grad_enabled():
            outputs.surface = S.SurfaceDecodeState(self.surface_head, x.data, x_emb.data, mask,
                                                   self.out_weight.data, cfg)
        return outputs

    def decode(self, tgt_in_ids: np.ndarray, outputs: LayerOutputs, training: bool = False,
               last_only: bool = False) -> dict:
        """Teacher-forced decoder pass.

        Returns decoder pre-softmax logits plus, in surface modes without a
        surface cache, the surface log-distribution; `last_only` restricts
        the output projection to the final position for incremental
        decoding. `tgt_in_ids` may hold n prefix rows against a batch-1
        `outputs`: the encoder side broadcasts, and each row scores as it
        would alone.
        """
        tgt_in_ids = np.asarray(tgt_in_ids)
        if tgt_in_ids.ndim == 1:
            tgt_in_ids = tgt_in_ids[None, :]
        b, length = tgt_in_ids.shape
        if length == 0:
            raise SequenceLengthError("empty target prefix; prefixes start with BOS")
        if length > self.config.max_len:
            raise SequenceLengthError(f"target length {length} exceeds max_len {self.config.max_len}")
        if not (tgt_in_ids[:, 0] == BOS_ID).all():
            raise InvalidParameterError("target prefix must begin with BOS")

        y = self._embed(self.tgt_embed, tgt_in_ids) + Tensor(self.positions[None, :length])
        y = self._dropper("dec_in", training)("emb", y)
        self_mask = causal_mask(length, self.config.np_dtype)
        for i, layer in enumerate(self.dec_layers):
            y = layer(y, outputs.sources[i], self_mask, outputs.attn_mask,
                      self._dropper(f"dec{i}", training))

        y_out = y[:, -1:, :] if last_only else y
        logits = T.matmul(y_out, T.transpose(self.out_weight, (1, 0)))
        result = {"decoder_out": y_out, "logits": logits}

        if self.fusion_cfg.is_surface and outputs.surface is None:
            r = self.surface_head(
                self._dropper("surface", training)("r", y_out),
                outputs.layers[-1], outputs.x_emb, outputs.attn_mask,
            )
            result["surface_log_p"] = S.surface_log_probability(r, self.out_weight, self.fusion_cfg.tau)
        return result

    def position_scores(self, outputs: LayerOutputs, tgt_in_ids: np.ndarray,
                        training: bool = False, last_only: bool = False) -> dict:
        """Per-position token scores used for both the loss and ranking.

        "score" is log P for vanilla/layer-fusion and soft fusion; for hard
        fusion it is the unnormalized interpolated log-score (ranking is
        unaffected within a position). When `outputs` carries a surface
        cache, the fused scores of every requested position come from it,
        graph-free; otherwise they are built on the autograd path. As in
        `decode`, n prefix rows may share one batch-1 encoding, which is how
        beam search scores its whole beam in one call.
        """
        decoded = self.decode(tgt_in_ids, outputs, training=training, last_only=last_only)
        logits = decoded["logits"]
        mode = self.fusion_cfg.mode
        if outputs.surface is not None:
            score = Tensor(outputs.surface.fused_scores(logits.data, decoded["decoder_out"].data))
        elif mode == "surface-hard":
            score = S.hard_fuse(T.log_softmax(logits, axis=-1), decoded["surface_log_p"],
                                self.fusion_cfg.lambda_)
        elif mode == "surface-soft":
            score = S.soft_fuse(logits, decoded["surface_log_p"])
        else:
            score = T.log_softmax(logits, axis=-1)
        decoded["score"] = score
        return decoded

    def loss_on_batch(self, batch, training: bool = False, label_smoothing: float = 0.0):
        """Mean per-token loss over non-pad targets, plus count stats."""
        outputs = self.encode(batch.src, training=training)
        decoded = self.position_scores(outputs, batch.tgt_in, training=training)
        loss = T.cross_entropy(decoded["score"], batch.tgt_out, PAD_ID, smoothing=label_smoothing)
        pred = decoded["score"].data.argmax(axis=-1)
        mask = batch.tgt_out != PAD_ID
        stats = {
            "ntokens": int(mask.sum()),
            "ncorrect": int((pred[mask] == batch.tgt_out[mask]).sum()),
        }
        return loss, stats
