"""Reusable network pieces: linear maps, layer norm, attention, positions."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Rng, Tensor

# Additive mask value; exp(-1e9) underflows to exactly zero weight.
NEG_INF = -1e9


def sinusoid_positions(max_len: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sin/cos position table of shape (max_len, dim)."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def padding_mask(ids: np.ndarray, pad_id: int, dtype=np.float64) -> np.ndarray:
    """Additive mask (B, 1, 1, L): 0 where attendable, NEG_INF at pads."""
    blocked = (ids == pad_id)[:, None, None, :]
    return np.where(blocked, NEG_INF, 0.0).astype(dtype)


def causal_mask(length: int, dtype=np.float64) -> np.ndarray:
    """Additive mask (1, 1, L, L) blocking attention to future positions."""
    upper = np.triu(np.ones((length, length), dtype=bool), k=1)
    return np.where(upper, NEG_INF, 0.0).astype(dtype)[None, None]


class Linear:
    """Affine map y = x @ W + b with Xavier-uniform init."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: Rng, dtype=np.float64):
        self.name = name
        limit = math.sqrt(6.0 / (d_in + d_out))
        w_init = rng.spawn(f"param:{name}.w").uniform(-limit, limit, (d_in, d_out))
        self.w = Tensor(w_init.astype(dtype), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w) + self.b

    def named_parameters(self):
        yield f"{self.name}.w", self.w
        yield f"{self.name}.b", self.b


class LayerNorm:
    def __init__(self, name: str, dim: int, dtype=np.float64):
        self.name = name
        self.gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)

    def named_parameters(self):
        yield f"{self.name}.gain", self.gain
        yield f"{self.name}.bias", self.bias


class FeedForward:
    """Position-wise two-layer relu network."""

    def __init__(self, name: str, dim: int, d_ff: int, rng: Rng, dtype=np.float64):
        self.name = name
        self.lin1 = Linear(f"{name}.lin1", dim, d_ff, rng, dtype)
        self.lin2 = Linear(f"{name}.lin2", d_ff, dim, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(T.relu(self.lin1(x)))

    def named_parameters(self):
        yield from self.lin1.named_parameters()
        yield from self.lin2.named_parameters()


class MultiHeadAttentionLayer:
    """Projection-wrapped attention: q/k/v/out linear maps around the core."""

    def __init__(self, name: str, dim: int, n_heads: int, rng: Rng, dtype=np.float64):
        self.name = name
        self.n_heads = n_heads
        self.wq = Linear(f"{name}.wq", dim, dim, rng, dtype)
        self.wk = Linear(f"{name}.wk", dim, dim, rng, dtype)
        self.wv = Linear(f"{name}.wv", dim, dim, rng, dtype)
        self.wo = Linear(f"{name}.wo", dim, dim, rng, dtype)

    def __call__(self, q_in: Tensor, k_in: Tensor, v_in: Tensor, mask: np.ndarray | None = None) -> Tensor:
        out = T.attention(self.wq(q_in), self.wk(k_in), self.wv(v_in), mask, self.n_heads)
        return self.wo(out)

    def named_parameters(self):
        for lin in (self.wq, self.wk, self.wv, self.wo):
            yield from lin.named_parameters()
