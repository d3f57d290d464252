"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed autograd core: each operation records its inputs and a
backward closure, `Tensor.backward()` walks the recorded graph once in
reverse topological order. Everything is float64 by default because the
gradient checker needs it; float32 is supported for faster training.

Reductions use numpy's fixed left-to-right summation so repeated runs with
the same seed produce bit-identical values.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, InvalidParameterError, NumericError, ShapeError

DEFAULT_DTYPE = np.float64

_grad_enabled = True
_creation_counter = itertools.count()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / decoding)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """True unless inside a `no_grad` block."""
    return _grad_enabled


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Rng:
    """Deterministic random stream.

    Backed by numpy's PCG64 counter-based generator; the same (seed, key)
    pair yields the same stream on every platform. Child streams are derived
    from stable name hashes via `spawn`, so adding or removing sibling
    streams never perturbs an existing one.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._key = tuple(_key)
        ss = np.random.SeedSequence([self.seed, *self._key])
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def spawn(self, name: str) -> "Rng":
        """Independent child stream identified by a stable name."""
        return Rng(self.seed, self._key + (_fnv1a64(name),))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def random(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size=None, p: np.ndarray | None = None) -> np.ndarray:
        return self._gen.choice(n, size=size, p=p)

    def state_array(self) -> np.ndarray:
        """The generator's exact state as float64 values that are all integers:
        PCG64's 128-bit state and increment as four 32-bit limbs each (least
        significant first), then its buffered-uint32 flag and value."""
        st = self._gen.bit_generator.state
        words = (st["state"]["state"], st["state"]["inc"])
        limbs = [(w >> (32 * i)) & 0xFFFFFFFF for w in words for i in range(4)]
        return np.array(limbs + [st["has_uint32"], st["uinteger"]], dtype=np.float64)

    def load_state_array(self, arr) -> None:
        """Resume from a `state_array`; the next draws continue its stream."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (10,) or not all(v.is_integer() and 0 <= v < 2 ** 32 for v in arr.tolist()):
            raise DataError(f"not a {self.algorithm} stream state: {arr!r}")
        limbs = [int(v) for v in arr]
        state, inc = (sum(limb << (32 * i) for i, limb in enumerate(limbs[k:k + 4])) for k in (0, 4))
        self._gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": limbs[8], "uinteger": limbs[9]}

    def __repr__(self):
        return f"Rng(algorithm={self.algorithm!r}, seed={self.seed}, key={self._key})"


class Tensor:
    """N-dimensional float array with an optional gradient record.

    `data` is a row-major numpy array; `grad` (same shape) is allocated
    lazily during backward and kept only on leaves. Operation provenance
    lives in `_parents` and the `_backward` closure, which receives the
    output gradient as its argument and never refers to its own output. The
    graph is therefore acyclic: reference counting frees it, activations
    included, as soon as the last reference to its root goes (in `train()`,
    when the next step's loss replaces it), without waiting for the cyclic
    garbage collector.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._seq = next(_creation_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode pass from this node; visits each node exactly once.

        Nodes run in descending creation order (a valid topological order,
        since inputs are always created before their consumers). Unlike a
        DFS order this keeps gradient-accumulation order for shared tensors
        stable when unrelated graph branches are added, which is what makes
        reduction identities hold bit-for-bit.

        A non-leaf node's `grad` is released once its closure has run, so
        only leaves keep a gradient, and a second call on the same graph
        adds the same gradient to each leaf again.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without explicit grad needs a scalar root")
            grad = np.ones_like(self.data)
        order = _toposort(self)
        _accumulate(self, np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, op={self.op!r}{flag})"


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """Wrap scalars/arrays as constant tensors, matching `like`'s dtype."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _toposort(root: Tensor) -> list[Tensor]:
    """`root` and every node it reaches through gradient-recording parents,
    in creation order (a topological order: inputs precede consumers)."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return sorted(seen.values(), key=lambda node: node._seq)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # own buffer: g may alias a downstream grad or a broadcast view
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None],
          op: str) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out.op = op
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive operations


def add(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward, "div")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _make(data, (a, b), backward, "matmul")


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _make(data, (a,), backward, "relu")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = np.transpose(a.data, axes)

    def backward(g):
        _accumulate(a, np.transpose(g, np.argsort(axes)))

    return _make(data, (a,), backward, "transpose")


def getitem(a: Tensor, key) -> Tensor:
    a = as_tensor(a)
    data = a.data[key]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=a.data.dtype)

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] += g
        _accumulate(a, full)

    return _make(data, (a,), backward, "getitem")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(np.asarray(data, dtype=a.data.dtype), (a,), backward, "sum")


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather `weight[ids]`; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    data = weight.data[ids]

    def backward(g):
        table = np.zeros_like(weight.data)
        np.add.at(table, ids, g)
        _accumulate(weight, table)

    return _make(data, (weight,), backward, "embedding")


def softmax_temp(logits: Tensor, tau: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature softmax exp(z/tau)/sum(exp(z'/tau)) along `axis`.

    Max-subtraction keeps the exponentials in range; rows sum to 1 up to
    float rounding for every finite input.
    """
    if not isinstance(tau, (int, float)) or not tau > 0:
        raise InvalidParameterError(f"softmax temperature must be > 0, got {tau}")
    logits = as_tensor(logits)
    if logits.data.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    if np.isnan(logits.data).any():
        raise NumericError("softmax_temp: NaN in input logits")
    z = logits.data / tau
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(logits, (g - inner) * data / tau)

    return _make(data, (logits,), backward, "softmax_temp")


def log_softmax_array(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted log softmax of a plain array (the kernel of `log_softmax`)."""
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    logits = as_tensor(logits)
    data = log_softmax_array(logits.data, axis)

    def backward(g):
        _accumulate(logits, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _make(data, (logits,), backward, "log_softmax")


def split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, L, D) -> (B, H, L, D/H) view, one slice per head."""
    b, length, d = x.shape
    return x.reshape(b, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, L, D/H) -> (B, L, D): the inverse of `split_heads`."""
    b, h, length, d_head = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * d_head)


def attention_weights(q_h: np.ndarray, k_t: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """softmax((q_h @ k_t) / sqrt(d_head) + mask) over the key axis.

    `q_h` is (B, H, L_q, d_head) and `k_t` the keys already transposed to
    (B, H, d_head, L_k). The scale is a Python float and the mask is cast to
    the score dtype, so float32 inputs give float32 weights.
    """
    scores = (q_h @ k_t) * (1.0 / math.sqrt(q_h.shape[-1]))
    if mask is not None:
        scores += np.asarray(mask, dtype=scores.dtype)
    if np.isnan(scores).any():
        raise NumericError("attention: NaN in scores")
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    return e / e.sum(axis=-1, keepdims=True)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
              n_heads: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention as one graph node.

    `q` is (B, L_q, D), `k` and `v` are (B, L_k, D), with `n_heads` dividing
    D. `mask` is additive and broadcastable to (B, H, L_q, L_k); masked
    slots get exactly zero weight. Returns the merged (B, L_q, D) context.
    """
    d = q.shape[-1]
    if d % n_heads != 0:
        raise ShapeError(f"n_heads={n_heads} must divide model width {d}")
    if k.shape[-2] == 0:
        raise ShapeError("attention over an empty key set")
    q_h, k_h, v_h = (split_heads(t.data, n_heads) for t in (q, k, v))
    weights = attention_weights(q_h, k_h.transpose(0, 1, 3, 2), mask)
    data = merge_heads(weights @ v_h)

    # The backward replays the products of the reshape/transpose/matmul/
    # softmax chain this op replaces, with the same operand order and result
    # layout (the key gradient stays a transposed view: bias gradients sum
    # over it, and numpy's summation order follows the layout). Gradients,
    # and so training runs, are bit-identical to that chain's.
    def backward(g):
        g_h = split_heads(g, n_heads)
        if v.requires_grad:
            _accumulate(v, merge_heads(weights.swapaxes(-1, -2) @ g_h))
        if q.requires_grad or k.requires_grad:
            g_w = g_h @ v_h.swapaxes(-1, -2)
            g_scores = (g_w - (g_w * weights).sum(axis=-1, keepdims=True)) * weights
            g_scores *= 1.0 / math.sqrt(q_h.shape[-1])
            if k.requires_grad:
                _accumulate(k, merge_heads((q_h.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)))
            if q.requires_grad:
                _accumulate(q, merge_heads(g_scores @ k_h))

    return _make(data, (q, k, v), backward, "attention")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x = as_tensor(x)
    gain = as_tensor(gain, like=x)
    bias = as_tensor(bias, like=x)
    n = x.data.shape[-1]
    if n == 0:
        raise ShapeError("layer_norm over a zero-length axis")
    if gain.data.shape[-1] != n or bias.data.shape[-1] != n:
        raise ShapeError("layer_norm gain/bias length must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * term)

    return _make(data, (x, gain, bias), backward, "layer_norm")


def cross_entropy(log_probs: Tensor, targets: np.ndarray, pad_id: int, smoothing: float = 0.0) -> Tensor:
    """Mean negative log-likelihood over non-pad positions.

    `log_probs` has vocabulary on the last axis; `targets` matches the
    leading axes. Pad positions contribute exactly zero. With smoothing s
    the per-position loss is (1-s) * nll + s * mean_v(-log p_v).
    """
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets)
    vocab = log_probs.data.shape[-1]
    flat_lp = log_probs.data.reshape(-1, vocab)
    flat_t = targets.reshape(-1)
    if flat_t.min() < 0 or flat_t.max() >= vocab:
        raise IndexError(f"target id out of range [0, {vocab})")
    mask = flat_t != pad_id
    count = int(mask.sum())
    if count == 0:
        raise InvalidParameterError("cross_entropy: no non-pad targets")
    rows = np.arange(flat_lp.shape[0])
    picked = flat_lp[rows, flat_t]
    per_pos = -(1.0 - smoothing) * picked - smoothing * flat_lp.mean(axis=1)
    data = np.asarray((per_pos * mask).sum() / count, dtype=log_probs.data.dtype)

    def backward(g):
        g = float(g)
        glp = np.zeros_like(flat_lp)
        if smoothing != 0.0:
            glp[mask, :] = -smoothing / vocab * g / count
        glp[rows[mask], flat_t[mask]] += -(1.0 - smoothing) * g / count
        _accumulate(log_probs, glp.reshape(log_probs.data.shape))

    return _make(data, (log_probs,), backward, "cross_entropy")


def dropout(x: Tensor, p: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout: zero with prob p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise InvalidParameterError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# gradient checking


def _find_nonfinite_op(root: Tensor) -> str:
    """Op of the earliest-created non-finite node in `root`'s graph."""
    for node in _toposort(root):
        if not np.isfinite(node.data).all():
            return node.op
    return root.op


def grad_check(
    f: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]],
    eps: float = 1e-5,
    max_samples: int = 20,
    rng: Rng | None = None,
    total_samples: int | None = None,
) -> float:
    """Compare analytic gradients of the scalar `f()` with central differences.

    Returns max over sampled coordinates of
    |analytic - numeric| / max(1, |analytic| + |numeric|).
    Run in float64; eps should sit in [1e-6, 1e-4]. By default up to
    `max_samples` coordinates are checked per parameter; `total_samples`
    switches to that many coordinates drawn over all parameters jointly.
    """
    if not 1e-6 <= eps <= 1e-4:
        raise InvalidParameterError(f"grad_check eps must be in [1e-6, 1e-4], got {eps}")
    params = list(params)
    rng = rng or Rng(0)
    loss = f()
    if loss.data.size != 1:
        raise ShapeError("grad_check target must be scalar")
    if not np.isfinite(loss.data).all():
        raise NumericError(f"grad_check: non-finite loss produced by op '{_find_nonfinite_op(loss)}'")
    for _, p in params:
        p.zero_grad()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in params}

    if total_samples is not None:
        sizes = [p.data.size for _, p in params]
        offsets = np.cumsum([0] + sizes)
        picks = rng.permutation(int(offsets[-1]))[:total_samples]
        per_param = {name: [] for name, _ in params}
        for flat_idx in picks:
            which = int(np.searchsorted(offsets, flat_idx, side="right")) - 1
            per_param[params[which][0]].append(int(flat_idx - offsets[which]))
        coord_plan = [(name, p, np.asarray(per_param[name], dtype=np.int64)) for name, p in params]
    else:
        coord_plan = []
        for name, p in params:
            n = p.data.size
            coords = np.arange(n) if n <= max_samples else rng.permutation(n)[:max_samples]
            coord_plan.append((name, p, coords))

    worst = 0.0
    for name, p, coords in coord_plan:
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            with no_grad():
                up = float(f().data)
            flat[idx] = orig - eps
            with no_grad():
                down = float(f().data)
            flat[idx] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError(f"grad_check: non-finite loss while perturbing '{name}'")
            numeric = (up - down) / (2.0 * eps)
            a = float(a_flat[idx])
            rel = abs(a - numeric) / max(1.0, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst
