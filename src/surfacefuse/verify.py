"""Self-contained gradient verification suite for the CLI and tests.

Checks every primitive against central differences, then a full training
step of each model variant. A deliberately corrupted derivative can be
injected as a negative control to prove the harness actually fails.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import make_batch
from .layers import padding_mask
from .model import ModelConfig, Seq2Seq
from .surface import FusionConfig
from .tensor import Rng, Tensor, grad_check

THRESHOLD = 1e-4


def _faulty_square(x: Tensor) -> Tensor:
    """x**2 whose analytic gradient is off by 2%: the negative control."""
    data = x.data * x.data

    def backward(g):
        T._accumulate(x, g * 2.02 * x.data)

    return T._make(data, (x,), backward, "faulty_square")


def primitive_checks(seed: int = 0):
    """(name, params, closure) triples covering every primitive op."""
    rng = Rng(seed)

    def r(name, shape, lo=-1.0, hi=1.0):
        return Tensor(rng.spawn(name).uniform(lo, hi, shape), requires_grad=True)

    checks = []

    a = r("add.a", (3, 4)); b = r("add.b", (4,))
    checks.append(("add", [("a", a), ("b", b)], lambda: ((a + b) * (a + b)).sum()))

    c = r("mul.a", (2, 5)); d = r("mul.b", (2, 5), 0.5, 2.0)
    checks.append(("mul_div", [("a", c), ("b", d)], lambda: (c * d / (d + 3.0)).sum()))

    e = r("mm.a", (2, 3, 4)); f = r("mm.b", (4, 5))
    checks.append(("matmul", [("a", e), ("b", f)], lambda: (T.matmul(e, f) * T.matmul(e, f)).sum()))

    g = r("relu.a", (4, 4))
    checks.append(("relu", [("a", g)], lambda: (T.relu(g) * T.relu(g)).sum()))

    h = r("shape.a", (2, 3, 4))
    checks.append(("transpose_getitem", [("a", h)],
                   lambda: (h.transpose((1, 0, 2))[1:3] * 2.0).sum()))

    i = r("red.a", (3, 4))
    checks.append(("sum", [("a", i)], lambda: (i.sum(axis=0) * i.sum(axis=1, keepdims=True)).sum()))

    j = r("sm.a", (3, 6), -2.0, 2.0)
    jw = Tensor(rng.spawn("sm.w").normal(0, 1, (6,)))
    checks.append(("softmax_temp", [("a", j)], lambda: (T.softmax_temp(j, tau=1.7) * jw).sum()))

    k = r("lsm.a", (3, 6), -2.0, 2.0)
    checks.append(("log_softmax", [("a", k)], lambda: (T.log_softmax(k) * jw).sum()))

    m = r("ln.a", (4, 6)); mg = r("ln.g", (6,), 0.5, 1.5); mb = r("ln.b", (6,), -0.1, 0.1)
    mw = Tensor(rng.spawn("ln.w").normal(0, 1, (4, 6)))
    checks.append(("layer_norm", [("a", m), ("g", mg), ("b", mb)],
                   lambda: (T.layer_norm(m, mg, mb) * mw).sum()))

    n = r("ce.a", (5, 7))
    targets = np.array([1, 0, 3, 6, 2])
    checks.append(("cross_entropy", [("a", n)],
                   lambda: T.cross_entropy(T.log_softmax(n), targets, pad_id=0, smoothing=0.1)))

    o = r("emb.w", (9, 4))
    ids = np.array([[1, 3, 3], [0, 8, 2]])
    checks.append(("embedding", [("w", o)],
                   lambda: (T.embedding(o, ids) * T.embedding(o, ids)).sum()))

    aq = r("attn.q", (2, 3, 4)); ak = r("attn.k", (2, 5, 4)); av = r("attn.v", (2, 5, 4))
    aw = Tensor(rng.spawn("attn.w").normal(0, 1, (2, 3, 4)))
    amask = padding_mask(np.array([[5, 5, 5, 5, 5], [5, 5, 5, 0, 0]]), pad_id=0)
    checks.append(("attention", [("q", aq), ("k", ak), ("v", av)],
                   lambda: (T.attention(aq, ak, av, amask, n_heads=2) * aw).sum()))

    return checks


def fault_check(seed: int = 0):
    rng = Rng(seed)
    x = Tensor(rng.spawn("fault.x").uniform(-1, 1, (3, 3)), requires_grad=True)
    return ("fault-injection", [("x", x)], lambda: _faulty_square(x).sum())


def _tiny_batch(vocab: int, seed: int):
    rng = Rng(seed).spawn("gradcheck-batch")
    src = [[int(t) for t in rng.integers(4, vocab, size=5)] for _ in range(2)]
    tgt = [[int(t) for t in rng.integers(4, vocab, size=4)] for _ in range(2)]
    return make_batch(list(zip(src, tgt)))


def model_checks(seed: int = 0, vocab: int = 32):
    """Full-step loss closures for each fusion variant on a tiny model."""
    batch = _tiny_batch(vocab, seed)
    checks = []
    variants = [
        ("model-vanilla", FusionConfig(mode="none")),
        ("model-fine-fusion", FusionConfig(mode="fine", dropconnect=0.3)),
        ("model-uppermost-fusion", FusionConfig(mode="fine-uppermost")),
        ("model-surface-hard", FusionConfig(mode="surface-hard", lambda_=0.7, tau=1.0)),
        ("model-surface-soft", FusionConfig(mode="surface-soft", tau=5.0)),
    ]
    for name, fusion_cfg in variants:
        cfg = ModelConfig(n_enc_layers=2, n_dec_layers=2, d_model=16, n_heads=2, d_ff=32,
                          vocab_src=vocab, vocab_tgt=vocab, max_len=16, dtype="float64")
        model = Seq2Seq(cfg, fusion_cfg, seed=seed)

        def closure(m=model):
            # eval mode: dropout off so the loss is a pure function of params
            loss, _ = m.loss_on_batch(batch, training=False, label_smoothing=0.1)
            return loss

        checks.append((name, list(model.named_parameters()), closure))
    return checks


def run_suite(scope: str = "all", seed: int = 0, inject_fault: bool = False,
              eps: float = 1e-5, threshold: float = THRESHOLD,
              model_samples: int = 20):
    """Run the requested checks; returns (rows, all_passed).

    Each row is (name, max_relative_error, passed). Model checks sample
    `model_samples` random coordinates across all parameters.
    """
    checks = []
    if scope in ("primitives", "all"):
        checks.extend(("primitive", c) for c in primitive_checks(seed))
    if scope in ("model", "all"):
        checks.extend(("model", c) for c in model_checks(seed))
    if inject_fault:
        checks.append(("primitive", fault_check(seed)))
    rows = []
    for kind, (name, params, f) in checks:
        if kind == "model":
            err = grad_check(f, params, eps=eps, rng=Rng(seed).spawn(f"coords:{name}"),
                             total_samples=model_samples)
        else:
            err = grad_check(f, params, eps=eps, rng=Rng(seed).spawn(f"coords:{name}"))
        rows.append((name, err, err < threshold))
    return rows, all(passed for _, _, passed in rows)
