import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfacefuse.errors import InvalidParameterError, NumericError, ShapeError
from surfacefuse.tensor import (
    Rng,
    Tensor,
    cross_entropy,
    dropout,
    embedding,
    grad_check,
    layer_norm,
    log_softmax,
    matmul,
    no_grad,
    relu,
    softmax_temp,
)
import surfacefuse.tensor as T
from surfacefuse.layers import MultiHeadAttentionLayer, causal_mask, padding_mask


class TestSoftmaxTemp:
    def test_symmetry(self):
        out = softmax_temp(Tensor([0.0, 0.0]), tau=1.0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_high_temperature_smooths(self):
        out = softmax_temp(Tensor([3.0, -1.0]), tau=1e6)
        # exact deviation is 9.99999999999e-07; allow one ulp of rounding
        # slack at 0.5 since float64 quantizes the gap in ~1.1e-16 steps
        assert np.all(np.abs(out.data - 0.5) < 1e-6 + 1e-15)

    def test_known_values(self):
        # independent scalar evaluation of exp(z)/sum(exp(z'))
        a = math.log(3.0)
        denom = math.exp(a) + math.exp(0.0)
        expected = [math.exp(a) / denom, math.exp(0.0) / denom]
        out = softmax_temp(Tensor([a, 0.0]), tau=1.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [0.75, 0.25], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = Rng(7)
        x = Tensor(rng.normal(0, 5, (4, 9)))
        out = softmax_temp(x, tau=2.5)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_bad_tau(self):
        with pytest.raises(InvalidParameterError):
            softmax_temp(Tensor([1.0, 2.0]), tau=0.0)
        with pytest.raises(InvalidParameterError):
            softmax_temp(Tensor([1.0, 2.0]), tau=-1.0)

    def test_nan_input(self):
        with pytest.raises(NumericError):
            softmax_temp(Tensor([1.0, float("nan")]), tau=1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(0.01, 100.0))
    def test_sum_property(self, vals, tau):
        out = softmax_temp(Tensor(vals), tau=tau)
        assert out.data.min() >= 0.0
        assert abs(out.data.sum() - 1.0) < 1e-9


class TestLayerNorm:
    def _gb(self, n):
        return Tensor(np.ones(n)), Tensor(np.zeros(n))

    def test_constant_input(self):
        g, b = self._gb(3)
        out = layer_norm(Tensor([1.0, 1.0, 1.0]), g, b)
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)

    def test_already_normalized(self):
        g, b = self._gb(2)
        out = layer_norm(Tensor([1.0, -1.0]), g, b)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-4)

    def test_output_moments(self):
        g, b = self._gb(3)
        out = layer_norm(Tensor([2.0, 4.0, 6.0]), g, b)
        # recompute moments independently with numpy
        assert abs(np.mean(out.data)) < 1e-12
        assert abs(np.var(out.data) - 1.0) < 1e-4

    def test_zero_length_axis(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        lp = np.full((1, 4), -50.0)
        lp[0, 2] = 0.0
        loss = cross_entropy(Tensor(lp), np.array([2]), pad_id=0)
        assert loss.item() == 0.0

    def test_uniform_distribution(self):
        lp = np.full((3, 8), math.log(1.0 / 8.0))
        loss = cross_entropy(Tensor(lp), np.array([5, 1, 7]), pad_id=0)
        assert abs(loss.item() - math.log(8.0)) < 1e-12

    def test_pad_positions_excluded(self):
        # two real positions plus one pad; expected value summed by hand
        lp = np.log(np.array([
            [0.7, 0.2, 0.1],
            [0.1, 0.6, 0.3],
            [0.3, 0.3, 0.4],
        ]))
        targets = np.array([2, 1, 0])  # last position is pad
        expected = (-math.log(0.1) - math.log(0.6)) / 2.0
        loss = cross_entropy(Tensor(lp), targets, pad_id=0)
        assert abs(loss.item() - expected) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]), pad_id=0)

    def test_smoothing_reduces_to_plain_at_zero(self):
        rng = Rng(3)
        lp = log_softmax(Tensor(rng.normal(0, 1, (4, 6)))).data
        t = np.array([1, 2, 3, 4])
        a = cross_entropy(Tensor(lp), t, pad_id=0, smoothing=0.0).item()
        b = cross_entropy(Tensor(lp), t, pad_id=0).item()
        assert a == b


class TestGradCheck:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            return (x * x).sum()

        err = grad_check(f, [("x", x)], eps=1e-5)
        x.zero_grad()
        loss = f()
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)
        assert err < 1e-8

    def test_softmax_cross_entropy_composite(self):
        rng = Rng(11)
        x = Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
        targets = np.array([1, 4, 2])

        def f():
            lp = log_softmax(softmax_temp(x, tau=2.0) @ Tensor(np.eye(5)))
            return cross_entropy(lp, targets, pad_id=0)

        assert grad_check(f, [("x", x)], eps=1e-5) < 1e-6

    def test_nonfinite_loss_names_op(self):
        x = Tensor([1.0], requires_grad=True)

        def f():
            with np.errstate(divide="ignore"):
                return (x / Tensor([0.0])).sum()

        with pytest.raises(NumericError, match="div"):
            grad_check(f, [("x", x)])


PRIMITIVE_CASES = []


def _case(name):
    def deco(fn):
        PRIMITIVE_CASES.append((name, fn))
        return fn
    return deco


@_case("add_broadcast")
def _build_add(rng):
    a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.normal(0, 1, (4,)), requires_grad=True)
    return [("a", a), ("b", b)], lambda: ((a + b) * (a + b)).sum()


@_case("mul_div")
def _build_muldiv(rng):
    a = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, (2, 3)), requires_grad=True)
    return [("a", a), ("b", b)], lambda: (a * b / (b + 3.0)).sum()


@_case("matmul")
def _build_matmul(rng):
    a = Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
    return [("a", a), ("b", b)], lambda: (matmul(a, b) * matmul(a, b)).sum()


@_case("relu")
def _build_relu(rng):
    a = Tensor(rng.normal(0, 1, (5, 5)) + 0.1, requires_grad=True)
    return [("a", a)], lambda: (relu(a) * relu(a)).sum()


@_case("transpose_getitem")
def _build_shapes(rng):
    a = Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)

    def f():
        y = a.transpose((1, 0, 2))[1:3]
        return (y * y).sum()

    return [("a", a)], f


@_case("sum")
def _build_reductions(rng):
    a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
    return [("a", a)], lambda: (a.sum(axis=0) * a.sum(axis=1, keepdims=True)).sum()


@_case("softmax_temp")
def _build_softmax(rng):
    a = Tensor(rng.normal(0, 2, (3, 6)), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (6,)))
    return [("a", a)], lambda: (softmax_temp(a, tau=1.7) * w).sum()


@_case("log_softmax")
def _build_logsoftmax(rng):
    a = Tensor(rng.normal(0, 2, (3, 6)), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (6,)))
    return [("a", a)], lambda: (log_softmax(a) * w).sum()


@_case("layer_norm")
def _build_layernorm(rng):
    a = Tensor(rng.normal(0, 1, (4, 6)), requires_grad=True)
    g = Tensor(rng.uniform(0.5, 1.5, (6,)), requires_grad=True)
    b = Tensor(rng.normal(0, 0.1, (6,)), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (4, 6)))
    return [("a", a), ("g", g), ("b", b)], lambda: (layer_norm(a, g, b) * w).sum()


@_case("cross_entropy_smoothed")
def _build_ce(rng):
    a = Tensor(rng.normal(0, 1, (5, 7)), requires_grad=True)
    t = np.array([1, 0, 3, 6, 2])
    return [("a", a)], lambda: cross_entropy(log_softmax(a), t, pad_id=0, smoothing=0.1)


@_case("embedding")
def _build_embedding(rng):
    w = Tensor(rng.normal(0, 1, (9, 4)), requires_grad=True)
    ids = np.array([[1, 3, 3], [0, 8, 2]])
    return [("w", w)], lambda: (embedding(w, ids) * embedding(w, ids)).sum()


@_case("attention")
def _build_attention(rng):
    q = Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)
    k = Tensor(rng.normal(0, 1, (2, 5, 4)), requires_grad=True)
    v = Tensor(rng.normal(0, 1, (2, 5, 4)), requires_grad=True)
    w = Tensor(rng.normal(0, 1, (2, 3, 4)))
    mask = padding_mask(np.array([[5, 5, 5, 5, 5], [5, 5, 5, 0, 0]]), pad_id=0)
    return ([("q", q), ("k", k), ("v", v)],
            lambda: (T.attention(q, k, v, mask, n_heads=2) * w).sum())


@pytest.mark.parametrize("name,builder", PRIMITIVE_CASES, ids=[n for n, _ in PRIMITIVE_CASES])
def test_primitive_gradients(name, builder):
    # every primitive must agree with central differences at eps=1e-5
    params, f = builder(Rng(42).spawn(name))
    assert grad_check(f, params, eps=1e-5) < 1e-4


def _reshape(a, shape):
    """Reshape as a graph node, the op the composite below was built from."""

    def backward(g):
        T._accumulate(a, g.reshape(a.data.shape))

    return T._make(a.data.reshape(shape), (a,), backward, "reshape")


def composite_attention(q, k, v, mask, n_heads):
    """The chain of autograd ops that `T.attention` replaces, op for op."""
    d_head = q.shape[-1] // n_heads

    def split(t):
        b, length, _ = t.shape
        return T.transpose(_reshape(t, (b, length, n_heads, d_head)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))) * (1.0 / math.sqrt(d_head))
    if mask is not None:
        m = np.asarray(mask, dtype=scores.dtype)
        while m.ndim < 4:
            m = m[None]
        scores = scores + Tensor(m)
    weights = softmax_temp(scores, tau=1.0, axis=-1)
    ctx = T.matmul(weights, vh)
    b, _, lq, _ = ctx.shape
    return _reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, lq, n_heads * d_head))


class TestAttention:
    """`T.attention` against the composite chain it replaced."""

    @staticmethod
    def inputs(kind, dtype, seed=0):
        rng = Rng(seed)
        lq, lk = (4, 4) if kind == "causal" else (3, 5)
        q, k, v = (Tensor(rng.spawn(n).normal(0, 1, (2, length, 8)).astype(dtype), requires_grad=True)
                   for n, length in (("q", lq), ("k", lk), ("v", lk)))
        if kind == "causal":
            mask = causal_mask(lk, dtype)
        else:
            mask = padding_mask(np.array([[5, 5, 5, 5, 0], [5, 5, 0, 0, 0]]), pad_id=0, dtype=dtype)
        return q, k, v, mask

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["padding", "causal"])
    def test_forward_equals_composite_bitwise(self, kind, dtype):
        q, k, v, mask = self.inputs(kind, dtype)
        fused = T.attention(q, k, v, mask, n_heads=2)
        reference = composite_attention(q, k, v, mask, n_heads=2)
        assert fused.dtype == reference.dtype == dtype
        assert np.array_equal(fused.data, reference.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["padding", "causal"])
    def test_gradients_equal_composite_bitwise(self, kind, dtype, monkeypatch):
        # bit-equality keeps training runs identical to the chain's. The
        # memory layout of each input gradient must match too: the bias
        # gradients sum over it, and numpy's summation order follows it.
        layer = MultiHeadAttentionLayer("t", 8, 2, Rng(3), dtype)
        q, k, v, mask = self.inputs(kind, dtype)
        w = Rng(4).normal(0, 1, (2, q.shape[1], 8)).astype(dtype)
        tensors = [q, k, v] + [p for _, p in layer.named_parameters()]
        grads = []
        for attend in (T.attention, composite_attention):
            monkeypatch.setattr(T, "attention", attend)
            for t in tensors:
                t.zero_grad()
            (layer(q, k, v, mask) * w).sum().backward()
            grads.append([t.grad.copy() for t in tensors])
        for fused, reference in zip(*grads):
            assert np.array_equal(fused, reference)

    def test_shared_input_gradient_equals_composite_bitwise(self):
        # self-attention on one tensor: the v, k and q parts accumulate in the
        # composite's order
        x, _, _, mask = self.inputs("causal", np.float64)
        grads = []
        for attend in (T.attention, composite_attention):
            x.zero_grad()
            (attend(x, x, x, mask, n_heads=2) * x.data).sum().backward()
            grads.append(x.grad.copy())
        assert np.array_equal(*grads)

    def test_one_tape_node(self):
        q, k, v, mask = self.inputs("padding", np.float64)
        out = T.attention(q, k, v, mask, n_heads=2)
        assert out.op == "attention" and out._parents == (q, k, v)

    def test_nan_scores_raise(self):
        q, k, v, mask = self.inputs("padding", np.float64)
        q.data[0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="attention"):
            T.attention(q, k, v, mask, n_heads=2)

    def test_heads_must_divide_width(self):
        q, k, v, mask = self.inputs("padding", np.float64)
        with pytest.raises(ShapeError):
            T.attention(q, k, v, mask, n_heads=3)


class TestRngAndDeterminism:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(0, 1, 16)
        b = Rng(123).normal(0, 1, 16)
        np.testing.assert_array_equal(a, b)

    def test_spawn_independent_of_siblings(self):
        root = Rng(5)
        a1 = root.spawn("alpha").random(8)
        root2 = Rng(5)
        root2.spawn("beta").random(3)  # consuming a sibling stream
        a2 = root2.spawn("alpha").random(8)
        np.testing.assert_array_equal(a1, a2)

    def test_forward_bit_identical(self):
        def run():
            rng = Rng(99)
            x = Tensor(rng.normal(0, 1, (4, 8)))
            w = Tensor(rng.normal(0, 1, (8, 8)))
            y = softmax_temp(matmul(x, w), tau=1.3)
            return y.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.arange(6.0))
        for p, training in ((0.5, False), (0.0, True)):  # eval mode, or nothing to drop
            assert dropout(x, p, Rng(0), training=training) is x

    def test_bad_p(self):
        with pytest.raises(InvalidParameterError):
            dropout(Tensor([1.0]), 1.0, Rng(0), training=True)

    def test_scaling(self):
        x = Tensor(np.ones(100000))
        out = dropout(x, 0.25, Rng(1), training=True)
        kept = out.data > 0
        assert abs(kept.mean() - 0.75) < 0.01
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)


class TestGraphMechanics:
    def test_backward_visits_each_node_once(self):
        calls = []
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        z = y + y  # diamond: y reachable twice
        orig = y._backward

        def counting(g):
            calls.append(1)
            orig(g)

        y._backward = counting
        z.sum().backward()
        assert len(calls) == 1
        np.testing.assert_allclose(x.grad, [8.0])

    def test_repeated_backward_adds_one_pass_gradient(self):
        x = Tensor([1.5, -2.0, 0.5], requires_grad=True)
        y = (relu(x * x) * 3.0).sum()
        y.backward()
        once = x.grad.copy()
        y.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_backward_keeps_grad_only_on_leaves(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * x
        h.sum().backward()
        assert h.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        (x * 3.0).sum().backward()
        assert x.grad.shape == x.data.shape
