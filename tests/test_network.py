"""Forward/backward correctness for the masked network layers."""

import copy
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (apply_scaling, col2im_add_at, conv2d_sliding_window,
                     conv_weight_grad_in_batch_order, im2col_indices)
from tscnc import network
from tscnc.checkpoint import load_checkpoint, save_checkpoint
from tscnc.errors import DimensionError, StateError, ValidationError
from tscnc.network import (
    Gradients,
    MaskedLayer,
    Network,
    backward,
    build_cnn,
    build_mlp,
    build_network,
    cross_entropy,
    forward,
    loss_gradients,
)
from tscnc.pruning import apply_masks
from tscnc.tensor_ops import conv_output_size
from tscnc.trainer import sgd_step


# ---------------------------------------------------------------- oracles


def loss_of(net, x, y):
    logits, _ = forward(net, x)
    return cross_entropy(logits, y)[0]


def fd_weight_grad(net, x, y, li, h=1e-6):
    """Central finite differences of the loss w.r.t. every entry of W[li]."""
    W = net.layers[li].W
    g = np.zeros_like(W)
    it = np.nditer(W, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = W[ix]
        W[ix] = orig + h
        net.bump()
        lp = loss_of(net, x, y)
        W[ix] = orig - h
        net.bump()
        lm = loss_of(net, x, y)
        W[ix] = orig
        net.bump()
        g[ix] = (lp - lm) / (2 * h)
        it.iternext()
    return g


def fd_bias_grad(net, x, y, li, h=1e-6):
    b = net.layers[li].b
    g = np.zeros_like(b)
    for i in range(b.size):
        orig = b[i]
        b[i] = orig + h
        net.bump()
        lp = loss_of(net, x, y)
        b[i] = orig - h
        net.bump()
        lm = loss_of(net, x, y)
        b[i] = orig
        net.bump()
        g[i] = (lp - lm) / (2 * h)
    return g


def single_linear_net(W, b=None):
    fan_in, fan_out = W.shape
    if b is None:
        b = np.zeros(fan_out)
    layer = MaskedLayer(
        kind="linear", W=W.astype(float), Z=np.ones_like(W, dtype=float),
        b=np.asarray(b, dtype=float),
    )
    return Network(layers=[layer], input_shape=(fan_in,), class_count=fan_out)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------- forward


class TestForward:
    def test_identity_linear_is_identity(self):
        net = single_linear_net(np.eye(4))
        x = np.arange(12, dtype=float).reshape(3, 4)
        logits, _ = forward(net, x)
        assert np.array_equal(logits, x)

    def test_output_that_misses_class_count_rejected(self):
        net = single_linear_net(np.eye(3))
        net.class_count = 2
        with pytest.raises(DimensionError, match=r"expected \(batch, 2\)"):
            forward(net, np.zeros((1, 3)))

    def test_fully_pruned_net_outputs_zero(self):
        net = build_mlp(5, [7], 3, seed=1)
        apply_masks(net, {li: np.zeros_like(net.layers[li].Z)
                          for li in net.parameterized_indices()})
        logits, _ = forward(net, np.random.default_rng(0).normal(size=(4, 5)))
        assert np.array_equal(logits, np.zeros((4, 3)))

    def test_two_layer_mlp_matches_straight_line_eval(self):
        rng = np.random.default_rng(42)
        net = build_mlp(6, [8], 3, seed=42)
        x = rng.normal(size=(5, 6))
        logits, _ = forward(net, x)
        # independent straight-line evaluation
        W0, b0 = net.layers[0].W, net.layers[0].b
        W1, b1 = net.layers[2].W, net.layers[2].b
        hand = np.maximum(x @ W0 + b0, 0.0) @ W1 + b1
        assert np.abs(logits - hand).max() <= 1e-12

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv_layer_matches_sliding_window(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        k, c_in, c_out = 3, 2, 4
        layer = MaskedLayer(
            kind="conv2d",
            W=rng.normal(size=(c_out, c_in * k * k)),
            Z=np.ones((c_out, c_in * k * k)),
            b=rng.normal(size=c_out),
            kernel_size=k, stride=stride, pad=pad,
        )
        x = rng.normal(size=(3, c_in, 6, 5))
        oh = (6 + 2 * pad - k) // stride + 1
        ow = (5 + 2 * pad - k) // stride + 1
        net = Network(
            layers=[layer, MaskedLayer(kind="flatten")],
            input_shape=(c_in, 6, 5),
            class_count=c_out * oh * ow,
        )
        logits, _ = forward(net, x)
        want = conv2d_sliding_window(x, layer.W, layer.b, k, stride, pad)
        assert np.abs(logits - want.reshape(3, -1)).max() <= 1e-12

    def test_input_shape_mismatch_raises(self):
        net = build_mlp(4, [], 2, seed=0)
        with pytest.raises(DimensionError):
            forward(net, np.zeros((3, 5)))

    def test_forward_is_deterministic(self):
        net = build_cnn((1, 6, 6), [3], 8, 4, seed=3)
        x = np.random.default_rng(7).normal(size=(2, 1, 6, 6))
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert np.array_equal(a, b)

    def test_masked_weights_do_not_reach_output(self):
        # noise written under a mask is zeroed by the next apply_masks, so
        # the output does not move, exactly
        rng = np.random.default_rng(11)
        net = build_mlp(6, [10], 3, seed=11)
        masks = {li: rng.uniform(size=net.layers[li].Z.shape) > 0.5
                 for li in net.parameterized_indices()}
        apply_masks(net, masks)
        x = rng.normal(size=(4, 6))
        before, _ = forward(net, x)
        for li, mask in masks.items():
            layer = net.layers[li]
            layer.W = np.where(mask, layer.W, rng.normal(size=layer.W.shape))
        apply_masks(net, masks)
        after, _ = forward(net, x)
        assert np.array_equal(before, after)


# ---------------------------------------------------------------- loss


class TestCrossEntropy:
    def test_uniform_logits_gives_log_c(self):
        loss, _ = cross_entropy(np.zeros((4, 10)), np.array([0, 3, 7, 9]))
        assert abs(loss - np.log(10.0)) <= 1e-12

    def test_label_count_must_match_batch(self):
        with pytest.raises(DimensionError, match="does not match batch 3"):
            cross_entropy(np.zeros((3, 2)), np.array([0, 1]))

    def test_large_true_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        loss, _ = cross_entropy(logits, np.array([2]))
        assert loss <= 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        _, grad = cross_entropy(logits, y)
        h = 1e-6
        fd = np.zeros_like(logits)
        for i in range(6):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += h
                lm = logits.copy()
                lm[i, j] -= h
                fd[i, j] = (cross_entropy(lp, y)[0] - cross_entropy(lm, y)[0]) / (2 * h)
        assert rel_err(grad, fd) <= 1e-5

    def test_label_out_of_range_raises(self):
        with pytest.raises(DimensionError,
                           match="^label 3 does not fit a network with 3 classes$"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(DimensionError,
                           match="^label -1 does not fit a network with 3 classes$"):
            cross_entropy(np.zeros((1, 3)), np.array([-1]))

    @pytest.mark.parametrize("label", [1.7, 0.5, -0.5, np.nan, np.inf, -np.inf])
    def test_label_that_is_not_a_whole_number_rejected(self, label):
        with pytest.raises(ValidationError, match="whole numbers"):
            cross_entropy(np.zeros((6, 3)), [label] * 6)

    def test_whole_number_float_labels_accepted(self):
        logits = np.random.default_rng(4).normal(size=(6, 3))
        loss, grad = cross_entropy(logits, [1.0, 0.0, 2.0] * 2)
        want_loss, want_grad = cross_entropy(logits, np.array([1, 0, 2] * 2))
        assert loss == want_loss and np.array_equal(grad, want_grad)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(8, 5))
        _, grad = cross_entropy(logits, rng.integers(0, 5, size=8))
        assert np.abs(grad.sum(axis=1)).max() <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_rows_rejected(self):
        # the mean over no rows is undefined; it is no NaN loss
        with pytest.raises(DimensionError, match="rows"):
            cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------- backward


class TestBackward:
    def test_grad_logits_shape_must_match(self):
        net = single_linear_net(np.eye(3))
        _, cache = forward(net, np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=r"expected \(2, 3\)"):
            backward(net, cache, np.zeros((1, 3)))

    def test_sum_loss_linear_layout(self):
        # L = sum(z) with one sample: dW[i, j] = a[i] for every output j
        rng = np.random.default_rng(2)
        net = single_linear_net(rng.normal(size=(5, 3)))
        a = rng.normal(size=(1, 5))
        logits, cache = forward(net, a)
        grads = backward(net, cache, np.ones_like(logits))
        want = np.outer(a[0], np.ones(3))
        assert np.abs(grads.weight[0] - want).max() <= 1e-15
        assert np.array_equal(grads.bias[0], np.ones(3))

    @pytest.mark.parametrize("arch", ["cnn-2-8", "mlp-8"])
    def test_zero_rows_forward_and_backward(self, arch):
        # image input, so the MLP starts with a flatten layer too
        net = build_network(arch, (1, 4, 4), 3, seed=0)
        logits, cache = forward(net, np.zeros((0, 1, 4, 4)))
        assert logits.shape == (0, 3)
        grads = backward(net, cache, logits)
        assert grads.input.shape == (0, 1, 4, 4)
        for li in net.parameterized_indices():
            assert np.array_equal(grads.weight[li], np.zeros_like(net.layers[li].W))
            assert np.array_equal(grads.bias[li], np.zeros_like(net.layers[li].b))
        only_input = backward(net, cache, logits, weights=False)
        assert only_input.input.shape == (0, 1, 4, 4)

    def test_zero_upstream_grad_gives_zero_everywhere(self):
        net = build_cnn((1, 5, 5), [2], 6, 3, seed=0)
        x = np.random.default_rng(1).normal(size=(2, 1, 5, 5))
        logits, cache = forward(net, x)
        grads = backward(net, cache, np.zeros_like(logits))
        for li in net.parameterized_indices():
            assert np.array_equal(grads.weight[li], np.zeros_like(grads.weight[li]))
            assert np.array_equal(grads.bias[li], np.zeros_like(grads.bias[li]))
        assert np.array_equal(grads.input, np.zeros_like(x))

    def test_all_layer_gradients_match_finite_differences(self):
        # conv and fc analytic gradients against central differences
        rng = np.random.default_rng(123)
        net = build_cnn((1, 6, 6), [2, 3], 10, 3, seed=123)
        x = rng.normal(size=(3, 1, 6, 6)) * 0.5
        y = rng.integers(0, 3, size=3)
        logits, cache = forward(net, x)
        _, grad_logits = cross_entropy(logits, y)
        grads = backward(net, cache, grad_logits)
        for li in net.parameterized_indices():
            fdW = fd_weight_grad(net, x, y, li)
            assert rel_err(grads.weight[li], fdW) <= 1e-4
            fdb = fd_bias_grad(net, x, y, li)
            assert rel_err(grads.bias[li], fdb) <= 1e-4

    def test_mlp_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        net = build_mlp(7, [9, 6], 4, seed=77)
        x = rng.normal(size=(5, 7))
        y = rng.integers(0, 4, size=5)
        logits, cache = forward(net, x)
        _, grad_logits = cross_entropy(logits, y)
        grads = backward(net, cache, grad_logits)
        for li in net.parameterized_indices():
            fdW = fd_weight_grad(net, x, y, li)
            assert rel_err(grads.weight[li], fdW) <= 1e-4

    def test_stale_cache_rejected(self):
        net = build_mlp(4, [5], 2, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 4))
        logits, cache = forward(net, x)
        net.layers[0].W *= 1.01
        net.bump()
        with pytest.raises(StateError):
            backward(net, cache, np.ones_like(logits))

    def test_masked_entries_report_premask_gradient(self):
        # gradient w.r.t. a masked weight is nonzero even though it holds 0.0;
        # update gating is the optimizer's job
        rng = np.random.default_rng(31)
        net = single_linear_net(rng.normal(size=(4, 3)))
        mask = net.layers[0].Z.copy()
        mask[1, 2] = False
        apply_masks(net, {0: mask})
        x = rng.normal(size=(2, 4))
        y = np.array([0, 1])
        logits, cache = forward(net, x)
        _, gl = cross_entropy(logits, y)
        grads = backward(net, cache, gl)
        want = x.T @ gl
        assert np.abs(grads.weight[0] - want).max() <= 1e-14
        assert grads.weight[0][1, 2] != 0.0


    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("c_in", [1, 3])
    def test_conv_input_gradient_matches_add_at_scatter_bitwise(
        self, k, stride, pad, batch, c_in
    ):
        rng = np.random.default_rng(100 * k + 10 * stride + pad)
        c_out, h, w = 2, 6, 7
        layer = MaskedLayer(
            kind="conv2d",
            W=rng.normal(size=(c_out, c_in * k * k)),
            Z=(rng.random((c_out, c_in * k * k)) > 0.3).astype(float),
            b=rng.normal(size=c_out),
            kernel_size=k, stride=stride, pad=pad,
        )
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        net = Network(
            layers=[layer, MaskedLayer(kind="flatten")],
            input_shape=(c_in, h, w),
            class_count=c_out * oh * ow,
        )
        logits, cache = forward(net, rng.normal(size=(batch, c_in, h, w)))
        gl = rng.normal(size=logits.shape)
        dcols = np.matmul(layer.W.T, gl.reshape(batch, c_out, -1))
        idx = layer.conv_plan(h, w)[0]
        want = col2im_add_at(dcols, idx, (batch, c_in, h, w))
        for weights in (True, False):
            got = backward(net, cache, gl, weights=weights).input
            assert got.shape == (batch, c_in, h, w)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("net", [
        build_mlp(7, [9, 6], 4, seed=3),
        build_cnn((2, 6, 6), [3, 4], 10, 4, seed=3),
    ], ids=["mlp", "cnn"])
    def test_input_only_pass_matches_full_pass_bitwise(self, net):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5,) + net.input_shape)
        logits, cache = forward(net, x)
        _, gl = cross_entropy(logits, rng.integers(0, 4, size=5))
        full = backward(net, cache, gl)
        only = backward(net, cache, gl, weights=False)
        assert np.array_equal(only.input, full.input)
        assert only.weight == {} and only.bias == {}
        assert sorted(full.weight) == sorted(full.bias) == net.parameterized_indices()

    def test_input_only_pass_rejects_stale_cache(self):
        net = build_cnn((1, 5, 5), [2], 6, 3, seed=0)
        logits, cache = forward(net, np.zeros((2, 1, 5, 5)))
        net.bump()
        with pytest.raises(StateError):
            backward(net, cache, np.ones_like(logits), weights=False)


# ---------------------------------------------------------------- conv bits


def same_bits(a, b):
    """Equal values and equal signs of zero."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_CONV_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                          max_examples=150,
                          suppress_health_check=[HealthCheck.too_slow])


def check_conv_bits(c_in, c_out, h, w, k, stride, pad, batch, lead, seed,
                    rows=None):
    """forward and backward of [relu,] conv, relu, flatten, linear against
    out-of-place recomputations: the logits are matmul over the fancy-index
    gather, + bias, then maximum; the input gradient is the add.at scatter;
    dW is each example's product summed in batch order.  rows, if given,
    sets the chunk budget to that many examples' columns."""
    if h + 2 * pad < k or w + 2 * pad < k:
        return
    oh, ow = conv_output_size(h, w, k, stride, pad)
    rng = np.random.default_rng(seed)
    conv = MaskedLayer(kind="conv2d", W=rng.normal(size=(c_out, c_in * k * k)),
                       Z=rng.random((c_out, c_in * k * k)) > 0.3,
                       b=rng.normal(size=c_out), kernel_size=k, stride=stride,
                       pad=pad)
    fc = MaskedLayer(kind="linear", W=rng.normal(size=(c_out * oh * ow, 3)),
                     Z=rng.random((c_out * oh * ow, 3)) > 0.3,
                     b=rng.normal(size=3))
    layers = [conv, MaskedLayer(kind="relu"), MaskedLayer(kind="flatten"), fc]
    if lead:
        layers.insert(0, MaskedLayer(kind="relu"))
    net = Network(layers, (c_in, h, w), 3)
    x = rng.normal(size=(batch, c_in, h, w))
    x[rng.random(x.shape) < 0.3] = -0.0
    x_before = x.copy()
    x.flags.writeable = False  # forward must not write the caller's array
    g = rng.normal(size=(batch, 3))
    budget = network._CHUNK_BYTES if rows is None else (
        rows * c_in * k * k * oh * ow * 8)
    with mock.patch.object(network, "_CHUNK_BYTES", budget):
        logits, cache = forward(net, x)
        full = backward(net, cache, g)
        only = backward(net, cache, g, weights=False)
    ci = int(lead)
    plan = conv.conv_plan(h, w)
    if rows is not None:
        assert len(plan) == rows

    a = np.maximum(x, 0.0) if lead else x
    idx = plan[0]
    flat = np.concatenate([a.reshape(batch, -1), np.zeros((batch, 1))], axis=1)
    # forward multiplies C-ordered columns; the fancy-index gather is not
    z = np.matmul(conv.W, np.ascontiguousarray(flat[:, idx])) + conv.b[:, None]
    r = np.maximum(z, 0.0)
    assert same_bits(logits, r.reshape(batch, -1) @ fc.W + fc.b)

    dz = (g @ fc.W.T).reshape(z.shape) * (z > 0.0)
    dx = col2im_add_at(np.matmul(conv.W.T, dz), idx, a.shape)
    if lead:
        dx = dx * (x > 0.0)
    for grads in (full, only):
        assert same_bits(grads.input, dx)
    assert same_bits(full.weight[ci], conv_weight_grad_in_batch_order(dz, flat, idx))
    assert same_bits(full.bias[ci], dz.sum(axis=(0, 2)))
    assert same_bits(x, x_before)


_GEOMETRY = dict(c_in=st.integers(1, 3), c_out=st.integers(1, 4),
                 h=st.integers(1, 7), w=st.integers(1, 7), k=st.integers(1, 4),
                 stride=st.integers(1, 3), pad=st.integers(0, 2),
                 lead=st.booleans(), seed=st.integers(0, 2 ** 16))


class TestConvBitwise:
    """check_conv_bits at the module's chunk budget and at 1- and 2-row
    chunks: the chunk a row runs in changes none of its bits."""

    @_CONV_SETTINGS
    @given(batch=st.integers(1, 4), **_GEOMETRY)
    @example(c_in=2, c_out=3, h=5, w=4, k=3, stride=2, pad=1, batch=1,
             lead=False, seed=0)
    def test_matches_out_of_place_recomputation(self, **case):
        check_conv_bits(**case)

    @_CONV_SETTINGS
    @given(batch=st.integers(1, 5), rows=st.integers(1, 2), **_GEOMETRY)
    @example(c_in=2, c_out=3, h=5, w=4, k=3, stride=2, pad=1, batch=5,
             lead=True, seed=0, rows=2)
    def test_matches_in_one_and_two_row_chunks(self, **case):
        check_conv_bits(**case)

    @pytest.mark.parametrize("lead, shape, body", [
        ([], (4,), build_mlp(4, [5], 3, seed=3)),
        (["relu"], (4,), build_mlp(4, [5], 3, seed=3)),
        (["flatten", "relu"], (1, 2, 2), build_mlp(4, [5], 3, seed=3)),
        (["relu"], (1, 3, 3), build_cnn((1, 3, 3), [2], 4, 3, seed=3)),
    ], ids=["mlp", "relu-first", "flatten-relu", "relu-conv"])
    def test_forward_leaves_input_unwritten(self, lead, shape, body):
        net = Network([MaskedLayer(kind=k) for k in lead] + body.layers, shape, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, *shape))
        before = x.copy()
        logits, cache = forward(net, x)
        backward(net, cache, np.ones_like(logits))
        assert same_bits(x, before)
        assert np.any(before < 0.0)  # a relu that wrote x would have changed it


class TestConvPlan:
    """Row r of a conv layer's chunk index is the one-example oracle plan
    offset by r * (c_in*h*w + 1), where example r starts in a chunk's
    padded input, at budgets that give 1, 2 and (mostly) many rows."""

    @pytest.mark.parametrize("rows", [1, 2, None], ids=["1-row", "2-row", "default"])
    @pytest.mark.parametrize("c_in", [1, 2, 3, 8])
    def test_rows_are_offset_oracle_plans(self, c_in, rows):
        checked = 0
        for h, w, k, stride, pad in itertools.product(
                range(1, 10), [1, 4, 7, 16], [1, 2, 3, 5], [1, 2, 3], [0, 1, 2]):
            if h + 2 * pad < k or w + 2 * pad < k:
                continue
            idx = im2col_indices(c_in, h, w, k, stride, pad)
            budget = network._CHUNK_BYTES if rows is None else rows * 8 * idx.size
            layer = MaskedLayer(kind="conv2d", W=np.zeros((1, c_in * k * k)),
                                b=np.zeros(1), kernel_size=k, stride=stride,
                                pad=pad)
            with mock.patch.object(network, "_CHUNK_BYTES", budget):
                plan = layer.conv_plan(h, w)
            n = max(1, budget // (8 * idx.size))
            assert plan.shape == (n, *idx.shape)
            assert plan.dtype == idx.dtype and plan.flags.c_contiguous
            starts = np.arange(n)[:, None, None] * (c_in * h * w + 1)
            assert np.array_equal(plan, idx + starts)
            assert layer.conv_plan(h, w) is plan  # memoized
            checked += 1
        assert checked == 1092


class TestConvChunkMemory:
    """tracemalloc peaks of cnn-8x16-32 on 1x16x16 at batch 64.  With
    batch-sized columns and scatter index they were 14.2, 35.4 and 45.4
    MiB; in row chunks about 4.1, 7.4 and 17.4, while the weight pass
    gathered the whole batch's columns once; with its gather in the row
    chunks too, the weight-gradient peak is about 9.6 MiB."""

    @pytest.mark.parametrize("weights, bound_mib", [
        (None, 8.0), (False, 16.0), (True, 12.0),
    ], ids=["forward", "input-gradient", "weight-gradient"])
    def test_peak_is_bounded(self, weights, bound_mib):
        net = build_network("cnn-8x16-32", (1, 16, 16), 10, seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(64, 1, 16, 16))
        g = rng.normal(size=(64, 10))
        tracemalloc.start()
        try:
            logits, cache = forward(net, x)
            if weights is not None:
                backward(net, cache, g, weights=weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20
        for layer in net.layers:
            for plan in layer._plan.values():
                assert plan.nbytes <= network._CHUNK_BYTES + plan[0].nbytes


# ---------------------------------------------------------------- input grad


class TestInputGradient:
    def test_linear_softmax_closed_form(self):
        rng = np.random.default_rng(8)
        W = rng.normal(size=(6, 4))
        net = single_linear_net(W)
        x = rng.normal(size=(3, 6))
        y = rng.integers(0, 4, size=3)
        g = loss_gradients(net, x, y)[1].input
        logits, _ = forward(net, x)
        _, gl = cross_entropy(logits, y)
        want = gl @ W.T
        assert np.abs(g - want).max() <= 1e-14

    def test_loss_gradients_is_forward_cross_entropy_backward(self):
        rng = np.random.default_rng(9)
        net = build_cnn((1, 5, 5), [2], 8, 3, seed=9)
        x = rng.normal(size=(3, 1, 5, 5))
        y = rng.integers(0, 3, size=3)
        logits, cache = forward(net, x)
        want_loss, gl = cross_entropy(logits, y)
        want = backward(net, cache, gl)
        loss, full = loss_gradients(net, x, y)
        assert loss == want_loss
        assert np.array_equal(full.input, want.input)
        for li in net.parameterized_indices():
            assert np.array_equal(full.weight[li], want.weight[li])
            assert np.array_equal(full.bias[li], want.bias[li])
        # its input gradient is bitwise that of the input-only pass
        lean = backward(net, cache, gl, weights=False)
        assert np.array_equal(full.input, lean.input)

    def test_constant_logits_give_zero_gradient(self):
        net = single_linear_net(np.zeros((5, 3)), b=np.array([1.0, 2.0, 3.0]))
        x = np.random.default_rng(0).normal(size=(4, 5))
        g = loss_gradients(net, x, np.array([0, 1, 2, 0]))[1].input
        assert np.array_equal(g, np.zeros_like(x))

    def test_cnn_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        net = build_cnn((1, 5, 5), [2], 8, 3, seed=55)
        x = rng.normal(size=(2, 1, 5, 5)) * 0.3
        y = rng.integers(0, 3, size=2)
        g = loss_gradients(net, x, y)[1].input
        h = 1e-6
        flat = x.reshape(-1)
        for pix in rng.choice(flat.size, size=20, replace=False):
            xp = flat.copy()
            xp[pix] += h
            xm = flat.copy()
            xm[pix] -= h
            fd = (
                loss_of(net, xp.reshape(x.shape), y)
                - loss_of(net, xm.reshape(x.shape), y)
            ) / (2 * h)
            want = g.reshape(-1)[pix]
            assert abs(fd - want) <= 1e-4 * max(1.0, abs(fd))


# ---------------------------------------------------------------- scaling


class TestApplyScaling:
    def test_mu_one_is_identity(self):
        net = build_mlp(5, [6], 3, seed=4)
        scaled = apply_scaling(net, 0, 1.0)
        for a, b in zip(net.layers, scaled.layers):
            if a.parameterized:
                assert np.array_equal(a.W, b.W)
                assert np.array_equal(a.b, b.b)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 2.0, 10.0])
    def test_relu_mlp_logits_unchanged(self, mu):
        rng = np.random.default_rng(13)
        net = build_mlp(6, [9], 4, seed=13)
        x = rng.normal(size=(5, 6))
        before, _ = forward(net, x)
        after, _ = forward(apply_scaling(net, 0, mu), x)
        assert np.abs(before - after).max() <= 1e-10

    def test_conv_relu_fc_logits_unchanged(self):
        rng = np.random.default_rng(21)
        net = build_cnn((1, 5, 5), [3], 7, 2, seed=21)
        x = rng.normal(size=(3, 1, 5, 5))
        before, _ = forward(net, x)
        # scale the second conv against the first fc, across flatten
        after, _ = forward(apply_scaling(net, 0, 0.5), x)
        assert np.abs(before - after).max() <= 1e-10

    def test_nonpositive_mu_rejected(self):
        net = build_mlp(4, [4], 2, seed=0)
        for mu in (0.0, -1.0):
            with pytest.raises(ValidationError):
                apply_scaling(net, 0, mu)

    def test_original_network_untouched(self):
        net = build_mlp(4, [4], 2, seed=6)
        w0 = net.layers[0].W.copy()
        apply_scaling(net, 0, 3.0)
        assert np.array_equal(net.layers[0].W, w0)


# ---------------------------------------------------------------- builders


class TestBuilders:
    def test_registry_mlp(self):
        net = build_network("mlp-16x8", (12,), 5, seed=0)
        widths = [l.W.shape for l in net.layers if l.parameterized]
        assert widths == [(12, 16), (16, 8), (8, 5)]

    def test_registry_mlp_on_image_input_flattens(self):
        net = build_network("mlp-10", (1, 4, 4), 3, seed=0)
        assert net.layers[0].kind == "flatten"
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        logits, _ = forward(net, x)
        assert logits.shape == (2, 3)

    def test_registry_cnn(self):
        net = build_network("cnn-4x6-20", (1, 8, 8), 10, seed=0)
        kinds = [l.kind for l in net.layers]
        assert kinds == [
            "conv2d", "relu", "conv2d", "relu", "flatten", "linear", "relu", "linear",
        ]
        logits, _ = forward(net, np.zeros((2, 1, 8, 8)))
        assert logits.shape == (2, 10)

    def test_unknown_architecture_rejected(self):
        # widths are positive decimals: no zero, sign, space or underscore
        for arch in ("vgg-16", "mlp-abc", "cnn-4", "cnn-4x6-x", "mlp-0",
                     "mlp--1", "cnn-0-3", "cnn-4x0-8", "mlp-3_0", "mlp-+3",
                     "mlp- 3"):
            for shape in ((4,), (1, 4, 4)):
                with pytest.raises(ValidationError):
                    build_network(arch, shape, 2, seed=0)

    def test_logistic_regression_id(self):
        net = build_network("mlp", (7,), 3, seed=0)
        assert len([l for l in net.layers if l.parameterized]) == 1


def check_shape_rule(net, x):
    """Forward x through net; the shape rule must predict every shape seen."""
    logits, cache = forward(net, x)
    assert net.output_shape() == logits.shape[1:]
    seen = cache.inputs + [logits]
    for li, layer in enumerate(net.layers):
        assert layer.output_shape(seen[li].shape[1:]) == seen[li + 1].shape[1:]


# Hypothesis: well-formed mlp and cnn ids, and ids joined from any name and
# groups, malformed widths among them.  Every width drawn is at most 200, so
# no draw asks numpy for a large array.
_RULE_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                          max_examples=120,
                          suppress_health_check=[HealthCheck.too_slow])
_MALFORMED = ["0", "", "-1", "03", "3_0", "+3", " 3", "x", "a"]
_WIDTH = st.integers(1, 200).map(str)
_GROUP = st.lists(_WIDTH, min_size=1, max_size=2).map("x".join)
_IDS = (st.builds("mlp-{}".format, _GROUP)
        | st.builds("cnn-{}-{}".format, _GROUP, _WIDTH)
        | st.builds(
            lambda name, groups: "-".join([name, *groups]),
            st.sampled_from(["mlp", "cnn", "vgg"]),
            st.lists(_GROUP | st.sampled_from(_MALFORMED), max_size=3)))
_SHAPES = (st.tuples(st.integers(1, 6))
           | st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 4)))


class TestShapeRule:
    @_RULE_SETTINGS
    @given(arch=_IDS, shape=_SHAPES, classes=st.integers(1, 4),
           seed=st.integers(0, 3))
    def test_short_ids_build_or_raise_validation_error(self, arch, shape,
                                                       classes, seed):
        try:
            net = build_network(arch, shape, classes, seed=seed)
        except ValidationError:
            return
        x = np.random.default_rng(seed).normal(size=(3,) + shape)
        check_shape_rule(net, x)
        assert net.output_shape() == (classes,)

    @_RULE_SETTINGS
    @given(k=st.integers(1, 4), stride=st.integers(1, 3), pad=st.integers(0, 2),
           h=st.integers(1, 7), w=st.integers(1, 7))
    @example(k=3, stride=2, pad=0, h=7, w=6)
    def test_conv_geometry(self, k, stride, pad, h, w):
        rng = np.random.default_rng(k + 10 * stride + 100 * pad)
        conv = MaskedLayer(kind="conv2d", W=rng.normal(size=(2, 2 * k * k)),
                           b=rng.normal(size=2), kernel_size=k, stride=stride,
                           pad=pad)
        layers = [conv, MaskedLayer(kind="relu"), MaskedLayer(kind="flatten")]
        x = rng.normal(size=(2, 2, h, w))
        if h + 2 * pad < k or w + 2 * pad < k:
            with pytest.raises(DimensionError):
                conv_output_size(h, w, k, stride, pad)
            with pytest.raises(DimensionError):
                forward(Network(layers, (2, h, w), 1), x)
            return
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        assert conv_output_size(h, w, k, stride, pad) == (oh, ow)
        check_shape_rule(Network(layers, (2, h, w), 2 * oh * ow), x)

    def test_conv_weight_width_must_fit_the_input_channels(self):
        # 9 columns are one channel of 3x3 taps, not the input's 2; the
        # channel counts are read off W, so the layer cannot contradict it
        conv = MaskedLayer(kind="conv2d", W=np.ones((4, 9)), b=np.zeros(4),
                           kernel_size=3, pad=1)
        assert (conv.in_channels, conv.out_channels) == (1, 4)
        net = Network([conv, MaskedLayer(kind="flatten")], (2, 5, 5), 100)
        with pytest.raises(DimensionError, match="cannot take"):
            net.output_shape()
        with pytest.raises(DimensionError, match="cannot take"):
            forward(net, np.zeros((1, 2, 5, 5)))

    @pytest.mark.parametrize("b_len", [1, 5])
    def test_linear_bias_must_be_fan_out(self, b_len):
        # length 1 used to broadcast silently, length 5 to fail in numpy
        linear = MaskedLayer(kind="linear", W=np.ones((3, 2)), b=np.zeros(b_len))
        net = Network([linear], (3,), 2)
        with pytest.raises(DimensionError, match=r"bias of shape \(2,\)"):
            linear.output_shape((3,))
        with pytest.raises(DimensionError, match="bias"):
            forward(net, np.zeros((4, 3)))

    def test_conv_bias_must_be_c_out(self):
        conv = MaskedLayer(kind="conv2d", W=np.ones((2, 9)), b=np.zeros(3),
                           kernel_size=3, pad=1)
        net = Network([conv, MaskedLayer(kind="flatten")], (1, 4, 4), 32)
        with pytest.raises(DimensionError, match=r"bias of shape \(2,\)"):
            net.output_shape()
        with pytest.raises(DimensionError, match="bias"):
            forward(net, np.zeros((1, 1, 4, 4)))

    @pytest.mark.parametrize("k, width", [(0, 9), (-1, 1)])
    def test_conv_kernel_size_must_be_positive(self, k, width):
        # 0 is the dataclass default, so a conv built without a kernel has it
        conv = MaskedLayer(kind="conv2d", W=np.ones((2, width)), b=np.zeros(2),
                           kernel_size=k)
        net = Network([conv, MaskedLayer(kind="flatten")], (1, 3, 3), 18)
        with pytest.raises(DimensionError, match="kernel_size must be >= 1"):
            net.output_shape()
        with pytest.raises(DimensionError, match="kernel_size must be >= 1"):
            forward(net, np.zeros((1, 1, 3, 3)))

    def test_rule_rejects_shapes_a_layer_cannot_take(self):
        net = build_cnn((1, 5, 5), [2], 6, 3, seed=0)
        conv, linear = net.layers[0], net.layers[3]
        for layer, shape in ((conv, (2, 5, 5)), (conv, (5, 5)),
                             (linear, (49,)), (linear, (1, 50))):
            with pytest.raises(DimensionError):
                layer.output_shape(shape)
        with pytest.raises(ValidationError):
            MaskedLayer(kind="pool").output_shape((1, 5, 5))


# ---------------------------------------------------------------- masks


def _random_masked_nets(seed):
    """An MLP and a CNN with random weights and random masks, not yet applied."""
    rng = np.random.default_rng(seed)
    out = []
    for net in (build_mlp(6, [5, 4], 3, seed=seed),
                build_cnn((2, 5, 5), [3], 6, 4, seed=seed)):
        for li in net.parameterized_indices():
            net.layers[li].W = rng.normal(size=net.layers[li].W.shape)
        masks = {li: rng.uniform(size=net.layers[li].W.shape) > 0.4
                 for li in net.parameterized_indices()}
        out.append((net, masks))
    return out


def _assert_stored_zeros(net):
    for li in net.parameterized_indices():
        layer = net.layers[li]
        assert layer.Z.dtype == bool
        # +0.0 exactly: the bit pattern, not just == 0.0, which -0.0 passes
        assert np.all(layer.W.view(np.uint64)[~layer.Z] == 0)


class TestMaskRepresentation:
    def test_apply_masks_stores_bool_mask_and_zeros(self):
        for net, masks in _random_masked_nets(0):
            live = {li: net.layers[li].W.copy() for li in masks}
            apply_masks(net, masks)
            _assert_stored_zeros(net)
            for li, mask in masks.items():
                assert np.array_equal(net.layers[li].Z, mask)
                assert np.array_equal(net.layers[li].W.view(np.uint64)[mask],
                                      live[li].view(np.uint64)[mask])

    def test_sgd_steps_keep_stored_zeros(self):
        rng = np.random.default_rng(1)
        for net, masks in _random_masked_nets(1):
            apply_masks(net, masks)
            velocity = {}
            for _ in range(3):
                pis = net.parameterized_indices()
                grads = Gradients(
                    None,
                    weight={li: rng.normal(size=net.layers[li].W.shape) for li in pis},
                    bias={li: rng.normal(size=net.layers[li].b.shape) for li in pis},
                )
                sgd_step(net, grads, velocity, lr=0.1, momentum=0.9,
                         weight_decay=5e-4)
            _assert_stored_zeros(net)
            assert all(np.array_equal(net.layers[li].Z, m) for li, m in masks.items())

    def test_checkpoint_round_trip_is_bitwise(self, tmp_path):
        for i, (net, masks) in enumerate(_random_masked_nets(2)):
            apply_masks(net, masks)
            path = tmp_path / f"n{i}.tscn"
            save_checkpoint(path, net)
            back = load_checkpoint(path).net
            _assert_stored_zeros(back)
            for li in net.parameterized_indices():
                a, b = net.layers[li], back.layers[li]
                assert np.array_equal(a.W.view(np.uint64), b.W.view(np.uint64))
                assert np.array_equal(a.b.view(np.uint64), b.b.view(np.uint64))
                assert np.array_equal(a.Z, b.Z)

    def test_file_with_weights_under_its_mask_loads_zeroed(self, tmp_path):
        # assigning Z by hand leaves W nonzero under the mask, as a file
        # written when masks were applied by multiplication on every read
        for i, (net, masks) in enumerate(_random_masked_nets(3)):
            oracle = copy.deepcopy(net)
            for li, mask in masks.items():
                net.layers[li].Z = mask
                oracle.layers[li].W = net.layers[li].W * mask
                assert np.any(net.layers[li].W[~mask] != 0.0)
            path = tmp_path / f"old{i}.tscn"
            save_checkpoint(path, net)
            back = load_checkpoint(path).net
            _assert_stored_zeros(back)
            x = np.random.default_rng(i).uniform(size=(4,) + net.input_shape)
            got, _ = forward(back, x)
            want, _ = forward(oracle, x)
            assert np.array_equal(got, want)
