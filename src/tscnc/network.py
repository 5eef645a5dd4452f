"""Masked feed-forward networks with exact reverse-mode gradients.

Layers are plain dataclasses, parameters are float64 numpy arrays, and every
parameterized layer carries a bool mask Z.  A pruned weight is a stored +0.0
in W, so forward and backward read W as it is.  Convolution weights are
stored pre-flattened as (c_out, c_in*k*k) so the matrix view used by the
condition-number and saliency paths is the storage layout itself.

``backward`` returns the input gradient and each parameterized layer's dW
and db; ``backward(..., weights=False)`` computes the input gradient only,
for attacks and Lipschitz estimates.  ``loss_gradients`` is the
cross-entropy pass (forward, loss, backward) that saliency and training
run.  Each attack step runs ``_input_gradient`` instead: the same pass with
no label check and no loss value, since ``_labels`` checked the labels once
per attack, and the same input-gradient bits, since both take the softmax
arithmetic from ``_softmax_terms``.  A conv layer works in row chunks, as
many examples as fit their patch columns in _CHUNK_BYTES (256 KiB, about an
L2 cache), so forward and backward build no batch-sized column matrix or
scatter index.  Its memoized chunk index (``MaskedLayer.conv_plan``) is the
flat position of every patch tap in a chunk's flattened input, each example
with one zero sentinel column appended where every padding tap points; it
is cut in one step from a grid of those positions by
``sliding_window_view``.  forward gathers a chunk by ``np.take`` and runs
each example's ``np.matmul`` into one preallocated output; the input
gradient scatters each chunk's ``W.T @ dz`` back through the same index by
one ``np.bincount``, which adds in the same order as an element-wise
``np.add.at``, and drops the sentinel bins.  The weight pass gathers each chunk's columns as forward does and
adds each example's ``dz_b @ cols_b.T``, one BLAS product, into dW in batch
order.  Each example's products and bins are its own, so the chunking
changes no bit.

Each bias is added in place to the fresh product of its layer, and a ReLU
right after a parameterized layer rectifies that fresh output in place, so
its cached input is its rectified output; ``max(a, 0) > 0`` holds exactly
where ``a > 0``, so backward's mask is unchanged.  No layer writes the
caller's array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, StateError, ValidationError
from .tensor_ops import as_tensor, conv_output_size

_PARAM_KINDS = ("linear", "conv2d")
# bytes of patch columns one conv chunk holds: about an L2 cache
_CHUNK_BYTES = 256 * 1024


@dataclass
class MaskedLayer:
    """One layer of a network.

    kind is one of "linear", "conv2d", "relu", "flatten".  Parameterized
    kinds carry W, Z, b; the others carry no state.  Linear weights are
    stored (fan_in, fan_out) so a batch forward is x @ W + b; conv weights
    are stored (c_out, c_in*k*k), the channel counts read off that shape.
    A layer built without Z is all live.
    """

    kind: str
    W: np.ndarray | None = None
    Z: np.ndarray | None = None
    b: np.ndarray | None = None
    kernel_size: int = 0
    stride: int = 1
    pad: int = 0
    # memoized conv_plan chunk index, keyed by input (h, w)
    _plan: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def parameterized(self) -> bool:
        return self.kind in _PARAM_KINDS

    @property
    def in_channels(self) -> int:
        return self.W.shape[1] // self.kernel_size ** 2

    @property
    def out_channels(self) -> int:
        return self.W.shape[0]

    def __post_init__(self):
        if self.W is not None:
            self.set_mask(np.ones(self.W.shape, bool) if self.Z is None else self.Z)

    def set_mask(self, Z) -> None:
        """Store Z as a bool mask (True = live), W as +0.0 under it; Z's one writer."""
        Z = np.array(Z, dtype=bool)
        if Z.shape != self.W.shape:
            raise ValidationError(f"mask shape {Z.shape} does not match "
                                  f"weight shape {self.W.shape}")
        self.Z, self.W = Z, np.where(Z, self.W, 0.0)

    def effective_weight(self) -> np.ndarray:
        """Alias of W, kept for perfbench/workloads.py; the package reads W."""
        return self.W

    def output_shape(self, shape: tuple) -> tuple:
        """One example's output shape for input ``shape``, or DimensionError:
        the one shape rule that forward, the builders and load_checkpoint read.
        A parameterized layer's b must be (fan_out,) or (c_out,)."""
        kind, k = self.kind, self.kernel_size
        if kind == "relu":
            return shape
        if kind == "flatten":
            return (math.prod(shape),)
        if kind == "linear":
            fan_in, fan_out = self.W.shape
            if shape != (fan_in,):
                raise DimensionError(f"linear layer expects ({fan_in},), got {shape}")
            out = (fan_out,)
        elif kind == "conv2d":
            if k < 1:
                raise DimensionError(f"conv kernel_size must be >= 1, got {k}")
            if len(shape) != 3 or shape[0] * k ** 2 != self.W.shape[1]:
                raise DimensionError(f"conv layer of weight {self.W.shape}, kernel "
                                     f"{k} cannot take {shape}")
            out = (self.out_channels, *conv_output_size(
                shape[1], shape[2], k, self.stride, self.pad))
        else:
            raise ValidationError(f"unknown layer kind {kind!r}")
        if np.shape(self.b) != out[:1]:
            raise DimensionError(f"{kind} layer of weight {self.W.shape} needs a "
                                 f"bias of shape {out[:1]}, got {np.shape(self.b)}")
        return out

    def conv_plan(self, h: int, w: int) -> np.ndarray:
        """The chunk index for input (h, w), memoized: (rows, c_in*k*k, oh*ow).

        Entry [r, (c, i, j), o] is the position, in a chunk's _padded input,
        of tap (i, j) of channel c in output position o's patch of example
        r: r*(c_in*h*w + 1) plus its flat position in (c_in, h, w), or
        example r's sentinel, r*(c_in*h*w + 1) + c_in*h*w, for a padding
        tap.  rows is as many examples as fit their columns in _CHUNK_BYTES.
        """
        key = (h, w)
        if key not in self._plan:
            c, k, s, p = self.in_channels, self.kernel_size, self.stride, self.pad
            oh, ow = conv_output_size(h, w, k, s, p)
            rows = max(1, _CHUNK_BYTES // (8 * c * k * k * oh * ow))  # float64
            size = c * h * w + 1  # + the sentinel column
            starts = np.arange(0, rows * size, size)[:, None, None, None]
            grid = np.empty((rows, c, h + 2 * p, w + 2 * p), np.intp)
            grid[...] = starts + (size - 1)  # the padding ring: the sentinel
            grid[..., p:p + h, p:p + w] = starts + np.arange(size - 1).reshape(c, h, w)
            win = sliding_window_view(grid, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            # (rows, c, oh, ow, k, k) -> (rows, c, k, k, oh, ow)
            self._plan[key] = np.ascontiguousarray(
                win.transpose(0, 1, 4, 5, 2, 3).reshape(rows, c * k * k, oh * ow))
        return self._plan[key]


@dataclass
class Network:
    layers: list
    input_shape: tuple
    class_count: int
    # bumped on every in-place parameter mutation; guards stale caches
    version: int = 0

    def bump(self) -> None:
        self.version += 1

    def parameterized_indices(self) -> list:
        return [i for i, l in enumerate(self.layers) if l.parameterized]

    def prunable_indices(self) -> list:
        """Alias of parameterized_indices, kept for perfbench/workloads.py."""
        return self.parameterized_indices()

    def output_shape(self) -> tuple:
        """One example's logits shape: each layer's rule from input_shape."""
        shape = tuple(self.input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape


@dataclass
class ForwardCache:
    """Each layer's input, retained by forward for the matching backward.

    No patch columns are kept: backward gathers each chunk's again when it
    takes dW.  The entry in inputs of a ReLU that follows a parameterized
    layer is the ReLU's rectified output, which is also the next layer's
    input.
    """

    net_id: int
    version: int
    inputs: list
    batch: int


@dataclass
class Gradients:
    """dL/dx, and dW and db keyed by parameterized layer index."""

    input: np.ndarray
    weight: dict
    bias: dict


def forward(net: Network, x) -> tuple:
    """Run the network on a batch, returning (logits, cache).

    x has shape (batch,) + net.input_shape.  The cache holds each layer's
    input, all that backward reads, and is invalidated by any mutation of
    the network's parameters.
    """
    x = as_tensor(x)
    shape = tuple(net.input_shape)
    if x.shape[1:] != shape:
        raise DimensionError(f"input shape {x.shape[1:]} does not match network "
                             f"input shape {shape}")
    batch, inputs, a = x.shape[0], [], x
    for li, layer in enumerate(net.layers):
        inputs.append(a)
        out = layer.output_shape(shape)
        if layer.kind == "linear":
            a = a @ layer.W
            a += layer.b
        elif layer.kind == "conv2d":
            plan, flat = layer.conv_plan(shape[1], shape[2]), _padded(a)
            z = np.empty((batch, layer.out_channels, plan.shape[2]))
            for lo in range(0, batch, len(plan)):
                part = flat[lo:lo + len(plan)]
                np.matmul(layer.W, np.take(part, plan[:len(part)]),
                          out=z[lo:lo + len(part)])
            z += layer.b[:, None]
            a = z.reshape((batch, *out))
        elif layer.kind == "relu":
            if li and net.layers[li - 1].parameterized:
                np.maximum(a, 0.0, out=a)  # a is that layer's fresh output
            else:
                a = np.maximum(a, 0.0)
        else:  # flatten
            a = a.reshape((batch, *out))
        shape = out
    if shape != (net.class_count,):
        raise DimensionError(
            f"network produced shape {a.shape}, expected (batch, {net.class_count})"
        )
    return a, ForwardCache(id(net), net.version, inputs, batch)


def _padded(a) -> np.ndarray:
    """a's examples flattened, each with the zero sentinel column appended."""
    batch = len(a)
    return np.concatenate([a.reshape(batch, math.prod(a.shape[1:])),
                           np.zeros((batch, 1))], axis=1)


def _labels(labels, shape) -> np.ndarray:
    """labels as the int64 targets of logits of shape (rows, c), checked.

    rows must be at least 1, and labels a (rows,) vector of whole numbers,
    floats such as 1.0 included: any other label is a ValidationError.
    Each must lie in [0, c): a label outside is a DimensionError, since it
    does not fit the network.  cross_entropy runs this check on every call,
    pgd and evaluate once for all their steps.
    """
    if len(shape) != 2 or shape[0] == 0:
        raise DimensionError(f"logits must be (rows >= 1, c), got {shape}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != shape[0]:
        raise DimensionError(f"labels shape {y.shape} does not match batch {shape[0]}")
    if y.dtype.kind not in "biu":
        y = as_tensor(y)
        whole = np.isfinite(y) & (np.floor(y) == y)
        if not whole.all():
            raise ValidationError(f"labels must be whole numbers, got {y[~whole][0]}")
    lo, hi, c = y.min(), y.max(), shape[1]
    if lo < 0 or hi >= c:
        raise DimensionError(f"label {int(lo if lo < 0 else hi)} does not fit a "
                             f"network with {c} classes")
    return y.astype(np.int64, copy=False)


def _softmax_terms(logits, labels) -> tuple:
    """(log-softmax of logits, the mean cross-entropy's gradient w.r.t. the
    logits) for labels that _labels passed; stabilized by row-max
    subtraction.  cross_entropy and _input_gradient share these bits."""
    logp = logits - logits.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return logp, grad


def cross_entropy(logits, labels) -> tuple:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Labels must be whole numbers in [0, c), and an empty batch, whose mean
    is undefined, is a DimensionError.
    """
    logits = as_tensor(logits)
    labels = _labels(labels, logits.shape)
    logp, grad = _softmax_terms(logits, labels)
    return -float(logp[np.arange(logits.shape[0]), labels].mean()), grad


def backward(
    net: Network, cache: ForwardCache, grad_logits, *, weights: bool = True
) -> Gradients:
    """Reverse-mode pass returning dL/dx and every parameterized layer's dW, db.

    Weight gradients are w.r.t. W; masked entries, stored as 0.0, still get
    theirs and the optimizer re-masks after its update.  With
    weights=False the weight and bias maps are empty and only the input
    gradient, bitwise that of the full pass, is computed.
    """
    if cache.net_id != id(net) or cache.version != net.version:
        raise StateError("forward cache is stale: network mutated since forward")
    grad = as_tensor(grad_logits)
    if grad.shape != (cache.batch, net.class_count):
        raise DimensionError(
            f"grad_logits shape {grad.shape}, expected "
            f"({cache.batch}, {net.class_count})"
        )
    dW, db = {}, {}
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        a = cache.inputs[li]
        if layer.kind == "linear":
            if weights:
                dW[li], db[li] = a.T @ grad, grad.sum(axis=0)
            grad = grad @ layer.W.T
        elif layer.kind == "conv2d":
            batch, size = len(a), math.prod(a.shape[1:]) + 1
            plan = layer.conv_plan(*a.shape[2:])
            dz = grad.reshape(batch, layer.out_channels, math.prod(grad.shape[2:]))
            if weights:
                flat, dW[li] = _padded(a), np.zeros_like(layer.W)
                db[li] = dz.sum(axis=(0, 2))
            dflat = np.empty((batch, size))
            for lo in range(0, batch, len(plan)):
                dzc = dz[lo:lo + len(plan)]
                n = len(dzc)
                if weights:
                    cols = np.take(flat[lo:lo + n], plan[:n])
                    for prod in np.matmul(dzc, cols.transpose(0, 2, 1)):
                        dW[li] += prod  # in batch order, whatever the chunk
                dcols = np.matmul(layer.W.T, dzc)
                dflat[lo:lo + n] = np.bincount(plan[:n].ravel(), weights=dcols.ravel(),
                                               minlength=n * size).reshape(n, size)
            grad = dflat[:, :-1].reshape(a.shape)
        elif layer.kind == "relu":
            grad = grad * (a > 0.0)
        elif layer.kind == "flatten":
            grad = grad.reshape(a.shape)
    return Gradients(input=grad, weight=dW, bias=db)


def loss_gradients(net: Network, x, y) -> tuple:
    """(mean cross-entropy loss, Gradients) of net on the batch (x, y): one
    forward, cross_entropy and full backward."""
    logits, cache = forward(net, x)
    loss, grad_logits = cross_entropy(logits, y)
    return loss, backward(net, cache, grad_logits)


def _input_gradient(net: Network, x, labels) -> np.ndarray:
    """The input gradient of loss_gradients(net, x, labels), bit for bit,
    for labels that _labels passed: one forward, the softmax gradient and
    an input-only backward, with no label check and no loss."""
    logits, cache = forward(net, x)
    grad_logits = _softmax_terms(logits, labels)[1]
    return backward(net, cache, grad_logits, weights=False).input


def _kaiming_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _build(input_shape, channels, widths, class_count: int, seed: int) -> Network:
    """3x3, stride-1, pad-1 convs with the given channels, each then ReLU; a
    flatten if the shape is not flat; linear layers to each of widths and to
    class_count, ReLU between.  Each input width is read off output_shape."""
    rng = np.random.default_rng(seed)
    layers, shape = [], tuple(input_shape)

    def add(layer):
        nonlocal shape
        shape = layer.output_shape(shape)
        layers.append(layer)

    for c_out in channels:
        fan_in = shape[0] * 3 * 3
        add(MaskedLayer(kind="conv2d",
                        W=_kaiming_uniform(rng, (c_out, fan_in), fan_in),
                        b=np.zeros(c_out), kernel_size=3, stride=1, pad=1))
        add(MaskedLayer(kind="relu"))
    if len(shape) != 1:
        add(MaskedLayer(kind="flatten"))
    for i, fan_out in enumerate([*widths, class_count]):
        if i:
            add(MaskedLayer(kind="relu"))
        add(MaskedLayer(kind="linear",
                        W=_kaiming_uniform(rng, (shape[0], fan_out), shape[0]),
                        b=np.zeros(fan_out)))
    return Network(layers, tuple(input_shape), class_count)


def build_mlp(input_dim: int, hidden, class_count: int, seed: int = 0) -> Network:
    """Fully-connected ReLU network: input_dim -> hidden... -> class_count."""
    return _build((input_dim,), [], hidden, class_count, seed)


def build_cnn(input_shape, channels, fc_width, class_count, seed=0) -> Network:
    """3x3 convs with the given channel counts, then two fc layers."""
    return _build(input_shape, channels, [fc_width], class_count, seed)


# positive decimal widths, "x"-separated
_WIDTHS = "[1-9][0-9]*(?:x[1-9][0-9]*)*"
_ARCH = re.compile(f"mlp(?:-({_WIDTHS}))?|cnn-({_WIDTHS})-([1-9][0-9]*)")


def build_network(arch: str, input_shape, class_count: int, seed: int = 0) -> Network:
    """Construct a network from an architecture id.

    "mlp-64x32" is a ReLU MLP with hidden widths 64 and 32 ("mlp" alone is
    logistic regression); "cnn-8x16-32" is 3x3 convs with 8 and 16
    channels followed by a 32-wide fc layer, on (c, h, w) input.  Non-flat
    input to an mlp gets a flatten layer first.  Any other id is a
    ValidationError.
    """
    match = _ARCH.fullmatch(arch)
    if match is None:
        raise ValidationError(f"unknown architecture id {arch!r}")
    hidden, channels, fc = ([int(t) for t in g.split("x")] if g else []
                            for g in match.groups())
    if channels and len(input_shape) != 3:
        raise ValidationError(
            f"cnn architecture needs (c, h, w) input, got {tuple(input_shape)}"
        )
    return _build(input_shape, channels, hidden + fc, class_count, seed)
