"""Masked feed-forward networks with exact reverse-mode gradients.

Layers are plain dataclasses, parameters are float64 numpy arrays, and every
parameterized layer carries a bool mask Z.  A pruned weight is a stored +0.0
in W, so forward and backward read W as it is.  Convolution weights are
stored pre-flattened as (c_out, c_in*k*k) so the matrix view used by the
condition-number and saliency paths is the storage layout itself.

``backward`` returns the input gradient and each parameterized layer's dW
and db; ``backward(..., weights=False)`` computes the input gradient only,
for attacks and Lipschitz estimates.  A conv layer gathers its patches from
its flattened input with one zero sentinel column appended, where every
padding tap points.  Its input gradient is scattered back by one
``np.bincount`` that drops the sentinel bin; it adds in the same order as an
element-wise ``np.add.at`` scatter and so gives the same bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StateError, ValidationError
from .tensor_ops import as_tensor, im2col_indices

_PARAM_KINDS = ("linear", "conv2d")


@dataclass
class MaskedLayer:
    """One layer of a network.

    kind is one of "linear", "conv2d", "relu", "flatten".  Parameterized
    kinds carry W, Z, b; the others carry no state.  Linear weights are
    stored (fan_in, fan_out) so a batch forward is x @ W + b; conv weights
    are stored (c_out, c_in*k*k).  A layer built without Z is all live.
    """

    kind: str
    W: np.ndarray | None = None
    Z: np.ndarray | None = None
    b: np.ndarray | None = None
    kernel_size: int = 0
    stride: int = 1
    pad: int = 0
    in_channels: int = 0
    out_channels: int = 0
    prunable: bool = False
    # memoized im2col plan, keyed by input (h, w)
    _plan: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def parameterized(self) -> bool:
        return self.kind in _PARAM_KINDS

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

    def conv_plan(self, h: int, w: int):
        key = (h, w)
        if key not in self._plan:
            self._plan[key] = im2col_indices(
                self.in_channels, h, w, self.kernel_size, self.stride, self.pad
            )
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
        return [i for i, l in enumerate(self.layers) if l.parameterized and l.prunable]

    def clone(self) -> "Network":
        return copy.deepcopy(self)


@dataclass
class ForwardCache:
    """Per-layer inputs, and each conv layer's gathered patch columns,
    retained by forward for the matching backward."""

    net_id: int
    version: int
    inputs: list
    cols: dict
    batch: int


@dataclass
class Gradients:
    """dL/dx, and dW and db keyed by parameterized layer index."""

    input: np.ndarray
    weight: dict
    bias: dict


def forward(net: Network, x) -> tuple:
    """Run the network on a batch, returning (logits, cache).

    x has shape (batch,) + net.input_shape.  The cache holds every layer
    input needed by backward and is invalidated by any mutation of the
    network's parameters.
    """
    x = as_tensor(x)
    if x.shape[1:] != tuple(net.input_shape):
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match network input "
            f"shape {tuple(net.input_shape)}"
        )
    batch = x.shape[0]
    inputs = []
    cols = {}
    a = x
    for li, layer in enumerate(net.layers):
        inputs.append(a)
        if layer.kind == "linear":
            if a.ndim != 2 or a.shape[1] != layer.W.shape[0]:
                raise DimensionError(
                    f"linear layer {li} expects (batch, {layer.W.shape[0]}), "
                    f"got {a.shape}"
                )
            a = a @ layer.W + layer.b
        elif layer.kind == "conv2d":
            if a.ndim != 4 or a.shape[1] != layer.in_channels:
                raise DimensionError(
                    f"conv layer {li} expects (batch, {layer.in_channels}, h, w), "
                    f"got {a.shape}"
                )
            idx, (oh, ow) = layer.conv_plan(a.shape[2], a.shape[3])
            flat = np.concatenate([a.reshape(batch, math.prod(a.shape[1:])),
                                   np.zeros((batch, 1))], axis=1)
            c = cols[li] = flat[:, idx]  # (batch, c_in*k*k, oh*ow)
            z = np.matmul(layer.W, c) + layer.b[:, None]
            a = z.reshape(batch, layer.out_channels, oh, ow)
        elif layer.kind == "relu":
            a = np.maximum(a, 0.0)
        elif layer.kind == "flatten":
            a = a.reshape(batch, math.prod(a.shape[1:]))
        else:
            raise ValidationError(f"unknown layer kind {layer.kind!r}")
    if a.ndim != 2 or a.shape[1] != net.class_count:
        raise DimensionError(
            f"network produced shape {a.shape}, expected (batch, {net.class_count})"
        )
    cache = ForwardCache(
        net_id=id(net), version=net.version, inputs=inputs, cols=cols, batch=batch
    )
    return a, cache


def cross_entropy(logits, labels) -> tuple:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Stabilized by row-max subtraction.  Labels must lie in [0, c), and an
    empty batch, whose mean is undefined, is a DimensionError.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise DimensionError(f"logits must be (rows >= 1, c), got {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}"
        )
    c = logits.shape[1]
    if labels.min() < 0 or labels.max() >= c:
        raise ValidationError(f"labels must lie in [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    n = logits.shape[0]
    loss = -float(logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


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
            batch, c_in, h, w = a.shape
            size = c_in * h * w + 1  # + the sentinel column
            dz = grad.reshape(batch, layer.out_channels, math.prod(grad.shape[2:]))
            if weights:
                dW[li] = np.einsum("bos,bks->ok", dz, cache.cols[li])
                db[li] = dz.sum(axis=(0, 2))
            dcols = np.matmul(layer.W.T, dz)
            idx, _ = layer.conv_plan(h, w)
            flat_idx = np.arange(0, batch * size, size)[:, None, None] + idx
            dflat = np.bincount(
                flat_idx.ravel(), weights=dcols.ravel(), minlength=batch * size
            )
            grad = dflat.reshape(batch, size)[:, :-1].reshape(a.shape)
        elif layer.kind == "relu":
            grad = grad * (a > 0.0)
        elif layer.kind == "flatten":
            grad = grad.reshape(a.shape)
    return Gradients(input=grad, weight=dW, bias=db)


def input_gradient(net: Network, x, y) -> np.ndarray:
    """Gradient of the mean cross-entropy loss w.r.t. the input batch."""
    logits, cache = forward(net, x)
    _, grad_logits = cross_entropy(logits, y)
    return backward(net, cache, grad_logits, weights=False).input


def _kaiming_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _dense_layers(rng, widths) -> list:
    """Linear layers widths[0] -> ... -> widths[-1], a ReLU between each two."""
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        if layers:
            layers.append(MaskedLayer(kind="relu"))
        layers.append(
            MaskedLayer(
                kind="linear",
                W=_kaiming_uniform(rng, (fan_in, fan_out), fan_in),
                b=np.zeros(fan_out),
                prunable=True,
            )
        )
    return layers


def build_mlp(input_dim: int, hidden, class_count: int, seed: int = 0) -> Network:
    """Fully-connected ReLU network: input_dim -> hidden... -> class_count."""
    layers = _dense_layers(np.random.default_rng(seed),
                           [input_dim, *hidden, class_count])
    return Network(layers=layers, input_shape=(input_dim,), class_count=class_count)


def build_cnn(
    input_shape,
    channels,
    fc_width: int,
    class_count: int,
    seed: int = 0,
) -> Network:
    """Two conv + two fc network on (c, h, w) inputs.

    3x3 kernels at stride 1 and pad 1 keep the spatial size, so the flatten
    width is channels[-1] * h * w.
    """
    c_in, h, w = input_shape
    rng = np.random.default_rng(seed)
    layers = []
    prev = c_in
    for c_out in channels:
        fan_in = prev * 3 * 3
        layers.append(
            MaskedLayer(
                kind="conv2d",
                W=_kaiming_uniform(rng, (c_out, fan_in), fan_in),
                b=np.zeros(c_out),
                kernel_size=3,
                stride=1,
                pad=1,
                in_channels=prev,
                out_channels=c_out,
                prunable=True,
            )
        )
        layers.append(MaskedLayer(kind="relu"))
        prev = c_out
    layers.append(MaskedLayer(kind="flatten"))
    layers += _dense_layers(rng, [prev * h * w, fc_width, class_count])
    return Network(layers=layers, input_shape=tuple(input_shape), class_count=class_count)


def build_network(arch: str, input_shape, class_count: int, seed: int = 0) -> Network:
    """Construct a network from an architecture id.

    "mlp-64x32" is a ReLU MLP with hidden widths 64 and 32 ("mlp" alone is
    logistic regression); "cnn-8x16-32" is two 3x3 convs with 8 and 16
    channels followed by a 32-wide fc layer.  Non-flat input to an mlp gets
    a flatten layer prepended.
    """
    input_shape = tuple(input_shape)
    name, _, rest = arch.partition("-")
    if name == "mlp":
        try:
            hidden = [int(t) for t in rest.split("x")] if rest else []
        except ValueError:
            raise ValidationError(f"bad mlp architecture id {arch!r}")
        dim = int(np.prod(input_shape))
        net = build_mlp(dim, hidden, class_count, seed=seed)
        if len(input_shape) > 1:
            net.layers.insert(0, MaskedLayer(kind="flatten"))
            net.input_shape = input_shape
        return net
    if name == "cnn":
        parts = rest.split("-")
        if len(parts) != 2:
            raise ValidationError(f"bad cnn architecture id {arch!r}")
        try:
            channels = [int(t) for t in parts[0].split("x")]
            fc_width = int(parts[1])
        except ValueError:
            raise ValidationError(f"bad cnn architecture id {arch!r}")
        if len(input_shape) != 3:
            raise ValidationError(
                f"cnn architecture needs (c, h, w) input, got {input_shape}"
            )
        return build_cnn(input_shape, channels, fc_width, class_count, seed=seed)
    raise ValidationError(f"unknown architecture id {arch!r}")
