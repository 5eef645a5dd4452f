"""Diagnostic quantities: the log-Frobenius conditioning penalty and its
gradient, per-layer condition numbers, empirical local Lipschitz estimates,
robustness radii, and the bound check: the sampled Lipschitz estimate
against the layer-product upper bound in the same norm.

``condition_report`` takes the one SVD per layer; the q=2 bound reads each
hidden layer's ``sigma_max`` from its rows.

All operations are read-only on the network and take explicit seeds where
sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import Network, backward, forward
from .tensor_ops import INFINITE, as_tensor, frobenius_norm_sq, layer_spectrum

# ------------------------------------------------------------ L_CC


def condition_constraint(net: Network, tau: float) -> tuple:
    """The conditioning penalty and its gradient: (loss, {layer: dW}).

    The loss is the sum over parameterized layers of log(tau + ||W||_F^2).
    The log makes the penalty scale-aware: multiplying a layer by mu and the
    next by 1/mu (which leaves the network function unchanged) cannot game
    it the way a plain norm penalty can.  The gradient is
    2 W / (tau + ||W||_F^2), which is zero at masked entries since W stores
    0.0 there.
    """
    if tau <= 0.0:
        raise ValidationError(f"smoothing factor must be positive, got {tau}")
    loss, grad = 0.0, {}
    for li in net.parameterized_indices():
        W = net.layers[li].W
        denom = tau + frobenius_norm_sq(W)
        loss += math.log(denom)
        grad[li] = (2.0 / denom) * W
    return loss, grad


# ------------------------------------------------------------ condition report


@dataclass
class LayerCondition:
    # the field order is the key order of each "layers" row in metrics.json
    layer: int
    kind: str
    sigma_max: float
    sigma_min: float
    rank: int
    kappa: float


@dataclass
class ConditionReport:
    """Per-layer spectra of W, pruned zeros included; kappa_max summarises."""

    layers: list
    kappa_max: float


def condition_report(net: Network) -> ConditionReport:
    rows = []
    for li in net.parameterized_indices():
        spec = layer_spectrum(net.layers[li].W)
        rows.append(
            LayerCondition(
                layer=li, kind=net.layers[li].kind,
                sigma_max=spec.sigma_max, sigma_min=spec.sigma_min,
                kappa=spec.kappa, rank=spec.rank,
            )
        )
    return ConditionReport(layers=rows,
                           kappa_max=max([0.0] + [row.kappa for row in rows]))


# ------------------------------------------------------------ Lipschitz


def _margin_lipschitz(net, x, k, r, q, n, seed):
    """One sampling pass for the margin functions g_yhat - g_k around x.

    k is one rival class, or None for every class other than yhat.  Returns
    (logits of x, yhat, {k: (Lipschitz lower bound of g_yhat - g_k, whether
    the sampled quotient rather than the gradient norm set it)}).  One draw
    from default_rng(seed) gives the n offsets: uniform on [-r, r]^d at q=1;
    at q=2, normal (n, d+2), each row scaled to length r with its last two
    coordinates dropped, uniform in the ball (Voelker, Gosmann & Stewart,
    2017).  One (n, rivals) array holds every rival's quotients; each
    rival's gradient is one batch-1 backward.  Logits at x or a Lipschitz
    candidate that are not finite (weights that overflow) are a
    ValidationError.
    """
    if n < 1:
        raise ValidationError(f"sample count must be at least 1, got {n}")
    if r <= 0.0:
        raise ValidationError(f"radius must be positive, got {r}")
    if q not in (1, 2):
        raise ValidationError(f"norm index must be 1 or 2, got {q}")
    x = as_tensor(x)
    if x.shape != tuple(net.input_shape):
        raise ValidationError(
            f"expected a single input of shape {tuple(net.input_shape)}, "
            f"got {x.shape}"
        )
    logits, cache = forward(net, x[None])
    logits = logits[0]
    if not np.isfinite(logits).all():
        raise ValidationError(f"logits at the probe point are not finite: "
                              f"{logits.tolist()}")
    yhat = int(np.argmax(logits))
    if yhat == k:
        raise ValidationError(
            f"comparison class {k} equals the predicted class; margin is degenerate"
        )
    rivals = [k] if k is not None else [c for c in range(net.class_count) if c != yhat]
    d = x.size
    if q == 1:
        deltas = np.random.default_rng(seed).uniform(-r, r, size=(n, d))
        norms = np.abs(deltas).max(axis=1)
    else:
        raw = np.random.default_rng(seed).standard_normal((n, d + 2))
        deltas = r * raw[:, :d] / np.linalg.norm(raw, axis=1)[:, None]
        norms = np.linalg.norm(deltas, axis=1)
    pts = (x.reshape(1, -1) + deltas).reshape((n,) + tuple(net.input_shape))
    plog, _ = forward(net, pts)
    safe = norms > 0.0
    hvals = plog[:, [yhat]] - plog[:, rivals]
    h0 = logits[yhat] - logits[rivals]
    best = np.zeros(len(rivals))
    if safe.any():
        best = (np.abs(hvals - h0)[safe] / norms[safe, None]).max(axis=0)
    values = {}
    for c, quotient in zip(rivals, best.tolist()):
        gl = np.zeros((1, net.class_count))
        gl[0, yhat] = 1.0
        gl[0, c] = -1.0
        g = backward(net, cache, gl, weights=False).input.ravel()
        gnorm = float(np.abs(g).sum()) if q == 1 else float(np.sqrt(g @ g))
        if not (math.isfinite(quotient) and math.isfinite(gnorm)):
            raise ValidationError(
                f"Lipschitz estimate against class {c} is not finite: sampled "
                f"quotient {quotient}, gradient norm {gnorm}")
        values[c] = max(quotient, gnorm), quotient > gnorm
    return logits, yhat, values


def _rival(net, k) -> int:
    """k as one rival class: an int in [0, class_count), not a bool or None."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValidationError(f"rival k must be a class index, got {k!r}")
    if not 0 <= k < net.class_count:
        raise ValidationError(f"rival k: class index {k} outside [0, {net.class_count})")
    return int(k)


def local_lipschitz_estimate(
    net: Network, x, k: int, r: float, q: int, n: int, seed: int
) -> float:
    """Sampled lower bound on the local Lipschitz constant of g_yhat - g_k.

    Draws n points in the ball B_p(x, r) with p dual to q (q=1 pairs with
    the sup-norm ball, q=2 with the Euclidean ball), takes the largest
    difference quotient, and adds ||grad h(x)||_q as a candidate.  q=1
    makes one uniform draw of shape (n, d) and q=2 one normal draw of shape
    (n, d+2), so with a fixed seed the sample sets nest as n grows.
    """
    return _margin_lipschitz(net, x, _rival(net, k), r, q, n, seed)[2][k][0]


def robustness_radius(net: Network, x, r: float, q: int, n: int, seed: int) -> float:
    """min over k != yhat of margin_k / Lhat_k, capped at r.

    Lhat_k is local_lipschitz_estimate(net, x, k, r, q, n, seed).
    Because the Lipschitz estimate is a lower bound on the true constant,
    the returned radius is a diagnostic upper-bound flavor of the certified
    quantity, not a certificate.
    """
    logits, yhat, values = _margin_lipschitz(net, x, None, r, q, n, seed)
    gamma = float(r)
    for k, (lhat, _) in values.items():
        margin = float(logits[yhat] - logits[k])
        gamma = min(gamma, INFINITE if lhat == 0.0 else margin / lhat)
    return gamma


# ------------------------------------------------------------ bound check

# a difference quotient carries the rounding of the two logits it subtracts,
# so Lhat can pass a tight bound (a linear net's) by a few ulps
_BOUND_SLACK = 1e-9


def _lipschitz_upper(net: Network, yhat: int, k: int, q: int,
                     report: ConditionReport | None) -> float:
    """Layer-product upper bound on the Lipschitz constant of g_yhat - g_k.

    The classifier's weight difference W[:, yhat] - W[:, k], in l1 at q=1
    and in l2 at q=2, times one factor per hidden layer: at q=1 its
    sup-norm gain, the largest l1 norm of a unit's incoming weights; at
    q=2 its sigma_max, read from report's row for the layer, times
    kernel_size for a conv, since each input entry feeds at most k*k
    patches (Tsuzuku, Sato & Sugiyama, 2018).  q=1 reads no report.  ReLU
    and flatten are 1-Lipschitz.  INFINITE if the last layer is not linear.
    """
    pis = net.parameterized_indices()
    last = net.layers[pis[-1]]
    if last.kind != "linear":
        return INFINITE
    wdiff = last.W[:, yhat] - last.W[:, k]
    upper = float(np.abs(wdiff).sum()) if q == 1 else float(np.sqrt(wdiff @ wdiff))
    if q == 1:
        for li in pis[:-1]:  # a unit's inputs: a column of linear W, a row of conv W
            axis = 0 if net.layers[li].kind == "linear" else 1
            upper *= float(np.abs(net.layers[li].W).sum(axis=axis).max())
    else:
        for row in report.layers[:-1]:
            upper *= row.sigma_max * (
                net.layers[row.layer].kernel_size if row.kind == "conv2d" else 1)
    return upper


def check_eq7(net: Network, x, k: int, r: float, q: int, n: int, seed: int,
              report: ConditionReport | None = None) -> dict:
    """Check Lhat <= upper for the margin g_yhat - g_k.  Lhat is
    local_lipschitz_estimate(net, x, k, r, q, n, seed), a lower bound on its
    Lipschitz constant, and upper the layer product in the same norm, so a
    False holds is a bug.  lipschitz_source names the candidate that set
    Lhat: the sampled quotient or the gradient norm.  At q=2 the product
    reads each hidden layer's sigma_max from report, condition_report(net)
    when it is None; a report whose layers are not net's parameterized
    layers is a ValidationError."""
    k = _rival(net, k)
    if report is not None:
        rows = [(row.layer, row.kind) for row in report.layers]
        want = [(li, net.layers[li].kind) for li in net.parameterized_indices()]
        if rows != want:
            raise ValidationError(
                f"condition report covers layers {rows}, but the network's "
                f"parameterized layers are {want}")
    _, yhat, values = _margin_lipschitz(net, x, k, r, q, n, seed)
    lipschitz, sampled = values[k]
    if q == 2 and report is None:
        report = condition_report(net)
    upper = _lipschitz_upper(net, yhat, k, q, report)
    return {
        "lipschitz": lipschitz,
        "lipschitz_source": "sampled quotient" if sampled else "gradient norm",
        "yhat": yhat,
        "k": k,
        "upper": upper,
        "holds": bool(lipschitz <= upper * (1.0 + _BOUND_SLACK)),
    }
