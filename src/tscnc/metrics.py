"""Diagnostic quantities: the log-Frobenius conditioning penalty and its
gradient, per-layer condition numbers, empirical local Lipschitz estimates,
robustness radii, and the Lipschitz/condition-number inequality check.

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

_erf = np.vectorize(math.erf)


def _normal_cdf(z):
    return 0.5 * (1.0 + _erf(z / np.sqrt(2.0)))


# ------------------------------------------------------------ L_CC


def condition_constraint_loss(net: Network, tau: float) -> float:
    """Sum over parameterized layers of log(tau + ||W||_F^2).

    The log makes the penalty scale-aware: multiplying a layer by mu and the
    next by 1/mu (which leaves the network function unchanged) cannot game
    it the way a plain norm penalty can.
    """
    if tau <= 0.0:
        raise ValidationError(f"smoothing factor must be positive, got {tau}")
    total = 0.0
    for li in net.parameterized_indices():
        total += math.log(tau + frobenius_norm_sq(net.layers[li].W))
    return total


def condition_constraint_grad(net: Network, tau: float) -> dict:
    """Analytic gradient of the conditioning penalty per layer.

    d/dW log(tau + ||W||_F^2) = 2 W / (tau + ||W||_F^2), which is zero at
    masked entries since W stores 0.0 there.
    """
    if tau <= 0.0:
        raise ValidationError(f"smoothing factor must be positive, got {tau}")
    weights = {li: net.layers[li].W for li in net.parameterized_indices()}
    return {li: (2.0 / (tau + frobenius_norm_sq(W))) * W for li, W in weights.items()}


# ------------------------------------------------------------ condition report


@dataclass
class LayerCondition:
    layer: int
    kind: str
    sigma_max: float
    sigma_min: float
    kappa: float
    rank: int


@dataclass
class ConditionReport:
    """Per-layer spectra of W, pruned zeros included; kappa_max summarises."""

    layers: list
    kappa_max: float
    epoch: int | None = None


def condition_report(net: Network, epoch=None) -> ConditionReport:
    rows = []
    kmax = 0.0
    for li in net.parameterized_indices():
        spec = layer_spectrum(net.layers[li].W)
        rows.append(
            LayerCondition(
                layer=li, kind=net.layers[li].kind,
                sigma_max=spec.sigma_max, sigma_min=spec.sigma_min,
                kappa=spec.kappa, rank=spec.rank,
            )
        )
        kmax = max(kmax, spec.kappa)
    return ConditionReport(layers=rows, kappa_max=kmax, epoch=epoch)


# ------------------------------------------------------------ Lipschitz


@dataclass
class LipschitzEstimate:
    """Lower-bound estimate of a local Lipschitz constant.

    value is the max difference quotient over `samples` random points in the
    dual ball of radius `radius` around `center`, together with the
    gradient-norm candidate at the center.
    """

    value: float
    q: int
    samples: int
    radius: float
    center: np.ndarray


def _margin_lipschitz(net, x, k, r, q, n, seed):
    """One sampling pass for the margin functions g_yhat - g_k around x.

    k is one rival class, or None for every class other than yhat.  Returns
    (x, logits of x, yhat, {k: sampled Lipschitz lower bound of g_yhat - g_k}).
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
    yhat = int(np.argmax(logits))
    if k is not None and not 0 <= k < net.class_count:
        raise ValidationError(f"class index {k} outside [0, {net.class_count})")
    if yhat == k:
        raise ValidationError(
            f"comparison class {k} equals the predicted class; margin is degenerate"
        )
    rivals = [k] if k is not None else [c for c in range(net.class_count) if c != yhat]
    d = x.size
    raw = np.random.default_rng(seed).standard_normal((n, d + 1))
    if q == 1:
        deltas = r * (2.0 * _normal_cdf(raw[:, :d]) - 1.0)
        norms = np.abs(deltas).max(axis=1)
    else:
        dirs = raw[:, :d]
        lens = np.linalg.norm(dirs, axis=1)
        lens[lens == 0.0] = 1.0
        radii = r * _normal_cdf(raw[:, d]) ** (1.0 / d)
        deltas = (dirs / lens[:, None]) * radii[:, None]
        norms = radii
    pts = (x.reshape(1, -1) + deltas).reshape((n,) + tuple(net.input_shape))
    plog, _ = forward(net, pts)
    safe = norms > 0.0
    values = {}
    for c in rivals:
        hvals = plog[:, yhat] - plog[:, c]
        h0 = logits[yhat] - logits[c]
        best = 0.0
        if safe.any():
            best = float((np.abs(hvals - h0)[safe] / norms[safe]).max())
        gl = np.zeros((1, net.class_count))
        gl[0, yhat] = 1.0
        gl[0, c] = -1.0
        g = backward(net, cache, gl, weights=False).input.ravel()
        gnorm = float(np.abs(g).sum()) if q == 1 else float(np.sqrt(g @ g))
        values[c] = max(best, gnorm)
    return x, logits, yhat, values


def local_lipschitz_estimate(
    net: Network, x, k: int, r: float, q: int, n: int, seed: int
) -> LipschitzEstimate:
    """Sampled lower bound on the local Lipschitz constant of g_yhat - g_k.

    Draws n points in the ball B_p(x, r) with p dual to q (q=1 pairs with
    the sup-norm ball, q=2 with the Euclidean ball), takes the largest
    difference quotient, and adds ||grad h(x)||_q as a candidate.  One
    normal draw of shape (n, d+1) feeds everything, so sample sets nest as
    n grows with a fixed seed.
    """
    x, _, _, values = _margin_lipschitz(net, x, k, r, q, n, seed)
    return LipschitzEstimate(
        value=values[k], q=q, samples=n, radius=r, center=x.copy()
    )


def robustness_radius(net: Network, x, r: float, q: int, n: int, seed: int) -> float:
    """min over k != yhat of margin_k / Lhat_k, capped at r.

    Lhat_k is local_lipschitz_estimate(net, x, k, r, q, n, seed).value.
    Because the Lipschitz estimate is a lower bound on the true constant,
    the returned radius is a diagnostic upper-bound flavor of the certified
    quantity, not a certificate.
    """
    _, logits, yhat, values = _margin_lipschitz(net, x, None, r, q, n, seed)
    gamma = float(r)
    for k, lhat in values.items():
        margin = float(logits[yhat] - logits[k])
        gamma = min(gamma, INFINITE if lhat == 0.0 else margin / lhat)
    return gamma


# ------------------------------------------------------------ inequality check


def _holder_inf_norm(layer) -> float:
    # worst-case sup-norm amplification: max l1 norm over incoming weights
    w = np.abs(layer.W)
    if layer.kind == "linear":
        return float(w.sum(axis=0).max())
    return float(w.sum(axis=1).max())


def check_eq7(net: Network, x, k: int, r: float, q: int, n: int, seed: int) -> dict:
    """Check Lhat / (2 sigma_max) <= kappa on every parameterized layer.

    Also logs the layer-product constants that bound the network Lipschitz
    constant (c1 from sup-norm propagation, c2 from Frobenius products) so
    the report can be compared across pruning levels.
    """
    _, _, yhat, values = _margin_lipschitz(net, x, k, r, q, n, seed)
    lipschitz = values[k]
    rows = []
    for row in condition_report(net).layers:
        smax = row.sigma_max
        lhs = INFINITE if smax == 0.0 else lipschitz / (2.0 * smax)
        rows.append(
            {"layer": row.layer, "lhs": lhs, "kappa": row.kappa,
             "sigma_max": smax, "holds": bool(lhs <= row.kappa)}
        )
    pis = net.parameterized_indices()
    last = net.layers[pis[-1]]
    if last.kind == "linear":
        wdiff = last.W[:, yhat] - last.W[:, k]
        c1 = float(np.abs(wdiff).sum())
        c2 = float(np.sqrt(wdiff @ wdiff))
    else:
        c1 = c2 = INFINITE
    for li in pis[:-1]:
        c1 *= _holder_inf_norm(net.layers[li])
        c2 *= math.sqrt(frobenius_norm_sq(net.layers[li].W))
    return {
        "lipschitz": lipschitz,
        "yhat": yhat,
        "k": k,
        "layers": rows,
        "c1": c1,
        "c2": c2,
        "holds": all(row["holds"] for row in rows),
    }
