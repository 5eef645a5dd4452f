"""Taylor-expansion saliency on adversarial batches and mask selection.

Scores estimate the loss change from zeroing one weight at a time,
|dL/dw * w|, averaged over the supplied batches; they come as a plain
{layer index: score array} for every prunable layer, and a masked weight,
a stored 0.0, scores 0.0.  Selection reads each layer's mask Z: masked
weights stay masked and count toward the floor(p * N) zeros, and the live
ones are ranked globally (default) or per layer, smallest score first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import Network, backward, cross_entropy, forward


@dataclass
class PruneSpec:
    """Target sparsity and how to reach it.

    scope "global" ranks every prunable weight in one pool; "per_layer"
    applies the sparsity to each layer independently.  Layers listed in
    protected keep their current masks.  criterion picks the score:
    adversarial Taylor saliency (default) or plain weight magnitude.
    """

    sparsity: float = 0.0
    scope: str = "global"
    protected: tuple[int, ...] = ()
    criterion: str = "adversarial_saliency"

    def validate(self) -> None:
        if not 0.0 <= self.sparsity < 1.0:
            raise ValidationError(f"sparsity must lie in [0, 1), got {self.sparsity}")
        if self.scope not in ("global", "per_layer"):
            raise ValidationError(f"unknown scope {self.scope!r}")
        if self.criterion not in ("adversarial_saliency", "magnitude"):
            raise ValidationError(f"unknown criterion {self.criterion!r}")


def taylor_scores(W, G) -> np.ndarray:
    """|g * w| elementwise: first-order loss change from removing each weight."""
    return np.abs(np.asarray(G) * np.asarray(W))


def saliency(net: Network, batches) -> dict:
    """Mean |dL/dw * w| over adversarial batches, keyed by prunable layer.

    batches is an iterable of (x_adv, y) pairs, normally produced by running
    an attack on clean batches.
    """
    prunable = net.prunable_indices()
    totals = {li: np.zeros_like(net.layers[li].W) for li in prunable}
    count = 0
    for x_adv, y in batches:
        logits, cache = forward(net, x_adv)
        _, grad_logits = cross_entropy(logits, y)
        grads = backward(net, cache, grad_logits)
        for li in prunable:
            totals[li] += taylor_scores(net.layers[li].W, grads.weight[li])
        count += 1
    if count == 0:
        raise ValidationError("saliency needs at least one batch")
    return {li: totals[li] / count for li in prunable}


def magnitude_scores(net: Network) -> dict:
    """|w| per prunable layer, the magnitude-pruning baseline."""
    return {li: np.abs(net.layers[li].W) for li in net.prunable_indices()}


def check_protected(protected, prunable) -> None:
    """Raise ValidationError unless every protected entry is a prunable index."""
    bad = [li for li in protected if li not in prunable]
    if bad:
        raise ValidationError(f"prune.protected entries {bad} are not prunable "
                              f"layer indices; those are {sorted(prunable)}")


def select_mask(net: Network, scores: dict, spec: PruneSpec) -> dict:
    """Choose bool masks (True = live) with floor(p * N) zeros in each pool.

    scores maps prunable layer indices of net to arrays shaped like their
    masks.  Protected layers are left out of the ranking and the count.  A
    pool is all unprotected scored layers (scope "global") or each alone.
    Weights already masked stay masked and count toward the zeros; the live
    ones are ranked by score, smallest first, ties broken by (layer index,
    flat index).
    """
    spec.validate()
    prunable = net.prunable_indices()
    check_protected(spec.protected, prunable)
    bad = sorted(li for li in scores if li not in prunable
                 or scores[li].shape != net.layers[li].Z.shape)
    if bad:
        raise ValidationError(f"scores for {bad} are not shaped like the mask of "
                              f"a prunable layer; those are {prunable}")
    layers = [li for li in sorted(scores) if li not in spec.protected]
    for li in layers:
        if not np.isfinite(scores[li][net.layers[li].Z]).all():
            raise ValidationError(f"non-finite saliency scores in layer {li}")
    masks = {}
    groups = [[li] for li in layers] if spec.scope == "per_layer" else [layers]
    for group in filter(None, groups):  # an empty pool selects nothing
        # concatenate in layer order so the stable sort encodes the tie rule
        flat = np.concatenate([scores[li].ravel() for li in group])
        mask = np.concatenate([net.layers[li].Z.ravel() for li in group])
        live = np.flatnonzero(mask)
        remaining = int(np.floor(spec.sparsity * mask.size)) - (mask.size - live.size)
        mask[live[np.argsort(flat[live], kind="stable")[:max(remaining, 0)]]] = False
        sizes = [net.layers[li].Z.size for li in group]
        for li, part in zip(group, np.split(mask, np.cumsum(sizes)[:-1])):
            masks[li] = part.reshape(net.layers[li].Z.shape)
    return masks


def apply_masks(net: Network, masks: dict) -> None:
    """Install masks in place; every weight under a mask becomes +0.0."""
    for li, mask in masks.items():
        net.layers[li].set_mask(mask)
    net.bump()


def prune_report(net: Network) -> dict:
    """Per-layer zero ratios plus the global sparsity, as a plain dict."""
    rows = []
    zeros = 0
    total = 0
    for li in net.prunable_indices():
        layer = net.layers[li]
        z = int((~layer.Z).sum())
        n = layer.Z.size
        rows.append({"layer": li, "kind": layer.kind, "zeros": z, "size": n,
                     "ratio": z / n})
        zeros += z
        total += n
    return {
        "layers": rows,
        "global_sparsity": zeros / total if total else 0.0,
    }
