"""Taylor-expansion saliency on adversarial batches and mask selection.

Scores estimate the loss change from zeroing one weight at a time,
|dL/dw * w|, averaged over the supplied batches.  Selection ranks all
prunable weights globally (default) or per layer and masks the smallest
until the requested sparsity is hit exactly (floor rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import Network, backward, cross_entropy, forward

# sentinel for entries masked before scoring; kept out of every re-ranking
ALREADY_PRUNED = -1.0


@dataclass
class SaliencyMap:
    """Per-prunable-layer score tensors plus the batch count that built them."""

    scores: dict
    batch_count: int


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
            raise ValidationError(
                f"sparsity must lie in [0, 1), got {self.sparsity}"
            )
        if self.scope not in ("global", "per_layer"):
            raise ValidationError(f"unknown scope {self.scope!r}")
        if self.criterion not in ("adversarial_saliency", "magnitude"):
            raise ValidationError(f"unknown criterion {self.criterion!r}")


def taylor_scores(W, G) -> np.ndarray:
    """|g * w| elementwise: first-order loss change from removing each weight."""
    return np.abs(np.asarray(G) * np.asarray(W))


def saliency(net: Network, batches) -> SaliencyMap:
    """Mean |dL/dw * w| over adversarial batches for every prunable layer.

    batches is an iterable of (x_adv, y) pairs, normally produced by running
    an attack on clean batches.  Already-masked entries get the
    ALREADY_PRUNED sentinel so they never re-enter the ranking.
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
    scores = {li: np.where(net.layers[li].Z, totals[li] / count, ALREADY_PRUNED)
              for li in prunable}
    return SaliencyMap(scores=scores, batch_count=count)


def magnitude_scores(net: Network) -> SaliencyMap:
    """|w| scores for the magnitude-pruning baseline; same sentinel rules."""
    scores = {li: np.where(net.layers[li].Z, np.abs(net.layers[li].W), ALREADY_PRUNED)
              for li in net.prunable_indices()}
    return SaliencyMap(scores=scores, batch_count=0)


def _rank_and_mask(flat_scores, target):
    """Mask `target` entries in all: the sentinel ones, then the smallest.

    Returns a flat bool array, True where a weight stays live.  Stable sort
    preserves index order on ties.
    """
    mask = flat_scores != ALREADY_PRUNED
    live = np.flatnonzero(mask)
    remaining = target - (flat_scores.size - live.size)
    if remaining > 0:
        order = live[np.argsort(flat_scores[live], kind="stable")]
        mask[order[:remaining]] = False
    return mask


def check_protected(protected, prunable) -> None:
    """Raise ValidationError unless every protected entry is a prunable index."""
    bad = [li for li in protected if li not in prunable]
    if bad:
        raise ValidationError(f"prune.protected entries {bad} are not prunable "
                              f"layer indices; those are {sorted(prunable)}")


def select_mask(s: SaliencyMap, spec: PruneSpec) -> dict:
    """Choose bool masks (True = live) with exactly floor(p * N_prunable) zeros.

    Protected layers, each of which must be a scored layer, are excluded
    from both the ranking and the weight count; everything else is ranked
    by score, smallest first, ties broken by (layer index, flat index).
    """
    spec.validate()
    check_protected(spec.protected, s.scores)
    layers = [li for li in sorted(s.scores) if li not in spec.protected]
    for li in layers:
        live = s.scores[li][s.scores[li] != ALREADY_PRUNED]
        if live.size and not np.isfinite(live).all():
            raise ValidationError(f"non-finite saliency scores in layer {li}")
    masks = {}
    for group in [[li] for li in layers] if spec.scope == "per_layer" else [layers]:
        # concatenate in layer order so stable sort encodes the tie rule
        flats = [s.scores[li].ravel() for li in group]
        allsc = np.concatenate(flats) if flats else np.zeros(0)
        mask = _rank_and_mask(allsc, int(np.floor(spec.sparsity * allsc.size)))
        parts = np.split(mask, np.cumsum([f.size for f in flats])[:-1])
        for li, part in zip(group, parts):
            masks[li] = part.reshape(s.scores[li].shape)
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
