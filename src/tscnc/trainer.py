"""Two-phase training: adversarial saliency pruning, then masked adversarial
training on the combined objective R = L_E + lam * L_CC.

Phase 1 builds a dense reference by a short warmup, scores weights on
attacked batches, and installs masks at the requested sparsity.  Phase 2
runs SGD with momentum and weight decay on adversarial batches, re-applying
masks after every step, and records per-epoch metrics.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attacks import AttackSpec, _ascend, _start, _starts_clean, pgd
from .data import Dataset, load_dataset
from .errors import ConfigError, DimensionError, DivergenceError, ValidationError
from .metrics import LayerCondition, condition_constraint, condition_report
from .network import (Gradients, Network, _input_gradient, _labels, build_network,
                      forward, loss_gradients)
from .pruning import (
    PruneSpec,
    apply_masks,
    check_protected,
    magnitude_scores,
    prune_report,
    saliency,
    select_mask,
)
from .tensor_ops import as_tensor


@dataclass
class TrainConfig:
    """Everything a run needs.

    Each field is one config-file key; its annotation is the type that
    ``config_from_dict`` reads and its default is the key's default.
    """

    dataset: str = ""
    architecture: str = ""
    epochs: int = 50
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_milestones: tuple[int, ...] = (30, 45)
    lr_factor: float = 0.1
    lam: float = 0.001
    tau: float = 1e-4
    train_attack: AttackSpec = field(
        default_factory=lambda: AttackSpec(
            epsilon=8.0 / 255.0, step_size=2.0 / 255.0, steps=10, random_start=True
        )
    )
    eval_attacks: dict[str, AttackSpec] = field(
        default_factory=lambda: {
            "pgd": AttackSpec(epsilon=8.0 / 255.0, step_size=2.0 / 255.0, steps=10)
        }
    )
    prune: PruneSpec = field(default_factory=PruneSpec)
    warmup_epochs: int = 10
    seed: int = 0

    def validate(self) -> None:
        for name, kind in sorted(get_type_hints(TrainConfig).items()):
            value = getattr(self, name)
            if kind is float and not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        for name, low in (("epochs", 1), ("batch_size", 1), ("warmup_epochs", 0),
                          ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                need = f"at least {low}" if low else "non-negative"
                raise ValidationError(f"{name} must be {need}, got {value}")
        if self.lr <= 0.0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if self.lam < 0.0:
            raise ValidationError(f"lam must be non-negative, got {self.lam}")
        if self.tau <= 0.0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if any(m < 0 for m in self.lr_milestones):
            raise ValidationError(
                f"lr_milestones must be non-negative, got {list(self.lr_milestones)}")
        if not self.dataset:
            raise ValidationError("config needs a dataset id")
        if not self.architecture:
            raise ValidationError("config needs an architecture id")
        self.train_attack.validate()
        for name, spec in self.eval_attacks.items():
            # each name heads a <name>_acc column of metrics.csv
            if not name or name == "clean" or any(c in name for c in ',"\r\n'):
                raise ValidationError(
                    f"eval_attacks name {name!r} is not a metrics.csv column name: "
                    "it must be non-empty, not 'clean', and hold no comma, quote "
                    "or line break")
            spec.validate()
        self.prune.validate()


def config_from_dict(doc: dict) -> TrainConfig:
    """Build a TrainConfig from a JSON document.

    The dataclasses are the schema: each key is a field of TrainConfig,
    ``train_attack`` and every ``eval_attacks`` entry hold AttackSpec fields,
    and ``prune`` holds PruneSpec fields.  Unknown keys are errors, absent
    keys take the field defaults, and a field without a default is required.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return _read(TrainConfig, doc, "")


def _read(kind, value, key):
    """value, a parsed JSON value, as the annotated type kind."""
    if is_dataclass(kind):
        _require(value, dict, key)
        prefix = f"{key}." if key else ""
        unknown = set(value) - {f.name for f in fields(kind)}
        if unknown:
            raise ConfigError(
                f"unknown config keys: {sorted(prefix + k for k in unknown)}")
        for f in fields(kind):
            if (f.name not in value and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ConfigError(f"config key {prefix}{f.name} is required")
        hints = get_type_hints(kind)
        return kind(**{name: _read(hints[name], v, prefix + name)
                       for name, v in value.items()})
    args = get_args(kind)
    if get_origin(kind) is dict:
        return {name: _read(args[1], v, f"{key}[{name}]")
                for name, v in _require(value, dict, key).items()}
    if get_origin(kind) is tuple:
        return tuple(_read(args[0], v, key) for v in _require(value, list, key))
    if kind in (bool, str):
        if not isinstance(value, kind):
            what = "true or false" if kind is bool else "a string"
            raise ConfigError(f"config key {key} must be {what}")
        return value
    return _coerce(key, value, kind)


def _require(value, kind, key):
    """value itself if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        name = "an object" if kind is dict else "an array"
        raise ConfigError(f"config key {key} must be {name}")
    return value


def _coerce(key, value, kind):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key} must be a {kind.__name__}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key} must be a whole number, got {value}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError(f"config key {key} must be a {kind.__name__}") from exc


@dataclass
class MetricsRecord:
    """One epoch of the trace; its fields are the metrics files' schema."""

    epoch: int
    lr: float
    clean_acc: float
    robust_acc: dict[str, float]
    loss_E: float
    loss_CC: float
    loss_total: float
    sparsity: float
    kappa_max: float
    condition: list[LayerCondition]


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step schedule: the decay applies from each milestone epoch onward.

    Milestones are non-negative, so a warmup epoch (below 0) runs at config.lr.
    """
    passed = sum(1 for m in config.lr_milestones if epoch >= m)
    return config.lr * config.lr_factor ** passed


def sgd_step(net: Network, grads: Gradients, velocity: dict, lr: float,
             momentum: float, weight_decay: float) -> None:
    """One momentum-SGD update on every layer in grads.weight; each layer
    then re-applies its mask.

    velocity maps layer index to {"W": vW, "b": vb}.  Weight decay touches W
    only.  Masked entries, whose gradients are not zero, end at +0.0.
    """
    for li, dW in grads.weight.items():
        layer, db = net.layers[li], grads.bias[li]
        if dW.shape != layer.W.shape or db.shape != layer.b.shape:
            raise ValidationError(f"gradient shape mismatch on layer {li}")
        v = velocity.setdefault(
            li, {"W": np.zeros_like(layer.W), "b": np.zeros_like(layer.b)}
        )
        v["W"] = momentum * v["W"] + dW + weight_decay * layer.W
        v["b"] = momentum * v["b"] + db
        layer.W = layer.W - lr * v["W"]
        layer.b = layer.b - lr * v["b"]
        layer.set_mask(layer.Z)
    net.bump()


def _adversarial_batches(net, data, config, rng):
    """Shuffle, batch and attack ``data`` with ``config.train_attack``.

    Yields ``(x_adv, y)`` lazily, so each batch is attacked against the
    network as it stands when the batch is drawn.
    """
    order = rng.permutation(len(data))
    for start in range(0, len(data), config.batch_size):
        idx = order[start : start + config.batch_size]
        xb, yb = data.images[idx], data.labels[idx]
        yield pgd(net, xb, yb, config.train_attack, rng=rng), yb


def score_weights(net: Network, data: Dataset | None, config: TrainConfig,
                  rng) -> dict:
    """{layer index: score array} for every prunable layer, by criterion.

    Magnitude scoring reads the weights alone, so data may be None; adversarial
    saliency takes one shuffled pass of attacked batches from ``rng``.  A
    masked weight scores 0.0, and ``select_mask`` keeps it masked whatever its
    score.
    """
    if config.prune.criterion == "magnitude":
        return magnitude_scores(net)
    return saliency(net, _adversarial_batches(net, data, config, rng))


def _train_epoch(net, data, config, lr, velocity, rng):
    """One pass of adversarial SGD; returns the mean attacked batch loss."""
    total = 0.0
    batches = 0
    for x_adv, yb in _adversarial_batches(net, data, config, rng):
        loss_e, grads = loss_gradients(net, x_adv, yb)
        if not np.isfinite(loss_e):
            return float("nan")
        if config.lam > 0.0:
            cc = condition_constraint(net, config.tau)[1]
            for li in grads.weight:
                grads.weight[li] = grads.weight[li] + config.lam * cc[li]
        sgd_step(net, grads, velocity, lr, config.momentum, config.weight_decay)
        total += loss_e
        batches += 1
    return total / max(batches, 1)


# examples per forward pass and attack in evaluate
EVAL_BATCH_SIZE = 256


def evaluate(net: Network, data: Dataset, eval_attacks: dict, rng=None) -> dict:
    """Clean and per-attack accuracy over the whole dataset.

    An example counts as robust under an attack only when both its clean and
    its attacked prediction are right, so robust accuracy never exceeds clean
    accuracy.  Each attack runs on the clean-correct examples of a batch
    alone, with the adversarial example ``pgd`` gives them in the whole
    batch: a random start is drawn over the whole batch, even when no
    example is attacked, and cut down to the attacked ones.  The attacks
    that start at the clean input share one input gradient there.  The
    labels are checked once: one that is not a whole number is a
    ValidationError, one outside [0, net.class_count) a DimensionError.
    """
    n = len(data)
    if n == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    labels = _labels(data.labels, (n, None))
    lo, hi = int(labels.min()), int(labels.max())
    if lo < 0 or hi >= net.class_count:
        raise DimensionError(f"label {lo if lo < 0 else hi} does not fit a "
                             f"network with {net.class_count} classes")
    for spec in eval_attacks.values():
        spec.validate()
    correct = 0
    adv_correct = {name: 0 for name in eval_attacks}
    if rng is None:
        rng = np.random.default_rng(0)
    for start in range(0, n, EVAL_BATCH_SIZE):
        xb = as_tensor(data.images[start : start + EVAL_BATCH_SIZE])
        yb = labels[start : start + EVAL_BATCH_SIZE]
        logits, _ = forward(net, xb)
        rows = np.flatnonzero(np.argmax(logits, axis=1) == yb)
        correct += len(rows)
        x0, y0 = xb[rows], yb[rows]
        clean_grad = None  # the input gradient at clip(x0)
        for name, spec in eval_attacks.items():
            adv = _start(xb, spec, rng)[rows]
            if not len(rows):
                continue
            grad = None
            if spec.steps and _starts_clean(spec):
                if clean_grad is None:
                    clean_grad = _input_gradient(net, adv, y0)
                grad = clean_grad
            alog, _ = forward(net, _ascend(net, x0, y0, spec, adv, grad))
            adv_correct[name] += int((np.argmax(alog, axis=1) == y0).sum())
    return {
        "clean_acc": correct / n,
        "robust_acc": {name: c / n for name, c in adv_correct.items()},
    }


def _record(net, config, epoch, lr, loss_e, data, rng) -> MetricsRecord:
    crep = condition_report(net)
    loss_cc = condition_constraint(net, config.tau)[0]
    accs = evaluate(net, data, config.eval_attacks, rng=rng)
    return MetricsRecord(
        epoch=epoch,
        lr=lr,
        clean_acc=accs["clean_acc"],
        robust_acc=accs["robust_acc"],
        loss_E=loss_e,
        loss_CC=loss_cc,
        loss_total=loss_e + config.lam * loss_cc,
        sparsity=prune_report(net)["global_sparsity"],
        kappa_max=crep.kappa_max,
        condition=crep.layers,
    )


def run_tscnc(config: TrainConfig, data: Dataset | None = None,
              reference: Network | None = None, on_epoch=None):
    """Full two-phase run; returns the final network and the metric trace.

    data defaults to the config's dataset id.  reference optionally supplies
    pre-trained weights for the scoring phase, replacing the warmup.
    on_epoch, when given, receives each MetricsRecord as it is produced.
    """
    config.validate()
    if data is None:
        data = load_dataset(config.dataset, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    if reference is not None:
        net = reference
    else:
        net = build_network(
            config.architecture, data.images.shape[1:], data.classes,
            seed=config.seed,
        )
    check_protected(config.prune.protected, net.prunable_indices())
    velocity = {}
    records = []
    # epochs below 0 are the dense warmup, at config.lr and without records
    start = 0 if reference is not None else -config.warmup_epochs
    for epoch in range(start, config.epochs):
        if epoch == 0 and config.prune.sparsity > 0.0:
            scores = score_weights(net, data, config, rng)
            apply_masks(net, select_mask(net, scores, config.prune))
            # sgd_step's re-mask keeps momentum off masked weights; the reset
            # drops the warmup momentum of live weights, which the trained
            # bytes reflect
            velocity = {}
        lr = lr_at(epoch, config)
        loss_e = _train_epoch(net, data, config, lr, velocity, rng)
        if not np.isfinite(loss_e):
            where = (f"in warmup epoch {epoch - start}" if epoch < 0
                     else f"at epoch {epoch}")
            raise DivergenceError(f"non-finite loss {where}")
        if epoch < 0:
            continue
        rec = _record(net, config, epoch, lr, loss_e, data,
                      np.random.default_rng((config.seed, epoch)))
        records.append(rec)
        if on_epoch is not None:
            on_epoch(rec)
    return net, records
