"""Two-phase training: adversarial saliency pruning, then masked adversarial
training on the combined objective R = L_E + lam * L_CC.

Phase 1 builds a dense reference by a short warmup, scores weights on
attacked batches, and installs masks at the requested sparsity.  Phase 2
runs SGD with momentum and weight decay on adversarial batches, re-applying
masks after every step, and records per-epoch metrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .attacks import AttackSpec, pgd
from .data import Dataset, load_dataset
from .errors import ConfigError, DivergenceError, ValidationError
from .metrics import (
    condition_constraint_grad,
    condition_constraint_loss,
    condition_report,
)
from .network import Network, backward, build_network, cross_entropy, forward
from .pruning import (
    PruneSpec,
    SaliencyMap,
    apply_masks,
    magnitude_scores,
    prune_report,
    saliency,
    select_mask,
)


@dataclass
class TrainConfig:
    """Everything a run needs; every field maps to one config-file key."""

    dataset: str = ""
    architecture: str = ""
    epochs: int = 50
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_milestones: tuple = (30, 45)
    lr_factor: float = 0.1
    lam: float = 0.001
    tau: float = 1e-4
    train_attack: AttackSpec = field(
        default_factory=lambda: AttackSpec(
            epsilon=8.0 / 255.0, step_size=2.0 / 255.0, steps=10, random_start=True
        )
    )
    eval_attacks: dict = field(
        default_factory=lambda: {
            "pgd": AttackSpec(epsilon=8.0 / 255.0, step_size=2.0 / 255.0, steps=10)
        }
    )
    prune: PruneSpec = field(default_factory=lambda: PruneSpec(sparsity=0.0))
    warmup_epochs: int = 10
    seed: int = 0

    def validate(self) -> None:
        for name in sorted(_FLOAT_KEYS):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be at least 1, got {self.epochs}")
        if self.lr <= 0.0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if self.lam < 0.0:
            raise ValidationError(f"lam must be non-negative, got {self.lam}")
        if self.tau <= 0.0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be at least 1, got {self.batch_size}"
            )
        if self.warmup_epochs < 0:
            raise ValidationError(
                f"warmup_epochs must be non-negative, got {self.warmup_epochs}"
            )
        if not self.dataset:
            raise ValidationError("config needs a dataset id")
        if not self.architecture:
            raise ValidationError("config needs an architecture id")
        self.train_attack.validate()
        for spec in self.eval_attacks.values():
            spec.validate()
        self.prune.validate()


_ATTACK_KEYS = {"epsilon", "step_size", "steps", "random_start", "clamp"}
_PRUNE_KEYS = {"sparsity", "scope", "protected", "criterion"}
_INT_KEYS = {"epochs", "batch_size", "warmup_epochs", "seed"}
_FLOAT_KEYS = {"lr", "momentum", "weight_decay", "lr_factor", "lam", "tau"}
_STR_KEYS = {"dataset", "architecture"}


def _attack_from_dict(d, where):
    _require(d, dict, where)
    unknown = set(d) - _ATTACK_KEYS
    if unknown:
        raise ConfigError(f"unknown attack keys in {where}: {sorted(unknown)}")
    if "epsilon" not in d:
        raise ConfigError(f"attack in {where} needs an epsilon")
    random_start = d.get("random_start", False)
    if not isinstance(random_start, bool):
        raise ConfigError(f"config key {where}.random_start must be true or false")
    clamp = _require(d.get("clamp", [0.0, 1.0]), list, f"{where}.clamp")
    if len(clamp) != 2:
        raise ConfigError(f"config key {where}.clamp must have exactly 2 entries")
    spec = AttackSpec(
        epsilon=_coerce(f"{where}.epsilon", d["epsilon"], float),
        step_size=_coerce(f"{where}.step_size", d.get("step_size", 0.0), float),
        steps=_coerce(f"{where}.steps", d.get("steps", 0), int),
        random_start=random_start,
        clamp=tuple(_coerce(f"{where}.clamp", c, float) for c in clamp),
    )
    return spec


def config_from_dict(doc: dict) -> TrainConfig:
    """Build a TrainConfig from a flat JSON document; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = set(TrainConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        if key == "train_attack":
            kwargs[key] = _attack_from_dict(value, "train_attack")
        elif key == "eval_attacks":
            kwargs[key] = {
                name: _attack_from_dict(spec, f"eval_attacks[{name}]")
                for name, spec in _require(value, dict, key).items()
            }
        elif key == "prune":
            unknown = set(_require(value, dict, key)) - _PRUNE_KEYS
            if unknown:
                raise ConfigError(f"unknown prune keys: {sorted(unknown)}")
            protected = _require(value.get("protected", []), list, "prune.protected")
            kwargs[key] = PruneSpec(
                sparsity=_coerce("prune.sparsity", value.get("sparsity", 0.0), float),
                scope=value.get("scope", "global"),
                protected=tuple(_coerce("prune.protected", li, int) for li in protected),
                criterion=value.get("criterion", "adversarial_saliency"),
            )
        elif key == "lr_milestones":
            kwargs[key] = tuple(_coerce(key, m, int) for m in _require(value, list, key))
        elif key in _INT_KEYS:
            kwargs[key] = _coerce(key, value, int)
        elif key in _FLOAT_KEYS:
            kwargs[key] = _coerce(key, value, float)
        elif key in _STR_KEYS:
            if not isinstance(value, str):
                raise ConfigError(f"config key {key} must be a string")
            kwargs[key] = value
        else:
            kwargs[key] = value
    return TrainConfig(**kwargs)


def _require(value, kind, key):
    """value itself if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        name = "an object" if kind is dict else "an array"
        raise ConfigError(f"config key {key} must be {name}")
    return value


def _coerce(key, value, kind):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"config key {key} must be a {kind.__name__}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key} must be a whole number, got {value}")
    try:
        return kind(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key} must be a {kind.__name__}") from exc


@dataclass
class MetricsRecord:
    epoch: int
    lr: float
    clean_acc: float
    robust_acc: dict
    loss_E: float
    loss_CC: float
    loss_total: float
    sparsity: float
    kappa_max: float
    kappa_layers: dict
    condition: list


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step schedule: the decay applies from each milestone epoch onward."""
    passed = sum(1 for m in config.lr_milestones if epoch >= m)
    return config.lr * config.lr_factor ** passed


def sgd_step(net: Network, grads: dict, velocity: dict, lr: float,
             momentum: float, weight_decay: float) -> None:
    """One momentum-SGD update; each layer then re-applies its mask.

    grads maps layer index to {"W": dW, "b": db}.  Weight decay touches W
    only.  Masked entries, whose gradients are not zero, end at +0.0.
    """
    for li, g in grads.items():
        layer = net.layers[li]
        if g["W"].shape != layer.W.shape or g["b"].shape != layer.b.shape:
            raise ValidationError(f"gradient shape mismatch on layer {li}")
        v = velocity.setdefault(
            li, {"W": np.zeros_like(layer.W), "b": np.zeros_like(layer.b)}
        )
        v["W"] = momentum * v["W"] + g["W"] + weight_decay * layer.W
        v["b"] = momentum * v["b"] + g["b"]
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


def score_weights(net: Network, data: Dataset, config: TrainConfig,
                  rng) -> SaliencyMap:
    """Score every prunable weight by ``config.prune.criterion``.

    Magnitude scoring reads the weights alone; adversarial saliency takes
    one shuffled pass of attacked batches from ``rng``.
    """
    if config.prune.criterion == "magnitude":
        return magnitude_scores(net)
    return saliency(net, _adversarial_batches(net, data, config, rng))


def _train_epoch(net, data, config, lr, velocity, rng):
    """One pass of adversarial SGD; returns the mean attacked batch loss."""
    total = 0.0
    batches = 0
    for x_adv, yb in _adversarial_batches(net, data, config, rng):
        logits, cache = forward(net, x_adv)
        loss_e, grad_logits = cross_entropy(logits, yb)
        if not np.isfinite(loss_e):
            return float("nan")
        grads = backward(net, cache, grad_logits)
        gdict = {}
        for li in net.parameterized_indices():
            gdict[li] = {
                "W": grads.layers[li].weight,
                "b": grads.layers[li].bias,
            }
        if config.lam > 0.0:
            cc = condition_constraint_grad(net, config.tau)
            for li in gdict:
                gdict[li]["W"] = gdict[li]["W"] + config.lam * cc[li]
        sgd_step(net, gdict, velocity, lr, config.momentum, config.weight_decay)
        total += loss_e
        batches += 1
    return total / max(batches, 1)


def evaluate(net: Network, data: Dataset, eval_attacks: dict,
             batch_size: int = 256, rng=None) -> dict:
    """Clean and per-attack accuracy over the whole dataset.

    An example counts as robust under an attack only when both its clean and
    its attacked prediction are right, so robust accuracy never exceeds clean
    accuracy.
    """
    n = len(data)
    if n == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    correct = 0
    adv_correct = {name: 0 for name in eval_attacks}
    if rng is None:
        rng = np.random.default_rng(0)
    for start in range(0, n, batch_size):
        xb = data.images[start : start + batch_size]
        yb = data.labels[start : start + batch_size]
        logits, _ = forward(net, xb)
        clean_ok = np.argmax(logits, axis=1) == yb
        correct += int(clean_ok.sum())
        for name, spec in eval_attacks.items():
            adv = pgd(net, xb, yb, spec, rng=rng)
            alog, _ = forward(net, adv)
            adv_correct[name] += int((clean_ok & (np.argmax(alog, axis=1) == yb)).sum())
    return {
        "clean_acc": correct / n,
        "robust_acc": {name: c / n for name, c in adv_correct.items()},
    }


def _record(net, config, epoch, lr, loss_e, data, rng) -> MetricsRecord:
    crep = condition_report(net, epoch=epoch)
    loss_cc = condition_constraint_loss(net, config.tau)
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
        kappa_layers={row.layer: row.kappa for row in crep.layers},
        condition=[asdict(row) for row in crep.layers],
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
    velocity = {}
    records = []

    if reference is None:
        for we in range(config.warmup_epochs):
            loss_e = _train_epoch(net, data, config, config.lr, velocity, rng)
            if not np.isfinite(loss_e):
                raise DivergenceError(
                    f"non-finite loss in warmup epoch {we}", records=records
                )

    if config.prune.sparsity > 0.0:
        smap = score_weights(net, data, config, rng)
        apply_masks(net, select_mask(smap, config.prune))
        # sgd_step's re-mask keeps momentum off masked weights; the reset drops
        # the warmup momentum of live weights, which the trained bytes reflect
        velocity = {}

    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        loss_e = _train_epoch(net, data, config, lr, velocity, rng)
        if not np.isfinite(loss_e):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}", records=records
            )
        rec = _record(net, config, epoch, lr, loss_e, data, np.random.default_rng(
            (config.seed, epoch)
        ))
        records.append(rec)
        if on_epoch is not None:
            on_epoch(rec)
    return net, records
