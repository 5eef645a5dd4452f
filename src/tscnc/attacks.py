"""First-order l-infinity attacks: PGD, with FGSM as one full-budget step.

Attacks clip to data.FEATURE_RANGE, the range both dataset loaders produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FEATURE_RANGE
from .errors import ValidationError
from .network import Network, _input_gradient, _labels
from .tensor_ops import as_tensor


@dataclass
class AttackSpec:
    """Budget and schedule for an l-infinity attack.

    epsilon is the ball radius in input units, step_size the per-iteration
    magnitude, steps the iteration count.  random_start draws the initial
    point uniformly from the ball (training default); leave it off for
    bit-reproducible attacks.
    """

    epsilon: float
    step_size: float = 0.0
    steps: int = 0
    random_start: bool = False

    def validate(self) -> None:
        if not np.isfinite([self.epsilon, self.step_size]).all():
            raise ValidationError(
                f"epsilon and step_size must be finite, got "
                f"{self.epsilon} and {self.step_size}"
            )
        if self.epsilon < 0.0:
            raise ValidationError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.steps < 0:
            raise ValidationError(f"steps must be non-negative, got {self.steps}")
        if self.steps > 0 and self.step_size <= 0.0:
            raise ValidationError(
                f"step_size must be positive when steps > 0, got {self.step_size}"
            )


def pgd(net: Network, x, y, spec: AttackSpec, rng=None) -> np.ndarray:
    """Projected gradient ascent on the cross-entropy loss.

    Each iteration takes a signed-gradient step of spec.step_size, clips to
    FEATURE_RANGE, then projects back onto the epsilon-ball around the
    original input.  sign(0) contributes no perturbation.  On fgsm_spec(eps)
    this is FGSM: clip(x + eps * sign(grad_x loss)).  The labels are checked
    once, as cross_entropy checks them, when there is a step to take.
    """
    spec.validate()
    x0 = as_tensor(x)
    if spec.steps:
        y = _labels(y, (len(x0) if x0.ndim else 0, net.class_count))
    return _ascend(net, x0, y, spec, _start(x0, spec, rng))


def _starts_clean(spec: AttackSpec) -> bool:
    """Whether pgd starts spec's attack at clip(x), drawing nothing."""
    return not (spec.random_start and spec.epsilon > 0.0)


def _start(x0, spec: AttackSpec, rng) -> np.ndarray:
    """pgd's first iterate, in a fresh buffer: clip(x0), or a uniform draw
    from the epsilon-ball around it when the attack does not start clean.
    The draw has x0's shape and is taken from rng, default_rng(0) when rng
    is None."""
    adv = np.clip(x0, *FEATURE_RANGE)
    if not _starts_clean(spec):
        eps = spec.epsilon
        if rng is None:
            rng = np.random.default_rng(0)
        adv += rng.uniform(-eps, eps, size=adv.shape)
        _project(adv, x0, eps)
    return adv


def _project(adv, x0, eps) -> None:
    """adv <- x0 + clip(clip(adv, FEATURE_RANGE) - x0, -eps, eps), in place,
    in that operation order.  Clipping keeps a -0.0 that np.maximum would
    turn to 0.0; ndarray.clip is what np.clip calls, without its dispatch."""
    adv.clip(*FEATURE_RANGE, out=adv)
    adv -= x0
    adv.clip(-eps, eps, out=adv)
    adv += x0


def _ascend(net: Network, x0, y, spec: AttackSpec, adv, grad=None) -> np.ndarray:
    """pgd's spec.steps iterations from adv around x0, written into adv.  y
    holds labels that _labels passed.  grad, when given, is the input
    gradient at adv; the first step takes it in place of a pass."""
    step = np.empty_like(adv)
    for k in range(spec.steps):
        if k or grad is None:
            grad = _input_gradient(net, adv, y)
        np.sign(grad, out=step)
        step *= spec.step_size
        adv += step
        _project(adv, x0, spec.epsilon)
    return adv


def fgsm_spec(epsilon: float) -> AttackSpec:
    """FGSM as a PGD spec: one step of size epsilon, none at epsilon 0."""
    return AttackSpec(epsilon, epsilon, 1 if epsilon > 0 else 0)
