"""Joint sparse + condition-number-constrained adversarial training, desk scale."""

from .attacks import AttackSpec, evaluate, fgsm_spec, pgd
from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_dataset, load_idx, synth_blobs
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    FormatError,
    NumericError,
    StateError,
    TscncError,
    ValidationError,
)
from .metrics import (
    check_eq7,
    condition_constraint,
    condition_report,
    local_lipschitz_estimate,
    robustness_radius,
)
from .network import (Network, backward, build_network, cross_entropy, forward,
                      loss_gradients)
from .pruning import PruneSpec, apply_masks, prune_report, saliency, select_mask
from .tensor_ops import INFINITE, layer_spectrum
from .trainer import TrainConfig, config_from_dict, run_tscnc, score_weights

__version__ = "0.1.0"

__all__ = [
    "AttackSpec", "fgsm_spec", "pgd",
    "load_checkpoint", "save_checkpoint",
    "load_dataset", "load_idx", "synth_blobs",
    "TscncError", "DimensionError", "ValidationError", "NumericError",
    "StateError", "FormatError", "ConfigError", "DivergenceError",
    "check_eq7", "condition_constraint", "condition_report",
    "local_lipschitz_estimate", "robustness_radius",
    "Network", "backward", "build_network", "cross_entropy", "forward",
    "loss_gradients",
    "PruneSpec", "apply_masks", "prune_report", "saliency", "select_mask",
    "INFINITE", "layer_spectrum",
    "TrainConfig", "config_from_dict", "evaluate", "run_tscnc", "score_weights",
]
