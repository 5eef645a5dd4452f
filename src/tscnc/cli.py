"""Command-line front end: train, prune, evaluate, inspect.

Exit codes: 0 success, 2 configuration problems (a size that does not fit in
memory included), 3 data-format and file i/o problems (including data whose
shape or labels do not fit the checkpoint, a non-finite checkpoint value, and
a failed write of any output file), 4 divergence or a numeric error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attacks import AttackSpec, evaluate, fgsm_spec
from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_dataset
from .errors import (ConfigError, DimensionError, DivergenceError, FormatError,
                     NumericError, ValidationError)
from .metrics import check_eq7, condition_report
from .metrics_io import atomic_open, write_metrics
from .network import forward
from .pruning import apply_masks, prune_report, select_mask
from .trainer import config_from_dict, run_tscnc, score_weights


def _load_config(path, seed_override):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    config = config_from_dict(doc)
    if seed_override is not None:
        config.seed = seed_override
    config.validate()
    return config


def _parse_attacks(text):
    """Grammar: comma-separated fgsm:EPS or pgd:EPS:STEPS:STEP_SIZE."""
    attacks = {}
    for i, part in enumerate(filter(None, text.split(","))):
        fields = part.split(":")
        kind = fields[0]
        try:
            if kind == "fgsm" and len(fields) == 2:
                spec = fgsm_spec(float(fields[1]))
            elif kind == "pgd" and len(fields) == 4:
                spec = AttackSpec(epsilon=float(fields[1]),
                                  steps=int(fields[2]),
                                  step_size=float(fields[3]))
            else:
                raise ConfigError(
                    f"bad attack '{part}': use fgsm:EPS or pgd:EPS:STEPS:STEP_SIZE"
                )
        except ValueError as exc:
            raise ConfigError(f"bad attack '{part}': {exc}") from exc
        spec.validate()
        attacks[f"{kind}_{i}" if kind in attacks else kind] = spec
    if not attacks:
        raise ConfigError("no attacks given")
    return attacks


def _print(args, *parts):
    if not args.quiet:
        print(*parts)


def _write_json(path, doc):
    with atomic_open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def _cmd_train(args):
    config = _load_config(args.config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    records = []

    def on_epoch(rec):
        records.append(rec)
        robust = " ".join(f"{k}={v:.4f}" for k, v in rec.robust_acc.items())
        _print(args, f"epoch {rec.epoch} lr={rec.lr:g} "
                     f"clean={rec.clean_acc:.4f} {robust} "
                     f"loss={rec.loss_total:.4f} kappa_max={rec.kappa_max:.4g}")

    try:
        net, _ = run_tscnc(config, on_epoch=on_epoch)
    except DivergenceError as exc:
        if records:
            write_metrics(records, os.path.join(args.out, "metrics"))
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    save_checkpoint(
        os.path.join(args.out, "model.tscn"), net,
        state={
            "epoch": config.epochs,
            "architecture": config.architecture,
            "config": {"dataset": config.dataset, "seed": config.seed},
        },
    )
    write_metrics(records, os.path.join(args.out, "metrics"))
    _write_json(os.path.join(args.out, "prune_report.json"), prune_report(net))
    _print(args, f"saved model and metrics under {args.out}")
    return 0


def _cmd_prune(args):
    config = _load_config(args.config, args.seed)
    if config.prune.sparsity <= 0.0:
        raise ConfigError("prune command needs prune.sparsity > 0 in the config")
    ckpt = load_checkpoint(args.checkpoint)
    net = ckpt.net
    # magnitude scoring reads the weights alone
    data = (None if config.prune.criterion == "magnitude"
            else load_dataset(config.dataset, seed=config.seed))
    before = prune_report(net)["global_sparsity"]
    scores = score_weights(net, data, config, np.random.default_rng(config.seed))
    apply_masks(net, select_mask(net, scores, config.prune))
    report = prune_report(net)
    if report["global_sparsity"] == before:
        print(f"warning: global sparsity stayed at {before:.4f}: masked weights "
              f"are never unmasked, and prune.sparsity {config.prune.sparsity:g} "
              "asks for no more zeros than the checkpoint holds", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(
        os.path.join(args.out, "model.tscn"), net,
        state={"architecture": ckpt.state.get("architecture"),
               "config": {"dataset": config.dataset, "seed": config.seed}},
    )
    _write_json(os.path.join(args.out, "prune_report.json"), report)
    _print(args, f"pruned to global sparsity {report['global_sparsity']:.4f}")
    return 0


def _cmd_evaluate(args):
    if args.seed is not None and args.data.startswith("idx:"):
        raise ConfigError("--seed seeds synthetic --data only; idx: data takes none")
    ckpt = load_checkpoint(args.checkpoint)
    data = load_dataset(args.data, seed=args.seed if args.seed is not None else 0)
    attacks = _parse_attacks(args.attacks)
    result = evaluate(ckpt.net, data, attacks)
    rows = [("clean", result["clean_acc"])]
    rows += sorted(result["robust_acc"].items())
    width = max(len(name) for name, _ in rows)
    for name, acc in rows:
        _print(args, f"{name:<{width}}  {acc:.4f}")
    if args.out:
        _write_json(args.out, result)
    else:
        _print(args, json.dumps(result, sort_keys=True))
    return 0


def _bound_check(args, net, crep) -> str:
    """inspect's last line: check_eq7 at x = 0.5 against the runner-up class,
    its layer product read from crep, the condition report inspect prints."""
    if net.class_count < 2:
        return (f"bound check skipped: {net.class_count} class, no rival to "
                "compare against")
    try:
        x = np.full(net.input_shape, 0.5)
        k = int(np.argsort(forward(net, x[None])[0][0])[-2])
        eq7 = check_eq7(net, x, k, r=0.1, q=2, n=200,
                        seed=args.seed if args.seed is not None else 0,
                        report=crep)
    except MemoryError as exc:
        raise FormatError(f"{args.checkpoint}: input_shape {list(net.input_shape)}"
                          f" does not fit in memory: {exc}", offset=12) from exc
    except ValidationError as exc:
        return f"bound check skipped: {exc}"
    verdict, sign = ("holds", "<=") if eq7["holds"] else ("violated", ">")
    return (f"bound check against class {k}: {verdict} "
            f"(lipschitz {eq7['lipschitz']:.6g} from {eq7['lipschitz_source']} "
            f"{sign} upper {eq7['upper']:.6g})")


def _cmd_inspect(args):
    net = load_checkpoint(args.checkpoint).net
    # everything that can fail runs before the first line is printed
    crep = condition_report(net)
    report = prune_report(net)
    bound = _bound_check(args, net, crep)
    _print(args, f"{'layer':>5} {'kind':<8} {'sigma_max':>12} "
                 f"{'sigma_min':>12} {'kappa':>12} {'rank':>5}")
    for row in crep.layers:
        _print(args, f"{row.layer:>5} {row.kind:<8} {row.sigma_max:>12.6g} "
                     f"{row.sigma_min:>12.6g} {row.kappa:>12.6g} {row.rank:>5}")
    _print(args, f"kappa_max {crep.kappa_max:.6g}")
    _print(args, f"global sparsity {report['global_sparsity']:.4f}")
    _print(args, bound)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tscnc",
        description="Sparse adversarial training with per-layer conditioning "
                    "control, plus diagnostics over the trained models.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="unsigned 64-bit seed: overrides the config seed "
                             "(train, prune), seeds the synthetic data "
                             "(evaluate; an error with idx: data) or the bound "
                             "check's samples (inspect); default 0 for the "
                             "last two")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the two-phase pipeline")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=_cmd_train)

    p_prune = sub.add_parser("prune", help="score and mask a saved model")
    p_prune.add_argument("--config", required=True)
    p_prune.add_argument("--checkpoint", required=True)
    p_prune.add_argument("--out", required=True)
    p_prune.set_defaults(func=_cmd_prune)

    p_eval = sub.add_parser("evaluate", help="accuracy under attacks")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--attacks", required=True,
                        help="comma-separated fgsm:EPS or pgd:EPS:STEPS:STEP_SIZE")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_inspect = sub.add_parser("inspect", help="conditioning and sparsity report")
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        print("--seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # a config key or --data sets these sizes; inspect's own are FormatErrors
    except (ConfigError, ValidationError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        where = f" at offset {exc.offset}" if exc.offset is not None else ""
        print(f"data format error{where}: {exc}", file=sys.stderr)
        return 3
    except DimensionError as exc:
        print(f"data shape error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
