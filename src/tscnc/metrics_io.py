"""CSV and JSON serialization of per-epoch training metrics.

The CSV holds one row per epoch with a fixed column order; the JSON mirror
carries full per-layer condition detail.  Infinite condition numbers print
as "inf" in CSV and as null plus an explicit flag in JSON, so plots cannot
silently treat them as huge finite values.  Every output file of the
package is written through ``atomic_open``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os

from .errors import ValidationError


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """open(path, mode) for writing that replaces path only on success.

    The block writes a temp file in path's directory, which is flushed and
    fsynced before os.replace renames it over path; the directory is fsynced
    after, so the new name survives a power loss.  A write that fails
    part-way leaves any earlier file at path as it was and removes the temp
    file.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fd = os.open(head or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _fmt(v) -> str:
    if math.isinf(v):
        return "inf"
    return f"{float(v):.17g}"


def _kappa_json(v) -> dict:
    if math.isinf(v):
        return {"value": None, "infinite": True}
    return {"value": float(v), "infinite": False}


def write_metrics(records, path) -> tuple:
    """Write <path>.csv and <path>.json from a nonempty record sequence.

    Every record must expose the same attack names and layer indices as the
    first one; the column order is epoch, lr, clean_acc, one <name>_acc per
    attack, loss_E, loss_CC, loss_total, sparsity, kappa_max, then one
    kappa_layer_<i> per parameterized layer.
    """
    records = list(records)
    if not records:
        raise ValidationError("no metrics records to write")
    attack_names = list(records[0].robust_acc)
    layer_ids = sorted(records[0].kappa_layers)
    for r in records:
        if list(r.robust_acc) != attack_names or sorted(r.kappa_layers) != layer_ids:
            raise ValidationError(
                f"record for epoch {r.epoch} does not match the first record's "
                "attack/layer structure"
            )
    columns = (
        ["epoch", "lr", "clean_acc"]
        + [f"{name}_acc" for name in attack_names]
        + ["loss_E", "loss_CC", "loss_total", "sparsity", "kappa_max"]
        + [f"kappa_layer_{i}" for i in layer_ids]
    )
    csv_path = f"{path}.csv"
    json_path = f"{path}.json"
    try:
        with atomic_open(csv_path, "w", encoding="utf-8") as f:
            f.write(",".join(columns) + "\n")
            for r in records:
                row = [str(r.epoch), _fmt(r.lr), _fmt(r.clean_acc)]
                row += [_fmt(r.robust_acc[name]) for name in attack_names]
                row += [_fmt(r.loss_E), _fmt(r.loss_CC), _fmt(r.loss_total),
                        _fmt(r.sparsity), _fmt(r.kappa_max)]
                row += [_fmt(r.kappa_layers[i]) for i in layer_ids]
                f.write(",".join(row) + "\n")
        doc = {"records": []}
        for r in records:
            doc["records"].append(
                {
                    "epoch": r.epoch,
                    "lr": r.lr,
                    "clean_acc": r.clean_acc,
                    "robust_acc": dict(r.robust_acc),
                    "loss_E": r.loss_E,
                    "loss_CC": r.loss_CC,
                    "loss_total": r.loss_total,
                    "sparsity": r.sparsity,
                    "kappa_max": _kappa_json(r.kappa_max),
                    "layers": [
                        {
                            "layer": row["layer"],
                            "kind": row["kind"],
                            "sigma_max": row["sigma_max"],
                            "sigma_min": row["sigma_min"],
                            "rank": row["rank"],
                            "kappa": _kappa_json(row["kappa"]),
                        }
                        for row in r.condition
                    ],
                }
            )
        with atomic_open(json_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    except OSError as e:
        raise ValidationError(f"cannot write metrics to {path}: {e}")
    return csv_path, json_path
