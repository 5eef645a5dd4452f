"""CSV and JSON serialization of per-epoch training metrics.

The fields of a MetricsRecord are the schema of both files: the CSV holds
one row per epoch with its columns in field order, and the JSON mirror
carries every field, the full per-layer condition detail included.
Infinite condition numbers print as "inf" in CSV and as null plus an
explicit flag in JSON, so plots cannot silently treat them as huge finite
values.  Every output file of the
package is written through ``atomic_open``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, fields

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


def _columns(record):
    """(column, value) pairs of one CSV row, as write_metrics describes."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "robust_acc":
            for name, acc in value.items():
                yield f"{name}_acc", acc
        elif f.name == "condition":
            for row in value:
                yield f"kappa_layer_{row.layer}", row.kappa
        else:
            yield f.name, value


def _json_record(record) -> dict:
    doc = asdict(record)
    doc["kappa_max"] = _kappa_json(record.kappa_max)
    doc["layers"] = [{**row, "kappa": _kappa_json(row["kappa"])}
                     for row in doc.pop("condition")]
    return doc


def write_metrics(records, path) -> tuple:
    """Write <path>.csv and <path>.json from a nonempty MetricsRecord sequence.

    The record's dataclass fields are the schema of both files.  The CSV
    has one column per field, in field order, except that robust_acc
    expands to one <name>_acc column per attack and condition to one
    kappa_layer_<i> column per layer; every record must give the same
    columns as the first.  The JSON holds each record's fields, with
    condition under "layers".  A failed write raises its OSError.
    """
    records = list(records)
    if not records:
        raise ValidationError("no metrics records to write")
    rows = [list(_columns(r)) for r in records]
    header = [name for name, _ in rows[0]]
    for r, row in zip(records, rows):
        if [name for name, _ in row] != header:
            raise ValidationError(
                f"record for epoch {r.epoch} does not match the first record's "
                "attack/layer structure"
            )
    csv_path = f"{path}.csv"
    json_path = f"{path}.json"
    with atomic_open(csv_path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for _, v in row) + "\n")
    with atomic_open(json_path, "w", encoding="utf-8") as f:
        json.dump({"records": [_json_record(r) for r in records]}, f, indent=2)
        f.write("\n")
    return csv_path, json_path
