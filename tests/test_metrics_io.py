"""Metric serialization: CSV column contract and JSON condition detail."""

import csv
import json
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from tscnc import checkpoint, cli, metrics_io
from tscnc.errors import ValidationError
from tscnc.metrics import LayerCondition
from tscnc.metrics_io import atomic_open, write_metrics
from tscnc.network import build_network
from tscnc.trainer import MetricsRecord


def make_record(epoch=0, kappa_max=3.5, kappa_layers=None):
    if kappa_layers is None:
        kappa_layers = {0: 3.5, 2: 1.25}
    condition = [
        LayerCondition(layer=li, kind="linear", sigma_max=2.0, sigma_min=0.5,
                       rank=4, kappa=kap)
        for li, kap in sorted(kappa_layers.items())
    ]
    return MetricsRecord(
        epoch=epoch, lr=0.1, clean_acc=0.9375,
        robust_acc={"pgd": 0.8125, "fgsm": 0.875},
        loss_E=1.0 / 3.0, loss_CC=-9.2103403719761836,
        loss_total=1.0 / 3.0 - 0.001 * 9.2103403719761836,
        sparsity=0.9, kappa_max=kappa_max, condition=condition,
    )


class TestCsv:
    def test_single_record_two_lines(self, tmp_path):
        base = tmp_path / "metrics"
        csv_path, _ = write_metrics([make_record()], str(base))
        lines = Path(csv_path).read_text().strip().split("\n")
        assert len(lines) == 2

    def test_column_order(self, tmp_path):
        base = tmp_path / "metrics"
        csv_path, _ = write_metrics([make_record()], str(base))
        with open(csv_path, newline="") as f:
            header = next(csv.reader(f))
        assert header == [
            "epoch", "lr", "clean_acc", "pgd_acc", "fgsm_acc",
            "loss_E", "loss_CC", "loss_total", "sparsity",
            "kappa_max", "kappa_layer_0", "kappa_layer_2",
        ]

    def test_values_parse_back(self, tmp_path):
        rec = make_record()
        base = tmp_path / "metrics"
        csv_path, _ = write_metrics([rec], str(base))
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        row = rows[0]
        assert int(row["epoch"]) == 0
        assert abs(float(row["clean_acc"]) - 0.9375) < 1e-9
        assert abs(float(row["loss_E"]) - 1.0 / 3.0) < 1e-9
        assert abs(float(row["loss_CC"]) - rec.loss_CC) < 1e-9
        assert abs(float(row["kappa_layer_2"]) - 1.25) < 1e-9

    def test_seventeen_digit_round_trip(self, tmp_path):
        # .17g is enough to reconstruct a float64 bit for bit
        rec = make_record()
        base = tmp_path / "metrics"
        csv_path, _ = write_metrics([rec], str(base))
        with open(csv_path, newline="") as f:
            row = next(csv.DictReader(f))
        assert float(row["loss_CC"]) == rec.loss_CC
        assert float(row["loss_total"]) == rec.loss_total

    def test_infinite_kappa_serializes_as_inf(self, tmp_path):
        rec = make_record(kappa_max=math.inf,
                          kappa_layers={0: math.inf, 2: 2.0})
        base = tmp_path / "metrics"
        csv_path, _ = write_metrics([rec], str(base))
        with open(csv_path, newline="") as f:
            row = next(csv.DictReader(f))
        assert row["kappa_max"] == "inf"
        assert row["kappa_layer_0"] == "inf"
        assert float(row["kappa_layer_2"]) == 2.0
        assert math.isinf(float(row["kappa_max"]))

    def test_multiple_epochs_in_order(self, tmp_path):
        recs = [make_record(epoch=e) for e in range(4)]
        base = tmp_path / "metrics"
        csv_path, _ = write_metrics(recs, str(base))
        with open(csv_path, newline="") as f:
            epochs = [int(r["epoch"]) for r in csv.DictReader(f)]
        assert epochs == [0, 1, 2, 3]


class TestJson:
    def test_document_shape(self, tmp_path):
        base = tmp_path / "metrics"
        _, json_path = write_metrics([make_record()], str(base))
        doc = json.loads(Path(json_path).read_text())
        assert set(doc) == {"records"}
        rec = doc["records"][0]
        assert rec["epoch"] == 0
        assert rec["robust_acc"] == {"pgd": 0.8125, "fgsm": 0.875}
        assert rec["kappa_max"] == {"value": 3.5, "infinite": False}
        layers = rec["layers"]
        assert [l["layer"] for l in layers] == [0, 2]
        assert layers[0]["kappa"] == {"value": 3.5, "infinite": False}

    def test_infinite_kappa_uses_null_with_flag(self, tmp_path):
        rec = make_record(kappa_max=math.inf,
                          kappa_layers={0: math.inf, 2: 2.0})
        base = tmp_path / "metrics"
        _, json_path = write_metrics([rec], str(base))
        doc = json.loads(Path(json_path).read_text())
        out = doc["records"][0]
        assert out["kappa_max"] == {"value": None, "infinite": True}
        assert out["layers"][0]["kappa"] == {"value": None, "infinite": True}
        assert out["layers"][1]["kappa"] == {"value": 2.0, "infinite": False}
        # the document must survive a strict parser (no bare Infinity tokens)
        json.loads(Path(json_path).read_text(), parse_constant=lambda s: pytest.fail(s))

    def test_values_round_trip(self, tmp_path):
        rec = make_record()
        base = tmp_path / "metrics"
        _, json_path = write_metrics([rec], str(base))
        out = json.loads(Path(json_path).read_text())["records"][0]
        assert abs(out["loss_E"] - rec.loss_E) < 1e-9
        assert abs(out["loss_CC"] - rec.loss_CC) < 1e-9
        assert out["sparsity"] == 0.9


def _layer_json(layer, kappa):
    return {"layer": layer, "kind": "linear", "sigma_max": 2.0,
            "sigma_min": 0.5, "rank": 4, "kappa": kappa}


def _record_json(epoch, kappa_max, kappa_0, kappa_2):
    return {
        "epoch": epoch, "lr": 0.1, "clean_acc": 0.9375,
        "robust_acc": {"pgd": 0.8125, "fgsm": 0.875},
        "loss_E": 0.3333333333333333, "loss_CC": -9.210340371976184,
        "loss_total": 0.32412299296135716, "sparsity": 0.9,
        "kappa_max": kappa_max,
        "layers": [_layer_json(0, kappa_0), _layer_json(2, kappa_2)],
    }


@dataclass
class ExtendedRecord(MetricsRecord):
    attack_loss_gap: float


class TestSchema:
    """The MetricsRecord fields are the columns and keys of both files."""

    def test_exact_text(self, tmp_path):
        finite = {"value": 3.5, "infinite": False}
        infinite = {"value": None, "infinite": True}
        recs = [make_record(epoch=0),
                make_record(epoch=1, kappa_max=math.inf,
                            kappa_layers={0: math.inf, 2: 2.0})]
        csv_path, json_path = write_metrics(recs, str(tmp_path / "metrics"))
        assert Path(csv_path).read_text() == (
            "epoch,lr,clean_acc,pgd_acc,fgsm_acc,loss_E,loss_CC,loss_total,"
            "sparsity,kappa_max,kappa_layer_0,kappa_layer_2\n"
            "0,0.10000000000000001,0.9375,0.8125,0.875,0.33333333333333331,"
            "-9.2103403719761836,0.32412299296135716,0.90000000000000002,"
            "3.5,3.5,1.25\n"
            "1,0.10000000000000001,0.9375,0.8125,0.875,0.33333333333333331,"
            "-9.2103403719761836,0.32412299296135716,0.90000000000000002,"
            "inf,inf,2\n"
        )
        # dict literals keep their key order, so this pins the key order too
        expected = {"records": [
            _record_json(0, finite, finite, {"value": 1.25, "infinite": False}),
            _record_json(1, infinite, infinite, {"value": 2.0, "infinite": False}),
        ]}
        assert Path(json_path).read_text() == json.dumps(expected, indent=2) + "\n"

    def test_new_field_is_last_column_and_a_json_key(self, tmp_path):
        base = make_record()
        rec = ExtendedRecord(**vars(base), attack_loss_gap=0.25)
        csv_path, json_path = write_metrics([rec], str(tmp_path / "metrics"))
        with open(csv_path, newline="") as f:
            header, row = list(csv.reader(f))
        assert header[-1] == "attack_loss_gap"
        assert row[-1] == "0.25"
        assert header[:-1] == [
            "epoch", "lr", "clean_acc", "pgd_acc", "fgsm_acc",
            "loss_E", "loss_CC", "loss_total", "sparsity",
            "kappa_max", "kappa_layer_0", "kappa_layer_2",
        ]
        out = json.loads(Path(json_path).read_text())["records"][0]
        assert out["attack_loss_gap"] == 0.25
        assert [l["layer"] for l in out["layers"]] == [0, 2]


class TestRejections:
    def test_empty_records(self, tmp_path):
        with pytest.raises(ValidationError):
            write_metrics([], str(tmp_path / "m"))

    def test_mismatched_attack_names(self, tmp_path):
        a = make_record(epoch=0)
        b = make_record(epoch=1)
        b.robust_acc = {"other": 0.5}
        with pytest.raises(ValidationError):
            write_metrics([a, b], str(tmp_path / "m"))

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_metrics([make_record()], str(tmp_path / "no" / "dir" / "m"))


def _half_dump(target):
    """json.dump stand-in that writes part of the document, then fails."""
    before = target.read_bytes()

    def dump(doc, f, **kwargs):
        f.write(json.dumps(doc, **kwargs)[:10])
        f.flush()
        assert target.read_bytes() == before  # readers still see the old file
        raise OSError("disk full")

    return SimpleNamespace(dump=dump)


class TestAtomicWrites:
    """A write that fails part-way keeps the earlier file and no temp file."""

    def test_success_replaces_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_open(path, "w", encoding="utf-8") as f:
            f.write("new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_file_and_directory_fsynced_around_replace(self, tmp_path,
                                                       monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(st.st_mode) else f"file of {st.st_size}"
            events.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(src, dst):
            events.append(f"replace {os.path.basename(dst)}")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        with atomic_open(tmp_path / "out.txt", "w", encoding="utf-8") as f:
            f.write("new")
        # the bytes are flushed before the file's fsync
        assert events == ["fsync file of 3", "replace out.txt", "fsync dir"]
        assert (tmp_path / "out.txt").read_text() == "new"

    def test_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.tscn"
        checkpoint.save_checkpoint(path, build_network("mlp-3", (4,), 2, seed=0))
        before = path.read_bytes()

        def crc32(data):
            raise OSError("disk full")  # header already written, payload not

        monkeypatch.setattr(checkpoint, "zlib", SimpleNamespace(crc32=crc32))
        with pytest.raises(OSError):
            checkpoint.save_checkpoint(path, build_network("mlp-3", (4,), 2, seed=1))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.tscn"]

    def test_metrics_csv(self, tmp_path, monkeypatch):
        base = tmp_path / "metrics"
        write_metrics([make_record()], str(base))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        calls = []

        def fmt(v):
            calls.append(v)
            if len(calls) > 4:  # part-way through the first data row
                raise OSError("disk full")
            return repr(v)

        monkeypatch.setattr(metrics_io, "_fmt", fmt)
        with pytest.raises(OSError):
            write_metrics([make_record(epoch=1)], str(base))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_metrics_json(self, tmp_path, monkeypatch):
        base = tmp_path / "metrics"
        write_metrics([make_record()], str(base))
        json_before = (tmp_path / "metrics.json").read_bytes()
        monkeypatch.setattr(metrics_io, "json", _half_dump(tmp_path / "metrics.json"))
        with pytest.raises(OSError):
            write_metrics([make_record(epoch=1)], str(base))
        assert (tmp_path / "metrics.json").read_bytes() == json_before
        assert sorted(os.listdir(tmp_path)) == ["metrics.csv", "metrics.json"]

    def test_cli_json_report(self, tmp_path, monkeypatch):
        path = tmp_path / "prune_report.json"
        cli._write_json(path, {"global_sparsity": 0.5})
        before = path.read_bytes()
        monkeypatch.setattr(cli, "json", _half_dump(path))
        with pytest.raises(OSError):
            cli._write_json(path, {"global_sparsity": 0.9})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["prune_report.json"]
