"""Command-line surface: subcommands, output artifacts, exit codes."""

import json
import os
import struct
import subprocess
import sys

import pytest

import tscnc
from tscnc import cli
from tscnc.checkpoint import load_checkpoint
from tscnc.cli import _parse_attacks, main
from tscnc.errors import ConfigError


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "dataset": "blobs-c3-d12-n20-s0.06",
        "architecture": "mlp-10",
        "epochs": 2,
        "batch_size": 32,
        "warmup_epochs": 1,
        "train_attack": {"epsilon": 0.05, "step_size": 0.0125, "steps": 3,
                         "random_start": True},
        "eval_attacks": {"pgd": {"epsilon": 0.05, "step_size": 0.0125,
                                 "steps": 3}},
        "prune": {"sparsity": 0.4},
        "seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(*args, **env):
    """`python -m tscnc.cli ARGS` in a subprocess, with this package on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tscnc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tscnc.cli", *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=300)


@pytest.fixture()
def trained(tmp_path, config_path):
    out = tmp_path / "run"
    rc = main(["--quiet", "train", "--config", str(config_path),
               "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:
    def test_writes_all_artifacts(self, trained):
        names = sorted(os.listdir(trained))
        assert names == ["metrics.csv", "metrics.json", "model.tscn",
                         "prune_report.json"]
        ck = load_checkpoint(trained / "model.tscn")
        assert ck.header["architecture"] == "mlp-10"
        report = json.loads((trained / "prune_report.json").read_text())
        assert abs(report["global_sparsity"] - 0.4) < 0.01
        doc = json.loads((trained / "metrics.json").read_text())
        assert len(doc["records"]) == 2

    def test_seed_override_changes_model(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--quiet", "--seed", "1", "train", "--config",
                     str(config_path), "--out", str(out_a)]) == 0
        assert main(["--quiet", "--seed", "2", "train", "--config",
                     str(config_path), "--out", str(out_b)]) == 0
        a = (out_a / "model.tscn").read_bytes()
        b = (out_b / "model.tscn").read_bytes()
        assert a != b

    def test_same_seed_same_bytes(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["--quiet", "--seed", "5", "train", "--config",
                         str(config_path), "--out", str(out)]) == 0
        assert (out_a / "model.tscn").read_bytes() == \
            (out_b / "model.tscn").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["--quiet", "train", "--config",
                   str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_key_exits_2(self, tmp_path, config_path):
        doc = json.loads(config_path.read_text())
        doc["optimiser"] = "sgd"
        config_path.write_text(json.dumps(doc))
        rc = main(["--quiet", "train", "--config", str(config_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["--quiet", "train", "--config", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_nested_value_exits_2_without_traceback(self, tmp_path,
                                                                 config_path):
        doc = json.loads(config_path.read_text())
        doc["train_attack"] = 3
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "configuration error" in proc.stderr

    @pytest.mark.parametrize("over", ['"lr": NaN', '"weight_decay": Infinity',
                                      '"epochs": 2.7'])
    def test_non_finite_or_fractional_value_exits_2(self, tmp_path, config_path,
                                                    over):
        text = config_path.read_text()
        config_path.write_text(text[:-1] + ", " + over + "}")
        proc = run_cli("--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "configuration error" in proc.stderr
        assert not (tmp_path / "o" / "model.tscn").exists()

    def test_divergence_exits_4(self, tmp_path, config_path):
        import numpy as np

        doc = json.loads(config_path.read_text())
        doc["lr"] = 1e9
        doc["warmup_epochs"] = 0
        doc["prune"] = {"sparsity": 0.0}
        doc["epochs"] = 20
        config_path.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            rc = main(["--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o")])
        assert rc == 4


class TestPrune:
    @pytest.mark.parametrize("criterion", ["adversarial_saliency", "magnitude"])
    def test_reprune_tightens_sparsity(self, tmp_path, config_path, trained,
                                       criterion):
        doc = json.loads(config_path.read_text())
        doc["prune"]["sparsity"] = 0.7
        doc["prune"]["criterion"] = criterion
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "pruned"
        rc = main(["--quiet", "prune", "--config", str(config_path),
                   "--checkpoint", str(trained / "model.tscn"),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "prune_report.json").read_text())
        assert abs(report["global_sparsity"] - 0.7) < 0.01

    def test_zero_sparsity_rejected(self, tmp_path, config_path, trained):
        doc = json.loads(config_path.read_text())
        doc["prune"]["sparsity"] = 0.0
        config_path.write_text(json.dumps(doc))
        rc = main(["--quiet", "prune", "--config", str(config_path),
                   "--checkpoint", str(trained / "model.tscn"),
                   "--out", str(tmp_path / "p")])
        assert rc == 2


class TestEvaluate:
    def test_json_output(self, tmp_path, trained):
        out = tmp_path / "eval.json"
        rc = main(["--quiet", "evaluate",
                   "--checkpoint", str(trained / "model.tscn"),
                   "--data", "blobs-c3-d12-n20-s0.06",
                   "--attacks", "fgsm:0.05,pgd:0.05:5:0.0125",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["clean_acc"] <= 1.0
        assert set(doc["robust_acc"]) == {"fgsm", "pgd"}

    def test_bad_attack_grammar_exits_2(self, trained):
        rc = main(["--quiet", "evaluate",
                   "--checkpoint", str(trained / "model.tscn"),
                   "--data", "blobs-c3-d12-n20-s0.06",
                   "--attacks", "pgd:0.05"])
        assert rc == 2

    def test_corrupt_checkpoint_exits_3(self, tmp_path, trained):
        raw = bytearray((trained / "model.tscn").read_bytes())
        raw[20] ^= 0xFF
        bad = tmp_path / "bad.tscn"
        bad.write_bytes(bytes(raw))
        rc = main(["--quiet", "evaluate", "--checkpoint", str(bad),
                   "--data", "blobs-c3-d12-n20-s0.06", "--attacks",
                   "fgsm:0.05"])
        assert rc == 3

    def test_missing_checkpoint_exits_3(self, tmp_path):
        rc = main(["--quiet", "evaluate",
                   "--checkpoint", str(tmp_path / "absent.tscn"),
                   "--data", "blobs-c3-d12-n20-s0.06", "--attacks",
                   "fgsm:0.05"])
        assert rc == 3


class TestInspect:
    def test_reports_condition_table(self, trained, capsys):
        rc = main(["inspect", "--checkpoint", str(trained / "model.tscn")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kappa_max" in out
        assert "global sparsity" in out
        assert "bound check" in out

    def test_seed_is_the_bound_check_sampling_seed(self, trained, monkeypatch,
                                                   capsys):
        seeds = []
        real = cli.check_eq7

        def spy(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "check_eq7", spy)
        ckpt = str(trained / "model.tscn")
        assert main(["inspect", "--checkpoint", ckpt]) == 0
        default = capsys.readouterr().out
        assert main(["--seed", "5", "inspect", "--checkpoint", ckpt]) == 0
        seeded = capsys.readouterr().out
        assert main(["--seed", "0", "inspect", "--checkpoint", ckpt]) == 0
        assert seeds == [0, 5, 0]
        assert capsys.readouterr().out == default
        # only the sampled Lipschitz estimate can move with the seed
        assert seeded.splitlines()[:-1] == default.splitlines()[:-1]


class TestAttackGrammar:
    def test_parses_both_kinds(self):
        attacks = _parse_attacks("fgsm:0.1,pgd:0.05:10:0.01")
        assert attacks["fgsm"].epsilon == 0.1
        assert attacks["fgsm"].steps == 1
        assert attacks["pgd"].steps == 10
        assert attacks["pgd"].step_size == 0.01

    def test_fgsm_zero_epsilon(self):
        attacks = _parse_attacks("fgsm:0")
        assert attacks["fgsm"].steps == 0

    def test_rejections(self):
        for text in ("", "fgsm", "fgsm:a", "pgd:0.1:ten:0.01", "cw:0.1",
                     "pgd:0.1:10"):
            with pytest.raises(ConfigError):
                _parse_attacks(text)


class TestGlobalFlags:
    def test_bad_seed_exits_2(self, config_path, tmp_path):
        rc = main(["--seed", "-1", "train", "--config", str(config_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_threads_exits_2(self, config_path, tmp_path):
        # there is no --threads flag; argparse rejects it with usage exit 2
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "train", "--config", str(config_path),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2


def write_idx_pair(tmp_path, count, labels, side=4):
    """IDX files whose image header claims `count` images of side x side."""
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">iiii", 0x00000803, count, side, side)
                   + bytes(range(256))[: len(labels) * side * side])
    lp.write_bytes(struct.pack(">ii", 0x00000801, len(labels)) + bytes(labels))
    return f"idx:{ip}:{lp}"


class TestMalformedInputs:
    def test_malformed_blobs_spread_exits_2_without_traceback(self, tmp_path,
                                                               config_path):
        doc = json.loads(config_path.read_text())
        doc["dataset"] = "blobs-c3-d16-n20-s0.0.5"
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "unknown dataset id" in proc.stderr

    def test_negative_config_seed_exits_2_without_traceback(self, tmp_path,
                                                             config_path):
        doc = json.loads(config_path.read_text())
        doc["seed"] = -1
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "seed must be non-negative" in proc.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be non-negative"),
        ("batch_size", 0, "batch_size must be at least 1"),
    ])
    def test_prune_validates_its_config(self, tmp_path, trained, config_path,
                                        key, value, message):
        doc = json.loads(config_path.read_text())
        doc[key] = value
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "prune", "--config", str(config_path),
                       "--checkpoint", str(trained / "model.tscn"),
                       "--out", str(tmp_path / "pruned"))
        assert proc.returncode == 2
        assert proc.stderr == f"configuration error: {message}, got {value}\n"
        assert not (tmp_path / "pruned").exists()

    @pytest.mark.parametrize("protected", [[99], [1], [-1]])
    @pytest.mark.parametrize("command", ["train", "prune"])
    def test_protected_typo_exits_2(self, tmp_path, trained, config_path,
                                    command, protected):
        # mlp-10 has linear layers 0 and 2 around the ReLU at 1
        doc = json.loads(config_path.read_text())
        doc["prune"]["protected"] = protected
        config_path.write_text(json.dumps(doc))
        checkpoint = ["--checkpoint", str(trained / "model.tscn")]
        proc = run_cli("--quiet", command, "--config", str(config_path),
                       *(checkpoint if command == "prune" else []),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not prunable layer indices" in proc.stderr
        assert not (tmp_path / "o" / "model.tscn").exists()

    def test_evaluate_data_shape_mismatch_exits_3(self, trained):
        # the checkpoint takes 12 features, the data has 16
        proc = run_cli("--quiet", "evaluate",
                       "--checkpoint", str(trained / "model.tscn"),
                       "--attacks", "fgsm:0.1",
                       "--data", "blobs-c3-d16-n5-s0.3")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "does not match" in proc.stderr

    @pytest.mark.parametrize("attacks", ["pgd:0.1:10:0.025", "fgsm:0"])
    def test_evaluate_labels_beyond_checkpoint_classes_exit_3(self, trained,
                                                              attacks):
        # the checkpoint has 3 classes, the data 8
        proc = run_cli("--quiet", "evaluate",
                       "--checkpoint", str(trained / "model.tscn"),
                       "--attacks", attacks,
                       "--data", "blobs-c8-d12-n5-s0.3")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("data shape error: ")
        assert proc.stderr.count("\n") == 1
        assert "3 classes" in proc.stderr

    def test_evaluate_seed_with_idx_data_exits_2(self, tmp_path, trained):
        # load_idx draws nothing and no --attacks string sets random_start,
        # so a seed would change nothing
        data = write_idx_pair(tmp_path, 2, [0, 1])
        args = ["--quiet", "evaluate", "--checkpoint", str(trained / "model.tscn"),
                "--data", data, "--attacks", "fgsm:0.05"]
        proc = run_cli("--seed", "1", *args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--seed" in proc.stderr
        # without the flag the run gets past the seed check to the data,
        # whose 16 features do not fit this 12-feature checkpoint
        assert main(args) == 3

    def test_prune_data_shape_mismatch_exits_3(self, tmp_path, trained,
                                              config_path):
        doc = json.loads(config_path.read_text())
        doc["dataset"] = "blobs-c3-d16-n20-s0.06"
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "prune", "--config", str(config_path),
                       "--checkpoint", str(trained / "model.tscn"),
                       "--out", str(tmp_path / "pruned"))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "does not match" in proc.stderr
        assert not (tmp_path / "pruned").exists()

    def test_empty_idx_evaluate_exits_3(self, tmp_path, trained):
        data = write_idx_pair(tmp_path, 0, [])
        rc = main(["--quiet", "evaluate",
                   "--checkpoint", str(trained / "model.tscn"),
                   "--data", data, "--attacks", "fgsm:0.05"])
        assert rc == 3

    @pytest.mark.parametrize("count", [0, -2])
    def test_empty_or_negative_idx_train_exits_3(self, tmp_path, config_path,
                                                  count):
        doc = json.loads(config_path.read_text())
        doc["dataset"] = write_idx_pair(tmp_path, count, [])
        config_path.write_text(json.dumps(doc))
        rc = main(["--quiet", "train", "--config", str(config_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert not (tmp_path / "o" / "model.tscn").exists()

    def test_inspect_one_class_model_skips_bound_check(self, tmp_path,
                                                       config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["dataset"] = write_idx_pair(tmp_path, 6, [0] * 6)
        doc["architecture"] = "mlp-4"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["--quiet", "train", "--config", str(config_path),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["inspect", "--checkpoint", str(out / "model.tscn")])
        assert rc == 0
        assert "bound check skipped" in capsys.readouterr().out


# the README quick-start config
QUICKSTART = {
    "dataset": "blobs-c6-d64-n60-s0.35",
    "architecture": "mlp-32x16",
    "epochs": 30,
    "batch_size": 32,
    "lr": 0.1,
    "lr_milestones": [20],
    "warmup_epochs": 3,
    "lam": 0.001,
    "train_attack": {"epsilon": 0.1, "step_size": 0.025, "steps": 5,
                     "random_start": True},
    "prune": {"sparsity": 0.95},
    "seed": 0,
}


class TestBlasThreads:
    def test_thread_counts_give_identical_bytes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(QUICKSTART))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_cli("--quiet", "train", "--config", str(config), "--out", str(out),
                    OPENBLAS_NUM_THREADS=threads).check_returncode()
            outputs.append([(out / name).read_bytes()
                            for name in ("model.tscn", "metrics.json")])
        assert outputs[0] == outputs[1]
