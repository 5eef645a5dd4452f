"""Command-line surface: subcommands, output artifacts, exit codes."""

import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from oracles import under_reported_spectrum
from test_checkpoint import rewrite_header

import tscnc
from tscnc import cli
from tscnc.attacks import fgsm_spec
from tscnc.checkpoint import load_checkpoint, save_checkpoint
from tscnc.cli import _parse_attacks, main
from tscnc.errors import ConfigError, DivergenceError
from tscnc.metrics_io import write_metrics
from tscnc.network import build_cnn, build_mlp, build_network
from tscnc.pruning import apply_masks
from tscnc.trainer import config_from_dict, run_tscnc


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


def run_python(*args, preexec_fn=None, **env):
    """`python ARGS` in a subprocess, with this package on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tscnc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path, **env), preexec_fn=preexec_fn,
        capture_output=True, text=True, timeout=300)


def run_cli(*args, preexec_fn=None, **env):
    """`python -m tscnc.cli ARGS` in a subprocess."""
    return run_python("-m", "tscnc.cli", *args, preexec_fn=preexec_fn, **env)


def limit_address_space():
    """Cap the calling process's address space at 2 GB (a preexec_fn)."""
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, hard))


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
        assert ck.state["architecture"] == "mlp-10"
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

    def test_negative_lr_milestone_exits_2(self, tmp_path, config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["lr_milestones"] = [-1]
        config_path.write_text(json.dumps(doc))
        rc = main(["--quiet", "train", "--config", str(config_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: lr_milestones must be non-negative, got [-1]\n")
        assert not (tmp_path / "o").exists()

    def test_negative_lr_factor_exits_2(self, tmp_path, config_path, capsys):
        # it would run the epochs after the milestone at lr -0.1: gradient ascent
        doc = json.loads(config_path.read_text())
        doc.update(lr_factor=-1, lr_milestones=[1])
        config_path.write_text(json.dumps(doc))
        rc = main(["--quiet", "train", "--config", str(config_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: lr_factor must be positive, got -1.0\n")
        assert not (tmp_path / "o").exists()

    def test_failed_metrics_write_exits_3(self, tmp_path, config_path, capsys):
        out = tmp_path / "o"
        (out / "metrics.csv").mkdir(parents=True)
        rc = main(["--quiet", "train", "--config", str(config_path),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        # no temp file is left beside the outputs
        assert sorted(os.listdir(out)) == ["metrics.csv", "model.tscn"]
        assert os.listdir(out / "metrics.csv") == []

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["--quiet", "train", "--config", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        rc = main(["--quiet", "train", "--config", str(deep),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

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

    def test_clamp_key_exits_2(self, tmp_path, config_path, capsys):
        # attacks clip to the data's fixed range; a config that still sets
        # a clamp is refused, not read and ignored
        doc = json.loads(config_path.read_text())
        doc["train_attack"]["clamp"] = [0.0, 1.0]
        config_path.write_text(json.dumps(doc))
        assert main(["--quiet", "train", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown config keys: ['train_attack.clamp']\n")
        assert not (tmp_path / "o").exists()

    def test_eval_attack_name_with_a_comma_exits_2(self, tmp_path, config_path,
                                                  capsys):
        # "a,b_acc" would split one metrics.csv column in two
        doc = json.loads(config_path.read_text())
        doc["eval_attacks"] = {"a,b": {"epsilon": 0.05}}
        config_path.write_text(json.dumps(doc))
        assert main(["--quiet", "train", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "eval_attacks name 'a,b'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_zero_width_architecture_exits_2(self, tmp_path, config_path):
        doc = json.loads(config_path.read_text())
        doc["architecture"] = "mlp-0"
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr == "configuration error: unknown architecture id 'mlp-0'\n"
        assert not (tmp_path / "o" / "model.tscn").exists()

    @staticmethod
    def _diverging(config_path):
        doc = json.loads(config_path.read_text())
        doc["lr"] = 1e9
        doc["warmup_epochs"] = 0
        doc["prune"] = {"sparsity": 0.0}
        doc["epochs"] = 20
        config_path.write_text(json.dumps(doc))
        return doc

    def test_divergence_exits_4(self, tmp_path, config_path):
        self._diverging(config_path)
        with np.errstate(all="ignore"):
            rc = main(["--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_divergence_writes_the_epochs_before_it(self, tmp_path, config_path):
        records = []
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError):
                run_tscnc(config_from_dict(self._diverging(config_path)),
                          on_epoch=records.append)
            rc = main(["--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o")])
        assert rc == 4 and records
        os.makedirs(tmp_path / "want")
        write_metrics(records, str(tmp_path / "want" / "metrics"))
        for name in ("metrics.csv", "metrics.json"):
            got = (tmp_path / "o" / name).read_bytes()
            assert got == (tmp_path / "want" / name).read_bytes()


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


    def test_zero_sparsity_rejected_before_the_checkpoint(self, tmp_path,
                                                          config_path, capsys):
        doc = json.loads(config_path.read_text())
        doc["prune"]["sparsity"] = 0.0
        config_path.write_text(json.dumps(doc))
        rc = main(["--quiet", "prune", "--config", str(config_path),
                   "--checkpoint", str(tmp_path / "absent.tscn"),
                   "--out", str(tmp_path / "p")])
        assert rc == 2
        assert "prune.sparsity > 0" in capsys.readouterr().err

    def test_magnitude_prune_reads_no_data(self, tmp_path, config_path, trained):
        doc = json.loads(config_path.read_text())
        missing = f"idx:{tmp_path / 'no-images'}:{tmp_path / 'no-labels'}"
        runs = [("real", doc["dataset"], "magnitude", 0),
                ("missing", missing, "magnitude", 0),
                ("saliency", missing, "adversarial_saliency", 3)]
        for name, dataset, criterion, status in runs:
            doc["dataset"] = dataset
            doc["prune"] = {"sparsity": 0.7, "criterion": criterion}
            config_path.write_text(json.dumps(doc))
            assert main(["--quiet", "prune", "--config", str(config_path),
                         "--checkpoint", str(trained / "model.tscn"),
                         "--out", str(tmp_path / name)]) == status
        real, missing = tmp_path / "real", tmp_path / "missing"
        assert (real / "prune_report.json").read_bytes() == \
            (missing / "prune_report.json").read_bytes()
        # the checkpoints differ only in the dataset id their header records
        nets = [load_checkpoint(d / "model.tscn").net for d in (real, missing)]
        for a, b in zip(nets[0].layers, nets[1].layers):
            if a.parameterized:
                for name in ("W", "b", "Z"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_reprune_at_or_below_the_held_sparsity_warns(self, tmp_path,
                                                         config_path, trained,
                                                         capsys):
        doc = json.loads(config_path.read_text())
        capsys.readouterr()
        for sparsity, warned in ((0.2, True), (0.4, True), (0.7, False)):
            doc["prune"]["sparsity"] = sparsity
            config_path.write_text(json.dumps(doc))
            out = tmp_path / f"p{sparsity}"
            assert main(["--quiet", "prune", "--config", str(config_path),
                         "--checkpoint", str(trained / "model.tscn"),
                         "--out", str(out)]) == 0
            err = capsys.readouterr().err
            if warned:
                assert err.startswith("warning: global sparsity stayed at 0.4")
                assert err.count("\n") == 1
                # masked weights are never unmasked
                assert (out / "prune_report.json").read_bytes() == \
                    (trained / "prune_report.json").read_bytes()
            else:
                assert err == ""


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
        assert re.search(r": holds \(lipschitz \S+ from (sampled quotient|gradient "
                         r"norm) <= upper \S+\)\n", out)

    def test_bound_check_prints_a_violation(self, trained, monkeypatch, capsys):
        # a sigma_max reported 10x too small puts the bound below the estimate
        monkeypatch.setattr(tscnc.metrics, "layer_spectrum", under_reported_spectrum)
        assert main(["inspect", "--checkpoint", str(trained / "model.tscn")]) == 0
        assert re.search(r": violated \(lipschitz \S+ from (sampled quotient|gradient "
                         r"norm) > upper \S+\)\n", capsys.readouterr().out)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_one_svd_per_layer(self, tmp_path, request, monkeypatch, capsys,
                               kind):
        # the bound reads each hidden sigma_max from the report the table prints
        if kind == "mlp":
            ckpt = request.getfixturevalue("trained") / "model.tscn"
        else:
            ckpt = tmp_path / "cnn.tscn"
            save_checkpoint(ckpt, build_network("cnn-8x16-32", (1, 8, 8), 6,
                                                seed=3))
        layers = len(load_checkpoint(ckpt).net.parameterized_indices())
        calls = []
        real = tscnc.metrics.layer_spectrum

        def counted(m):
            calls.append(m.shape)
            return real(m)

        monkeypatch.setattr(tscnc.metrics, "layer_spectrum", counted)
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 0
        assert ": holds (" in capsys.readouterr().out
        assert len(calls) == layers == {"mlp": 2, "cnn": 4}[kind]

    def test_overflowing_weights_skip_the_bound_check(self, tmp_path, capsys):
        # finite weights that overflow at the probe leave no Lipschitz
        # estimate: "violated" would claim a bug the check cannot see.  Each
        # layer's spectrum is finite; the logits, +-6e400, are not
        net = build_mlp(3, [4], 2, seed=0)
        net.layers[0].W[...] = 1e200
        net.layers[2].W[...] = [1e200, -1e200]
        path = tmp_path / "overflow.tscn"
        save_checkpoint(path, net)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["inspect", "--checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bound check skipped: logits at the probe point are not finite" in out
        assert "violated" not in out

    def test_overflowing_spectrum_is_a_numeric_error(self, tmp_path, capsys):
        # every weight is finite, but layer 0's sigma_max, sqrt(12) * 1e308,
        # is not: rank 0 and kappa inf would misreport a full-rank layer
        net = build_mlp(3, [4], 2, seed=0)
        net.layers[0].W[...] = 1e308
        path = tmp_path / "overflow.tscn"
        save_checkpoint(path, net)
        assert main(["inspect", "--checkpoint", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_fgsm_spec_is_the_library_rule(self, eps):
        assert _parse_attacks(f"fgsm:{eps}")["fgsm"] == fgsm_spec(eps)

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

    def test_prune_labels_beyond_checkpoint_classes_exit_3(self, tmp_path, trained,
                                                           config_path):
        # the checkpoint has 3 classes, the data 6; saliency attacks the data
        doc = json.loads(config_path.read_text())
        doc["dataset"] = "blobs-c6-d12-n20-s0.06"
        config_path.write_text(json.dumps(doc))
        proc = run_cli("--quiet", "prune", "--config", str(config_path),
                       "--checkpoint", str(trained / "model.tscn"),
                       "--out", str(tmp_path / "pruned"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("data shape error: ")
        assert proc.stderr.count("\n") == 1
        assert "3 classes" in proc.stderr
        assert not (tmp_path / "pruned").exists()

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

    def test_inspect_tied_logits_skip_bound_check(self, tmp_path, capsys):
        # every weight masked: both logits are 0, so the runner-up is the
        # predicted class and check_eq7 has no margin to bound
        net = build_mlp(3, [4], 2, seed=0)
        apply_masks(net, {li: np.zeros_like(net.layers[li].Z)
                          for li in net.parameterized_indices()})
        path = tmp_path / "tied.tscn"
        save_checkpoint(path, net)
        assert main(["inspect", "--checkpoint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bound check skipped: comparison class 0 equals the predicted " \
               "class" in out
        assert "bound check against" not in out


class TestOversized:
    """A size from a config key or --data that does not fit in memory is a
    config error: exit 2 and one line; one a checkpoint declares is a format
    error: exit 3.  Each run caps its address space, so the allocation fails
    at once; with memory overcommit an uncapped one can succeed and the OS
    kills the process later.  One BLAS thread keeps OpenBLAS's per-thread
    buffers from using up the cap before the CLI starts."""

    @pytest.mark.parametrize("over", [
        {"architecture": "mlp-1000000000000"},
        {"architecture": "cnn-2-1000000000000",
         "dataset": "blobs-c3-d16-n10-s0.1-i1x4x4"},
        {"dataset": "blobs-c2-d1000000000000-n1-s0.1"},
        {"dataset": "blobs-c2-d4-n1000000000000-s0.1"},
    ], ids=["mlp-width", "cnn-fc-width", "blobs-dim", "blobs-count"])
    def test_train(self, tmp_path, config_path, over):
        pytest.importorskip("resource")
        doc = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**doc, **over}))
        proc = run_cli("--quiet", "train", "--config", str(config_path),
                       "--out", str(tmp_path / "o"),
                       preexec_fn=limit_address_space, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: Unable to allocate")
        assert proc.stderr.count("\n") == 1

    def test_evaluate_data(self, trained):
        pytest.importorskip("resource")
        proc = run_cli("evaluate", "--checkpoint", str(trained / "model.tscn"),
                       "--attacks", "fgsm:0.1",
                       "--data", "blobs-c2-d1000000000000-n1-s0.1",
                       preexec_fn=limit_address_space, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: Unable to allocate")
        assert proc.stderr.count("\n") == 1

    # a stride that maps the declared image onto the conv's 6x6 output keeps
    # the loader's shape walk intact, so only inspect's probe input (a) or
    # its 200 bound-check samples (b) reach the size
    @pytest.mark.parametrize("side, stride", [(600000, 100000), (6000, 1000)],
                             ids=["probe", "samples"])
    def test_inspect_declared_input(self, tmp_path, side, stride):
        pytest.importorskip("resource")
        path = tmp_path / "c.tscn"
        save_checkpoint(path, build_cnn((1, 6, 6), [4], 10, 3, seed=5))

        def edit(header):
            header["input_shape"] = [1, side, side]
            header["layers"][0]["stride"] = stride
        rewrite_header(path, edit)
        assert load_checkpoint(path).net.input_shape == (1, side, side)
        # not --quiet: the report, printed only once nothing can fail, is absent
        proc = run_cli("inspect", "--checkpoint", str(path),
                       preexec_fn=limit_address_space, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            f"data format error at offset 12: {path}: input_shape "
            f"[1, {side}, {side}] does not fit in memory: Unable to allocate")
        assert proc.stderr.count("\n") == 1


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


def _conv_config(dataset, architecture, batch_size, sparsity):
    return {"dataset": dataset, "architecture": architecture, "epochs": 2,
            "batch_size": batch_size, "warmup_epochs": 1,
            "train_attack": {"epsilon": 0.05, "step_size": 0.0125, "steps": 2},
            "eval_attacks": {}, "prune": {"sparsity": sparsity}}


# cnn-8x16-32 on 1x8x8 runs its second conv in 7-row chunks, so a batch of 32
# takes four full chunks and a partial one
CONV_CONFIGS = {
    "cnn-2-4": _conv_config("blobs-c3-d16-n10-s0.1-i1x4x4", "cnn-2-4", 16, 0.4),
    "cnn-8x16-32": _conv_config("blobs-c6-d64-n20-s0.6-i1x8x8", "cnn-8x16-32",
                                32, 0.5),
}

# no CLI command reaches the Lipschitz sampler: print q=1 and q=2 robustness
# radii at four held-out points (data seed 1)
RADII = """
import sys, tscnc
net = tscnc.load_checkpoint(sys.argv[1]).net
held = tscnc.load_dataset(sys.argv[2], seed=1)
for j in range(4):
    for q in (1, 2):
        print(j, q, repr(tscnc.robustness_radius(net, held.images[j], r=0.1,
                                                 q=q, n=100, seed=1)))
"""


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

    @pytest.mark.parametrize("name", sorted(CONV_CONFIGS))
    def test_conv_thread_counts_give_identical_bytes(self, tmp_path, name):
        # each conv product is a BLAS call, and inspect and evaluate run the
        # chunked conv gather and scatter
        doc = CONV_CONFIGS[name]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            model = str(out / "model.tscn")
            run_cli("--quiet", "train", "--config", str(config), "--out", str(out),
                    OPENBLAS_NUM_THREADS=threads).check_returncode()
            runs = [run_cli("inspect", "--checkpoint", model,
                            OPENBLAS_NUM_THREADS=threads),
                    run_cli("evaluate", "--checkpoint", model, "--attacks",
                            "pgd:0.05:3:0.0125", "--data", doc["dataset"],
                            OPENBLAS_NUM_THREADS=threads)]
            if name == "cnn-8x16-32":
                runs.append(run_python("-c", RADII, model, doc["dataset"],
                                       OPENBLAS_NUM_THREADS=threads))
            for proc in runs:
                proc.check_returncode()
            outputs.append([(out / f).read_bytes()
                            for f in ("model.tscn", "metrics.json")]
                           + [proc.stdout for proc in runs])
        assert outputs[0] == outputs[1]
        assert all(outputs[0])
