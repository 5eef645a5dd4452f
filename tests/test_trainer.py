"""Training loop behavior: schedule, momentum algebra, phase structure,
metric bookkeeping, determinism, and failure reporting."""

import dataclasses
import json

import numpy as np
import pytest

from oracles import ascend_out_of_place, evaluate_every_row
import tscnc.attacks
from tscnc import network, trainer
from tscnc.attacks import AttackSpec, evaluate, fgsm_spec, pgd
from tscnc.cli import main
from tscnc.data import Dataset, load_dataset
from tscnc.errors import ConfigError, DimensionError, DivergenceError, ValidationError
from tscnc.network import (
    Gradients,
    build_cnn,
    build_mlp,
    build_network,
    cross_entropy,
    forward,
)
from tscnc.pruning import PruneSpec, apply_masks, prune_report
from tscnc.tensor_ops import layer_spectrum
from tscnc.trainer import (
    TrainConfig,
    config_from_dict,
    lr_at,
    run_tscnc,
    sgd_step,
)


def small_config(**over):
    base = dict(
        dataset="blobs-c3-d12-n40-s0.06",
        architecture="mlp-16",
        epochs=3,
        batch_size=32,
        lr=0.1,
        warmup_epochs=1,
        lam=0.001,
        train_attack=AttackSpec(epsilon=0.05, step_size=0.0125, steps=3,
                                random_start=True),
        eval_attacks={"pgd": AttackSpec(epsilon=0.05, step_size=0.0125,
                                        steps=3)},
        prune=PruneSpec(sparsity=0.5),
        seed=3,
    )
    base.update(over)
    return TrainConfig(**base)


class TestSchedule:
    def test_milestone_boundaries(self):
        cfg = small_config()
        assert lr_at(0, cfg) == 0.1
        assert lr_at(29, cfg) == 0.1
        assert abs(lr_at(30, cfg) - 0.01) < 1e-15
        assert abs(lr_at(44, cfg) - 0.01) < 1e-15
        assert abs(lr_at(45, cfg) - 0.001) < 1e-15
        assert abs(lr_at(49, cfg) - 0.001) < 1e-15

    def test_custom_milestones(self):
        cfg = small_config(lr=1.0, lr_milestones=(2, 4, 6), lr_factor=0.5)
        assert [lr_at(e, cfg) for e in range(7)] == [
            1.0, 1.0, 0.5, 0.5, 0.25, 0.25, 0.125]


class TestSgdStep:
    def test_hand_recurrence(self):
        net = build_mlp(1, [], 1, seed=0)
        net.layers[0].W = np.array([[1.0]])
        net.layers[0].b = np.array([0.0])
        g = Gradients(None, weight={0: np.array([[0.3]])}, bias={0: np.array([0.0])})
        vel = {}
        sgd_step(net, g, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(net.layers[0].W[0, 0] - 0.97) < 1e-12
        assert abs(vel[0]["W"][0, 0] - 0.3) < 1e-12
        sgd_step(net, g, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert abs(vel[0]["W"][0, 0] - 0.57) < 1e-12
        assert abs(net.layers[0].W[0, 0] - 0.913) < 1e-12

    def test_wrongly_shaped_gradient_rejected(self):
        net = build_mlp(3, [], 2, seed=0)
        g = Gradients(None, weight={0: np.zeros((2, 3))}, bias={0: np.zeros(2)})
        with pytest.raises(ValidationError, match="gradient shape mismatch on layer 0"):
            sgd_step(net, g, {}, lr=0.1, momentum=0.9, weight_decay=0.0)

    def test_matches_reference_recurrence(self):
        # oracle: the same update written as explicit scalar loops
        rng = np.random.default_rng(8)
        net = build_mlp(3, [4], 2, seed=8)
        w_ref = {li: net.layers[li].W.copy() for li in (0, 2)}
        b_ref = {li: net.layers[li].b.copy() for li in (0, 2)}
        v_ref = {li: (np.zeros_like(w_ref[li]), np.zeros_like(b_ref[li]))
                 for li in (0, 2)}
        vel = {}
        lr, mom, wd = 0.05, 0.9, 5e-4
        for _ in range(4):
            grads = Gradients(
                None,
                weight={li: rng.normal(size=w_ref[li].shape) for li in (0, 2)},
                bias={li: rng.normal(size=b_ref[li].shape) for li in (0, 2)},
            )
            sgd_step(net, grads, vel, lr=lr, momentum=mom, weight_decay=wd)
            for li in (0, 2):
                vw, vb = v_ref[li]
                vw[:] = mom * vw + grads.weight[li] + wd * w_ref[li]
                vb[:] = mom * vb + grads.bias[li]
                w_ref[li] -= lr * vw
                b_ref[li] -= lr * vb
        for li in (0, 2):
            assert np.allclose(net.layers[li].W, w_ref[li], atol=1e-12)
            assert np.allclose(net.layers[li].b, b_ref[li], atol=1e-12)

    def test_no_weight_decay_on_bias(self):
        net = build_mlp(2, [], 2, seed=1)
        net.layers[0].b = np.array([1.0, -1.0])
        before = net.layers[0].b.copy()
        g = Gradients(None, weight={0: np.zeros((2, 2))}, bias={0: np.zeros(2)})
        sgd_step(net, g, {}, lr=0.1, momentum=0.9, weight_decay=0.5)
        assert np.array_equal(net.layers[0].b, before)
        assert not np.array_equal(net.layers[0].W, np.zeros((2, 2)))

    def test_masked_weights_stay_zero(self):
        net = build_mlp(3, [], 2, seed=2)
        mask = net.layers[0].Z.copy()
        mask[1, :] = False
        apply_masks(net, {0: mask})
        g = Gradients(None, weight={0: np.ones((3, 2))}, bias={0: np.zeros(2)})
        vel = {}
        for _ in range(5):
            sgd_step(net, g, vel, lr=0.1, momentum=0.9, weight_decay=5e-4)
        assert np.all(net.layers[0].W[1, :] == 0.0)
        assert np.any(net.layers[0].W[0, :] != 0.0)

    def test_version_bumps(self):
        net = build_mlp(2, [], 2, seed=0)
        v0 = net.version
        g = Gradients(None, weight={0: np.zeros((2, 2))}, bias={0: np.zeros(2)})
        sgd_step(net, g, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert net.version == v0 + 1


class TestConfigFromDict:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({"dataset": "blobs-c3-d6-n5-s0.1",
                                "architecture": "mlp-4"})
        assert cfg.epochs == 50
        assert cfg.lr == 0.1
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.lr_milestones == (30, 45)
        assert cfg.lam == 0.001
        assert cfg.tau == 1e-4
        assert cfg.prune.sparsity == 0.0

    def test_empty_prune_object_means_no_pruning(self):
        cfg = config_from_dict({"dataset": "x", "architecture": "y",
                                "prune": {}})
        assert cfg.prune == PruneSpec(sparsity=0.0)
        assert cfg.prune.sparsity == 0.0

    def test_every_field_round_trips_through_json(self):
        cfg = TrainConfig(
            dataset="blobs-c3-d6-n5-s0.1", architecture="mlp-4", epochs=7,
            batch_size=16, lr=0.25, momentum=0.5, weight_decay=1e-3,
            lr_milestones=(3, 5), lr_factor=0.5, lam=0.01, tau=1e-3,
            train_attack=AttackSpec(epsilon=0.2, step_size=0.05, steps=4,
                                    random_start=True),
            eval_attacks={"a": AttackSpec(epsilon=0.1, step_size=0.1,
                                          steps=1, random_start=True)},
            prune=PruneSpec(sparsity=0.5, scope="per_layer",
                            protected=(0, 2), criterion="magnitude"),
            warmup_epochs=2, seed=11,
        )
        # every field, nested ones included, is off the default the reader
        # would fill in, so a key it drops shows as a difference below
        default = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for spec in (cfg.train_attack, cfg.eval_attacks["a"]):
            for f in dataclasses.fields(AttackSpec):
                assert getattr(spec, f.name) != f.default, f.name
        for f in dataclasses.fields(PruneSpec):
            assert getattr(cfg.prune, f.name) != f.default, f.name
        doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_dict(doc) == cfg

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            config_from_dict([{"dataset": "x", "architecture": "y"}])

    def test_attack_epsilon_is_required(self):
        with pytest.raises(ConfigError, match="train_attack.epsilon is required"):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "train_attack": {}})

    def test_float_overflow_is_a_config_error(self):
        # float() of a 400-digit integer overflows
        with pytest.raises(ConfigError, match="config key lr must be a float"):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "lr": 10 ** 400})

    @pytest.mark.parametrize("key, message", [
        ("dataset", "config needs a dataset id"),
        ("architecture", "config needs an architecture id"),
    ])
    def test_ids_are_required(self, key, message):
        with pytest.raises(ValidationError, match=message):
            small_config(**{key: ""}).validate()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "leraning_rate": 0.1})

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "train_attack": {"epsilon": 0.1, "alpha": 0.01}})
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "prune": {"sparsity": 0.5, "mode": "l1"}})

    def test_nested_structures(self):
        cfg = config_from_dict({
            "dataset": "blobs-c3-d6-n5-s0.1",
            "architecture": "mlp-4",
            "train_attack": {"epsilon": 0.1, "step_size": 0.02, "steps": 5,
                             "random_start": True},
            "eval_attacks": {"weak": {"epsilon": 0.05, "step_size": 0.05,
                                      "steps": 1}},
            "prune": {"sparsity": 0.9, "scope": "per_layer",
                      "protected": [0], "criterion": "magnitude"},
            "lr_milestones": [10, 20],
        })
        assert cfg.train_attack.steps == 5
        assert cfg.train_attack.random_start is True
        assert cfg.eval_attacks["weak"].epsilon == 0.05
        assert cfg.prune.scope == "per_layer"
        assert cfg.prune.protected == (0,)
        assert cfg.prune.criterion == "magnitude"
        assert cfg.lr_milestones == (10, 20)

    def test_bad_scalar_types(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "epochs": "many"})
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "x", "architecture": "y",
                              "epochs": True})
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": 3, "architecture": "y"})

    @pytest.mark.parametrize("over", [
        {"eval_attacks": [1]},
        {"train_attack": 3},
        {"prune": ["sparsity"]},
        {"lr_milestones": 5},
        {"train_attack": {"epsilon": "abc"}},
        {"lr_milestones": [[10]]},
        {"prune": {"sparsity": "x"}},
        {"prune": {"sparsity": 0.5, "protected": 3}},
        {"train_attack": {"epsilon": 0.1, "steps": "2.5"}},
        {"train_attack": {"epsilon": 0.1, "random_start": "false"}},
        {"epochs": float("inf")},
        {"epochs": float("nan")},
        {"epochs": 2.7},
        {"seed": -0.5},
        {"lr_milestones": [10, 20.5]},
        {"train_attack": {"epsilon": 0.1, "steps": 2.5}},
        {"prune": {"sparsity": 0.5, "protected": [0.5]}},
        {"prune": {"scope": 3}},
        {"prune": {"criterion": []}},
        {"prune": {"sparsity": 0.5, "protected": [True]}},
        # numeric keys take JSON numbers, not strings that parse as numbers
        {"epochs": "7"},
        {"lr": " 0.5 "},
        {"tau": "1e-3"},
        {"train_attack": {"epsilon": "0.1"}},
        {"lr_milestones": ["20"]},
    ])
    def test_malformed_nested_values(self, over):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "x", "architecture": "y", **over})

    @pytest.mark.parametrize("over, key", [
        ({"train_attack": {"epsilon": 0.1, "clamp": [0.0, 1.0]}},
         "train_attack.clamp"),
        ({"eval_attacks": {"w": {"epsilon": 0.1, "clamp": [0.0, 1.0]}}},
         "eval_attacks[w].clamp"),
    ], ids=["train_attack", "eval_attacks"])
    def test_clamp_is_an_unknown_key(self, over, key):
        # attacks clip to the data's fixed range, so no attack spec sets one
        with pytest.raises(ConfigError) as info:
            config_from_dict({"dataset": "x", "architecture": "y", **over})
        assert str(info.value) == f"unknown config keys: ['{key}']"

    def test_trades_beta_reserved(self):
        # the smoothness-regularized objective is not implemented, so its
        # key is unknown rather than accepted and ignored
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "blobs-c3-d6-n5-s0.1",
                              "architecture": "mlp-4", "trades_beta": 6.0})

    def test_integral_floats_accepted_on_int_keys(self):
        cfg = config_from_dict({"dataset": "x", "architecture": "y",
                                "epochs": 3.0, "lr_milestones": [2.0],
                                "train_attack": {"epsilon": 0.1, "steps": 4.0}})
        assert cfg.epochs == 3 and type(cfg.epochs) is int
        assert cfg.lr_milestones == (2,)
        assert cfg.train_attack.steps == 4 and type(cfg.train_attack.steps) is int

    @pytest.mark.parametrize("key", ["lr", "momentum", "weight_decay",
                                     "lr_factor", "lam", "tau"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_fields_rejected(self, key, value):
        doc = json.loads(f'{{"dataset": "x", "architecture": "y", "{key}": {value}}}')
        cfg = config_from_dict(doc)
        with pytest.raises(ValidationError):
            cfg.validate()

    @pytest.mark.parametrize("attack", [
        '{"epsilon": NaN}',
        '{"epsilon": 0.1, "step_size": NaN, "steps": 1}',
        '{"epsilon": Infinity, "step_size": 0.1, "steps": 1}',
    ])
    def test_non_finite_attack_budget_rejected(self, attack):
        for key, doc in (("train_attack", attack),
                         ("eval_attacks", f'{{"pgd": {attack}}}')):
            cfg = config_from_dict(json.loads(
                f'{{"dataset": "x", "architecture": "y", "{key}": {doc}}}'))
            with pytest.raises(ValidationError):
                cfg.validate()

    def test_validate_rejects_bad_numbers(self):
        for over in ({"epochs": 0}, {"lr": 0.0}, {"lam": -0.1},
                     {"tau": 0.0}, {"batch_size": 0}, {"warmup_epochs": -1},
                     {"lr_milestones": (2, -1)}, {"momentum": 1.0},
                     {"momentum": 1.5}, {"momentum": -0.5},
                     {"weight_decay": -0.1}, {"lr_factor": 0.0},
                     {"lr_factor": -1.0}):
            cfg = small_config(**over)
            with pytest.raises(ValidationError, match=next(iter(over))):
                cfg.validate()
        # the edges of the optimizer ranges: plain SGD, no decay, a rising lr
        small_config(momentum=0.0, weight_decay=0.0, lr_factor=2.0).validate()

    def test_negative_seed_rejected(self):
        cfg = config_from_dict({"dataset": "x", "architecture": "y",
                                "seed": -1})
        with pytest.raises(ValidationError, match="seed"):
            cfg.validate()
        small_config(seed=0).validate()

    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\rb", "a\nb", "clean"],
                             ids=["empty", "comma", "quote", "cr", "lf", "clean"])
    def test_eval_attack_name_must_be_a_csv_column(self, name):
        # each name heads a <name>_acc column; these would split a column,
        # break a row or repeat clean_acc
        cfg = small_config(eval_attacks={name: AttackSpec(epsilon=0.05)})
        with pytest.raises(ValidationError, match="metrics.csv column"):
            cfg.validate()
        small_config(eval_attacks={"a b": AttackSpec(epsilon=0.05),
                                   "clean2": AttackSpec(epsilon=0.05)}).validate()


class TestEvaluate:
    def test_handmade_perfect_classifier(self):
        # logits_k = sum of the coordinates belonging to residue class k;
        # on block-pattern blobs this recovers the label with a wide margin
        data = load_dataset("blobs-c3-d12-n30-s0.02", seed=5)
        net = build_mlp(12, [], 3, seed=0)
        net.layers[0].W = np.array(
            [[1.0 if j % 3 == k else 0.0 for k in range(3)]
             for j in range(12)])
        net.layers[0].b = np.zeros(3)
        res = evaluate(net, data,
                       {"pgd": AttackSpec(epsilon=0.01, step_size=0.005,
                                          steps=4)})
        assert res["clean_acc"] == 1.0
        assert res["robust_acc"]["pgd"] == 1.0

    def test_constant_logits_give_chance(self):
        data = load_dataset("blobs-c4-d8-n25-s0.1", seed=1)
        net = build_mlp(8, [], 4, seed=0)
        net.layers[0].W = np.zeros((8, 4))
        net.layers[0].b = np.zeros(4)
        res = evaluate(net, data, {})
        assert res["clean_acc"] == 0.25
        assert res["robust_acc"] == {}

    def test_attack_does_not_raise_accuracy(self):
        cfg = small_config(epochs=2)
        net, _ = run_tscnc(cfg)
        data = load_dataset(cfg.dataset, seed=cfg.seed)
        res = evaluate(net, data,
                       {"strong": AttackSpec(epsilon=0.1, step_size=0.025,
                                             steps=10)})
        assert res["robust_acc"]["strong"] <= res["clean_acc"]

    def test_attack_landing_on_true_class_is_not_robust(self):
        # margin |x - 0.5| - 0.2 for class 1: x = 0.45 is misclassified, and
        # one full-budget sign step overshoots the valley to x = 0.75, where
        # class 1 wins; the example still counts as not robust
        net = build_mlp(1, [2], 2, seed=0)
        net.layers[0].W = np.array([[1.0, -1.0]])
        net.layers[0].b = np.array([-0.5, 0.5])
        net.layers[2].W = np.array([[0.0, 1.0], [0.0, 1.0]])
        net.layers[2].b = np.array([0.0, -0.2])
        data = Dataset(images=np.array([[0.45]]), labels=np.array([1]), classes=2)
        spec = AttackSpec(epsilon=0.3, step_size=0.3, steps=1)
        adv = pgd(net, data.images, data.labels, spec)
        assert int(np.argmax(forward(net, adv)[0][0])) == 1
        res = evaluate(net, data, {"fgsm": spec})
        assert res["clean_acc"] == 0.0
        assert res["robust_acc"]["fgsm"] == 0.0

    @pytest.mark.parametrize("attacks", [
        {"rs": AttackSpec(epsilon=0.1, step_size=0.025, steps=3, random_start=True)},
        {"pgd": AttackSpec(epsilon=0.1, step_size=0.025, steps=3),
         "fgsm": fgsm_spec(0.1)},
    ], ids=["one-random-start", "pgd-fgsm"])
    def test_batch_size_leaves_the_accuracies_alone(self, monkeypatch, attacks):
        # two random-start attacks interleave their draws batch by batch, so
        # only these cases hold whatever the batch size
        data = load_dataset("blobs-c3-d12-n30-s0.1", seed=2)
        net = build_mlp(12, [6], 3, seed=2)
        whole = evaluate(net, data, attacks, np.random.default_rng(4))
        monkeypatch.setattr(tscnc.attacks, "EVAL_BATCH_SIZE", 7)
        assert evaluate(net, data, attacks, np.random.default_rng(4)) == whole

    @pytest.mark.parametrize("case", [
        "mlp-pgd-fgsm", "cnn-pgd-fgsm", "one-random-start", "two-random-starts",
        "zero-eps-random-start", "outside-feature-range", "batch-7",
    ])
    def test_matches_attacking_every_row(self, monkeypatch, case):
        data = load_dataset("blobs-c3-d12-n30-s0.3", seed=0)
        net = build_mlp(12, [6], 3, seed=2)
        rs = AttackSpec(epsilon=0.1, step_size=0.025, steps=3, random_start=True)
        attacks = {"pgd": AttackSpec(epsilon=0.1, step_size=0.025, steps=10),
                   "fgsm": fgsm_spec(0.1)}
        batch = tscnc.attacks.EVAL_BATCH_SIZE
        if case == "cnn-pgd-fgsm":
            data = load_dataset("blobs-c3-d16-n30-s0.3-i1x4x4", seed=0)
            net = build_cnn((1, 4, 4), [2], 8, 3, seed=1)
        elif case == "one-random-start":
            attacks = {"rs": rs}
        elif case == "two-random-starts":
            attacks = {"rs": rs, "pgd": attacks["pgd"],
                       "rs2": AttackSpec(epsilon=0.05, step_size=0.02, steps=2,
                                         random_start=True)}
        elif case == "zero-eps-random-start":
            attacks = {"zero": AttackSpec(epsilon=0.0, step_size=0.025, steps=2,
                                          random_start=True), "rs": rs}
        elif case == "outside-feature-range":
            data = Dataset(data.images * 1.6 - 0.3, data.labels, data.classes)
            attacks["rs"] = rs
        elif case == "batch-7":
            batch = 7
            monkeypatch.setattr(tscnc.attacks, "EVAL_BATCH_SIZE", batch)
            attacks["rs"], attacks["rs2"] = rs, rs
        ours, ref = np.random.default_rng(6), np.random.default_rng(6)
        res = evaluate(net, data, attacks, ours)
        assert 0.0 < res["clean_acc"] < 1.0
        assert res == evaluate_every_row(net, data, attacks, ref, batch_size=batch)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_batch_without_a_clean_correct_row(self, monkeypatch):
        # every prediction is class 0 and no label is; the random start is
        # still drawn, and no loss is taken over zero rows
        data = load_dataset("blobs-c3-d12-n30-s0.3", seed=0)
        keep = data.labels > 0
        data = Dataset(data.images[keep], data.labels[keep], data.classes)
        net = build_mlp(12, [], 3, seed=0)
        net.layers[0].W = np.zeros((12, 3))
        net.layers[0].b = np.array([1.0, 0.0, 0.0])
        attacks = {"pgd": AttackSpec(epsilon=0.1, step_size=0.025, steps=3),
                   "rs": AttackSpec(epsilon=0.1, step_size=0.025, steps=3,
                                    random_start=True)}
        rows = []

        def counted(logits, labels):
            rows.append(len(labels))
            return cross_entropy(logits, labels)

        def counted_pass(net, x, labels):
            rows.append(len(labels))
            return network._input_gradient(net, x, labels)

        monkeypatch.setattr(network, "cross_entropy", counted)
        monkeypatch.setattr(tscnc.attacks, "_input_gradient", counted_pass)
        ours, ref = np.random.default_rng(6), np.random.default_rng(6)
        res = evaluate(net, data, attacks, ours)
        assert rows == []
        assert res == evaluate_every_row(net, data, attacks, ref) == {
            "clean_acc": 0.0, "robust_acc": {"pgd": 0.0, "rs": 0.0}}
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_one_shared_first_gradient_over_the_clean_correct_rows(self, monkeypatch):
        # the residue-class classifier gets every example right; relabelling
        # every fourth one makes it wrong there.  pgd-3 and fgsm share their
        # first gradient: 3 + 1 - 1 passes a batch, over the correct rows
        data = load_dataset("blobs-c3-d12-n30-s0.02", seed=5)
        labels = data.labels.copy()
        labels[::4] = (labels[::4] + 1) % 3
        data = Dataset(data.images, labels, data.classes)
        net = build_mlp(12, [], 3, seed=0)
        net.layers[0].W = np.array(
            [[1.0 if j % 3 == k else 0.0 for k in range(3)] for j in range(12)])
        net.layers[0].b = np.zeros(3)
        passes = []

        def counted(net, x, y):
            passes.append((len(x), tuple(y)))
            return network._input_gradient(net, x, y)

        monkeypatch.setattr(tscnc.attacks, "_input_gradient", counted)
        monkeypatch.setattr(tscnc.attacks, "EVAL_BATCH_SIZE", 40)
        evaluate(net, data, {"pgd": AttackSpec(epsilon=0.01, step_size=0.005,
                                               steps=3),
                             "fgsm": fgsm_spec(0.01)})
        expected = []
        for start in range(0, len(data), 40):
            right = [i for i in range(start, min(start + 40, len(data))) if i % 4]
            expected += [(len(right), tuple(labels[right]))] * 3
        assert passes == expected

    def test_empty_dataset_rejected(self):
        net = build_mlp(3, [], 2, seed=0)
        empty = Dataset(images=np.zeros((0, 3)),
                        labels=np.zeros(0, dtype=np.int64), classes=2)
        with pytest.raises(ValidationError, match="empty"):
            evaluate(net, empty, {})

    def test_label_beyond_the_classes_rejected_before_any_attack(self, monkeypatch):
        net = build_mlp(3, [], 2, seed=0)
        data = Dataset(images=np.zeros((2, 3)), labels=np.array([0, 2]), classes=3)
        attacked = []
        monkeypatch.setattr(tscnc.attacks, "_start", lambda *a, **k: attacked.append(a))
        with pytest.raises(DimensionError, match="2 classes"):
            evaluate(net, data, {"fgsm": AttackSpec(epsilon=0.0, step_size=0.0,
                                                    steps=0)})
        assert attacked == []

    def test_negative_label_rejected_like_one_beyond_the_classes(self):
        net = build_mlp(3, [], 2, seed=0)
        data = Dataset(images=np.zeros((4, 3)), labels=np.array([0, 1, -1, 0]),
                       classes=2)
        with pytest.raises(DimensionError,
                           match="^label -1 does not fit a network with 2 classes$"):
            evaluate(net, data, {})

    @pytest.mark.parametrize("case", ["half", "nan", "inf"])
    def test_label_that_is_not_a_whole_number_rejected(self, case):
        data = load_dataset("blobs-c3-d12-n30-s0.3", seed=0)
        net = build_mlp(12, [6], 3, seed=2)
        labels = np.argmax(forward(net, data.images)[0], axis=1).astype(float)
        if case == "half":
            labels += 0.5
        else:
            labels[3] = {"nan": np.nan, "inf": np.inf}[case]
        data = Dataset(data.images, labels, data.classes)
        with pytest.raises(ValidationError, match="whole numbers"):
            evaluate(net, data, {"pgd": AttackSpec(epsilon=0.1, step_size=0.025,
                                                   steps=2)})

    def test_whole_number_float_labels_accepted(self):
        data = load_dataset("blobs-c3-d12-n30-s0.3", seed=0)
        net = build_mlp(12, [6], 3, seed=2)
        attacks = {"pgd": AttackSpec(epsilon=0.1, step_size=0.025, steps=3),
                   "rs": AttackSpec(epsilon=0.1, step_size=0.025, steps=2,
                                    random_start=True)}
        floats = Dataset(data.images, data.labels.astype(float), data.classes)
        assert evaluate(net, floats, attacks) == evaluate(net, data, attacks)


class TestInPlaceAttackBytes:
    """Training and per-epoch evaluation write the same bytes with the
    out-of-place attack loop of tests/oracles.py in place of _ascend."""

    CONFIGS = {
        "mlp-quickstart": {
            "dataset": "blobs-c6-d64-n60-s0.35", "architecture": "mlp-32x16",
            "epochs": 3, "batch_size": 32, "lr": 0.1, "lr_milestones": [2],
            "warmup_epochs": 1, "lam": 0.001,
            "train_attack": {"epsilon": 0.1, "step_size": 0.025, "steps": 5,
                             "random_start": True},
            "prune": {"sparsity": 0.95}, "seed": 0},
        "cnn-4-32": {
            "dataset": "blobs-c6-d64-n60-s0.6-i1x8x8", "architecture": "cnn-4-32",
            "epochs": 2, "batch_size": 32, "lr": 0.1, "warmup_epochs": 1,
            "lam": 0.001,
            "train_attack": {"epsilon": 0.1, "step_size": 0.025, "steps": 3,
                             "random_start": True},
            "eval_attacks": {
                "pgd": {"epsilon": 0.1, "step_size": 0.025, "steps": 3},
                "rs": {"epsilon": 0.1, "step_size": 0.025, "steps": 3,
                       "random_start": True}},
            "prune": {"sparsity": 0.9, "protected": [0, 3]}, "seed": 1},
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_same_bytes_as_the_out_of_place_loop(self, tmp_path, monkeypatch, name):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIGS[name]))

        def train(out):
            assert main(["--quiet", "train", "--config", str(config),
                         "--out", str(out)]) == 0
            return {f: (out / f).read_bytes()
                    for f in ("model.tscn", "metrics.csv", "metrics.json")}

        ours = train(tmp_path / "in-place")
        calls = []

        def oracle(*args, **kwargs):
            calls.append(None)
            return ascend_out_of_place(*args, **kwargs)

        monkeypatch.setattr(tscnc.attacks, "_ascend", oracle)
        assert train(tmp_path / "out-of-place") == ours
        assert calls


class TestRunTscnc:
    def test_plain_sgd_loss_decreases(self):
        # with attacks, pruning, and the conditioning term all switched off
        # this is ordinary momentum SGD on a separable problem
        cfg = small_config(
            epochs=5, warmup_epochs=0, lam=0.0,
            train_attack=AttackSpec(epsilon=0.0),
            eval_attacks={},
            prune=PruneSpec(sparsity=0.0),
            weight_decay=0.0,
        )
        _, records = run_tscnc(cfg)
        losses = [r.loss_E for r in records]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_sparsity_constant_across_epochs(self):
        cfg = small_config(epochs=4, prune=PruneSpec(sparsity=0.9))
        net, records = run_tscnc(cfg)
        for rec in records:
            assert abs(rec.sparsity - records[0].sparsity) < 1e-15
        total = sum(net.layers[li].Z.size for li in net.prunable_indices())
        zeros = sum(int((net.layers[li].Z == 0).sum())
                    for li in net.prunable_indices())
        assert zeros == int(0.9 * total)

    def test_total_loss_identity(self):
        cfg = small_config(epochs=3, lam=0.001)
        _, records = run_tscnc(cfg)
        for rec in records:
            assert abs(rec.loss_total - (rec.loss_E + 0.001 * rec.loss_CC)) \
                < 1e-10

    def test_lr_recorded_per_epoch(self):
        cfg = small_config(epochs=4, lr_milestones=(2,), lr_factor=0.1)
        _, records = run_tscnc(cfg)
        assert records[0].lr == records[1].lr == 0.1
        assert abs(records[2].lr - 0.01) < 1e-15
        assert abs(records[3].lr - 0.01) < 1e-15

    def test_bitwise_determinism(self):
        cfg = small_config(epochs=2)
        net1, rec1 = run_tscnc(cfg)
        net2, rec2 = run_tscnc(cfg)
        for a, b in zip(net1.layers, net2.layers):
            if a.parameterized:
                assert np.array_equal(a.W, b.W)
                assert np.array_equal(a.b, b.b)
                assert np.array_equal(a.Z, b.Z)
        assert [r.loss_E for r in rec1] == [r.loss_E for r in rec2]
        assert [r.clean_acc for r in rec1] == [r.clean_acc for r in rec2]

    def test_seed_changes_outcome(self):
        net1, _ = run_tscnc(small_config(epochs=1, seed=3))
        net2, _ = run_tscnc(small_config(epochs=1, seed=4))
        assert not np.array_equal(net1.layers[0].W, net2.layers[0].W)

    @pytest.mark.parametrize("protected", [(99,), (1,), (-1,)])
    def test_protected_typo_fails_before_warmup(self, monkeypatch, protected):
        def train_epoch(*args):
            raise AssertionError("trained before checking prune.protected")

        monkeypatch.setattr(trainer, "_train_epoch", train_epoch)
        cfg = small_config(prune=PruneSpec(sparsity=0.5, protected=protected))
        with pytest.raises(ValidationError, match="not prunable"):
            run_tscnc(cfg)

    def test_reference_network_skips_warmup(self):
        cfg = small_config(epochs=1, warmup_epochs=50)
        data = load_dataset(cfg.dataset, seed=cfg.seed)
        ref = build_network(cfg.architecture, data.images.shape[1:],
                            data.classes, seed=cfg.seed)
        net, records = run_tscnc(cfg, data=data, reference=ref)
        assert net is ref
        assert len(records) == 1
        assert prune_report(net)["global_sparsity"] > 0.4

    def test_magnitude_criterion(self):
        cfg = small_config(
            epochs=1,
            prune=PruneSpec(sparsity=0.5, criterion="magnitude"),
        )
        net, _ = run_tscnc(cfg)
        report = prune_report(net)
        total = sum(row["size"] for row in report["layers"])
        zeros = sum(row["zeros"] for row in report["layers"])
        assert zeros == int(0.5 * total)

    def test_on_epoch_callback(self):
        seen = []
        cfg = small_config(epochs=3)
        _, records = run_tscnc(cfg, on_epoch=seen.append)
        assert [r.epoch for r in seen] == [0, 1, 2]
        assert seen == records

    @pytest.mark.parametrize("case", ["warmup", "reference", "dense"])
    def test_one_epoch_loop(self, monkeypatch, case):
        calls = []
        train_epoch, score_weights = trainer._train_epoch, trainer.score_weights

        def log_train(net, data, config, lr, velocity, rng):
            calls.append(("train", lr, bool(velocity)))
            return train_epoch(net, data, config, lr, velocity, rng)

        def log_score(*args):
            calls.append(("score",))
            return score_weights(*args)

        monkeypatch.setattr(trainer, "_train_epoch", log_train)
        monkeypatch.setattr(trainer, "score_weights", log_score)
        cfg = small_config(epochs=4, warmup_epochs=2, lr_milestones=(0, 2),
                           lr_factor=0.5)
        reference = None
        if case == "reference":
            data = load_dataset(cfg.dataset, seed=cfg.seed)
            reference = build_network(cfg.architecture, data.images.shape[1:],
                                      data.classes, seed=cfg.seed)
        if case == "dense":
            cfg.prune = PruneSpec(sparsity=0.0)
        _, records = run_tscnc(cfg, reference=reference)
        # warmup trains at config.lr; scoring resets the momentum; phase 2
        # follows the schedule, whose milestone 0 applies from epoch 0
        phase2 = [("train", lr_at(e, cfg), e > 0) for e in range(4)]
        assert [c[1] for c in phase2] == [0.05, 0.05, 0.025, 0.025]
        want = {
            "warmup": [("train", 0.1, False), ("train", 0.1, True), ("score",)]
            + phase2,
            "reference": [("score",)] + phase2,
            "dense": [("train", 0.1, False), ("train", 0.1, True),
                      ("train", 0.05, True)] + phase2[1:],
        }[case]
        assert calls == want
        assert [r.epoch for r in records] == [0, 1, 2, 3]
        assert [r.lr for r in records] == [c[1] for c in phase2]

    # at lr 1e9 this config first overflows in phase 2, so larger rates
    # reach the warmup; warmup epochs are counted from 0
    @pytest.mark.parametrize("lr, first_bad", [(1e100, 0), (1e30, 1)])
    def test_divergence_in_warmup_has_no_records(self, lr, first_bad):
        cfg = small_config(lr=lr, warmup_epochs=2)
        records = []
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_tscnc(cfg, on_epoch=records.append)
        assert str(err.value) == f"non-finite loss in warmup epoch {first_bad}"
        assert records == []

    def test_divergence_reports_partial_records(self):
        cfg = small_config(epochs=20, warmup_epochs=0, lr=1e9,
                           prune=PruneSpec(sparsity=0.0))
        records = []
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_tscnc(cfg, on_epoch=records.append)
        # every epoch before the diverged one was recorded, in order
        assert str(err.value) == f"non-finite loss at epoch {len(records)}"
        assert [r.epoch for r in records] == list(range(len(records)))

    def test_trained_square_layer_obeys_conditioning_sandwich(self):
        # the first layer of an 8-wide model on 8-dim data is square, so the
        # relative-error transfer bound applies directly to it
        cfg = small_config(
            dataset="blobs-c2-d8-n30-s0.05", architecture="mlp-8",
            epochs=2, warmup_epochs=1, prune=PruneSpec(sparsity=0.0),
        )
        net, _ = run_tscnc(cfg)
        w = net.layers[0].W
        kappa = layer_spectrum(w).kappa
        assert np.isfinite(kappa)
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = rng.normal(size=8)
            dx = rng.normal(size=8) * 1e-3
            y, dy = x @ w, dx @ w
            rel_in = np.linalg.norm(dx) / np.linalg.norm(x)
            rel_out = np.linalg.norm(dy) / np.linalg.norm(y)
            assert rel_out <= kappa * rel_in + 1e-10
            assert rel_out >= rel_in / kappa - 1e-10
