"""PGD behavior, FGSM (PGD on fgsm_spec) included: closed forms, ball
containment, oracle agreement."""

import numpy as np
import pytest

from oracles import pgd_out_of_place
import tscnc.attacks
from tscnc.attacks import AttackSpec, fgsm_spec, pgd
from tscnc.errors import DimensionError, ValidationError
import tscnc.network
from tscnc.network import (
    MaskedLayer,
    Network,
    backward,
    build_network,
    cross_entropy,
    forward,
    loss_gradients,
)


def batch_loss(net, x, y):
    logits, _ = forward(net, x)
    return cross_entropy(logits, y)[0]


def per_sample_loss(net, x, y):
    logits, _ = forward(net, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(y)), y]


@pytest.fixture(scope="module")
def toy_net():
    """Small MLP trained on two separable 2-D blobs by plain gradient descent."""
    rng = np.random.default_rng(1234)
    n = 80
    x = np.concatenate(
        [
            rng.normal(loc=(0.3, 0.3), scale=0.06, size=(n, 2)),
            rng.normal(loc=(0.7, 0.7), scale=0.06, size=(n, 2)),
        ]
    )
    x = np.clip(x, 0.0, 1.0)
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    net = build_network("mlp-8", (2,), 2, seed=7)
    for _ in range(150):
        logits, cache = forward(net, x)
        _, gl = cross_entropy(logits, y)
        grads = backward(net, cache, gl)
        for li in net.parameterized_indices():
            net.layers[li].W -= 0.5 * grads.weight[li]
            net.layers[li].b -= 0.5 * grads.bias[li]
        net.bump()
    assert batch_loss(net, x, y) < 0.1
    return net, x, y


class TestAttackSpec:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            AttackSpec(-0.1).validate()

    def test_zero_step_size_with_steps_rejected(self):
        with pytest.raises(ValidationError):
            AttackSpec(0.1, step_size=0.0, steps=5).validate()

    def test_negative_steps_rejected(self):
        with pytest.raises(ValidationError, match="steps must be non-negative"):
            AttackSpec(0.1, 0.1, steps=-1).validate()

    @pytest.mark.parametrize("eps, step", [
        (float("nan"), 0.1), (float("inf"), 0.1), (0.1, float("nan")),
        (0.1, float("inf")), (0.0, float("nan")),
    ])
    def test_non_finite_budget_rejected(self, eps, step):
        with pytest.raises(ValidationError):
            AttackSpec(eps, step_size=step, steps=1).validate()
        with pytest.raises(ValidationError):
            AttackSpec(eps, step_size=step, steps=0).validate()


class TestFgsm:
    """FGSM is pgd on fgsm_spec(eps)."""

    def test_zero_epsilon_returns_input(self, toy_net):
        net, x, y = toy_net
        assert fgsm_spec(0.0).steps == 0
        adv = pgd(net, x, y, fgsm_spec(0.0))
        assert np.array_equal(adv, x)

    def test_linear_model_closed_form(self):
        # perturbation is eps * sign(W (p - onehot)) for a plain softmax model
        rng = np.random.default_rng(3)
        W = rng.normal(size=(4, 2))
        layer = MaskedLayer(
            kind="linear", W=W, Z=np.ones_like(W), b=np.zeros(2)
        )
        net = Network(layers=[layer], input_shape=(4,), class_count=2)
        x = rng.uniform(0.2, 0.8, size=(6, 4))
        y = rng.integers(0, 2, size=6)
        eps = 0.05
        adv = pgd(net, x, y, fgsm_spec(eps))
        logits, _ = forward(net, x)
        _, gl = cross_entropy(logits, y)
        want = np.clip(x + eps * np.sign(gl @ W.T), 0.0, 1.0)
        assert np.array_equal(adv, want)

    def test_loss_increases_on_trained_net(self, toy_net):
        net, x, y = toy_net
        adv = pgd(net, x, y, fgsm_spec(0.1))
        clean = per_sample_loss(net, x, y)
        attacked = per_sample_loss(net, adv, y)
        assert np.mean(attacked >= clean) >= 0.95

    def test_output_in_ball_and_range(self, toy_net):
        net, x, y = toy_net
        eps = 0.07
        adv = pgd(net, x, y, fgsm_spec(eps))
        assert np.abs(adv - x).max() <= eps + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0


class TestPgd:
    def test_single_step_equals_fgsm_bitwise(self, toy_net):
        # one full-budget step is the textbook fast gradient sign step
        net, x, y = toy_net
        eps = 8.0 / 255.0
        g = loss_gradients(net, x, y)[1].input
        want = np.clip(x + eps * np.sign(g), 0.0, 1.0)
        assert np.array_equal(pgd(net, x, y, AttackSpec(eps, eps, 1)), want)
        assert np.array_equal(pgd(net, x, y, fgsm_spec(eps)), want)

    def test_ball_containment_random_specs(self, toy_net):
        net, x, y = toy_net
        rng = np.random.default_rng(99)
        for trial in range(25):
            eps = rng.uniform(0.0, 0.3)
            steps = int(rng.integers(1, 8))
            alpha = rng.uniform(0.01, 0.5)
            spec = AttackSpec(eps, alpha, steps, random_start=bool(trial % 2))
            adv = pgd(net, x, y, spec, rng=rng)
            assert np.abs(adv - x).max() <= eps + 1e-12
            assert adv.min() >= 0.0 and adv.max() <= 1.0

    def test_paper_configuration_runs(self, toy_net):
        net, x, y = toy_net
        spec = AttackSpec(8.0 / 255.0, step_size=2.0 / 255.0, steps=10)
        adv = pgd(net, x, y, spec)
        assert np.abs(adv - x).max() <= 8.0 / 255.0 + 1e-12
        assert batch_loss(net, adv, y) >= batch_loss(net, x, y)

    def test_one_dim_valley_matches_grid_search(self):
        # logits are (s*|x - c|, 0); the worst point in the interval is the
        # endpoint farther from c, which dense grid search finds exactly
        c, s = 0.45, 4.0
        l1 = MaskedLayer(
            kind="linear",
            W=np.array([[1.0, -1.0]]),
            Z=np.ones((1, 2)),
            b=np.array([-c, c]),
        )
        l2 = MaskedLayer(
            kind="linear",
            W=np.array([[s, 0.0], [s, 0.0]]),
            Z=np.ones((2, 2)),
            b=np.zeros(2),
        )
        net = Network(
            layers=[l1, MaskedLayer(kind="relu"), l2],
            input_shape=(1,),
            class_count=2,
        )
        x0 = np.array([[0.5]])
        y = np.array([1])
        eps = 0.2
        spec = AttackSpec(eps, step_size=eps / 8.0, steps=24)
        adv = pgd(net, x0, y, spec)

        grid = np.linspace(x0[0, 0] - eps, x0[0, 0] + eps, 4001)
        grid = np.clip(grid, 0.0, 1.0)
        losses = per_sample_loss(
            net, grid.reshape(-1, 1), np.ones(grid.size, dtype=int)
        )
        best = grid[np.argmax(losses)]
        assert abs(adv[0, 0] - best) <= 1e-3
        adv_loss = per_sample_loss(net, adv, y)[0]
        assert abs(adv_loss - losses.max()) <= 1e-3

    def test_deterministic_without_random_start(self, toy_net):
        net, x, y = toy_net
        spec = AttackSpec(0.1, 0.02, 5)
        a = pgd(net, x, y, spec)
        b = pgd(net, x, y, spec)
        assert np.array_equal(a, b)

    def test_random_start_uses_supplied_generator(self, toy_net):
        net, x, y = toy_net
        spec = AttackSpec(0.1, 0.02, 3, random_start=True)
        a = pgd(net, x, y, spec, rng=np.random.default_rng(5))
        b = pgd(net, x, y, spec, rng=np.random.default_rng(5))
        c = pgd(net, x, y, spec, rng=np.random.default_rng(6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_loss_monotone_in_budget(self, toy_net):
        net, x, y = toy_net
        means = []
        for eps in (0.0, 2.0 / 255.0, 4.0 / 255.0, 8.0 / 255.0):
            total = 0.0
            for seed in range(5):
                spec = AttackSpec(eps, 1.0 / 255.0, 10, random_start=True)
                adv = pgd(net, x, y, spec, rng=np.random.default_rng(seed))
                total += batch_loss(net, adv, y)
            means.append(total / 5.0)
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_rows_rejected(self):
        net = build_network("cnn-2-8", (1, 4, 4), 3, seed=0)
        x, y = np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64)
        with pytest.raises(DimensionError, match="rows"):
            pgd(net, x, y, AttackSpec(epsilon=0.1, step_size=0.05, steps=2))
        # without a step there is no loss to take, and nothing to attack
        assert pgd(net, x, y, AttackSpec(epsilon=0.1)).shape == x.shape

    def test_zero_gradient_coordinate_unperturbed(self):
        # dead input dimension: sign(0) = 0 so the attack leaves it alone
        W = np.array([[1.0, -1.0], [0.0, 0.0]])
        layer = MaskedLayer(
            kind="linear", W=W, Z=np.ones_like(W), b=np.zeros(2)
        )
        net = Network(layers=[layer], input_shape=(2,), class_count=2)
        x = np.array([[0.5, 0.5]])
        adv = pgd(net, x, np.array([0]), AttackSpec(0.1, 0.05, 4))
        assert adv[0, 1] == x[0, 1]
        assert adv[0, 0] != x[0, 0]


class TestInputGradientOnly:
    """Attacks need input gradients only; they must not pay for dW."""

    @pytest.mark.parametrize("attack", [
        lambda net, x, y: pgd(net, x, y, AttackSpec(0.1, 0.03, 4, random_start=True),
                              rng=np.random.default_rng(1)),
        lambda net, x, y: pgd(net, x, y, fgsm_spec(0.1)),
    ], ids=["pgd", "fgsm"])
    def test_cnn_attack_evaluates_no_weight_gradient(self, attack, monkeypatch):
        net = build_network("cnn-3x4-8", (2, 6, 6), 3, seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((4, 2, 6, 6))
        y = rng.integers(0, 3, size=4)
        calls, passes = [], []
        real_backward = tscnc.network.backward

        def recording_backward(*args, **kwargs):
            calls.append(kwargs.get("weights", True))
            grads = real_backward(*args, **kwargs)
            passes.append(grads)
            return grads

        monkeypatch.setattr(tscnc.network, "backward", recording_backward)
        logits, cache = forward(net, x)
        tscnc.network.backward(net, cache, np.ones_like(logits))
        assert calls == [True], "the full pass must be seen to compute dW"
        assert passes[0].weight and passes[0].bias
        calls.clear()
        passes.clear()

        attack(net, x, y)
        assert calls and not any(calls)
        for grads in passes:
            assert grads.weight == {} and grads.bias == {}


class TestInPlaceAttackLoop:
    """pgd updates one buffer in place, each step's gradient from an
    input-only pass; the out-of-place loop through loss_gradients is its
    bitwise oracle."""

    _SPEC = AttackSpec(0.1, 0.03, 10)
    _RANDOM = AttackSpec(0.1, 0.03, 10, random_start=True)
    CASES = {
        "mlp": ("mlp", "inside", _SPEC),
        "mlp-random-start": ("mlp", "inside", _RANDOM),
        "cnn": ("cnn", "inside", _SPEC),
        "cnn-random-start": ("cnn", "inside", _RANDOM),
        "epsilon-0": ("mlp", "inside", AttackSpec(0.0, 0.03, 3)),
        "epsilon-0-random-start": ("mlp", "inside",
                                   AttackSpec(0.0, 0.03, 3, random_start=True)),
        "steps-0": ("mlp", "inside", AttackSpec(0.1)),
        "steps-0-random-start": ("mlp", "inside", AttackSpec(0.1, random_start=True)),
        "steps-1": ("mlp", "inside", fgsm_spec(0.1)),
        "outside-range": ("mlp", "outside", _RANDOM),
        "outside-range-steps-0": ("mlp", "outside", AttackSpec(0.1, random_start=True)),
        "cnn-outside-range": ("cnn", "outside", _SPEC),
        "negative-zero": ("mlp", "negative-zero", _SPEC),
        "negative-zero-steps-0": ("mlp", "negative-zero", AttackSpec(0.1)),
        "one-row": ("mlp", "one-row", _RANDOM),
        "zero-gradient": ("zero-gradient", "inside", _SPEC),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pgd_equals_the_out_of_place_oracle_bitwise(self, case):
        kind, inputs, spec = self.CASES[case]
        rng = np.random.default_rng(3)
        if kind == "cnn":
            net = build_network("cnn-3-6", (2, 4, 4), 3, seed=1)
            x = rng.random((5, 2, 4, 4))
        else:
            net, x = build_network("mlp-5", (6,), 3, seed=1), rng.random((5, 6))
        if kind == "zero-gradient":
            # no hidden unit is live, so every input gradient is exactly 0
            net.layers[0].W = np.zeros_like(net.layers[0].W)
        if inputs == "outside":
            x = x * 1.6 - 0.3
        elif inputs == "negative-zero":
            x[:, :2] = -0.0
        elif inputs == "one-row":
            x = x[:1]
        y = rng.integers(0, 3, size=len(x))
        before = x.tobytes()
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        adv = pgd(net, x, y, spec, rng=ours)
        want = pgd_out_of_place(net, x, y, spec, rng=ref)
        assert adv.shape == want.shape and adv.dtype == want.dtype
        assert adv.tobytes() == want.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
        assert x.tobytes() == before
        if inputs == "negative-zero" and not spec.steps:
            assert np.signbit(adv[:, :2]).all()

    @pytest.mark.parametrize("steps", [0, 1, 10])
    def test_labels_checked_once_and_no_loss_taken(self, monkeypatch, steps):
        net = build_network("mlp-5", (6,), 3, seed=1)
        rng = np.random.default_rng(2)
        x, y = rng.random((4, 6)), rng.integers(0, 3, size=4)
        checks, losses = [], []
        real_labels, real_loss = tscnc.network._labels, tscnc.network.cross_entropy

        def counted_labels(*args):
            checks.append(args)
            return real_labels(*args)

        def counted_loss(*args):
            losses.append(args)
            return real_loss(*args)

        monkeypatch.setattr(tscnc.attacks, "_labels", counted_labels)
        monkeypatch.setattr(tscnc.network, "_labels", counted_labels)
        monkeypatch.setattr(tscnc.network, "cross_entropy", counted_loss)
        pgd(net, x, y, AttackSpec(0.1, 0.03, steps, random_start=True),
            rng=np.random.default_rng(0))
        assert len(checks) == min(steps, 1)
        assert losses == []


class TestAttackLabels:
    @pytest.mark.parametrize("label", [2.9, 0.5, -0.5, np.nan, np.inf])
    def test_label_that_is_not_a_whole_number_rejected(self, label):
        net = build_network("mlp", (4,), 3, seed=0)
        x = np.full((2, 4), 0.5)
        with pytest.raises(ValidationError, match="whole numbers"):
            pgd(net, x, [0, label], AttackSpec(0.1, 0.05, 2))

    @pytest.mark.parametrize("label", [3, -1, 3.0])
    def test_label_outside_the_classes_does_not_fit(self, label):
        net = build_network("mlp", (4,), 3, seed=0)
        x = np.full((2, 4), 0.5)
        with pytest.raises(DimensionError, match=f"^label {int(label)} does not "
                                                 "fit a network with 3 classes$"):
            pgd(net, x, [0, label], AttackSpec(0.1, 0.05, 2))

    def test_whole_number_float_labels_attack_their_class(self):
        net = build_network("mlp-5", (4,), 3, seed=0)
        x = np.random.default_rng(1).random((3, 4))
        spec = AttackSpec(0.1, 0.05, 3)
        assert np.array_equal(pgd(net, x, [2.0, 0.0, 1.0], spec),
                              pgd(net, x, np.array([2, 0, 1]), spec))
