"""Conditioning penalty, condition reports, Lipschitz estimation, radii."""

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tscnc.metrics
from oracles import apply_scaling, under_reported_spectrum
from tscnc.attacks import AttackSpec, pgd
from tscnc.errors import ValidationError
from tscnc.metrics import (
    check_eq7,
    condition_constraint,
    condition_report,
    local_lipschitz_estimate,
    robustness_radius,
)
from tscnc.network import (
    MaskedLayer,
    Network,
    backward,
    build_cnn,
    build_mlp,
    build_network,
    cross_entropy,
    forward,
)
from tscnc.pruning import apply_masks
from tscnc.tensor_ops import INFINITE, layer_spectrum


def linear_net(W, b=None):
    W = np.asarray(W, dtype=float)
    fan_in, fan_out = W.shape
    layer = MaskedLayer(
        kind="linear", W=W, Z=np.ones_like(W),
        b=np.zeros(fan_out) if b is None else np.asarray(b, dtype=float),
    )
    return Network(layers=[layer], input_shape=(fan_in,), class_count=fan_out)


def set_layer_fro_sq(layer, target):
    # rescale so ||W||_F^2 hits the target exactly
    cur = float((layer.W ** 2).sum())
    layer.W *= math.sqrt(target / cur)


class TestConditionConstraintLoss:
    def test_all_zero_effective_weights(self):
        net = build_mlp(3, [], 2, seed=0)
        apply_masks(net, {0: np.zeros_like(net.layers[0].Z)})
        got = condition_constraint(net)[0]
        assert abs(got - math.log(1e-4)) <= 1e-12

    def test_unit_frobenius(self):
        net = build_mlp(3, [], 2, seed=1)
        set_layer_fro_sq(net.layers[0], 1.0)
        got = condition_constraint(net)[0]
        assert abs(got - math.log(1.0001)) <= 1e-12

    def test_three_layer_sum_against_script(self):
        net = build_mlp(4, [5, 6], 3, seed=2)
        targets = [1.0, 4.0, 9.0]
        for li, t in zip(net.parameterized_indices(), targets):
            set_layer_fro_sq(net.layers[li], t)
        tau = 1e-4
        want = 0.0
        for t in targets:
            want += math.log(tau + t)
        assert abs(condition_constraint(net)[0] - want) <= 1e-12

    def test_shrinking_weights_strictly_decreases(self):
        net = build_mlp(5, [6], 3, seed=3)
        base = condition_constraint(net)[0]
        for c in (0.9, 0.5, 0.1):
            shrunk = copy.deepcopy(net)
            for li in shrunk.parameterized_indices():
                shrunk.layers[li].W *= c
            assert condition_constraint(shrunk)[0] < base

    def test_masked_weights_do_not_contribute(self):
        net = build_mlp(4, [4], 2, seed=4)
        before = condition_constraint(net)[0]
        net.layers[0].W[0, 0] = 1e6
        mask = net.layers[0].Z.copy()
        mask[0, 0] = False
        apply_masks(net, {0: mask})
        after_mask = condition_constraint(net)[0]
        assert after_mask < before + 1e-12


class TestConditionConstraintGrad:
    def test_zero_weights_zero_grad(self):
        net = build_mlp(3, [], 2, seed=0)
        net.layers[0].W[:] = 0.0
        g = condition_constraint(net)[1]
        assert np.array_equal(g[0], np.zeros_like(net.layers[0].W))

    def test_scalar_layer_closed_form(self):
        net = linear_net(np.array([[1.0]]))
        g = condition_constraint(net)[1]
        assert abs(g[0][0, 0] - 2.0 / 1.0001) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = linear_net(rng.normal(size=(3, 4)))
        g = condition_constraint(net)[1][0]
        h = 1e-7
        W = net.layers[0].W
        fd = np.zeros_like(W)
        for i in range(3):
            for j in range(4):
                orig = W[i, j]
                W[i, j] = orig + h
                lp = condition_constraint(net)[0]
                W[i, j] = orig - h
                lm = condition_constraint(net)[0]
                W[i, j] = orig
                fd[i, j] = (lp - lm) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(g - fd).max() / denom <= 1e-6

    def test_one_call_covers_every_parameterized_layer(self):
        net = build_cnn((1, 6, 6), [2], 5, 3, seed=0)
        loss, g = condition_constraint(net)
        assert sorted(g) == net.parameterized_indices()
        want = sum(math.log(1e-4 + float((net.layers[li].W ** 2).sum()))
                   for li in g)
        assert abs(loss - want) <= 1e-12

    def test_masked_entries_get_zero_grad(self):
        rng = np.random.default_rng(8)
        net = linear_net(rng.normal(size=(4, 3)))
        mask = net.layers[0].Z.copy()
        mask[2, 1] = False
        apply_masks(net, {0: mask})
        g = condition_constraint(net)[1][0]
        assert g[2, 1] == 0.0

    def test_step_is_descent_direction_for_frobenius(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            net = linear_net(rng.normal(size=(4, 4)))
            g = condition_constraint(net)[1][0]
            before = float((net.layers[0].W ** 2).sum())
            net.layers[0].W -= 1e-3 * g
            after = float((net.layers[0].W ** 2).sum())
            assert after < before


class TestConditionReport:
    def test_identity_layer_kappa_one(self):
        net = linear_net(np.eye(4))
        rep = condition_report(net)
        assert rep.layers[0].kappa == pytest.approx(1.0, abs=1e-10)
        assert rep.kappa_max == pytest.approx(1.0, abs=1e-10)

    def test_fully_masked_row_is_infinite(self):
        rng = np.random.default_rng(1)
        net = linear_net(rng.normal(size=(5, 5)))
        mask = net.layers[0].Z.copy()
        mask[2, :] = False
        apply_masks(net, {0: mask})
        rep = condition_report(net)
        assert rep.layers[0].kappa == INFINITE
        assert rep.layers[0].rank == 4
        assert rep.kappa_max == INFINITE

    def test_matches_direct_svd_ratio(self):
        rng = np.random.default_rng(2)
        net = build_mlp(6, [8, 7], 4, seed=2)
        rep = condition_report(net)
        for row in rep.layers:
            m = net.layers[row.layer].W
            s = np.linalg.svd(m, compute_uv=False)
            want = s[0] / s[-1]
            assert abs(row.kappa - want) / want <= 1e-8

    def test_scale_invariance_under_rebalancing(self):
        net = build_mlp(5, [6], 3, seed=3)
        base = condition_report(net)
        for mu in (0.1, 2.0, 10.0):
            rep = condition_report(apply_scaling(net, 0, mu))
            for a, b in zip(base.layers, rep.layers):
                assert abs(a.kappa - b.kappa) / a.kappa <= 1e-8


class TestLocalLipschitzEstimate:
    def test_linear_model_hits_closed_form(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 3))
        net = linear_net(W)
        x = rng.uniform(0.2, 0.8, size=5)
        logits, _ = forward(net, x[None])
        yhat = int(np.argmax(logits[0]))
        k = (yhat + 1) % 3
        wdiff = W[:, yhat] - W[:, k]
        for q, want in ((1, np.abs(wdiff).sum()), (2, np.sqrt(wdiff @ wdiff))):
            est = local_lipschitz_estimate(net, x, k, r=0.1, q=q, n=50, seed=0)
            # gradient candidate is exact for a linear functional
            assert abs(est - want) <= 1e-10

    def test_a_batch_is_not_a_single_input(self):
        net = linear_net(np.eye(3))
        with pytest.raises(ValidationError, match="expected a single input"):
            local_lipschitz_estimate(net, np.zeros((1, 3)), 1, r=0.1, q=2, n=5,
                                     seed=0)

    def test_rival_index_must_be_a_class(self):
        net = linear_net(np.eye(3))
        with pytest.raises(ValidationError, match=r"class index 3 outside \[0, 3\)"):
            local_lipschitz_estimate(net, np.array([0.9, 0.2, 0.1]), 3, r=0.1,
                                     q=2, n=5, seed=0)

    @pytest.mark.parametrize("fn", [local_lipschitz_estimate, check_eq7],
                             ids=["estimate", "eq7"])
    @pytest.mark.parametrize("k", [None, 1.0, True])
    def test_rival_must_be_one_class_index(self, fn, k):
        # None (every rival) is robustness_radius's path only, and a float
        # or a bool is no class index
        net = build_mlp(4, [5], 3, seed=0)
        with pytest.raises(ValidationError, match="rival k must be a class index"):
            fn(net, np.full(4, 0.5), k, r=0.1, q=2, n=5, seed=0)

    def test_constant_output_net_gives_zero(self):
        net = linear_net(np.zeros((4, 3)), b=np.array([2.0, 1.0, 0.0]))
        est = local_lipschitz_estimate(
            net, np.full(4, 0.5), k=1, r=0.2, q=2, n=100, seed=1
        )
        assert est == 0.0

    def test_two_dim_relu_net_matches_dense_grid(self):
        rng = np.random.default_rng(6)
        net = build_mlp(2, [8], 2, seed=6)
        x = np.array([0.4, 0.6])
        logits, _ = forward(net, x[None])
        yhat = int(np.argmax(logits[0]))
        k = 1 - yhat
        r = 0.1
        est = local_lipschitz_estimate(net, x, k, r=r, q=1, n=4000, seed=2)
        # brute force over the sup-norm ball at pitch r/200
        ax = np.linspace(-r, r, 401)
        gx, gy = np.meshgrid(ax, ax)
        deltas = np.stack([gx.ravel(), gy.ravel()], axis=1)
        norms = np.abs(deltas).max(axis=1)
        keep = norms > 0
        pts = x[None, :] + deltas[keep]
        plog, _ = forward(net, pts)
        h0 = logits[0, yhat] - logits[0, k]
        hv = plog[:, yhat] - plog[:, k]
        grid = float((np.abs(hv - h0) / norms[keep]).max())
        assert abs(est - grid) / grid <= 0.05
        assert est <= grid * 1.02 + 1e-9

    def test_monotone_in_sample_count_with_nested_sets(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            net = build_mlp(3, [6], 3, seed=20 + trial)
            x = rng.uniform(0.2, 0.8, size=3)
            logits, _ = forward(net, x[None])
            yhat = int(np.argmax(logits[0]))
            k = (yhat + 1) % 3
            for q in (1, 2):
                vals = [
                    local_lipschitz_estimate(net, x, k, 0.15, q, n, seed=trial)
                    for n in (1, 10, 100, 400)
                ]
                for lo, hi in zip(vals, vals[1:]):
                    assert hi >= lo - 1e-15

    def test_degenerate_class_rejected(self):
        net = linear_net(np.eye(3))
        x = np.array([0.9, 0.1, 0.1])
        with pytest.raises(ValidationError):
            local_lipschitz_estimate(net, x, k=0, r=0.1, q=2, n=10, seed=0)

    def test_bad_arguments_rejected(self):
        net = linear_net(np.eye(3))
        x = np.array([0.9, 0.1, 0.2])
        with pytest.raises(ValidationError):
            local_lipschitz_estimate(net, x, 1, r=0.0, q=2, n=10, seed=0)
        with pytest.raises(ValidationError):
            local_lipschitz_estimate(net, x, 1, r=0.1, q=2, n=0, seed=0)
        with pytest.raises(ValidationError):
            local_lipschitz_estimate(net, x, 1, r=0.1, q=3, n=10, seed=0)


class TestRobustnessRadius:
    def test_linear_binary_closed_form(self):
        W = np.array([[1.0, -1.0], [0.5, 1.5]])
        net = linear_net(W)
        x = np.array([0.6, 0.45])
        logits, _ = forward(net, x[None])
        yhat = int(np.argmax(logits[0]))
        margin = float(logits[0, yhat] - logits[0, 1 - yhat])
        wdiff = W[:, yhat] - W[:, 1 - yhat]
        r = 1.0
        for q, nrm in ((1, np.abs(wdiff).sum()), (2, np.sqrt(wdiff @ wdiff))):
            got = robustness_radius(net, x, r=r, q=q, n=50, seed=0)
            assert abs(got - min(margin / nrm, r)) <= 1e-10

    def test_zero_margin_gives_zero(self):
        W = np.array([[1.0, 1.0], [1.0, -1.0]])
        net = linear_net(W)
        x = np.array([0.5, 0.0])  # orthogonal to the column difference
        got = robustness_radius(net, x, r=0.5, q=2, n=20, seed=0)
        assert got == 0.0

    def test_capped_at_radius(self):
        net = linear_net(np.array([[1e-3, -1e-3]]))
        x = np.array([0.9])
        got = robustness_radius(net, x, r=0.05, q=2, n=20, seed=0)
        assert got == 0.05

    def test_consistent_with_pgd_flip_distance(self):
        # gamma should not exceed the smallest budget at which an attack
        # actually flips the prediction, for nearly all samples
        rng = np.random.default_rng(11)
        n = 30
        x = np.concatenate([
            rng.normal((0.3, 0.35), 0.07, size=(n, 2)),
            rng.normal((0.7, 0.6), 0.07, size=(n, 2)),
        ])
        x = np.clip(x, 0, 1)
        y = np.repeat(np.arange(2), n)
        net = build_mlp(2, [8], 2, seed=11)
        for _ in range(120):
            logits, cache = forward(net, x)
            _, gl = cross_entropy(logits, y)
            g = backward(net, cache, gl)
            for li in net.parameterized_indices():
                net.layers[li].W -= 0.5 * g.weight[li]
                net.layers[li].b -= 0.5 * g.bias[li]
            net.bump()

        def flips(sample, label, eps):
            spec = AttackSpec(eps, eps / 10.0, 30)
            adv = pgd(net, sample[None], np.array([label]), spec)
            pred = int(np.argmax(forward(net, adv)[0][0]))
            return pred != label

        r = 0.2
        ok = 0
        checked = 0
        for i in range(len(x)):
            sample = x[i]
            pred = int(np.argmax(forward(net, sample[None])[0][0]))
            if pred != y[i]:
                continue
            gamma = robustness_radius(net, sample, r=r, q=1, n=2000, seed=i)
            lo, hi = 0.0, r
            if not flips(sample, y[i], r):
                flip_dist = r
            else:
                for _ in range(12):
                    mid = 0.5 * (lo + hi)
                    if flips(sample, y[i], mid):
                        hi = mid
                    else:
                        lo = mid
                flip_dist = hi
            checked += 1
            if gamma <= flip_dist + 1e-9:
                ok += 1
        assert checked >= 10
        assert ok / checked >= 0.95


class TestCheckEq7:
    def test_identity_layer(self):
        # margin function x_yhat - x_k has gradient e_yhat - e_k: the
        # estimate and the bound are both its l1 norm 2 at q=1 and its l2
        # norm sqrt(2) at q=2
        net = linear_net(np.eye(3))
        x = np.array([0.9, 0.2, 0.1])
        for q, want in [(1, 2.0), (2, math.sqrt(2.0))]:
            rep = check_eq7(net, x, k=1, r=0.1, q=q, n=50, seed=0)
            assert rep["upper"] == want
            assert abs(rep["lipschitz"] - want) <= 1e-12
            assert rep["holds"]

    def test_random_single_layer_nets_hold(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            W = rng.normal(size=(rng.integers(3, 7), rng.integers(2, 5)))
            net = linear_net(W)
            x = rng.uniform(0.1, 0.9, size=W.shape[0])
            logits, _ = forward(net, x[None])
            yhat = int(np.argmax(logits[0]))
            k = (yhat + 1) % W.shape[1]
            for q in (1, 2):
                rep = check_eq7(net, x, k, r=0.2, q=q, n=100, seed=trial)
                assert rep["holds"]

    def test_multilayer_report_structure(self):
        rng = np.random.default_rng(5)
        net = build_mlp(4, [6, 5], 3, seed=5)
        x = rng.uniform(0.2, 0.8, size=4)
        logits, _ = forward(net, x[None])
        yhat = int(np.argmax(logits[0]))
        rep = check_eq7(net, x, (yhat + 1) % 3, r=0.1, q=1, n=80, seed=1)
        assert list(rep) == ["lipschitz", "lipschitz_source", "yhat", "k",
                             "upper", "holds"]
        assert rep["upper"] > 0.0 and rep["lipschitz"] >= 0.0
        assert rep["holds"] == (rep["lipschitz"] <= rep["upper"] * (1 + 1e-9))

    def test_conv_classifier_has_infinite_constants(self):
        # the product is only defined for a linear last layer
        conv = MaskedLayer(kind="conv2d", W=np.eye(3), b=np.zeros(3),
                           kernel_size=1)
        net = Network([conv, MaskedLayer(kind="flatten")], (3, 1, 1), 3)
        x = np.array([0.9, 0.2, 0.1]).reshape(3, 1, 1)
        for q in (1, 2):
            rep = check_eq7(net, x, k=1, r=0.1, q=q, n=20, seed=0)
            assert rep["upper"] == INFINITE and rep["holds"]

    def test_constant_products_scale_with_final_layer(self):
        # doubling the last layer doubles the bound at either q
        rng = np.random.default_rng(6)
        net = build_mlp(3, [4], 3, seed=6)
        x = rng.uniform(0.2, 0.8, size=3)
        logits, _ = forward(net, x[None])
        k = (int(np.argmax(logits[0])) + 1) % 3
        doubled = copy.deepcopy(net)
        doubled.layers[-1].W *= 2.0
        doubled.layers[-1].b *= 2.0
        for q in (1, 2):
            rep1 = check_eq7(net, x, k, r=0.1, q=q, n=40, seed=2)
            rep2 = check_eq7(doubled, x, k, r=0.1, q=q, n=40, seed=2)
            assert rep2["upper"] == pytest.approx(2.0 * rep1["upper"], rel=1e-9)

    def test_upper_bounds_a_conv_that_feeds_each_entry_to_nine_patches(self):
        # margin = sum of an all-ones 3x3 pad-1 conv over 1x8x8, over 8: its
        # gradient is each entry's patch count over 8 (9 inside, 6 on an edge,
        # 4 in a corner), of norm sqrt(36*81 + 24*36 + 4*16) / 8 = 7.75,
        # above the bare spectral product 3 * 1; kernel_size makes it 9
        conv = MaskedLayer(kind="conv2d", W=np.ones((1, 9)), b=np.zeros(1),
                           kernel_size=3, pad=1)
        W = np.zeros((64, 2))
        W[:, 0] = 1.0 / 8.0
        head = MaskedLayer(kind="linear", W=W, b=np.zeros(2))
        net = Network([conv, MaskedLayer(kind="flatten"), head], (1, 8, 8), 2)
        rep = check_eq7(net, np.full((1, 8, 8), 0.5), k=1, r=0.1, q=2, n=50,
                        seed=0)
        assert rep["lipschitz"] == pytest.approx(7.75, rel=1e-12)
        assert rep["upper"] == pytest.approx(9.0, rel=1e-15)
        assert rep["holds"]

    def test_under_reported_sigma_max_is_flagged(self, monkeypatch):
        # two hidden layers at a tenth of their sigma_max put the bound a
        # hundred times too low: the check must say so
        net = build_mlp(4, [6, 5], 3, seed=5)
        x = np.random.default_rng(5).uniform(0.2, 0.8, size=4)
        k = (int(np.argmax(forward(net, x[None])[0][0])) + 1) % 3
        assert check_eq7(net, x, k, r=0.1, q=2, n=80, seed=1)["holds"]
        monkeypatch.setattr(tscnc.metrics, "layer_spectrum", under_reported_spectrum)
        assert not check_eq7(net, x, k, r=0.1, q=2, n=80, seed=1)["holds"]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.data())
    def test_constants_bound_the_estimate(self, case):
        net, x = case.draw(small_nets())
        q = case.draw(st.sampled_from([1, 2]))
        logits, _ = forward(net, x[None])
        k = (int(np.argmax(logits[0])) + 1) % net.class_count
        rep = check_eq7(net, x, k, r=case.draw(st.sampled_from([0.05, 0.5])),
                        q=q, n=50, seed=case.draw(st.integers(0, 9)))
        # on a linear net the bound is tight, and a difference quotient over
        # a short step carries the rounding of the two logits it subtracts
        assert rep["lipschitz"] <= rep["upper"] * (1 + 1e-9)
        assert rep["holds"]


class TestReportedSpectra:
    """check_eq7 reads sigma_max from a caller's condition report."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.data())
    def test_a_given_report_changes_no_bit(self, case):
        net, x = case.draw(small_nets())
        rng = np.random.default_rng(case.draw(st.integers(0, 9)))
        keep = case.draw(st.sampled_from([1.0, 0.6, 0.3]))
        apply_masks(net, {li: rng.uniform(size=net.layers[li].W.shape) < keep
                          for li in net.parameterized_indices()})
        q = case.draw(st.sampled_from([1, 2]))
        k = (int(np.argmax(forward(net, x[None])[0][0])) + 1) % net.class_count
        seed = case.draw(st.integers(0, 9))
        given_report = check_eq7(net, x, k, r=0.1, q=q, n=30, seed=seed,
                                 report=condition_report(net))
        assert given_report == check_eq7(net, x, k, r=0.1, q=q, n=30, seed=seed)

    @pytest.mark.parametrize("q", [1, 2])
    def test_report_of_another_net_is_rejected(self, q):
        net = build_mlp(4, [6, 5], 3, seed=5)
        x = np.full(4, 0.5)
        k = (int(np.argmax(forward(net, x[None])[0][0])) + 1) % 3
        for other in (build_mlp(4, [6], 3, seed=5),
                      build_cnn((1, 4, 4), [2], 8, 3, seed=5)):
            with pytest.raises(ValidationError, match="condition report covers"):
                check_eq7(net, x, k, r=0.1, q=q, n=20, seed=0,
                          report=condition_report(other))


class TestNonFiniteProbe:
    """Weights that are finite but overflow leave no estimate to report."""

    def test_overflowing_logits_are_a_validation_error(self):
        net = linear_net([[1e308, -1e308], [1e308, -1e308]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValidationError, match="logits .* not finite"):
                check_eq7(net, np.array([0.9, 0.9]), k=1, r=0.1, q=2, n=20,
                          seed=0)

    @pytest.mark.parametrize("q", [1, 2])
    def test_overflowing_samples_are_a_validation_error(self, q):
        # the logits at x = 1 are +-0.75e308, but a sample past x = 1.2
        # overflows the hidden unit
        hidden = MaskedLayer(kind="linear", W=np.array([[1.5e308]]), b=np.zeros(1))
        head = MaskedLayer(kind="linear", W=np.array([[0.5, -0.5]]), b=np.zeros(2))
        net = Network([hidden, MaskedLayer(kind="relu"), head], (1,), 2)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValidationError, match="Lipschitz estimate against "
                                                      "class 1 is not finite"):
                check_eq7(net, np.ones(1), k=1, r=0.5, q=q, n=50, seed=0)


@st.composite
def small_nets(draw):
    """A random net, (conv, relu){1,2} then flatten, or none, then
    (linear, relu){0,1} and a linear head, and an input for it.  Weights and
    biases are normal draws, or, in an aligned net, their magnitudes, with
    the head's odd columns negated: every path then adds to the margin, which
    brings it near the bounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    aligned = draw(st.booleans())

    def draw_array(shape):
        a = rng.normal(size=shape)
        return np.abs(a) if aligned else a

    layers, conv = [], draw(st.booleans())
    shape = ((draw(st.integers(1, 2)), draw(st.integers(1, 6)),
              draw(st.integers(1, 6))) if conv else (draw(st.integers(1, 5)),))
    input_shape = shape
    for _ in range(draw(st.integers(1, 2)) if conv else 0):
        p = draw(st.integers(0, 1))
        k = draw(st.integers(1, min(3, shape[1] + 2 * p, shape[2] + 2 * p)))
        c_out = draw(st.integers(1, 3))
        layer = MaskedLayer(kind="conv2d", W=draw_array((c_out, shape[0] * k * k)),
                            b=draw_array(c_out), kernel_size=k,
                            stride=draw(st.integers(1, 2)), pad=p)
        shape = layer.output_shape(shape)
        layers += [layer, MaskedLayer(kind="relu")]
    if conv:
        layers.append(MaskedLayer(kind="flatten"))
        shape = (math.prod(shape),)
    classes = draw(st.integers(2, 4))
    widths = [draw(st.integers(1, 5)) for _ in range(draw(st.integers(0, 1)))]
    for i, width in enumerate([*widths, classes]):
        if i:
            layers.append(MaskedLayer(kind="relu"))
        layers.append(MaskedLayer(kind="linear", W=draw_array((shape[0], width)),
                                  b=draw_array(width)))
        shape = (width,)
    if aligned:
        layers[-1].W[:, 1::2] *= -1.0
    return Network(layers, input_shape, classes), rng.uniform(size=input_shape)


def documented_estimate(net, x, k, r, q, n, seed):
    """(largest quotient, gradient norm) from the draws the docstrings name:
    uniform (n, d) on [-r, r] at q=1; at q=2, (n, d+2) normals, each row
    scaled to length r and cut to its first d coordinates."""
    d = x.size
    rng = np.random.default_rng(seed)
    if q == 1:
        deltas = rng.uniform(-r, r, (n, d))
        norms = np.abs(deltas).max(axis=1)
    else:
        raw = rng.standard_normal((n, d + 2))
        deltas = r * raw[:, :d] / np.linalg.norm(raw, axis=1)[:, None]
        norms = np.linalg.norm(deltas, axis=1)
    logits, cache = forward(net, x[None])
    yhat = int(np.argmax(logits[0]))
    plog, _ = forward(net, x[None] + deltas.reshape((n,) + x.shape))
    h = plog[:, yhat] - plog[:, k]
    quotient = float((np.abs(h - (logits[0, yhat] - logits[0, k])) / norms).max())
    gl = np.zeros((1, net.class_count))
    gl[0, yhat], gl[0, k] = 1.0, -1.0
    g = backward(net, cache, gl, weights=False).input.ravel()
    return quotient, float(np.abs(g).sum()) if q == 1 else float(np.sqrt(g @ g))


class TestSamplerContract:
    """local_lipschitz_estimate is the larger of the quotient over the
    documented draws and the gradient norm, bit for bit.  Each case sits
    where the quotient wins, so the draws decide the answer."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("net, x, r", [
        (build_mlp(4, [8], 3, seed=1), np.random.default_rng(1).uniform(size=4), 0.5),
        (build_cnn((1, 4, 4), [2], 8, 3, seed=3),
         np.random.default_rng(0).uniform(size=(1, 4, 4)), 2.0),
    ], ids=["mlp", "cnn"])
    def test_estimate_recomputed_from_the_draws(self, net, x, r, q):
        logits, _ = forward(net, x[None])
        k = (int(np.argmax(logits[0])) + 1) % 3
        quotient, gnorm = documented_estimate(net, x, k, r, q, n=40, seed=3)
        assert quotient > gnorm
        assert np.array_equal(local_lipschitz_estimate(net, x, k, r, q, n=40, seed=3),
                              max(quotient, gnorm))


class TestLipschitzSource:
    """check_eq7 names the candidate that set its Lipschitz estimate."""

    def test_gradient_norm_wins_on_a_linear_net(self):
        # a difference quotient of a linear margin is at most its gradient norm
        net = linear_net([[1.0, -2.0], [0.5, 3.0]])
        x = np.array([0.9, 0.1])
        rep = check_eq7(net, x, k=1, r=0.1, q=2, n=50, seed=0)
        assert rep["lipschitz_source"] == "gradient norm"
        assert rep["lipschitz"] == float(np.linalg.norm([3.0, -2.5]))

    @staticmethod
    def assert_sample_wins(q):
        # x sits in the dead region of relu(x - 0.05): the gradient there is
        # 0, and the samples past 0.05 give the margin 2 relu(x - 0.05) a slope
        hidden = MaskedLayer(kind="linear", W=np.ones((1, 1)), b=np.array([-0.05]))
        head = MaskedLayer(kind="linear", W=np.array([[1.0, -1.0]]),
                           b=np.array([1.0, 0.0]))
        net = Network([hidden, MaskedLayer(kind="relu"), head], (1,), 2)
        x = np.zeros(1)
        rep = check_eq7(net, x, k=1, r=0.1, q=q, n=50, seed=0)
        assert rep["lipschitz_source"] == "sampled quotient"
        assert 0.0 < rep["lipschitz"] < 2.0
        assert rep["lipschitz"] == local_lipschitz_estimate(net, x, 1, 0.1, q, 50, 0)

    def test_sampled_quotient_wins_across_a_relu_boundary(self):
        self.assert_sample_wins(q=2)

    def test_sampled_quotient_wins_at_q1(self):
        # the sup-norm ball: here the uniform draw decides the answer
        self.assert_sample_wins(q=1)


class TestSharedSamplingPass:
    """The three diagnostics share one sampling pass on a six-class CNN."""

    @pytest.fixture()
    def six_class(self):
        net = build_network("cnn-8x16-32", (1, 8, 8), 6, seed=3)
        x = np.random.default_rng(3).uniform(size=(1, 8, 8))
        logits = forward(net, x[None])[0][0]
        return net, x, logits, int(np.argmax(logits))

    def test_forward_calls_do_not_grow_with_class_count(self, six_class,
                                                        monkeypatch):
        net, x, _, yhat = six_class
        calls = []

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(tscnc.metrics, "forward", counted)
        robustness_radius(net, x, r=0.1, q=1, n=100, seed=0)
        assert len(calls) == 2  # x once, the sampled batch once
        calls.clear()
        check_eq7(net, x, (yhat + 1) % 6, r=0.1, q=2, n=50, seed=0)
        assert len(calls) == 2

    @pytest.mark.parametrize("q", [1, 2])
    def test_radius_is_min_over_per_class_estimates(self, six_class, q):
        net, x, logits, yhat = six_class
        r = 0.5
        ratios = [
            float(logits[yhat] - logits[k])
            / local_lipschitz_estimate(net, x, k, r, q, n=60, seed=4)
            for k in range(6) if k != yhat
        ]
        got = robustness_radius(net, x, r=r, q=q, n=60, seed=4)
        assert got == min(r, min(ratios))
        assert got < r  # the cap is not what decides this case

    def test_eq7_upper_reads_sigma_max_from_condition_report(self, six_class,
                                                            monkeypatch):
        # at q=2: the l2 weight difference times each hidden layer's
        # sigma_max, times kernel_size for a conv, one SVD per hidden layer
        net, x, _, yhat = six_class
        k = (yhat + 2) % 6
        calls = []

        def counted(m):
            calls.append(1)
            return layer_spectrum(m)

        monkeypatch.setattr(tscnc.metrics, "layer_spectrum", counted)
        rep = check_eq7(net, x, k, r=0.1, q=2, n=80, seed=5)
        assert len(calls) == len(net.parameterized_indices())
        crep = condition_report(net)
        calls.clear()
        assert check_eq7(net, x, k, r=0.1, q=2, n=80, seed=5, report=crep) == rep
        assert calls == []
        head = net.layers[crep.layers[-1].layer].W
        wdiff = head[:, yhat] - head[:, k]
        want = math.sqrt(wdiff @ wdiff)
        for row in crep.layers[:-1]:
            want *= row.sigma_max * (net.layers[row.layer].kernel_size
                                     if row.kind == "conv2d" else 1)
        assert rep["upper"] == want
        want = local_lipschitz_estimate(net, x, k, r=0.1, q=2, n=80, seed=5)
        assert rep["lipschitz"] == want


def test_radius_on_cnn_evaluates_no_weight_gradient(monkeypatch):
    net = build_cnn((1, 6, 6), [2, 3], 8, 4, seed=2)
    x = np.random.default_rng(2).random((1, 6, 6))
    calls, passes = [], []
    real_backward = tscnc.metrics.backward

    def recording_backward(*args, **kwargs):
        calls.append(kwargs.get("weights", True))
        grads = real_backward(*args, **kwargs)
        passes.append(grads)
        return grads

    monkeypatch.setattr(tscnc.metrics, "backward", recording_backward)
    logits, cache = forward(net, x[None])
    tscnc.metrics.backward(net, cache, np.ones_like(logits))
    assert calls == [True], "the full pass must be seen to compute dW"
    assert passes[0].weight and passes[0].bias
    calls.clear()
    passes.clear()

    assert robustness_radius(net, x, r=0.1, q=2, n=10, seed=0) >= 0.0
    assert calls and not any(calls)
    for grads in passes:
        assert grads.weight == {} and grads.bias == {}
