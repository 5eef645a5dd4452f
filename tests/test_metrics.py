"""Conditioning penalty, condition reports, Lipschitz estimation, radii."""

import math

import numpy as np
import pytest

import tscnc.metrics
from oracles import apply_scaling
from tscnc.attacks import AttackSpec, pgd
from tscnc.errors import ValidationError
from tscnc.metrics import (
    check_eq7,
    condition_constraint_grad,
    condition_constraint_loss,
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
from tscnc.tensor_ops import INFINITE


def linear_net(W, b=None):
    W = np.asarray(W, dtype=float)
    fan_in, fan_out = W.shape
    layer = MaskedLayer(
        kind="linear", W=W, Z=np.ones_like(W),
        b=np.zeros(fan_out) if b is None else np.asarray(b, dtype=float),
        prunable=True,
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
        got = condition_constraint_loss(net, 1e-4)
        assert abs(got - math.log(1e-4)) <= 1e-12

    def test_unit_frobenius(self):
        net = build_mlp(3, [], 2, seed=1)
        set_layer_fro_sq(net.layers[0], 1.0)
        got = condition_constraint_loss(net, 1e-4)
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
        assert abs(condition_constraint_loss(net, tau) - want) <= 1e-12

    def test_nonpositive_tau_rejected(self):
        net = build_mlp(3, [], 2, seed=0)
        for tau in (0.0, -1e-4):
            with pytest.raises(ValidationError):
                condition_constraint_loss(net, tau)

    def test_shrinking_weights_strictly_decreases(self):
        net = build_mlp(5, [6], 3, seed=3)
        base = condition_constraint_loss(net, 1e-4)
        for c in (0.9, 0.5, 0.1):
            shrunk = net.clone()
            for li in shrunk.parameterized_indices():
                shrunk.layers[li].W *= c
            assert condition_constraint_loss(shrunk, 1e-4) < base

    def test_masked_weights_do_not_contribute(self):
        net = build_mlp(4, [4], 2, seed=4)
        before = condition_constraint_loss(net, 1e-4)
        net.layers[0].W[0, 0] = 1e6
        mask = net.layers[0].Z.copy()
        mask[0, 0] = False
        apply_masks(net, {0: mask})
        after_mask = condition_constraint_loss(net, 1e-4)
        assert after_mask < before + 1e-12


class TestConditionConstraintGrad:
    def test_zero_weights_zero_grad(self):
        net = build_mlp(3, [], 2, seed=0)
        net.layers[0].W[:] = 0.0
        g = condition_constraint_grad(net, 1e-4)
        assert np.array_equal(g[0], np.zeros_like(net.layers[0].W))

    def test_scalar_layer_closed_form(self):
        net = linear_net(np.array([[1.0]]))
        g = condition_constraint_grad(net, 1e-4)
        assert abs(g[0][0, 0] - 2.0 / 1.0001) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = linear_net(rng.normal(size=(3, 4)))
        tau = 1e-4
        g = condition_constraint_grad(net, tau)[0]
        h = 1e-7
        W = net.layers[0].W
        fd = np.zeros_like(W)
        for i in range(3):
            for j in range(4):
                orig = W[i, j]
                W[i, j] = orig + h
                lp = condition_constraint_loss(net, tau)
                W[i, j] = orig - h
                lm = condition_constraint_loss(net, tau)
                W[i, j] = orig
                fd[i, j] = (lp - lm) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(g - fd).max() / denom <= 1e-6

    def test_masked_entries_get_zero_grad(self):
        rng = np.random.default_rng(8)
        net = linear_net(rng.normal(size=(4, 3)))
        mask = net.layers[0].Z.copy()
        mask[2, 1] = False
        apply_masks(net, {0: mask})
        g = condition_constraint_grad(net, 1e-4)[0]
        assert g[2, 1] == 0.0

    def test_step_is_descent_direction_for_frobenius(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            net = linear_net(rng.normal(size=(4, 4)))
            g = condition_constraint_grad(net, 1e-4)[0]
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

    def test_epoch_recorded(self):
        net = linear_net(np.eye(2))
        assert condition_report(net, epoch=17).epoch == 17


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
            assert abs(est.value - want) <= 1e-10
            assert est.q == q and est.samples == 50

    def test_constant_output_net_gives_zero(self):
        net = linear_net(np.zeros((4, 3)), b=np.array([2.0, 1.0, 0.0]))
        est = local_lipschitz_estimate(
            net, np.full(4, 0.5), k=1, r=0.2, q=2, n=100, seed=1
        )
        assert est.value == 0.0

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
        assert abs(est.value - grid) / grid <= 0.05
        assert est.value <= grid * 1.02 + 1e-9

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
                    local_lipschitz_estimate(net, x, k, 0.15, q, n, seed=trial).value
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
                net.layers[li].W -= 0.5 * g.layers[li].weight
                net.layers[li].b -= 0.5 * g.layers[li].bias
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
        # margin function x_yhat - x_k has gradient e_yhat - e_k, so the
        # Euclidean estimate is sqrt(2) and lhs = sqrt(2)/2 <= kappa = 1
        net = linear_net(np.eye(3))
        x = np.array([0.9, 0.2, 0.1])
        rep = check_eq7(net, x, k=1, r=0.1, q=2, n=50, seed=0)
        row = rep["layers"][0]
        assert abs(row["lhs"] - np.sqrt(2.0) / 2.0) <= 1e-6
        assert row["kappa"] == pytest.approx(1.0, abs=1e-8)
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
            rep = check_eq7(net, x, k, r=0.2, q=2, n=100, seed=trial)
            assert rep["holds"]

    def test_multilayer_report_structure(self):
        rng = np.random.default_rng(5)
        net = build_mlp(4, [6, 5], 3, seed=5)
        x = rng.uniform(0.2, 0.8, size=4)
        logits, _ = forward(net, x[None])
        yhat = int(np.argmax(logits[0]))
        rep = check_eq7(net, x, (yhat + 1) % 3, r=0.1, q=1, n=80, seed=1)
        assert len(rep["layers"]) == 3
        assert rep["c1"] > 0.0 and rep["c2"] > 0.0
        assert rep["lipschitz"] >= 0.0
        for row in rep["layers"]:
            assert row["holds"] == (row["lhs"] <= row["kappa"])

    def test_constant_products_scale_with_final_layer(self):
        # doubling the last layer doubles both logged constants
        rng = np.random.default_rng(6)
        net = build_mlp(3, [4], 3, seed=6)
        x = rng.uniform(0.2, 0.8, size=3)
        logits, _ = forward(net, x[None])
        k = (int(np.argmax(logits[0])) + 1) % 3
        rep1 = check_eq7(net, x, k, r=0.1, q=2, n=40, seed=2)
        doubled = net.clone()
        doubled.layers[-1].W *= 2.0
        doubled.layers[-1].b *= 2.0
        rep2 = check_eq7(doubled, x, k, r=0.1, q=2, n=40, seed=2)
        assert rep2["c1"] == pytest.approx(2.0 * rep1["c1"], rel=1e-9)
        assert rep2["c2"] == pytest.approx(2.0 * rep1["c2"], rel=1e-9)


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
            / local_lipschitz_estimate(net, x, k, r, q, n=60, seed=4).value
            for k in range(6) if k != yhat
        ]
        got = robustness_radius(net, x, r=r, q=q, n=60, seed=4)
        assert got == min(r, min(ratios))
        assert got < r  # the cap is not what decides this case

    def test_eq7_rows_come_from_condition_report(self, six_class):
        net, x, _, yhat = six_class
        k = (yhat + 2) % 6
        rep = check_eq7(net, x, k, r=0.1, q=2, n=80, seed=5)
        crep = condition_report(net)
        assert [(row["layer"], row["kappa"], row["sigma_max"])
                for row in rep["layers"]] == [
            (row.layer, row.kappa, row.sigma_max) for row in crep.layers]
        want = local_lipschitz_estimate(net, x, k, r=0.1, q=2, n=80, seed=5)
        assert rep["lipschitz"] == want.value


def test_radius_on_cnn_evaluates_no_weight_gradient(monkeypatch):
    net = build_cnn((1, 6, 6), [2, 3], 8, 4, seed=2)
    x = np.random.default_rng(2).random((1, 6, 6))
    calls = []
    real_einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(args[0])
        return real_einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    assert robustness_radius(net, x, r=0.1, q=2, n=10, seed=0) >= 0.0
    assert calls == []
