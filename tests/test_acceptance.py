"""End-to-end acceptance gate.

Each test stands for one headline guarantee of the package: exact gradients,
exact linear-algebra identities, attack optimality against brute force,
saliency ranking quality, the two training-level trends, mask monotonicity of
the Lipschitz estimate, and bitwise reproducibility.  Every test prints a
single [PASS]/[FAIL] line so the whole gate can be read off a terminal, and
asserts the same condition so pytest enforces it.
"""

import copy

import numpy as np
import pytest

import tscnc.metrics
from oracles import random_bernoulli_masks, svd, under_reported_spectrum
from tscnc.attacks import AttackSpec, fgsm_spec, pgd
from tscnc.checkpoint import load_checkpoint, save_checkpoint
from tscnc.data import synth_blobs
from tscnc.metrics import (
    check_eq7,
    condition_constraint,
    local_lipschitz_estimate,
)
from tscnc.network import (
    backward,
    build_cnn,
    build_mlp,
    cross_entropy,
    forward,
    loss_gradients,
)
from tscnc.pruning import (
    PruneSpec,
    apply_masks,
    saliency,
)
from tscnc.tensor_ops import layer_spectrum
from tscnc.trainer import TrainConfig, evaluate, run_tscnc


def _verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _say(capsys, line):
    with capsys.disabled():
        print(line)


def _batch_loss(net, x, y):
    logits, _ = forward(net, x)
    loss, _ = cross_entropy(logits, y)
    return loss


class TestGradientExactness:
    def test_layer_and_constraint_gradients_match_finite_differences(self, capsys):
        nets = [
            (build_mlp(4, [6], 3, seed=0), 3),
            (build_mlp(5, [8, 4], 3, seed=1), 3),
            (build_mlp(3, [], 2, seed=2), 2),
            (build_cnn((1, 6, 6), [2], 4, 3, seed=3), 3),
            (build_cnn((2, 5, 5), [3], 5, 4, seed=4), 4),
        ]
        # the last net also exercises the masked-gradient path
        masked = nets[-1][0]
        rng = np.random.default_rng(77)
        apply_masks(masked, {li: rng.uniform(size=masked.layers[li].Z.shape) >= 0.3
                             for li in masked.prunable_indices()})

        h = 1e-5
        worst_layer = 0.0
        worst_cc = 0.0
        for i, (net, classes) in enumerate(nets):
            rng = np.random.default_rng(i)
            x = rng.uniform(size=(3,) + tuple(net.input_shape))
            y = rng.integers(0, classes, size=3)
            logits, cache = forward(net, x)
            _, gl = cross_entropy(logits, y)
            grads = backward(net, cache, gl)
            # weight gradients are reported pre-mask, i.e. as derivatives of
            # the loss in every entry of W; difference an unmasked clone, whose
            # W still holds 0.0 at the masked entries, so the oracle measures
            # the same function and may perturb those entries too
            probe = copy.deepcopy(net)
            apply_masks(probe, {li: np.ones_like(probe.layers[li].Z)
                                for li in probe.parameterized_indices()})
            for li in net.parameterized_indices():
                layer = probe.layers[li]
                for name, arr, g in (
                    ("W", layer.W, grads.weight[li]),
                    ("b", layer.b, grads.bias[li]),
                ):
                    fd = np.zeros_like(arr)
                    for idx in np.ndindex(arr.shape):
                        old = arr[idx]
                        arr[idx] = old + h
                        probe.bump()
                        up = _batch_loss(probe, x, y)
                        arr[idx] = old - h
                        probe.bump()
                        dn = _batch_loss(probe, x, y)
                        arr[idx] = old
                        probe.bump()
                        fd[idx] = (up - dn) / (2.0 * h)
                    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
                    worst_layer = max(worst_layer, rel)

            tau = 1e-4
            cc = condition_constraint(net, tau)[1]
            for li in net.prunable_indices():
                arr = net.layers[li].W
                fd = np.zeros_like(arr)
                for idx in np.ndindex(arr.shape):
                    old = arr[idx]
                    arr[idx] = old + h
                    net.bump()
                    up = condition_constraint(net, tau)[0]
                    arr[idx] = old - h
                    net.bump()
                    dn = condition_constraint(net, tau)[0]
                    arr[idx] = old
                    net.bump()
                    fd[idx] = (up - dn) / (2.0 * h)
                rel = np.max(np.abs(cc[li] - fd)) / max(np.max(np.abs(fd)), 1e-12)
                worst_cc = max(worst_cc, rel)

        ok = worst_layer <= 1e-4 and worst_cc <= 1e-6
        _verdict(
            capsys,
            "layer and constraint gradients match central finite differences "
            f"(worst layer rel {worst_layer:.2e}, worst penalty rel {worst_cc:.2e})",
            ok,
        )


class TestConditioningOracles:
    def test_svd_reconstruction_scale_invariance_inverse_identity(self, capsys):
        rng = np.random.default_rng(0)
        worst_recon = 0.0
        for _ in range(30):
            m, n = rng.integers(2, 9, size=2)
            a = rng.standard_normal((m, n))
            r = svd(a, compute_vectors=True)
            recon = r.left_vectors @ np.diag(r.singular_values) @ r.right_vectors.T
            worst_recon = max(
                worst_recon,
                float(np.linalg.norm(recon - a) / np.linalg.norm(a)),
            )

        worst_scale = 0.0
        for _ in range(30):
            a = rng.standard_normal((5, 5))
            k = layer_spectrum(a).kappa
            for c in (1e-3, 0.37, 7.0, 1e3):
                worst_scale = max(worst_scale, abs(layer_spectrum(c * a).kappa - k) / k)

        worst_ident = 0.0
        done = 0
        while done < 100:
            a = rng.uniform(-1.0, 1.0, size=(6, 6))
            if np.linalg.cond(a) > 1e5:
                continue
            k = layer_spectrum(a).kappa
            prod = (
                float(svd(a).singular_values[0])
                * float(svd(np.linalg.inv(a)).singular_values[0])
            )
            worst_ident = max(worst_ident, abs(k - prod) / k)
            done += 1

        ok = worst_recon <= 1e-9 and worst_scale <= 1e-8 and worst_ident <= 1e-8
        _verdict(
            capsys,
            "svd reconstruction, kappa scale invariance, inverse-norm identity "
            f"(rel {worst_recon:.2e} / {worst_scale:.2e} / {worst_ident:.2e})",
            ok,
        )

    def test_relative_error_sandwich_on_random_triples(self, capsys):
        rng = np.random.default_rng(1)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            w = rng.standard_normal((n, n))
            x = rng.standard_normal(n)
            dx = rng.standard_normal(n) * 1e-3
            k = layer_spectrum(w).kappa
            rel_in = np.linalg.norm(dx) / np.linalg.norm(x)
            rel_out = np.linalg.norm(w.T @ dx) / np.linalg.norm(w.T @ x)
            if rel_out > k * rel_in + 1e-10 or rel_out < rel_in / k - 1e-10:
                violations += 1
        _verdict(
            capsys,
            f"relative output error sandwiched by kappa ({violations} violations "
            "in 1000 triples)",
            violations == 0,
        )

    def test_lipschitz_estimate_bounded_by_layer_product(self, capsys,
                                                         monkeypatch):
        # the sampled estimate is a lower bound on the margin's Lipschitz
        # constant and the layer product an upper one, so a violation is a
        # bug; a sigma_max reported 10x too small must show as one
        cases = []
        for i in range(20):
            rng = np.random.default_rng(i)
            if i % 2:
                net = build_cnn((1, 6, 6), [2, 3], 8, 4, seed=i)
            else:
                net = build_mlp(int(rng.integers(4, 12)),
                                [int(rng.integers(4, 12)), int(rng.integers(4, 10))],
                                int(rng.integers(2, 6)), seed=i)
            apply_masks(net, random_bernoulli_masks(net, [0.0, 0.3, 0.6][i % 3],
                                                    seed=i))
            x = rng.uniform(size=net.input_shape)
            logits, _ = forward(net, x[None])
            yhat = int(np.argmax(logits[0]))
            order = np.argsort(logits[0])
            k = int(order[-1]) if int(order[-1]) != yhat else int(order[-2])
            cases.append((net, x, k, i))
        violations = sum(not check_eq7(net, x, k, r=0.1, q=q, n=200, seed=i)["holds"]
                         for net, x, k, i in cases for q in (1, 2))
        monkeypatch.setattr(tscnc.metrics, "layer_spectrum", under_reported_spectrum)
        flagged = sum(not check_eq7(net, x, k, r=0.1, q=2, n=200, seed=i)["holds"]
                      for net, x, k, i in cases)
        _verdict(
            capsys,
            "sampled lipschitz estimate bounded by the layer product "
            f"({violations} violations in 40 masked multi-layer (net, q) cases; "
            f"a 10x sigma_max under-report flagged in {flagged} of 20)",
            violations == 0 and flagged == 20,
        )


class TestAttackOracles:
    def test_single_step_equivalence_containment_and_grid(self, capsys):
        # one projected ascent step at full budget is the textbook fast
        # gradient sign step clip(x + eps * sign(grad_x loss)), bit for bit
        bitwise = True
        for i in range(5):
            rng = np.random.default_rng(i)
            net = build_mlp(4, [5], 3, seed=i)
            x = rng.uniform(size=(20, 4))
            y = rng.integers(0, 3, size=20)
            g = loss_gradients(net, x, y)[1].input
            want = np.clip(x + 0.1 * np.sign(g), 0.0, 1.0)
            if not np.array_equal(pgd(net, x, y, fgsm_spec(0.1)), want):
                bitwise = False

        net = build_mlp(6, [8], 3, seed=9)
        inside = True
        total = 0
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            x = rng.uniform(size=(500, 6))
            y = rng.integers(0, 3, size=500)
            eps = float(rng.uniform(0.01, 0.3))
            spec = AttackSpec(epsilon=eps, step_size=eps / 2, steps=3, random_start=True)
            xa = pgd(net, x, y, spec, rng=rng)
            ok = (
                (xa <= x + eps).all()
                and (xa >= x - eps).all()
                and (xa >= 0.0).all()
                and (xa <= 1.0).all()
            )
            inside = inside and bool(ok)
            total += x.shape[0]
        assert total == 10_000

        # brute-force grid over the whole 1-d ball
        worst_gap = 0.0
        for i in range(5):
            net = build_mlp(1, [], 2, seed=i)
            x = np.array([[0.45]])
            y = np.array([i % 2])
            eps = 0.2
            spec = AttackSpec(epsilon=eps, step_size=eps, steps=1, random_start=False)
            xa = pgd(net, x, y, spec)
            la = _batch_loss(net, xa, y)
            grid = np.linspace(max(0.0, 0.45 - eps), min(1.0, 0.45 + eps), 4001)
            logits, _ = forward(net, grid[:, None])
            shifted = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
            best = float((lse - logits[:, y[0]]).max())
            worst_gap = max(worst_gap, abs(best - la))

        ok = bitwise and inside and worst_gap <= 1e-3
        _verdict(
            capsys,
            "single-step attack bitwise-equals the FGSM formula, 10^4 attacks stay in the "
            f"ball, 1-d grid gap {worst_gap:.2e}",
            ok,
        )


class TestSaliencyOracle:
    def test_ablation_ranking_agreement_and_taylor_residual(self, capsys):
        seed = 2
        data = synth_blobs(3, 3, 60, 0.15, seed=seed)
        X, y = data.images, data.labels
        net = build_mlp(3, [18, 8], 3, seed=seed)
        spec = AttackSpec(epsilon=0.05, step_size=0.0125, steps=8, random_start=False)
        rng = np.random.default_rng(seed + 100)
        for _ in range(150):
            idx = rng.integers(0, X.shape[0], size=32)
            xa = pgd(net, X[idx], y[idx], spec, rng=rng)
            logits, cache = forward(net, xa)
            _, gl = cross_entropy(logits, y[idx])
            g = backward(net, cache, gl)
            for li in net.parameterized_indices():
                net.layers[li].W -= 0.05 * g.weight[li]
                net.layers[li].b -= 0.05 * g.bias[li]
            net.bump()

        xa = pgd(net, X, y, spec)
        sal = saliency(net, [(xa, y)])
        base = _batch_loss(net, xa, y)
        scores, deltas = [], []
        for li in net.prunable_indices():
            layer = net.layers[li]
            for idx in np.ndindex(layer.W.shape):
                old = layer.W[idx]
                layer.W[idx] = 0.0
                net.bump()
                deltas.append(abs(_batch_loss(net, xa, y) - base))
                layer.W[idx] = old
                net.bump()
                scores.append(sal[li][idx])
        s = np.array(scores)
        d = np.array(deltas)
        iu = np.triu_indices(s.size, k=1)
        ds = np.sign(np.subtract.outer(s, s))[iu]
        dd = np.sign(np.subtract.outer(d, d))[iu]
        live = (ds != 0) & (dd != 0)
        agreement = float((ds[live] == dd[live]).mean())

        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = build_mlp(10, [16], 3, seed=seed)
            X = rng.uniform(size=(32, 10))
            y = rng.integers(0, 3, size=32)
            logits, cache = forward(net, X)
            base, gl = cross_entropy(logits, y)
            g = backward(net, cache, gl)
            flat = [
                (li, idx)
                for li in net.prunable_indices()
                for idx in np.ndindex(net.layers[li].W.shape)
            ]
            pick = rng.choice(len(flat), size=8, replace=False)

            def residual(subset):
                predicted = 0.0
                saved = []
                for j in subset:
                    li, idx = flat[j]
                    w = net.layers[li].W[idx]
                    predicted += -g.weight[li][idx] * w
                    saved.append((li, idx, w))
                    net.layers[li].W[idx] = 0.0
                net.bump()
                actual = _batch_loss(net, X, y) - base
                for li, idx, w in saved:
                    net.layers[li].W[idx] = w
                net.bump()
                return abs(actual - predicted)

            # the smaller set is the first half of the larger one, so the
            # comparison scales one perturbation instead of redrawing it
            full = residual(pick)
            half = residual(pick[:4])
            ratios.append(full / half if half > 0 else np.inf)
        mean_ratio = float(np.mean(ratios))
        _verdict(
            capsys,
            f"saliency order matches one-weight ablation ({agreement:.3f} pairwise "
            f"agreement); residual shrinks {mean_ratio:.2f}x when the ablated "
            "fraction halves",
            agreement >= 0.90 and mean_ratio >= 3.0,
        )


def _trend_config(lam, seed):
    return TrainConfig(
        dataset="blobs-c6-d64-n60-s0.6-i1x8x8",
        architecture="cnn-4-32",
        epochs=40,
        batch_size=32,
        lr=0.1,
        lr_milestones=(30,),
        lr_factor=0.1,
        warmup_epochs=5,
        lam=lam,
        train_attack=AttackSpec(
            epsilon=8 / 255, step_size=2 / 255, steps=5, random_start=True
        ),
        eval_attacks={},
        prune=PruneSpec(sparsity=0.9, protected=(0, 3)),
        seed=seed,
    )


def _robust_config(criterion, lam, sparsity, seed):
    return TrainConfig(
        dataset="blobs-c6-d64-n60-s0.35",
        architecture="mlp-32x16",
        epochs=30,
        batch_size=32,
        lr=0.1,
        lr_milestones=(20,),
        lr_factor=0.1,
        warmup_epochs=3,
        lam=lam,
        train_attack=AttackSpec(
            epsilon=0.1, step_size=0.025, steps=5, random_start=True
        ),
        eval_attacks={},
        prune=PruneSpec(sparsity=sparsity, criterion=criterion),
        seed=seed,
    )


class TestTrainingTrends:
    def test_condition_constraint_lowers_final_kappa(self, capsys):
        seeds = (0, 1, 2)
        traces = {}
        finals = {}
        for lam in (0.001, 0.0):
            per_seed = []
            for seed in seeds:
                _, records = run_tscnc(_trend_config(lam, seed))
                per_seed.append([r.kappa_max for r in records])
            traces[lam] = np.mean(per_seed, axis=0)
            finals[lam] = float(np.mean([t[-1] for t in per_seed]))
        assert np.isfinite(finals[0.001]) and np.isfinite(finals[0.0])
        for lam in (0.001, 0.0):
            marks = traces[lam][4::5]
            _say(
                capsys,
                f"  kappa_max trace lam={lam}: "
                + " ".join(f"{v:.3f}" for v in marks),
            )
        _verdict(
            capsys,
            "constraint lowers mean final kappa_max "
            f"({finals[0.001]:.3f} vs {finals[0.0]:.3f} over seeds {seeds})",
            finals[0.001] < finals[0.0],
        )

    def test_saliency_pruning_holds_robustness_over_magnitude(self, capsys):
        seeds = (0, 1, 2)
        test = synth_blobs(6, 64, 40, 0.35, seed=777)
        eval_spec = AttackSpec(epsilon=0.1, step_size=0.025, steps=10, random_start=True)

        def robust(cfg):
            net, _ = run_tscnc(cfg)
            out = evaluate(
                net, test, {"pgd": eval_spec}, rng=np.random.default_rng(12345)
            )
            return out["robust_acc"]["pgd"]

        ours = np.mean(
            [robust(_robust_config("adversarial_saliency", 0.001, 0.95, s)) for s in seeds]
        )
        base_hi = np.mean(
            [robust(_robust_config("magnitude", 0.0, 0.95, s)) for s in seeds]
        )
        base_lo = np.mean(
            [robust(_robust_config("magnitude", 0.0, 0.90, s)) for s in seeds]
        )
        _say(
            capsys,
            f"  robust acc at 95% sparsity: saliency+constraint {ours:.3f}, "
            f"magnitude {base_hi:.3f}; magnitude at 90%: {base_lo:.3f}",
        )
        _verdict(
            capsys,
            "saliency pruning keeps robust accuracy at or above the magnitude "
            "baseline, which degrades with sparsity",
            ours >= base_hi and base_lo >= base_hi,
        )


class TestMaskedLipschitz:
    def test_mean_estimate_non_increasing_under_random_masking(self, capsys):
        net = build_mlp(12, [16, 10], 4, seed=5)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(12,))
        means = []
        for alpha in (0.0, 0.25, 0.5, 0.75):
            vals = []
            for ms in range(20):
                masked = copy.deepcopy(net)
                apply_masks(masked, random_bernoulli_masks(masked, alpha, seed=1000 + ms))
                logits, _ = forward(masked, x[None])
                yhat = int(np.argmax(logits[0]))
                order = np.argsort(logits[0])
                k = int(order[-1]) if int(order[-1]) != yhat else int(order[-2])
                vals.append(
                    local_lipschitz_estimate(masked, x, k, r=0.5, q=2, n=400, seed=9)
                )
            means.append(float(np.mean(vals)))
        mono = all(means[i + 1] <= means[i] + 1e-12 for i in range(len(means) - 1))
        _verdict(
            capsys,
            "mean lipschitz estimate non-increasing in drop rate "
            f"({', '.join(f'{m:.3f}' for m in means)})",
            mono,
        )


class TestReproducibility:
    def test_determinism_round_trip_and_constant_sparsity(self, capsys, tmp_path):
        cfg = TrainConfig(
            dataset="blobs-c3-d8-n30-s0.1",
            architecture="mlp-8",
            epochs=4,
            batch_size=16,
            lr=0.1,
            lr_milestones=(3,),
            lr_factor=0.1,
            warmup_epochs=1,
            lam=0.001,
            train_attack=AttackSpec(
                epsilon=0.05, step_size=0.0125, steps=2, random_start=True
            ),
            eval_attacks={},
            prune=PruneSpec(sparsity=0.5),
            seed=9,
        )
        net1, rec1 = run_tscnc(cfg)
        net2, rec2 = run_tscnc(cfg)
        bitwise = all(
            np.array_equal(a.W, b.W)
            and np.array_equal(a.b, b.b)
            and np.array_equal(a.Z, b.Z)
            for a, b in zip(net1.layers, net2.layers)
            if a.parameterized
        )
        same_history = all(
            r1.loss_total == r2.loss_total and r1.kappa_max == r2.kappa_max
            for r1, r2 in zip(rec1, rec2)
        )

        path = tmp_path / "model.tscn"
        save_checkpoint(path, net1)
        loaded = load_checkpoint(path).net
        rng = np.random.default_rng(4)
        probe = rng.uniform(size=(16,) + tuple(net1.input_shape))
        round_trip = np.array_equal(forward(net1, probe)[0], forward(loaded, probe)[0])

        after_prune = [r.sparsity for r in rec1[cfg.warmup_epochs :]]
        constant = len(set(after_prune)) == 1 and after_prune[0] > 0.0
        total = sum(net1.layers[li].Z.size for li in net1.prunable_indices())
        zeros = sum(
            int((net1.layers[li].Z == 0.0).sum()) for li in net1.prunable_indices()
        )
        exact_count = zeros == int(np.floor(0.5 * total))

        ok = bitwise and same_history and round_trip and constant and exact_count
        _verdict(
            capsys,
            "reruns are bitwise identical, checkpoints round-trip, sparsity "
            "constant after pruning",
            ok,
        )
