"""Saliency scoring, mask selection, and mask bookkeeping."""

import numpy as np
import pytest

from oracles import random_bernoulli_masks
from tscnc.errors import ValidationError
from tscnc.network import (
    MaskedLayer,
    Network,
    backward,
    build_mlp,
    cross_entropy,
    forward,
)
from tscnc.pruning import (
    ALREADY_PRUNED,
    PruneSpec,
    SaliencyMap,
    apply_masks,
    magnitude_scores,
    prune_report,
    saliency,
    select_mask,
    taylor_scores,
)


def linear_net(W, b=None):
    fan_in, fan_out = W.shape
    layer = MaskedLayer(
        kind="linear", W=np.asarray(W, dtype=float),
        Z=np.ones_like(W, dtype=float),
        b=np.zeros(fan_out) if b is None else np.asarray(b, dtype=float),
        prunable=True,
    )
    return Network(layers=[layer], input_shape=(fan_in,), class_count=fan_out)


class TestTaylorScores:
    def test_hand_example(self):
        got = taylor_scores(np.array([[1.0, -2.0]]), np.array([[0.5, 0.1]]))
        assert np.array_equal(got, np.array([[0.5, 0.2]]))

    def test_zero_weight_scores_zero(self):
        got = taylor_scores(np.array([0.0, 3.0]), np.array([10.0, 0.5]))
        assert got[0] == 0.0 and got[1] == 1.5


class TestSaliency:
    def test_empty_stream_rejected(self):
        net = build_mlp(4, [5], 2, seed=0)
        with pytest.raises(ValidationError):
            saliency(net, [])

    def test_zero_weight_gets_zero_score(self):
        rng = np.random.default_rng(3)
        net = build_mlp(5, [6], 3, seed=3)
        net.layers[0].W[2, 1] = 0.0
        net.bump()
        x = rng.uniform(0, 1, size=(8, 5))
        y = rng.integers(0, 3, size=8)
        smap = saliency(net, [(x, y)])
        assert smap.scores[0][2, 1] == 0.0

    def test_scores_nonnegative_and_shaped(self):
        rng = np.random.default_rng(4)
        net = build_mlp(6, [7], 2, seed=4)
        batches = [
            (rng.uniform(0, 1, size=(10, 6)), rng.integers(0, 2, size=10))
            for _ in range(3)
        ]
        smap = saliency(net, batches)
        assert smap.batch_count == 3
        for li in net.prunable_indices():
            assert smap.scores[li].shape == net.layers[li].W.shape
            assert (smap.scores[li] >= 0.0).all()

    def test_already_masked_entries_get_sentinel(self):
        rng = np.random.default_rng(5)
        net = build_mlp(4, [6], 2, seed=5)
        mask = net.layers[0].Z.copy()
        mask[1, 3] = False
        apply_masks(net, {0: mask})
        x = rng.uniform(0, 1, size=(6, 4))
        smap = saliency(net, [(x, rng.integers(0, 2, size=6))])
        assert smap.scores[0][1, 3] == ALREADY_PRUNED
        live = smap.scores[0][net.layers[0].Z]
        assert (live >= 0.0).all()

    def test_mean_over_batches(self):
        # two identical batches must score the same as one
        rng = np.random.default_rng(6)
        net = build_mlp(5, [4], 2, seed=6)
        x = rng.uniform(0, 1, size=(9, 5))
        y = rng.integers(0, 2, size=9)
        one = saliency(net, [(x, y)])
        two = saliency(net, [(x, y), (x, y)])
        for li in one.scores:
            assert np.allclose(one.scores[li], two.scores[li], atol=1e-15)

    def test_ranking_matches_exhaustive_ablation(self):
        # train briefly so gradients carry signal, then compare orderings
        rng = np.random.default_rng(11)
        n = 50
        x = np.concatenate([
            rng.normal((0.3, 0.3), 0.08, size=(n, 2)),
            rng.normal((0.7, 0.6), 0.08, size=(n, 2)),
        ])
        x = np.clip(x, 0, 1)
        y = np.repeat(np.arange(2), n)
        net = build_mlp(2, [10], 2, seed=11)
        for _ in range(100):
            logits, cache = forward(net, x)
            _, gl = cross_entropy(logits, y)
            g = backward(net, cache, gl)
            for li in net.parameterized_indices():
                net.layers[li].W -= 0.5 * g.layers[li].weight
                net.layers[li].b -= 0.5 * g.layers[li].bias
            net.bump()
        smap = saliency(net, [(x, y)])
        base, _ = cross_entropy(forward(net, x)[0], y)
        scores, exact = [], []
        for li in net.prunable_indices():
            W = net.layers[li].W
            for fi in range(W.size):
                scores.append(smap.scores[li].ravel()[fi])
                orig = W.ravel()[fi]
                W.ravel()[fi] = 0.0
                net.bump()
                lm, _ = cross_entropy(forward(net, x)[0], y)
                W.ravel()[fi] = orig
                net.bump()
                exact.append(abs(lm - base))
        s, e = np.array(scores), np.array(exact)
        iu = np.triu_indices(s.size, 1)
        ds = (s[:, None] - s[None, :])[iu]
        de = (e[:, None] - e[None, :])[iu]
        agreement = 1.0 - np.mean(np.sign(ds) * np.sign(de) < 0)
        assert agreement >= 0.90


class TestMagnitudeScores:
    def test_scores_are_absolute_weights(self):
        net = linear_net(np.array([[1.0, -3.0], [0.5, 2.0]]))
        smap = magnitude_scores(net)
        assert np.array_equal(smap.scores[0], np.array([[1.0, 3.0], [0.5, 2.0]]))

    def test_sentinel_respected(self):
        net = linear_net(np.array([[1.0, -3.0]]))
        apply_masks(net, {0: np.array([[False, True]])})
        smap = magnitude_scores(net)
        assert smap.scores[0][0, 0] == ALREADY_PRUNED


class TestSelectMask:
    def test_hand_example_single_layer(self):
        smap = SaliencyMap(scores={0: np.array([5.0, 1.0, 3.0, 2.0])}, batch_count=1)
        masks = select_mask(smap, PruneSpec(0.5))
        assert np.array_equal(masks[0], np.array([1.0, 0.0, 1.0, 0.0]))

    def test_zero_sparsity_keeps_everything(self):
        smap = SaliencyMap(scores={0: np.array([5.0, 1.0, 3.0])}, batch_count=1)
        masks = select_mask(smap, PruneSpec(0.0))
        assert np.array_equal(masks[0], np.ones(3))

    def test_global_ranking_across_layers(self):
        # N = 5, p = 0.5 masks the two smallest scores across both layers
        smap = SaliencyMap(
            scores={0: np.array([10.0, 0.1, 0.9]), 1: np.array([0.5, 0.05])},
            batch_count=1,
        )
        masks = select_mask(smap, PruneSpec(0.5))
        assert np.array_equal(masks[0], np.array([1.0, 0.0, 1.0]))
        assert np.array_equal(masks[1], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.95])
    def test_exact_sparsity(self, p):
        rng = np.random.default_rng(int(p * 100))
        sizes = {0: (12, 9), 2: (9, 11)}
        smap = SaliencyMap(
            scores={li: rng.uniform(size=sh) for li, sh in sizes.items()},
            batch_count=1,
        )
        masks = select_mask(smap, PruneSpec(p))
        total = sum(m.size for m in masks.values())
        zeros = sum(int((m == 0).sum()) for m in masks.values())
        assert zeros == int(np.floor(p * total))

    def test_mask_nesting_monotone(self):
        rng = np.random.default_rng(8)
        smap = SaliencyMap(
            scores={0: rng.uniform(size=(10, 10)), 1: rng.uniform(size=(10, 4))},
            batch_count=1,
        )
        m90 = select_mask(smap, PruneSpec(0.90))
        m95 = select_mask(smap, PruneSpec(0.95))
        for li in smap.scores:
            # everything masked at 0.90 stays masked at 0.95
            assert np.all(m95[li][m90[li] == 0.0] == 0.0)

    def test_sentinel_entries_stay_masked(self):
        scores = np.array([0.5, ALREADY_PRUNED, 0.9, 0.1])
        smap = SaliencyMap(scores={0: scores}, batch_count=1)
        masks = select_mask(smap, PruneSpec(0.5))
        # floor(0.5 * 4) = 2 zeros: the sentinel plus the smallest live score
        assert np.array_equal(masks[0], np.array([1.0, 0.0, 1.0, 0.0]))

    def test_ties_broken_by_position(self):
        smap = SaliencyMap(
            scores={0: np.array([0.5, 0.5]), 1: np.array([0.5, 0.5])},
            batch_count=1,
        )
        masks = select_mask(smap, PruneSpec(0.5))
        assert np.array_equal(masks[0], np.array([0.0, 0.0]))
        assert np.array_equal(masks[1], np.array([1.0, 1.0]))

    def test_per_layer_scope(self):
        smap = SaliencyMap(
            scores={0: np.array([4.0, 3.0, 2.0, 1.0]), 1: np.array([10.0, 20.0])},
            batch_count=1,
        )
        masks = select_mask(smap, PruneSpec(0.5, scope="per_layer"))
        assert np.array_equal(masks[0], np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.array_equal(masks[1], np.array([0.0, 1.0]))

    def test_protected_layers_excluded(self):
        smap = SaliencyMap(
            scores={0: np.array([0.01, 0.02]), 1: np.array([5.0, 6.0])},
            batch_count=1,
        )
        masks = select_mask(smap, PruneSpec(0.5, protected=(0,)))
        assert 0 not in masks
        assert np.array_equal(masks[1], np.array([0.0, 1.0]))

    def test_sparsity_one_rejected(self):
        smap = SaliencyMap(scores={0: np.ones(4)}, batch_count=1)
        with pytest.raises(ValidationError):
            select_mask(smap, PruneSpec(1.0))

    def test_non_finite_scores_rejected(self):
        smap = SaliencyMap(scores={0: np.array([1.0, np.nan])}, batch_count=1)
        with pytest.raises(ValidationError):
            select_mask(smap, PruneSpec(0.5))


class TestPruneReport:
    def test_fresh_net_all_zero_ratios(self):
        net = build_mlp(6, [5], 3, seed=0)
        rep = prune_report(net)
        assert rep["global_sparsity"] == 0.0
        assert all(row["ratio"] == 0.0 for row in rep["layers"])

    def test_hand_built_masks(self):
        net = build_mlp(2, [2], 2, seed=0)  # layer sizes 4 and 4
        apply_masks(net, {0: np.array([[False, False], [False, True]]),
                          2: np.array([[False, True], [True, True]])})
        rep = prune_report(net)
        assert [row["ratio"] for row in rep["layers"]] == [0.75, 0.25]
        assert rep["global_sparsity"] == 0.5

    def test_selected_mask_ratio_within_floor(self):
        rng = np.random.default_rng(2)
        net = build_mlp(8, [12], 4, seed=2)
        x = rng.uniform(0, 1, size=(16, 8))
        smap = saliency(net, [(x, rng.integers(0, 4, size=16))])
        apply_masks(net, select_mask(smap, PruneSpec(0.9)))
        total = sum(net.layers[li].Z.size for li in net.prunable_indices())
        got = prune_report(net)["global_sparsity"]
        assert 0.9 - 1.0 / total <= got <= 0.9


class TestRandomBernoulliMasks:
    def test_zero_drop_rate_keeps_all(self):
        net = build_mlp(5, [5], 2, seed=0)
        masks = random_bernoulli_masks(net, 0.0, seed=1)
        for m in masks.values():
            assert np.array_equal(m, np.ones_like(m))

    def test_extreme_drop_rate(self):
        net = build_mlp(40, [50], 10, seed=0)  # 2500 weights
        masks = random_bernoulli_masks(net, 0.999, seed=2)
        ones = sum(int(m.sum()) for m in masks.values())
        total = sum(m.size for m in masks.values())
        # expectation 0.1%; allow a generous binomial band
        assert ones / total <= 0.01

    def test_half_drop_rate_concentration(self):
        net = build_mlp(100, [100], 10, seed=0)  # > 10^4 weights
        masks = random_bernoulli_masks(net, 0.5, seed=3)
        ones = sum(int(m.sum()) for m in masks.values())
        total = sum(m.size for m in masks.values())
        assert abs(ones / total - 0.5) <= 0.02

    def test_seed_determinism(self):
        net = build_mlp(10, [10], 3, seed=0)
        a = random_bernoulli_masks(net, (0.25, 0.75), seed=9)
        b = random_bernoulli_masks(net, (0.25, 0.75), seed=9)
        for li in a:
            assert np.array_equal(a[li], b[li])

    def test_bad_drop_rate_rejected(self):
        net = build_mlp(4, [4], 2, seed=0)
        with pytest.raises(ValidationError):
            random_bernoulli_masks(net, 1.0, seed=0)


class TestApplyMasks:
    def test_masks_installed_and_version_bumped(self):
        net = build_mlp(4, [5], 2, seed=1)
        v = net.version
        smap = magnitude_scores(net)
        apply_masks(net, select_mask(smap, PruneSpec(0.5)))
        assert net.version > v
        rep = prune_report(net)
        assert rep["global_sparsity"] > 0.4

    def test_shape_mismatch_rejected(self):
        net = build_mlp(4, [5], 2, seed=1)
        with pytest.raises(ValidationError):
            apply_masks(net, {0: np.ones((2, 2))})
