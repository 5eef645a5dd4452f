"""Saliency scoring, mask selection, and mask bookkeeping."""

import numpy as np
import pytest

from oracles import random_bernoulli_masks
from tscnc.errors import DimensionError, ValidationError
from tscnc.network import (
    MaskedLayer,
    Network,
    backward,
    build_network,
    cross_entropy,
    forward,
)
from tscnc.pruning import (
    PruneSpec,
    apply_masks,
    check_protected,
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
        b=np.zeros(fan_out) if b is None else np.asarray(b, dtype=float),
    )
    return Network(layers=[layer], input_shape=(fan_in,), class_count=fan_out)


def linear_chain(*widths):
    """Linear layers widths[0] -> widths[1] -> ..., at indices 0, 1, ...

    Weights are drawn away from zero, so every weight is live until a test
    masks it.
    """
    rng = np.random.default_rng(0)
    layers = [MaskedLayer(kind="linear", W=rng.uniform(0.5, 1.0, size=(a, b)),
                          b=np.zeros(b))
              for a, b in zip(widths, widths[1:])]
    return Network(layers=layers, input_shape=(widths[0],),
                   class_count=widths[-1])


class TestPruneSpec:
    @pytest.mark.parametrize("field, message", [
        ("scope", "unknown scope 'layerwise'"),
        ("criterion", "unknown criterion 'layerwise'"),
    ])
    def test_unknown_choice_rejected(self, field, message):
        with pytest.raises(ValidationError, match=message):
            PruneSpec(0.5, **{field: "layerwise"}).validate()


class TestTaylorScores:
    def test_hand_example(self):
        got = taylor_scores(np.array([[1.0, -2.0]]), np.array([[0.5, 0.1]]))
        assert np.array_equal(got, np.array([[0.5, 0.2]]))

    def test_zero_weight_scores_zero(self):
        got = taylor_scores(np.array([0.0, 3.0]), np.array([10.0, 0.5]))
        assert got[0] == 0.0 and got[1] == 1.5


class TestSaliency:
    def test_empty_stream_rejected(self):
        net = build_network("mlp-5", (4,), 2, seed=0)
        with pytest.raises(ValidationError):
            saliency(net, [])

    def test_label_outside_the_classes_does_not_fit(self):
        net = build_network("mlp-5", (4,), 2, seed=0)
        x = np.full((3, 4), 0.5)
        with pytest.raises(DimensionError, match="label 2 does not fit a network "
                                                 "with 2 classes"):
            saliency(net, [(x, np.array([0, 2, 1]))])

    def test_zero_weight_gets_zero_score(self):
        rng = np.random.default_rng(3)
        net = build_network("mlp-6", (5,), 3, seed=3)
        net.layers[0].W[2, 1] = 0.0
        net.bump()
        x = rng.uniform(0, 1, size=(8, 5))
        y = rng.integers(0, 3, size=8)
        scores = saliency(net, [(x, y)])
        assert scores[0][2, 1] == 0.0

    def test_scores_nonnegative_and_shaped(self):
        rng = np.random.default_rng(4)
        net = build_network("mlp-7", (6,), 2, seed=4)
        batches = [
            (rng.uniform(0, 1, size=(10, 6)), rng.integers(0, 2, size=10))
            for _ in range(3)
        ]
        scores = saliency(net, batches)
        assert sorted(scores) == net.parameterized_indices()
        for li in net.parameterized_indices():
            assert scores[li].shape == net.layers[li].W.shape
            assert (scores[li] >= 0.0).all()

    def test_masked_entries_score_zero(self):
        rng = np.random.default_rng(5)
        net = build_network("mlp-6", (4,), 2, seed=5)
        mask = net.layers[0].Z.copy()
        mask[1, 3] = False
        apply_masks(net, {0: mask})
        x = rng.uniform(0, 1, size=(6, 4))
        scores = saliency(net, [(x, rng.integers(0, 2, size=6))])
        assert scores[0][1, 3] == 0.0
        assert (scores[0] >= 0.0).all()

    def test_mean_over_batches(self):
        # two identical batches must score the same as one
        rng = np.random.default_rng(6)
        net = build_network("mlp-4", (5,), 2, seed=6)
        x = rng.uniform(0, 1, size=(9, 5))
        y = rng.integers(0, 2, size=9)
        one = saliency(net, [(x, y)])
        two = saliency(net, [(x, y), (x, y)])
        for li in one:
            assert np.allclose(one[li], two[li], atol=1e-15)
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
        net = build_network("mlp-10", (2,), 2, seed=11)
        for _ in range(100):
            logits, cache = forward(net, x)
            _, gl = cross_entropy(logits, y)
            g = backward(net, cache, gl)
            for li in net.parameterized_indices():
                net.layers[li].W -= 0.5 * g.weight[li]
                net.layers[li].b -= 0.5 * g.bias[li]
            net.bump()
        scores_by_layer = saliency(net, [(x, y)])
        base, _ = cross_entropy(forward(net, x)[0], y)
        scores, exact = [], []
        for li in net.parameterized_indices():
            W = net.layers[li].W
            for fi in range(W.size):
                scores.append(scores_by_layer[li].ravel()[fi])
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
        scores = magnitude_scores(net)
        assert np.array_equal(scores[0], np.array([[1.0, 3.0], [0.5, 2.0]]))

    def test_masked_weight_scores_zero(self):
        net = linear_net(np.array([[1.0, -3.0]]))
        apply_masks(net, {0: np.array([[False, True]])})
        scores = magnitude_scores(net)
        assert np.array_equal(scores[0], np.array([[0.0, 3.0]]))


class TestSelectMask:
    def test_hand_example_single_layer(self):
        net = linear_chain(1, 4)
        masks = select_mask(net, {0: np.array([[5.0, 1.0, 3.0, 2.0]])},
                            PruneSpec(0.5))
        assert masks[0].dtype == bool
        assert np.array_equal(masks[0], [[True, False, True, False]])

    def test_hand_built_layer_is_pruned(self):
        # a layer carries no pruning flag: every linear and conv layer is
        # scored and pruned unless prune.protected names it
        layer = MaskedLayer(kind="linear", W=np.arange(1.0, 13.0).reshape(4, 3),
                            b=np.zeros(3))
        net = Network([layer], (4,), 3)
        scores = magnitude_scores(net)
        assert list(scores) == [0]
        masks = select_mask(net, scores, PruneSpec(0.9))
        assert int((~masks[0]).sum()) == 10
        apply_masks(net, masks)
        assert prune_report(net)["global_sparsity"] == 10 / 12

    def test_zero_sparsity_keeps_everything(self):
        net = linear_chain(1, 3)
        masks = select_mask(net, {0: np.array([[5.0, 1.0, 3.0]])}, PruneSpec(0.0))
        assert np.array_equal(masks[0], np.ones((1, 3), bool))

    def test_global_ranking_across_layers(self):
        # N = 6, p = 0.5 masks the three smallest scores across both layers
        net = linear_chain(1, 3, 1)
        scores = {0: np.array([[10.0, 0.1, 0.9]]),
                  1: np.array([[0.5], [0.05], [7.0]])}
        masks = select_mask(net, scores, PruneSpec(0.5))
        assert np.array_equal(masks[0], [[True, False, True]])
        assert np.array_equal(masks[1], [[False], [False], [True]])

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.95])
    def test_exact_sparsity(self, p):
        rng = np.random.default_rng(int(p * 100))
        net = linear_chain(12, 9, 11)
        scores = {li: rng.uniform(size=net.layers[li].W.shape) for li in (0, 1)}
        masks = select_mask(net, scores, PruneSpec(p))
        total = sum(m.size for m in masks.values())
        zeros = sum(int((~m).sum()) for m in masks.values())
        assert zeros == int(np.floor(p * total))

    def test_mask_nesting_monotone(self):
        rng = np.random.default_rng(8)
        net = linear_chain(10, 10, 4)
        scores = {0: rng.uniform(size=(10, 10)), 1: rng.uniform(size=(10, 4))}
        m90 = select_mask(net, scores, PruneSpec(0.90))
        m95 = select_mask(net, scores, PruneSpec(0.95))
        for li in scores:
            # everything masked at 0.90 stays masked at 0.95
            assert not m95[li][~m90[li]].any()

    def test_masked_entries_stay_masked(self):
        # entry 1 is masked; its score, the largest, does not bring it back
        net = linear_chain(1, 4)
        apply_masks(net, {0: np.array([[True, False, True, True]])})
        scores = {0: np.array([[0.5, 9.9, 0.9, 0.1]])}
        masks = select_mask(net, scores, PruneSpec(0.5))
        # floor(0.5 * 4) = 2 zeros: the masked entry plus the smallest live score
        assert np.array_equal(masks[0], [[True, False, True, False]])
        # the network's own mask is read, not changed
        assert np.array_equal(net.layers[0].Z, [[True, False, True, True]])

    def test_masked_weights_count_toward_the_zeros(self):
        rng = np.random.default_rng(9)
        net = linear_chain(12, 9, 11)
        before = {li: rng.uniform(size=net.layers[li].W.shape) >= 0.3
                  for li in (0, 1)}
        apply_masks(net, before)
        # masked weights get the largest scores; none of them comes back
        scores = {li: np.where(before[li], rng.uniform(size=m.shape), 2.0)
                  for li, m in before.items()}
        masks = select_mask(net, scores, PruneSpec(0.8))
        total = sum(m.size for m in masks.values())
        zeros = sum(int((~m).sum()) for m in masks.values())
        assert zeros == int(np.floor(0.8 * total))
        for li in before:
            assert not masks[li][~before[li]].any()

    def test_more_masked_than_the_target_all_stay_masked(self):
        net = linear_chain(1, 4)
        apply_masks(net, {0: np.array([[False, True, False, True]])})
        masks = select_mask(net, {0: np.array([[1.0, 2.0, 3.0, 4.0]])},
                            PruneSpec(0.25))
        assert np.array_equal(masks[0], [[False, True, False, True]])

    def test_ties_broken_by_position(self):
        net = linear_chain(1, 2, 1)
        scores = {0: np.full((1, 2), 0.5), 1: np.full((2, 1), 0.5)}
        masks = select_mask(net, scores, PruneSpec(0.5))
        assert np.array_equal(masks[0], [[False, False]])
        assert np.array_equal(masks[1], [[True], [True]])
        # with entry (0, 0) masked, the next two live positions are taken
        apply_masks(net, {0: np.array([[False, True]])})
        masks = select_mask(net, scores, PruneSpec(0.75))
        assert np.array_equal(masks[0], [[False, False]])
        assert np.array_equal(masks[1], [[False], [True]])

    def test_per_layer_scope(self):
        net = linear_chain(1, 4, 1)
        scores = {0: np.array([[4.0, 3.0, 2.0, 1.0]]),
                  1: np.array([[10.0], [20.0], [30.0], [5.0]])}
        masks = select_mask(net, scores, PruneSpec(0.5, scope="per_layer"))
        assert np.array_equal(masks[0], [[True, True, False, False]])
        assert np.array_equal(masks[1], [[False], [True], [True], [False]])
        # a masked weight counts toward its own layer's zeros
        apply_masks(net, {0: np.array([[False, True, True, True]])})
        masks = select_mask(net, scores, PruneSpec(0.5, scope="per_layer"))
        assert np.array_equal(masks[0], [[False, True, True, False]])
        assert np.array_equal(masks[1], [[False], [True], [True], [False]])

    def test_protected_layers_excluded(self):
        net = linear_chain(1, 2, 1)
        scores = {0: np.array([[0.01, 0.02]]), 1: np.array([[5.0], [6.0]])}
        masks = select_mask(net, scores, PruneSpec(0.5, protected=(0,)))
        assert 0 not in masks
        assert np.array_equal(masks[1], [[False], [True]])
        # with every scored layer protected there is nothing to select
        assert select_mask(net, scores, PruneSpec(0.5, protected=(0, 1))) == {}

    @pytest.mark.parametrize("protected", [(99,), (1,), (-1,), (0, 1)])
    def test_protected_must_name_a_prunable_layer(self, protected):
        # layers 0 and 2 are prunable; 1 is the ReLU between them
        net = build_network("mlp-2", (2,), 1, seed=0)
        scores = magnitude_scores(net)
        with pytest.raises(ValidationError, match="not prunable"):
            select_mask(net, scores, PruneSpec(0.5, protected=protected))
        with pytest.raises(ValidationError, match="not prunable"):
            check_protected(protected, [0, 2])
        check_protected((0, 2), [0, 2])

    @pytest.mark.parametrize("li", [1, 99, -1])
    def test_scores_must_name_a_prunable_layer(self, li):
        net = build_network("mlp-2", (2,), 1, seed=0)
        scores = {**magnitude_scores(net), li: np.ones((2, 2))}
        with pytest.raises(ValidationError, match="prunable layer"):
            select_mask(net, scores, PruneSpec(0.5))

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 1, 1), (4,)])
    def test_score_shape_must_match_the_mask(self, shape):
        net = build_network("mlp-2", (2,), 1, seed=0)  # layer 2 has a (2, 1) mask
        scores = {**magnitude_scores(net), 2: np.ones(shape)}
        with pytest.raises(ValidationError, match="shaped like the mask"):
            select_mask(net, scores, PruneSpec(0.5))

    def test_sparsity_one_rejected(self):
        net = linear_chain(1, 4)
        with pytest.raises(ValidationError):
            select_mask(net, {0: np.ones((1, 4))}, PruneSpec(1.0))

    def test_non_finite_scores_rejected(self):
        net = linear_chain(1, 2)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                select_mask(net, {0: np.array([[1.0, bad]])}, PruneSpec(0.5))

    def test_non_finite_score_of_a_masked_or_protected_weight_is_ignored(self):
        net = linear_chain(1, 2, 1)
        apply_masks(net, {0: np.array([[True, False]])})
        scores = {0: np.array([[1.0, np.nan]]), 1: np.array([[np.inf], [2.0]])}
        masks = select_mask(net, scores, PruneSpec(0.5, protected=(1,)))
        assert np.array_equal(masks[0], [[True, False]])


class TestPruneReport:
    def test_fresh_net_all_zero_ratios(self):
        net = build_network("mlp-5", (6,), 3, seed=0)
        rep = prune_report(net)
        assert rep["global_sparsity"] == 0.0
        assert all(row["ratio"] == 0.0 for row in rep["layers"])

    def test_hand_built_masks(self):
        net = build_network("mlp-2", (2,), 2, seed=0)  # layer sizes 4 and 4
        apply_masks(net, {0: np.array([[False, False], [False, True]]),
                          2: np.array([[False, True], [True, True]])})
        rep = prune_report(net)
        assert [row["ratio"] for row in rep["layers"]] == [0.75, 0.25]
        assert rep["global_sparsity"] == 0.5

    def test_selected_mask_ratio_within_floor(self):
        rng = np.random.default_rng(2)
        net = build_network("mlp-12", (8,), 4, seed=2)
        x = rng.uniform(0, 1, size=(16, 8))
        scores = saliency(net, [(x, rng.integers(0, 4, size=16))])
        apply_masks(net, select_mask(net, scores, PruneSpec(0.9)))
        total = sum(net.layers[li].Z.size for li in net.parameterized_indices())
        got = prune_report(net)["global_sparsity"]
        assert 0.9 - 1.0 / total <= got <= 0.9


class TestRandomBernoulliMasks:
    def test_zero_drop_rate_keeps_all(self):
        net = build_network("mlp-5", (5,), 2, seed=0)
        masks = random_bernoulli_masks(net, 0.0, seed=1)
        for m in masks.values():
            assert np.array_equal(m, np.ones_like(m))

    def test_extreme_drop_rate(self):
        net = build_network("mlp-50", (40,), 10, seed=0)  # 2500 weights
        masks = random_bernoulli_masks(net, 0.999, seed=2)
        ones = sum(int(m.sum()) for m in masks.values())
        total = sum(m.size for m in masks.values())
        # expectation 0.1%; allow a generous binomial band
        assert ones / total <= 0.01

    def test_half_drop_rate_concentration(self):
        net = build_network("mlp-100", (100,), 10, seed=0)  # > 10^4 weights
        masks = random_bernoulli_masks(net, 0.5, seed=3)
        ones = sum(int(m.sum()) for m in masks.values())
        total = sum(m.size for m in masks.values())
        assert abs(ones / total - 0.5) <= 0.02

    def test_seed_determinism(self):
        net = build_network("mlp-10", (10,), 3, seed=0)
        a = random_bernoulli_masks(net, (0.25, 0.75), seed=9)
        b = random_bernoulli_masks(net, (0.25, 0.75), seed=9)
        for li in a:
            assert np.array_equal(a[li], b[li])

    def test_bad_drop_rate_rejected(self):
        net = build_network("mlp-4", (4,), 2, seed=0)
        with pytest.raises(ValidationError):
            random_bernoulli_masks(net, 1.0, seed=0)


class TestApplyMasks:
    def test_masks_installed_and_version_bumped(self):
        net = build_network("mlp-5", (4,), 2, seed=1)
        v = net.version
        apply_masks(net, select_mask(net, magnitude_scores(net), PruneSpec(0.5)))
        assert net.version > v
        rep = prune_report(net)
        assert rep["global_sparsity"] > 0.4

    def test_shape_mismatch_rejected(self):
        net = build_network("mlp-5", (4,), 2, seed=1)
        with pytest.raises(ValidationError):
            apply_masks(net, {0: np.ones((2, 2))})
