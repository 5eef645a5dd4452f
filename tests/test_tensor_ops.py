"""Tests for the dense linear-algebra kernels.

Every derived expectation is computed by an independent oracle in this file
(triple-loop products, power iteration) or in ``oracles.py`` (the one-sided
Jacobi SVD, sliding-window convolution) rather than by the code path under
test. The ``matmul``, ``im2col`` and ``im2col_indices`` exercised here also
live in ``oracles.py``: ``im2col_indices`` is the one-example gather plan
that ``test_network.py`` checks each conv layer's chunk index against.
"""

import numpy as np
import pytest

from oracles import (
    ConvergenceError,
    conv2d_sliding_window,
    im2col,
    im2col_indices,
    matmul,
    spectral_norm,
    svd,
)
from tscnc.attacks import AttackSpec
from tscnc.errors import DimensionError, NumericError, ValidationError
from tscnc.pruning import PruneSpec
from tscnc.tensor_ops import (
    INFINITE,
    conv_output_size,
    frobenius_norm_sq,
    layer_spectrum,
)
from tscnc.trainer import TrainConfig, run_tscnc


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def matmul_triple_loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def power_iteration_sigma_max(a, iters=10000):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(a.shape[1])
    for _ in range(iters):
        u = a @ v
        v = a.T @ u
        v /= np.linalg.norm(v)
    return np.linalg.norm(a @ v)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_product(self):
        out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        np.testing.assert_allclose(matmul(a, b), matmul_triple_loop(a, b),
                                   rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 3))
            c = rng.standard_normal((3, 5))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-10)


# ---------------------------------------------------------------------------
# im2col
# ---------------------------------------------------------------------------

class TestIm2col:
    def test_single_patch(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        cols = im2col(x, kernel_size=2, stride=1, pad=0)
        np.testing.assert_array_equal(cols, [[1.0], [2.0], [3.0], [4.0]])

    def test_pointwise_kernel_flattens(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 3))
        cols = im2col(x, kernel_size=1)
        np.testing.assert_array_equal(cols, x.ravel()[None, :])

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matmul_path_matches_direct_convolution(self, stride, pad):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((4, 2 * 3 * 3))
        cols = im2col(x, kernel_size=3, stride=stride, pad=pad)
        direct = conv2d_sliding_window(x[None], w, np.zeros(4), 3, stride, pad)[0]
        via_matmul = matmul(w, cols).reshape(direct.shape)
        np.testing.assert_allclose(via_matmul, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_padding_taps_and_only_they_hit_the_sentinel(self, stride, pad):
        c_in, h, w, k = 2, 5, 4, 3
        idx = im2col_indices(c_in, h, w, k, stride, pad)
        out_h = (h + 2 * pad - k) // stride + 1
        out_w = (w + 2 * pad - k) // stride + 1
        assert idx.shape == (c_in * k * k, out_h * out_w)
        sentinel = c_in * h * w
        for row in range(c_in * k * k):
            c, ki, kj = row // (k * k), row // k % k, row % k
            for col in range(out_h * out_w):
                i = col // out_w * stride + ki - pad
                j = col % out_w * stride + kj - pad
                inside = 0 <= i < h and 0 <= j < w
                want = c * h * w + i * w + j if inside else sentinel
                assert idx[row, col] == want
        hits = int((idx == sentinel).sum())
        assert hits == 0 if pad == 0 else hits > 0

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            im2col(np.zeros((1, 2, 2)), kernel_size=4, stride=1, pad=0)

    def test_bad_kernel_size(self):
        with pytest.raises(ValidationError):
            im2col(np.zeros((1, 2, 2)), kernel_size=0)

    @pytest.mark.parametrize("stride, pad, message", [
        (0, 0, "stride must be >= 1"), (1, -1, "pad must be >= 0"),
    ])
    def test_bad_stride_or_pad(self, stride, pad, message):
        with pytest.raises(ValidationError, match=message):
            conv_output_size(4, 4, 3, stride, pad)
        with pytest.raises(ValidationError, match=message):
            im2col_indices(1, 4, 4, 3, stride, pad)

    def test_plan_is_a_c_ordered_integer_array(self):
        idx = im2col_indices(2, 5, 4, 3, stride=2, pad=1)
        assert idx.dtype == np.intp and idx.flags.c_contiguous


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.singular_values, [3.0, 1.0], atol=1e-12)

    def test_orthogonal_matrix_has_unit_singular_values(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        res = svd(q)
        np.testing.assert_allclose(res.singular_values, np.ones(6), atol=1e-10)

    def test_sigma_max_matches_power_iteration(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8))
        expected = power_iteration_sigma_max(m)
        got = svd(m).singular_values[0]
        assert abs(got - expected) <= 1e-8 * expected

    @pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7), (1, 4), (6, 1)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(6)
        m = rng.standard_normal(shape)
        res = svd(m, compute_vectors=True)
        rec = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.T
        err = np.linalg.norm(rec - m)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_vectors_orthonormal_even_for_rank_deficient_input(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((4, 2))
        m = u @ v.T  # rank 2
        res = svd(m, compute_vectors=True)
        np.testing.assert_allclose(res.left_vectors.T @ res.left_vectors,
                                   np.eye(4), atol=1e-9)
        np.testing.assert_allclose(res.right_vectors.T @ res.right_vectors,
                                   np.eye(4), atol=1e-9)
        rec = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.T
        assert np.linalg.norm(rec - m) <= 1e-9 * max(1.0, np.linalg.norm(m))

    def test_values_sorted_descending_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = svd(rng.standard_normal((5, 9))).singular_values
            assert np.all(s >= 0.0)
            assert np.all(np.diff(s) <= 0.0)

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((10, 6))
        np.testing.assert_allclose(svd(m).singular_values,
                                   np.linalg.svd(m, compute_uv=False),
                                   rtol=1e-10)

    def test_nonconvergence_raises_with_residual(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((6, 6))
        with pytest.raises(ConvergenceError) as exc:
            svd(m, max_sweeps=1, tol=1e-15)
        assert exc.value.residual is not None

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# layer spectrum (LAPACK) against the Jacobi oracle
# ---------------------------------------------------------------------------

def jacobi_kappa_rank(m):
    """Condition number and numerical rank from the Jacobi oracle's values."""
    s = svd(m).singular_values
    tol = max(m.shape) * s[0] * 2.0 ** -52
    kappa = INFINITE if s[0] == 0.0 or s[-1] <= tol else s[0] / s[-1]
    return s[0], kappa, int((s > tol).sum())


def assert_spectrum_matches_jacobi(m):
    got = layer_spectrum(m)
    smax, kappa, rank = jacobi_kappa_rank(m)
    assert got.rank == rank
    assert abs(got.sigma_max - smax) <= 1e-12 * smax
    assert (got.kappa == INFINITE) == (kappa == INFINITE)
    if kappa != INFINITE:
        assert abs(got.kappa - kappa) <= 1e-12 * kappa
    return got


def short_run_layers(**over):
    base = dict(batch_size=32, lr=0.1, warmup_epochs=1, epochs=2, lam=0.001,
                train_attack=AttackSpec(epsilon=0.1, step_size=0.025, steps=2,
                                        random_start=True),
                eval_attacks={}, seed=0)
    base.update(over)
    net, _ = run_tscnc(TrainConfig(**base))
    return [net.layers[li].W for li in net.parameterized_indices()]


class TestLayerSpectrum:
    def test_random_matrices(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            m = rng.standard_normal(tuple(rng.integers(1, 13, size=2)))
            assert assert_spectrum_matches_jacobi(m).rank == min(m.shape)
        for shape in ((64, 32), (32, 16), (16, 6)):
            assert_spectrum_matches_jacobi(rng.standard_normal(shape))

    def test_masked_matrices_with_dead_rows_and_columns(self):
        rng = np.random.default_rng(20)
        infinite = 0
        for keep in (0.5, 0.2, 0.05):
            for shape in ((12, 8), (8, 12), (64, 32)):
                m = rng.standard_normal(shape) * (rng.random(shape) < keep)
                m[int(rng.integers(shape[0])), :] = 0.0
                m[:, int(rng.integers(shape[1]))] = 0.0
                got = assert_spectrum_matches_jacobi(m)
                infinite += got.kappa == INFINITE
        assert infinite > 0
        assert layer_spectrum(np.zeros((4, 3))).rank == 0

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionError, match="must be 2-D"):
            layer_spectrum(np.ones(3))

    def test_final_layers_of_short_quickstart_run(self):
        layers = short_run_layers(dataset="blobs-c6-d64-n60-s0.35",
                                  architecture="mlp-32x16",
                                  prune=PruneSpec(sparsity=0.95))
        assert [w.shape for w in layers] == [(64, 32), (32, 16), (16, 6)]
        for w in layers:
            assert_spectrum_matches_jacobi(w)

    def test_final_layers_of_short_cnn_run(self):
        layers = short_run_layers(dataset="blobs-c6-d64-n60-s0.6-i1x8x8",
                                  architecture="cnn-4-32",
                                  prune=PruneSpec(sparsity=0.9, protected=(0, 3)))
        assert (256, 32) in [w.shape for w in layers]
        for w in layers:
            assert_spectrum_matches_jacobi(w)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                layer_spectrum(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericError):
            layer_spectrum(np.eye(3))

    def test_overflowing_sigma_max_is_numeric_error(self):
        # every entry is finite but sigma_max, sqrt(12) * 1e308, is not; a
        # rank tolerance scaled by it would report rank 0
        with pytest.raises(NumericError, match="overflows"):
            layer_spectrum(np.full((3, 4), 1e308))


# ---------------------------------------------------------------------------
# condition number
# ---------------------------------------------------------------------------

class TestConditionNumber:
    def test_identity(self):
        assert layer_spectrum(np.eye(4)).kappa == 1.0

    def test_diagonal(self):
        assert abs(layer_spectrum(np.diag([4.0, 2.0])).kappa - 2.0) < 1e-12

    def test_zero_row_is_infinite(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5))
        m[2, :] = 0.0
        assert layer_spectrum(m).kappa == INFINITE

    def test_zero_matrix_is_infinite(self):
        assert layer_spectrum(np.zeros((3, 3))).kappa == INFINITE

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for scale in (1e-3, 0.5, 2.0, 1e4, -7.0):
            m = rng.standard_normal((5, 4))
            k0 = layer_spectrum(m).kappa
            k1 = layer_spectrum(scale * m).kappa
            assert abs(k1 - k0) <= 1e-8 * k0

    def test_equals_norm_times_inverse_norm(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 100:
            m = rng.standard_normal((6, 6))
            kappa = layer_spectrum(m).kappa
            if kappa > 1e6:  # keep the 1e-8 relative comparison meaningful
                continue
            product = spectral_norm(m) * spectral_norm(np.linalg.inv(m))
            assert abs(kappa - product) <= 1e-8 * kappa
            checked += 1


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

class TestNorms:
    def test_frobenius_zero(self):
        assert frobenius_norm_sq(np.zeros((3, 2))) == 0.0

    def test_frobenius_hand_value(self):
        assert frobenius_norm_sq([[3.0, 4.0]]) == 25.0

    def test_frobenius_against_elementwise_sum(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((4, 4))
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += m[i, j] ** 2
        assert abs(frobenius_norm_sq(m) - acc) <= 1e-12 * max(1.0, acc)

    def test_spectral_diag(self):
        assert abs(spectral_norm(np.diag([5.0, 1.0, 0.0])) - 5.0) < 1e-9

    def test_spectral_rank_one(self):
        rng = np.random.default_rng(15)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(spectral_norm(np.outer(u, v)) - expected) <= 1e-9 * expected

    def test_spectral_matches_svd(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((6, 9))
        smax = svd(m).singular_values[0]
        assert abs(spectral_norm(m) - smax) <= 1e-8 * smax

    def test_spectral_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_frobenius_bounds_spectral(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
            assert frobenius_norm_sq(m) >= spectral_norm(m) ** 2 - 1e-12


# ---------------------------------------------------------------------------
# perturbation sandwich: (1/k)(|dx|/|x|) <= |dy|/|y| <= k(|dx|/|x|)
# ---------------------------------------------------------------------------

def test_perturbation_sandwich_holds_on_random_draws():
    rng = np.random.default_rng(18)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(2, 9))
        w = rng.standard_normal((n, n))
        kappa = layer_spectrum(w).kappa
        if kappa == INFINITE:
            continue
        x = rng.standard_normal(n)
        dx = rng.standard_normal(n)
        if np.linalg.norm(x) == 0.0 or np.linalg.norm(dx) == 0.0:
            continue
        y = w @ x
        dy = w @ dx
        rel_in = np.linalg.norm(dx) / np.linalg.norm(x)
        rel_out = np.linalg.norm(dy) / np.linalg.norm(y)
        assert rel_out <= kappa * rel_in * (1 + 1e-10)
        assert rel_out >= rel_in / kappa * (1 - 1e-10)
        trials += 1
