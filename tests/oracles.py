"""Reference implementations that tests compare the package against, and
helpers that only tests use.

The one-sided Jacobi SVD and the power-iteration spectral norm were the
package's own spectrum kernels before it moved to LAPACK singular values
(``tscnc.tensor_ops.layer_spectrum``). They stay here, unchanged, as
independent oracles: Jacobi rotations are accurate to high relative
precision even on graded matrices (Demmel & Veselic, 1992).

The ``np.add.at`` col2im scatter was the conv layers' input-gradient kernel
before ``np.bincount`` replaced it; it stays here as the bitwise oracle for
the new one.  The Hypothesis property over random conv nets in
``test_network.py`` also reads it: the input gradient that ``backward``
computes from the C-contiguous columns must equal, bit for bit, this scatter
of the column gradients.

``conv_weight_grad_in_batch_order`` is the bitwise oracle of a conv layer's
dW since ``backward`` came to take it in its row chunks, one BLAS product per
example added in batch order, in place of a whole-batch ``einsum`` whose
summation order its operand strides set.  The same property checks it at
every chunk budget.

``im2col_indices``, one example's gather plan, was the package's until each
conv layer came to build its whole chunk index in one step
(``MaskedLayer.conv_plan``); it stays here, unchanged, as the reference
that the chunk index is checked against, row by row, and that the
single-image ``im2col`` gathers with.

``evaluate_every_row`` was ``evaluate``, then in ``tscnc.trainer`` and now
``tscnc.attacks.evaluate``, until that came to attack only the
clean-correct examples and to share the first gradient of the attacks that
start at the clean input; it attacks every example with ``pgd`` and stays
here, unchanged but for its batch size argument, as the reference that the
accuracies are checked against.

``start_out_of_place`` and ``ascend_out_of_place`` were ``pgd``'s first
iterate and its steps (``tscnc.attacks._start`` and ``_ascend``) until
those came to update one buffer in place, each step's gradient from an
input-only pass with no label check and no loss value; they make a new
array at every operation, take each gradient from ``loss_gradients``, and
stay here, unchanged, as the bitwise reference for the attack loop.

The rest has no caller in the package: a checked matrix product, the
single-image ``im2col``, a convolution by explicit loops that the gathered
products are checked against, the function-preserving layer
rescaling behind the scale-invariance tests, the random Bernoulli masks
of the Lipschitz monotonicity experiment, the under-reported spectrum that
the bound check must flag, and the Hypothesis strategy of byte edits
behind the property tests of the two binary loaders.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tscnc.attacks import AttackSpec, pgd
from tscnc.data import FEATURE_RANGE, Dataset
from tscnc.errors import DimensionError, NumericError, ValidationError
from tscnc.network import Network, forward, loss_gradients
from tscnc.tensor_ops import (
    _as_matrix,
    as_tensor,
    conv_output_size,
    frobenius_norm_sq,
    layer_spectrum,
)


class ConvergenceError(NumericError):
    """An oracle iteration stopped short of its tolerance; ``residual`` is
    the error it had left."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class SvdResult:
    """Singular values (descending) and, on request, the singular vectors.

    ``left_vectors`` has orthonormal columns (one per singular value) and
    ``right_vectors`` likewise; ``left_vectors @ diag(singular_values)
    @ right_vectors.T`` reconstructs the input matrix.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray | None = None
    right_vectors: np.ndarray | None = None


def spectral_norm(m, tol: float = 1e-10, max_iter: int = 20000) -> float:
    """Largest singular value, by power iteration on the Gram operator.

    Raises
    ------
    ConvergenceError
        If the iteration cap is reached before the estimate stabilises to
        ``tol`` (relative); the exception carries the last residual.
    """
    a = _as_matrix(m)
    if not np.any(a):
        return 0.0
    # Iterate on the smaller of the two Gram matrices.
    b = a if a.shape[0] >= a.shape[1] else a.T
    rng = np.random.default_rng(0x5EED)  # fixed start vector: deterministic
    v = rng.standard_normal(b.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        u = b @ v
        w = b.T @ u
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # Start vector landed exactly in the null space; re-seed.
            v = rng.standard_normal(b.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / nw
        new_sigma = np.linalg.norm(b @ v)
        if abs(new_sigma - sigma) <= tol * max(1.0, new_sigma):
            return float(new_sigma)
        sigma = new_sigma
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        residual=abs(new_sigma - sigma))


def _complete_basis(u: np.ndarray, fixed: int, rng: np.random.Generator) -> None:
    """Replace zero columns of ``u`` beyond index ``fixed`` with orthonormal
    fill-ins (modified Gram-Schmidt against all other columns)."""
    a = u.shape[0]
    for j in range(fixed, u.shape[1]):
        for _ in range(100):
            cand = rng.standard_normal(a)
            cand -= u[:, :j] @ (u[:, :j].T @ cand)
            n = np.linalg.norm(cand)
            if n > 1e-8:
                u[:, j] = cand / n
                break
        else:  # pragma: no cover - would need adversarial dimensions
            raise NumericError("failed to complete orthonormal basis")


def svd(m, compute_vectors: bool = False, tol: float = 1e-12,
        max_sweeps: int = 100) -> SvdResult:
    """Singular value decomposition by one-sided Jacobi rotations.

    Sweeps orthogonalise all column pairs of the working matrix until the
    largest relative off-diagonal mass ``|<u_p, u_q>| / (|u_p| |u_q|)``
    drops below ``tol``. Accurate and simple for the small matrices this
    package handles.

    Parameters
    ----------
    m : array, a x b
    compute_vectors : bool
        Also return orthonormal left/right singular vectors.

    Raises
    ------
    ConvergenceError
        If convergence is not reached within ``max_sweeps`` sweeps; the
        exception carries the remaining off-diagonal mass.
    """
    a0 = _as_matrix(m)
    transposed = a0.shape[0] < a0.shape[1]
    work = (a0.T if transposed else a0).copy()
    rows, cols = work.shape

    want_v = compute_vectors
    v = np.eye(cols) if want_v else None
    # Columns this far below the (rotation-invariant) Frobenius norm carry
    # singular values beneath the numerical-rank cutoff; excluding them from
    # the convergence sweep avoids stagnating on denormal cancellation noise.
    floor_sq = frobenius_norm_sq(work) * 1e-36
    off = 0.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                app = work[:, p] @ work[:, p]
                aqq = work[:, q] @ work[:, q]
                apq = work[:, p] @ work[:, q]
                if app <= floor_sq or aqq <= floor_sq:
                    continue
                # divide before combining the roots: app * aqq overflows
                # for column norms past ~1e154 while the ratio itself is
                # always at most 1 by Cauchy-Schwarz
                ratio = (abs(apq) / np.sqrt(app)) / np.sqrt(aqq)
                off = max(off, ratio)
                if ratio <= tol:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                if abs(zeta) > 1e150:
                    t = 1.0 / (2.0 * zeta)
                else:
                    t = (1.0 if zeta >= 0.0 else -1.0) / (
                        abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up = work[:, p].copy()
                work[:, p] = c * up - s * work[:, q]
                work[:, q] = s * up + c * work[:, q]
                if want_v:
                    vp = v[:, p].copy()
                    v[:, p] = c * vp - s * v[:, q]
                    v[:, q] = s * vp + c * v[:, q]
        if off <= tol:
            break
    else:
        raise ConvergenceError(
            f"Jacobi SVD did not converge in {max_sweeps} sweeps",
            residual=off)

    sigmas = np.linalg.norm(work, axis=0)
    order = np.argsort(-sigmas, kind="stable")
    s = sigmas[order]
    if not want_v:
        return SvdResult(singular_values=s)

    u = np.zeros((rows, cols))
    nonzero = 0
    for out_j, j in enumerate(order):
        if sigmas[j] > 0.0:
            u[:, out_j] = work[:, j] / sigmas[j]
            nonzero = out_j + 1
    if nonzero < cols:
        _complete_basis(u, nonzero, np.random.default_rng(0xBA5E))
    v = v[:, order]
    if transposed:
        u, v = v, u
    return SvdResult(singular_values=s, left_vectors=u, right_vectors=v)


def matmul(a, b) -> np.ndarray:
    """Matrix product of ``a`` (m x k) and ``b`` (k x n).

    Raises
    ------
    DimensionError
        If the inner dimensions disagree; the message names both shapes.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply shapes {a.shape} x {b.shape}")
    return a @ b


def im2col_indices(c_in: int, h: int, w: int, kernel_size: int, stride: int = 1,
                   pad: int = 0) -> np.ndarray:
    """Gather indices that lower a convolution to one matrix product.

    Returns ``idx`` of shape ``(c_in * k * k, out_h * out_w)``, with the
    output size of ``conv_output_size``.  It indexes into the *flattened
    unpadded* input of shape ``(c_in, h, w)`` followed by one zero sentinel
    column: every tap that falls in the zero padding holds index
    ``c_in * h * w``. Column j of the gathered matrix is the receptive field
    of output position j (row-major over output positions; rows ordered
    channel-major, then kernel row, then kernel column).
    """
    out_h, out_w = conv_output_size(h, w, kernel_size, stride, pad)
    k = kernel_size
    # each input position's flat index; the padding ring holds the sentinel
    grid = np.full((c_in, h + 2 * pad, w + 2 * pad), c_in * h * w)
    grid[:, pad : pad + h, pad : pad + w] = np.arange(c_in * h * w).reshape(c_in, h, w)
    win = sliding_window_view(grid, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    # (c, out_h, out_w, k, k) -> (c, k, k, out_h, out_w)
    return np.ascontiguousarray(
        win.transpose(0, 3, 4, 1, 2).reshape(c_in * k * k, out_h * out_w))


def im2col(x, kernel_size: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Lower a single image ``x`` (c_in x h x w) to patch columns.

    The result has shape ``(c_in * k * k, out_h * out_w)``; multiplying a
    ``(c_out, c_in * k * k)`` weight matrix against it performs the
    convolution, so ``conv2d(x) == matmul(W, im2col(x)).reshape(...)``.
    """
    a = as_tensor(x)
    if a.ndim != 3:
        raise DimensionError(f"expected c x h x w input, got shape {a.shape}")
    c, h, w = a.shape
    idx = im2col_indices(c, h, w, kernel_size, stride, pad)
    return np.append(a.ravel(), 0.0)[idx]


def conv2d_sliding_window(x, w, b, k, stride, pad):
    """Direct convolution of the batch x (batch, c_in, h, w) by explicit
    loops, plus the bias b; w has shape (c_out, c_in*k*k)."""
    batch, c_in, h, wd = x.shape
    c_out = w.shape[0]
    xp = np.zeros((batch, c_in, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    wk = w.reshape(c_out, c_in, k, k)
    out = np.zeros((batch, c_out, oh, ow))
    for n in range(batch):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c_in):
                        for di in range(k):
                            for dj in range(k):
                                acc += (
                                    wk[co, ci, di, dj]
                                    * xp[n, ci, i * stride + di, j * stride + dj]
                                )
                    out[n, co, i, j] = acc + b[co]
    return out


def col2im_add_at(dcols: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    """Scatter-add column gradients back onto the input batch.

    ``dcols`` has shape ``(batch, c_in*k*k, out_h*out_w)`` and ``idx`` is the
    gather plan of ``im2col_indices``.  The scatter fills ``c_in*h*w + 1``
    entries per example and drops the last, the padding sentinel; the result
    has ``in_shape``, ``(batch, c_in, h, w)``.
    """
    batch, size = in_shape[0], int(np.prod(in_shape[1:]))
    dflat = np.zeros((batch, size + 1))
    np.add.at(dflat, (np.arange(batch)[:, None, None], idx[None]), dcols)
    return dflat[:, :size].reshape(in_shape)


def conv_weight_grad_in_batch_order(dz: np.ndarray, flat: np.ndarray,
                                    idx: np.ndarray) -> np.ndarray:
    """A conv layer's dW as each example's ``dz[b] @ cols_b.T``, summed in
    batch order from zero.

    ``dz`` has shape ``(batch, c_out, out_h*out_w)``, ``flat`` is the batch's
    examples flattened, each with the zero sentinel column appended, and
    ``idx`` is the gather plan of ``im2col_indices``.
    """
    return sum(dz[b] @ flat[b, idx].T for b in range(len(dz)))


def apply_scaling(net: Network, layer: int, mu: float) -> Network:
    """Scale layer `layer` by mu and the next parameterized layer by 1/mu.

    With only ReLU (and reshape) in between the network function is
    unchanged for mu > 0.  Returns a new network; the argument is untouched.
    """
    if mu <= 0.0:
        raise ValidationError(f"scaling factor must be positive, got {mu}")
    if layer < 0 or layer >= len(net.layers) or not net.layers[layer].parameterized:
        raise ValidationError(f"layer {layer} is not a parameterized layer")
    nxt = None
    for j in range(layer + 1, len(net.layers)):
        if net.layers[j].parameterized:
            nxt = j
            break
        if net.layers[j].kind not in ("relu", "flatten"):
            raise ValidationError(
                f"layer {j} ({net.layers[j].kind}) between scaled layers is not "
                "positively homogeneous"
            )
    if nxt is None:
        raise ValidationError(f"no parameterized layer follows layer {layer}")
    out = copy.deepcopy(net)
    out.layers[layer].W = out.layers[layer].W * mu
    out.layers[layer].b = out.layers[layer].b * mu
    out.layers[nxt].W = out.layers[nxt].W / mu
    out.bump()
    return out


def random_bernoulli_masks(net: Network, alphas, seed: int) -> dict:
    """Independent keep-with-probability-(1-alpha) masks per prunable layer.

    alphas is a scalar or one drop probability per prunable layer.  Used by
    the Lipschitz monotonicity experiment, not by the training path.
    """
    prunable = net.prunable_indices()
    if np.isscalar(alphas):
        alphas = [float(alphas)] * len(prunable)
    if len(alphas) != len(prunable):
        raise ValidationError(
            f"got {len(alphas)} drop rates for {len(prunable)} prunable layers"
        )
    for a in alphas:
        if not 0.0 <= a < 1.0:
            raise ValidationError(f"drop probability must lie in [0, 1), got {a}")
    rng = np.random.default_rng(seed)
    masks = {}
    for li, a in zip(prunable, alphas):
        shape = net.layers[li].Z.shape
        masks[li] = rng.uniform(size=shape) >= a
    return masks


def under_reported_spectrum(m):
    """layer_spectrum(m) with sigma_max a tenth of the truth: a planted
    fault that the bound check, which reads it, must flag."""
    spec = layer_spectrum(m)
    return replace(spec, sigma_max=0.1 * spec.sigma_max)


def start_out_of_place(x0, spec: AttackSpec, rng) -> np.ndarray:
    """pgd's first iterate: clip(x0), or a uniform draw from the epsilon-ball
    around it when spec has a random start and a positive epsilon."""
    adv = np.clip(x0, *FEATURE_RANGE)
    if spec.random_start and spec.epsilon > 0.0:
        eps = spec.epsilon
        if rng is None:
            rng = np.random.default_rng(0)
        adv = adv + rng.uniform(-eps, eps, size=adv.shape)
        adv = np.clip(adv, *FEATURE_RANGE)
        adv = x0 + np.clip(adv - x0, -eps, eps)
    return adv


def ascend_out_of_place(net: Network, x0, y, spec: AttackSpec, adv,
                        grad=None) -> np.ndarray:
    """pgd's spec.steps iterations from adv around x0.  grad, when given, is
    the input gradient at adv; the first step takes it in place of a pass."""
    eps = spec.epsilon
    for step in range(spec.steps):
        if step or grad is None:
            grad = loss_gradients(net, adv, y)[1].input
        adv = adv + spec.step_size * np.sign(grad)
        adv = np.clip(adv, *FEATURE_RANGE)
        adv = x0 + np.clip(adv - x0, -eps, eps)
    return adv


def pgd_out_of_place(net: Network, x, y, spec: AttackSpec, rng=None) -> np.ndarray:
    """pgd from start_out_of_place and ascend_out_of_place."""
    spec.validate()
    x0 = as_tensor(x)
    return ascend_out_of_place(net, x0, y, spec, start_out_of_place(x0, spec, rng))


def evaluate_every_row(net: Network, data: Dataset, eval_attacks: dict, rng=None,
                       batch_size: int = 256) -> dict:
    """Clean and per-attack accuracy, attacking every example of each batch
    of batch_size, the clean-misclassified ones too."""
    n = len(data)
    if n == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    lo, hi = int(data.labels.min()), int(data.labels.max())
    if lo < 0 or hi >= net.class_count:
        raise DimensionError(f"label {lo if lo < 0 else hi} does not fit a "
                             f"network with {net.class_count} classes")
    correct = 0
    adv_correct = {name: 0 for name in eval_attacks}
    if rng is None:
        rng = np.random.default_rng(0)
    for start in range(0, n, batch_size):
        xb = data.images[start : start + batch_size]
        yb = data.labels[start : start + batch_size]
        logits, _ = forward(net, xb)
        clean_ok = np.argmax(logits, axis=1) == yb
        correct += int(clean_ok.sum())
        for name, spec in eval_attacks.items():
            adv = pgd(net, xb, yb, spec, rng=rng)
            alog, _ = forward(net, adv)
            adv_correct[name] += int((clean_ok & (np.argmax(alog, axis=1) == yb)).sum())
    return {
        "clean_acc": correct / n,
        "robust_acc": {name: c / n for name, c in adv_correct.items()},
    }


@st.composite
def edited_bytes(draw, raw: bytes) -> bytes:
    """raw with 1-3 bytes changed, truncated, or with bytes appended; never
    raw itself."""
    kind = draw(st.sampled_from(["change", "truncate", "append"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=16))
    out = bytearray(raw)
    for i in draw(st.sets(st.integers(0, len(raw) - 1), min_size=1, max_size=3)):
        out[i] ^= draw(st.integers(1, 255))
    return bytes(out)
