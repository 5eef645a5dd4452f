"""Dense float64 linear-algebra kernels.

Matrix products, convolution lowering (im2col), Frobenius norms, and
layer spectra: LAPACK singular values (``numpy.linalg.svd``) with the one
rule for condition number and numerical rank that every diagnostic uses.
Everything works on plain ``numpy.ndarray`` values in 64-bit floats; all
functions are pure and deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ValidationError

# Condition number of a rank-deficient matrix.
INFINITE = float("inf")

_EPS = 2.0 ** -52


def as_tensor(x) -> np.ndarray:
    """Coerce ``x`` to a float64 array."""
    return np.asarray(x, dtype=np.float64)


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = as_tensor(m)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


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
                   pad: int = 0) -> tuple[np.ndarray, tuple[int, int]]:
    """Gather indices that lower a convolution to one matrix product.

    Returns ``(idx, (out_h, out_w))`` where ``idx`` has shape
    ``(c_in * k * k, out_h * out_w)`` and indexes into the *flattened
    zero-padded* input of shape ``(c_in, h + 2*pad, w + 2*pad)``. Column j
    of the gathered matrix is the receptive field of output position j
    (row-major over output positions; rows ordered channel-major, then
    kernel row, then kernel column).
    """
    if kernel_size < 1:
        raise ValidationError(f"kernel_size must be >= 1, got {kernel_size}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kernel_size) // stride + 1
    out_w = (wp - kernel_size) // stride + 1
    if hp < kernel_size or wp < kernel_size or out_h < 1 or out_w < 1:
        raise DimensionError(
            f"kernel {kernel_size} does not fit padded input {c_in}x{hp}x{wp}")

    k = kernel_size
    # Index of (channel, row, col) in the flattened padded input.
    chan = np.repeat(np.arange(c_in), k * k)                       # (c*k*k,)
    krow = np.tile(np.repeat(np.arange(k), k), c_in)
    kcol = np.tile(np.arange(k), c_in * k)
    orow = stride * np.repeat(np.arange(out_h), out_w)             # (s_z,)
    ocol = stride * np.tile(np.arange(out_w), out_h)
    rows = krow[:, None] + orow[None, :]
    cols = kcol[:, None] + ocol[None, :]
    idx = chan[:, None] * (hp * wp) + rows * wp + cols
    return idx, (out_h, out_w)


def pad_image(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of ``x``."""
    if pad == 0:
        return x
    widths = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(x, widths)


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
    idx, _ = im2col_indices(c, h, w, kernel_size, stride, pad)
    return pad_image(a, pad).ravel()[idx]


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries."""
    a = as_tensor(m)
    return float(np.sum(a * a))


def rank_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Numerical-rank cutoff: ``max(a, b) * sigma_max * 2**-52``."""
    return max(shape) * sigma_max * _EPS


@dataclass
class LayerSpectrum:
    """Singular values (descending) of one matrix, with the quantities the
    diagnostics read off them."""

    singular_values: np.ndarray
    sigma_max: float
    sigma_min: float
    kappa: float
    rank: int


def layer_spectrum(m) -> LayerSpectrum:
    """LAPACK singular values of ``m``, its condition number and rank.

    ``rank`` counts the singular values above ``rank_tolerance``. ``kappa``
    is ``sigma_max / sigma_min``, or ``INFINITE`` when the matrix is
    numerically rank-deficient (smallest singular value at or below the
    tolerance), which covers matrices with an all-zero row or column.

    Raises
    ------
    DimensionError
        If ``m`` is not 2-D.
    ValidationError
        If ``m`` has a non-finite entry.
    NumericError
        If LAPACK reports that the SVD did not converge.
    """
    a = _as_matrix(m)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of a {a.shape} matrix failed: {exc}") from exc
    smax = float(s[0])
    smin = float(s[-1])
    tol = rank_tolerance(a.shape, smax)
    kappa = INFINITE if smax == 0.0 or smin <= tol else smax / smin
    return LayerSpectrum(singular_values=s, sigma_max=smax, sigma_min=smin,
                         kappa=kappa, rank=int((s > tol).sum()))


def condition_number(m) -> float:
    """Ratio of largest to smallest singular value; see ``layer_spectrum``."""
    return layer_spectrum(m).kappa
