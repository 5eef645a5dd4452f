"""Dense float64 linear-algebra kernels.

The one conv output-size formula (``conv_output_size``; a conv layer's
gather plan is its own, ``MaskedLayer.conv_plan`` in ``network.py``),
Frobenius norms, and layer spectra: LAPACK singular values
(``numpy.linalg.svd``) with the one rule for condition number and numerical
rank that every diagnostic uses. Everything works on plain ``numpy.ndarray``
values in 64-bit floats; all functions are pure and deterministic for fixed
inputs.
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


def conv_output_size(h: int, w: int, kernel_size: int, stride: int = 1,
                     pad: int = 0) -> tuple[int, int]:
    """``(out_h, out_w)`` of a ``kernel_size`` convolution of an ``h x w``
    input at ``stride`` with ``pad`` zeros on each side.

    Allocates nothing, so it may be asked about any size.
    """
    if kernel_size < 1:
        raise ValidationError(f"kernel_size must be >= 1, got {kernel_size}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValidationError(f"pad must be >= 0, got {pad}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < kernel_size or wp < kernel_size:
        raise DimensionError(
            f"kernel {kernel_size} does not fit padded input {hp}x{wp}")
    return (hp - kernel_size) // stride + 1, (wp - kernel_size) // stride + 1


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
        If the SVD did not converge, or sigma_max overflows (no rank then).
    """
    a = _as_matrix(m)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD of a {a.shape} matrix failed: {exc}") from exc
    smax = float(s[0])
    if not np.isfinite(smax):
        raise NumericError(f"sigma_max of a {a.shape} matrix overflows")
    smin = float(s[-1])
    tol = rank_tolerance(a.shape, smax)
    kappa = INFINITE if smax == 0.0 or smin <= tol else smax / smin
    return LayerSpectrum(singular_values=s, sigma_max=smax, sigma_min=smin,
                         kappa=kappa, rank=int((s > tol).sum()))
