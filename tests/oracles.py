"""Reference implementations that tests compare the package against.

The one-sided Jacobi SVD and the power-iteration spectral norm were the
package's own spectrum kernels before it moved to LAPACK singular values
(``tscnc.tensor_ops.layer_spectrum``). They stay here, unchanged, as
independent oracles: Jacobi rotations are accurate to high relative
precision even on graded matrices (Demmel & Veselic, 1992).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tscnc.errors import NumericError
from tscnc.tensor_ops import _as_matrix, frobenius_norm_sq


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
    NumericError
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
    raise NumericError(
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
    NumericError
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
        raise NumericError(
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
