"""Complex dense linear algebra underlying the estimators.

Everything here is a thin, contract-carrying wrapper over numpy primitives:
the Cholesky factor of a Hermitian positive-definite matrix, with a ridge
rescue for rank-deficient sample matrices, which every conditional PSD
reads off, and the spectral norm. Stationary covariances need no
solver here: `models` sums them in closed form over the powers of a
nilpotent B.
All complex arithmetic is double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Tolerance scale for declaring a matrix Hermitian: max |A - A^H| relative
# to max |entry|, so the check does not depend on the unit of the data.
HERMITIAN_TOL = 1e-10

# Pivot threshold (relative to trace/dim) below which a Hermitian factor is
# treated as numerically singular, and the ridge added in that case.
SINGULAR_PIVOT_REL = 1e-12
RIDGE_REL = 1e-10


def hermitian_residual(a) -> float:
    """max_{ij} |A[i,j] - conj(A[j,i])|, the Hermitian-symmetry defect."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """Validate the Hermitian invariant; returns the array on success."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"{what} must be square, got shape {a.shape}")
    amax = np.max(np.abs(a)) if a.size else 0.0
    # a NaN or inf entry fails without forming a - a^H, where inf - inf warns
    resid = hermitian_residual(a) if amax < np.inf else np.nan
    tol = HERMITIAN_TOL * amax
    if not resid <= tol:
        raise NumericalError(
            f"{what} is not a finite Hermitian matrix: "
            f"defect {resid:.3e}, tolerance {tol:.3e}"
        )
    return a


def hermitian_factor(a):
    """Lower Cholesky factor L of Hermitian positive-definite A; ``(L, ridged)``.

    If the smallest pivot falls below ``1e-12 * trace(A)/dim`` the matrix
    is treated as numerically singular and factored once more with ridge
    jitter ``lambda = 1e-10 * trace(A)/dim`` added to the diagonal; the
    returned flag records that the rescue engaged. Every Schur complement
    in the package reads off this factor: with ``w = L^{-1} b``,
    ``b^H A^{-1} b = ||w||^2``.

    Raises
    ------
    NumericalError
        If A fails the Hermitian invariant (a NaN or inf entry fails it), or
        remains singular even with the ridge applied.
    """
    a = require_hermitian(a, "factor input")
    dim = a.shape[0]
    # Symmetrize so the Cholesky sees an exactly Hermitian matrix.
    a = 0.5 * (a + a.conj().T)
    scale = max(np.real(np.trace(a)) / dim, 0.0) if dim else 0.0
    ridge = RIDGE_REL * scale or RIDGE_REL
    for ridged in (False, True):
        try:
            chol = np.linalg.cholesky(a + ridge * np.eye(dim) if ridged else a)
        except np.linalg.LinAlgError:
            continue
        if np.min(np.real(np.diagonal(chol))) ** 2 >= SINGULAR_PIVOT_REL * scale:
            return chol, ridged
    raise NumericalError(
        f"Hermitian factor failed: matrix singular beyond ridge rescue "
        f"(dim={dim}, trace/dim={scale:.3e})"
    )


def spectral_norm(a):
    """Largest singular value of ``a``, or of each matrix in a (..., m, n) stack.

    Computed from the eigendecomposition of A^H A for determinism (the
    matrices here never exceed a few dozen rows). A stack takes one
    batched Gram and eigvalsh, with the same bits as one matrix at a time.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        raise NumericalError("spectral_norm of empty matrix")
    top = np.linalg.eigvalsh(np.swapaxes(a.conj(), -1, -2) @ a)[..., -1]
    norms = np.sqrt(np.maximum(top, 0.0))
    return float(norms) if norms.ndim == 0 else norms

