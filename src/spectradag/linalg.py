"""Complex dense linear algebra underlying the estimators.

Everything here is a thin, contract-carrying wrapper over numpy primitives:
Hermitian positive-definite solves with a ridge rescue for rank-deficient
sample matrices, the spectral norm, and the discrete Lyapunov fixed point
used for stationary covariances.
All complex arithmetic is double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

# Tolerance scale for declaring a matrix Hermitian: max |A - A^H| relative
# to 1 + max |entry|.
HERMITIAN_TOL = 1e-10

# Pivot threshold (relative to trace/dim) below which a Hermitian solve is
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
    tol = HERMITIAN_TOL * (1.0 + (np.max(np.abs(a)) if a.size else 0.0))
    resid = hermitian_residual(a)
    # a NaN entry makes tol NaN and an inf entry makes it inf; both fail here
    if not resid <= tol < np.inf:
        raise NumericalError(
            f"{what} is not a finite Hermitian matrix: "
            f"defect {resid:.3e}, tolerance {tol:.3e}"
        )
    return a


def hermitian_solve(a, b, *, with_flag: bool = False):
    """Solve ``A y = b`` for Hermitian positive-definite A via Cholesky.

    If the smallest Cholesky pivot falls below ``1e-12 * trace(A)/dim`` the
    matrix is treated as numerically singular and the solve is retried once
    with ridge jitter ``lambda = 1e-10 * trace(A)/dim`` added to the
    diagonal; the returned flag records that the rescue engaged.

    Parameters
    ----------
    a : (d, d) array_like, Hermitian
    b : (d,) or (d, m) array_like
    with_flag : bool
        When true, return ``(y, ridge_applied)`` instead of just ``y``.

    Raises
    ------
    NumericalError
        If A fails the Hermitian invariant (a NaN or inf entry fails it), or
        remains singular even with the ridge applied.
    """
    a = require_hermitian(a, "solve input")
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0]
    # Symmetrize so the Cholesky sees an exactly Hermitian matrix.
    a = 0.5 * (a + a.conj().T)
    scale = np.real(np.trace(a)) / dim if dim else 0.0
    ridged = False

    def try_cholesky(m):
        try:
            c = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return None
        if np.min(np.real(np.diagonal(c))) ** 2 < SINGULAR_PIVOT_REL * max(scale, 0.0):
            return None
        return c

    chol = try_cholesky(a)
    if chol is None:
        ridged = True
        ridge = RIDGE_REL * max(scale, 0.0)
        if ridge <= 0.0:
            ridge = RIDGE_REL
        chol = try_cholesky(a + ridge * np.eye(dim))
        if chol is None:
            raise NumericalError(
                f"Hermitian solve failed: matrix singular beyond ridge rescue "
                f"(dim={dim}, trace/dim={scale:.3e})"
            )
    y = np.linalg.solve(chol.conj().T, np.linalg.solve(chol, b))
    return (y, ridged) if with_flag else y


def spectral_norm(a) -> float:
    """Largest singular value of ``a``.

    Computed from the eigendecomposition of A^H A for determinism (the
    matrices here never exceed a few dozen rows).
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        raise NumericalError("spectral_norm of empty matrix")
    gram = a.conj().T @ a
    top = np.max(np.linalg.eigvalsh(gram))
    return float(np.sqrt(max(top, 0.0)))


def lyapunov_solve(f, s, *, tol: float = 1e-12, max_iter: int = 10**6) -> np.ndarray:
    """Fixed point of ``X = F X F^T + S`` for a strictly stable F.

    Parameters
    ----------
    f : (d, d) real array_like with spectral radius < 1
    s : (d, d) real symmetric PSD array_like

    Returns
    -------
    (d, d) symmetric ndarray

    Raises
    ------
    NumericalError
        "unstable system" if the iteration has not converged (successive
        iterates within ``tol`` in max-abs) after ``max_iter`` steps.
    """
    f = np.asarray(f, dtype=float)
    s = np.asarray(s, dtype=float)
    s = 0.5 * (s + s.T)
    x = s.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            x_next = f @ x @ f.T + s
            x_next = 0.5 * (x_next + x_next.T)
            if not np.all(np.isfinite(x_next)):
                break
            if np.max(np.abs(x_next - x)) <= tol:
                return x_next
            x = x_next
    raise NumericalError("unstable system")
