"""Power-spectral-density-matrix estimation and the conditional-PSD metric.

The estimator averages outer products of per-trajectory DFT coefficients:

    psdm_hat(w) = (1/n) * sum_r x^r(w) x^r(w)^*

`sample_psdm` draws that estimate for a model. For restart-record
sampling it draws the n DFT rows from their exact Gaussian law, without
trajectories; for continuous sampling it streams the trajectories and is
bit-equal to ``estimate_psdm(simulate(...))``. Restart-record draws equal
that only in law.

The conditional PSD of node i given a conditioning set C is the Schur
complement of the C-block,

    f(i, C, w) = Phi_ii(w) - Phi_iC(w) Phi_CC(w)^{-1} Phi_Ci(w),

which equals the noise PSD sigma(w) exactly when C is ancestral and covers
i's parents, and exceeds it by at least the deficit when a parent is
missing. `cpsd_deficit` computes that margin on the population PSDM; since
f never grows as C grows, it needs only the largest qualifying set per
edge. It is what calibrates the parent-identification threshold (see
`default_gamma`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, as_int
from .graphs import structural_queries
from .linalg import hermitian_factor, require_hermitian
from .models import LdsModel, dft_covariance, exact_psdm
from .seeding import rng_from
from .simulate import TrajectorySet, check_sampling, iter_trajectory_blocks

# Tolerances on f values, relative to the PSDM scale trace(Phi)/p: imaginary
# residue above IMAG_TOL raises; real values in [-NEG_TOL, 0) are clamped
# to 0 (sampling noise), below raises.
IMAG_TOL = 1e-9
NEG_TOL = 1e-9

# Guards nothing since the deficit is closed-form; read only by the benchmark.
DEFICIT_MAX_P = 14

GAMMA_FLOOR = 1e-9


@dataclass(frozen=True, eq=False)
class PsdmEstimate:
    """Sample PSDM at one frequency, with the sample sizes that produced it."""

    omega: float
    matrix: np.ndarray
    n: int
    num_samples: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        require_hermitian(m, "PSDM estimate")
        # complex sums of x x^* leave rounding residue in the diagonal's imaginary part
        m.imag[np.diag_indices_from(m)] = 0.0
        if m.shape[0] and np.min(m.diagonal().real) < 0:
            raise NumericalError("PSDM estimate has a negative diagonal entry")
        for name in ("n", "num_samples"):
            value = as_int(name, getattr(self, name))
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CpsdValue:
    node: int
    cond_set: frozenset[int]
    omega: float
    value: float
    ridge_applied: bool
    clamped: bool = False


def _dft_basis(n_steps: int, omega: float) -> np.ndarray:
    """The (2, N) real basis [cos; -sin](omega t) / sqrt(N) of the DFT at omega."""
    angles = omega * np.arange(n_steps)
    return np.stack([np.cos(angles), -np.sin(angles)]) / np.sqrt(n_steps)


def _complex_rows(re_im: np.ndarray) -> np.ndarray:
    """(rows, 2, p) real and imaginary parts -> (rows, p) complex."""
    re, im = re_im.transpose(1, 0, 2)
    return re + 1j * im


def _dft_block(block: np.ndarray, omega: float) -> np.ndarray:
    """(rows, N, p) real -> (rows, p) complex DFT coefficients at omega: the
    two-row basis times each (N, p) slice."""
    return _complex_rows(np.matmul(_dft_basis(block.shape[1], omega), block))


def _gram_estimate(xw: np.ndarray, omega: float, num_samples: int) -> PsdmEstimate:
    """Average the outer products of the (n, p) DFT rows xw."""
    n = xw.shape[0]
    return PsdmEstimate(omega=omega, matrix=(xw.T @ np.conj(xw)) / n, n=n, num_samples=num_samples)


def estimate_psdm(traj: TrajectorySet, omega: float) -> PsdmEstimate:
    """Average the DFT outer products of every trajectory at one frequency."""
    return _gram_estimate(_dft_block(traj.data, omega), omega, traj.num_samples)


def sample_psdm(
    model: LdsModel,
    strategy: str,
    n: int,
    num_samples: int,
    omega: float,
    seed,
) -> PsdmEstimate:
    """Sample the PSDM estimate of n trajectories of N steps at omega.

    restart_record draws the estimate from its exact law, with no
    trajectories. The n windows are independent and exactly stationary,
    so their DFT rows give iid Z_r = [Re X_r; Im X_r] ~ N(0, Sigma_Z), with
    Sigma_Z from `dft_covariance`. Z = G S, for G an (n, 2p) standard-normal
    matrix and S the symmetric PSD square root of Sigma_Z, which is unique
    (no eigenvector sign enters) and covers a singular Sigma_Z. That is
    n*2p normals, against n*(N+p-1)*p for the trajectories; the estimate
    has the law of ``estimate_psdm(simulate(...), omega)`` but not its bits.

    continuous streams the one realization: each trajectory block is
    reduced to the real and imaginary parts of its DFT rows at omega as it
    is generated, against one basis per call, and one Gram over all n rows
    ends the pass. A row's DFT does not depend on the block it came in, so
    this equals ``estimate_psdm(simulate(...), omega)`` exactly. Memory
    stays near one block's working arrays plus the DFT rows (640 KB at
    p=10, n=4000, held twice while they are joined), where ``simulate``
    holds all n*N*p reals.
    """
    check_sampling(strategy, n, num_samples)
    if strategy == "restart_record":
        lam, vec = np.linalg.eigh(dft_covariance(model, omega, num_samples))
        root = (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.T
        z = rng_from(seed).standard_normal((n, 2 * model.p)) @ root
        return _gram_estimate(_complex_rows(z.reshape(n, 2, model.p)), omega, num_samples)
    basis = _dft_basis(num_samples, omega)
    blocks = iter_trajectory_blocks(model, strategy, n, num_samples, seed)
    xw = _complex_rows(np.concatenate([np.matmul(basis, block) for block in blocks]))
    return _gram_estimate(xw, omega, num_samples)


def cpsd_fs(psdm, nodes, cond):
    """Conditional PSD of each of ``nodes`` given one shared cond, as
    ``(f, ridged, clamped)``: an f array aligned with ``nodes``, the ridge
    flag, and the mask of values clamped to 0.

    psdm may be a PsdmEstimate or a bare Hermitian matrix. One Cholesky
    factor of the conditioning block (with the ridge rescue if it is rank
    deficient) and one triangular solve give f = Phi_ii - ||L^-1 Phi_Ci||^2
    for all nodes; one vectorised test applies the realness and sign
    tolerances, relative to trace(psdm)/p so no unit of the data matters.
    """
    matrix = psdm.matrix if isinstance(psdm, PsdmEstimate) else np.asarray(psdm, dtype=complex)
    p = matrix.shape[0]
    nodes = [int(i) for i in nodes]
    cond = frozenset(int(c) for c in cond)
    if any(not (0 <= c < p) for c in cond):
        raise ConfigError(f"conditioning set {sorted(cond)} out of range for p={p}")
    for i in nodes:
        if not (0 <= i < p):
            raise ConfigError(f"node {i} out of range for p={p}")
        if i in cond:
            raise ConfigError(f"node {i} may not appear in its own conditioning set")
    scale = np.trace(matrix).real / p
    idx = sorted(cond)
    quad, ridged = np.zeros(len(nodes)), False  # an empty cond leaves f = Phi_ii
    if idx:
        chol, ridged = hermitian_factor(matrix[np.ix_(idx, idx)])
        w = np.linalg.solve(chol, matrix[np.ix_(idx, nodes)])
        # columns solve independently, and a running sum adds each in order
        # however many there are (sum() goes pairwise on a lone column)
        quad = (w.real**2 + w.imag**2).cumsum(axis=0)[-1]
    diag = matrix.diagonal()[nodes]
    f = diag.real - quad
    bad = (np.abs(diag.imag) > IMAG_TOL * scale) | (f < -NEG_TOL * scale)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalError(
            f"conditional PSD f({nodes[k]},{idx}) = {f[k]:.3e}{diag.imag[k]:+.3e}j: imaginary part "
            f"above {IMAG_TOL} or real part below -{NEG_TOL} times trace/p = {scale:.3e}"
        )
    clamped = f < 0.0
    f[clamped] = 0.0
    return f, ridged, clamped


def cpsd_f(psdm, i: int, cond, omega: float) -> CpsdValue:
    """The one-node case of `cpsd_fs`, with its flags, as a CpsdValue."""
    cond = frozenset(int(c) for c in cond)
    f, ridged, clamped = cpsd_fs(psdm, [i], cond)
    return CpsdValue(
        node=int(i),
        cond_set=cond,
        omega=float(omega),
        value=float(f[0]),
        ridge_applied=ridged,
        clamped=bool(clamped[0]),
    )


def cpsd_deficit(model: LdsModel, omega_grid) -> float:
    """min over (grid omega, node j, qualifying C) of f(j,C,omega) - sigma(omega).

    A qualifying C is a subset of nd(j) that misses at least one parent k
    of j. f never grows as C grows, so for each parent k the minimum over
    the sets that miss k is reached at the largest one, nd(j) minus {k}:
    one Schur complement per edge and frequency, on the population PSDM.
    An edgeless model has an empty minimization domain and is rejected.
    Non-ancestral sets count, since the ordering search scans them too.
    """
    dag = model.dag
    if not dag.edges:
        raise ConfigError("deficit undefined: model has no edges")
    nd = [structural_queries(dag, v).non_descendants for v in range(model.p)]
    conds = [(j, nd[j] - {k}) for k, j in dag.edges]
    best = np.inf
    for w in np.atleast_1d(np.asarray(omega_grid, dtype=float)):
        phi = exact_psdm(model, w)
        f_min = min(cpsd_f(phi, j, c, w).value for j, c in conds)
        best = min(best, f_min - float(model.noise.psd(w)))
    return best


def default_gamma(model: LdsModel, omega_grid) -> float:
    """Parent-identification threshold: half the deficit.

    The deficit is the smallest score drop a true parent produces on the
    population PSDM (see `cpsd_deficit`), so half of it separates true
    parents from non-parents with margin on both sides. An edgeless model
    has no deficit and gets the small positive floor, so the threshold is
    always usable.
    """
    if not model.dag.edges:
        return GAMMA_FLOOR
    return 0.5 * cpsd_deficit(model, omega_grid)


def save_psdm(est: PsdmEstimate, path) -> None:
    """CSV of (row, col, re, im) with a header comment carrying omega, n, N."""
    lines = [f"# omega={est.omega!r},n={est.n},N={est.num_samples}", "row,col,re,im"]
    p = est.p
    for r in range(p):
        for c in range(p):
            v = est.matrix[r, c]
            lines.append(f"{r},{c},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_psdm(path) -> PsdmEstimate:
    """Inverse of `save_psdm`; rejects incomplete or unheadered files."""
    text = Path(path).read_text().splitlines()
    try:
        if not text or not text[0].startswith("#"):
            raise ConfigError(f"missing metadata header in PSDM file {path}")
        meta = dict(item.split("=", 1) for item in text[0].lstrip("# ").split(","))
        omega = float(meta["omega"])
        if not np.isfinite(omega):
            raise ConfigError(f"PSDM file {path} has a non-finite omega={omega}")
        n = int(meta["n"])
        num_samples = int(meta["N"])
        if len(text) < 2 or text[1].strip() != "row,col,re,im":
            raise ConfigError(f"missing column header in PSDM file {path}")
        entries = [line.split(",") for line in text[2:] if line.strip()]
        seen = {}
        for e in entries:
            seen[(int(e[0]), int(e[1]))] = complex(float(e[2]), float(e[3]))
        p = max(r for r, _ in seen) + 1 if seen else 0
        if any(not (0 <= r < p and 0 <= c < p) for r, c in seen):
            raise ConfigError(f"PSDM file {path} has an index outside [0, {p})")
        if len(seen) != p * p or len(entries) != p * p:
            raise ConfigError(f"PSDM file {path} does not contain a complete square matrix")
        matrix = np.zeros((p, p), dtype=complex)
        for (r, c), v in seen.items():
            matrix[r, c] = v
        if not np.all(np.isfinite(matrix)):
            raise ConfigError(f"PSDM file {path} has a non-finite entry")
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed PSDM file {path}: {exc}") from exc
    return PsdmEstimate(omega=omega, matrix=matrix, n=n, num_samples=num_samples)
