"""Linear dynamical system models over a DAG, and their analytic spectral
oracles.

A model is a one-lag vector autoregression x(t) = B x(t-1) + e(t) whose
coefficient support coincides with the DAG's edges, driven by exogenous
noise that is either IID Gaussian or an AR(1) recursion e(t) = a e(t-1) +
w(t). Both give a noise power spectral density of the form sigma(omega) I.

Three oracles are exposed: the limiting power spectral density matrix
(PSDM), the autocorrelation sequence R(k), and the expected value of the
finite-sample spectrogram estimator, which differs from the limit by a
finite-length bias. B is nilpotent on a DAG, so x(t) is a finite moving
average of the noise and R(k) is a finite sum over the nonzero powers of
B, exact at any noise scale: no iteration and no tolerance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, as_int
from .graphs import Dag
from .linalg import spectral_norm
from .seeding import rng_from

# Frequencies used for the model's eigenvalue envelope (m_bound) when the
# caller does not supply a grid: 64 equally spaced points on [0, 2*pi).
DEFAULT_MODEL_OMEGA_GRID = 2.0 * np.pi * np.arange(64) / 64.0

# Lags used to fit the autocorrelation decay envelope (c_decay, rho).
FIT_LAGS = 64

_NOISE_KINDS = ("iid", "ar1")


@dataclass(frozen=True)
class NoiseSpec:
    """Exogenous noise: ``kind`` is "iid" or "ar1".

    sigma_w is the innovation variance; alpha the AR(1) coefficient (must
    be 0 for IID noise). The resulting noise PSD is flat sigma_w for IID
    and sigma_w / |1 - alpha e^{-i omega}|^2 for AR(1).
    """

    kind: str
    sigma_w: float = 0.5
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {_NOISE_KINDS}, got {self.kind!r}")
        if not (self.sigma_w > 0 and np.isfinite(self.sigma_w)):
            raise ConfigError(f"sigma_w must be finite and > 0, got {self.sigma_w}")
        if self.kind == "iid" and self.alpha != 0.0:
            raise ConfigError("IID noise must have alpha = 0")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")

    def psd(self, omega):
        """Noise power spectral density sigma(omega); vectorized over omega."""
        om = np.asarray(omega, dtype=float)
        if self.kind == "iid":
            out = np.full(om.shape, self.sigma_w)
        else:
            out = self.sigma_w / np.abs(1.0 - self.alpha * np.exp(-1j * om)) ** 2
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModelConstants:
    """Computable model-class constants.

    beta: smallest edge-weight magnitude (0 for an edgeless model).
    m_bound: envelope M with PSDM eigenvalues in [1/M, M] over the grid.
    c_decay, rho: fitted autocorrelation envelope ||R(k)|| <= c_decay * rho^-k.
    """

    beta: float
    m_bound: float
    c_decay: float
    rho: float


@dataclass(frozen=True, eq=False)
class LdsModel:
    """One-lag linear dynamical system over a DAG.

    b[i, j] is the weight of edge j -> i; the nonzero pattern must equal
    the DAG's edge set exactly and the spectral norm must be < 1.
    """

    dag: Dag
    b: np.ndarray
    noise: NoiseSpec
    constants: ModelConstants

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        p = self.dag.p
        if b.shape != (p, p):
            raise ConfigError(f"coefficient matrix shape {b.shape} != ({p}, {p})")
        support = {(j, i) for i in range(p) for j in range(p) if b[i, j] != 0.0}
        if support != set(self.dag.edges):
            raise ConfigError("coefficient support does not match the DAG edge set")
        if spectral_norm(b) >= 1.0:
            raise ConfigError("coefficient matrix must have spectral norm < 1")

    @property
    def p(self) -> int:
        return self.dag.p


def _psdm_from_b(b: np.ndarray, noise: NoiseSpec, omegas: np.ndarray) -> np.ndarray:
    """(len(omegas), p, p) population PSDMs: one stacked solve for all omegas."""
    eye = np.eye(b.shape[0])
    try:
        t = np.linalg.solve(eye - b * np.exp(-1j * omegas)[:, None, None], eye.astype(complex))
    except np.linalg.LinAlgError as exc:  # cannot happen under ||B|| < 1; guard anyway
        raise NumericalError(f"transfer inversion failed at an omega in {omegas}") from exc
    phi = noise.psd(omegas)[:, None, None] * (t @ t.conj().transpose(0, 2, 1))
    return 0.5 * (phi + phi.conj().transpose(0, 2, 1))


def exact_psdm(model: LdsModel, omega: float) -> np.ndarray:
    """Population PSDM at one frequency: (I - B e^{-iw})^{-1} sigma(w) (I - B e^{-iw})^{-*}.

    Returns a Hermitian positive-definite (p, p) complex matrix.
    """
    return _psdm_from_b(model.b, model.noise, np.array([float(omega)]))[0]


def _autocorr_from_b(b: np.ndarray, noise: NoiseSpec, max_lag: int) -> np.ndarray:
    """R(0..max_lag) by the finite sum over the nonzero powers of B.

    B is supported on a DAG, so B^(d+1) = 0 for some d < p: a product of
    structural zeros is an exact zero, so the powers end without a
    tolerance. u(t) = sum_k B^k w(t-k), the VAR on the innovations, has
    R_u(k) = sigma_w B^k G with G = sum_j B^j B^jT, and R_u(-k) = R_u(k)^T.
    AR(1) noise filters u once more, x(t) = sum_m alpha^m u(t-m), so
    R(h) = sum_{|k| <= d} alpha^|h-k| R_u(k) / (1 - alpha^2); IID noise is
    alpha = 0, where only k = h is left.
    """
    powers = [np.eye(b.shape[0])]
    for _ in range(b.shape[0] - 1):
        nxt = b @ powers[-1]
        if not nxt.any():
            break
        powers.append(nxt)
    side = np.concatenate(powers, axis=1)
    ru = noise.sigma_w * (np.stack(powers) @ (side @ side.T))
    stack = np.concatenate([ru[:0:-1].transpose(0, 2, 1), ru])
    d = len(powers) - 1
    lags = np.arange(max_lag + 1)[:, None] - np.arange(-d, d + 1)
    coef = noise.alpha ** np.abs(lags) / (1.0 - noise.alpha**2)
    return (coef @ stack.reshape(2 * d + 1, -1)).reshape(max_lag + 1, *b.shape)


def autocorr(model: LdsModel, max_lag: int) -> np.ndarray:
    """Autocorrelation sequence R(0..max_lag), R(k) = E[x(t+k) x(t)^T].

    Returns an (max_lag+1, p, p) real array. R(-k) = R(k)^T by stationarity.
    """
    if max_lag < 0:
        raise ConfigError(f"max_lag must be >= 0, got {max_lag}")
    return _autocorr_from_b(model.b, model.noise, int(max_lag))


def _dft_moments(model: LdsModel, omega: float, num_samples: int):
    """E[X X^*] and E[X X^T] for X = sum_t x(t) e^{-i omega t} / sqrt(N), the
    DFT of one stationary window of N samples.

    With e_t = e^{-i omega t} / sqrt(N), both are lag sums of R(k): the
    first weighs R(k) by sum_t e_{t+k} conj(e_t) = (N - k) e^{-i omega k} / N
    and R(k)^T = R(-k) by its conjugate; the second weighs both by
    sum_t e_{t+k} e_t = e^{-i omega k} sum_{t < N-k} e^{-2 i omega t} / N.
    """
    n = int(num_samples)
    if n < 1:
        raise ConfigError(f"num_samples must be >= 1, got {n}")
    omega = float(omega)
    rr = _autocorr_from_b(model.b, model.noise, n - 1)
    k = np.arange(n)
    pseudo = np.exp(-1j * omega * k) * np.cumsum(np.exp(-2j * omega * k))[::-1] / n
    k = k[1:]
    pos = np.einsum("k,kab->ab", (n - k) / n * np.exp(-1j * omega * k), rr[1:])
    herm = rr[0] + pos + pos.conj().T
    pos = np.einsum("k,kab->ab", pseudo[1:], rr[1:])
    sym = pseudo[0] * rr[0] + pos + pos.T
    return 0.5 * (herm + herm.conj().T), 0.5 * (sym + sym.T)


def expected_psdm_finite_n(model: LdsModel, omega: float, num_samples: int) -> np.ndarray:
    """Expected value of the length-N spectrogram estimate.

    The triangular (Fejer) weighting of the autocorrelation sequence:
    (1/N) * sum_{|k| < N} (N - |k|) R(k) e^{-i omega k}. Converges to the
    population PSDM as N grows.
    """
    return _dft_moments(model, omega, num_samples)[0]


def dft_covariance(model: LdsModel, omega: float, num_samples: int) -> np.ndarray:
    """(2p, 2p) covariance of Z = [Re X; Im X], X the length-N DFT at omega
    of one stationary window (see `_dft_moments`).

    From Phi = E[X X^*] and C = E[X X^T]: Cov(Re X) = Re(Phi + C) / 2,
    Cov(Im X) = Re(Phi - C) / 2 and Cov(Re X, Im X) = Im(C - Phi) / 2. It is
    singular where Im X vanishes: at N = 1 and at omega in {0, pi}.
    """
    phi, c = _dft_moments(model, omega, num_samples)
    re_im = 0.5 * (c.imag - phi.imag)
    return np.block(
        [[0.5 * (phi.real + c.real), re_im], [re_im.T, 0.5 * (phi.real - c.real)]]
    )


def build_model(dag: Dag, noise: NoiseSpec, seed, omega_grid=None) -> LdsModel:
    """Draw edge weights and compute the model-class constants.

    Each edge weight is a Rademacher sign times Uniform(0.5, 1); the whole
    matrix is then rescaled by 1/(1.002 * ||B||) so the system is stable
    with a thin margin (skipped for an edgeless graph). The constants
    record the post-scaling weight floor beta, the PSDM eigenvalue
    envelope m_bound over `omega_grid` (64 uniform frequencies by
    default), and an autocorrelation decay envelope (c_decay, rho) fitted
    to lags 0..FIT_LAGS, which the test suite asserts against all of them.
    """
    rng = rng_from(seed)
    p = dag.p
    b = np.zeros((p, p))
    edge_list = sorted(dag.edges)
    if edge_list:
        signs = rng.integers(0, 2, size=len(edge_list)) * 2 - 1
        mags = rng.uniform(0.5, 1.0, size=len(edge_list))
        for (j, i), s, m in zip(edge_list, signs, mags):
            b[i, j] = s * m
        norm = spectral_norm(b)
        b /= 1.002 * norm
        beta = min(abs(b[i, j]) for j, i in edge_list)
    else:
        beta = 0.0

    grid = DEFAULT_MODEL_OMEGA_GRID if omega_grid is None else np.asarray(omega_grid, float)
    eigs = np.linalg.eigvalsh(_psdm_from_b(b, noise, grid))
    m_bound = float(np.max(np.concatenate([eigs[:, -1], 1.0 / eigs[:, 0]]), initial=1.0))

    c_decay, rho = _fit_decay(spectral_norm(_autocorr_from_b(b, noise, FIT_LAGS)))
    constants = ModelConstants(beta=beta, m_bound=m_bound, c_decay=c_decay, rho=rho)
    return LdsModel(dag=dag, b=b, noise=noise, constants=constants)


def _fit_decay(norms: np.ndarray) -> tuple[float, float]:
    """Fit (C, rho) with norms[k] = ||R(k)|| <= C rho^-k over the computed lags.

    rho comes from successive norm ratios over the lags that are not
    numerically zero (slowest observed decay, so the bound is honest); C
    is then the smallest constant making the bound hold at every computed
    lag, evaluated in log space to avoid overflow.
    """
    floor = 1e-13 * norms[0]
    # fit only the contiguous leading run above the noise floor: past the
    # first numerical zero the ratios are noise (nilpotent models hit exact
    # zero at lag p)
    m = 0
    while m < len(norms) and norms[m] > floor:
        m += 1
    prefix = norms[: max(m, 1)]
    if len(prefix) >= 2:
        ratios = prefix[:-1] / prefix[1:]
        rho = float(np.min(ratios))
        if rho <= 1.0:
            rho = float((prefix[0] / prefix[-1]) ** (1.0 / (len(prefix) - 1)))
    else:
        rho = 2.0  # single nonzero lag: any rate certifies the bound
    rho = max(rho, 1.0 + 1e-6)
    log_c = max(
        np.log(norms[k]) + k * np.log(rho) for k in range(len(norms)) if norms[k] > 0.0
    )
    return float(np.exp(log_c)), rho


def model_to_json(model: LdsModel) -> str:
    """Canonical JSON serialization (sorted keys, 2-space indent)."""
    doc = {
        "p": model.dag.p,
        "edges": [list(e) for e in sorted(model.dag.edges)],
        "order": list(model.dag.order),
        "b": model.b.tolist(),
        "noise": {
            "kind": model.noise.kind,
            "sigma_w": model.noise.sigma_w,
            "alpha": model.noise.alpha,
        },
        "constants": {
            "beta": model.constants.beta,
            "m_bound": model.constants.m_bound,
            "c_decay": model.constants.c_decay,
            "rho": model.constants.rho,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def model_from_json(text: str) -> LdsModel:
    """Parse `model_to_json` output; all Dag/LdsModel invariants re-checked.

    p, edge endpoints and order entries must be JSON integers: 3.9 is a
    ConfigError, not node 3.
    """
    try:
        doc = json.loads(text)
        dag = Dag(
            p=as_int("p", doc["p"]),
            edges=frozenset((as_int("edge", j), as_int("edge", i)) for j, i in doc["edges"]),
            order=tuple(as_int("order entry", v) for v in doc["order"]),
        )
        noise = NoiseSpec(
            kind=doc["noise"]["kind"],
            sigma_w=float(doc["noise"]["sigma_w"]),
            alpha=float(doc["noise"]["alpha"]),
        )
        constants = ModelConstants(
            beta=float(doc["constants"]["beta"]),
            m_bound=float(doc["constants"]["m_bound"]),
            c_decay=float(doc["constants"]["c_decay"]),
            rho=float(doc["constants"]["rho"]),
        )
        b = np.asarray(doc["b"], dtype=float)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed model JSON: {exc}") from exc
    return LdsModel(dag=dag, b=b, noise=noise, constants=constants)


def model_hash(model: LdsModel) -> str:
    """Stable content hash used to tie trajectory manifests to a model."""
    compact = json.dumps(json.loads(model_to_json(model)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode()).hexdigest()
