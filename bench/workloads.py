"""The benchmark's three workloads and the checks on their outputs.

A workload is four things: ``prepare(seed)`` builds the inputs and warms
up, ``run(state, i)`` performs operation ``i``, ``check(state, outputs)``
returns a list of problems found in the outputs (empty when they are
right), and ``round_size`` is the number of operations that make one
whole round: a run always attempts whole rounds, so every run sees the
same mix of operations.

The package is called through its module attributes (``graphs.random_dag``
rather than an imported name), so the traced run can put spans around
every call (see tracing.py).

The checks never compare against stored output. They recompute what the
method guarantees with plain numpy, from the model the package built:

* the population PSDM sigma(w) (I - B e^{-iw})^{-1} (I - B e^{-iw})^{-H},
  which must match the ``exact_psdm`` the reconstruction consumed;
* f(j, an(j), w) = sigma(w): conditioning on all ancestors leaves only
  the noise;
* gamma at most half of min over w, j, k in pa(j) of
  f(j, nd(j) minus {k}, w) - sigma(w), the smallest score drop a true
  parent can produce on the population PSDM;
* the recovered graph equals the generating DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from spectradag import cpsd, experiments, graphs, models, reconstruct
from spectradag.reconstruct import ReconstructionParams
from spectradag.simulate import STRATEGIES

GRID8 = 2.0 * np.pi * np.arange(8) / 8.0
OMEGA17 = 2.0 * np.pi * 17.0 / 64.0
IID = models.NoiseSpec("iid")
AR1 = models.NoiseSpec("ar1", alpha=0.6)
NOISES = (IID, AR1)

# exact-recovery cycles p up to the deficit enumeration guard.
EXACT_P = tuple(range(4, cpsd.DEFICIT_MAX_P + 1))
SWEEP_N = 4000
MIN_SWEEP_RECOVERY = 0.9

# Relative tolerances of the reference checks. A wrong PSDM, threshold or
# graph is off by orders of magnitude more.
PSDM_RTOL = 1e-9
SCHUR_RTOL = 1e-8
HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int
    prepare: Callable
    run: Callable
    check: Callable


class Recovery(NamedTuple):
    """One exact-recovery operation: the model and what was recovered from it."""

    dag: graphs.Dag
    model: models.LdsModel
    gamma: float
    phis: tuple
    graphs: tuple


class Trial(NamedTuple):
    """One sweep-p10 operation: exact recovery or not, and the PSDM estimate."""

    success: bool
    estimate: np.ndarray


def warm_up(seed: int) -> None:
    """One small experiment cell, so every layer has run once before timing."""
    cfg = experiments.ExperimentConfig(p=4, q=1, n_grid=(200,), trials=1, seed=seed)
    experiments.run_experiment(cfg)


def _prepare_seed(seed: int) -> int:
    """Set-up of the workloads whose operations build their own inputs."""
    warm_up(seed)
    return seed


# --- numpy references -------------------------------------------------------


def noise_psd(noise: models.NoiseSpec, omega: float) -> float:
    """sigma(w) = sigma_w / |1 - alpha e^{-iw}|^2 (alpha = 0 for iid noise)."""
    return noise.sigma_w / abs(1.0 - noise.alpha * np.exp(-1j * omega)) ** 2


def reference_psdm(b: np.ndarray, sigma: float, omega: float) -> np.ndarray:
    t = np.linalg.inv(np.eye(b.shape[0]) - b * np.exp(-1j * omega))
    return sigma * (t @ t.conj().T)


def schur(phi: np.ndarray, j: int, cond) -> float:
    """f(j, C) = Phi_jj - Phi_jC Phi_CC^{-1} Phi_Cj."""
    c = sorted(cond)
    if not c:
        return float(phi[j, j].real)
    b = phi[c, j]
    return float((phi[j, j] - b.conj() @ np.linalg.solve(phi[np.ix_(c, c)], b)).real)


def _closure(adjacency: dict[int, set[int]], start: int) -> set[int]:
    seen: set[int] = set()
    frontier = [start]
    while frontier:
        for nxt in adjacency[frontier.pop()] - seen:
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def check_spectra(dag, model, omegas, phis, gamma=None) -> list[str]:
    """Problems with the PSDMs, the ancestral collapse and the threshold.

    ``gamma`` is checked against the half deficit when given.
    """
    p = dag.p
    parents = {v: set() for v in range(p)}
    children = {v: set() for v in range(p)}
    for j, i in dag.edges:
        parents[i].add(j)
        children[j].add(i)
    problems = []
    deficit = np.inf
    for omega, phi in zip(omegas, phis):
        sigma = noise_psd(model.noise, omega)
        ref = reference_psdm(model.b, sigma, omega)
        err = np.max(np.abs(np.asarray(phi) - ref)) / np.max(np.abs(ref))
        if not err <= PSDM_RTOL:
            problems.append(f"PSDM at w={omega:.4f} is off the reference by {err:.2e} relative")
        for j in range(p):
            f = schur(ref, j, _closure(parents, j))
            if not abs(f - sigma) <= SCHUR_RTOL * sigma:
                problems.append(f"f({j}, an({j})) = {f!r} != sigma = {sigma!r} at w={omega:.4f}")
            nd = set(range(p)) - _closure(children, j) - {j}
            for k in parents[j]:
                deficit = min(deficit, schur(ref, j, nd - {k}) - sigma)
    if gamma is not None and not 0.0 < gamma <= 0.5 * deficit * (1.0 + SCHUR_RTOL):
        problems.append(f"gamma {gamma!r} is not in (0, deficit/2 = {0.5 * deficit!r}]")
    return problems


def check_graphs(dag, recovered) -> list[str]:
    return [
        f"recovered edges {sorted(g.edges)} != generating {sorted(dag.edges)}"
        for g in recovered
        if g.edges != dag.edges
    ]


# --- exact-recovery ---------------------------------------------------------


def exact_model_params(i: int) -> tuple[int, int, models.NoiseSpec]:
    """p, q and noise of model i.

    A round is one model per p, and q is a function of p, so every round
    has the same cost profile and a run's percentiles do not depend on how
    many rounds it fits. q = 1 + (p + 1) % 3 cycles 1..3 along p and puts
    q = 1 at p = 14, where the deficit enumeration is the largest share of
    the time. The noise kind alternates from one model to the next.
    """
    p = EXACT_P[i % len(EXACT_P)]
    return p, 1 + (p + 1) % 3, NOISES[i % 2]


def _run_exact(seed: int, i: int) -> Recovery:
    p, q, noise = exact_model_params(i)
    dag = graphs.random_dag(p, q, (seed, 0, i))
    model = models.build_model(dag, noise, (seed, 1, i))
    gamma = cpsd.default_gamma(model, GRID8)
    phis, recovered = [], []
    for omega in GRID8:
        phi = models.exact_psdm(model, omega)
        params = ReconstructionParams(q=q, gamma=gamma, omega=omega)
        recovered.append(reconstruct.reconstruct(phi, params).graph)
        phis.append(phi)
    return Recovery(dag, model, gamma, tuple(phis), tuple(recovered))


def check_recoveries(outputs) -> list[str]:
    problems = []
    for out in outputs:
        problems += check_graphs(out.dag, out.graphs)
        problems += check_spectra(out.dag, out.model, GRID8, out.phis, out.gamma)
    return problems


# --- sweep-p10 --------------------------------------------------------------


def sweep_config(seed: int, i: int) -> experiments.ExperimentConfig:
    """Trial i: noise alternates every trial, strategy every two."""
    root = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
    return experiments.ExperimentConfig(
        p=10,
        q=2,
        n_grid=(SWEEP_N,),
        noise=(NOISES[i % 2],),
        strategies=(STRATEGIES[(i // 2) % 2],),
        num_samples=64,
        omega_index=17,
        trials=1,
        seed=root,
    )


def _run_sweep(seed: int, i: int) -> Trial:
    # run_experiment keeps its estimate to itself; record it on the way out
    traced_or_plain = experiments.sample_psdm
    estimates = []

    def recording(*args, **kwargs):
        est = traced_or_plain(*args, **kwargs)
        estimates.append(est.matrix)
        return est

    experiments.sample_psdm = recording
    try:
        (record,) = experiments.run_experiment(sweep_config(seed, i))
    finally:
        experiments.sample_psdm = traced_or_plain
    return Trial(record.success_count == 1, estimates[0])


def check_trials(outputs) -> list[str]:
    problems = []
    for out in outputs:
        m = out.estimate
        scale = np.max(np.abs(m))
        defect = np.max(np.abs(m - m.conj().T))
        if not defect <= HERMITIAN_RTOL * scale:
            problems.append(f"estimate is not Hermitian: defect {defect:.2e}, scale {scale:.2e}")
        if not np.all(m.diagonal().real >= 0.0):
            problems.append("estimate has a negative diagonal entry")
    if outputs:
        share = sum(out.success for out in outputs) / len(outputs)
        if not share >= MIN_SWEEP_RECOVERY:
            problems.append(f"exact-recovery share {share:.3f} < {MIN_SWEEP_RECOVERY}")
    return problems


# --- recon-p20 --------------------------------------------------------------


class Recon(NamedTuple):
    dag: graphs.Dag
    model: models.LdsModel
    phi: np.ndarray
    params: ReconstructionParams


def _prepare_recon(seed: int) -> Recon:
    dag = graphs.random_dag(20, 2, (seed, 0, 0))
    model = models.build_model(dag, IID, (seed, 1, 0))
    phi = models.exact_psdm(model, OMEGA17)
    gamma = cpsd.default_gamma(model, [OMEGA17])
    warm_up(seed)
    return Recon(dag, model, phi, ReconstructionParams(q=2, gamma=gamma, omega=OMEGA17))


def _run_recon(state: Recon, i: int) -> graphs.Dag:
    return reconstruct.reconstruct(state.phi, state.params).graph


def _check_recon(state: Recon, outputs) -> list[str]:
    # at p > 14 default_gamma is beta^2 sigma / 2, not a half deficit, so
    # only its sign is checked
    problems = check_graphs(state.dag, outputs)
    problems += check_spectra(state.dag, state.model, [OMEGA17], [state.phi])
    if not state.params.gamma > 0.0:
        problems.append(f"gamma {state.params.gamma!r} is not positive")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-recovery",
            len(EXACT_P),
            _prepare_seed,
            _run_exact,
            lambda state, outputs: check_recoveries(outputs),
        ),
        Workload(
            "sweep-p10",
            2 * len(STRATEGIES),
            _prepare_seed,
            _run_sweep,
            lambda state, outputs: check_trials(outputs),
        ),
        Workload("recon-p20", 1, _prepare_recon, _run_recon, _check_recon),
    )
}
