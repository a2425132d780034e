"""The output checks are live: right outputs pass, deliberately wrong ones fail."""

import numpy as np
import pytest

import workloads as wl
from spectradag import cpsd, experiments, reconstruct
from spectradag.reconstruct import ReconstructionParams

SEED = 3
OP = 3  # p=7, q=3


@pytest.fixture(scope="module")
def recovery():
    return wl.WORKLOADS["exact-recovery"].run(SEED, OP)


def test_true_recovery_passes(recovery):
    assert wl.check_recoveries([recovery]) == []


def test_gamma_1000x_too_large_fails(recovery):
    problems = wl.check_recoveries([recovery._replace(gamma=1000.0 * recovery.gamma)])
    assert len(problems) == 1 and "gamma" in problems[0]


def _swap(phi, a, b):
    perm = list(range(phi.shape[0]))
    perm[a], perm[b] = b, a
    return phi[np.ix_(perm, perm)]


def test_psdm_with_two_nodes_relabelled_fails(recovery):
    parent, child = min(recovery.dag.edges)
    _, q, _ = wl.exact_model_params(OP)
    phis = tuple(_swap(phi, parent, child) for phi in recovery.phis)
    recovered = tuple(
        reconstruct.reconstruct(phi, ReconstructionParams(q=q, gamma=recovery.gamma, omega=w)).graph
        for phi, w in zip(phis, wl.GRID8)
    )
    problems = wl.check_recoveries([recovery._replace(phis=phis, graphs=recovered)])
    assert sum("recovered edges" in p for p in problems) == len(wl.GRID8)
    assert sum("off the reference" in p for p in problems) == len(wl.GRID8)


def test_sweep_trial_passes_and_restores_the_sampler():
    trial = wl.WORKLOADS["sweep-p10"].run(SEED, 0)
    assert experiments.sample_psdm is cpsd.sample_psdm
    assert trial.estimate.shape == (10, 10)
    assert wl.check_trials([trial._replace(success=True)]) == []


GOOD = np.array([[2.0, 0.5 + 0.1j], [0.5 - 0.1j, 1.0]])


def test_sweep_checks_reject_bad_estimates_and_low_recovery():
    assert wl.check_trials([wl.Trial(True, GOOD)] * 9 + [wl.Trial(False, GOOD)]) == []
    skewed = GOOD.copy()
    skewed[0, 1] += 1e-3
    assert "not Hermitian" in wl.check_trials([wl.Trial(True, skewed)])[0]
    negative = GOOD.copy()
    negative[1, 1] = -1.0
    assert "negative diagonal" in wl.check_trials([wl.Trial(True, negative)])[0]
    low = wl.check_trials([wl.Trial(True, GOOD)] * 8 + [wl.Trial(False, GOOD)] * 2)
    assert len(low) == 1 and "share 0.800" in low[0]
