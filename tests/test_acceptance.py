"""End-to-end acceptance suite: every headline guarantee at full scale.

Each test replays one guarantee at its stated size and tolerance and prints a
single PASS line (run with ``-s`` to see them) carrying the measured margin
and runtime.  Budgets are asserted, not aspirational: a slow machine fails
loudly rather than silently shipping a weaker check.

Measured runtime of the whole Tier-1 suite, this file included, on a 2-core
Intel Xeon box: 258-300 s for 358 tests, dominated by the 1000-replicate tail
experiment, the p=20 recovery check and the Monte Carlo phase-transition
sweep.
"""
import math
import time
from itertools import combinations

import numpy as np

from spectradag.bounds import (
    min_samples_lower_bound,
    min_trajectory_length,
    sufficient_samples_upper_bound,
)
from spectradag.cpsd import cpsd_deficit, cpsd_f
from spectradag.errors import ConfigError
from spectradag.experiments import ExperimentConfig, run_experiment, tail_experiment
from spectradag.graphs import (
    Dag,
    canonical_order,
    graph_equal,
    max_in_degree,
    random_dag,
    source_nodes,
)
from spectradag.models import NoiseSpec, build_model, exact_psdm, expected_psdm_finite_n
from spectradag.reconstruct import ReconstructionParams, order_nodes, reconstruct
from spectradag.simulate import iter_trajectory_blocks
from .test_reconstruct import order_oracle

GRID8 = 2.0 * np.pi * np.arange(8) / 8.0
IID = NoiseSpec("iid")
AR1 = NoiseSpec("ar1", alpha=0.6)


def test_01_exact_recovery_from_population_psdm():
    # 200 random models, p in 5..10, q in 1..3, both noise kinds: with the
    # population PSDM and gamma = deficit/2, reconstruction must return the
    # generating DAG at every one of the 8 grid frequencies.
    t0 = time.perf_counter()
    successes = np.zeros(8, dtype=int)
    for i in range(200):
        p = 5 + i % 6
        q = 1 + (i // 6) % 3
        noise = IID if (i // 18) % 2 == 0 else AR1
        dag = random_dag(p, q, seed=10_000 + i)
        model = build_model(dag, noise, seed=20_000 + i)
        gamma = 0.5 * cpsd_deficit(model, GRID8)
        for wi, omega in enumerate(GRID8):
            res = reconstruct(
                exact_psdm(model, omega),
                ReconstructionParams(q=q, gamma=gamma, omega=omega),
            )
            successes[wi] += int(graph_equal(res.graph, dag))
    elapsed = time.perf_counter() - t0
    assert successes.tolist() == [200] * 8, f"per-frequency successes {successes}"
    assert elapsed < 120.0, f"budget 2 min exceeded: {elapsed:.1f}s"
    print(f"\nPASS exact recovery: 200/200 models at all 8 frequencies ({elapsed:.1f}s)")


def test_02_ancestral_collapse_and_missing_parent_floor():
    # 100 random models; every ancestral candidate set C with |C| <= 4:
    # if C covers the parents of j, f(j,C,omega) equals sigma(omega) to 1e-8;
    # if C misses a parent, f - sigma >= beta^2 sigma - 1e-8.
    t0 = time.perf_counter()
    n_cover = n_miss = 0
    worst_cover = 0.0  # max |f - sigma| over covering sets
    worst_miss = math.inf  # min (f - sigma) - beta^2 sigma over missing sets
    for i in range(100):
        p = 4 + i % 5
        q = 1 + (i // 5) % 3
        noise = IID if (i // 15) % 2 == 0 else AR1
        dag = random_dag(p, q, seed=3_000 + i)
        model = build_model(dag, noise, seed=3_500 + i)
        beta2 = model.constants.beta**2
        sigma = model.noise.psd(GRID8)
        phis = [exact_psdm(model, omega) for omega in GRID8]
        parents = {j: frozenset(a for a, b in dag.edges if b == j) for j in range(p)}
        for j in range(p):
            others = [v for v in range(p) if v != j]
            for size in range(0, 5):
                for c in combinations(others, size):
                    cset = frozenset(c)
                    if not all(parents[v] <= cset for v in cset):
                        continue  # not ancestral
                    covers = parents[j] <= cset
                    for wi, omega in enumerate(GRID8):
                        f = cpsd_f(phis[wi], j, c, omega).value
                        if covers:
                            n_cover += 1
                            dev = abs(f - sigma[wi])
                            worst_cover = max(worst_cover, dev)
                            assert dev <= 1e-8, (
                                f"f != sigma for covering ancestral set: model {i}, "
                                f"j={j}, C={c}, omega index {wi}, |f-sigma|={dev:.3e}"
                            )
                        else:
                            n_miss += 1
                            margin = (f - sigma[wi]) - beta2 * sigma[wi]
                            worst_miss = min(worst_miss, margin)
                            assert margin >= -1e-8, (
                                f"deficit below beta^2*sigma floor: model {i}, "
                                f"j={j}, C={c}, omega index {wi}, margin={margin:.3e}"
                            )
    elapsed = time.perf_counter() - t0
    assert n_cover > 0 and n_miss > 0
    assert elapsed < 60.0, f"budget 1 min exceeded: {elapsed:.1f}s"
    print(
        f"\nPASS conditional-PSD dichotomy: {n_cover} covering evals "
        f"(max |f-sigma| {worst_cover:.2e}), {n_miss} missing-parent evals "
        f"(min floor margin {worst_miss:.2e}) ({elapsed:.1f}s)"
    )


def test_03_source_nodes_minimize_diagonal_psd():
    # The argmin set of the population diagonal PSD is exactly the source set,
    # for 200 models at every grid frequency.
    t0 = time.perf_counter()
    checks = 0
    for i in range(200):
        p = 5 + i % 6
        q = 1 + (i // 6) % 3
        noise = IID if (i // 18) % 2 == 0 else AR1
        dag = random_dag(p, q, seed=5_000 + i)
        model = build_model(dag, noise, seed=5_500 + i)
        sources = set(source_nodes(dag))
        for omega in GRID8:
            diag = exact_psdm(model, omega).diagonal().real
            argmin = {v for v in range(p) if diag[v] <= diag.min() + 1e-9}
            assert argmin == sources, (
                f"model {i} omega={omega:.3f}: argmin {sorted(argmin)} "
                f"vs sources {sorted(sources)}"
            )
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\nPASS source-node argmin: {checks} (model, frequency) checks ({elapsed:.1f}s)")


def _mc_mean_and_se(model, strategy, n, num_samples, omega, seed):
    """Stream n periodogram replicates; per-entry MC mean and standard error."""
    w = np.exp(-1j * omega * np.arange(num_samples)) / math.sqrt(num_samples)
    p = model.p
    s1 = np.zeros((p, p), dtype=complex)
    s2_re = np.zeros((p, p))
    s2_im = np.zeros((p, p))
    for block in iter_trajectory_blocks(model, strategy, n, num_samples, seed):
        xw = np.tensordot(block, w, axes=([1], [0]))  # (rows, p)
        z = xw[:, :, None] * np.conj(xw)[:, None, :]
        s1 += z.sum(axis=0)
        s2_re += (z.real**2).sum(axis=0)
        s2_im += (z.imag**2).sum(axis=0)
    mean = s1 / n
    var_re = np.maximum(s2_re / n - mean.real**2, 0.0)
    var_im = np.maximum(s2_im / n - mean.imag**2, 0.0)
    return mean, np.sqrt(var_re / n), np.sqrt(var_im / n)


def test_04_estimator_calibration_five_standard_errors():
    # (a) With B = 0 and IID noise the mean estimate over 1e5 independent
    # trajectories matches sigma_w * I entrywise within 5 MC standard errors.
    # (b) With a structured p=3 model it matches the finite-N expected PSDM.
    t0 = time.perf_counter()
    n = 100_000

    dag0 = random_dag(4, 0, seed=909)
    model0 = build_model(dag0, IID, seed=909)
    assert not dag0.edges and np.all(model0.b == 0.0)
    omega = 2.0 * np.pi * 5.0 / 64.0
    mean, se_re, se_im = _mc_mean_and_se(model0, "restart_record", n, 64, omega, seed=41)
    target = model0.noise.sigma_w * np.eye(4)
    dev_re = np.abs(mean.real - target)
    dev_im = np.abs(mean.imag)
    assert np.all(dev_re <= 5.0 * se_re + 1e-12), (
        f"white-noise real part off by {np.max(dev_re - 5.0 * se_re):.3e} beyond 5 SE"
    )
    assert np.all(dev_im <= 5.0 * se_im + 1e-12)
    z_white = np.max(dev_re / np.maximum(se_re, 1e-300))

    dag3 = random_dag(3, 1, seed=910)
    model3 = build_model(dag3, IID, seed=910)
    omega3 = 2.0 * np.pi * 3.0 / 32.0
    mean3, se3_re, se3_im = _mc_mean_and_se(model3, "restart_record", n, 32, omega3, seed=42)
    target3 = expected_psdm_finite_n(model3, omega3, 32)
    dev3_re = np.abs(mean3.real - target3.real)
    dev3_im = np.abs(mean3.imag - target3.imag)
    assert np.all(dev3_re <= 5.0 * se3_re + 1e-12), (
        f"structured real part off by {np.max(dev3_re - 5.0 * se3_re):.3e} beyond 5 SE"
    )
    assert np.all(dev3_im <= 5.0 * se3_im + 1e-12), (
        f"structured imag part off by {np.max(dev3_im - 5.0 * se3_im):.3e} beyond 5 SE"
    )
    z_struct = max(
        np.max(dev3_re / np.maximum(se3_re, 1e-300)),
        np.max(dev3_im / np.maximum(se3_im, 1e-300)),
    )

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"budget 5 min exceeded: {elapsed:.1f}s"
    print(
        f"\nPASS estimator calibration at n={n}: worst |z| white {z_white:.2f}, "
        f"structured {z_struct:.2f} (limit 5) ({elapsed:.1f}s)"
    )


def test_05_tail_bound_dominates_empirical():
    # 1000 replicates per strategy at p=3, N=64, n=1e4: the empirical tail of
    # the spectral-norm estimation error sits below the closed-form bound at
    # every point of the 20-point t-grid.
    t0 = time.perf_counter()
    rows = tail_experiment(
        p=3,
        n=10_000,
        num_samples=64,
        trials=1000,
        omega=2.0 * np.pi * 17.0 / 64.0,
        seed=424242,
        q=2,
        noise=IID,
    )
    elapsed = time.perf_counter() - t0
    assert len(rows) == 20 and rows[0].t == 0.0
    for r in rows:
        assert r.empirical_restart_record <= r.bound, (
            f"restart_record tail above bound at t={r.t:.4f}: "
            f"{r.empirical_restart_record} > {r.bound}"
        )
        assert r.empirical_continuous <= r.bound, (
            f"continuous tail above bound at t={r.t:.4f}: "
            f"{r.empirical_continuous} > {r.bound}"
        )
    assert elapsed < 600.0, f"budget 10 min exceeded: {elapsed:.1f}s"
    print(
        f"\nPASS tail dominance: 2000 replicates, 20-point grid, "
        f"no violations ({elapsed:.1f}s)"
    )


def test_06_phase_transition_and_strategy_equivalence():
    # The full Monte Carlo sweep at p=10, q=2, N=64, 50 trials per cell, both
    # noise kinds and both sampling strategies: recovery <= 0.2 at the small
    # end of the n-grid, >= 0.9 at the large end, and the two strategies agree
    # within the binomial envelope in >= 90% of cells.
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        p=10,
        q=2,
        n_grid=(50, 100, 250, 500, 1000, 2000, 4000, 8000),
        noise=(IID, AR1),
        num_samples=64,
        omega_index=17,
        trials=50,
        seed=20260822,
    )
    records = run_experiment(cfg, zero_wall_times=True)
    elapsed = time.perf_counter() - t0
    by = {(r.noise, r.strategy, r.n): r.empirical_recovery for r in records}
    assert len(by) == 2 * 2 * len(cfg.n_grid)

    for noise in ("iid", "ar1"):
        for strategy in ("restart_record", "continuous"):
            low = by[(noise, strategy, cfg.n_grid[0])]
            high = by[(noise, strategy, cfg.n_grid[-1])]
            assert low <= 0.2, f"{noise}/{strategy}: recovery {low} at n={cfg.n_grid[0]}"
            assert high >= 0.9, f"{noise}/{strategy}: recovery {high} at n={cfg.n_grid[-1]}"

    envelope = 6.0 * math.sqrt(0.25 / cfg.trials)  # 3 sigma for each of two proportions
    gaps = [
        abs(by[(noise, "restart_record", n)] - by[(noise, "continuous", n)])
        for noise in ("iid", "ar1")
        for n in cfg.n_grid
    ]
    within = sum(g <= envelope for g in gaps)
    needed = math.ceil(0.9 * len(gaps))
    assert within >= needed, (
        f"strategies disagree beyond {envelope:.3f} in {len(gaps) - within} of "
        f"{len(gaps)} cells (allowed {len(gaps) - needed})"
    )
    assert elapsed < 1800.0, f"budget 30 min exceeded: {elapsed:.1f}s"
    print(
        f"\nPASS phase transition: all 4 curves 0->1, strategy gap within "
        f"{envelope:.3f} in {within}/{len(gaps)} cells, max gap {max(gaps):.3f} "
        f"({elapsed:.1f}s)"
    )


def test_07_bound_values_and_scalings():
    # Closed-form calculators against independent re-derivations: the frozen
    # necessary-n value to 1e-9, exact M^6 and eps^-2 scalings of the
    # sufficient-n bound, and the frozen trajectory-length value.
    t0 = time.perf_counter()
    v = min_samples_lower_bound(p=10, q=2, beta=0.5, m_bound=2.0, delta=0.1)
    independent = (1.0 - 0.2) * max(
        math.log(10.0) / (2 * 0.25 + 0.5**4),
        2.0 * math.log(5.0) / (4.0 - 1.0),
    )
    assert abs(v - independent) <= 1e-9, f"{v} vs {independent}"

    lo = sufficient_samples_upper_bound(p=10, q=2, m_bound=1.5, epsilon2=0.5, delta=0.1)
    hi = sufficient_samples_upper_bound(p=10, q=2, m_bound=3.0, epsilon2=0.5, delta=0.1)
    assert hi / lo == 64.0  # (M doubled) -> exactly 2^6
    fine = sufficient_samples_upper_bound(p=10, q=2, m_bound=1.5, epsilon2=0.25, delta=0.1)
    assert fine / lo == 4.0  # (eps halved) -> exactly 2^2

    n_min = min_trajectory_length(c_decay=1.0, rho=2.0, epsilon1=0.1)
    assert n_min == 41, f"trajectory length {n_min}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"\nPASS bounds: necessary-n {v:.12f} (|diff| "
        f"{abs(v - independent):.1e}), scalings 64.0 / 4.0 exact, "
        f"trajectory length 41 ({elapsed * 1e3:.0f}ms)"
    )


def _all_dags(p):
    """Every labeled DAG on p nodes (1, 3, 25 graphs for p = 1, 2, 3)."""
    arcs = [(a, b) for a in range(p) for b in range(p) if a != b]
    for mask in range(1 << len(arcs)):
        edges = frozenset(arcs[k] for k in range(len(arcs)) if mask >> k & 1)
        try:
            order = canonical_order(p, edges)
        except ConfigError:
            continue  # cyclic
        yield Dag(p, edges, order)


def test_08_search_reduction_gives_same_order():
    # Restricting the ordering scan to conditioning sets of size exactly
    # min(|prefix|, q) picks the same node sequence as searching all subsets
    # of size <= q: exhaustively for p <= 3, and on 100 random models p 4..7.
    t0 = time.perf_counter()
    cases = [dag for p in (1, 2, 3) for dag in _all_dags(p)]
    assert len(cases) == 1 + 3 + 25
    for i in range(100):
        p = 4 + i % 4
        q = 1 + (i // 4) % 3
        cases.append(random_dag(p, q, seed=30_000 + i))

    compared = 0
    for idx, dag in enumerate(cases):
        model = build_model(dag, IID if idx % 2 == 0 else AR1, seed=40_000 + idx)
        q = min(max(1, max_in_degree(dag)), dag.p - 1) if dag.p > 1 else 0
        for omega in GRID8[::2]:
            mat = exact_psdm(model, omega)
            params = ReconstructionParams(q=q, gamma=1.0, omega=omega)
            order_fixed, _ = order_nodes(mat, params)
            order_all, _ = order_oracle(mat, q, omega, fixed_size=False)
            assert order_fixed == order_all, (
                f"case {idx} (p={dag.p}, q={q}) omega={omega:.3f}: "
                f"{order_fixed} vs {order_all}"
            )
            compared += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"budget 2 min exceeded: {elapsed:.1f}s"
    print(
        f"\nPASS search reduction: identical orders in {compared} comparisons "
        f"({len(cases)} graphs, 29 exhaustive) ({elapsed:.1f}s)"
    )


def test_09_recovery_gap_invariant_at_p20():
    # Supplementary module invariant (not one of the numbered criteria above):
    # the recovery curve must rise by at least 0.5 between the smallest and
    # largest n for every (noise, strategy) cell, at p=20 as well as p=10.
    # p=10 is covered by test_06; this runs the p=20 end at the grid edges.
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        p=20,
        q=2,
        n_grid=(50, 8000),
        noise=(IID, AR1),
        num_samples=64,
        omega_index=17,
        trials=50,
        seed=20260822,
    )
    records = run_experiment(cfg, zero_wall_times=True)
    elapsed = time.perf_counter() - t0
    by = {(r.noise, r.strategy, r.n): r.empirical_recovery for r in records}
    gaps = {}
    for noise in ("iid", "ar1"):
        for strategy in ("restart_record", "continuous"):
            gap = by[(noise, strategy, 8000)] - by[(noise, strategy, 50)]
            gaps[(noise, strategy)] = gap
            assert gap >= 0.5, f"{noise}/{strategy}: recovery gap only {gap:.2f}"
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        f"\nPASS p=20 recovery gap: min gap {min(gaps.values()):.2f} "
        f"across 4 cells ({elapsed:.1f}s)"
    )
