"""Spectral estimation and the conditional-PSD metric.

Oracles: explicit inverse-based Schur complements, closed forms for the
two-node chain, and a brute-force deficit enumeration over itertools
subsets. The closed-form deficit must match these.
"""

import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from spectradag.cpsd import (
    CpsdValue,
    PsdmEstimate,
    _dft_block,
    cpsd_deficit,
    cpsd_f,
    cpsd_fs,
    default_gamma,
    estimate_psdm,
    load_psdm,
    sample_psdm,
    save_psdm,
)
from spectradag.errors import ConfigError, NumericalError
from spectradag.graphs import (
    Dag,
    is_ancestral,
    random_dag,
    source_nodes,
    structural_queries,
)
from spectradag.models import (
    NoiseSpec,
    build_model,
    exact_psdm,
    expected_psdm_finite_n,
)
from spectradag.seeding import seed_path
from .test_linalg import naive_dft
from spectradag.simulate import TrajectorySet, simulate

IID = NoiseSpec("iid", sigma_w=0.5)
AR1 = NoiseSpec("ar1", sigma_w=0.5, alpha=0.5)
GRID8 = 2.0 * np.pi * np.arange(8) / 8.0

CHAIN2 = Dag(p=2, edges=frozenset({(0, 1)}), order=(0, 1))


def schur_oracle(matrix, i, cond):
    """f(i, C, w) by explicit matrix inverse."""
    if not cond:
        return matrix[i, i].real
    idx = sorted(cond)
    a = matrix[np.ix_(idx, idx)]
    b = matrix[idx, i]
    val = matrix[i, i] - np.conj(b) @ np.linalg.inv(a) @ b
    return val.real


# Deficit-oracle inputs: p from 4 to 8, each with both noise kinds.
ORACLE_MODELS = [
    build_model(random_dag(4, 2, seed=1200 + k), IID if k % 2 else AR1, seed=1300 + k)
    for k in range(8)
] + [build_model(random_dag(5, 2, seed=1390), AR1, seed=1391)] + [
    build_model(random_dag(5 + k // 2, 2, seed=1210 + k), IID if k % 2 else AR1, seed=1310 + k)
    for k in range(8)
]


def deficit_oracle(model, grid, ancestral_only=False):
    """Brute-force min over (omega, j, C subset of nd(j) missing a parent)."""
    best = np.inf
    for j in range(model.p):
        q = structural_queries(model.dag, j)
        if not q.parents:
            continue
        nd = sorted(q.non_descendants)
        for r in range(len(nd) + 1):
            for c in combinations(nd, r):
                if not (q.parents - set(c)):
                    continue
                if ancestral_only and not is_ancestral(model.dag, c):
                    continue
                for w in grid:
                    f = cpsd_f(exact_psdm(model, w), j, c, w).value
                    best = min(best, f - float(model.noise.psd(w)))
    return best


class TestCpsdF:
    def test_empty_cond_is_diagonal_entry(self):
        model = build_model(random_dag(5, 2, seed=3), IID, seed=3)
        phi = exact_psdm(model, 1.0)
        for i in range(5):
            out = cpsd_f(phi, i, frozenset(), 1.0)
            assert out.value == pytest.approx(phi[i, i].real, abs=1e-12)
            assert out.cond_set == frozenset()
            assert not out.ridge_applied

    def test_two_chain_closed_forms(self):
        model = build_model(CHAIN2, IID, seed=7)
        b = model.b[1, 0]
        s = IID.sigma_w
        for w in GRID8:
            phi = exact_psdm(model, w)
            assert cpsd_f(phi, 1, {0}, w).value == pytest.approx(s, abs=1e-10)
            assert cpsd_f(phi, 1, frozenset(), w).value == pytest.approx(
                s * (1 + b**2), abs=1e-10
            )
            assert cpsd_f(phi, 0, frozenset(), w).value == pytest.approx(s, abs=1e-10)

    def test_matches_inverse_oracle(self):
        rng = np.random.default_rng(11)
        for k in range(12):
            noise = IID if k % 2 else AR1
            model = build_model(random_dag(6, 2, seed=100 + k), noise, seed=200 + k)
            w = float(rng.uniform(0, 2 * np.pi))
            phi = exact_psdm(model, w)
            for _ in range(8):
                i = int(rng.integers(6))
                others = [v for v in range(6) if v != i]
                size = int(rng.integers(0, 5))
                cond = frozenset(rng.choice(others, size=size, replace=False).tolist())
                got = cpsd_f(phi, i, cond, w).value
                assert got == pytest.approx(schur_oracle(phi, i, cond), abs=1e-8)

    def test_node_in_cond_rejected(self):
        phi = np.eye(3, dtype=complex)
        with pytest.raises(ConfigError):
            cpsd_f(phi, 1, {1, 2}, 0.0)

    def test_out_of_range_rejected(self):
        phi = np.eye(3, dtype=complex)
        with pytest.raises(ConfigError):
            cpsd_f(phi, 3, set(), 0.0)
        with pytest.raises(ConfigError):
            cpsd_f(phi, 0, {5}, 0.0)

    def test_tiny_negative_clamped_and_flagged(self):
        phi = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-10]], dtype=complex)
        out = cpsd_f(phi, 1, {0}, 0.0)
        assert out.value == 0.0
        assert out.clamped

    def test_large_negative_raises(self):
        phi = np.array([[1.0, 1.0], [1.0, 0.9]], dtype=complex)
        with pytest.raises(NumericalError):
            cpsd_f(phi, 1, {0}, 0.0)

    def test_imaginary_residue_raises(self):
        # complex diagonal entry: f comes out non-real beyond tolerance
        phi = np.array([[1.0 + 1e-3j, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NumericalError):
            cpsd_f(phi, 0, {1}, 0.0)
        with pytest.raises(NumericalError):
            cpsd_f(phi, 0, frozenset(), 0.0)

    def test_ridge_flag_on_rank_deficient_estimate(self):
        model = build_model(random_dag(4, 1, seed=5), IID, seed=5)
        traj = simulate(model, "restart_record", 1, 32, seed=5)
        est = estimate_psdm(traj, 1.2)
        out = cpsd_f(est, 0, {1, 2, 3}, 1.2)  # rank-1 block: ridge must kick in
        assert out.ridge_applied
        assert out.value >= 0.0


class TestCpsdFs:
    """The multi-node kernel against its one-node case, bit for bit."""

    @staticmethod
    def assert_matches_single(m, nodes, cond, w):
        f, ridged, clamped = cpsd_fs(m, nodes, cond)
        assert f.shape == clamped.shape == (len(nodes),)
        assert f.dtype == float and clamped.dtype == bool and type(ridged) is bool
        for k, node in enumerate(nodes):
            one = cpsd_f(m, node, cond, w)
            assert float(f[k]).hex() == one.value.hex()
            assert ridged == one.ridge_applied
            assert bool(clamped[k]) == one.clamped
        return f, ridged, clamped

    def test_population_psdms(self):
        for k in range(12):
            noise = IID if k % 2 else AR1
            p = 4 + k % 5
            model = build_model(random_dag(p, 2, seed=1100 + k), noise, seed=1200 + k)
            w = float(GRID8[k % 8])
            phi = exact_psdm(model, w)
            for size in range(p):
                for cond in combinations(range(p), size):
                    nodes = [v for v in range(p) if v not in cond]
                    self.assert_matches_single(phi, nodes, cond, w)

    def test_large_conditioning_sets(self):
        # from 8 rows up numpy sums a lone column pairwise, not in order
        for k in range(4):
            model = build_model(random_dag(14, 3, seed=1150 + k), IID if k % 2 else AR1, seed=1250 + k)
            w = float(GRID8[1 + k])
            phi = exact_psdm(model, w)
            est = sample_psdm(model, "restart_record", 400, 16, w, seed=k)
            for size in range(8, 14):
                cond = sorted(np.random.default_rng(size + 20 * k).choice(14, size, replace=False).tolist())
                nodes = [v for v in range(14) if v not in cond]
                self.assert_matches_single(phi, nodes, cond, w)
                self.assert_matches_single(est, nodes, cond, w)

    def test_sample_psdms(self):
        for k in range(6):
            model = build_model(random_dag(7, 2, seed=1300 + k), AR1, seed=1400 + k)
            w = float(GRID8[3])
            est = sample_psdm(model, "restart_record", 60 + 40 * k, 16, w, seed=k)
            rng = np.random.default_rng(k)
            for size in range(1, 5):
                cond = sorted(rng.choice(7, size=size, replace=False).tolist())
                nodes = [v for v in range(7) if v not in cond]
                self.assert_matches_single(est, nodes, cond, w)

    def test_ridge_and_clamp_inputs(self):
        model = build_model(random_dag(4, 1, seed=5), IID, seed=5)
        est = estimate_psdm(simulate(model, "restart_record", 1, 32, seed=5), 1.2)
        _, ridged, _ = self.assert_matches_single(est, [0, 3], {1, 2}, 1.2)
        assert ridged
        phi = np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0 - 1e-10, 0.0], [0.0, 0.0, 1.0]], dtype=complex
        )
        f, _, clamped = self.assert_matches_single(phi, [1, 2], {0}, 0.0)
        assert clamped.tolist() == [True, False]
        assert f[0] == 0.0

    def test_tolerance_failure_names_its_node(self):
        phi = np.diag([1.0, 1.0, 1.0 + 1e-3j])
        with pytest.raises(NumericalError, match=r"f\(2,\[\]\)"):
            cpsd_fs(phi, [0, 1, 2], set())
        phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.5]], dtype=complex)
        with pytest.raises(NumericalError, match=r"f\(2,\[0\]\)"):
            cpsd_fs(phi, [1, 2], {0})

    def test_bad_nodes_rejected(self):
        phi = np.eye(3, dtype=complex)
        with pytest.raises(ConfigError):
            cpsd_fs(phi, [0, 1], {1, 2})
        with pytest.raises(ConfigError):
            cpsd_fs(phi, [0, 3], set())
        with pytest.raises(ConfigError):
            cpsd_fs(phi, [0, -1], {2})
        with pytest.raises(ConfigError):
            cpsd_fs(phi, [0, 1], {5})


class TestPopulationStructure:
    def test_ancestral_cond_gives_noise_psd(self):
        for k in range(30):
            noise = IID if k % 2 else AR1
            p = 4 + k % 4
            model = build_model(random_dag(p, 2, seed=400 + k), noise, seed=500 + k)
            for w in GRID8[::3]:
                phi = exact_psdm(model, w)
                sigma = float(noise.psd(w))
                for i in range(p):
                    q = structural_queries(model.dag, i)
                    got = cpsd_f(phi, i, q.parents, w).value
                    assert got == pytest.approx(sigma, abs=1e-8)
                    got2 = cpsd_f(phi, i, q.ancestors, w).value
                    assert got2 == pytest.approx(sigma, abs=1e-8)

    def test_missing_parent_gap(self):
        # f(i,D,w) - f(i,C,w) >= deficit - 1e-8 when C covers Pa(i) and D misses one
        rng = np.random.default_rng(21)
        for k in range(15):
            model = build_model(random_dag(6, 2, seed=700 + k), IID, seed=800 + k)
            delta = cpsd_deficit(model, GRID8)
            for w in GRID8[::2]:
                phi = exact_psdm(model, w)
                for i in range(6):
                    q = structural_queries(model.dag, i)
                    if not q.parents:
                        continue
                    f_cov = cpsd_f(phi, i, q.parents, w).value
                    drop = rng.choice(sorted(q.parents))
                    missing = frozenset(q.parents - {drop})
                    f_miss = cpsd_f(phi, i, missing, w).value
                    assert f_miss - f_cov >= delta - 1e-8

    def test_monotone_in_cond_set(self):
        rng = np.random.default_rng(31)
        for k in range(10):
            model = build_model(random_dag(6, 3, seed=900 + k), AR1, seed=901 + k)
            w = float(rng.uniform(0, 2 * np.pi))
            phi = exact_psdm(model, w)
            for _ in range(10):
                i = int(rng.integers(6))
                others = [v for v in range(6) if v != i]
                size = int(rng.integers(0, 4))
                cond = frozenset(rng.choice(others, size=size, replace=False).tolist())
                base = cpsd_f(phi, i, cond, w).value
                for extra in set(others) - cond:
                    bigger = cpsd_f(phi, i, cond | {extra}, w).value
                    assert bigger <= base + 1e-9

    def test_source_nodes_minimize_diagonal(self):
        for k in range(40):
            noise = IID if k % 2 else AR1
            p = 5 + k % 5
            model = build_model(random_dag(p, 1 + k % 3, seed=1000 + k), noise, seed=1100 + k)
            sources = source_nodes(model.dag)
            for w in GRID8:
                phi = exact_psdm(model, w)
                diag = phi.diagonal().real
                sigma = float(noise.psd(w))
                argmin = {i for i in range(p) if diag[i] <= diag.min() + 1e-10}
                assert argmin == set(sources)
                assert diag[sorted(sources)[0]] == pytest.approx(sigma, abs=1e-8)


class TestDeficit:
    def test_two_chain_deficit_closed_form(self):
        model = build_model(CHAIN2, IID, seed=7)
        b = model.b[1, 0]
        got = cpsd_deficit(model, GRID8)
        assert got == pytest.approx(IID.sigma_w * b**2, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        grid = GRID8[::2]
        for model in ORACLE_MODELS:
            assert cpsd_deficit(model, grid) == pytest.approx(
                deficit_oracle(model, grid), abs=1e-10
            )

    def test_positive_and_dominated_by_ancestral(self):
        # the deficit is positive and never exceeds the same minimum taken
        # over ancestral conditioning sets only
        for k in range(20):
            noise = IID if k % 2 else AR1
            model = build_model(random_dag(6, 2, seed=1400 + k), noise, seed=1500 + k)
            delta = cpsd_deficit(model, GRID8)
            delta_anc = deficit_oracle(model, GRID8, ancestral_only=True)
            assert 0 < delta <= delta_anc + 1e-12

    def test_ancestral_deficit_beta_sq_sigma_floor(self):
        # provable form of the separation floor: over ancestral conditioning
        # sets, f - sigma >= beta^2 * sigma(omega) pointwise, hence the
        # restricted deficit is >= beta^2 * min sigma. The unrestricted
        # deficit, which threshold calibration uses because the ordering
        # search scans non-ancestral sets too, is positive but can drop
        # below this floor.
        for k in range(20):
            noise = IID if k % 2 else AR1
            model = build_model(random_dag(6, 2, seed=1400 + k), noise, seed=1500 + k)
            sigma_min = float(np.min(noise.psd(GRID8)))
            delta_anc = deficit_oracle(model, GRID8, ancestral_only=True)
            assert delta_anc >= model.constants.beta**2 * sigma_min - 1e-9

    def test_edgeless_model_rejected(self):
        model = build_model(Dag(p=3, edges=frozenset(), order=(0, 1, 2)), IID, seed=1)
        with pytest.raises(ConfigError, match="deficit undefined"):
            cpsd_deficit(model, GRID8)


class TestDefaultGamma:
    def test_half_deficit_for_small_p(self):
        model = build_model(CHAIN2, IID, seed=7)
        b = model.b[1, 0]
        assert default_gamma(model, GRID8) == pytest.approx(
            0.5 * IID.sigma_w * b**2, abs=1e-12
        )

    def test_half_deficit_for_large_p(self):
        # beyond the reach of brute-force enumeration: half of min over
        # (w, j, k in pa(j)) of f(j, nd(j) - {k}) - sigma, by explicit inverse
        for p in (15, 20):
            model = build_model(random_dag(p, 2, seed=2), AR1, seed=2)
            best = np.inf
            for w in GRID8:
                phi = exact_psdm(model, w)
                for k, j in model.dag.edges:
                    nd = structural_queries(model.dag, j).non_descendants
                    best = min(best, schur_oracle(phi, j, nd - {k}) - float(AR1.psd(w)))
            assert default_gamma(model, GRID8) == pytest.approx(0.5 * best, rel=1e-9)

    def test_edgeless_floor(self):
        model = build_model(Dag(p=2, edges=frozenset(), order=(0, 1)), IID, seed=3)
        assert default_gamma(model, GRID8) == pytest.approx(1e-9)


class TestDftBlock:
    @pytest.mark.parametrize("omega", [0.0, np.pi, 2 * np.pi * 17 / 64],
                             ids=["zero", "pi", "17of64"])
    @pytest.mark.parametrize("num_samples", [1, 2, 64])
    def test_matches_naive_dft(self, omega, num_samples):
        block = np.random.default_rng(num_samples).standard_normal((5, num_samples, 3))
        want = np.stack([naive_dft(row, omega) for row in block])
        np.testing.assert_allclose(_dft_block(block, omega), want, rtol=1e-12, atol=1e-12)
        est = estimate_psdm(TrajectorySet("restart_record", 5, num_samples, block, 0), omega)
        assert np.all(est.matrix.diagonal().imag == 0.0)
        scale = np.max(np.abs(est.matrix))
        assert np.max(np.abs(est.matrix - est.matrix.conj().T)) <= 1e-15 * scale


class TestEstimatePsdm:
    def test_single_trajectory_rank_one(self):
        model = build_model(random_dag(4, 2, seed=42), IID, seed=42)
        traj = simulate(model, "restart_record", 1, 16, seed=9)
        w = 0.7
        est = estimate_psdm(traj, w)
        x = naive_dft(traj.data[0], w)
        assert np.allclose(est.matrix, np.outer(x, np.conj(x)), atol=1e-12)
        eig = np.linalg.eigvalsh(est.matrix)
        assert eig.min() >= -1e-12
        assert np.sum(eig > 1e-12) == 1
        assert est.n == 1 and est.num_samples == 16

    def test_deterministic_and_golden(self):
        model = build_model(random_dag(3, 1, seed=8), IID, seed=8)
        w = 2 * np.pi * 5 / 16
        runs = []
        for _ in range(2):
            traj = simulate(model, "restart_record", 50, 16, seed=123)
            runs.append(estimate_psdm(traj, w).matrix)
        assert np.array_equal(runs[0], runs[1])
        digest = hashlib.sha256(np.round(runs[0], 10).tobytes()).hexdigest()
        # the diagonal is stored exactly real, so no entry rounds to -0.0j
        assert digest == "5280bca88f9ea3ded4aa0d510946fcad48a69f88a9e9cbfe62d84382067ca47c"

    def test_pure_noise_calibration(self):
        dag = Dag(p=3, edges=frozenset(), order=(0, 1, 2))
        model = build_model(dag, IID, seed=1)
        n = 20000
        traj = simulate(model, "restart_record", n, 16, seed=77)
        est = estimate_psdm(traj, 2 * np.pi * 5 / 16)
        s = IID.sigma_w
        se = s / np.sqrt(n)
        assert np.all(np.abs(est.matrix.diagonal().real - s) <= 5 * se)
        off = est.matrix[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) <= 5 * se)

    def test_matches_expected_finite_sample_psdm(self):
        model = build_model(random_dag(3, 1, seed=31), AR1, seed=31)
        w = 2 * np.pi * 3 / 8
        traj = simulate(model, "restart_record", 40000, 8, seed=55)
        est = estimate_psdm(traj, w)
        target = expected_psdm_finite_n(model, w, 8)
        err = np.linalg.norm(est.matrix - target, 2)
        assert err < 0.06

    def test_continuous_strategy(self):
        model = build_model(random_dag(4, 2, seed=12), AR1, seed=12)
        traj = simulate(model, "continuous", 200, 32, seed=13)
        est = estimate_psdm(traj, 1.5)
        assert est.matrix.shape == (4, 4)
        assert np.allclose(est.matrix, est.matrix.conj().T, atol=1e-12)

    def test_non_hermitian_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NumericalError):
            PsdmEstimate(omega=0.0, matrix=bad, n=1, num_samples=4)


class TestSamplePsdm:
    # restart_record draws the estimate from its law, equal in law only: see
    # TestLawDraw
    @pytest.mark.parametrize("n", [1, 3, 37, 2500])
    @pytest.mark.parametrize("strategy", ["continuous"])
    def test_streaming_equals_materialized(self, strategy, n):
        # at p=4, N=32 a sampling unit holds about 1000 rows, so n=2500
        # streams three blocks and the smaller n one partial block
        model = build_model(random_dag(4, 2, seed=61), AR1, seed=61)
        w = 2 * np.pi * 7 / 32
        direct = estimate_psdm(simulate(model, strategy, n, 32, seed=88), w)
        streamed = sample_psdm(model, strategy, n, 32, w, seed=88)
        assert np.array_equal(streamed.matrix, direct.matrix)
        assert streamed.n == n and streamed.num_samples == 32

    @pytest.mark.parametrize("strategy", ["restart_record", "continuous"])
    def test_memory_stays_bounded(self, strategy):
        # the trajectories alone are n*N*p float64 = 20 MB here; the
        # continuous pass holds one block and the DFT rows, the restart
        # draw its n*2p normals and the DFT rows
        model = build_model(random_dag(10, 2, seed=62), AR1, seed=62)
        sample_psdm(model, strategy, 50, 64, 0.3, seed=1)  # imports, first-call caches
        tracemalloc.start()
        try:
            sample_psdm(model, strategy, 4000, 64, 2 * np.pi * 17 / 64, seed=89)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("strategy", ["restart_record", "continuous"])
    def test_diagonal_exactly_real(self, strategy):
        # summing |x|^2 in complex arithmetic leaves ~1e-19 imaginary residue
        for k, noise in enumerate([IID, AR1]):
            model = build_model(random_dag(10, 2, seed=40 + k), noise, seed=40 + k)
            est = sample_psdm(model, strategy, 500, 64, 2 * np.pi * 17 / 64, seed=7)
            assert np.all(est.matrix.diagonal().imag == 0.0)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestLawDraw:
    """restart_record estimates drawn from their Gaussian law, against
    estimates of simulated trajectories as the independent oracle."""

    @pytest.mark.parametrize(
        "noise, p, n, num_samples, omega",
        [
            (IID, 6, 200, 32, 2 * np.pi * 5 / 32),
            # few short windows off the Fourier grid: E[X X^T] is far from 0 and
            # the estimate far from Gaussian, so a law that drops E[X X^T] fails
            (AR1, 4, 2, 4, 0.3),
        ],
        ids=["iid", "ar1-short-off-grid"],
    )
    def test_law_matches_trajectories(self, noise, p, n, num_samples, omega):
        # two-sample KS at level 0.01 on 400 estimates a side, fixed seeds
        draws = 400
        model = build_model(random_dag(p, 2, seed=70 + p), noise, seed=71 + p)
        expected = expected_psdm_finite_n(model, omega, num_samples)
        law = [
            sample_psdm(model, "restart_record", n, num_samples, omega, seed=(72, r)).matrix
            for r in range(draws)
        ]
        sim = [
            estimate_psdm(simulate(model, "restart_record", n, num_samples, (73, r)), omega).matrix
            for r in range(draws)
        ]
        critical = 1.628 * np.sqrt(2 / draws)
        for stat in (
            lambda m: np.linalg.norm(m - expected, 2),
            lambda m: m[0, 1].real,
            lambda m: m[0, 1].imag,
        ):
            assert ks_statistic([stat(m) for m in law], [stat(m) for m in sim]) < critical

    @pytest.mark.parametrize("num_samples, omega", [(1, 0.7), (16, np.pi)])
    def test_real_dft_gives_real_estimate(self, num_samples, omega):
        # at N = 1 and at omega = pi the DFT is real, so Sigma_Z is singular
        model = build_model(random_dag(5, 2, seed=74), AR1, seed=74)
        est = sample_psdm(model, "restart_record", 500, num_samples, omega, seed=75)
        assert np.all(np.isfinite(est.matrix))
        assert np.min(np.linalg.eigvalsh(est.matrix)) > 0
        assert np.max(np.abs(est.matrix.imag)) < 1e-12 * np.max(np.abs(est.matrix))

    def test_fewer_draws_than_nodes_cap_rank(self):
        model = build_model(random_dag(8, 2, seed=76), IID, seed=76)
        for n in (1, 3, 7):
            est = sample_psdm(model, "restart_record", n, 16, 2 * np.pi * 3 / 16, seed=n)
            assert np.linalg.matrix_rank(est.matrix) <= n

    def test_bad_arguments(self):
        model = build_model(random_dag(4, 2, seed=77), IID, seed=77)
        cases = [("bogus", 10, 16), ("restart_record", 0, 16), ("restart_record", 10, 0)]
        for strategy, n, num_samples in cases:
            with pytest.raises(ConfigError):
                sample_psdm(model, strategy, n, num_samples, 0.3, seed=1)

    def test_seeded(self):
        model = build_model(random_dag(6, 2, seed=78), AR1, seed=78)
        a, b, c = (sample_psdm(model, "restart_record", 200, 32, 0.9, seed=s) for s in (5, 5, 6))
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)


class TestConsistency:
    def test_error_shrinks_with_n(self):
        model = build_model(random_dag(3, 1, seed=91), IID, seed=91)
        w = 2 * np.pi * 3 / 16
        target = expected_psdm_finite_n(model, w, 16)
        sizes = (100, 1000, 10000)
        errs = {n: [] for n in sizes}
        for rep in range(100):
            for n in sizes:
                est = sample_psdm(
                    model, "restart_record", n, 16, w, seed=seed_path(999, rep, n)
                )
                errs[n].append(np.linalg.norm(est.matrix - target, 2))
        med = {n: float(np.median(errs[n])) for n in sizes}
        assert med[100] > med[1000] > med[10000]
        assert med[100] / med[10000] >= 5.0


class TestPsdmCsv:
    def test_round_trip(self, tmp_path):
        model = build_model(random_dag(4, 2, seed=14), AR1, seed=14)
        traj = simulate(model, "restart_record", 20, 16, seed=14)
        est = estimate_psdm(traj, 0.9)
        path = tmp_path / "psdm.csv"
        save_psdm(est, path)
        loaded = load_psdm(path)
        assert np.array_equal(loaded.matrix, est.matrix)
        assert loaded.omega == est.omega
        assert loaded.n == est.n and loaded.num_samples == est.num_samples

    def test_header_carries_metadata(self, tmp_path):
        est = PsdmEstimate(omega=0.25, matrix=np.eye(2, dtype=complex), n=7, num_samples=9)
        path = tmp_path / "psdm.csv"
        save_psdm(est, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("#")
        assert "omega=" in text[0] and "n=7" in text[0] and "N=9" in text[0]
        assert text[1] == "row,col,re,im"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("row,col,re,im\n0,0,1.0,0.0\n")
        with pytest.raises(ConfigError):
            load_psdm(path)
        # incomplete matrix: 2x2 implied but only three entries present
        path.write_text(
            "# omega=0.1,n=2,N=4\nrow,col,re,im\n"
            "0,0,1.0,0.0\n0,1,0.0,0.0\n1,0,0.0,0.0\n"
        )
        with pytest.raises(ConfigError):
            load_psdm(path)

    @pytest.mark.parametrize("omega", ["nan", "inf", "-inf"])
    def test_non_finite_omega_rejected(self, tmp_path, omega):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# omega={omega},n=2,N=4\nrow,col,re,im\n"
            "0,0,1.0,0.0\n0,1,0.1,0.0\n1,0,0.1,0.0\n1,1,2.0,0.0\n"
        )
        with pytest.raises(ConfigError, match="non-finite omega"):
            load_psdm(path)

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# omega=0.5,n=2,N=4\nrow,col,re,im\n"
            f"0,0,1.0,0.0\n0,1,{entry},0.0\n1,0,{entry},0.0\n1,1,2.0,0.0\n"
        )
        with pytest.raises(ConfigError, match="non-finite entry"):
            load_psdm(path)

    @pytest.mark.parametrize("counts", ["n=-4,N=0", "n=0,N=4", "n=2,N=0", "n=2,N=-1"])
    def test_sample_counts_below_one_rejected(self, tmp_path, counts):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"# omega=0.5,{counts}\nrow,col,re,im\n"
            "0,0,1.0,0.0\n0,1,0.1,0.0\n1,0,0.1,0.0\n1,1,2.0,0.0\n"
        )
        with pytest.raises(ConfigError, match="must be >= 1"):
            load_psdm(path)

    @pytest.mark.parametrize("n, num_samples", [(0, 4), (2, 0), (2.0, 4), (2, 4.5), ("2", 4)])
    def test_estimate_sample_counts_checked(self, n, num_samples):
        with pytest.raises(ConfigError):
            PsdmEstimate(omega=0.5, matrix=np.eye(2, dtype=complex), n=n, num_samples=num_samples)
        est = PsdmEstimate(0.5, np.eye(2, dtype=complex), np.int64(2), np.int32(4))
        assert type(est.n) is int and type(est.num_samples) is int

    def test_out_of_range_index_rejected(self, tmp_path):
        # a negative index would wrap around to the last row or column
        path = tmp_path / "bad.csv"
        header = "# omega=0.1,n=2,N=4\nrow,col,re,im\n"
        path.write_text(header + "0,0,1.0,0.0\n0,1,0.1,0.0\n1,0,0.1,0.0\n-1,1,2.0,0.0\n")
        with pytest.raises(ConfigError):
            load_psdm(path)
        path.write_text(header + "0,0,1.0,0.0\n0,-1,0.1,0.0\n1,0,0.1,0.0\n1,1,2.0,0.0\n")
        with pytest.raises(ConfigError):
            load_psdm(path)
