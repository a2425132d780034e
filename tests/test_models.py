"""Model construction and the analytic spectral oracles.

The Monte Carlo cross-checks here use a naive in-test state recursion,
written independently of the package's samplers, so the analytic formulas
and the simulation code cannot share a bug.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from spectradag.errors import ConfigError, NumericalError
from spectradag.graphs import Dag, random_dag
from spectradag.linalg import hermitian_residual, spectral_norm
from spectradag.models import (
    LdsModel,
    NoiseSpec,
    _fit_decay,
    autocorr,
    build_model,
    dft_covariance,
    exact_psdm,
    expected_psdm_finite_n,
    model_from_json,
    model_to_json,
)

CHAIN2 = Dag(p=2, edges=frozenset({(0, 1)}), order=(0, 1))
IID = NoiseSpec(kind="iid", sigma_w=0.5)
AR1 = NoiseSpec(kind="ar1", sigma_w=0.5, alpha=0.5)


def naive_trajectories(model, n_traj, length, rng, discard=100):
    """Zero-init state recursion with burn-in; independent of the package samplers."""
    p = model.dag.p
    b = model.b
    alpha = model.noise.alpha if model.noise.kind == "ar1" else 0.0
    sd = np.sqrt(model.noise.sigma_w)
    x = np.zeros((n_traj, p))
    e = np.zeros((n_traj, p))
    out = np.empty((n_traj, length, p))
    for t in range(discard + length):
        w = sd * rng.standard_normal((n_traj, p))
        e = alpha * e + w
        x = x @ b.T + e
        if t >= discard:
            out[:, t - discard, :] = x
    return out


class TestNoiseSpec:
    def test_iid_psd_is_flat(self):
        for omega in (0.0, 1.0, np.pi):
            assert IID.psd(omega) == pytest.approx(0.5)

    def test_ar1_psd_rational_form(self):
        omega = 1.3
        denom = abs(1.0 - 0.5 * np.exp(-1j * omega)) ** 2
        assert AR1.psd(omega) == pytest.approx(0.5 / denom, rel=1e-12)

    def test_ar1_psd_vectorized(self):
        grid = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
        vals = AR1.psd(grid)
        assert vals.shape == (9,)
        assert np.all(vals > 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="white", sigma_w=0.5)
        with pytest.raises(ConfigError):
            NoiseSpec(kind="iid", sigma_w=0.0)
        for sigma_w in (np.inf, -np.inf, np.nan):
            with pytest.raises(ConfigError):
                NoiseSpec(kind="iid", sigma_w=sigma_w)
        with pytest.raises(ConfigError):
            NoiseSpec(kind="ar1", sigma_w=0.5, alpha=1.0)
        with pytest.raises(ConfigError):
            NoiseSpec(kind="iid", sigma_w=0.5, alpha=0.3)


class TestBuildModel:
    def test_empty_edge_set(self):
        g = Dag(p=3, edges=frozenset(), order=(0, 1, 2))
        model = build_model(g, IID, seed=0)
        assert np.all(model.b == 0.0)
        phi = exact_psdm(model, 1.0)
        np.testing.assert_allclose(phi, IID.psd(1.0) * np.eye(3), atol=1e-12)

    def test_single_edge_scaling(self):
        # |w|/(1.002*|w|) = 1/1.002 regardless of the drawn magnitude
        for seed in range(10):
            model = build_model(CHAIN2, IID, seed=seed)
            assert abs(model.b[1, 0]) == pytest.approx(1.0 / 1.002, abs=1e-12)

    def test_norm_after_scaling(self):
        model = build_model(random_dag(10, 2, seed=4), IID, seed=9)
        assert spectral_norm(model.b) == pytest.approx(1.0 / 1.002, abs=1e-9)

    def test_support_matches_dag(self):
        g = random_dag(8, 3, seed=2)
        model = build_model(g, AR1, seed=11)
        nz = {(j, i) for i in range(8) for j in range(8) if model.b[i, j] != 0.0}
        assert nz == set(g.edges)

    def test_beta_is_min_edge_magnitude(self):
        g = random_dag(6, 2, seed=1)
        model = build_model(g, IID, seed=3)
        mags = [abs(model.b[i, j]) for j, i in g.edges]
        assert model.constants.beta == pytest.approx(min(mags), abs=1e-15)
        assert model.constants.beta > 0

    def test_deterministic(self):
        g = random_dag(7, 2, seed=0)
        a = build_model(g, IID, seed=5)
        b = build_model(g, IID, seed=5)
        np.testing.assert_array_equal(a.b, b.b)

    def test_psdm_eigs_within_m_bound(self):
        for seed in range(5):
            g = random_dag(6, 2, seed=seed)
            model = build_model(g, AR1 if seed % 2 else IID, seed=seed + 50)
            m = model.constants.m_bound
            assert m >= 1.0
            for omega in 2 * np.pi * np.arange(64) / 64:
                eigs = np.linalg.eigvalsh(exact_psdm(model, omega))
                assert eigs.min() >= 1.0 / m - 1e-9
                assert eigs.max() <= m + 1e-9

    @pytest.mark.parametrize("noise", [IID, AR1, NoiseSpec("ar1", sigma_w=1e10, alpha=0.3)])
    def test_constants_match_per_frequency_loop(self, noise):
        # build_model and exact_psdm stack the grid PSDMs and the lag Grams;
        # one matrix at a time must give the same bits
        for p in (1, 2, 5, 12, 20):
            dags = [Dag(p=p, edges=frozenset(), order=tuple(range(p)))]
            dags += [random_dag(p, q, seed=p + q) for q in (1, 3) if q < p]
            for dag, grid in itertools.product(dags, (None, [0.0, 1.0, np.pi], [])):
                model = build_model(dag, noise, seed=p, omega_grid=grid)
                m_bound = 1.0
                for omega in 2 * np.pi * np.arange(64) / 64 if grid is None else grid:
                    t = np.linalg.solve(
                        np.eye(p) - model.b * np.exp(-1j * omega), np.eye(p, dtype=complex)
                    )
                    phi = noise.psd(omega) * (t @ t.conj().T)
                    phi = 0.5 * (phi + phi.conj().T)
                    assert np.array_equal(exact_psdm(model, omega), phi)
                    eigs = np.linalg.eigvalsh(phi)
                    m_bound = max(m_bound, float(eigs[-1]), float(1.0 / eigs[0]))
                grams = [r.conj().T @ r for r in autocorr(model, 64).astype(complex)]
                norms = np.array([np.sqrt(max(np.max(np.linalg.eigvalsh(g)), 0.0)) for g in grams])
                assert model.constants.m_bound == m_bound
                assert (model.constants.c_decay, model.constants.rho) == _fit_decay(norms)

    def test_autocorr_decay_bound_holds(self):
        for seed, noise in [(0, IID), (1, AR1), (2, AR1)]:
            model = build_model(random_dag(5, 2, seed=seed), noise, seed=seed)
            c, rho = model.constants.c_decay, model.constants.rho
            assert rho > 1.0
            rr = autocorr(model, 64)
            for k in range(65):
                assert spectral_norm(rr[k]) <= c * rho ** (-k) + 1e-12


class TestExactPsdm:
    def test_pure_noise(self):
        g = Dag(p=3, edges=frozenset(), order=(0, 1, 2))
        model = build_model(g, AR1, seed=0)
        omega = 2.2
        np.testing.assert_allclose(
            exact_psdm(model, omega), AR1.psd(omega) * np.eye(3), atol=1e-12
        )

    def test_two_node_chain_closed_form(self):
        model = build_model(CHAIN2, IID, seed=8)
        b = model.b[1, 0]
        sigma = IID.psd(0.0)
        for omega in (0.0, 0.9, 2 * np.pi * 17 / 64):
            phi = exact_psdm(model, omega)
            assert phi[0, 0] == pytest.approx(sigma, abs=1e-12)
            assert phi[1, 1] == pytest.approx(sigma * (1 + b * b), abs=1e-12)
            want = sigma * b * np.exp(-1j * omega)
            assert phi[1, 0] == pytest.approx(want, abs=1e-12)

    def test_matches_inverse_oracle(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            model = build_model(random_dag(3, 2, seed=seed), IID, seed=seed)
            omega = float(rng.uniform(0, 2 * np.pi))
            t = np.linalg.inv(np.eye(3) - model.b * np.exp(-1j * omega))
            want = IID.psd(omega) * (t @ t.conj().T)
            np.testing.assert_allclose(exact_psdm(model, omega), want, atol=1e-10)

    def test_hermitian_pd(self):
        model = build_model(random_dag(7, 3, seed=12), AR1, seed=12)
        for omega in (0.1, 1.7, 4.4):
            phi = exact_psdm(model, omega)
            assert hermitian_residual(phi) <= 1e-10 * (1 + np.max(np.abs(phi)))
            assert np.linalg.eigvalsh(phi).min() > 0


class TestAutocorr:
    def test_pure_iid_noise(self):
        g = Dag(p=2, edges=frozenset(), order=(0, 1))
        model = build_model(g, IID, seed=0)
        rr = autocorr(model, 3)
        np.testing.assert_allclose(rr[0], 0.5 * np.eye(2), atol=1e-12)
        for k in (1, 2, 3):
            np.testing.assert_allclose(rr[k], 0.0, atol=1e-12)

    def test_scalar_ar1_closed_form(self):
        g = Dag(p=1, edges=frozenset(), order=(0,))
        model = build_model(g, AR1, seed=0)
        rr = autocorr(model, 6)
        for k in range(7):
            want = 0.5 * 0.5**k / (1 - 0.25)
            assert rr[k][0, 0] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("noise", [IID, AR1], ids=["iid", "ar1"])
    def test_monte_carlo_oracle(self, noise):
        model = build_model(random_dag(3, 2, seed=6), noise, seed=6)
        rng = np.random.default_rng(1234)
        n_traj, length = 2000, 500
        data = naive_trajectories(model, n_traj, length, rng)
        want = autocorr(model, 2)
        for k in range(3):
            # per-trajectory lag-k autocovariance, then mean and SE across trajectories
            per = np.einsum("ntp,ntq->npq", data[:, k:, :], data[:, : length - k, :])
            per /= length - k
            mean = per.mean(axis=0)
            se = per.std(axis=0, ddof=1) / np.sqrt(n_traj)
            assert np.all(np.abs(mean - want[k]) <= 5 * se + 1e-12)

    def test_shape(self):
        model = build_model(random_dag(4, 1, seed=0), IID, seed=0)
        assert autocorr(model, 10).shape == (11, 4, 4)

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 0.95])
    @pytest.mark.parametrize("sigma_w", [1e-12, 0.5, 1e10])
    def test_double_sum_oracle(self, sigma_w, alpha):
        # x(t) = sum_{j<p} B^j e(t-j) and E[e(t+h) e(t)^T] = sigma_w alpha^|h| / (1 - alpha^2),
        # so R(h) = sigma_w / (1 - alpha^2) sum_{j,k<p} alpha^|h-j+k| B^j B^kT
        noise = NoiseSpec("ar1", sigma_w, alpha) if alpha else NoiseSpec("iid", sigma_w)
        for p in (1, 5, 10, 20):
            edges = frozenset((i, i + 1) for i in range(p - 1))
            path = Dag(p=p, edges=edges, order=tuple(range(p)))
            for dag in (path, random_dag(p, min(3, p - 1), seed=p)):
                model = build_model(dag, noise, seed=p)
                powers = [np.linalg.matrix_power(model.b, j) for j in range(p)]
                want = np.zeros((71, p, p))
                for h in range(71):
                    for j, k in itertools.product(range(p), repeat=2):
                        want[h] += alpha ** abs(h - j + k) * (powers[j] @ powers[k].T)
                want *= sigma_w / (1.0 - alpha**2)
                got = autocorr(model, 70)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_second_order_statistics_are_unit_free(self):
        # the noise variance only scales R, its Fejer sum and c_decay, and leaves rho
        omega = 2 * np.pi * 17 / 64
        for p, q, kind, alpha in [(6, 2, "iid", 0.0), (10, 3, "ar1", 0.6), (10, 1, "ar1", 0.95)]:
            stats = []
            for sigma_w in (1e-12, 1.0, 1e12):
                noise = NoiseSpec(kind, sigma_w, alpha)
                model = build_model(random_dag(p, q, seed=p), noise, seed=q)
                stats.append([
                    autocorr(model, 70) / sigma_w,
                    expected_psdm_finite_n(model, omega, 64) / sigma_w,
                    model.constants.c_decay / sigma_w,
                    model.constants.rho,
                ])
            for got in stats[::2]:
                for a, b in zip(got, stats[1]):
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestExpectedPsdmFiniteN:
    def test_pure_noise_every_n(self):
        g = Dag(p=3, edges=frozenset(), order=(0, 1, 2))
        model = build_model(g, IID, seed=0)
        for n_samples in (1, 4, 64):
            out = expected_psdm_finite_n(model, 1.1, n_samples)
            np.testing.assert_allclose(out, 0.5 * np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("noise", [IID, AR1], ids=["iid", "ar1"])
    def test_converges_to_exact(self, noise):
        model = build_model(random_dag(5, 2, seed=3), noise, seed=3)
        omega = 2 * np.pi * 17 / 64
        approx = expected_psdm_finite_n(model, omega, 4096)
        exact = exact_psdm(model, omega)
        assert spectral_norm(approx - exact) <= 1e-2

    def test_hermitian(self):
        model = build_model(random_dag(4, 2, seed=9), AR1, seed=9)
        out = expected_psdm_finite_n(model, 0.7, 32)
        assert hermitian_residual(out) <= 1e-10 * (1 + np.max(np.abs(out)))

    def test_finite_n_bias_is_real(self):
        # at small N the expected estimate differs from the limiting PSDM
        model = build_model(random_dag(4, 2, seed=2), AR1, seed=2)
        omega = 2 * np.pi * 17 / 64
        small = expected_psdm_finite_n(model, omega, 8)
        assert spectral_norm(small - exact_psdm(model, omega)) > 1e-4


class TestDftCovariance:
    @pytest.mark.parametrize(
        "noise, num_samples, omega",
        [(AR1, 4, 0.3), (IID, 8, np.pi / 8), (AR1, 16, 2 * np.pi * 3 / 16), (AR1, 1, 0.3)],
        ids=["ar1-4", "iid-8", "ar1-16-grid", "ar1-1"],
    )
    def test_monte_carlo_oracle(self, noise, num_samples, omega):
        # Cov([Re X; Im X]) of the DFT X of naively simulated windows
        model = build_model(random_dag(3, 2, seed=7), noise, seed=7)
        n_traj = 20000
        data = naive_trajectories(model, n_traj, num_samples, np.random.default_rng(99))
        phase = np.exp(-1j * omega * np.arange(num_samples)) / np.sqrt(num_samples)
        xw = np.einsum("ntp,t->np", data, phase)
        z = np.concatenate([xw.real, xw.imag], axis=1)
        per = z[:, :, None] * z[:, None, :]
        se = per.std(axis=0, ddof=1) / np.sqrt(n_traj)
        want = dft_covariance(model, omega, num_samples)
        assert np.all(np.abs(per.mean(axis=0) - want) <= 5 * se + 1e-12 * np.max(want))

    @pytest.mark.parametrize("noise", [IID, AR1], ids=["iid", "ar1"])
    def test_blocks_sum_to_expected_psdm(self, noise):
        # E[X X^*] = Cov(Re X) + Cov(Im X) + i (Cov(Im X, Re X) - Cov(Re X, Im X))
        for p in (3, 10, 20):
            model = build_model(random_dag(p, 2, seed=p), noise, seed=p)
            for num_samples, omega in [(1, 0.4), (64, 2 * np.pi * 17 / 64), (32, np.pi)]:
                cov = dft_covariance(model, omega, num_samples)
                assert np.array_equal(cov, cov.T)
                assert np.min(np.linalg.eigvalsh(cov)) >= -1e-14 * np.max(cov)
                re_im = cov[:p, p:]
                got = cov[:p, :p] + cov[p:, p:] + 1j * (re_im.T - re_im)
                want = expected_psdm_finite_n(model, omega, num_samples)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestModelJson:
    def test_round_trip(self):
        model = build_model(random_dag(6, 2, seed=7), AR1, seed=7)
        back = model_from_json(model_to_json(model))
        assert isinstance(back, LdsModel)
        np.testing.assert_array_equal(model.b, back.b)
        assert back.dag.edges == model.dag.edges
        assert back.noise == model.noise
        assert back.constants.m_bound == pytest.approx(model.constants.m_bound)

    @pytest.mark.parametrize("field", ["p", "edge", "order"])
    def test_non_integer_entries_rejected(self, field):
        # 3.9 must not load as 3, nor an edge [0.5, 1] as (0, 1)
        model = build_model(random_dag(4, 1, seed=1), IID, seed=1)
        doc = json.loads(model_to_json(model))
        if field == "p":
            doc["p"] = 4.9
        elif field == "edge":
            doc["edges"][0][0] += 0.5
        else:
            doc["order"][0] += 0.25
        with pytest.raises(ConfigError, match="must be an integer"):
            model_from_json(json.dumps(doc))

    def test_support_mismatch_rejected(self):
        model = build_model(random_dag(3, 1, seed=0), IID, seed=0)
        bad = model_to_json(model).replace('"p": 3', '"p": 3') # structural no-op
        model_from_json(bad)  # sanity: unmodified text parses
        with pytest.raises((ConfigError, NumericalError)):
            LdsModel(
                dag=Dag(p=2, edges=frozenset({(0, 1)}), order=(0, 1)),
                b=np.zeros((2, 2)),
                noise=IID,
                constants=model.constants,
            )
