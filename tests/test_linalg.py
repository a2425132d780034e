"""Numeric core: the estimator's single-frequency DFT, Hermitian solves,
spectral norm, discrete Lyapunov fixed point.

Each routine is checked against an independently coded oracle (naive
summation, residual evaluation, power iteration, truncated matrix-power
series) before any property tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from spectradag.cpsd import _dft_block
from spectradag.errors import NumericalError
from spectradag.linalg import (
    hermitian_residual,
    hermitian_solve,
    lyapunov_solve,
    spectral_norm,
)


def naive_dft(samples: np.ndarray, omega: float) -> np.ndarray:
    """O(N) per-term direct summation, written independently of the package."""
    n = samples.shape[0]
    acc = np.zeros(samples.shape[1], dtype=complex)
    for k in range(n):
        acc = acc + samples[k] * complex(np.cos(omega * k), -np.sin(omega * k))
    return acc / np.sqrt(n)


def random_hermitian_pd(rng, dim: int, jitter: float = 0.5) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T + jitter * np.eye(dim)


def estimator_dft(samples: np.ndarray, omega: float) -> np.ndarray:
    """The estimator's DFT (`cpsd._dft_block`) of one (N, p) trajectory."""
    return _dft_block(samples[None], omega)[0]


class TestDftAt:
    def test_constant_signal_omega_zero(self):
        # sum of N equal vectors, normalized by sqrt(N)
        c = np.array([1.5, -2.0, 0.25])
        samples = np.tile(c, (16, 1))
        out = estimator_dft(samples, 0.0)
        np.testing.assert_allclose(out, np.sqrt(16) * c, rtol=1e-14)

    def test_single_sample_any_omega(self):
        x0 = np.array([0.3, -1.1])
        for omega in (0.0, 1.0, 5.9):
            np.testing.assert_allclose(estimator_dft(x0[None, :], omega), x0, rtol=0, atol=0)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(101)
        samples = rng.standard_normal((64, 5))
        for omega in (0.0, 0.7, 2 * np.pi * 17 / 64, 6.1):
            got = estimator_dft(samples, omega)
            want = naive_dft(samples, omega)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((32, 4))
        y = rng.standard_normal((32, 4))
        a, b = 1.7, -0.4
        omega = 1.23
        lhs = estimator_dft(a * x + b * y, omega)
        rhs = a * estimator_dft(x, omega) + b * estimator_dft(y, omega)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestHermitianSolve:
    def test_identity(self):
        b = np.array([1 + 2j, -0.5, 3j])
        np.testing.assert_allclose(hermitian_solve(np.eye(3), b), b, rtol=1e-14)

    def test_scalar_matrix(self):
        b = np.ones(3)
        np.testing.assert_allclose(hermitian_solve(2.0 * np.eye(3), b), 0.5 * b, rtol=1e-14)

    def test_residual_oracle_random_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_hermitian_pd(rng, 5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            y = hermitian_solve(a, b)
            residual = np.linalg.norm(a @ y - b)
            assert residual <= 1e-9 * np.linalg.norm(b)

    def test_solve_then_multiply_is_identity(self):
        rng = np.random.default_rng(12)
        for dim in (1, 2, 4, 8):
            a = random_hermitian_pd(rng, dim)
            b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            back = a @ hermitian_solve(a, b)
            assert np.linalg.norm(back - b) <= 1e-8 * np.linalg.norm(b)

    def test_non_hermitian_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            hermitian_solve(a, np.ones(2))

    # inf - inf in the Hermitian defect warns on its way to the NaN that is rejected
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_non_finite_input_rejected(self, bad, symmetric):
        # a NaN defect compares False against any tolerance, and the Cholesky
        # of a NaN matrix does not raise, so this once returned an all-NaN y
        a = np.array([[1.0, bad], [bad if symmetric else 0.0, 2.0]])
        with pytest.raises(NumericalError):
            hermitian_solve(a, np.eye(2))

    def test_singular_input_ridge_rescue(self):
        # rank-1 PSD matrix: pivot collapses, the ridge path must engage
        v = np.array([1.0, 1.0])
        a = np.outer(v, v)
        y, ridged = hermitian_solve(a, v.astype(complex), with_flag=True)
        assert ridged
        # ridge solution of a consistent system stays close to a true solution
        assert np.linalg.norm(a @ y - v) <= 1e-5

    def test_flag_false_on_well_conditioned(self):
        rng = np.random.default_rng(13)
        a = random_hermitian_pd(rng, 4)
        b = rng.standard_normal(4)
        _, ridged = hermitian_solve(a, b, with_flag=True)
        assert not ridged


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            got = spectral_norm(a)
            # independent power iteration on A*A
            m = a.conj().T @ a
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v /= np.linalg.norm(v)
            for _ in range(2000):
                v = m @ v
                v /= np.linalg.norm(v)
            want = np.sqrt(np.real(v.conj() @ m @ v))
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(22)

        def householder(dim):
            w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            return np.eye(dim) - 2.0 * np.outer(w, w.conj())

        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            u, v = householder(5), householder(5)
            np.testing.assert_allclose(
                spectral_norm(u @ a @ v), spectral_norm(a), rtol=1e-8
            )

    def test_nonsquare(self):
        a = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert spectral_norm(a) == pytest.approx(3.0, abs=1e-10)


class TestLyapunovSolve:
    def test_zero_transition(self):
        s = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(lyapunov_solve(np.zeros((2, 2)), s), s, atol=1e-12)

    def test_scalar_geometric_series(self):
        x = lyapunov_solve(np.array([[0.5]]), np.array([[1.0]]))
        assert x[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_nilpotent_direct_powers_oracle(self):
        rng = np.random.default_rng(31)
        for dim in (3, 5, 8):
            f = np.tril(rng.standard_normal((dim, dim)), k=-1)
            got = lyapunov_solve(f, np.eye(dim))
            # nilpotent transition: the series is the finite sum of F^k (F^k)^T
            want = np.zeros((dim, dim))
            fk = np.eye(dim)
            for _ in range(dim):
                want += fk @ fk.T
                fk = f @ fk
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            f = rng.standard_normal((4, 4))
            f *= 0.6 / max(spectral_norm(f), 1e-12)
            g = rng.standard_normal((4, 4))
            s = g @ g.T
            x = lyapunov_solve(f, s)
            resid = np.max(np.abs(x - f @ x @ f.T - s))
            assert resid <= 1e-10 * (1.0 + np.max(np.abs(s)))
            # solution is symmetric PSD
            np.testing.assert_allclose(x, x.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(x)) >= -1e-10

    def test_unstable_system_rejected(self):
        with pytest.raises(NumericalError, match="unstable system"):
            lyapunov_solve(np.array([[1.1]]), np.array([[1.0]]))


class TestHermitianResidual:
    def test_exactly_hermitian(self):
        a = np.array([[1.0, 2 - 1j], [2 + 1j, 3.0]])
        assert hermitian_residual(a) == 0.0

    def test_scaled_tolerance(self):
        # asymmetry just under the documented tolerance passes the invariant
        a = np.eye(3, dtype=complex)
        a[0, 1] = 5e-11
        assert hermitian_residual(a) <= 1e-10 * (1.0 + np.max(np.abs(a)))
