"""Numeric core: the estimator's single-frequency DFT, the Hermitian factor,
spectral norm.

Each routine is checked against an independently coded oracle (naive
summation, residual evaluation, power iteration) before any property
tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from spectradag.cpsd import _dft_block
from spectradag.errors import NumericalError
from spectradag.linalg import (
    hermitian_residual,
    hermitian_factor,
    require_hermitian,
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
    """`hermitian_factor`, the one factorisation behind every Hermitian solve."""

    @staticmethod
    def assert_factors(a, rel):
        chol, ridged = hermitian_factor(a)
        assert not ridged
        assert np.array_equal(chol, np.tril(chol))
        assert np.all(chol.diagonal().real > 0) and np.all(chol.diagonal().imag == 0)
        assert np.linalg.norm(chol @ chol.conj().T - a) <= rel * np.linalg.norm(a)
        return chol

    def test_identity(self):
        np.testing.assert_array_equal(self.assert_factors(np.eye(3), 0.0), np.eye(3))

    def test_scalar_matrix(self):
        chol = self.assert_factors(2.0 * np.eye(3), 1e-15)
        np.testing.assert_allclose(chol, np.sqrt(2.0) * np.eye(3), rtol=1e-15)

    def test_residual_oracle_random_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            self.assert_factors(random_hermitian_pd(rng, 5), 1e-13)

    def test_solve_then_multiply_is_identity(self):
        # solving through L then L^H and multiplying by A gives b back, and
        # b^H A^{-1} b = ||L^{-1} b||^2, the form every Schur complement reads
        rng = np.random.default_rng(12)
        for dim in (1, 2, 4, 8):
            a = random_hermitian_pd(rng, dim)
            b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            chol = self.assert_factors(a, 1e-13)
            w = np.linalg.solve(chol, b)
            y = np.linalg.solve(chol.conj().T, w)
            assert np.linalg.norm(a @ y - b) <= 1e-8 * np.linalg.norm(b)
            assert np.vdot(w, w).real == pytest.approx(np.vdot(b, y).real, rel=1e-12)

    def test_non_hermitian_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            hermitian_factor(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_non_finite_input_rejected(self, bad, symmetric):
        # a NaN defect compares False against any tolerance, and the Cholesky
        # of a NaN matrix does not raise, so this once returned an all-NaN result
        a = np.array([[1.0, bad], [bad if symmetric else 0.0, 2.0]])
        with pytest.raises(NumericalError):
            hermitian_factor(a)

    def test_singular_input_ridge_rescue(self):
        # rank-1 PSD matrix: pivot collapses, the ridge path must engage
        v = np.array([1.0, 1.0])
        a = np.outer(v, v)
        chol, ridged = hermitian_factor(a)
        assert ridged
        # the factor is that of a plus the ridge 1e-10 * trace(a)/dim
        np.testing.assert_allclose(chol @ chol.conj().T, a + 1e-10 * np.eye(2), rtol=0, atol=1e-15)

    def test_flag_false_on_well_conditioned(self):
        rng = np.random.default_rng(13)
        _, ridged = hermitian_factor(random_hermitian_pd(rng, 4))
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

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(23)
        for shape in [(1, 1, 1), (4, 3, 5), (2, 3, 6, 6)]:
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = spectral_norm(a)
            assert got.shape == shape[:-2]
            for idx in np.ndindex(*shape[:-2]):
                assert got[idx] == spectral_norm(a[idx])


class TestHermitianResidual:
    def test_exactly_hermitian(self):
        a = np.array([[1.0, 2 - 1j], [2 + 1j, 3.0]])
        assert hermitian_residual(a) == 0.0

    def test_scaled_tolerance(self):
        # asymmetry just under the documented tolerance, 1e-10 * max |entry|,
        # passes the invariant
        a = np.eye(3, dtype=complex)
        a[0, 1] = 5e-11
        assert hermitian_residual(a) <= 1e-10 * np.max(np.abs(a))
        assert require_hermitian(a) is not None

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_tolerance_is_unit_free(self, scale):
        # a defect as large as the entries fails at every scale; an absolute
        # floor of 1e-10 once let the 1e-12 copy through to the factor
        a = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
        for check in (require_hermitian, hermitian_factor):
            with pytest.raises(NumericalError, match="not a finite Hermitian"):
                check(a)
        assert require_hermitian(scale * np.array([[1.0, 1e-11], [0.0, 1.0]])) is not None
