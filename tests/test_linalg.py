import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain import linalg
from zenochain.linalg import (
    EIG_CACHE_SIZE,
    EigenDecomposition,
    NotHermitianError,
    NotPSDError,
    evolve,
    hermitian_eig,
    is_hermitian,
    propagator,
    propagators,
    sqrt_psd,
)

BETA = 0.0314159


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestHermitianEig:
    def test_two_by_two_closed_form(self):
        a = np.array([[0.0, BETA], [BETA, 0.0]])
        dec = hermitian_eig(a)
        assert np.allclose(dec.eigenvalues, [-BETA, BETA], atol=1e-14)

    def test_identity(self):
        dec = hermitian_eig(np.eye(4))
        assert np.allclose(dec.eigenvalues, np.ones(4), atol=1e-14)
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-10

    def test_reconstruction_random_8x8(self):
        a = random_hermitian(8, seed=42)
        dec = hermitian_eig(a)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))))
        assert np.max(np.abs(recon - a)) <= 1e-10 * scale

    def test_eigenvalues_ascending(self):
        dec = hermitian_eig(random_hermitian(12, seed=3))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_orthonormal_columns(self):
        dec = hermitian_eig(random_hermitian(16, seed=9))
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(16))) <= 1e-10

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NotHermitianError):
            hermitian_eig(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((2, 3)))

    def test_returns_type(self):
        assert isinstance(hermitian_eig(np.eye(2)), EigenDecomposition)


class TestHermitianEigMemo:
    def test_an_equal_copy_gets_the_same_decomposition(self):
        a = random_hermitian(6, seed=11)
        assert hermitian_eig(a.copy()) is hermitian_eig(np.asfortranarray(a))
        real = a.real + a.real.T  # keyed after the cast to complex
        assert hermitian_eig(real) is hermitian_eig(real.astype(complex))

    def test_returned_arrays_are_read_only(self):
        dec = hermitian_eig(random_hermitian(5, seed=13))
        for arr in (dec.eigenvalues, dec.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_non_hermitian_input_raises_every_time(self):
        a = np.array([[0.0, 1.0], [0.5, 0.0]])
        for _ in range(3):
            with pytest.raises(NotHermitianError):
                hermitian_eig(a)

    def test_input_mutated_in_place_gets_its_own_decomposition(self):
        a = random_hermitian(4, seed=14)
        first = hermitian_eig(a)
        a[0, 0] += 1.0
        second = hermitian_eig(a)
        assert second is not first
        recon = (second.eigenvectors * second.eigenvalues) @ second.eigenvectors.conj().T
        assert np.max(np.abs(recon - a)) <= 1e-12

    def test_cache_stays_within_its_size(self):
        for k in range(10 * EIG_CACHE_SIZE):
            hermitian_eig(np.diag([float(k), -1.0]))
            assert linalg._decompose.cache_info().currsize <= EIG_CACHE_SIZE
        assert linalg._decompose.cache_info().currsize == EIG_CACHE_SIZE


class TestPropagator:
    def test_zero_time_is_identity(self):
        h = random_hermitian(6, seed=1)
        assert np.max(np.abs(propagator(h, 0.0) - np.eye(6))) <= 1e-12

    def test_rabi_closed_form(self):
        h = np.array([[0.0, BETA], [BETA, 0.0]])
        for t in (0.3, 1.0, 7.5, 40.0):
            u = propagator(h, t)
            assert abs(u[0, 0] - np.cos(BETA * t)) <= 1e-12
            assert abs(u[0, 1] - (-1j) * np.sin(BETA * t)) <= 1e-12

    def test_group_property(self):
        h = random_hermitian(5, seed=11)
        u = propagator(h, 0.7) @ propagator(h, 1.9)
        assert np.max(np.abs(u - propagator(h, 2.6))) <= 1e-9

    def test_unitarity(self):
        h = random_hermitian(9, seed=5)
        u = propagator(h, 3.0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) <= 1e-9

    def test_norm_preservation(self):
        h = random_hermitian(10, seed=8)
        u = propagator(h, 12.0)
        for k in range(5):
            psi = random_state(10, seed=100 + k)
            assert abs(np.linalg.norm(u @ psi) - 1.0) <= 1e-10

    def test_trace_preservation(self):
        h = random_hermitian(7, seed=21)
        psi = random_state(7, seed=22)
        rho = np.outer(psi, psi.conj())
        u = propagator(h, 4.2)
        evolved = u @ rho @ u.conj().T
        assert abs(np.trace(evolved).real - np.trace(rho).real) <= 1e-10

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            propagator(np.eye(2), np.inf)


class TestSqrtPSD:
    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_squaring_random_psd(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = b.conj().T @ b
        s = sqrt_psd(a)
        assert np.max(np.abs(s @ s - a)) <= 1e-8
        assert is_hermitian(s, rtol=1e-9)
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-10

    def test_clamps_tiny_negative_eigenvalues(self):
        a = np.diag([1.0, -5e-11])
        s = sqrt_psd(a)
        assert s[1, 1].real == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1e-6]))


class TestPropagators:
    def test_stack_matches_single_propagators(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        times = [0.0, 0.3, 2.5, 7.0]
        stack = propagators(h, times)
        assert stack.shape == (4, 5, 5)
        for u, t in zip(stack, times):
            assert np.array_equal(u, propagator(h, t))

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            propagators(np.eye(2), [1.0, np.nan])


class TestEvolve:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5),
    )
    def test_matches_propagator(self, dim, seed, times):
        h = random_hermitian(dim, seed)
        psi = random_state(dim, seed + 1)
        states = evolve(h, psi, times)
        assert states.shape == (len(times), dim)
        for state, t in zip(states, times):
            assert np.max(np.abs(state - propagator(h, t) @ psi)) <= 1e-12

    def test_zero_time_returns_state(self):
        psi = random_state(7, seed=31)
        assert np.max(np.abs(evolve(random_hermitian(7, seed=30), psi, [0.0])[0] - psi)) <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError):
            evolve(np.eye(2), np.array([1.0, 0.0]), [0.0, t])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            evolve(np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([1.0, 0.0]), [1.0])
