"""Dense complex linear algebra for small (dim <= ~32) quantum problems.

Conventions: times in microseconds, Hamiltonians in rad/us (hbar = 1), so
``propagator(h, t) = exp(-i h t)`` is dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-12
PSD_CLAMP = 1e-10


class NotHermitianError(ValueError):
    """Matrix fails the Hermitian symmetry check."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the PSD clamp window."""


class NoConvergenceError(RuntimeError):
    """Eigensolver did not converge."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V^dagger, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermiticity_defect(a: np.ndarray) -> float:
    """Max entrywise deviation |A - A^dagger|."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    a = np.asarray(a)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return hermiticity_defect(a) <= rtol * scale


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError if the symmetry defect exceeds
    ``HERMITICITY_RTOL * max|A|``, NoConvergenceError if the solver fails.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not is_hermitian(a):
        raise NotHermitianError(
            f"hermiticity defect {hermiticity_defect(a):.3e} exceeds tolerance"
        )
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def propagators(h: np.ndarray, times) -> np.ndarray:
    """Stack of unitaries exp(-i h t), one per time, from one eigendecomposition."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("time must be finite")
    dec = hermitian_eig(h)
    phases = np.exp(-1j * np.multiply.outer(times, dec.eigenvalues))
    return (dec.eigenvectors * phases[:, None, :]) @ dec.eigenvectors.conj().T


def evolve(h: np.ndarray, psi: np.ndarray, times) -> np.ndarray:
    """States exp(-i h t) psi, one row per time, from one eigendecomposition."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("time must be finite")
    dec = hermitian_eig(h)
    coeff = dec.eigenvectors.conj().T @ np.asarray(psi, dtype=complex)
    phases = np.exp(-1j * np.outer(dec.eigenvalues, times))
    return (dec.eigenvectors @ (phases * coeff[:, None])).T


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h (rad/us) and time t (us)."""
    return propagators(h, [t])[0]


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-PSD_CLAMP, 0) are clamped to zero; anything lower
    raises NotPSDError.
    """
    dec = hermitian_eig(a)
    w = dec.eigenvalues.copy()
    if np.any(w < -PSD_CLAMP):
        raise NotPSDError(f"eigenvalue {w.min():.3e} below -{PSD_CLAMP:.0e}")
    w[w < 0.0] = 0.0
    v = dec.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T
