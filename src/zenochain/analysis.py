"""Fidelity against ideal confined evolution, ensemble statistics, and
excitation-front velocity extraction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import linalg
from .chain import ChainSpec, leftmost_excited
from .protocols import EnsembleFinals, Trajectory, run_exact_subspace
from .theory import edge_population

DM_TOL = 1e-10


class InvalidDensityMatrixError(ValueError):
    """Input is not a Hermitian PSD trace-one matrix."""


class NoPeakFoundError(RuntimeError):
    """Edge population never formed a peak above the detection threshold."""


class NonFiniteLogSurvivalError(ValueError):
    """Some realization's ln P is not finite (an aborted Bernoulli run has P = 0)."""


def density_matrix(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def _check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrixError("density matrix must be square")
    if not linalg.is_hermitian(rho, rtol=1e-9):
        raise InvalidDensityMatrixError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > DM_TOL:
        raise InvalidDensityMatrixError(f"trace is {np.trace(rho).real}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -DM_TOL:
        raise InvalidDensityMatrixError(f"negative eigenvalue {w.min():.3e}")
    return rho


def uhlmann_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """F = Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)), clipped to [0, 1].

    Evaluated as the trace norm of sqrt(rho_a) sqrt(rho_b) (the same
    quantity), which avoids squaring eigenvalue noise for near-pure inputs.
    """
    rho_a = _check_density_matrix(rho_a)
    rho_b = _check_density_matrix(rho_b)
    product = linalg.sqrt_psd(rho_a) @ linalg.sqrt_psd(rho_b)
    f = float(np.sum(np.linalg.svd(product, compute_uv=False)))
    return float(np.clip(f, 0.0, 1.0))


def _overlaps(states: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """|<ideal_r|psi_r>| row by row: the Uhlmann fidelity of pure states.

    Ideal rows cover the first sites of their protocol rows.  Both stacks
    must be normalized, the trace check uhlmann_fidelity makes of |psi><psi|.
    """
    for stack in (states, ideal):
        dev = np.abs((np.abs(stack) ** 2).sum(1) - 1.0)
        if np.any(dev > DM_TOL):
            raise InvalidDensityMatrixError(f"state norm^2 is off 1 by {dev.max():.3e}")
    return np.clip(np.abs((ideal.conj() * states[:, : ideal.shape[1]]).sum(1)), 0.0, 1.0)


def final_fidelities(spec: ChainSpec, psi0: np.ndarray, final_states: np.ndarray,
                     total_times: np.ndarray) -> np.ndarray:
    """Each final state's (a row's) overlap with the ideal confined state
    (``run_exact_subspace``, one eigendecomposition) at its own total time."""
    if not len(total_times):
        raise ValueError("need at least one realization")
    return _overlaps(final_states, run_exact_subspace(spec, psi0, total_times).states)


def ensemble_fidelities(
    spec: ChainSpec, psi0: np.ndarray, realizations: Sequence[Trajectory]
) -> np.ndarray:
    """``final_fidelities`` of each realization's final state at its own end
    time; score a single run as ``ensemble_fidelities(spec, psi0, [traj])[0]``."""
    states = np.array([t.final_state for t in realizations])
    return final_fidelities(spec, psi0, states, np.array([t.total_time for t in realizations]))


@dataclass(frozen=True)
class EnsembleSummary:
    realization_count: int
    log_mean: float
    log_std: float


def aggregate(realizations: Sequence[Trajectory] | EnsembleFinals) -> EnsembleSummary:
    """Mean and sample standard deviation of ln P over an ensemble, given as
    its runs or as their ``EnsembleFinals``.

    ln P is each realization's ``log_survival``.  Raises
    NonFiniteLogSurvivalError when any ln P is not finite, as for a Bernoulli
    ensemble with an aborted run.
    """
    finals = isinstance(realizations, EnsembleFinals)
    logs = realizations.log_survival if finals else [t.log_survival for t in realizations]
    if not len(logs):
        raise ValueError("need at least one realization")
    logs = np.sort(logs)  # so no statistic depends on the order of the realizations
    bad = int(np.count_nonzero(~np.isfinite(logs)))
    if bad:
        raise NonFiniteLogSurvivalError(
            f"ln P is not finite for {bad} of {len(logs)} realizations; "
            "log-survival statistics need every realization to survive"
        )
    return EnsembleSummary(
        realization_count=len(logs),
        log_mean=float(np.mean(logs)),
        log_std=float(np.std(logs, ddof=1)) if len(logs) > 1 else 0.0,
    )


@dataclass(frozen=True)
class VelocityFit:
    subspace_sizes: np.ndarray
    peak_times: np.ndarray
    velocity: float  # sites/us
    bound: float  # e * beta, sites/us


def first_peak_time(
    t_grid: np.ndarray, values: np.ndarray, threshold: float
) -> float:
    """First strict local maximum above threshold, parabolically refined."""
    for k in range(1, len(values) - 1):
        if (
            values[k] > threshold
            and values[k] > values[k - 1]
            and values[k] > values[k + 1]
        ):
            # three-point parabola through (k-1, k, k+1)
            denom = values[k - 1] - 2 * values[k] + values[k + 1]
            shift = 0.0 if denom == 0 else 0.5 * (values[k - 1] - values[k + 1]) / denom
            return float(t_grid[k] + shift * (t_grid[1] - t_grid[0]))
    raise NoPeakFoundError(f"no local maximum above {threshold}")


def fit_velocity(
    spec: ChainSpec,
    subspace_sizes: Sequence[int] = tuple(range(2, 11)),
    threshold: float = 0.05,
    dt: float = 0.2,
) -> VelocityFit:
    """Excitation-front velocity from first edge-population peaks.

    For each subspace size the leftmost-excited state evolves on a chain of
    that many sites (``theory.edge_population``) until |c_edge(t)|^2 first
    peaks; a line through (peak time, distance = size - 1) gives the
    velocity.  The comparison bound is e * beta (operator-norm bound on the
    front speed).
    """
    if len(subspace_sizes) == 0:
        raise ValueError("fit_velocity needs at least one subspace size")
    peaks = []
    for lam in subspace_sizes:
        sub = replace(spec, n_sites=lam, subspace_size=lam)
        t_max = np.pi * (lam + 2) / (2.0 * spec.beta)
        edge = edge_population(sub, leftmost_excited(lam), t_max, dt)
        peaks.append(first_peak_time(edge.t_grid, edge.values, threshold))
    peaks = np.array(peaks)
    distances = np.array([lam - 1 for lam in subspace_sizes], dtype=float)
    if len(peaks) == 1:
        slope = distances[0] / peaks[0]
    else:
        slope, _ = np.polyfit(peaks, distances, 1)
    return VelocityFit(
        subspace_sizes=np.array(subspace_sizes),
        peak_times=peaks,
        velocity=float(slope),
        bound=float(np.e * spec.beta),
    )


def local_maxima(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Indices that are strict maxima of their +-order neighbourhood."""
    values = np.asarray(values)
    idx = []
    for k in range(len(values)):
        lo, hi = max(0, k - order), min(len(values), k + order + 1)
        window = values[lo:hi]
        if values[k] == window.max() and np.sum(window == values[k]) == 1:
            idx.append(k)
    return np.array(idx, dtype=int)
