"""Closed-form survival predictions for the stochastic confinement protocols.

With m random intervals drawn from p(mu) (mean mu_bar, relative variance
kappa), and V the variance of the leakage generator with respect to the
initial state, the typical survival probability is

    weak regime    P* = exp(-m * V * (1 + kappa) * mu_bar^2)
    strong regime  P* = 1 - m * V * (1 + kappa) * mu_bar^2

For the chain V = beta^2 |c_lambda|^2, where c_lambda is the amplitude on
the last confined site.  When the in-subspace dynamics moves that amplitude
around, V is replaced by its time average along the confined evolution:

    P* = exp(-m * beta^2 * mu_bar^2 * (1 + kappa) * <|c_lambda(t)|^2>_t)

``edge_population`` offers two series for <|c_lambda(t)|^2>_t.  One interval
of free evolution followed by the projection is

    P exp(-i H mu) P = exp(-i H_Z mu) - (beta^2 mu^2 / 2) |lambda><lambda| + O(mu^3),

with H_Z the subspace Hamiltonian.  The second-order term is the leak
q = 1 - beta^2 mu^2 |c_lambda|^2, and it also shrinks the edge amplitude of
the state that survives.  Averaged over intervals, the surviving state
follows H_Z - i Gamma |lambda><lambda|, renormalized, with

    Gamma = beta^2 <mu^2> / (2 mu_bar) = beta^2 mu_bar (1 + kappa) / 2.

Without a distribution the series follows the ideal H_Z evolution, the Zeno
limit mu_bar -> 0 (Gamma = 0): adequate while the accumulated damping
Gamma * t stays small.  Given the interval distribution, the series follows
the damped, renormalized evolution, which the simulated staircase tracks
at long runs (lambda = 9, m = 2000: ln P within 3% instead of 29% off).

Both series are mode sums sum_k W_k exp(-i w_k j dt) on the grid t_j = j dt.
With j = a C + b and C = ceil(sqrt(T)) for T points, the phase factors into
two tables of about sqrt(T) exponentials per mode, joined by one batched
product.  Against one exponential per point, values move by at most 5e-14.

The module also carries the three-level strong-coupling model: chain site 1
driven at rate omega, sites 2-3 locked by coupling g, with the exact
survival P(t) = (1 - (2 omega^2/(omega^2+g^2)) sin^2(sqrt(omega^2+g^2) t/2))^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from . import linalg
from .chain import ChainSpec, hamiltonian, projector, zeno_hamiltonian
from .protocols import _check_initial_state
from .stochastics import IntervalDistribution, Moments, moments

STRONG_REGIME_BOUND = 0.1
# eigenvector-matrix condition number above which the damped edge series is
# refused; exactly at an exceptional point LAPACK returns ~1/sqrt(eps) ~ 7e7
EIGVEC_COND_LIMIT = 1e6


class NonPositiveQError(ValueError):
    """Exact-product prediction needs q values in (0, 1]."""


class GridTooCoarseError(ValueError):
    """Finite-difference remainder scan failed its step-halving check."""


class ExceptionalPointError(ValueError):
    """Damped edge generator too close to an exceptional point to diagonalize."""


class VarianceCrossCheckError(RuntimeError):
    """The two routes to the leakage-generator variance disagree."""


@dataclass(frozen=True)
class TheoryPrediction:
    pstar: float
    regime: str  # "weak" | "strong" | "time_averaged" | "exact_product"
    num_intervals: int
    interval_moments: Optional[Moments]
    variance_term: float
    out_of_regime: bool = False

    @property
    def log_pstar(self) -> float:
        return float(np.log(self.pstar))


@dataclass(frozen=True)
class EdgePopulationSeries:
    """|c_lambda(t)|^2 along the confined evolution, plus its mean.

    The evolution is the ideal or the damped one, see ``edge_population``.
    """

    t_grid: np.ndarray
    values: np.ndarray
    time_average: float


def variance_h_pi(psi: np.ndarray, spec: ChainSpec) -> float:
    """Variance of the leakage generator H - P H P in state psi.

    For a normalized state supported on the subspace this equals
    beta^2 |c_lambda|^2; both routes are computed and must agree.
    """
    psi = np.asarray(psi, dtype=complex)
    h = hamiltonian(spec)
    p = projector(spec)
    h_pi = h - p @ h @ p
    mean = np.vdot(psi, h_pi @ psi)
    second = np.vdot(psi, h_pi @ (h_pi @ psi))
    value = float(np.real(second - mean**2))
    lam = spec.subspace_size
    if np.linalg.norm(psi[lam:]) <= 1e-12:
        closed = spec.beta**2 * float(np.abs(psi[lam - 1]) ** 2)
        if abs(value - closed) > 1e-12 * max(1.0, closed):
            raise VarianceCrossCheckError(f"variance routes disagree: {value} vs {closed}")
    return value


def _exponent(m: int, mom: Moments, variance: float) -> float:
    return m * variance * (1.0 + mom.kappa) * mom.mean**2


def pstar_weak(m: int, d: IntervalDistribution, variance: float) -> TheoryPrediction:
    """Exponential (weak-regime) typical survival."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    mom = moments(d)
    return TheoryPrediction(
        pstar=float(np.exp(-_exponent(m, mom, variance))),
        regime="weak",
        num_intervals=m,
        interval_moments=mom,
        variance_term=variance,
    )


def pstar_strong(m: int, d: IntervalDistribution, variance: float) -> TheoryPrediction:
    """Linearized (strong-regime) typical survival; flags exponent > 0.1."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    mom = moments(d)
    x = _exponent(m, mom, variance)
    out = x > STRONG_REGIME_BOUND
    if out:
        warnings.warn(
            f"strong-regime exponent {x:.3g} exceeds {STRONG_REGIME_BOUND}; "
            "the linearization is unreliable here",
            stacklevel=2,
        )
    return TheoryPrediction(
        pstar=1.0 - x,
        regime="strong",
        num_intervals=m,
        interval_moments=mom,
        variance_term=variance,
        out_of_regime=out,
    )


def pstar_exact_product(
    m: int, d: IntervalDistribution, q_of_mu: Mapping[float, float]
) -> TheoryPrediction:
    """P* = exp(m * sum_atoms p(mu) ln q(mu)) for interval-only q."""
    log_term = 0.0
    for mu, p in d.atoms:
        q = q_of_mu[mu]
        if not (0 < q <= 1):
            raise NonPositiveQError(f"q({mu}) = {q} outside (0, 1]")
        log_term += p * np.log(q)
    mom = moments(d)
    return TheoryPrediction(
        pstar=float(np.exp(m * log_term)),
        regime="exact_product",
        num_intervals=m,
        interval_moments=mom,
        variance_term=float("nan"),
    )


def edge_damping_rate(d: IntervalDistribution, beta: float) -> float:
    """Gamma = beta^2 <mu^2> / (2 mu_bar): edge damping of the surviving state."""
    mom = moments(d)
    return beta**2 * mom.mean * (1.0 + mom.kappa) / 2.0


def _grid_sums(weights: np.ndarray, rates: np.ndarray, dt: float, points: int) -> np.ndarray:
    """sum_k weights[s, k] exp(-i rates_k j dt) for j < points; see the module docstring."""
    c = int(np.ceil(np.sqrt(points)))
    coarse = np.exp(-1j * np.outer(np.arange(0, points, c) * dt, rates))  # j = a C
    fine = np.exp(-1j * np.outer(rates, np.arange(c) * dt))  # j = b < C
    return ((weights[:, None, :] * coarse) @ fine).reshape(len(weights), -1)[:, :points]


def _edge_values(
    spec: ChainSpec, psi0: np.ndarray, dt: float, points: int, d: Optional[IntervalDistribution]
) -> np.ndarray:
    """|c_lambda(j dt)|^2 for j < points: ideal without d, damped with it."""
    lam = spec.subspace_size
    psi_sub = _check_initial_state(psi0, lam)[:lam]
    gen = zeno_hamiltonian(spec)
    if d is None:
        dec = linalg.hermitian_eig(gen)
        coeff = dec.eigenvectors.conj().T @ psi_sub
        edge = _grid_sums(dec.eigenvectors[-1:] * coeff, dec.eigenvalues, dt, points)
        return np.abs(edge[0]) ** 2
    # renormalized |c_lambda(t)|^2 under H_Z - i Gamma |lambda><lambda|
    gen[lam - 1, lam - 1] -= 1j * edge_damping_rate(d, spec.beta)
    w, v = np.linalg.eig(gen)
    cond = float(np.linalg.cond(v))
    if not cond <= EIGVEC_COND_LIMIT:
        raise ExceptionalPointError(
            f"eigenvector condition number {cond:.3e} exceeds {EIGVEC_COND_LIMIT:.0e}: "
            "damped edge generator is near an exceptional point"
        )
    coeff = np.linalg.solve(v, psi_sub)
    # divide out the slowest decay so the ratio below cannot underflow
    rates = w - 1j * np.max(w.imag)
    pops = np.abs(_grid_sums(v * coeff, rates, dt, points)) ** 2
    return pops[-1] / np.sum(pops, axis=0)


def _cumulative_trapezoid(values: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of values over t_grid, 0 at t_grid[0]."""
    steps = 0.5 * (values[1:] + values[:-1]) * np.diff(t_grid)
    return np.concatenate([[0.0], np.cumsum(steps)])


def edge_population(
    spec: ChainSpec,
    psi0: np.ndarray,
    t_max: float,
    dt: float,
    distribution: Optional[IntervalDistribution] = None,
) -> EdgePopulationSeries:
    """|c_lambda(t)|^2 of the confined evolution, trapezoid-averaged.

    Without ``distribution`` the series follows the ideal subspace
    Hamiltonian H_Z (the Zeno limit mu_bar -> 0).  With it, the series
    follows the surviving state of the projective protocol:
    H_Z - i Gamma |lambda><lambda|, renormalized, with Gamma from
    ``edge_damping_rate``; see the module docstring.  Raises
    ExceptionalPointError when that generator cannot be diagonalized
    reliably.
    """
    if not (0 < t_max < np.inf and 0 < dt < np.inf):
        raise ValueError(f"t_max = {t_max} and dt = {dt} must be finite and positive")
    t_grid = np.arange(0.0, t_max + 0.5 * dt, dt)
    if len(t_grid) < 2:
        raise ValueError(f"t_max = {t_max} and dt = {dt} give a grid of fewer than two points")
    values = _edge_values(spec, psi0, dt, len(t_grid), distribution)
    avg = float(_cumulative_trapezoid(values, t_grid)[-1] / t_grid[-1])
    return EdgePopulationSeries(t_grid=t_grid, values=values, time_average=avg)


def pstar_time_averaged(
    m: int, d: IntervalDistribution, series: EdgePopulationSeries, beta: float
) -> TheoryPrediction:
    """Time-averaged prediction using <|c_lambda|^2> over the whole series."""
    return replace(pstar_weak(m, d, beta**2 * series.time_average), regime="time_averaged")


def pstar_time_averaged_curve(
    m_values: np.ndarray,
    d: IntervalDistribution,
    series: EdgePopulationSeries,
    beta: float,
) -> np.ndarray:
    """Vector of time-averaged predictions, one per measurement count.

    Each m is assigned the expected elapsed time m * mean(mu); the series
    must cover that horizon for the largest m requested.
    """
    m_values = np.asarray(m_values)
    if m_values.size == 0:
        raise ValueError("m_values is empty")
    if not np.all(m_values >= 1):  # nan compares False
        raise ValueError("every entry of m_values must be a number >= 1")
    mom = moments(d)
    t_ends = m_values * mom.mean
    if t_ends.max() > series.t_grid[-1] + 1e-9:
        raise ValueError("edge population series does not cover m * mean(mu)")
    cum = _cumulative_trapezoid(series.values, series.t_grid)
    avg = np.interp(t_ends, series.t_grid, cum) / t_ends
    return np.exp(-_exponent(m_values, mom, beta**2 * avg))


def one_step_survival(
    spec: ChainSpec, psi0: np.ndarray, mu: float
) -> float:
    """Exact q(mu): subspace weight after one free interval from psi0."""
    lam = spec.subspace_size
    psi = linalg.propagator(hamiltonian(spec), mu) @ np.asarray(psi0, dtype=complex)
    return float(np.sum(np.abs(psi[:lam]) ** 2))


def _third_derivative_max(f, grid: np.ndarray, h: float) -> float:
    # five-point central stencil for f'''
    vals = []
    for x in grid:
        d3 = (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
        vals.append(abs(d3) / 6.0)
    return float(np.max(vals))


def remainder_constant(
    spec: ChainSpec,
    psi0: np.ndarray,
    mu_max: float,
    grid_step: float,
) -> float:
    """Bound C on |(1/6) d^3 ln q / d mu^3| over [0, mu_max].

    Estimated by a finite-difference scan of the exact one-step q(mu);
    the stencil step is halved once and the two estimates must agree to
    10%, otherwise GridTooCoarseError.
    """
    if not (mu_max > 0 and grid_step > 0):
        raise ValueError("mu_max and grid_step must be positive")

    def lnq(mu: float) -> float:
        return float(np.log(one_step_survival(spec, psi0, mu)))

    grid = np.arange(0.0, mu_max + 0.5 * grid_step, grid_step)
    c_coarse = _third_derivative_max(lnq, grid, grid_step)
    c_fine = _third_derivative_max(lnq, grid, grid_step / 2.0)
    # rounding on ln q propagates into the stencil as ~eps / h^3; below that
    # floor the scan can only certify "C is numerically zero"
    noise_floor = 64.0 * np.finfo(float).eps / grid_step**3
    if abs(c_coarse - c_fine) > 0.1 * c_fine + noise_floor:
        raise GridTooCoarseError(
            f"remainder scan unstable: {c_coarse:.4e} vs {c_fine:.4e} at step/2"
        )
    return c_fine


def three_level_hamiltonian(omega: float, g: float) -> np.ndarray:
    """omega couples levels 1-2, g couples levels 2-3."""
    return np.array(
        [[0.0, omega, 0.0], [omega, 0.0, g], [0.0, g, 0.0]], dtype=complex
    )


def three_level_survival(omega: float, g: float, t):
    """Exact level-1 survival of the three-level model (vectorized in t)."""
    t = np.asarray(t, dtype=float)
    om2 = omega**2 + g**2
    if om2 == 0.0:
        out = np.ones_like(t)
        return float(out) if out.ndim == 0 else out
    rabi = 2.0 * omega**2 / om2
    out = (1.0 - rabi * np.sin(0.5 * np.sqrt(om2) * t) ** 2) ** 2
    return float(out) if out.ndim == 0 else out


def three_level_transform() -> np.ndarray:
    """Basis change that diagonalizes the 2-3 coupling block.

    Columns: level 1 untouched; levels 2 and 3 mapped to their symmetric
    and antisymmetric combinations, so T^dagger H_c T / g = diag(0, 1, -1).
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array([[1.0, 0.0, 0.0], [0.0, s, s], [0.0, s, -s]], dtype=complex)
