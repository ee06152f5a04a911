"""The three stochastic confinement protocols.

projective   -- free evolution for a random interval, then a projective
                check that the excitation is still inside the subspace.
                Default semantics are post-selected conditional evolution:
                the state is projected and renormalized while the survival
                probability accumulates as the product of the per-step
                factors q_j.  An optional Bernoulli mode draws the outcome
                instead and aborts the trajectory on the first failure.
pulsed       -- the check is replaced by an instantaneous unitary kick
                exp(-i H_c s) on the two sites outside the boundary.
continuous   -- a constant strong term g * H_c is added to the chain
                Hamiltonian; the evolution is evaluated exactly from one
                eigendecomposition of H + g*H_c.

All runners accept an optional explicit sector Hamiltonian to support
modified chains (for instance a severed boundary bond).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg
from .chain import ChainSpec, coupling_hamiltonian, hamiltonian, zeno_hamiltonian
from .stochastics import (
    IntervalDistribution,
    SeededSampler,
    atom_indices,
    draw_uniforms,
    moments,
)

NORM_TOL = 1e-10
DEAD_BRANCH = 1e-300


class InitialStateOutsideSubspaceError(ValueError):
    """psi0 must be normalized and supported on the confined sites."""


class ZeroSurvivalError(RuntimeError):
    """A survival factor underflowed; the conditional branch is numerically dead."""


class ProtocolKind(str, Enum):
    PROJECTIVE = "projective"
    PULSED = "pulsed"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class ProtocolConfig:
    kind: ProtocolKind
    num_intervals: int
    distribution: IntervalDistribution
    pulse_area: float = np.pi / 2  # pulsed only
    coupling: Optional[float] = None  # continuous only; None -> pi/(2*mean)
    record_states: bool = False
    bernoulli: bool = False  # projective only: sample outcomes instead of post-selecting

    def __post_init__(self) -> None:
        if self.num_intervals < 1:
            raise ValueError("num_intervals must be >= 1")
        if self.kind is ProtocolKind.PULSED and not (0 < self.pulse_area < np.inf):
            raise ValueError(f"pulse_area must be positive and finite, got {self.pulse_area}")
        if (
            self.kind is ProtocolKind.CONTINUOUS
            and self.coupling is not None
            and not (0 < self.coupling < np.inf)
        ):
            raise ValueError(f"coupling must be positive and finite, got {self.coupling}")

    def effective_coupling(self) -> float:
        """Continuous coupling strength; defaults to pi / (2 * mean interval)."""
        if self.coupling is not None:
            return self.coupling
        return np.pi / (2.0 * moments(self.distribution).mean)


@dataclass
class Trajectory:
    """One protocol realization.

    cumulative_survival for the projective protocol is the running product
    of the q_j; for the coherent protocols it is the same array as
    subspace_population, the instantaneous subspace population (those
    protocols are unitary, nothing is post-selected).
    survival_factors is None for the coherent protocols.  Post-selected
    projective runs keep log_cumulative_survival, the running sum of ln q_j,
    finite where the product underflows.  aborted_at is the 1-based step of
    the first failed Bernoulli outcome, None otherwise.
    """

    kind: ProtocolKind
    intervals: np.ndarray
    times: np.ndarray
    cumulative_survival: np.ndarray
    subspace_population: np.ndarray
    final_state: np.ndarray
    survival_factors: Optional[np.ndarray] = None
    log_cumulative_survival: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None  # steps x dim, when recorded
    aborted_at: Optional[int] = None
    metadata: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return float(self.times[-1]) if len(self.times) else 0.0

    @property
    def final_survival(self) -> float:
        return float(self.cumulative_survival[-1])

    @property
    def log_survival(self) -> float:
        if self.log_cumulative_survival is not None:
            return float(self.log_cumulative_survival[-1])
        return float(np.log(self.cumulative_survival[-1]))


def _check_initial_state(psi0: np.ndarray, subspace_size: int) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > NORM_TOL:
        raise InitialStateOutsideSubspaceError("initial state is not normalized")
    if np.linalg.norm(psi0[subspace_size:]) > NORM_TOL:
        raise InitialStateOutsideSubspaceError(
            "initial state has weight outside the subspace"
        )
    return psi0.copy()


def _lockstep(
    kind: ProtocolKind,
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    samplers: list[SeededSampler],
    h: Optional[np.ndarray],
) -> list[Trajectory]:
    """Advance every realization of a projective or pulsed ensemble together.

    One multi-stream draw gives every column its intervals (and Bernoulli
    outcomes) from samplers[r], exactly as a lone run would.  A step is one
    gather of per-atom matrices plus one batched product, column by column,
    so no column's numbers depend on the width of the ensemble:

    - pulsed: the fused kick @ U(mu) on the n-site state;
    - projective: the lambda x lambda block P U(mu) P on a state that lives
      on the subspace; the complement is built only for a column whose
      Bernoulli outcome fails, and states are zero-padded back to n sites.

    Survival, times and populations are whole (width x steps) arrays, and
    each Trajectory holds row slices of them.
    """
    n, lam, m, width = spec.n_sites, spec.subspace_size, config.num_intervals, len(samplers)
    psi0 = _check_initial_state(psi0, lam)
    h = hamiltonian(spec) if h is None else h
    d = config.distribution
    projective = kind is ProtocolKind.PROJECTIVE
    bernoulli = projective and config.bernoulli
    steps = linalg.propagators(h, d.values)  # one free evolution per atom
    if projective:
        dim, mats = lam, steps[:, :lam, :lam].copy()  # contiguous: cheaper to gather
    else:
        dim, mats = n, linalg.propagator(coupling_hamiltonian(spec), config.pulse_area) @ steps
    draws = draw_uniforms(samplers, 2 * m if bernoulli else m)  # intervals, then outcomes
    atoms = atom_indices(d, draws[:, :m])  # width x m
    intervals = d.values[atoms]
    psi = np.repeat(psi0[None, :dim, None], width, axis=0)

    pops = np.empty((width, m))
    factors = np.empty((width, m)) if projective else None
    states = np.zeros((width, m, n), dtype=complex) if config.record_states else None
    aborted_at = np.zeros(width, dtype=int)  # 0 = never
    collapsed: dict[int, np.ndarray] = {}
    for j in range(m):
        prev, psi = psi, mats[atoms[:, j]] @ psi
        q = (np.abs(psi[:, :lam, 0]) ** 2).sum(1)
        if projective:
            if q.min() < DEAD_BRANCH and np.any(q[aborted_at == 0] < DEAD_BRANCH):
                raise ZeroSurvivalError(f"survival factor underflow at step {j + 1}")
            factors[:, j] = q
            if bernoulli:
                for r in np.flatnonzero((aborted_at == 0) & (draws[:, m + j] >= q)):
                    # failed outcome: collapse onto the complement and freeze
                    out = steps[atoms[r, j], :, :lam] @ prev[r, :, 0]
                    out[:lam] = 0.0
                    collapsed[r] = out / np.linalg.norm(out)
                    aborted_at[r] = j + 1
                    samplers[r].rewind(m - j - 1)  # outcome draws never made
                q = np.where(aborted_at == 0, q, 1.0)
            psi /= np.sqrt(q)[:, None, None]
            q = (np.abs(psi[:, :, 0]) ** 2).sum(1)
        pops[:, j] = q
        if states is not None:
            states[:, j, :dim] = psi[:, :, 0]
        if bernoulli and np.all(aborted_at):
            break

    times = np.cumsum(intervals, axis=1)
    final = np.zeros((width, n), dtype=complex)
    final[:, :dim] = psi[:, :, 0]
    log_cum = None
    if bernoulli:
        cum = np.ones((width, m))
    elif projective:
        log_cum = np.cumsum(np.log(factors), axis=1)
        cum = np.exp(log_cum)
    for r, out in collapsed.items():
        k = aborted_at[r] - 1
        cum[r, k] = pops[r, k] = 0.0
        final[r] = out
        if states is not None:
            states[r, k] = out
    trajs = []
    for r in range(width):
        k = aborted_at[r] or m
        pop = pops[r, :k]
        trajs.append(
            Trajectory(
                kind=kind,
                intervals=intervals[r, :k],
                times=times[r, :k],
                cumulative_survival=cum[r, :k] if projective else pop,
                subspace_population=pop,
                final_state=final[r],
                survival_factors=factors[r, :k] if projective else None,
                log_cumulative_survival=None if log_cum is None else log_cum[r],
                states=None if states is None else states[r, :k],
                aborted_at=int(aborted_at[r]) or None,
            )
        )
    return trajs


def run_projective(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
    *,
    hamiltonian_override: Optional[np.ndarray] = None,
) -> Trajectory:
    """Random-interval projective protocol (post-selected by default)."""
    return _lockstep(
        ProtocolKind.PROJECTIVE, spec, psi0, config, [sampler], hamiltonian_override
    )[0]


def run_pulsed(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
    *,
    hamiltonian_override: Optional[np.ndarray] = None,
) -> Trajectory:
    """Random-interval kick protocol: psi <- exp(-i H_c s) U(mu_j) psi."""
    return _lockstep(
        ProtocolKind.PULSED, spec, psi0, config, [sampler], hamiltonian_override
    )[0]


def run_continuous(
    spec: ChainSpec,
    psi0: np.ndarray,
    total_time: float,
    coupling: float,
    sample_times: Optional[np.ndarray] = None,
    *,
    hamiltonian_override: Optional[np.ndarray] = None,
    record_states: bool = False,
) -> Trajectory:
    """Constant strong-coupling protocol, exact via one eigendecomposition."""
    if not (total_time > 0):
        raise ValueError("total_time must be positive")
    lam = spec.subspace_size
    psi = _check_initial_state(psi0, lam)
    h = hamiltonian(spec) if hamiltonian_override is None else hamiltonian_override
    h_tot = h + coupling * coupling_hamiltonian(spec)
    if sample_times is None:
        sample_times = np.linspace(0.0, total_time, 2001)
    sample_times = np.asarray(sample_times, dtype=float)
    if len(sample_times) and (
        sample_times.min() < -1e-12 or sample_times.max() > total_time + 1e-9
    ):
        raise ValueError("sample_times must lie inside [0, total_time]")

    # the final state rides along as one more time of the same evolution
    states = linalg.evolve(h_tot, psi, np.append(sample_times, total_time))
    pops = np.sum(np.abs(states[:-1, :lam]) ** 2, axis=1)

    return Trajectory(
        kind=ProtocolKind.CONTINUOUS,
        intervals=np.diff(sample_times, prepend=0.0),
        times=sample_times,
        cumulative_survival=pops,
        subspace_population=pops,
        states=states[:-1] if record_states else None,
        final_state=states[-1].copy(),  # not a view pinning the whole grid
    )


@dataclass(frozen=True)
class SubspaceEvolution:
    """Ideal confined evolution: states[k] = exp(-i H_Z times[k]) psi0.

    states is len(times) x subspace_size; nothing leaks by construction.
    """

    times: np.ndarray
    states: np.ndarray


def run_exact_subspace(
    spec: ChainSpec, psi0: np.ndarray, t_grid: np.ndarray
) -> SubspaceEvolution:
    """Ideal confined evolution under the subspace Hamiltonian.

    This is the fidelity reference; psi0 is checked as by every runner.
    """
    lam = spec.subspace_size
    t_grid = np.asarray(t_grid, dtype=float)
    psi_sub = _check_initial_state(psi0, lam)[:lam]
    states = linalg.evolve(zeno_hamiltonian(spec), psi_sub, t_grid)
    return SubspaceEvolution(times=t_grid, states=states)


def run_lockstep(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    samplers: list[SeededSampler],
) -> list[Trajectory]:
    """One realization of the configured protocol per sampler, run together.

    Realization r is bit-identical to a lone run with samplers[r].  The
    continuous protocol is deterministic: it runs once, for the expected
    total time num_intervals * mean(mu), reports the population on the same
    per-interval grid the stochastic protocols use, and that one trajectory
    stands for every realization.
    """
    if not samplers:
        raise ValueError("need at least one realization")
    if config.kind is not ProtocolKind.CONTINUOUS:
        return _lockstep(config.kind, spec, psi0, config, samplers, None)
    mean = moments(config.distribution).mean
    traj = run_continuous(
        spec,
        psi0,
        total_time=config.num_intervals * mean,
        coupling=config.effective_coupling(),
        sample_times=mean * np.arange(1, config.num_intervals + 1),
        record_states=config.record_states,
    )
    return [traj] * len(samplers)
