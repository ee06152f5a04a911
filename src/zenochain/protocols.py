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

from dataclasses import dataclass
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
NORM_FLOOR = 1e-250  # a block whose products end below this is redone step by step
BLOCK = 64  # steps per renormalization of the projective state


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
        m = self.num_intervals
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"num_intervals must be an integer, got {m!r}")
        if m < 1:
            raise ValueError("num_intervals must be >= 1")
        if self.bernoulli and self.kind is not ProtocolKind.PROJECTIVE:
            raise ValueError(
                f"bernoulli outcomes apply to the projective protocol only, not {self.kind.value}"
            )
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
    the first failed Bernoulli outcome, None otherwise; log_survival is -inf
    for such a run.
    """

    intervals: np.ndarray
    times: np.ndarray
    cumulative_survival: np.ndarray
    subspace_population: np.ndarray
    final_state: np.ndarray
    survival_factors: Optional[np.ndarray] = None
    log_cumulative_survival: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None  # steps x dim, when recorded
    aborted_at: Optional[int] = None

    @property
    def total_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_survival(self) -> float:
        return float(self.cumulative_survival[-1])

    @property
    def log_survival(self) -> float:
        if self.log_cumulative_survival is not None:
            return float(self.log_cumulative_survival[-1])
        p = self.final_survival
        return -np.inf if p == 0 else float(np.log(p))  # P = 0: an aborted Bernoulli run


def _check_initial_state(psi0: np.ndarray, subspace_size: int) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > NORM_TOL:
        raise InitialStateOutsideSubspaceError("initial state is not normalized")
    if np.linalg.norm(psi0[subspace_size:]) > NORM_TOL:
        raise InitialStateOutsideSubspaceError(
            "initial state has weight outside the subspace"
        )
    return psi0.copy()


def _products(mats: np.ndarray, block: np.ndarray, psi: np.ndarray, out: np.ndarray) -> None:
    """out[i] = mats[block[i]] @ out[i - 1] column by column, from out[-1] = psi."""
    for atoms, step in zip(block, out):
        psi = np.matmul(mats[atoms], psi, out=step)


def _projective_block(
    mats: np.ndarray, block: np.ndarray, psi: np.ndarray, out: np.ndarray, live: np.ndarray
) -> np.ndarray:
    """Advance normalized subspace states through one block of steps.

    psi is width x lambda x 1, block is steps x width atom indices.  The
    block P U(mu) P is linear, so the unnormalized products carry every
    step: their squared norms n_i give q_i = n_i / n_(i-1), with n_(-1) = 1,
    and one division leaves the renormalized state after each step in out.
    Norms never grow, so a live column whose last norm falls below
    NORM_FLOOR (where a product may have underflowed) is redone one step at
    a time, and its q are the per-step ones.  Other columns under the floor
    (aborted ones) get finite placeholders.  Returns q, steps x width.
    """
    _products(mats, block, psi, out)
    norms = (np.abs(out[..., 0]) ** 2).sum(-1)
    redo = (norms[-1] < NORM_FLOOR) & (len(block) > 1)
    norms[:, redo] = 1.0  # placeholders; live columns are redone below
    q = norms.copy()
    q[1:] /= norms[:-1]
    # the max only acts at a dead step (q < DEAD_BRANCH): finite values after
    # it are never read
    out /= np.sqrt(np.maximum(norms, DEAD_BRANCH))[..., None, None]
    for r in np.flatnonzero(redo & live):
        state = psi[r : r + 1]
        for i in range(len(block)):
            q[i, r] = _projective_block(
                mats, block[i : i + 1, r : r + 1], state, out[i : i + 1, r : r + 1], live[r : r + 1]
            )[0, 0]
            state = out[i, r : r + 1]
    return q


def _lockstep(
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

    - pulsed: the fused kick @ U(mu) on the n-site state, unitary, so never
      renormalized;
    - projective: the lambda x lambda block P U(mu) P on a state that lives
      on the subspace, renormalized once per block of BLOCK steps
      (_projective_block); the complement is built only for a column whose
      Bernoulli outcome fails, and states are zero-padded back to n sites.

    Factors, populations and states are written a block at a time into
    whole (width x steps) arrays, and each Trajectory holds row slices of
    them.
    """
    n, lam, m, width = spec.n_sites, spec.subspace_size, config.num_intervals, len(samplers)
    psi0 = _check_initial_state(psi0, lam)
    h = hamiltonian(spec) if h is None else h
    d = config.distribution
    projective = config.kind is ProtocolKind.PROJECTIVE
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
    buf = np.empty((min(BLOCK, m), width, dim, 1), dtype=complex)

    pops = np.empty((width, m))
    factors = np.empty((width, m)) if projective else None
    states = np.zeros((width, m, n), dtype=complex) if config.record_states else None
    aborted_at = np.zeros(width, dtype=int)  # 0 = never
    collapsed: dict[int, np.ndarray] = {}
    for j in range(0, m, BLOCK):
        block = atoms[:, j : j + BLOCK].T
        b, out = len(block), buf[: len(block)]
        if projective:
            live = aborted_at == 0
            q = _projective_block(mats, block, psi, out, live)
            dead = (q < DEAD_BRANCH) & live
            if bernoulli:
                fail = (draws[:, m + j : m + j + b].T >= q) & live
                first = np.where(fail.any(0), fail.argmax(0), b)  # b = no failure
                dead &= np.arange(b)[:, None] <= first  # later steps are never reached
            if dead.any():
                raise ZeroSurvivalError(
                    f"survival factor underflow at step {j + dead.any(1).argmax() + 1}"
                )
            factors[:, j : j + b] = q.T
            if bernoulli:
                for r in np.flatnonzero(first < b):
                    # failed outcome: collapse the state before it onto the complement
                    k = int(first[r])
                    prev = out[k - 1, r, :, 0] if k else psi[r, :, 0]
                    collapse = steps[atoms[r, j + k], :, :lam] @ prev
                    collapse[:lam] = 0.0
                    collapsed[r] = collapse / np.linalg.norm(collapse)
                    aborted_at[r] = j + k + 1
                    samplers[r].rewind(m - j - k - 1)  # outcome draws never made
        else:
            _products(mats, block, psi, out)
        pops[:, j : j + b] = (np.abs(out[:, :, :lam, 0]) ** 2).sum(-1).T
        if states is not None:
            states[:, j : j + b, :dim] = out[..., 0].transpose(1, 0, 2)
        psi = out[-1].copy()  # the next block overwrites buf
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
    for r, collapse in collapsed.items():
        k = aborted_at[r] - 1
        cum[r, k] = pops[r, k] = 0.0
        final[r] = collapse
        if states is not None:
            states[r, k] = collapse
    trajs = []
    for r in range(width):
        k = aborted_at[r] or m
        pop = pops[r, :k]
        trajs.append(
            Trajectory(
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
    if config.kind is not ProtocolKind.PROJECTIVE:
        raise ValueError(f"run_projective needs a projective config, not {config.kind.value}")
    return _lockstep(spec, psi0, config, [sampler], hamiltonian_override)[0]


def run_pulsed(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
    *,
    hamiltonian_override: Optional[np.ndarray] = None,
) -> Trajectory:
    """Random-interval kick protocol: psi <- exp(-i H_c s) U(mu_j) psi."""
    if config.kind is not ProtocolKind.PULSED:
        raise ValueError(f"run_pulsed needs a pulsed config, not {config.kind.value}")
    return _lockstep(spec, psi0, config, [sampler], hamiltonian_override)[0]


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
    """Constant strong-coupling protocol, exact via one eigendecomposition.

    The final state is the state at the last sample time, total_time by default.
    """
    if not (total_time > 0):
        raise ValueError("total_time must be positive")
    lam = spec.subspace_size
    psi = _check_initial_state(psi0, lam)
    h = hamiltonian(spec) if hamiltonian_override is None else hamiltonian_override
    h_tot = h + coupling * coupling_hamiltonian(spec)
    if sample_times is None:
        sample_times = np.linspace(0.0, total_time, 2001)
    sample_times = np.asarray(sample_times, dtype=float)
    if not len(sample_times):
        raise ValueError("sample_times is empty")
    if sample_times.min() < -1e-12 or sample_times.max() > total_time + 1e-9:
        raise ValueError("sample_times must lie inside [0, total_time]")

    states = linalg.evolve(h_tot, psi, sample_times)
    pops = np.sum(np.abs(states[:, :lam]) ** 2, axis=1)

    return Trajectory(
        intervals=np.diff(sample_times, prepend=0.0),
        times=sample_times,
        cumulative_survival=pops,
        subspace_population=pops,
        states=states if record_states else None,
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
        return _lockstep(spec, psi0, config, samplers, None)
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
