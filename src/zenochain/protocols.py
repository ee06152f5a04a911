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
                eigendecomposition of H + g*H_c.  It is deterministic, so
                run_lockstep runs it once, however many samplers it gets.

run_continuous alone accepts an explicit sector Hamiltonian, for modified
chains (for instance a severed boundary bond).
"""

from __future__ import annotations

import functools
import itertools
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
    is_integer,
    moments,
)

NORM_TOL = 1e-10
DEAD_BRANCH = 1e-300
NORM_FLOOR = 1e-250  # no projective product falls below this times its slice's start
BLOCK = 64  # the longest word, and the shortest slice where K allows it
TABLE_BYTES = 1 << 18  # cap on a word table, and on one gather of its words
SLICE_BYTES = 1 << 19  # cap on the states of one slice, unless BLOCK steps exceed it


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
        if not is_integer(m):
            raise ValueError(f"num_intervals must be an integer, got {m!r}")
        if m < 1:
            raise ValueError("num_intervals must be >= 1")
        if self.bernoulli and self.kind is not ProtocolKind.PROJECTIVE:
            raise ValueError(
                f"bernoulli outcomes apply to the projective protocol only, not {self.kind.value}"
            )
        # a phase E t of 1e300 or more could overflow exp(-i E t) into nan
        if self.kind is ProtocolKind.PULSED and not (0 < self.pulse_area < 1e300):
            raise ValueError(f"pulse_area must lie in (0, 1e300), got {self.pulse_area}")
        if self.kind is ProtocolKind.CONTINUOUS and self.coupling is not None and not (
            0 < float(self.coupling) * float(m) * moments(self.distribution).mean < 1e300
        ):
            raise ValueError(f"coupling must be > 0, times m * mean(mu) < 1e300, got {self.coupling}")

    @property
    def stochastic(self) -> bool:
        """Whether realizations differ: a projective or pulsed protocol under
        a law of several atoms, or Bernoulli outcomes."""
        return self.kind is not ProtocolKind.CONTINUOUS and (
            len(self.distribution.atoms) > 1 or self.bernoulli
        )

    def effective_coupling(self) -> float:
        """Continuous coupling strength; defaults to pi / (2 * mean interval)."""
        if self.coupling is not None:
            return self.coupling
        return np.pi / (2.0 * moments(self.distribution).mean)


@dataclass
class Trajectory:
    """One protocol realization.

    cumulative_survival for the projective protocol is the running product
    of the q_j (for a Bernoulli run the survival indicator); for the
    coherent protocols, which are unitary and post-select nothing, it is the
    instantaneous subspace population.
    survival_factors is None for the coherent protocols.  Post-selected
    projective runs keep log_cumulative_survival, the running sum of ln q_j,
    finite where the product underflows.  aborted_at is the 1-based step of
    the first failed Bernoulli outcome, None otherwise; log_survival is -inf
    for such a run.
    """

    intervals: np.ndarray
    times: np.ndarray
    cumulative_survival: np.ndarray
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


@dataclass(frozen=True)
class EnsembleFinals:
    """The end values each run's Trajectory reads, one entry (final_states: a
    row) per run of an ensemble; aborted_at is 0 for a run that never aborted."""

    final_states: np.ndarray
    total_times: np.ndarray
    final_survival: np.ndarray
    log_survival: np.ndarray
    aborted_at: np.ndarray

    @classmethod
    def of(cls, trajs: list[Trajectory]) -> EnsembleFinals:
        return cls(*map(np.array, zip(*[(t.final_state, t.total_time, t.final_survival,
                                         t.log_survival, t.aborted_at or 0) for t in trajs])))


def _check_initial_state(psi0: np.ndarray, subspace_size: int) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > NORM_TOL:
        raise InitialStateOutsideSubspaceError("initial state is not normalized")
    if np.linalg.norm(psi0[subspace_size:]) > NORM_TOL:
        raise InitialStateOutsideSubspaceError(
            "initial state has weight outside the subspace"
        )
    return psi0.copy()


def _word_length(atoms: int, dim: int, m: int, longest: int = BLOCK) -> int:
    """Steps per word, L: the largest power of two <= min(BLOCK, longest) whose
    k + k^2 + ... + k^L prefix products (k atoms) fit in TABLE_BYTES and with
    3 L^2 <= m.  At these sizes numpy's per-call cost outweighs the
    arithmetic: a table level costs about three sub-blocks' calls, so one
    column's L levels and m / L sub-blocks cost least near L = sqrt(m / 3).
    L is never a function of the ensemble width, so no column's arithmetic
    is either.  The stacked table holds k^L words of at most L * dim rows,
    so it takes at most L * TABLE_BYTES."""
    def fits(length: int) -> bool:  # k + k^2 + ... + k^L products
        words = length if atoms == 1 else (atoms ** (length + 1) - atoms) // (atoms - 1)
        return words * 16 * dim * dim <= TABLE_BYTES and 3 * length * length <= m

    return max((2**p for p in range(1, min(BLOCK, longest).bit_length()) if fits(2**p)), default=1)


def _steps_above_floor(mats: np.ndarray) -> int:
    """K = floor(ln NORM_FLOOR / ln s^2), at least 1, s the smallest singular
    value of the projective blocks: no product of K of them takes a state's
    squared norm below NORM_FLOOR times its start.  Unitary blocks (lambda =
    n) have s^2 = 1 to rounding, which the clip makes K ~ 5e18: no cap."""
    s2 = np.clip(np.linalg.svd(mats, compute_uv=False).min() ** 2, DEAD_BRANCH, np.nextafter(1, 0))
    return max(1, int(np.log(NORM_FLOOR) / np.log(s2)))


def _word_tables(mats: np.ndarray, length: int, head: int, tail: int) -> tuple:
    """The stacked words of length steps, and of tail steps if tail > 0: the
    word of atoms a_0..a_(l-1), at code sum_p a_p k^p, holds the first head
    rows of each proper prefix product mats[a_(i-1)] @ ... @ mats[a_0], i <
    l, then all rows of the whole product.  One broadcast product per level,
    and one broadcast copy per prefix into a table."""
    mats = np.ascontiguousarray(mats)  # a projective block is a view into n x n steps
    k, dim = mats.shape[:2]
    levels = [mats]
    for _ in range(1, length):  # word a k^i + c of level i: mats[a] @ word c of level i - 1
        levels.append(np.matmul(mats[:, None], levels[-1][None]).reshape(-1, dim, dim))

    def stacked(steps: int) -> np.ndarray:
        out = np.empty((k**steps, (steps - 1) * head + dim, dim), mats.dtype)
        for i in range(steps - 1):  # word c's prefix of i + 1 atoms: word c mod k^(i+1) of level i
            words = out.reshape(k ** (steps - 1 - i), k ** (i + 1), -1, dim)
            words[:, :, i * head : (i + 1) * head] = levels[i][:, :head]
        out[:, (steps - 1) * head :] = levels[steps - 1]
        return out

    return stacked(length), stacked(tail) if tail else None


def _products(
    tables: tuple, block: np.ndarray, powers: np.ndarray, psi: np.ndarray, out: np.ndarray
) -> int:
    """Advance every column from psi through block's steps (width x steps atom
    indices), L = len(powers) per sub-block: one gather of the stacked word
    of code sum_p a_p k^p (powers[p] = k^p; the tail table for a short last
    sub-block) and one batched product.  Sub-block s writes its rows (rows x
    1 per column) to slot s mod slots of out: its own slot where out holds
    every sub-block, two that alternate where only the carried state is
    read.  Returns the row after the last product's.  Chunks of columns keep
    a gather within TABLE_BYTES and change no number."""
    (table, tail), (width, steps), length = tables, block.shape, len(powers)
    codes = np.add.reduceat(block * powers[np.arange(steps) % length], np.arange(0, steps, length), 1)
    whole, (rows, dim) = steps // length, table.shape[1:]
    tailed = whole < codes.shape[1]  # a short last sub-block, from the tail table
    slots = out.shape[1] // rows
    last = whole if tailed else whole - 1  # the last sub-block
    end = last % slots * rows + (tail.shape[1] if tailed else rows)
    chunk = min(width, max(1, TABLE_BYTES // table[0].nbytes))
    gathered = np.empty((chunk, rows, dim), dtype=complex)  # fresh gathers page-fault
    for c in range(0, width, chunk):
        state, cols, part = psi[c : c + chunk], codes[c : c + chunk].T.copy(), out[c : c + chunk]
        subs = part[:, : slots * rows].reshape(len(state), slots, rows, 1)
        for s in range(whole):
            w = table.take(cols[s], 0, gathered[: len(state)], "clip")
            state = np.matmul(w, state, subs[:, s % slots])[:, -dim:]
        if tailed:
            np.matmul(tail[cols[-1]], state, part[:, end - tail.shape[1] : end])
    return end


def _row_sums(p: np.ndarray) -> np.ndarray:
    """p.sum(-1), bit for bit, from adds in numpy's own order: left to right
    below 8 terms; from 8, eight running sums combined pairwise, then the
    rest left to right.  numpy halves a sum of 128 or more recursively."""
    lam = p.shape[-1]
    if lam >= 128:
        return p.sum(-1)
    full, terms = lam - lam % 8 if lam >= 8 else 0, []
    if full:
        r = functools.reduce(np.add, [p[..., i : i + 8] for i in range(0, full, 8)])
        r = r[..., 0::2] + r[..., 1::2]
        terms.append((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3]))
    return functools.reduce(np.add, terms + [p[..., k] for k in range(full, lam)])


def _law(spec: ChainSpec, config: ProtocolConfig) -> tuple:
    """A projective or pulsed config with its operators: the free evolution
    of each atom, the blocks a column advances by, the slice cap K and the
    word length L."""
    steps = linalg.propagators(hamiltonian(spec), config.distribution.values)
    if config.kind is ProtocolKind.PROJECTIVE:
        lam = spec.subspace_size
        mats = steps[:, :lam, :lam]
        cap = _steps_above_floor(mats)
    else:
        mats = linalg.propagator(coupling_hamiltonian(spec), config.pulse_area) @ steps
        cap = BLOCK
    length = _word_length(len(mats), mats.shape[-1], config.num_intervals, cap)
    return config, steps, mats, cap, length


def _lockstep(
    spec: ChainSpec,
    psi0: np.ndarray,
    laws: list[tuple],
    samplers: list[list[SeededSampler]],
    series: bool = True,
) -> list[Trajectory] | EnsembleFinals:
    """Advance every realization of projective or pulsed ensembles together:
    one pass over the laws (_law) that share every setting but their
    distribution, their atom count k and their word length L, samplers[i]
    the columns of laws[i], law after law in the result.

    One multi-stream draw gives every column its intervals (and Bernoulli
    outcomes) from its own sampler, exactly as a lone run would.  A column
    advances L steps per gather of one stacked word and batched product,
    and L depends on the law, the state dimension and m only.  The laws'
    word tables stack, law after law, and a column's codes are offset into
    its law's block.  A sub-block computes head rows per step, all dim of
    its last step's, which carry on: none but those for a pulsed run that
    keeps no series, whose sub-blocks alternate between two slots; lambda
    for a pulsed run that records no states; dim otherwise.  Steps run in
    slices: the most multiples of L whose states fit SLICE_BYTES, at least
    BLOCK steps; m mod L steps at the end read a tail table.

    - pulsed: the fused kick @ U(mu) on the n-site state, unitary, so never
      renormalized;
    - projective: the lambda x lambda block P U(mu) P on a state that lives
      on the subspace.  The block is linear, so the unnormalized product
      carries every step: its squared norms n_i give q_i = n_i / n_(i-1)
      and one division the normalized state after each step.  At a slice
      end the product and its squared norm are scaled by an exact power of
      two, which becomes the next slice's n_(-1) (1 before the first step).
      So no column's numbers depend on the slicing, on the width of the
      ensemble or on the laws beside it.  Slices and L are capped at K
      steps, the least K of the laws, over which no product can fall below
      NORM_FLOOR times its start (_steps_above_floor).  The complement is
      built only for a column whose Bernoulli outcome fails, and states are
      zero-padded back to n sites.

    With series, factors (projective), populations (pulsed) and states fill
    whole (width x steps) arrays a slice at a time and each Trajectory holds
    row slices of them; without, a pulsed word holds its whole product alone.
    """
    config, length = laws[0][0], laws[0][4]  # the settings every law shares
    n, lam, m = spec.n_sites, spec.subspace_size, config.num_intervals
    psi0 = _check_initial_state(psi0, lam)
    cols = [s for runs in samplers for s in runs]
    widths = [len(runs) for runs in samplers]
    width, bounds = len(cols), [0, *itertools.accumulate(widths)]
    projective = config.kind is ProtocolKind.PROJECTIVE
    bernoulli = projective and config.bernoulli
    steps = np.concatenate([law[1] for law in laws])  # one free evolution per atom, law after law
    k, dim = laws[0][2].shape[:2]
    cap = min(law[3] for law in laws)
    head = (dim if config.record_states else lam) if series or projective else 0  # rows kept per step
    tables = [_word_tables(law[2], length, head, m % length) for law in laws]
    if len(tables) > 1:  # law after law; a lone law's tables as built
        tables = [tuple(None if t[0] is None else np.concatenate(t) for t in zip(*tables))]
    tables = tables[0]
    rows, powers = tables[0].shape[1], k ** np.arange(length)
    base = np.repeat(k * np.arange(len(laws)), widths)  # a column's law's first atom in steps
    span = max(BLOCK, SLICE_BYTES // (width * dim * 16) // length * length)
    if projective:
        span = min(span, cap // length * length)
    draws = draw_uniforms(cols, 2 * m if bernoulli else m)  # intervals, then outcomes
    atoms = np.empty((width, m), np.min_scalar_type(len(laws) * k - 1))
    for (law, *_), a, b in zip(laws, bounds, bounds[1:]):
        atoms[a:b] = atom_indices(law.distribution, draws[a:b, :m])
    if not bernoulli:
        del draws  # only Bernoulli outcomes are read later
    intervals = np.empty((width, m))  # after the draws: in pages they used
    for (law, *_), a, b in zip(laws, bounds, bounds[1:]):
        law.distribution.values.take(atoms[a:b], out=intervals[a:b], mode="clip")
    # a column's codes start at its law's block of words: law k^L (law k^t in
    # the tail table of t steps) = (law k) k^(L-1), so the last atom of each
    # sub-block carries base = law k, and a step's own atom is its index mod k
    shift = base.astype(atoms.dtype)[:, None]
    atoms[:, length - 1 :: length] += shift
    if m % length:
        atoms[:, -1:] += shift
    times = np.cumsum(intervals, 1, out=None if series else intervals)  # finals: in place
    if not (series or bernoulli):  # every run ends at step m: keep its end time alone
        intervals = times = times[:, -1:].copy()
    psi = np.repeat(psi0[None, :dim, None], width, axis=0)  # projective: unnormalized
    state = psi[..., 0]  # the normalized state after the last step
    slots = -(-min(span, m) // length)
    buf = np.empty((width, (slots if head else min(slots, 2)) * rows, 1), dtype=complex)

    factors = np.empty((width, m)) if projective and series else None
    cum = None if projective or not series else np.empty((width, m))  # pulsed: the population
    states = np.zeros((width, m, n), dtype=complex) if config.record_states and series else None
    log_p = np.zeros((width, 1))  # finals: the sum of ln q_j so far, -inf once aborted
    aborted_at = np.zeros(width, dtype=int)  # 0 = never
    collapsed: dict[int, np.ndarray] = {}
    carry = np.ones((width, 1))  # projective: the squared norm of psi, n_(-1)
    for j in range(0, m, span):
        b = min(span, m - j)
        used = _products(tables, atoms[:, j : j + b], powers, psi, buf)
        last = buf[:, used - dim : used].copy()  # the next slice overwrites buf
        out = buf[:, :used].reshape(width, b, dim, 1) if head == dim else None  # every state
        if projective:
            vec = out[..., 0].view(float)
            norms = np.empty((width, b + 1))
            norms[:, :1] = carry  # n_(-1)
            np.vecdot(vec, vec, out=norms[:, 1:])  # n_0, ..., n_(b-1)
            # the max only acts after a zero product (a dead step, or an
            # aborted column): finite placeholders, never read
            q = np.maximum(norms[:, :-1], DEAD_BRANCH)
            q = np.divide(norms[:, 1:], q, out=q)
            np.maximum(norms, DEAD_BRANCH, out=norms)
            lo = 0 if bernoulli or states is not None else b - 1  # else only the last is read
            out[:, lo:] /= np.sqrt(norms[:, lo + 1 :])[..., None, None]
            live = aborted_at == 0
            dead = (q < DEAD_BRANCH) & live[:, None]
            if bernoulli:
                fail = (draws[:, m + j : m + j + b] >= q) & live[:, None]
                first = np.where(fail.any(1), fail.argmax(1), b)  # b = no failure
                dead &= np.arange(b) <= first[:, None]  # later steps are never reached
            if dead.any():
                raise ZeroSurvivalError(
                    f"survival factor underflow at step {j + dead.any(0).argmax() + 1}"
                )
            if series:
                factors[:, j : j + b] = q
            elif not bernoulli:  # the cumsum of the series, one slice at a time
                sums = np.concatenate([log_p, np.log(q, out=q)], 1)
                log_p = np.cumsum(sums, 1, out=sums)[:, -1:].copy()
            if bernoulli:
                for r in np.flatnonzero(first < b):
                    # failed outcome: collapse the state before it onto the complement
                    i = int(first[r])
                    prev = out[r, i - 1, :, 0] if i else state[r]
                    collapse = steps[base[r] + atoms[r, j + i] % k, :, :lam] @ prev
                    collapse[:lam] = 0.0
                    collapsed[r] = collapse / np.linalg.norm(collapse)
                    aborted_at[r], log_p[r] = j + i + 1, -np.inf
                    cols[r].rewind(m - j - i - 1)  # outcome draws never made
            # a power of two scales exactly, so every later q and state
            # rounds as it would without the scaling
            shift = np.frexp(norms[:, -1:])[1] // 2
            np.ldexp(last.view(float), -shift[..., None], out=last.view(float))
            carry = np.ldexp(norms[:, -1:], -2 * shift)
        elif series:  # the first L * head rows of a sub-block are its steps' leading rows
            heads = buf[:, : -(-b // length) * rows].reshape(width, -1, rows)[:, :, : length * head]
            cum[:, j : j + b] = _row_sums(np.abs(heads.reshape(width, -1, head)[:, :b, :lam]) ** 2)
        if states is not None:
            states[:, j : j + b, :dim] = out[..., 0]
        psi, state = last, out[:, -1, :, 0].copy() if projective else last[..., 0]
        if bernoulli and np.all(aborted_at):
            break

    final = np.zeros((width, n), dtype=complex)
    final[:, :dim] = state
    for r, collapse in collapsed.items():
        final[r] = collapse
        if states is not None:
            states[r, aborted_at[r] - 1] = collapse
    if not series:  # a run ends at step m, or at the step its outcome failed
        p = np.exp(log_p[:, 0]) if projective else _row_sums(np.abs(state[:, :lam]) ** 2)
        log_p = log_p[:, 0] if projective else np.log(p, out=np.full(width, -np.inf), where=p > 0)
        return EnsembleFinals(final, times[np.arange(width), aborted_at - 1], p, log_p, aborted_at)
    log_cum = None
    if bernoulli:  # the survival indicator, 0 at a failed outcome
        cum = np.where(np.arange(1, m + 1) == aborted_at[:, None], 0.0, 1.0)
    elif projective:
        log_cum = np.cumsum(np.log(factors), axis=1)
        cum = np.exp(log_cum)
    trajs = []
    for r in range(width):
        i = aborted_at[r] or m
        trajs.append(
            Trajectory(
                intervals=intervals[r, :i],
                times=times[r, :i],
                cumulative_survival=cum[r, :i],
                final_state=final[r],
                survival_factors=factors[r, :i] if projective else None,
                log_cumulative_survival=None if log_cum is None else log_cum[r],
                states=None if states is None else states[r, :i],
                aborted_at=int(aborted_at[r]) or None,
            )
        )
    return trajs


def run_projective(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
) -> Trajectory:
    """Random-interval projective protocol (post-selected by default)."""
    if config.kind is not ProtocolKind.PROJECTIVE:
        raise ValueError(f"run_projective needs a projective config, not {config.kind.value}")
    return _lockstep(spec, psi0, [_law(spec, config)], [[sampler]])[0]


def run_pulsed(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
) -> Trajectory:
    """Random-interval kick protocol: psi <- exp(-i H_c s) U(mu_j) psi."""
    if config.kind is not ProtocolKind.PULSED:
        raise ValueError(f"run_pulsed needs a pulsed config, not {config.kind.value}")
    return _lockstep(spec, psi0, [_law(spec, config)], [[sampler]])[0]


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
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")
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

    return Trajectory(
        intervals=np.diff(sample_times, prepend=0.0),
        times=sample_times,
        cumulative_survival=np.sum(np.abs(states[:, :lam]) ** 2, axis=1),
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

    Realization r is bit-identical to a lone run with samplers[r].  A
    deterministic ensemble is one run, and the list holds only that run:
    the continuous protocol, for the expected total time
    num_intervals * mean(mu) with the population on the same per-interval
    grid the stochastic protocols use, and a post-selected projective or
    pulsed ensemble under a one-atom law, run with samplers[0].  It leaves
    samplers[1:] untouched.  Bernoulli ensembles keep one run per sampler,
    since their outcomes stay random.
    """
    if not samplers:
        raise ValueError("need at least one realization")
    if config.kind is not ProtocolKind.CONTINUOUS:
        runs = samplers if config.stochastic else samplers[:1]
        return _lockstep(spec, psi0, [_law(spec, config)], [runs])
    mean = moments(config.distribution).mean
    traj = run_continuous(
        spec,
        psi0,
        total_time=config.num_intervals * mean,
        coupling=config.effective_coupling(),
        sample_times=mean * np.arange(1, config.num_intervals + 1),
        record_states=config.record_states,
    )
    return [traj]


def run_finals(spec: ChainSpec, psi0: np.ndarray, config: ProtocolConfig,
               samplers: list[SeededSampler]) -> EnsembleFinals:
    """run_lockstep's end values, bit for bit from the same draws, without per-step
    series: a projective or pulsed ensemble builds no Trajectory, records no states."""
    return run_finals_many(spec, psi0, [config], [samplers])[0]


def run_finals_many(spec: ChainSpec, psi0: np.ndarray, configs: list[ProtocolConfig],
                    samplers: list[list[SeededSampler]]) -> list[EnsembleFinals]:
    """run_finals of each config with its samplers[i], each bit for bit its lone run.

    Projective and pulsed laws that share every setting but their
    distribution, and also their atom count k and word length L, advance
    in one _lockstep pass, each column from its own sampler; the passes run
    in the order of their first law.  A continuous config is its one run.
    """
    results: list = [None] * len(configs)
    passes: dict[tuple, list] = {}
    for i, (config, runs) in enumerate(zip(configs, samplers)):
        if config.kind is ProtocolKind.CONTINUOUS or not runs:  # its one run, or its error
            results[i] = EnsembleFinals.of(run_lockstep(spec, psi0, config, runs))
            continue
        law = _law(spec, config)
        key = (config.kind, config.num_intervals, config.pulse_area, config.bernoulli,
               len(law[2]), law[4])
        passes.setdefault(key, []).append((i, law, runs if config.stochastic else runs[:1]))
    for members in passes.values():
        index, laws, runs = zip(*members)
        finals = _lockstep(spec, psi0, list(laws), list(runs), False)
        bounds = [0, *itertools.accumulate(map(len, runs))]
        for i, a, b in zip(index, bounds, bounds[1:]):
            results[i] = EnsembleFinals(*(v[a:b] for v in vars(finals).values()))
    return results
