"""Brute-force and reference oracles used by the tests.

The full-space helpers work in the 2^n tensor-product space and never touch
the package's sector-reduced representations, so the two routes stay
independent.  Keep n <= 6.

The scalar_* functions are references too: the SplitMix64 stream one draw
at a time, the one-realization protocol loops the lockstep ensemble kernel
replaced, kept verbatim but for drawing through ``scalar_uniform``, and the
cell-by-cell CSV writer the column-wise ``write_csv`` replaced.
``scalar_damped_edge_values`` is the damped edge series with one exponential
per rate and grid point, the reference for the factored grid evaluation.
``lone_runs`` and ``loop_fig5`` run one law at a time, step by step: the
references for kernel passes over several laws and for ``preset_fig5``.
``tiled_word_tables`` builds the kernel's stacked word tables with
repeat, tile and concatenate, the reference for their broadcast build.
``lone_law`` builds one config's kernel operators on their own, the
reference for ``protocols._laws``, which builds several configs' together.
"""

from __future__ import annotations

import csv
import datetime
from functools import reduce
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from zenochain import linalg
from zenochain.analysis import aggregate, ensemble_fidelities
from zenochain.chain import (
    ChainSpec,
    coupling_hamiltonian,
    hamiltonian,
    leftmost_excited,
    w_state,
    zeno_hamiltonian,
)
from zenochain.experiments import kappa_family, write_csv
from zenochain.protocols import (
    BLOCK,
    DEAD_BRANCH,
    NORM_FLOOR,
    EnsembleFinals,
    Law,
    ProtocolConfig,
    ProtocolKind,
    Trajectory,
    ZeroSurvivalError,
    _check_initial_state,
    _word_length,
    run_lockstep,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler, moments
from zenochain.theory import (
    EIGVEC_COND_LIMIT,
    ExceptionalPointError,
    edge_damping_rate,
    edge_time_average,
    pstar_weak,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, ops)


def site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Operator on 1-based `site` of an n-qubit register."""
    ops = [ID2] * n
    ops[site - 1] = op
    return kron_all(ops)


def bond_op(op1: np.ndarray, op2: np.ndarray, site: int, n: int) -> np.ndarray:
    """op1 on `site`, op2 on `site`+1 (1-based)."""
    ops = [ID2] * n
    ops[site - 1] = op1
    ops[site] = op2
    return kron_all(ops)


def full_chain_hamiltonian(n: int, alpha: float, beta: float) -> np.ndarray:
    """alpha * sum sigma_z + (beta/2) * sum (sx sx + sy sy) on 2^n."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(1, n + 1):
        h += alpha * site_op(SZ, i, n)
    for i in range(1, n):
        h += 0.5 * beta * (bond_op(SX, SX, i, n) + bond_op(SY, SY, i, n))
    return h


def full_coupling_hamiltonian(n: int, lam: int) -> np.ndarray:
    """sx sx + sy sy on the bond (lam+1, lam+2), no beta/2 prefactor."""
    return bond_op(SX, SX, lam + 1, n) + bond_op(SY, SY, lam + 1, n)


def single_excitation_index(n: int, site: int) -> int:
    """Computational-basis index of |0..010..0> with the 1 at 1-based `site`.

    Qubit 1 is the leftmost (most significant) factor; |1> is the excited
    sigma_z = +1 state, i.e. computational |0>.
    """
    # all qubits in |1> (computational 1) except `site` in |0>
    bits = [1] * n
    bits[site - 1] = 0
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def project_to_sector(op: np.ndarray, n: int) -> np.ndarray:
    """n x n sector matrix <1_i| op |1_j> from the full 2^n operator."""
    idx = [single_excitation_index(n, s) for s in range(1, n + 1)]
    return op[np.ix_(idx, idx)]


def sector_constant_shift(n: int, alpha: float) -> float:
    """Diagonal the field term contributes in the sector: alpha * (2 - n)."""
    return alpha * (2 - n)


def survival_trace_formula(
    h: np.ndarray, proj: np.ndarray, psi0: np.ndarray, intervals: np.ndarray
) -> float:
    """Survival probability from the raw operator product (independent route).

    Accumulates prod_j (P U(mu_j) P) applied to psi0 without renormalizing
    and reads the survival off the final norm.
    """
    from zenochain.linalg import propagator

    phi = proj @ np.asarray(psi0, dtype=complex)
    for mu in intervals:
        phi = proj @ (propagator(h, mu) @ phi)
    return float(np.real(np.vdot(phi, phi)))


def scalar_next_uint64(sampler: SeededSampler) -> int:
    """The sampler's next SplitMix64 output (Steele, Lea & Flood), one draw
    at a time in Python integers, advancing its state: the reference for the
    package's block draws."""
    sampler._state = z = (sampler._state + 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def scalar_uniform(sampler: SeededSampler) -> float:
    """The sampler's next uniform double in [0, 1): the top 53 output bits."""
    return (scalar_next_uint64(sampler) >> 11) * 2.0**-53


def scalar_sample_intervals(
    d: IntervalDistribution, sampler: SeededSampler, m: int
) -> np.ndarray:
    """Draw m i.i.d. waiting times by inverse CDF in atom order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    cdf = np.cumsum(d.probabilities)
    cdf[-1] = 1.0
    values = d.values
    out = np.empty(m)
    for j in range(m):
        u = scalar_uniform(sampler)
        out[j] = values[np.searchsorted(cdf, u, side="right")]
    return out


def _cached_propagators(h: np.ndarray, d: IntervalDistribution) -> dict[float, np.ndarray]:
    # one matrix exponential per distinct atom; runs reuse them m times
    return {mu: linalg.propagator(h, mu) for mu in d.values}


def scalar_run_projective(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
) -> Trajectory:
    """Random-interval projective protocol (post-selected by default)."""
    lam = spec.subspace_size
    psi = _check_initial_state(psi0, lam)
    props = _cached_propagators(hamiltonian(spec), config.distribution)
    intervals = scalar_sample_intervals(config.distribution, sampler, config.num_intervals)

    qs: list[float] = []
    cum: list[float] = []
    states: list[np.ndarray] = []
    log_p = 0.0
    aborted_at: Optional[int] = None

    for j, mu in enumerate(intervals, start=1):
        psi = props[mu] @ psi
        q = float(np.sum(np.abs(psi[:lam]) ** 2))
        if q < DEAD_BRANCH:
            raise ZeroSurvivalError(f"survival factor underflow at step {j}")
        qs.append(q)
        if config.bernoulli and scalar_uniform(sampler) >= q:
            # failed outcome: collapse onto the complement and stop
            psi[:lam] = 0.0
            psi /= np.linalg.norm(psi)
            cum.append(0.0)
            if config.record_states:
                states.append(psi.copy())
            aborted_at = j
            break
        log_p += np.log(q)
        psi[lam:] = 0.0
        psi /= np.sqrt(q)
        cum.append(1.0 if config.bernoulli else float(np.exp(log_p)))
        if config.record_states:
            states.append(psi.copy())

    n = len(qs)
    intervals = intervals[:n]
    return Trajectory(
        intervals=intervals,
        times=np.cumsum(intervals),
        cumulative_survival=np.array(cum),
        survival_factors=np.array(qs),
        states=states if config.record_states else None,
        final_state=psi,
        aborted_at=aborted_at,
        # the running ln-product, as post-selected kernel runs report it
        log_cumulative_survival=None if config.bernoulli else np.cumsum(np.log(qs)),
    )


def scalar_run_pulsed(
    spec: ChainSpec,
    psi0: np.ndarray,
    config: ProtocolConfig,
    sampler: SeededSampler,
) -> Trajectory:
    """Random-interval kick protocol: psi <- exp(-i H_c s) U(mu_j) psi."""
    lam = spec.subspace_size
    psi = _check_initial_state(psi0, lam)
    kick = linalg.propagator(coupling_hamiltonian(spec), config.pulse_area)
    props = _cached_propagators(hamiltonian(spec), config.distribution)
    intervals = scalar_sample_intervals(config.distribution, sampler, config.num_intervals)

    pops = np.empty(len(intervals))
    states: list[np.ndarray] = []
    for j, mu in enumerate(intervals):
        psi = kick @ (props[mu] @ psi)
        pops[j] = float(np.sum(np.abs(psi[:lam]) ** 2))
        if config.record_states:
            states.append(psi.copy())

    return Trajectory(
        intervals=intervals,
        times=np.cumsum(intervals),
        cumulative_survival=pops,
        states=states if config.record_states else None,
        final_state=psi,
    )


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.15g}"


def scalar_write_csv(
    path: Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    reproducible: bool = False,
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if not reproducible:
            fh.write(f"# generated {datetime.datetime.now().isoformat()}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def scalar_damped_edge_values(
    spec: ChainSpec,
    psi0: np.ndarray,
    t_grid: np.ndarray,
    d: IntervalDistribution,
) -> np.ndarray:
    # renormalized |c_lambda(t)|^2 under H_Z - i Gamma |lambda><lambda|; at
    # lambda = n no bond leaves the subspace, so nothing damps the edge
    lam = spec.subspace_size
    psi_sub = _check_initial_state(psi0, lam)[:lam]
    gen = zeno_hamiltonian(spec)
    if lam < spec.n_sites:
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
    amps = v @ (np.exp(-1j * np.outer(rates, t_grid)) * coeff[:, None])
    pops = np.abs(amps) ** 2
    return pops[-1] / np.sum(pops, axis=0)


def tiled_word_tables(mats: np.ndarray, length: int, head: int, tail: int) -> tuple:
    """protocols._word_tables as built before the broadcast build: one batched
    product of repeated and tiled stacks per level, each table one
    concatenate of tiled prefix rows and the whole products."""
    k, levels = len(mats), [mats]
    for _ in range(1, length):
        prev = levels[-1]
        levels.append(np.repeat(mats, len(prev), axis=0) @ np.tile(prev, (k, 1, 1)))

    def stacked(steps: int) -> np.ndarray:  # word c's prefix of i atoms: word c mod k^i of its level
        heads = [np.tile(levels[i][:, :head], (k ** (steps - 1 - i), 1, 1)) for i in range(steps - 1)]
        return np.concatenate([*heads, levels[steps - 1]], axis=1)

    return stacked(length), stacked(tail) if tail else None


def lone_law(spec: ChainSpec, config: ProtocolConfig) -> Law:
    """The Law protocols._laws builds, as built one config at a time: the
    free evolution of each atom, the blocks a column advances by, the slice
    cap K and the word length L."""
    steps = linalg.propagators(hamiltonian(spec), config.distribution.values)
    if config.kind is ProtocolKind.PROJECTIVE:
        lam = spec.subspace_size
        mats = steps[:, :lam, :lam]
        s2 = np.clip(np.linalg.svd(mats, compute_uv=False).min() ** 2, DEAD_BRANCH, np.nextafter(1, 0))
        cap = max(1, int(np.log(NORM_FLOOR) / np.log(s2)))
    else:
        mats = linalg.propagator(coupling_hamiltonian(spec), config.pulse_area) @ steps
        cap = BLOCK
    length = _word_length(len(mats), mats.shape[-1], config.num_intervals, cap)
    return Law(config, steps, mats, cap, length)


def lone_runs(
    spec: ChainSpec,
    psi0: np.ndarray,
    configs: Sequence[ProtocolConfig],
    seeds: Sequence[Sequence[int]],
) -> list[tuple[EnsembleFinals, list[int]]]:
    """Each config's ensemble alone, step by step (run_lockstep), one sampler per
    seed of seeds[i]: its end values and its samplers' states after the run."""
    runs = []
    for config, group in zip(configs, seeds):
        samplers = [SeededSampler(s) for s in group]
        trajs = run_lockstep(spec, psi0, config, samplers)
        runs.append((EnsembleFinals.of(trajs), [s._state for s in samplers]))
    return runs


def loop_fig5(out_dir, seed=5001, m=500, realizations=50, initial="wstate"):
    """preset_fig5 as one edge time average and three ensembles per kappa point,
    each run step by step (run_lockstep) and scored run by run: the reference
    for the preset, which keeps end values alone and runs once per distinct
    mean what depends on the mean alone."""
    spec = ChainSpec(n_sites=12, subspace_size=2)
    psi0 = w_state(12, 2) if initial == "wstate" else leftmost_excited(12)
    rows = []
    for p1, mu1, mu2 in kappa_family():
        d = IntervalDistribution.bimodal(mu1, mu2, p1)
        mom = moments(d)
        c2_avg = edge_time_average(spec, psi0, t_max=m * mom.mean, dt=mom.mean / 20)
        pred = pstar_weak(m, d, spec.beta**2 * c2_avg)
        mean_fids = []  # F_pm, F_pc, F_cc
        for kind in (ProtocolKind.PROJECTIVE, ProtocolKind.PULSED, ProtocolKind.CONTINUOUS):
            proto = ProtocolConfig(kind=kind, num_intervals=m, distribution=d)
            runs = realizations if proto.stochastic else 1
            trajs = run_lockstep(spec, psi0, proto, [SeededSampler(seed).spawn(i) for i in range(runs)])
            mean_fids.append(float(np.mean(ensemble_fidelities(spec, psi0, trajs))))
            if kind is ProtocolKind.PROJECTIVE:
                surv = aggregate(trajs)
        rows.append(
            (mom.kappa, 1.0 + mom.kappa, mu1, mu2, surv.log_mean, pred.log_pstar, *mean_fids)
        )
    name = "fig5_kappa.csv" if initial == "wstate" else "fig5_inset_kappa.csv"
    header = ("kappa", "one_plus_kappa", "mu1_us", "mu2_us", "ln_P_sim_mean",
              "ln_pstar_theory", "F_pm", "F_pc", "F_cc")
    write_csv(out_dir / name, header, zip(*rows), reproducible=True)
