"""Experiment orchestration and CSV emission.

All outputs are CSV (RFC-4180 commas, 15 significant digits); plotting is
left to external tools.  Runs are deterministic for a fixed seed: each
realization gets a child stream derived from the master seed, and all
realizations of an ensemble advance together in one lockstep kernel
(``protocols.run_lockstep``) whose columns do not interact, so a
realization's numbers are bit-identical however many run beside it.
"""

from __future__ import annotations

import datetime
import functools
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .analysis import aggregate, ensemble_fidelities
from .chain import ChainSpec, leftmost_excited, w_state, zeno_hamiltonian
from .config import ExperimentConfig
from .protocols import (
    ProtocolConfig,
    ProtocolKind,
    Trajectory,
    run_continuous,
    run_exact_subspace,
    run_lockstep,
    run_projective,
    run_pulsed,
)
from .stochastics import IntervalDistribution, SeededSampler, derive_seed, moments
from .theory import (
    _exponent,
    edge_time_average,
    pstar_weak,
    three_level_hamiltonian,
    three_level_survival,
)
from . import linalg

CHUNK_ROWS = 512  # rows made text and written together: memory bounded by this
EDGE_SERIES_STEPS_PER_MEAN = 20  # dt = mean(mu) / 20 for the theory integral
_FIELDS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.15g"}  # cell format by dtype kind


def _cells(column, lone: bool) -> list[str]:
    """Text cells of one column, by its dtype; a list or tuple of ``str`` is used as
    it is.  Text is quoted as csv.writer quotes it: where a cell holds a comma, a
    quote or a line break, or is its row's only field and empty.
    """
    if not (type(column) in (list, tuple) and set(map(type, column)) <= {str}):
        values = np.asarray(column)
        if values.dtype.kind in _FIELDS:  # one % call for the column: cheaper than one per cell
            field = _FIELDS[values.dtype.kind]
            if field == "%.15g" and all(map(float.is_integer, values[:1].tolist())):  # cheap screen
                # whole numbers below 1e15, -0.0 aside, read the same by %d, which is cheaper
                if ((np.abs(values) < 1e15) & (np.trunc(values) == values)
                        & (np.signbit(values) == (values < 0))).all():
                    field, values = "%d", values.astype(np.int64)
            return (("\n" + field) * len(values) % tuple(values.tolist())).split("\n")[1:]
        if values.dtype.kind != "U":
            raise TypeError(f"cannot write a column of dtype {values.dtype}")
        column = list(column)  # the caller's strings: numpy drops trailing NULs
    if lone or any(ch in "".join(column) for ch in ',"\r\n'):
        quote = [(lone and not c) or any(ch in c for ch in ',"\r\n') for c in column]
        column = ['"' + c.replace('"', '""') + '"' if q else c for c, q in zip(column, quote)]
    return column


def write_csv(
    path: Path,
    header: Sequence[str],
    columns: Iterable[Sequence],
    reproducible: bool = False,
) -> None:
    """Write a table given as one sequence of cells per header field.

    Each column object becomes text once, by its dtype: integers and bools
    in decimal, floats as ``%.15g``, strings as they are, quoted the way
    ``csv.writer`` quotes them.  A column passed for two fields is made text
    once for both.  Lines end in CRLF.  Unless ``reproducible``, a
    ``# generated <timestamp>`` comment comes first.
    """
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
    lone = len(header) == 1
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        if not reproducible:
            fh.write(f"# generated {datetime.datetime.now().isoformat()}\r\n")
        fh.write(",".join(_cells(header, lone)) + "\r\n")
        for start in range(0, len(columns[0]) if columns else 0, CHUNK_ROWS):
            text = {id(c): c[start : start + CHUNK_ROWS] for c in columns}
            text = {key: _cells(c, lone) for key, c in text.items()}
            rows = zip(*(text[id(c)] for c in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


@functools.lru_cache(maxsize=1)
def _step_text(steps: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Steps 1..steps and a blank column as text, shared by a run's files."""
    return tuple(map(str, range(1, steps + 1))), ("",) * steps


def write_trajectory_csv(
    traj: Trajectory, path: Path, reproducible: bool = False
) -> None:
    """Per-step export: step, t_us, mu_us, q_j, P_cum, pop_subspace.

    q_j is blank for a coherent run, pop_subspace for a projective one.
    """
    steps, blank = _step_text(len(traj.times))
    atoms, which = np.unique(traj.intervals, return_inverse=True)
    write_csv(
        path,
        ("step", "t_us", "mu_us", "q_j", "P_cum", "pop_subspace"),
        (
            steps,
            traj.times,
            list(map(_cells(atoms, False).__getitem__, which.tolist())),  # text once per atom
            blank if traj.survival_factors is None else traj.survival_factors,
            traj.cumulative_survival,
            traj.cumulative_survival if traj.survival_factors is None else blank,
        ),
        reproducible,
    )


def _eigenstate_edge_weight(spec: ChainSpec, psi0: np.ndarray) -> float:
    """|c_lambda|^2 of the subspace eigenstate closest to psi0.

    Used by the constant-edge prediction: the confined dynamics relaxes
    toward the dominant eigenstate of the subspace Hamiltonian.
    """
    lam = spec.subspace_size
    dec = linalg.hermitian_eig(zeno_hamiltonian(spec))
    overlaps = np.abs(dec.eigenvectors.conj().T @ np.asarray(psi0[:lam], dtype=complex))
    k = int(np.argmax(overlaps))
    return float(np.abs(dec.eigenvectors[lam - 1, k]) ** 2)


def _edge_grid(d: IntervalDistribution, m):
    """(t_max, dt) of the ideal edge population: the expected span of m intervals,
    one t_max per entry where m is an array."""
    mean = moments(d).mean
    return m * mean, mean / EDGE_SERIES_STEPS_PER_MEAN


def _predicted_staircase(spec: ChainSpec, psi0: np.ndarray, d: IntervalDistribution, m_values):
    """The time-averaged P* after each of m_values intervals, from the closed-form edge average."""
    avg = edge_time_average(spec, psi0, *_edge_grid(d, m_values))
    return np.exp(-_exponent(m_values, moments(d), spec.beta**2 * avg))


def _theory_row(spec: ChainSpec, psi0: np.ndarray, protocol: ProtocolConfig):
    """A sweep point's theory.csv row and prediction."""
    d, m = protocol.distribution, protocol.num_intervals
    mom = moments(d)
    c2_eigen = _eigenstate_edge_weight(spec, psi0)
    c2_avg = edge_time_average(spec, psi0, *_edge_grid(d, m))
    pred_avg = pstar_weak(m, d, spec.beta**2 * c2_avg)  # pstar_time_averaged, from the average
    pstar_const = pstar_weak(m, d, spec.beta**2 * c2_eigen).pstar
    return (
        spec.subspace_size,
        m,
        mom.mean,
        mom.kappa,
        spec.beta,
        c2_eigen,
        c2_avg,
        pstar_const,
        pred_avg.pstar,
    ), pred_avg


THEORY_HEADER = (
    "lambda",
    "m",
    "mu_mean",
    "kappa",
    "beta",
    "c2_eigen",
    "c2_time_avg",
    "pstar_const",
    "pstar_time_avg",
)

SUMMARY_HEADER = (
    "lambda",
    "protocol",
    "F",
    "P_final",
    "pstar_theory",
    "kappa",
    "m",
    "mu_mean",
)


def run_ensemble(
    spec: ChainSpec,
    psi0: np.ndarray,
    protocol: ProtocolConfig,
    realizations: int,
    seed: int,
):
    """All realizations for one chain geometry; returns (trajectories, fidelities).

    Realization i draws its intervals from the child stream
    derive_seed(seed, i); all advance together in one lockstep kernel and
    are scored against the ideal confined evolution at their own realized
    total times.  A deterministic ensemble (the continuous protocol, or a
    one-atom post-selected or pulsed one) is one run, not ``realizations``.
    """
    children = derive_seed(seed, np.arange(realizations, dtype=np.uint64))
    trajs = run_lockstep(spec, psi0, protocol, [SeededSampler(s) for s in children.tolist()])
    return trajs, ensemble_fidelities(spec, psi0, trajs).tolist()


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    reproducible: bool = False,
) -> dict:
    """Run the configured experiment; emit trajectory, summary and theory CSVs.

    Sweeps (lambda_sweep, kappa_sweep) add one summary/theory row per point;
    per-step trajectory files, one per run, are written for the base
    configuration only, and its runs and predicted P* are returned.
    """
    out = Path(out_dir if out_dir is not None else config.output_path)
    out.mkdir(parents=True, exist_ok=True)

    summary_rows, theory_rows, runs = [], [], {}
    for k, (spec, psi0, protocol) in enumerate(config.sweep_points()):
        if protocol.kind is not ProtocolKind.CONTINUOUS:
            trajs, fids = run_ensemble(spec, psi0, protocol, config.realizations, config.seed)
        else:  # reads the interval law through its mean alone: one run per distinct mean
            key = (spec, psi0.tobytes(), moments(protocol.distribution).mean,
                   protocol.num_intervals, protocol.effective_coupling())
            if key not in runs:
                runs[key] = run_ensemble(spec, psi0, protocol, config.realizations, config.seed)
            trajs, fids = runs[key]
        trow, pred = _theory_row(spec, psi0, protocol)
        if k == 0:
            base_trajs, base_pred = trajs, pred
            for i, traj in enumerate(trajs):
                write_trajectory_csv(traj, out / f"trajectory_r{i}.csv", reproducible)
        theory_rows.append(trow)
        summary_rows.append(
            (
                spec.subspace_size,
                protocol.kind.value,
                float(np.mean(fids)),
                float(np.mean([t.final_survival for t in trajs])),
                pred.pstar,
                pred.interval_moments.kappa,
                protocol.num_intervals,
                pred.interval_moments.mean,
            )
        )

    write_csv(out / "summary.csv", SUMMARY_HEADER, zip(*summary_rows), reproducible)
    write_csv(out / "theory.csv", THEORY_HEADER, zip(*theory_rows), reproducible)
    return {
        "out_dir": out,
        "trajectories": base_trajs,
        "prediction": base_pred,
        "files": sorted(p.name for p in out.glob("*.csv")),
    }


def write_theory_csv(
    config: ExperimentConfig, out_dir: Optional[str] = None, reproducible: bool = False
) -> Path:
    """Theory-only run: the theory.csv rows of ``run_experiment``, same sweep."""
    path = Path(out_dir if out_dir is not None else config.output_path) / "theory.csv"
    rows = [_theory_row(*point)[0] for point in config.sweep_points()]
    write_csv(path, THEORY_HEADER, zip(*rows), reproducible)
    return path


def run_three_level(
    omega: float,
    g_list: Sequence[float],
    t_max: float,
    dt: float,
    out_dir: str,
    reproducible: bool = False,
) -> Path:
    """Closed form vs numerical propagation of the three-level model."""
    if not (0 <= omega < np.inf and 0 < t_max < np.inf and 0 < dt < np.inf):
        raise ValueError("omega must be finite and >= 0, t_max and dt finite and > 0")
    if not len(g_list) or not np.all(np.isfinite(g_list)):
        raise ValueError(f"need one or more couplings g, each finite, got {list(g_list)}")
    t_grid = np.arange(0.0, t_max + 0.5 * dt, dt)
    formula, numeric = [], []
    for g in g_list:
        c1 = linalg.evolve(three_level_hamiltonian(omega, g), [1.0, 0.0, 0.0], t_grid)[:, 0]
        numeric.append(np.abs(c1) ** 2)
        formula.append(three_level_survival(omega, g, t_grid))
    formula, numeric = np.ravel(formula), np.ravel(numeric)
    columns = (
        np.repeat(g_list, len(t_grid)),
        np.tile(t_grid, len(g_list)),
        formula,
        numeric,
        np.abs(formula - numeric),
    )
    path = Path(out_dir) / "three_level.csv"
    write_csv(path, ("g", "t", "P_formula", "P_numeric", "abs_diff"), columns, reproducible)
    return path


# --------------------------------------------------------------------------
# figure presets
# --------------------------------------------------------------------------

N_SITES = 12
BIMODAL_1_5 = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
BIMODAL_3_5 = IntervalDistribution.bimodal(3.0, 5.0, 0.5)


def preset_fig2(
    out_dir: str, seed: int = 2001, m: int = 2000, reproducible: bool = False
) -> Path:
    """W-state survival staircases for subspace sizes 1..9 plus both predictions."""
    d = BIMODAL_1_5
    mom = moments(d)
    m_axis = np.arange(1, m + 1)
    per_lambda = []

    for lam in range(1, 10):
        spec = ChainSpec(n_sites=N_SITES, subspace_size=lam)
        psi0 = w_state(N_SITES, lam)
        proto = ProtocolConfig(
            kind=ProtocolKind.PROJECTIVE, num_intervals=m, distribution=d
        )
        traj = run_projective(spec, psi0, proto, SeededSampler(seed + lam))
        curve_avg = _predicted_staircase(spec, psi0, d, m_axis)
        c2_eigen = _eigenstate_edge_weight(spec, psi0)
        curve_const = np.exp(-_exponent(m_axis, mom, spec.beta**2 * c2_eigen))
        per_lambda.append(
            (np.full(m, lam), m_axis, traj.times, traj.cumulative_survival, curve_avg, curve_const)
        )
    path = Path(out_dir) / "fig2_survival.csv"
    write_csv(
        path,
        ("lambda", "m", "t_us", "P_sim", "pstar_time_avg", "pstar_const"),
        [np.concatenate(column) for column in zip(*per_lambda)],
        reproducible,
    )
    return path


def preset_fig3(
    out_dir: str, seed: int = 3001, m: int = 2000, reproducible: bool = False
) -> Path:
    """Leftmost-excited staircase at lambda = 9 with the edge-population trace, the ideal
    |c_lambda|^2 at each step's own time; the inset evaluates lambda = 1..8 at its m only."""
    d = BIMODAL_1_5
    out = Path(out_dir)
    psi0 = leftmost_excited(N_SITES)
    spec = ChainSpec(n_sites=N_SITES, subspace_size=9)
    m_axis, inset_m = np.arange(1, m + 1), np.arange(1, m + 1, 10)

    proto = ProtocolConfig(kind=ProtocolKind.PROJECTIVE, num_intervals=m, distribution=d)
    traj = run_projective(spec, psi0, proto, SeededSampler(seed))
    curve = _predicted_staircase(spec, psi0, d, m_axis)
    edge_at_steps = np.abs(run_exact_subspace(spec, psi0, traj.times).states[:, -1]) ** 2
    columns = (m_axis, traj.times, traj.cumulative_survival, curve, edge_at_steps)
    main = out / "fig3_main.csv"
    write_csv(main, ("m", "t_us", "P_sim", "pstar_time_avg", "edge_pop"), columns, reproducible)

    curves = [_predicted_staircase(ChainSpec(N_SITES, k), psi0, d, inset_m) for k in range(1, 9)]
    curves.append(curve[::10])
    inset = (np.repeat(range(1, 10), len(inset_m)), np.tile(inset_m, 9), np.concatenate(curves))
    write_csv(out / "fig3_inset.csv", ("lambda", "m", "pstar_time_avg"), inset, reproducible)
    return main


def preset_fig4(
    out_dir: str,
    seed: int = 4001,
    m: int = 500,
    realizations: int = 20,
    reproducible: bool = False,
) -> Path:
    """Protocol fidelities versus subspace size, plus the Zeno-limit scaling sweep."""
    d = BIMODAL_3_5
    out = Path(out_dir)
    rows = []
    for lam in range(1, 10):
        spec = ChainSpec(n_sites=N_SITES, subspace_size=lam)
        psi0 = w_state(N_SITES, lam)
        for kind in (ProtocolKind.PROJECTIVE, ProtocolKind.PULSED, ProtocolKind.CONTINUOUS):
            proto = ProtocolConfig(kind=kind, num_intervals=m, distribution=d)
            trajs, fids = run_ensemble(spec, psi0, proto, realizations, seed + lam)
            survival = float(np.mean([t.final_survival for t in trajs]))
            rows.append((lam, kind.value, float(np.mean(fids)), survival, len(fids)))
    path = out / "fig4_fidelity.csv"
    header = ("lambda", "protocol", "F_mean", "P_final_mean", "R")
    write_csv(path, header, zip(*rows), reproducible)
    write_csv(
        out / "fig4_inset_scaling.csv",
        ("mu_us", "m", "leak_pm", "leak_pc", "leak_cc"),
        zip(*scaling_sweep()),
        reproducible,
    )
    return path


def scaling_sweep(
    lam: int = 5,
    total_time: float = 1500.0,
    mu_min: float = 0.3,
    mu_max: float = 3.0,
    points: int = 8,
) -> list[tuple]:
    """Zeno-limit sweep: deterministic intervals, fixed m * mu.

    Leakage is 1 - P_final for the projective protocol (monotone) and the
    worst case 1 - min_t population for the coherent protocols, whose
    instantaneous population oscillates.
    """
    spec = ChainSpec(n_sites=N_SITES, subspace_size=lam)
    psi0 = w_state(N_SITES, lam)
    rows = []
    for mu in np.logspace(np.log10(mu_min), np.log10(mu_max), points):
        m = int(round(total_time / mu))
        d = IntervalDistribution.deterministic(mu)
        sampler = SeededSampler(0)  # deterministic distribution: seed irrelevant
        pm = run_projective(
            spec, psi0, ProtocolConfig(ProtocolKind.PROJECTIVE, m, d), sampler
        )
        pc = run_pulsed(spec, psi0, ProtocolConfig(ProtocolKind.PULSED, m, d), sampler)
        g = np.pi / (2.0 * mu)
        dense = np.arange(0.0, m * mu, min(0.02, mu / 20.0))
        cc = run_continuous(spec, psi0, total_time=m * mu, coupling=g, sample_times=dense)
        rows.append(
            (
                mu,
                m,
                1.0 - pm.final_survival,
                float(np.max(1.0 - pc.cumulative_survival)),
                float(np.max(1.0 - cc.cumulative_survival)),
            )
        )
    return rows


def kappa_family(p1: float = 0.8, mean: float = 3.0, points: int = 7) -> list[tuple]:
    """(p1, mu1, mu2) triples with fixed mean; kappa rises as mu1 drops.

    With mean pinned, mu2 = (mean - p1*mu1)/(1 - p1); at p1 = 0.8, mean = 3
    this spans kappa in [0, 16/9] as mu1 goes from 3 down to 1.  The pin is
    exact up to rounding: at the defaults the last triple's mean is
    3.0000000000000004, so preset_fig5 sees two distinct means.
    """
    triples = []
    for mu1 in np.linspace(mean, 1.0, points):
        if abs(mu1 - mean) < 1e-12:
            triples.append((1.0, mean, mean))
        else:
            mu2 = (mean - p1 * mu1) / (1.0 - p1)
            triples.append((p1, float(mu1), float(mu2)))
    return triples


def preset_fig5(
    out_dir: str,
    seed: int = 5001,
    m: int = 500,
    realizations: int = 50,
    initial: str = "wstate",
    reproducible: bool = False,
) -> Path:
    """Protocol performance versus interval disorder (1 + kappa) at fixed mean, lambda = 2.

    The ideal edge average and the continuous protocol depend on the mean
    interval alone, so each is computed once per distinct mean, not once per point.
    """
    spec = ChainSpec(n_sites=N_SITES, subspace_size=2)
    psi0 = w_state(N_SITES, 2) if initial == "wstate" else leftmost_excited(N_SITES)

    def ensemble(kind: ProtocolKind, d: IntervalDistribution):
        trajs, fids = run_ensemble(spec, psi0, ProtocolConfig(kind, m, d), realizations, seed)
        return trajs, float(np.mean(fids))

    per_mean = {}  # exact mean -> (ideal edge time average, F_cc)
    rows = []
    for p1, mu1, mu2 in kappa_family():
        d = IntervalDistribution.bimodal(mu1, mu2, p1)
        mom = moments(d)
        if mom.mean not in per_mean:
            _, f_cc = ensemble(ProtocolKind.CONTINUOUS, d)
            per_mean[mom.mean] = edge_time_average(spec, psi0, *_edge_grid(d, m)), f_cc
        c2_avg, f_cc = per_mean[mom.mean]
        trajs, f_pm = ensemble(ProtocolKind.PROJECTIVE, d)
        _, f_pc = ensemble(ProtocolKind.PULSED, d)
        pred = pstar_weak(m, d, spec.beta**2 * c2_avg)
        rows.append(
            (mom.kappa, 1.0 + mom.kappa, mu1, mu2, aggregate(trajs).log_mean, pred.log_pstar,
             f_pm, f_pc, f_cc)
        )
    path = Path(out_dir) / ("fig5_kappa.csv" if initial == "wstate" else "fig5_inset_kappa.csv")
    header = ("kappa", "one_plus_kappa", "mu1_us", "mu2_us", "ln_P_sim_mean", "ln_pstar_theory",
              "F_pm", "F_pc", "F_cc")
    write_csv(path, header, zip(*rows), reproducible)
    return path
