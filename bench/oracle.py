"""Independent output oracle for the benchmark workloads.

Written from scratch against the published algorithms and calls nothing
from ``zenochain``: a scalar SplitMix64 stream, inverse-CDF interval
sampling in atom order, and propagators built from ``numpy.linalg.eigh`` of
the single-excitation hopping matrix.  It recomputes one sweep point of each
workload from the workload's seed and compares it with what the program
wrote, to ``REL_TOL`` relative.  It also checks every output file's schema
(header, row count) and invariants: probabilities in [0, 1], fidelities in
[0, 1], projective staircases non-increasing.

It checks the program's computation only, never the paper's predictions
(fig3 sits where the time-averaged prediction is known to miss).

Each check is a ``(name, ok, detail)`` tuple; every failed check counts as
one failed operation.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
# P and F are written with 15 significant digits; probabilities computed as
# a product or a normalized weight may exceed 1 or rise by a few ulp
ULP_SLACK = 1e-12

BETA = 2.0 * math.pi * 0.005  # hopping rate in rad/us, zenochain's default

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Weyl state advanced by the golden-ratio constant, output mixed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def uniform(self) -> float:
        self.state = (self.state + _GAMMA) & _MASK64
        return (_mix64(self.state) >> 11) * 2.0**-53


def child_seed(seed: int, index: int) -> int:
    """Seed of realization ``index`` in an ensemble run with ``seed``."""
    return _mix64((seed & _MASK64) ^ _mix64((index + 1) & _MASK64))


def draw(atoms, rng: SplitMix64) -> float:
    """One waiting time by inverse CDF over the atoms in their given order."""
    u = rng.uniform()
    cum = 0.0
    for k, (mu, p) in enumerate(atoms):
        cum = 1.0 if k == len(atoms) - 1 else cum + p
        if u < cum:
            return mu
    raise AssertionError("unreachable: last cumulative weight is 1")


def hopping(n: int) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = BETA
    h[idx + 1, idx] = BETA
    return h


def unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) from the eigendecomposition of Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def projective_run(n, lam, psi0, atoms, m, rng):
    """Post-selected projective staircase: (times, ln P after each step, final state)."""
    props = {mu: unitary(hopping(n), mu) for mu, _ in atoms}
    psi = np.array(psi0, dtype=complex)
    t, log_p = 0.0, 0.0
    times, logs = [], []
    for _ in range(m):
        mu = draw(atoms, rng)
        psi = props[mu] @ psi
        q = float(np.sum(np.abs(psi[:lam]) ** 2))
        log_p += math.log(q)
        psi[lam:] = 0.0
        psi /= math.sqrt(q)
        t += mu
        times.append(t)
        logs.append(log_p)
    return np.array(times), np.array(logs), psi


def boundary_coupling(n: int, lam: int) -> np.ndarray:
    """Sector matrix of the locking term on the two sites after the subspace."""
    hc = np.zeros((n, n), dtype=complex)
    hc[lam, lam + 1] = hc[lam + 1, lam] = 2.0
    return hc


def pulsed_run(n, lam, psi0, atoms, m, rng, pulse_area=math.pi / 2):
    """Kick protocol: (intervals, subspace population after each step, final state)."""
    props = {mu: unitary(hopping(n), mu) for mu, _ in atoms}
    kick = unitary(boundary_coupling(n, lam), pulse_area)
    psi = np.array(psi0, dtype=complex)
    mus, pops = [], []
    for _ in range(m):
        mu = draw(atoms, rng)
        psi = kick @ (props[mu] @ psi)
        mus.append(mu)
        pops.append(float(np.sum(np.abs(psi[:lam]) ** 2)))
    return np.array(mus), np.array(pops), psi


def overlap_with_ideal(psi: np.ndarray, lam: int, psi0: np.ndarray, t: float) -> float:
    """|<psi|ideal(t)>|, ideal(t) the confined evolution of psi0 under the lam-site chain.

    Equals the Uhlmann fidelity of two pure states.
    """
    ideal = unitary(hopping(lam), t) @ psi0[:lam]
    return abs(np.vdot(psi[:lam], ideal))


def basis_first(n: int) -> np.ndarray:
    psi = np.zeros(n, dtype=complex)
    psi[0] = 1.0
    return psi


def uniform_first(n: int, lam: int) -> np.ndarray:
    psi = np.zeros(n, dtype=complex)
    psi[:lam] = 1.0 / math.sqrt(lam)
    return psi


def kappa_of(atoms) -> float:
    mean = sum(mu * p for mu, p in atoms)
    var = sum(p * (mu - mean) ** 2 for mu, p in atoms)
    return var / mean**2


# --------------------------------------------------------------------------
# reading and comparing
# --------------------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, rows); a missing file reads as empty and fails its checks."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        return [], []
    if not rows:
        return [], []
    return rows[0], rows[1:]


def column(header, rows, name) -> np.ndarray:
    k = header.index(name)
    return np.array([float(r[k]) for r in rows])


def rel_err(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


class Report:
    """Collects named checks; a check that raises is a failed check."""

    def __init__(self) -> None:
        self.checks: list[tuple[str, bool, str]] = []

    def check(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a malformed file fails its check, not the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks.append((name, bool(ok), detail))

    def schema(self, name: str, path: Path, header: tuple, n_rows: int):
        def run():
            got_header, rows = read_table(path)
            if tuple(got_header) != header:
                return False, f"header {got_header}"
            widths = {len(r) for r in rows}
            if len(rows) != n_rows or widths - {len(header)}:
                return False, f"{len(rows)} rows of widths {sorted(widths)}, want {n_rows}"
            return True, f"{n_rows} rows"

        self.check(name, run)

    def within(self, name: str, values_fn, lo: float, hi: float):
        def run():
            v = values_fn()
            ok = bool(np.all(v >= lo - ULP_SLACK) and np.all(v <= hi + ULP_SLACK))
            return ok, f"range [{v.min():.6g}, {v.max():.6g}]"

        self.check(name, run)

    def close(self, name: str, got_fn, want_fn):
        def run():
            err = rel_err(got_fn(), want_fn())
            return err <= REL_TOL, f"max rel err {err:.3e} (tol {REL_TOL:.0e})"

        self.check(name, run)


def _non_increasing(v: np.ndarray) -> tuple[bool, str]:
    rise = float(np.max(np.diff(v) / np.maximum(v[:-1], np.finfo(float).tiny)))
    return rise <= ULP_SLACK, f"largest relative rise {rise:.3e}"


# --------------------------------------------------------------------------
# per-workload checks
# --------------------------------------------------------------------------

FIG5_HEADER = (
    "kappa", "one_plus_kappa", "mu1_us", "mu2_us", "ln_P_sim_mean",
    "ln_pstar_theory", "F_pm", "F_pc", "F_cc",
)
FIG3_MAIN_HEADER = ("m", "t_us", "P_sim", "pstar_time_avg", "edge_pop")
FIG3_INSET_HEADER = ("lambda", "m", "pstar_time_avg")
TRAJ_HEADER = ("step", "t_us", "mu_us", "q_j", "P_cum", "pop_subspace")
SUMMARY_HEADER = ("lambda", "protocol", "F", "P_final", "pstar_theory", "kappa", "m", "mu_mean")
THEORY_HEADER = (
    "lambda", "m", "mu_mean", "kappa", "beta", "c2_eigen", "c2_time_avg",
    "pstar_const", "pstar_time_avg",
)


def check_fig5(out: Path, seed: int) -> list[tuple[str, bool, str]]:
    """preset_fig5 at the benchmark's size: n=12, lambda=2, W state, m=100, R=50.

    Disorder family at mean 3 us, p1 = 0.8: mu1 from 3 down to 1 in 7 steps.
    The oracle recomputes every simulated column of the last row.
    """
    n, lam, m, reps = 12, 2, 100, 50
    path = out / "fig5_kappa.csv"
    r = Report()
    r.schema("fig5.schema", path, FIG5_HEADER, 7)
    header, rows = read_table(path)

    def col(name):
        return column(header, rows, name)

    mu1 = np.linspace(3.0, 1.0, 7)
    mu2 = np.where(np.abs(mu1 - 3.0) < 1e-12, 3.0, (3.0 - 0.8 * mu1) / 0.2)
    kappas = [kappa_of(((a, 0.8), (b, 0.2))) for a, b in zip(mu1, mu2)]
    r.check("fig5.kappa_family", lambda: (
        np.allclose(col("mu1_us"), mu1, rtol=REL_TOL, atol=0)
        and np.allclose(col("mu2_us"), mu2, rtol=REL_TOL, atol=0)
        and np.allclose(col("kappa"), kappas, rtol=REL_TOL, atol=1e-15),
        "mu1, mu2, kappa columns",
    ))
    for name in ("F_pm", "F_pc", "F_cc"):
        r.within(f"fig5.{name}_in_0_1", lambda name=name: col(name), 0.0, 1.0)
    r.within("fig5.ln_P_sim_nonpositive", lambda: col("ln_P_sim_mean"), -np.inf, 0.0)

    row = recompute_fig5_row(seed, n, lam, m, reps)
    for field, want in row.items():
        r.close(f"fig5.row7.{field}", lambda f=field: col(f)[-1:], lambda w=want: [w])
    return r.checks


def recompute_fig5_row(seed, n, lam, m, reps) -> dict[str, float]:
    """The kappa = 16/9 row: atoms (1, 0.8) and (11, 0.2), W-state start."""
    atoms = ((1.0, 0.8), (11.0, 0.2))
    psi0 = uniform_first(n, lam)
    logs, f_pm, f_pc = [], [], []
    for i in range(reps):
        times, ln_p, psi = projective_run(n, lam, psi0, atoms, m, SplitMix64(child_seed(seed, i)))
        logs.append(ln_p[-1])
        f_pm.append(overlap_with_ideal(psi, lam, psi0, times[-1]))
        mus, _, psi = pulsed_run(n, lam, psi0, atoms, m, SplitMix64(child_seed(seed, i)))
        f_pc.append(overlap_with_ideal(psi, lam, psi0, float(np.sum(mus))))
    # continuous: deterministic, coupling pi / (2 mean) for m mean intervals
    mean = sum(mu * p for mu, p in atoms)
    h = hopping(n) + (math.pi / (2.0 * mean)) * boundary_coupling(n, lam)
    psi = unitary(h, m * mean) @ psi0
    return {
        "ln_P_sim_mean": float(np.mean(logs)),
        "F_pm": float(np.mean(f_pm)),
        "F_pc": float(np.mean(f_pc)),
        "F_cc": overlap_with_ideal(psi, lam, psi0, m * mean),
    }


def check_fig3(out: Path, seed: int) -> list[tuple[str, bool, str]]:
    """preset_fig3 defaults: n=12, lambda=9, leftmost start, m=2000, inset lambda 1..9."""
    n, lam, m = 12, 9, 2000
    atoms = ((1.0, 0.5), (5.0, 0.5))
    main, inset = out / "fig3_main.csv", out / "fig3_inset.csv"
    r = Report()
    r.schema("fig3.main.schema", main, FIG3_MAIN_HEADER, m)
    r.schema("fig3.inset.schema", inset, FIG3_INSET_HEADER, 9 * (m // 10))
    h, rows = read_table(main)
    hi, rows_i = read_table(inset)

    def p_sim():
        return column(h, rows, "P_sim")

    for name in ("P_sim", "pstar_time_avg", "edge_pop"):
        r.within(f"fig3.{name}_in_0_1", lambda name=name: column(h, rows, name), 0.0, 1.0)
    r.within("fig3.inset_in_0_1", lambda: column(hi, rows_i, "pstar_time_avg"), 0.0, 1.0)
    r.check("fig3.staircase_non_increasing", lambda: _non_increasing(p_sim()))

    times, logs, _ = projective_run(n, lam, basis_first(n), atoms, m, SplitMix64(seed))
    r.close("fig3.t_us", lambda: column(h, rows, "t_us"), lambda: times)
    r.close("fig3.P_sim_staircase", p_sim, lambda: np.exp(logs))
    return r.checks


def check_simulate(out: Path, seed: int) -> list[tuple[str, bool, str]]:
    """The simulate_long config: n=12, lambda=4, pulsed, m=10000, R=10, leftmost."""
    n, lam, m, reps = 12, 4, 10000, 10
    atoms = ((1.0, 0.5), (5.0, 0.5))
    r = Report()
    names = sorted(p.name for p in out.glob("*.csv"))
    want = sorted([f"trajectory_r{i}.csv" for i in range(reps)] + ["summary.csv", "theory.csv"])
    r.check("simulate.files", lambda: (names == want, f"{len(names)} files"))
    finals = []
    for i in range(reps):
        path = out / f"trajectory_r{i}.csv"
        r.schema(f"simulate.r{i}.schema", path, TRAJ_HEADER, m)
        h, rows = read_table(path)

        def invariants(h=h, rows=rows):
            steps = column(h, rows, "step")
            mus = column(h, rows, "mu_us")
            p_cum = column(h, rows, "P_cum")
            pop = column(h, rows, "pop_subspace")
            finals.append(pop[-1])
            ok = (
                np.array_equal(steps, np.arange(1, m + 1))
                and set(mus) <= {mu for mu, _ in atoms}
                and all(row[3] == "" for row in rows)
                and np.array_equal(p_cum, pop)
                and bool(np.all(np.diff(column(h, rows, "t_us")) > 0))
                and bool(np.all((pop >= -ULP_SLACK) & (pop <= 1 + ULP_SLACK)))
            )
            return ok, "steps, atoms, empty q_j, P_cum == pop in [0, 1], t increasing"

        r.check(f"simulate.r{i}.invariants", invariants)

    h0, rows0 = read_table(out / "trajectory_r0.csv")
    mus, pops, _ = pulsed_run(n, lam, basis_first(n), atoms, m, SplitMix64(child_seed(seed, 0)))
    r.close("simulate.r0.mu_us", lambda: column(h0, rows0, "mu_us"), lambda: mus)
    r.close("simulate.r0.t_us", lambda: column(h0, rows0, "t_us"), lambda: np.cumsum(mus))
    r.close("simulate.r0.pop_subspace", lambda: column(h0, rows0, "pop_subspace"), lambda: pops)

    r.schema("simulate.summary.schema", out / "summary.csv", SUMMARY_HEADER, 1)
    r.schema("simulate.theory.schema", out / "theory.csv", THEORY_HEADER, 1)
    hs, rows_s = read_table(out / "summary.csv")
    ht, rows_t = read_table(out / "theory.csv")
    r.check("simulate.summary.row", lambda: (
        rows_s[0][:2] == [str(lam), "pulsed"] and rows_s[0][6] == str(m),
        f"lambda, protocol, m = {rows_s[0][0]}, {rows_s[0][1]}, {rows_s[0][6]}",
    ))
    r.within("simulate.summary.F_in_0_1", lambda: column(hs, rows_s, "F"), 0.0, 1.0)
    r.close("simulate.summary.P_final_is_mean",
            lambda: column(hs, rows_s, "P_final"), lambda: [np.mean(finals)])
    for name in ("pstar_const", "pstar_time_avg"):
        r.within(f"simulate.theory.{name}_in_0_1", lambda name=name: column(ht, rows_t, name), 0.0, 1.0)
    return r.checks


CHECKS = {
    "ensemble_fig5": check_fig5,
    "theory_fig3": check_fig3,
    "simulate_long": check_simulate,
}
