"""Per-layer metrics of one traced workload call.

Layers are zenochain's modules.  Hooks count work at the function
boundaries where it happens; ``layer_metrics`` turns the spans and counts of
one call into the metric names listed in ``BENCHMARK.json``.

Rates divide by self time where the counted work is the function's own loop
(draws, protocol steps) and by inclusive time where the function delegates
its work to other layers (edge series, fidelities, CSV emission); each rate
says which in ``README.md``.
"""

from __future__ import annotations

import numpy as np

from tracer import Counters, Span, summarize

LAYERS = (
    "stochastics",
    "protocols",
    "theory",
    "analysis",
    "linalg",
    "chain",
    "experiments",
    "config",
    "cli",
)

PKG = "zenochain"
PROJECTIVE = f"{PKG}.protocols.run_projective"
PULSED = f"{PKG}.protocols.run_pulsed"
CONTINUOUS = f"{PKG}.protocols.run_continuous"
REFERENCE = f"{PKG}.protocols.run_exact_subspace"
SAMPLE = f"{PKG}.stochastics.sample_intervals"
EDGE = f"{PKG}.theory.edge_population"
EIG = f"{PKG}.linalg.hermitian_eig"
FIDELITY = f"{PKG}.analysis.protocol_fidelity"
WRITE_CSV = f"{PKG}.experiments.write_csv"

# real flops of one dense complex n x n matrix-vector product
MATVEC_FLOPS_PER_N2 = 8


def _array_key(a) -> tuple:
    a = np.asarray(a)
    return (a.shape, a.dtype.str, a.tobytes())


def _steps_hook(kind: str, matvecs_per_step: int):
    def hook(c: Counters, args: dict, traj) -> None:
        steps = len(traj.intervals)
        n = len(traj.final_state)
        c.add(f"{kind}.steps", steps)
        c.add("flops", MATVEC_FLOPS_PER_N2 * n * n * matvecs_per_step * steps)

    return hook


def _continuous_hook(c: Counters, args: dict, traj) -> None:
    key = (
        repr(args["spec"]),
        _array_key(args["psi0"]),
        float(args["total_time"]),
        float(args["coupling"]),
        None if args["sample_times"] is None else _array_key(args["sample_times"]),
        None if args["hamiltonian_override"] is None
        else _array_key(args["hamiltonian_override"]),
        bool(args["record_states"]),
    )
    c.seen("continuous.inputs", key)


HOOKS = {
    SAMPLE: lambda c, args, out: c.add("draws", len(out)),
    PROJECTIVE: _steps_hook("projective", 1),
    PULSED: _steps_hook("pulsed", 2),  # kick and free evolution each step
    CONTINUOUS: _continuous_hook,
    REFERENCE: lambda c, args, out: c.add("reference.samples", len(out.times)),
    EDGE: lambda c, args, out: c.add("edge_points", len(out.t_grid)),
    EIG: lambda c, args, out: c.seen("eig.inputs", _array_key(args["a"])),
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(
    spans: list[Span], counters: Counters, csv_rows: int, csv_bytes: int
) -> dict[str, float]:
    """Per-layer metrics of one traced call, keyed by benchmark metric name."""
    layers, funcs = summarize(spans)
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

    def fn(name: str) -> dict:
        return funcs.get(name, zero)

    out: dict[str, float] = {}
    for layer in LAYERS:
        rec = layers.get(layer, zero)
        out[f"{layer}.calls"] = rec["calls"]
        out[f"{layer}.self_s"] = rec["self_s"]

    s = counters.sums
    out["stochastics.draws"] = s["draws"]
    out["stochastics.draws_per_s"] = _rate(s["draws"], fn(SAMPLE)["self_s"])

    proj_steps, pulsed_steps = s["projective.steps"], s["pulsed.steps"]
    step_self = fn(PROJECTIVE)["self_s"] + fn(PULSED)["self_s"]
    out["protocols.steps"] = proj_steps + pulsed_steps
    out["protocols.steps_per_s"] = _rate(proj_steps + pulsed_steps, step_self)
    out["protocols.projective.steps_per_s"] = _rate(proj_steps, fn(PROJECTIVE)["self_s"])
    out["protocols.pulsed.steps_per_s"] = _rate(pulsed_steps, fn(PULSED)["self_s"])
    out["protocols.gflops_computed"] = _rate(s["flops"], step_self) / 1e9

    runs = fn(CONTINUOUS)["calls"]
    out["protocols.continuous.runs"] = runs
    out["protocols.continuous.distinct_ratio"] = (
        counters.distinct("continuous.inputs") / runs if runs else 0.0
    )
    out["protocols.reference.samples"] = s["reference.samples"]

    out["theory.edge_points"] = s["edge_points"]
    out["theory.edge_points_per_s"] = _rate(s["edge_points"], fn(EDGE)["incl_s"])

    eig_calls = fn(EIG)["calls"]
    out["linalg.eig_calls"] = eig_calls
    out["linalg.eig_distinct_ratio"] = (
        counters.distinct("eig.inputs") / eig_calls if eig_calls else 0.0
    )

    out["analysis.fidelities"] = fn(FIDELITY)["calls"]
    out["analysis.fidelities_per_s"] = _rate(
        fn(FIDELITY)["calls"], fn(FIDELITY)["incl_s"]
    )

    out["experiments.csv_rows"] = csv_rows
    out["experiments.csv_bytes"] = csv_bytes
    out["experiments.csv_rows_per_s"] = _rate(csv_rows, fn(WRITE_CSV)["incl_s"])
    return out
