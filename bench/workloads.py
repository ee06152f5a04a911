"""The benchmark workloads, each run through a public zenochain entry point.

Entry points are looked up on their module at call time, so a traced run
sees the tracer's wrappers.  Outputs go to the directory the caller passes,
never to the presets' default ``./out``.

- ensemble_fig5: wide, short ensembles (7 disorder points x 3 protocols x
  R=50, m=100; the preset's default m=500 makes one call take 6 s, too few
  calls in a 40 s run for a steady mean).  Where a kernel that works across
  realizations, a faster sampler or eigendecomposition reuse shows.
- theory_fig3: one projective staircase (lambda=9, m=2000) plus ten
  40k-point edge-population series.  Dominated by the theory layer; the
  bypass workload for protocol-kernel changes.
- simulate_long: the CLI on a narrow, long pulsed config (R=10, m=10000)
  that writes ten 10,000-row trajectory CSVs.  Where CSV-emission gains
  show, and where a kernel tuned for wide R shows a regression.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from typing import Callable, NamedTuple

from zenochain import cli, experiments

SIMULATE_CONFIG = """\
[chain]
n = 12
lambda = 4

[protocol]
kind = pulsed
m = 10000
dist = [(1.0, 0.5), (5.0, 0.5)]

[experiment]
initial_state = leftmost
realizations = 10
"""


# preset_fig5's default is m=500; see the module docstring
FIG5_M = 100


class Workload(NamedTuple):
    # prepare(seed, workdir) -> inputs; builds everything the call needs
    prepare: Callable[[int, Path], dict]
    # run(inputs, out_dir); raises on failure
    run: Callable[[dict, Path], None]
    # share of the call's time per kind of work, to weigh the host probe's
    # parts by (hostspeed.PARTS); taken from the workload's profile
    host_mix: dict[str, float]


def _preset_inputs(seed: int, workdir: Path) -> dict:
    return {"seed": seed, "reproducible": True}


def _run_fig5(inputs: dict, out: Path) -> None:
    experiments.preset_fig5(str(out), m=FIG5_M, **inputs)


def _run_fig3(inputs: dict, out: Path) -> None:
    experiments.preset_fig3(str(out), **inputs)


def _simulate_inputs(seed: int, workdir: Path) -> dict:
    config = workdir / "simulate_long.cfg"
    config.write_text(SIMULATE_CONFIG, encoding="utf-8")
    return {"argv": ["simulate", str(config), "--reproducible", "--seed", str(seed)]}


def _run_simulate(inputs: dict, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs["argv"] + ["--out-dir", str(out)])
    if code != 0:
        raise RuntimeError(f"zenochain simulate exited with {code}")


WORKLOADS = {
    # ~90% protocol steps and their draws
    "ensemble_fig5": Workload(_preset_inputs, _run_fig5, {"steps": 1.0}),
    # ~86% edge-population series: a Python loop of small numpy operations
    # over 40k state vectors, after one matrix product
    "theory_fig3": Workload(_preset_inputs, _run_fig3, {"steps": 0.9, "blas": 0.1}),
    # ~45% protocol steps, ~40% CSV emission, ~13% theory
    "simulate_long": Workload(
        _simulate_inputs, _run_simulate, {"steps": 0.45, "format": 0.4, "blas": 0.15}
    ),
}
