"""A fixed probe of how fast the host runs this process right now.

Other tenants of a shared host slow every instruction of a run by up to 2x,
in stretches of seconds to minutes, and code that works like the workload
slows the most like it.  The probe is frozen code of the kinds the workloads
run, one part per kind.  It calls nothing from zenochain, so a change to the
program cannot move it.  Run after every workload call, the parts' mean
times over a run give the host's speed in that run, and ``host_factor``
rescales the run's times to a host of the reference speed.

Means, not medians: a mean weighs the host's slow stretches by how long they
last, for 1.5 s calls and 30 ms probe parts alike, so the two cancel.  A
median of short probes reads the speed between slow stretches, and a
median of long calls does not.
"""

from __future__ import annotations

import io
import math
import statistics
import time

import numpy as np

import oracle

_PSI0 = np.eye(12, dtype=complex)[0]
_ATOMS = ((1.0, 0.5), (5.0, 0.5))
_MAT = np.random.default_rng(0).standard_normal((200, 200)) + 0j


def _steps():
    """Protocol steps: scalar draws and 12x12 complex matrix-vector products."""
    oracle.projective_run(12, 4, _PSI0, _ATOMS, 3000, oracle.SplitMix64(1))


def _format():
    """CSV emission: floats to text."""
    buf, x = io.StringIO(), 0.123456789
    for i in range(15000):
        x = x * 1.0000001 + 1e-9
        buf.write("%d,%.15g,%.15g\n" % (i, x, math.log(x)))


def _blas():
    """Dense complex matrix products."""
    m = _MAT
    for _ in range(5):
        m = (_MAT @ m) / 100.0


PARTS = {"steps": _steps, "format": _format, "blas": _blas}

# Mean seconds of each part on the reference host: a 2-vCPU Intel Xeon VM
# at 2.0 GHz (scipy-openblas 0.3.31, one BLAS thread) with little load from
# other tenants.
REFERENCE_S = {"steps": 0.028, "format": 0.024, "blas": 0.007}


def probe() -> dict[str, float]:
    """Wall seconds of each part, run once (about 0.06 s in all)."""
    times = {}
    for name, part in PARTS.items():
        t0 = time.perf_counter()
        part()
        times[name] = time.perf_counter() - t0
    return times


def host_factor(probes: list[dict[str, float]], mix: dict[str, float]) -> float:
    """Host speed over the reference's, below 1 on a slowed host.

    ``mix`` weighs each part's speed by the share of the workload's time
    spent on that kind of work; the weights sum to 1.
    """
    return sum(
        w * REFERENCE_S[name] / statistics.fmean(p[name] for p in probes)
        for name, w in mix.items()
    )
