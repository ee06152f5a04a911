#!/usr/bin/env python3
"""Measurements vs kicks vs constant coupling.

All three protocols confine a W-state to the first lambda sites; this
script compares their fidelity to the ideal confined evolution and their
survival probability, then sweeps toward the frequent-interaction limit at
fixed total time to expose the scaling laws: leakage falls linearly in the
interval length for projective measurements and quadratically for both
coherent protocols.

Writes demo_out/protocol_fidelity.csv and demo_out/protocol_scaling.csv.
"""

from pathlib import Path

import numpy as np

from zenochain import ChainSpec, IntervalDistribution, ProtocolConfig, ProtocolKind, w_state
from zenochain.experiments import run_ensemble, scaling_sweep, write_csv

d = IntervalDistribution.bimodal(3.0, 5.0, 0.5)
m, realizations = 200, 40
out = Path("demo_out")

rows = []
print(f"mean fidelity over {realizations} realizations, m = {m}:")
print("lambda    measure     kick        continuous   P(measure)")
for lam in (2, 3, 4, 5, 6, 7, 8):
    spec = ChainSpec(n_sites=12, subspace_size=lam)
    psi0 = w_state(12, lam)
    fids = {}
    survival = None
    for kind in (ProtocolKind.PROJECTIVE, ProtocolKind.PULSED, ProtocolKind.CONTINUOUS):
        trajs, f = run_ensemble(
            spec, psi0, ProtocolConfig(kind, m, d), realizations, seed=600 + lam
        )
        fids[kind.value] = float(np.mean(f))
        if kind is ProtocolKind.PROJECTIVE:
            survival = float(np.mean([t.final_survival for t in trajs]))
        rows.append((lam, kind.value, fids[kind.value]))
    print(
        f"{lam:4d}     {fids['projective']:.6f}   {fids['pulsed']:.6f}   "
        f"{fids['continuous']:.6f}     {survival:.4f}"
    )

write_csv(out / "protocol_fidelity.csv", ("lambda", "protocol", "F_mean"), zip(*rows))

print("\nZeno-limit sweep at fixed m * mu = 1500 us (lambda = 5, deterministic mu):")
sweep = scaling_sweep()
write_csv(
    out / "protocol_scaling.csv",
    ("mu_us", "m", "leak_pm", "leak_pc", "leak_cc"),
    zip(*sweep),
)
arr = np.array(sweep)
for name, col in (("measurements", 2), ("kicks", 3), ("continuous", 4)):
    slope = np.polyfit(np.log(arr[:, 0]), np.log(arr[:, col]), 1)[0]
    print(f"  {name:13s} leakage ~ mu^{slope:.2f}")
print(f"\nwrote {out / 'protocol_fidelity.csv'} and {out / 'protocol_scaling.csv'}")
