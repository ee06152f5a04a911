#!/usr/bin/env python3
"""Why the survival curve is a staircase.

Starting from the leftmost site with a 9-site confined region, the
excitation travels to the subspace boundary, leaks only while it sits
there, and is reflected back.  The survival probability therefore drops in
bursts whenever the edge population |c_9(t)|^2 peaks and stays flat in
between.  This script locates the simulated drops and the predicted edge
peaks and prints them side by side, in measurement indices.

Writes demo_out/edge_staircase.csv.
"""

from pathlib import Path

import numpy as np

from zenochain import (
    ChainSpec,
    IntervalDistribution,
    ProtocolConfig,
    ProtocolKind,
    SeededSampler,
    edge_population,
    leftmost_excited,
    pstar_time_averaged_curve,
    run_exact_subspace,
    run_projective,
)
from zenochain.analysis import local_maxima
from zenochain.experiments import write_csv

d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
m = 800
spec = ChainSpec(n_sites=12, subspace_size=9)
psi0 = leftmost_excited(12)

traj = run_projective(
    spec, psi0, ProtocolConfig(ProtocolKind.PROJECTIVE, m, d), SeededSampler(7)
)
# the prediction averages the edge series over the expected horizon m * mean
series = edge_population(spec, psi0, t_max=m * 3.0, dt=0.15)
curve = pstar_time_averaged_curve(np.arange(1, m + 1), d, series, spec.beta)
# the edge trace is the ideal |c_9|^2 at each step's own realized time
edge_at_steps = np.abs(run_exact_subspace(spec, psi0, traj.times).states[:, -1]) ** 2

print(f"after {m} measurements: P sim = {traj.final_survival:.4f}, "
      f"P* = {curve[-1]:.4f}")

# locate simulated leak bursts and predicted edge peaks
leak_rate = (1.0 - traj.survival_factors) / traj.intervals**2
kernel = np.ones(9) / 9.0
sim_smooth = np.convolve(leak_rate, kernel, mode="same")
sim_steps = local_maxima(sim_smooth, order=12)
sim_steps = sim_steps[sim_smooth[sim_steps] > 0.25 * sim_smooth.max()]

th_smooth = np.convolve(edge_at_steps, kernel, mode="same")
th_steps = local_maxima(th_smooth, order=12)

print("\nsimulated leak bursts vs nearest predicted edge peak (step index):")
for s in sim_steps:
    nearest = th_steps[np.argmin(np.abs(th_steps - s))]
    print(f"  burst at step {s:4d}  <->  edge peak at step {nearest:4d}  "
          f"(offset {s - nearest:+d})")

out = Path("demo_out")
write_csv(
    out / "edge_staircase.csv",
    ("m", "t_us", "P_sim", "pstar_time_avg", "edge_pop"),
    (np.arange(1, m + 1), traj.times, traj.cumulative_survival, curve, edge_at_steps),
)
print(f"\nwrote {out / 'edge_staircase.csv'}")
