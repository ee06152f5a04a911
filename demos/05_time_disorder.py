#!/usr/bin/env python3
"""How interval disorder degrades confinement.

The mean waiting time is pinned at 3 us while the spread between the two
atoms grows, taking the relative variance kappa from 0 (evenly spaced)
to 16/9.  The decay exponent of the survival probability is predicted to
grow linearly in 1 + kappa at fixed mean; the simulation follows the line.

Writes demo_out/time_disorder.csv.
"""

from pathlib import Path

from zenochain import (
    ChainSpec,
    IntervalDistribution,
    ProtocolConfig,
    ProtocolKind,
    SeededSampler,
    aggregate,
    edge_population,
    moments,
    pstar_time_averaged,
    run_projective,
    w_state,
)
from zenochain.experiments import kappa_family, write_csv

spec = ChainSpec(n_sites=12, subspace_size=2)
psi0 = w_state(12, 2)
m, realizations = 500, 60
out = Path("demo_out")

rows = []
print("1+kappa    mu1, mu2 (us)    ln P* theory   mean ln P sim")
for p1, mu1, mu2 in kappa_family():
    d = IntervalDistribution.bimodal(mu1, mu2, p1)
    mom = moments(d)
    series = edge_population(spec, psi0, t_max=m * mom.mean, dt=mom.mean / 20)
    pred = pstar_time_averaged(m, d, series, spec.beta)
    base = SeededSampler(77)
    trajs = [
        run_projective(spec, psi0, ProtocolConfig(ProtocolKind.PROJECTIVE, m, d), base.spawn(i))
        for i in range(realizations)
    ]
    summary = aggregate(trajs)
    print(
        f"{1 + mom.kappa:7.3f}   {mu1:4.2f}, {mu2:5.2f}      "
        f"{pred.log_pstar:10.4f}    {summary.log_mean:10.4f}"
    )
    rows.append((mom.kappa, 1 + mom.kappa, mu1, mu2, pred.log_pstar, summary.log_mean))

write_csv(
    out / "time_disorder.csv",
    ("kappa", "one_plus_kappa", "mu1_us", "mu2_us", "ln_pstar", "ln_P_sim_mean"),
    zip(*rows),
)
print(f"\nwrote {out / 'time_disorder.csv'}")
print("the exponent is linear in 1 + kappa: disorder at fixed mean always hurts.")
