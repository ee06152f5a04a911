"""Stochastic quantum Zeno confinement on spin chains.

Simulates three confinement protocols (random-interval projective
measurements, random-interval unitary kicks, constant strong coupling) on an
XY chain restricted to the single-excitation sector, and evaluates the
closed-form typical-survival predictions they are compared against.
"""

import types as _types

from .analysis import (
    EnsembleSummary,
    VelocityFit,
    aggregate,
    ensemble_fidelities,
    fit_velocity,
    uhlmann_fidelity,
)
from .chain import (
    DEFAULT_RATE,
    ChainSpec,
    coupling_hamiltonian,
    hamiltonian,
    leftmost_excited,
    projector,
    w_state,
    zeno_hamiltonian,
)
from .linalg import EigenDecomposition, evolve, hermitian_eig, propagator, sqrt_psd
from .protocols import (
    ProtocolConfig,
    ProtocolKind,
    SubspaceEvolution,
    Trajectory,
    run_continuous,
    run_exact_subspace,
    run_lockstep,
    run_projective,
    run_pulsed,
)
from .stochastics import (
    IntervalDistribution,
    Moments,
    SeededSampler,
    derive_seed,
    moments,
    sample_intervals,
    weak_zeno_margin,
)
from .theory import (
    EdgePopulationSeries,
    TheoryPrediction,
    edge_population,
    edge_time_average,
    pstar_exact_product,
    pstar_strong,
    pstar_time_averaged,
    pstar_time_averaged_curve,
    pstar_weak,
    remainder_constant,
    three_level_hamiltonian,
    three_level_survival,
    variance_h_pi,
)

__version__ = "0.1.0"

# every name imported above, less the submodules those imports bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
