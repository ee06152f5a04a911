from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain import linalg, protocols, stochastics
from zenochain.analysis import ensemble_fidelities
from zenochain.chain import ChainSpec, coupling_hamiltonian, hamiltonian, leftmost_excited, projector, w_state
from zenochain.linalg import propagator
from zenochain.protocols import (
    BLOCK,
    InitialStateOutsideSubspaceError,
    ProtocolConfig,
    ProtocolKind,
    ZeroSurvivalError,
    run_continuous,
    run_exact_subspace,
    run_finals,
    run_finals_many,
    run_lockstep,
    run_projective,
    run_pulsed,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler
from zenochain.theory import three_level_survival

from helpers import (
    lone_runs,
    scalar_next_uint64,
    scalar_run_projective,
    scalar_run_pulsed,
    survival_trace_formula,
    tiled_word_tables,
)

BIMODAL = IntervalDistribution.bimodal(1.0, 5.0, 0.5)


def pm_config(m, d=BIMODAL, **kw):
    return ProtocolConfig(ProtocolKind.PROJECTIVE, m, d, **kw)


class TestProjective:
    def test_two_site_single_interval_closed_form(self):
        # one-dimensional subspace: q = cos^2(beta mu) exactly
        spec = ChainSpec(n_sites=2, subspace_size=1)
        d = IntervalDistribution.deterministic(1.0)
        traj = run_projective(spec, leftmost_excited(2), pm_config(1, d), SeededSampler(0))
        q = traj.survival_factors[0]
        assert abs(q - np.cos(spec.beta) ** 2) <= 1e-12
        assert abs(q - 0.999013) <= 1e-6

    def test_zero_intervals_leave_state_untouched(self):
        spec = ChainSpec(n_sites=2, subspace_size=1)
        d = IntervalDistribution.deterministic(1e-12)
        psi0 = leftmost_excited(2)
        traj = run_projective(spec, psi0, pm_config(6, d), SeededSampler(0))
        assert abs(traj.final_survival - 1.0) <= 1e-12
        assert np.max(np.abs(traj.final_state - psi0)) <= 1e-6

    def test_survival_is_product_of_factors(self):
        spec = ChainSpec(n_sites=8, subspace_size=3)
        traj = run_projective(spec, w_state(8, 3), pm_config(60), SeededSampler(3))
        assert np.max(np.abs(traj.cumulative_survival - np.cumprod(traj.survival_factors))) <= 1e-12
        assert np.all(np.diff(traj.cumulative_survival) <= 1e-15)

    def test_matches_trace_formula_oracle(self):
        # independent route: unnormalized operator product on a small chain
        for n, lam, seed in ((4, 2, 1), (5, 3, 2), (6, 2, 3)):
            spec = ChainSpec(n_sites=n, subspace_size=lam)
            psi0 = w_state(n, lam)
            traj = run_projective(spec, psi0, pm_config(25), SeededSampler(seed))
            p_oracle = survival_trace_formula(
                hamiltonian(spec), projector(spec), psi0, traj.intervals
            )
            assert abs(traj.final_survival - p_oracle) <= 1e-10

    def test_weak_zeno_regression_lnp_vs_theory(self):
        # N=12 lambda=2 W-state: ln P of one seeded run sits within 5% of
        # the constant-edge weak-regime prediction
        spec = ChainSpec(n_sites=12, subspace_size=2)
        traj = run_projective(spec, w_state(12, 2), pm_config(500), SeededSampler(12))
        ln_pstar = -(spec.beta**2 / 2) * 500 * 9.0 * (13.0 / 9.0)
        assert abs(traj.log_survival - ln_pstar) <= 0.05 * abs(ln_pstar)

    def test_trivial_projector_never_loses(self):
        spec = ChainSpec(n_sites=5, subspace_size=5)
        traj = run_projective(spec, w_state(5, 5), pm_config(40), SeededSampler(8))
        assert np.max(np.abs(traj.cumulative_survival - 1.0)) <= 1e-12

    def test_rejects_leaky_initial_state(self):
        spec = ChainSpec(n_sites=4, subspace_size=2)
        bad = np.full(4, 0.5, dtype=complex)
        with pytest.raises(InitialStateOutsideSubspaceError):
            run_projective(spec, bad, pm_config(3), SeededSampler(0))

    def test_rejects_unnormalized_state(self):
        spec = ChainSpec(n_sites=4, subspace_size=2)
        bad = np.zeros(4, dtype=complex)
        bad[0] = 0.7
        with pytest.raises(InitialStateOutsideSubspaceError):
            run_projective(spec, bad, pm_config(3), SeededSampler(0))

    def test_seeded_reproducibility(self):
        spec = ChainSpec(n_sites=10, subspace_size=4)
        a = run_projective(spec, w_state(10, 4), pm_config(80), SeededSampler(21))
        b = run_projective(spec, w_state(10, 4), pm_config(80), SeededSampler(21))
        assert np.array_equal(a.intervals, b.intervals)
        assert np.array_equal(a.cumulative_survival, b.cumulative_survival)
        assert np.array_equal(a.final_state, b.final_state)

    def test_states_recorded_normalized(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        traj = run_projective(
            spec, w_state(6, 2), pm_config(30, record_states=True), SeededSampler(4)
        )
        assert len(traj.states) == 30
        for s in traj.states:
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-10

    def test_bernoulli_mode_aborts_on_failure(self):
        spec = ChainSpec(n_sites=4, subspace_size=1)
        d = IntervalDistribution.deterministic(40.0)  # strong leakage per step
        config = pm_config(200, d, bernoulli=True)
        traj = run_projective(spec, leftmost_excited(4), config, SeededSampler(2))
        assert traj.aborted_at is not None
        assert traj.cumulative_survival[-1] == 0.0
        assert len(traj.intervals) == traj.aborted_at
        # the surviving prefix reports the indicator, not the product
        assert np.all(traj.cumulative_survival[:-1] == 1.0)


class TestPulsed:
    def test_kick_acts_trivially_inside_subspace(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        kick = propagator(coupling_hamiltonian(spec), np.pi / 2)
        psi = w_state(6, 2)
        assert np.max(np.abs(kick @ psi - psi)) <= 1e-12

    def test_norm_conserved_over_thousands_of_steps(self):
        spec = ChainSpec(n_sites=12, subspace_size=5)
        config = ProtocolConfig(ProtocolKind.PULSED, 3000, BIMODAL)
        traj = run_pulsed(spec, w_state(12, 5), config, SeededSampler(6))
        assert abs(np.linalg.norm(traj.final_state) - 1.0) <= 1e-10

    def test_cumulative_survival_is_the_subspace_population(self):
        spec = ChainSpec(n_sites=10, subspace_size=3)
        config = ProtocolConfig(ProtocolKind.PULSED, 150, BIMODAL, record_states=True)
        traj = run_pulsed(spec, w_state(10, 3), config, SeededSampler(9))
        pops = np.sum(np.abs(traj.states[:, :3]) ** 2, axis=1)
        assert np.array_equal(traj.cumulative_survival, pops)
        assert traj.survival_factors is None

    @pytest.mark.parametrize("lam", [*range(1, 33), 130])
    def test_row_sums_equal_numpys_sum_bit_for_bit(self, lam):
        # the pulsed population adds |psi_k|^2 over the subspace in numpy's
        # own order, so every pulsed output keeps its last digits
        rng = np.random.default_rng(lam)
        for width, steps in [(10, 272), (1, 700), (3, 1)]:
            shape = (width, steps, lam + 3)
            z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-8, 0, shape)
            want = (np.abs(z[:, :, :lam]) ** 2).sum(-1)
            assert np.array_equal(protocols._row_sums(np.abs(z[:, :, :lam]) ** 2), want)

    def test_swap_area_exchanges_outer_pair(self):
        # pulse area pi/4 makes the kick a population swap on the pair
        spec = ChainSpec(n_sites=4, subspace_size=1)
        config = ProtocolConfig(ProtocolKind.PULSED, 1, IntervalDistribution.deterministic(2.0), pulse_area=np.pi / 4)
        psi0 = leftmost_excited(4)
        traj = run_pulsed(spec, psi0, config, SeededSampler(0))
        # kick exchanges the pair amplitudes: site 3 gets what leaked onto
        # site 2 during the interval, and vice versa
        free = propagator(hamiltonian(spec), 2.0) @ psi0
        assert abs(np.abs(traj.final_state[2]) - np.abs(free[1])) <= 1e-10
        assert abs(np.abs(traj.final_state[1]) - np.abs(free[2])) <= 1e-10

    def test_needs_room_for_the_coupling(self):
        from zenochain.chain import SubspaceTooLargeError

        spec = ChainSpec(n_sites=5, subspace_size=4)
        config = ProtocolConfig(ProtocolKind.PULSED, 3, BIMODAL)
        with pytest.raises(SubspaceTooLargeError):
            run_pulsed(spec, w_state(5, 4), config, SeededSampler(0))

    def test_seeded_reproducibility(self):
        spec = ChainSpec(n_sites=10, subspace_size=4)
        config = ProtocolConfig(ProtocolKind.PULSED, 70, BIMODAL)
        a = run_pulsed(spec, w_state(10, 4), config, SeededSampler(33))
        b = run_pulsed(spec, w_state(10, 4), config, SeededSampler(33))
        assert np.array_equal(a.intervals, b.intervals)
        assert np.array_equal(a.final_state, b.final_state)


class TestContinuous:
    def test_zero_coupling_reduces_to_free_evolution(self):
        spec = ChainSpec(n_sites=8, subspace_size=3)
        psi0 = w_state(8, 3)
        traj = run_continuous(spec, psi0, total_time=45.0, coupling=0.0)
        free = propagator(hamiltonian(spec), 45.0) @ psi0
        assert np.max(np.abs(traj.final_state - free)) <= 1e-10

    def test_leakage_scales_inverse_square_in_coupling(self):
        spec = ChainSpec(n_sites=12, subspace_size=5)
        psi0 = w_state(12, 5)
        grid = np.arange(0.0, 300.0, 0.01)
        leaks = []
        for g in (4.0, 8.0):
            traj = run_continuous(spec, psi0, total_time=300.0, coupling=g, sample_times=grid)
            leaks.append(1.0 - traj.cumulative_survival.min())
        ratio = leaks[0] / leaks[1]
        assert 3.5 <= ratio <= 4.5

    def test_three_site_chain_matches_three_level_model(self):
        # N=3, lambda=1 under H + g Hc is exactly the three-level model with
        # omega = beta and pair coupling beta + 2g
        spec = ChainSpec(n_sites=3, subspace_size=1)
        g = 2.0
        grid = np.linspace(0.0, 120.0, 1201)
        traj = run_continuous(spec, leftmost_excited(3), total_time=120.0, coupling=g, sample_times=grid)
        predicted = three_level_survival(spec.beta, spec.beta + 2 * g, grid)
        assert np.max(np.abs(traj.cumulative_survival - predicted)) <= 1e-8

    def test_rejects_sample_times_outside_window(self):
        spec = ChainSpec(n_sites=5, subspace_size=2)
        with pytest.raises(ValueError):
            run_continuous(spec, w_state(5, 2), 10.0, 1.0, sample_times=np.array([0.0, 11.0]))

    def test_cumulative_survival_is_the_subspace_population(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        traj = run_continuous(spec, w_state(6, 2), total_time=30.0, coupling=0.3,
                              record_states=True)
        pops = np.sum(np.abs(traj.states[:, :2]) ** 2, axis=1)
        assert np.array_equal(traj.cumulative_survival, pops)
        assert traj.survival_factors is None

    def test_final_state_is_last_recorded_state(self):
        spec = ChainSpec(n_sites=9, subspace_size=4)
        traj = run_continuous(spec, w_state(9, 4), total_time=80.0, coupling=0.3,
                              record_states=True)
        assert traj.states.shape == (2001, 9)
        assert np.max(np.abs(traj.final_state - traj.states[-1])) <= 1e-15

    def test_grid_short_of_total_time_ends_at_its_last_sample(self):
        # the final state and the time it is scored at are both the last sample's
        spec, psi0 = ChainSpec(n_sites=9, subspace_size=4), w_state(9, 4)
        grid = np.arange(0.0, 80.0, 0.7)
        traj = run_continuous(spec, psi0, total_time=80.0, coupling=0.3, sample_times=grid,
                              record_states=True)
        assert np.array_equal(traj.final_state, traj.states[-1])
        assert traj.total_time == grid[-1] < 80.0
        ideal = run_exact_subspace(spec, psi0, grid[-1:]).states[0]
        want = abs(np.vdot(ideal, traj.final_state[:4]))
        assert abs(ensemble_fidelities(spec, psi0, [traj])[0] - want) <= 1e-12

    @pytest.mark.parametrize("coupling", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_is_a_named_error(self, coupling):
        # ended in NotHermitianError (defect nan), after two RuntimeWarnings for inf
        spec = ChainSpec(n_sites=6, subspace_size=2)
        with pytest.raises(ValueError, match="coupling must be finite"):
            run_continuous(spec, w_state(6, 2), total_time=10.0, coupling=coupling)

    def test_empty_sample_times_rejected(self):
        spec = ChainSpec(n_sites=12, subspace_size=3)
        with pytest.raises(ValueError, match="sample_times is empty"):
            run_continuous(spec, w_state(12, 3), total_time=10.0, coupling=1.0,
                           sample_times=np.array([]))


class TestExactSubspace:
    def test_single_site_population_constant(self):
        spec = ChainSpec(n_sites=5, subspace_size=1)
        traj = run_exact_subspace(spec, leftmost_excited(5), np.linspace(0, 100, 11))
        for s in traj.states:
            assert abs(np.abs(s[0]) ** 2 - 1.0) <= 1e-12

    def test_two_site_rabi(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        grid = np.linspace(0.0, 160.0, 401)
        ref = run_exact_subspace(spec, leftmost_excited(6), grid)
        assert ref.states.shape == (401, 2)
        pops = np.abs(ref.states[:, 1]) ** 2
        assert np.max(np.abs(pops - np.sin(spec.beta * grid) ** 2)) <= 1e-10

    def test_w_state_is_two_site_eigenstate(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        grid = np.linspace(0.0, 500.0, 101)
        traj = run_exact_subspace(spec, w_state(12, 2), grid)
        pops = np.array([np.abs(s) ** 2 for s in traj.states])
        assert np.max(np.abs(pops - 0.5)) <= 1e-10

    def test_rejects_support_outside_subspace(self):
        spec = ChainSpec(n_sites=5, subspace_size=2)
        with pytest.raises(InitialStateOutsideSubspaceError):
            run_exact_subspace(spec, w_state(5, 3), np.array([0.0, 1.0]))


class TestDispatcher:
    def test_continuous_dispatch_uses_expected_time(self):
        spec = ChainSpec(n_sites=9, subspace_size=3)
        config = ProtocolConfig(ProtocolKind.CONTINUOUS, 40, BIMODAL)
        traj = run_lockstep(spec, w_state(9, 3), config, [SeededSampler(1)])[0]
        assert abs(traj.total_time - 40 * 3.0) <= 1e-9
        assert len(traj.times) == 40

    def test_default_continuous_coupling(self):
        config = ProtocolConfig(ProtocolKind.CONTINUOUS, 10, BIMODAL)
        assert abs(config.effective_coupling() - np.pi / 6.0) <= 1e-12

    @pytest.mark.parametrize(
        "kind, fields",
        [
            (ProtocolKind.PROJECTIVE, {"num_intervals": 0}),
            (ProtocolKind.PULSED, {"pulse_area": 0.0}),
            (ProtocolKind.PULSED, {"pulse_area": np.inf}),
            (ProtocolKind.PULSED, {"pulse_area": np.nan}),
            (ProtocolKind.CONTINUOUS, {"coupling": -1.0}),
            (ProtocolKind.CONTINUOUS, {"coupling": np.inf}),
            (ProtocolKind.CONTINUOUS, {"coupling": np.nan}),
            (ProtocolKind.PULSED, {"pulse_area": 1e300}),  # 2 * pulse_area phases overflow
            (ProtocolKind.CONTINUOUS, {"coupling": 1e299}),  # over m * mean = 30 us
            (ProtocolKind.PROJECTIVE, {"num_intervals": 10.5}),
            (ProtocolKind.PROJECTIVE, {"num_intervals": 10.0}),
            (ProtocolKind.PROJECTIVE, {"num_intervals": True}),
            (ProtocolKind.PULSED, {"bernoulli": True}),
            (ProtocolKind.CONTINUOUS, {"bernoulli": True}),
        ],
    )
    def test_config_rejects_bad_values(self, kind, fields):
        (name,) = fields
        with pytest.raises(ValueError, match=name):
            ProtocolConfig(kind, **{"num_intervals": 10, "distribution": BIMODAL, **fields})

    def test_config_takes_numpy_integers(self):
        assert ProtocolConfig(ProtocolKind.PROJECTIVE, np.int64(3), BIMODAL).num_intervals == 3

    def test_projective_dispatch(self):
        spec = ChainSpec(n_sites=9, subspace_size=3)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, 15, BIMODAL)
        traj = run_lockstep(spec, w_state(9, 3), config, [SeededSampler(1)])[0]
        assert traj.survival_factors is not None  # projective has factors
        assert len(traj.survival_factors) == 15

    @pytest.mark.parametrize(
        "run_one, config",
        [
            (run_pulsed, ProtocolConfig(ProtocolKind.PROJECTIVE, 15, BIMODAL, bernoulli=True)),
            (run_projective, ProtocolConfig(ProtocolKind.CONTINUOUS, 15, BIMODAL)),
        ],
        ids=["pulsed-given-bernoulli", "projective-given-continuous"],
    )
    def test_runner_rejects_a_config_of_another_kind(self, run_one, config):
        spec = ChainSpec(n_sites=9, subspace_size=3)
        with pytest.raises(ValueError) as err:
            run_one(spec, w_state(9, 3), config, SeededSampler(1))
        runner_kind = run_one.__name__.removeprefix("run_")
        assert runner_kind in str(err.value) and config.kind.value in str(err.value)


def assert_close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= tol


def assert_matches_oracle(a, b, config):
    """A kernel trajectory against the scalar oracle's run of the same stream."""
    assert a.aborted_at == b.aborted_at
    assert np.array_equal(a.intervals, b.intervals)
    if config.kind is ProtocolKind.PROJECTIVE and not config.bernoulli:
        assert abs(a.log_survival - b.log_survival) <= 1e-12
    if b.survival_factors is not None:
        assert_close(a.survival_factors, b.survival_factors)
    assert_close(a.cumulative_survival, b.cumulative_survival)
    assert_close(a.final_state, b.final_state)
    assert (a.states is None) == (b.states is None)
    if a.states is not None:
        assert_close(a.states, b.states)


def assert_same_run(a, b):
    for name in ("intervals", "cumulative_survival", "final_state", "survival_factors",
                 "log_cumulative_survival", "states"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


@st.composite
def small_runs(draw):
    """A random small chain, initial state, interval law, m and seed."""
    n = draw(st.integers(2, 8))
    lam = draw(st.integers(1, n))
    mus = draw(st.lists(st.floats(0.05, 12.0), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(mus), max_size=len(mus)))
    probs = np.array(weights, dtype=float) / sum(weights)
    d = IntervalDistribution.from_atoms(zip(mus, probs))
    psi0 = w_state(n, lam) if draw(st.booleans()) else leftmost_excited(n)
    pulsed = lam + 2 <= n and draw(st.booleans())
    kind = ProtocolKind.PULSED if pulsed else ProtocolKind.PROJECTIVE
    config = ProtocolConfig(kind, draw(st.integers(1, 80)), d)
    return ChainSpec(n_sites=n, subspace_size=lam), psi0, config, draw(st.integers(0, 2**64 - 1))


class TestLockstepKernel:
    """The ensemble kernel against the scalar per-realization loops it replaced."""

    @pytest.mark.parametrize("n, lam, m, seed", [(12, 2, 400, 1), (12, 9, 600, 3), (5, 2, 300, 7)])
    def test_projective_matches_scalar_oracle(self, n, lam, m, seed):
        spec, psi0 = ChainSpec(n_sites=n, subspace_size=lam), w_state(n, lam)
        config = pm_config(m, record_states=True)
        a = run_projective(spec, psi0, config, SeededSampler(seed))
        b = scalar_run_projective(spec, psi0, config, SeededSampler(seed))
        assert_matches_oracle(a, b, config)

    @pytest.mark.parametrize("n, lam, m, seed", [(12, 4, 800, 2), (6, 3, 300, 5)])
    def test_pulsed_matches_scalar_oracle(self, n, lam, m, seed):
        spec, psi0 = ChainSpec(n_sites=n, subspace_size=lam), leftmost_excited(n)
        config = ProtocolConfig(ProtocolKind.PULSED, m, BIMODAL, record_states=True)
        a = run_pulsed(spec, psi0, config, SeededSampler(seed))
        b = scalar_run_pulsed(spec, psi0, config, SeededSampler(seed))
        assert_matches_oracle(a, b, config)

    @pytest.mark.parametrize("seed", range(6))
    def test_bernoulli_ensemble_matches_scalar_oracle(self, seed):
        # a few percent leakage per step: columns abort at scattered steps
        # and some survive all 60, so the frozen-column mask is exercised
        spec, psi0 = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2)
        config = pm_config(60, IntervalDistribution.bimodal(4.0, 9.0, 0.5),
                           bernoulli=True, record_states=True)
        base = SeededSampler(seed)
        samplers = [base.spawn(i) for i in range(8)]
        trajs = run_lockstep(spec, psi0, config, samplers)
        for i, a in enumerate(trajs):
            own = base.spawn(i)
            b = scalar_run_projective(spec, psi0, config, own)
            assert a.aborted_at == b.aborted_at
            assert np.array_equal(a.intervals, b.intervals)
            assert np.array_equal(a.cumulative_survival, b.cumulative_survival)
            assert_close(a.survival_factors, b.survival_factors)
            assert_close(a.final_state, b.final_state)
            assert_close(np.array(a.states), np.array(b.states))
            # the stream continues where the scalar run left it
            assert scalar_next_uint64(samplers[i]) == scalar_next_uint64(own)

    @pytest.mark.parametrize("bernoulli", [False, True])
    def test_full_subspace_matches_scalar_oracle(self, bernoulli):
        # lambda = n: the block is the whole propagator and the complement is
        # empty, so no outcome fails and states need no padding
        spec, psi0 = ChainSpec(n_sites=5, subspace_size=5), w_state(5, 5)
        config = pm_config(90, bernoulli=bernoulli, record_states=True)
        base = SeededSampler(31)
        samplers = [base.spawn(i) for i in range(4)]
        for i, a in enumerate(run_lockstep(spec, psi0, config, samplers)):
            own = base.spawn(i)
            assert a.aborted_at is None
            assert_matches_oracle(a, scalar_run_projective(spec, psi0, config, own), config)
            assert scalar_next_uint64(samplers[i]) == scalar_next_uint64(own)

    def test_log_survival_finite_where_product_underflows(self, monkeypatch):
        spec = ChainSpec(n_sites=12, subspace_size=1)
        config = pm_config(2000, IntervalDistribution.deterministic(20.0))
        traj = run_projective(spec, leftmost_excited(12), config, SeededSampler(0))
        oracle = scalar_run_projective(spec, leftmost_excited(12), config, SeededSampler(0))
        assert traj.final_survival == 0.0  # exp(-817) underflows
        assert abs(traj.log_survival - oracle.log_survival) <= 1e-12 * 817
        assert abs(traj.log_survival + 817.40) <= 0.01
        # two atoms on two sites: mu = 50 leaves sigma_min^2 = 2.6e-32, so no
        # product of K = 7 blocks falls below NORM_FLOOR; words (L = 4) and
        # slices are capped at K steps, and no column needs a redo
        lengths, spans = [], []
        build, products = protocols._word_tables, protocols._products
        monkeypatch.setattr(protocols, "_word_tables",
                            lambda mats, length, *a: lengths.append(length) or build(mats, length, *a))
        monkeypatch.setattr(protocols, "_products",
                            lambda tables, block, *a: spans.append(block.shape[1]) or
                            products(tables, block, *a))
        spec = ChainSpec(n_sites=2, subspace_size=1)
        d = IntervalDistribution.from_atoms([(1.0, 0.92), (50.0, 0.08)])
        mats = linalg.propagators(hamiltonian(spec), d.values)[:, :1, :1]
        assert protocols._steps_above_floor(mats) == 7
        config = pm_config(2000, d)
        traj = run_projective(spec, leftmost_excited(2), config, SeededSampler(5))
        oracle = scalar_run_projective(spec, leftmost_excited(2), config, SeededSampler(5))
        assert lengths == [4] and set(spans) == {4}
        assert abs(traj.log_survival - oracle.log_survival) <= 1e-12 * abs(oracle.log_survival)
        assert traj.log_survival < -5000

    def test_continuous_runs_once_for_the_ensemble(self):
        # deterministic: five samplers still give the one run, and none is drawn from
        spec = ChainSpec(n_sites=9, subspace_size=3)
        config = ProtocolConfig(ProtocolKind.CONTINUOUS, 40, BIMODAL)
        samplers = [SeededSampler(i) for i in range(5)]
        trajs = run_lockstep(spec, w_state(9, 3), config, samplers)
        assert len(trajs) == 1
        assert abs(trajs[0].total_time - 40 * 3.0) <= 1e-9
        untouched = [scalar_next_uint64(SeededSampler(i)) for i in range(5)]
        assert [scalar_next_uint64(s) for s in samplers] == untouched

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_empty_ensemble_rejected(self, kind):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        with pytest.raises(ValueError, match="at least one realization"):
            run_lockstep(spec, w_state(6, 2), ProtocolConfig(kind, 5, BIMODAL), [])

    def test_dead_branch_raises(self, monkeypatch):
        # a step that swaps site 1 out of the subspace leaves q = 0 exactly
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        monkeypatch.setattr(linalg, "propagators", lambda h, times: np.array([swap] * len(times)))
        spec = ChainSpec(n_sites=2, subspace_size=1)
        with pytest.raises(ZeroSurvivalError, match="step 1"):
            run_projective(spec, leftmost_excited(2), pm_config(3), SeededSampler(0))

    @settings(max_examples=40, deadline=None)
    @given(run=small_runs())
    def test_log_survival_matches_oracle_on_random_runs(self, run):
        spec, psi0, config, seed = run
        if config.kind is ProtocolKind.PROJECTIVE:
            a = run_projective(spec, psi0, config, SeededSampler(seed))
            b = scalar_run_projective(spec, psi0, config, SeededSampler(seed))
            want = b.log_survival
        else:
            a = run_pulsed(spec, psi0, config, SeededSampler(seed))
            b = scalar_run_pulsed(spec, psi0, config, SeededSampler(seed))
            want = np.log(b.cumulative_survival[-1])
        assert np.array_equal(a.intervals, b.intervals)
        assert abs(a.log_survival - want) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(run=small_runs())
    def test_projective_survival_non_increasing(self, run):
        spec, psi0, config, seed = run
        config = replace(config, kind=ProtocolKind.PROJECTIVE)
        traj = run_projective(spec, psi0, config, SeededSampler(seed))
        p = traj.cumulative_survival
        # q_j <= 1 up to the rounding of one unitary step on n sites (with
        # lambda = n every q_j is 1 to a few ulps)
        slack = 16 * spec.n_sites * np.finfo(float).eps
        assert np.all(traj.survival_factors <= 1.0 + slack)
        assert np.all(np.diff(p) <= slack * p[:-1])
        assert np.all(np.diff(traj.log_cumulative_survival) <= slack)


class TestWordKernel:
    """Each column advances L steps per gather of tabled words; L never depends on the width."""

    @settings(max_examples=30, deadline=None)
    @given(run=small_runs(), bernoulli=st.booleans(), slot=st.integers(0, 6),
           others=st.integers(0, 2**32))
    def test_realization_bit_identical_at_any_width(self, run, bernoulli, slot, others):
        # one to three atoms, m from 1 to 80 (mostly not a multiple of L),
        # pulsed, post-selected and Bernoulli runs
        spec, psi0, config, seed = run
        if config.kind is ProtocolKind.PROJECTIVE:
            config = replace(config, bernoulli=bernoulli)
        lone = run_lockstep(spec, psi0, config, [SeededSampler(seed)])[0]
        random = len(config.distribution.atoms) > 1 or config.bernoulli
        for width in (7, 50):
            samplers = [SeededSampler(others).spawn(i) for i in range(width)]
            samplers[slot] = SeededSampler(seed)
            trajs = run_lockstep(spec, psi0, config, samplers)
            assert len(trajs) == (width if random else 1)
            traj = trajs[slot if random else 0]  # a deterministic ensemble is its one run
            assert traj.aborted_at == lone.aborted_at
            assert_same_run(traj, lone)

    # (atoms, dim, m) -> L: the theory_fig3 staircase, simulate_long, fig5's
    # pulsed and projective runs, one-atom laws, three atoms
    LENGTHS = {(2, 9, 2000): 4, (2, 12, 10000): 4, (2, 12, 100): 4, (2, 2, 100): 4,
               (1, 12, 100): 4, (1, 2, 100): 4, (1, 1, 2000): 16, (3, 12, 1000): 2}

    def test_word_length_rule(self):
        for (atoms, dim, m), length in self.LENGTHS.items():
            assert protocols._word_length(atoms, dim, m) == length

    def test_word_length_closed_form_equals_the_sum(self):
        def summed(atoms, dim, m):  # the rule with the word count as an explicit sum
            def fits(length):
                words = sum(atoms**i for i in range(1, length + 1))
                return words * 16 * dim * dim <= protocols.TABLE_BYTES and 3 * length**2 <= m

            return max((2**p for p in range(1, BLOCK.bit_length()) if fits(2**p)), default=1)

        for atoms in range(1, 6):
            for dim in range(1, 33):
                for m in (1, 2, 7, 50, 100, 333, 2000, 10000, 10**6):
                    assert protocols._word_length(atoms, dim, m) == summed(atoms, dim, m)

    @pytest.mark.parametrize("kind, lam, d", [
        (ProtocolKind.PULSED, 4, BIMODAL),
        (ProtocolKind.PROJECTIVE, 9, BIMODAL),
        (ProtocolKind.PROJECTIVE, 2, IntervalDistribution.from_atoms([(1, .2), (2, .3), (4, .5)])),
        (ProtocolKind.PULSED, 2, IntervalDistribution.deterministic(3.0)),
    ])
    def test_word_length_same_at_every_width(self, monkeypatch, kind, lam, d):
        lengths = []
        build = protocols._word_tables
        monkeypatch.setattr(protocols, "_word_tables",
                            lambda mats, length, *a: lengths.append(length) or build(mats, length, *a))
        spec = ChainSpec(n_sites=12, subspace_size=lam)
        for width in (1, 7, 50, 300):
            run_lockstep(spec, leftmost_excited(12), ProtocolConfig(kind, 150, d),
                         [SeededSampler(i) for i in range(width)])
        assert len(lengths) == 4 and len(set(lengths)) == 1 and lengths[0] > 1

    def test_long_deterministic_pulsed_run_tracks_the_spectral_power(self):
        # population after each of m = 2590 kicks at fixed mu against
        # |P M^j psi0|^2 from the eigendecomposition of the one-step map M
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=4), w_state(12, 4)
        mu, m = 0.579209318664975, 2590
        config = ProtocolConfig(ProtocolKind.PULSED, m, IntervalDistribution.deterministic(mu))
        traj = run_pulsed(spec, psi0, config, SeededSampler(0))
        step = propagator(coupling_hamiltonian(spec), np.pi / 2) @ propagator(hamiltonian(spec), mu)
        w, v = np.linalg.eig(step)
        j = np.arange(1, m + 1)[:, None]
        powers = np.abs(w) ** j * np.exp(1j * np.angle(w) * j)
        exact = (powers * np.linalg.solve(v, psi0.astype(complex))) @ v[:4].T
        population = np.sum(np.abs(exact) ** 2, axis=1)
        assert np.max(np.abs(traj.cumulative_survival - population)) <= 1e-11

    def test_gather_stays_within_the_table_cap_at_any_width(self, monkeypatch):
        # R = 1000 columns of 24 x 12 stacked words (L = 4: lambda = 4 rows of
        # each of the first three steps, all 12 of the fourth) would gather
        # 4.6 MB in one piece; chunks of columns keep every gather within
        # TABLE_BYTES
        gathers = []

        class Table(np.ndarray):  # the word table, recording each gather from it
            def take(self, indices, *args):
                gathers.append(np.size(indices) * self[0].nbytes)
                return np.ndarray.take(self, indices, *args)

        build = protocols._word_tables
        monkeypatch.setattr(protocols, "_word_tables",
                            lambda *a: tuple(t if t is None else t.view(Table) for t in build(*a)))
        spec = ChainSpec(n_sites=12, subspace_size=4)
        config = ProtocolConfig(ProtocolKind.PULSED, 100, BIMODAL)
        run_lockstep(spec, leftmost_excited(12), config, [SeededSampler(i) for i in range(1000)])
        assert max(gathers) <= protocols.TABLE_BYTES
        assert sum(gathers) == 1000 * 25 * 24 * 12 * 16  # every sub-block of every column, once


    def test_stacked_table_within_the_bound_of_word_length(self):
        # _word_length's docstring: k^L stacked words of at most L * dim rows
        # take at most L * TABLE_BYTES; head = dim is the largest table
        rng = np.random.default_rng(0)
        for (atoms, dim, m), length in self.LENGTHS.items():
            assert protocols._word_length(atoms, dim, m) == length
            mats = np.linalg.qr(rng.standard_normal((atoms, dim, dim)) + 0j)[0]
            table, tail = protocols._word_tables(mats, length, dim, length - 1)
            assert table.shape == (atoms**length, length * dim, dim)
            assert table.nbytes <= length * protocols.TABLE_BYTES
            assert tail is None or tail.nbytes < table.nbytes

    @pytest.mark.parametrize("head", [0, 2, 3], ids=["no-head", "head-lambda", "head-dim"])
    @pytest.mark.parametrize("length", [1, 2, 4, 8])
    @pytest.mark.parametrize("atoms", [1, 2, 3])
    def test_broadcast_tables_equal_the_tiled_build(self, atoms, length, head):
        # lambda = 2 of dim = 3 rows per prefix, the blocks a view into
        # larger matrices as a projective law's are; with and without a tail
        rng = np.random.default_rng(10 * atoms + length)
        full = rng.standard_normal((atoms, 4, 4)) + 1j * rng.standard_normal((atoms, 4, 4))
        mats = full[:, :3, :3]
        for tail in sorted({0, length - 1}):
            got = protocols._word_tables(mats, length, head, tail)
            want = tiled_word_tables(mats, length, head, tail)
            assert (got[1] is None) == (want[1] is None) == (tail == 0)
            for a, b in zip(got, want):
                assert b is None or np.array_equal(a, b)

    @pytest.mark.parametrize("atoms, length, head, tail", [(1, 4, 2, 3), (2, 3, 1, 2), (3, 2, 3, 1)])
    def test_stacked_word_rows_are_the_prefix_products(self, atoms, length, head, tail):
        # word c = sum_p a_p k^p: head rows of each proper prefix, then the whole product
        rng = np.random.default_rng(atoms)
        mats = rng.standard_normal((atoms, 3, 3)) + 1j * rng.standard_normal((atoms, 3, 3))
        for steps, table in zip((length, tail), protocols._word_tables(mats, length, head, tail)):
            assert table.shape == (atoms**steps, (steps - 1) * head + 3, 3)
            for code in range(atoms**steps):
                word = [code // atoms**p % atoms for p in range(steps)]
                prefix, rows = np.eye(3), []
                for i, a in enumerate(word):
                    prefix = mats[a] @ prefix
                    rows.append(prefix if i == steps - 1 else prefix[:head])
                assert np.allclose(table[code], np.concatenate(rows), rtol=0, atol=1e-12)


class TestStackedWords:
    """A pulsed run that records no states computes only the lambda subspace
    rows of each step but the last of a sub-block; a run's m mod L last
    steps read a tail table.  Neither changes a bit of any column."""

    LAWS = [IntervalDistribution.deterministic(0.7), BIMODAL,
            IntervalDistribution.from_atoms([(1, .2), (2, .3), (4, .5)])]

    @pytest.mark.parametrize("d", LAWS, ids=["one-atom", "two-atom", "three-atom"])
    def test_pulsed_rows_kept_change_no_bit(self, d):
        # head = n with record_states, head = lambda without
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=4), leftmost_excited(12)
        for m in (1, 3, 66, 131, 1003):
            config = ProtocolConfig(ProtocolKind.PULSED, m, d)
            plain, recorded = (
                run_lockstep(spec, psi0, replace(config, record_states=record),
                             [SeededSampler(5).spawn(i) for i in range(3)])
                for record in (False, True)
            )
            for a, b in zip(plain, recorded, strict=True):
                assert a.states is None and b.states.shape == (m, 12)
                assert np.array_equal(a.intervals, b.intervals)
                assert np.array_equal(a.cumulative_survival, b.cumulative_survival)
                assert np.array_equal(a.final_state, b.final_state)
                assert np.array_equal(b.states[-1], b.final_state)

    @pytest.mark.parametrize("kind", [ProtocolKind.PROJECTIVE, ProtocolKind.PULSED])
    @pytest.mark.parametrize("d", LAWS, ids=["one-atom", "two-atom", "three-atom"])
    def test_every_tail_matches_a_lone_run_and_the_oracle(self, monkeypatch, kind, d):
        # m = 128..128 + L - 1 at m = 128's L (the same L there) gives every
        # tail m mod L from 1 to L - 1; the other m are short and long runs
        spec, psi0 = ChainSpec(n_sites=8, subspace_size=3), w_state(8, 3)
        dim = 8 if kind is ProtocolKind.PULSED else 3
        base = protocols._word_length(len(d.atoms), dim, 128)
        tails = []
        build = protocols._word_tables
        monkeypatch.setattr(protocols, "_word_tables",
                            lambda mats, length, head, tail: tails.append((length, tail)) or
                            build(mats, length, head, tail))
        oracle = scalar_run_pulsed if kind is ProtocolKind.PULSED else scalar_run_projective
        random = len(d.atoms) > 1
        for m in sorted({1, 2, 3, 5, 7, 65, 67, 131, 1003} | {128 + t for t in range(base)}):
            config = ProtocolConfig(kind, m, d)
            samplers = [SeededSampler(m).spawn(i) for i in range(7)]
            seeds = [s._state for s in samplers]
            trajs = run_lockstep(spec, psi0, config, samplers)
            assert len(trajs) == (7 if random else 1)
            for r in (0, 3, 6) if random else (0,):
                lone = run_lockstep(spec, psi0, config, [SeededSampler(seeds[r])])[0]
                assert_same_run(trajs[r], lone)
                assert_matches_oracle(trajs[r], oracle(spec, psi0, config, SeededSampler(seeds[r])),
                                      config)
        assert base > 1 and {t for length, t in tails if length == base} == set(range(base))


class TestOneAtomEnsemble:
    """A one-atom law leaves a post-selected or pulsed run nothing random:
    the ensemble is one run, made with the first sampler."""

    ONE_ATOM = IntervalDistribution.deterministic(0.7)

    def configs(self, record_states):
        yield pm_config(150, self.ONE_ATOM, record_states=record_states)
        yield ProtocolConfig(ProtocolKind.PULSED, 150, self.ONE_ATOM, record_states=record_states)

    @pytest.mark.parametrize("record_states", [False, True])
    def test_one_run_equals_a_lone_run_bit_for_bit(self, record_states):
        spec, psi0 = ChainSpec(n_sites=9, subspace_size=3), w_state(9, 3)
        for config in self.configs(record_states):
            run_one = run_projective if config.kind is ProtocolKind.PROJECTIVE else run_pulsed
            samplers = [SeededSampler(11).spawn(i) for i in range(6)]
            starts = [s._state for s in samplers]
            [traj] = run_lockstep(spec, psi0, config, samplers)
            assert_same_run(traj, run_one(spec, psi0, config, SeededSampler(11).spawn(0)))
            assert traj.aborted_at is None
            assert (traj.states is not None) is record_states
            assert samplers[0]._state == (starts[0] + 150 * stochastics._GAMMA) % 2**64
            assert [s._state for s in samplers[1:]] == starts[1:]  # left untouched

    def test_arrays_are_writeable(self):
        spec, psi0 = ChainSpec(n_sites=9, subspace_size=3), w_state(9, 3)
        for config in self.configs(True):
            [traj] = run_lockstep(spec, psi0, config, [SeededSampler(i) for i in range(4)])
            for array in vars(traj).values():
                if isinstance(array, np.ndarray):
                    assert array.flags.writeable

    def test_bernoulli_outcomes_still_drawn_per_column(self, monkeypatch):
        # q < 1 every step: each column's outcomes are its own, so runs abort
        # at different steps; every column is advanced by the kernel
        widths = []
        products = protocols._products
        monkeypatch.setattr(protocols, "_products",
                            lambda tables, block, *a: widths.append(len(block)) or
                            products(tables, block, *a))
        spec, psi0 = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2)
        config = pm_config(300, IntervalDistribution.deterministic(4.0), bernoulli=True)
        trajs = run_lockstep(spec, psi0, config, [SeededSampler(3).spawn(i) for i in range(12)])
        assert len(trajs) == 12 and widths[0] == 12
        assert len({t.aborted_at for t in trajs}) > 3

    def test_continuous_still_one_run(self):
        spec, psi0 = ChainSpec(n_sites=9, subspace_size=3), w_state(9, 3)
        config = ProtocolConfig(ProtocolKind.CONTINUOUS, 40, self.ONE_ATOM)
        assert len(run_lockstep(spec, psi0, config, [SeededSampler(i) for i in range(5)])) == 1


@pytest.mark.filterwarnings("error")  # no RuntimeWarning, e.g. 0/0 on a zero-norm column
class TestCarriedProduct:
    """Projective columns carry the unnormalized P U P product across slices,
    rescaled by powers of two: every q and state matches the scalar oracle."""

    @pytest.mark.parametrize("m", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_block_edges_match_scalar_oracle(self, m):
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=9), leftmost_excited(12)
        config = pm_config(m, record_states=True)
        a = run_projective(spec, psi0, config, SeededSampler(m))
        b = scalar_run_projective(spec, psi0, config, SeededSampler(m))
        assert_matches_oracle(a, b, config)
        spec = ChainSpec(n_sites=12, subspace_size=4)
        config = ProtocolConfig(ProtocolKind.PULSED, m, BIMODAL, record_states=True)
        a = run_pulsed(spec, psi0, config, SeededSampler(m))
        b = scalar_run_pulsed(spec, psi0, config, SeededSampler(m))
        assert_matches_oracle(a, b, config)

    @pytest.mark.parametrize("bernoulli", [False, True])
    def test_dead_branch_names_its_step(self, monkeypatch, bernoulli):
        # identity steps, then one swap of site 1 out of the subspace at step
        # BLOCK + 5, inside the second block
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        monkeypatch.setattr(linalg, "propagators", lambda h, times: np.array([np.eye(2), swap]))
        pattern = np.arange(2 * BLOCK + 3) == BLOCK + 4
        monkeypatch.setattr(
            protocols, "atom_indices", lambda d, u: np.broadcast_to(pattern, u.shape) * 1
        )
        spec = ChainSpec(n_sites=2, subspace_size=1)
        config = pm_config(2 * BLOCK + 3, bernoulli=bernoulli)
        with pytest.raises(ZeroSurvivalError, match=f"at step {BLOCK + 5}$"):
            run_lockstep(spec, leftmost_excited(2), config, [SeededSampler(0), SeededSampler(1)])

    # spawn index of SeededSampler(0) -> the step its first Bernoulli outcome
    # fails (picked for BLOCK = 64)
    FIRST_FAILURES = {3: 1, 100: BLOCK, 61: BLOCK + 1, 35: 2 * BLOCK, 868: 2 * BLOCK + 1, 7: None}

    def test_bernoulli_failures_at_block_edges(self):
        spec, psi0 = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2)
        config = pm_config(2 * BLOCK + 3, IntervalDistribution.bimodal(4.0, 9.0, 0.5),
                           bernoulli=True, record_states=True)
        base = SeededSampler(0)
        samplers = [base.spawn(i) for i in self.FIRST_FAILURES]
        trajs = run_lockstep(spec, psi0, config, samplers)
        for (i, step), a, sampler in zip(self.FIRST_FAILURES.items(), trajs, samplers):
            own = base.spawn(i)
            b = scalar_run_projective(spec, psi0, config, own)
            assert a.aborted_at == step
            assert_matches_oracle(a, b, config)
            assert scalar_next_uint64(sampler) == scalar_next_uint64(own)

    def test_leaky_column_stays_above_the_floor_under_the_cap(self):
        # lambda = 1: mu = 50 swaps site 1 out up to q = 2.6e-32; stream 7
        # has 12 such steps in its second 64 (a product of 1e-377 there, far
        # below the smallest double), stream 1 at most 6.  Slices of K = 7
        # steps keep both products above NORM_FLOOR
        spec, psi0 = ChainSpec(n_sites=2, subspace_size=1), leftmost_excited(2)
        d = IntervalDistribution.from_atoms([(1.0, 0.92), (50.0, 0.08)])
        config = pm_config(2 * BLOCK + 3, d, record_states=True)
        pair = run_lockstep(spec, psi0, config, [SeededSampler(7), SeededSampler(1)])
        for seed, a in zip((7, 1), pair):
            leaks = [np.sum(a.intervals[j : j + BLOCK] == 50.0) for j in (0, BLOCK, 2 * BLOCK)]
            assert max(leaks) == (12 if seed == 7 else 6)
            b = scalar_run_projective(spec, psi0, config, SeededSampler(seed))
            assert_matches_oracle(a, b, config)
            assert_same_run(a, run_projective(spec, psi0, config, SeededSampler(seed)))


@pytest.mark.filterwarnings("error")  # no RuntimeWarning, e.g. 0/0 on a zero-norm column
class TestSlices:
    """Slices of L steps give every column bitwise the run it has in one
    slice, and in an ensemble of one."""

    @pytest.mark.parametrize("case", ["post-selected", "bernoulli", "pulsed"])
    def test_slices_of_one_word_change_no_bit(self, monkeypatch, case):
        if case == "pulsed":
            spec, psi0 = ChainSpec(n_sites=12, subspace_size=4), leftmost_excited(12)
            config = ProtocolConfig(ProtocolKind.PULSED, 300, BIMODAL, record_states=True)
        else:
            spec, psi0 = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2)
            config = pm_config(2 * BLOCK + 3, IntervalDistribution.bimodal(4.0, 9.0, 0.5),
                               bernoulli=case == "bernoulli", record_states=True)
        # spawn streams of SeededSampler(0) whose first Bernoulli outcome
        # fails at steps 1, 65 and 129, each the first step of a slice
        seeds = [SeededSampler(0).spawn(i)._state for i in (3, 61, 868, 7, 100)]
        whole = run_lockstep(spec, psi0, config, [SeededSampler(s) for s in seeds])
        dim = spec.subspace_size if config.kind is ProtocolKind.PROJECTIVE else spec.n_sites
        length = protocols._word_length(2, dim, config.num_intervals)
        spans = []
        products = protocols._products
        with monkeypatch.context() as patch:  # BLOCK = L keeps the words L steps long
            patch.setattr(protocols, "SLICE_BYTES", 0)
            patch.setattr(protocols, "BLOCK", length)
            patch.setattr(protocols, "_products",
                          lambda tables, block, *a: spans.append(block.shape[1]) or
                          products(tables, block, *a))
            runs = run_lockstep(spec, psi0, config, [SeededSampler(s) for s in seeds])
        assert length > 1 and set(spans[:-1]) == {length} and spans[-1] <= length
        assert len(whole) == len(runs) == len(seeds)
        if case == "bernoulli":
            assert [a.aborted_at for a in runs[:3]] == [1, BLOCK + 1, 2 * BLOCK + 1]
        for seed, a, b in zip(seeds, runs, whole):
            assert a.aborted_at == b.aborted_at
            assert_same_run(a, b)
            assert_same_run(a, run_lockstep(spec, psi0, config, [SeededSampler(seed)])[0])

    def test_aborted_column_with_a_zero_product_keeps_finite_placeholders(self, monkeypatch):
        # three atoms on two sites: a near swap (q = 1e-20, whose outcome
        # fails), an exact swap out of the subspace (q = 0) and the identity.
        # Column 0 aborts at step 1 and its product is 0 from step 2 on;
        # column 1 never leaves the subspace and keeps the ensemble going
        theta = np.arccos(1e-10)
        near = np.array([[np.cos(theta), -1j * np.sin(theta)],
                         [-1j * np.sin(theta), np.cos(theta)]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        monkeypatch.setattr(linalg, "propagators",
                            lambda h, times: np.array([near, swap, np.eye(2, dtype=complex)]))
        patterns = np.full((2, 2 * BLOCK + 3), 2)
        patterns[0, :2] = [0, 1]
        monkeypatch.setattr(protocols, "atom_indices", lambda d, u: patterns[: len(u)])
        spec = ChainSpec(n_sites=2, subspace_size=1)
        d = IntervalDistribution.from_atoms([(1.0, 0.2), (2.0, 0.3), (3.0, 0.5)])
        config = pm_config(2 * BLOCK + 3, d, bernoulli=True, record_states=True)
        aborted, alive = run_lockstep(spec, leftmost_excited(2), config,
                                      [SeededSampler(0), SeededSampler(1)])
        assert aborted.aborted_at == 1 and alive.aborted_at is None
        assert np.array_equal(aborted.final_state, [0, -1j])  # collapsed onto the complement
        assert np.array_equal(alive.survival_factors, np.ones(2 * BLOCK + 3))
        assert np.array_equal(alive.final_state, [1, 0])


# streams of SeededSampler(0) whose first Bernoulli outcome under FINALS_CASES'
# bimodal(4, 9) law fails at steps 1, 65 and 129 (slice starts when sliced), never
# and at step 64 (a slice's last step when sliced)
ABORTING = [SeededSampler(0).spawn(i)._state for i in (3, 61, 868, 7, 100)]
FINALS_CASES = {
    "post-selected": (6, 2, pm_config(2 * BLOCK + 3, IntervalDistribution.bimodal(4.0, 9.0, 0.5))),
    "bernoulli": (6, 2, pm_config(2 * BLOCK + 3, IntervalDistribution.bimodal(4.0, 9.0, 0.5),
                                  bernoulli=True)),
    "pulsed": (12, 4, ProtocolConfig(ProtocolKind.PULSED, 300, BIMODAL)),
    "continuous": (12, 4, ProtocolConfig(ProtocolKind.CONTINUOUS, 300, BIMODAL)),
    "one-atom projective": (12, 3, pm_config(77, IntervalDistribution.deterministic(2.0))),
    "one-atom pulsed": (12, 3, ProtocolConfig(ProtocolKind.PULSED, 77,
                                              IntervalDistribution.deterministic(2.0))),
}


class TestFinals:
    """run_finals gives run_lockstep's end values bit for bit, from the same draws."""

    @pytest.mark.parametrize("width", [1, 5, 50])
    @pytest.mark.parametrize("sliced", [False, True], ids=["one-slice", "sliced"])
    @pytest.mark.parametrize("case", list(FINALS_CASES))
    def test_finals_equal_the_series_end_values(self, monkeypatch, case, sliced, width):
        n, lam, config = FINALS_CASES[case]
        spec, psi0 = ChainSpec(n_sites=n, subspace_size=lam), w_state(n, lam)
        seeds = (ABORTING * 10)[:width] if width <= 5 else [SeededSampler(9).spawn(i)._state
                                                            for i in range(width)]
        if sliced:  # a slice per word, as TestSlices forces them
            dim = lam if config.kind is ProtocolKind.PROJECTIVE else n
            monkeypatch.setattr(protocols, "SLICE_BYTES", 0)
            monkeypatch.setattr(protocols, "BLOCK", protocols._word_length(2, dim, config.num_intervals))
        series, finals = [SeededSampler(s) for s in seeds], [SeededSampler(s) for s in seeds]
        trajs, got = run_lockstep(spec, psi0, config, series), run_finals(spec, psi0, config, finals)
        assert [s._state for s in series] == [s._state for s in finals]  # the same draws
        want = {
            "final_states": [t.final_state for t in trajs],
            "total_times": [t.total_time for t in trajs],
            "final_survival": [t.final_survival for t in trajs],
            "log_survival": [t.log_survival for t in trajs],
            "aborted_at": [t.aborted_at or 0 for t in trajs],
        }
        for name, values in want.items():
            assert np.array_equal(getattr(got, name), values), name
        if case == "bernoulli" and width == 5:
            assert list(got.aborted_at) == [1, BLOCK + 1, 2 * BLOCK + 1, 0, BLOCK]
            assert list(got.final_survival) == [0, 0, 0, 1, 0]
            assert list(got.log_survival) == [-np.inf] * 3 + [0, -np.inf]

    @pytest.mark.parametrize("kind", [ProtocolKind.PROJECTIVE, ProtocolKind.PULSED])
    def test_finals_record_no_states(self, monkeypatch, kind):
        # a run that records (so normalizes) every state ends where one that
        # normalizes each slice's last state alone does: here slices of BLOCK steps
        monkeypatch.setattr(protocols, "SLICE_BYTES", 0)
        spec, psi0, m = ChainSpec(n_sites=12, subspace_size=4), w_state(12, 4), 2 * BLOCK + 3
        seeds = [SeededSampler(1).spawn(i)._state for i in range(3)]
        recorded = run_lockstep(spec, psi0, ProtocolConfig(kind, m, BIMODAL, record_states=True),
                                [SeededSampler(s) for s in seeds])
        plain = run_lockstep(spec, psi0, ProtocolConfig(kind, m, BIMODAL),
                             [SeededSampler(s) for s in seeds])
        finals = run_finals(spec, psi0, ProtocolConfig(kind, m, BIMODAL, record_states=True),
                            [SeededSampler(s) for s in seeds])
        assert recorded[0].states.shape == (m, 12) and plain[0].states is None
        for runs in (recorded, plain):
            assert np.array_equal(finals.final_states, [t.final_state for t in runs])
            assert np.array_equal(finals.log_survival, [t.log_survival for t in runs])

    def test_finals_need_a_realization(self):
        with pytest.raises(ValueError, match="at least one realization"):
            run_finals(ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2), pm_config(5), [])


# three bimodal laws of one word length in each PASS_SETTINGS setting; the
# first is FINALS_CASES' bimodal(4, 9), under which ABORTING's streams fail
PASS_LAWS = [IntervalDistribution.bimodal(4.0, 9.0, 0.5), IntervalDistribution.bimodal(3.0, 8.0, 0.3),
             IntervalDistribution.bimodal(2.0, 11.0, 0.8)]
PASS_SETTINGS = {  # case -> (n, lambda, kind, m, bernoulli)
    "post-selected": (6, 2, ProtocolKind.PROJECTIVE, 2 * BLOCK + 3, False),
    "bernoulli": (6, 2, ProtocolKind.PROJECTIVE, 2 * BLOCK + 3, True),
    "pulsed": (12, 4, ProtocolKind.PULSED, 300, False),
}


def counted_passes(monkeypatch) -> list:
    """(laws, columns) of each _lockstep pass from now on."""
    passes = []
    lockstep = protocols._lockstep
    monkeypatch.setattr(protocols, "_lockstep", lambda spec, psi0, laws, samplers, *a:
                        passes.append((len(laws), sum(map(len, samplers))))
                        or lockstep(spec, psi0, laws, samplers, *a))
    return passes


@pytest.mark.filterwarnings("error")  # no RuntimeWarning, e.g. 0/0 on a zero-norm column
class TestPasses:
    """One kernel pass over several laws gives each law the end values, draws
    and sampler states of its lone run_lockstep and run_finals, bit for bit."""

    def run_pass(self, monkeypatch, spec, psi0, configs, seeds):
        """run_finals_many of configs, seeds[i] the streams of configs[i], checked
        against each config alone; returns its results and its passes."""
        with monkeypatch.context() as patch:
            passes = counted_passes(patch)
            samplers = [[SeededSampler(s) for s in group] for group in seeds]
            got = run_finals_many(spec, psi0, configs, samplers)
        for config, group, finals, used, (want, states) in zip(
            configs, seeds, got, samplers, lone_runs(spec, psi0, configs, seeds), strict=True
        ):
            alone = run_finals(spec, psi0, config, [SeededSampler(s) for s in group])
            for name in ("final_states", "total_times", "final_survival", "log_survival", "aborted_at"):
                assert np.array_equal(getattr(finals, name), getattr(want, name)), name
                assert np.array_equal(getattr(finals, name), getattr(alone, name)), name
            assert [s._state for s in used] == states  # the same draws, rewinds included
        return got, passes

    @pytest.mark.parametrize("width", [1, 5, 50])
    @pytest.mark.parametrize("sliced", [False, True], ids=["one-slice", "sliced"])
    @pytest.mark.parametrize("case", list(PASS_SETTINGS))
    def test_a_pass_gives_each_law_its_lone_run(self, monkeypatch, case, sliced, width):
        n, lam, kind, m, bernoulli = PASS_SETTINGS[case]
        spec, psi0 = ChainSpec(n_sites=n, subspace_size=lam), w_state(n, lam)
        configs = [ProtocolConfig(kind, m, d, bernoulli=bernoulli) for d in PASS_LAWS]
        seeds = (ABORTING * 10)[:width] if width <= 5 else [SeededSampler(9).spawn(i)._state
                                                            for i in range(width)]
        if sliced:  # a slice per word, as TestSlices forces them
            dim = lam if kind is ProtocolKind.PROJECTIVE else n
            monkeypatch.setattr(protocols, "SLICE_BYTES", 0)
            monkeypatch.setattr(protocols, "BLOCK", protocols._word_length(2, dim, m))
        got, passes = self.run_pass(monkeypatch, spec, psi0, configs, [seeds] * 3)
        assert passes == [(3, 3 * width)]
        if case == "bernoulli" and width == 5:
            # the first law's streams fail at step 1, at slice starts, never and
            # at a slice's last step (when sliced); the other laws fail elsewhere
            assert list(got[0].aborted_at) == [1, BLOCK + 1, 2 * BLOCK + 1, 0, BLOCK]
            assert [list(f.aborted_at) for f in got[1:]] != [list(got[0].aborted_at)] * 2

    def test_laws_of_other_atom_counts_run_in_passes_of_their_own(self, monkeypatch):
        # one-atom laws (one column each, as post-selected runs they are
        # deterministic) beside two- and three-atom laws, and a pulsed and a
        # continuous law beside the projective ones
        spec, psi0, m = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2), 2 * BLOCK + 3
        three = IntervalDistribution.from_atoms([(1.0, 0.2), (2.0, 0.3), (6.0, 0.5)])
        laws = [IntervalDistribution.deterministic(3.0), PASS_LAWS[0], three, PASS_LAWS[1],
                IntervalDistribution.deterministic(5.0)]
        configs = [pm_config(m, d) for d in laws]
        configs += [ProtocolConfig(ProtocolKind.PULSED, m, PASS_LAWS[2]),
                    ProtocolConfig(ProtocolKind.CONTINUOUS, m, PASS_LAWS[2])]
        seeds = [[SeededSampler(5).spawn(i)._state for i in range(4)]] * len(configs)
        got, passes = self.run_pass(monkeypatch, spec, psi0, configs, seeds)
        assert passes == [(2, 2), (2, 8), (1, 4), (1, 4)]  # one-atom, two-atom, three-atom, pulsed
        assert [len(f.final_states) for f in got] == [1, 4, 4, 4, 1, 4, 1]

    def test_laws_whose_caps_give_different_word_lengths(self, monkeypatch):
        # lambda = 1: the leaky law's K = 7 caps its words at L = 4.  At m = 131
        # the plain law's L is 4 too: one pass, sliced every 4 steps by the
        # least K, where the plain law alone runs in one slice.  At m = 600 the
        # plain law's L is 8: a pass of its own
        spec, psi0 = ChainSpec(n_sites=2, subspace_size=1), leftmost_excited(2)
        leaky = IntervalDistribution.from_atoms([(1.0, 0.92), (50.0, 0.08)])
        for m, lengths, want in ((2 * BLOCK + 3, [4, 4], [(2, 4)]), (600, [4, 8], [(1, 2), (1, 2)])):
            configs = [pm_config(m, leaky), pm_config(m, BIMODAL)]
            assert [protocols._law(spec, c)[3:] for c in configs] == [(7, lengths[0]),
                                                                     (23233, lengths[1])]
            _, passes = self.run_pass(monkeypatch, spec, psi0, configs, [[7, 1]] * 2)
            assert passes == want

    @pytest.mark.parametrize("m, slot", [(40, 1), (41, 0), (42, 0), (43, 1)],
                             ids=["whole-slot-1", "tail-slot-0", "whole-slot-0", "tail-slot-1"])
    def test_a_carried_only_pass_alternates_two_slots(self, monkeypatch, m, slot):
        # pulsed end values read the carried state alone: L = 2 here (12 <= m
        # < 48), so m whole sub-blocks end in slot (m / 2 - 1) mod 2, and a
        # tail step (m odd) lands in slot (m // 2) mod 2 of a two-slot buffer
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=4), w_state(12, 4)
        configs = [ProtocolConfig(ProtocolKind.PULSED, m, d) for d in PASS_LAWS]
        ends = []  # (slots out holds, the slot of the last product) of each slice
        products = protocols._products

        def recorded(tables, block, powers, psi, out):
            used = products(tables, block, powers, psi, out)
            rows = tables[0].shape[1]
            ends.append((out.shape[1] // rows, (used - 1) // rows))
            return used

        monkeypatch.setattr(protocols, "_products", recorded)
        _, passes = self.run_pass(monkeypatch, spec, psi0, configs,
                                  [[SeededSampler(2).spawn(i)._state for i in range(5)]] * 3)
        assert passes == [(3, 15)] and ends[0] == (2, slot)

    def test_a_dead_branch_in_a_pass_names_its_step(self, monkeypatch):
        # identity steps, then one swap of site 1 out of the subspace at step
        # BLOCK + 5, in every column of both laws
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        monkeypatch.setattr(linalg, "propagators", lambda h, times: np.array([np.eye(2), swap]))
        pattern = np.arange(2 * BLOCK + 3) == BLOCK + 4
        monkeypatch.setattr(
            protocols, "atom_indices", lambda d, u: np.broadcast_to(pattern, u.shape) * 1
        )
        spec = ChainSpec(n_sites=2, subspace_size=1)
        configs = [pm_config(2 * BLOCK + 3, d) for d in PASS_LAWS[:2]]
        passes = counted_passes(monkeypatch)
        with pytest.raises(ZeroSurvivalError, match=f"at step {BLOCK + 5}$"):
            run_finals_many(spec, leftmost_excited(2), configs,
                            [[SeededSampler(0), SeededSampler(1)], [SeededSampler(2)]])
        assert passes == [(2, 3)]
