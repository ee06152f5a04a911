import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain import linalg, protocols
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
    run_lockstep,
    run_projective,
    run_pulsed,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler
from zenochain.theory import three_level_survival

from helpers import scalar_run_projective, scalar_run_pulsed, survival_trace_formula

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

    def test_population_equals_cumulative_survival(self):
        spec = ChainSpec(n_sites=10, subspace_size=3)
        config = ProtocolConfig(ProtocolKind.PULSED, 50, BIMODAL)
        traj = run_pulsed(spec, w_state(10, 3), config, SeededSampler(9))
        # one array: the trajectory CSV formats its two columns once
        assert traj.cumulative_survival is traj.subspace_population
        assert traj.survival_factors is None

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
            leaks.append(1.0 - traj.subspace_population.min())
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
        assert np.max(np.abs(traj.subspace_population - predicted)) <= 1e-8

    def test_rejects_sample_times_outside_window(self):
        spec = ChainSpec(n_sites=5, subspace_size=2)
        with pytest.raises(ValueError):
            run_continuous(spec, w_state(5, 2), 10.0, 1.0, sample_times=np.array([0.0, 11.0]))

    def test_population_is_cumulative_survival(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        traj = run_continuous(spec, w_state(6, 2), total_time=30.0, coupling=0.3)
        assert traj.cumulative_survival is traj.subspace_population

    def test_final_state_is_last_recorded_state(self):
        spec = ChainSpec(n_sites=9, subspace_size=4)
        traj = run_continuous(spec, w_state(9, 4), total_time=80.0, coupling=0.3,
                              record_states=True)
        assert traj.states.shape == (2001, 9)
        assert np.max(np.abs(traj.final_state - traj.states[-1])) <= 1e-15


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
        assert traj.kind is ProtocolKind.PROJECTIVE
        assert len(traj.survival_factors) == 15


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
    assert_close(a.subspace_population, b.subspace_population)
    assert_close(a.final_state, b.final_state)
    assert_close(np.array(a.states), np.array(b.states))


def assert_same_run(a, b):
    for name in ("intervals", "cumulative_survival", "subspace_population", "final_state",
                 "survival_factors", "log_cumulative_survival", "states"):
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
            assert_close(a.subspace_population, b.subspace_population)
            assert_close(a.final_state, b.final_state)
            assert_close(np.array(a.states), np.array(b.states))
            # the stream continues where the scalar run left it
            assert samplers[i].next_uint64() == own.next_uint64()

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
            assert samplers[i].next_uint64() == own.next_uint64()

    def test_log_survival_finite_where_product_underflows(self):
        spec = ChainSpec(n_sites=12, subspace_size=1)
        config = pm_config(2000, IntervalDistribution.deterministic(20.0))
        traj = run_projective(spec, leftmost_excited(12), config, SeededSampler(0))
        oracle = scalar_run_projective(spec, leftmost_excited(12), config, SeededSampler(0))
        assert traj.final_survival == 0.0  # exp(-817) underflows
        assert abs(traj.log_survival - oracle.log_survival) <= 1e-12 * 817
        assert abs(traj.log_survival + 817.40) <= 0.01

    def test_continuous_runs_once_for_the_ensemble(self):
        spec = ChainSpec(n_sites=9, subspace_size=3)
        config = ProtocolConfig(ProtocolKind.CONTINUOUS, 40, BIMODAL)
        trajs = run_lockstep(spec, w_state(9, 3), config, [SeededSampler(i) for i in range(5)])
        assert len(trajs) == 5
        assert all(t is trajs[0] for t in trajs)
        assert abs(trajs[0].total_time - 40 * 3.0) <= 1e-9

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
        traj = run_projective(spec, psi0, config, SeededSampler(seed))
        p = traj.cumulative_survival
        # q_j <= 1 up to the rounding of one unitary step on n sites (with
        # lambda = n every q_j is 1 to a few ulps)
        slack = 16 * spec.n_sites * np.finfo(float).eps
        assert np.all(traj.survival_factors <= 1.0 + slack)
        assert np.all(np.diff(p) <= slack * p[:-1])
        assert np.all(np.diff(traj.log_cumulative_survival) <= slack)


@pytest.mark.filterwarnings("error")  # no RuntimeWarning, e.g. 0/0 on a zero-norm column
class TestBlockRenormalization:
    """The projective state is renormalized once per block of BLOCK steps."""

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
            assert sampler.next_uint64() == own.next_uint64()

    def test_column_underflowing_mid_block_is_redone_alone(self):
        # lambda = 1: mu = 50 swaps site 1 out up to q = 2.6e-32, so the
        # unnormalized product of stream 7 reaches 0 inside its second block
        # (12 such steps there); stream 1 has at most 6 per block and stays
        # above the floor
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
