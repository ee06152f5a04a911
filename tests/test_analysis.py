import dataclasses

import numpy as np
import pytest

from zenochain.analysis import (
    EnsembleSummary,
    InvalidDensityMatrixError,
    NonFiniteLogSurvivalError,
    NoPeakFoundError,
    aggregate,
    density_matrix,
    ensemble_fidelities,
    first_peak_time,
    fit_velocity,
    local_maxima,
    uhlmann_fidelity,
)
from zenochain.chain import (
    ChainSpec,
    InvalidSpecError,
    hamiltonian,
    leftmost_excited,
    w_state,
    zeno_hamiltonian,
)
from zenochain.protocols import (
    ProtocolConfig,
    ProtocolKind,
    Trajectory,
    run_continuous,
    run_exact_subspace,
    run_lockstep,
    run_projective,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler

BIMODAL = IntervalDistribution.bimodal(1.0, 5.0, 0.5)


def random_pure_dm(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return density_matrix(psi), psi


def random_mixed_dm(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestUhlmannFidelity:
    def test_identical_states(self):
        rho = random_mixed_dm(6, 1)
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) <= 1e-9

    def test_orthogonal_pure_states(self):
        a = density_matrix(np.array([1.0, 0.0, 0.0]))
        b = density_matrix(np.array([0.0, 1.0, 0.0]))
        assert uhlmann_fidelity(a, b) <= 1e-9

    def test_pure_overlap_shortcut(self):
        rho_a, psi_a = random_pure_dm(12, 3)
        rho_b, psi_b = random_pure_dm(12, 303)
        overlap = abs(np.vdot(psi_a, psi_b))
        assert abs(uhlmann_fidelity(rho_a, rho_b) - overlap) <= 1e-9

    def test_symmetry(self):
        a = random_mixed_dm(5, 4)
        b = random_mixed_dm(5, 44)
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) <= 1e-9

    def test_range(self):
        for seed in range(5):
            a = random_mixed_dm(4, seed)
            b = random_mixed_dm(4, seed + 50)
            f = uhlmann_fidelity(a, b)
            assert 0.0 <= f <= 1.0

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrixError):
            uhlmann_fidelity(np.eye(3), np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.4], [0.0, 0.5]])
        with pytest.raises(InvalidDensityMatrixError):
            uhlmann_fidelity(bad, np.eye(2) / 2)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.2, -0.2])
        with pytest.raises(InvalidDensityMatrixError):
            uhlmann_fidelity(bad, np.eye(2) / 2)


class TestEnsembleFidelities:
    def test_perfect_confinement_by_severed_boundary(self):
        # zero the hopping across the subspace boundary: dynamics never
        # leaks, so the protocol and the reference coincide
        spec = ChainSpec(n_sites=8, subspace_size=3)
        h = hamiltonian(spec)
        h[2, 3] = h[3, 2] = 0.0
        traj = run_continuous(
            spec, w_state(8, 3), total_time=120.0, coupling=np.pi / 6, hamiltonian_override=h
        )
        assert abs(ensemble_fidelities(spec, w_state(8, 3), [traj])[0] - 1.0) <= 1e-9
        assert abs(traj.final_survival - 1.0) <= 1e-12

    def test_trivial_projector(self):
        spec = ChainSpec(n_sites=4, subspace_size=4)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, 25, BIMODAL)
        traj = run_projective(spec, w_state(4, 4), config, SeededSampler(2))
        assert abs(ensemble_fidelities(spec, w_state(4, 4), [traj])[0] - 1.0) <= 1e-9

    def test_rejects_unnormalized_state(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, 10, BIMODAL)
        traj = run_projective(spec, w_state(6, 2), config, SeededSampler(1))
        traj.final_state = 1.01 * traj.final_state
        with pytest.raises(InvalidDensityMatrixError):
            ensemble_fidelities(spec, w_state(6, 2), [traj])

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_ensemble_fidelities_match_single_scoring(self, kind):
        spec = ChainSpec(n_sites=10, subspace_size=3)
        psi0 = w_state(10, 3)
        config = ProtocolConfig(kind, 80, BIMODAL)
        trajs = run_lockstep(spec, psi0, config, [SeededSampler(8).spawn(i) for i in range(6)])
        fids = ensemble_fidelities(spec, psi0, trajs)
        for traj, f in zip(trajs, fids):
            assert abs(f - ensemble_fidelities(spec, psi0, [traj])[0]) <= 1e-12
            ref = run_exact_subspace(spec, psi0, np.array([0.0, traj.total_time]))
            rho_ref = density_matrix(np.pad(ref.states[-1], (0, 10 - len(ref.states[-1]))))
            assert abs(f - uhlmann_fidelity(density_matrix(traj.final_state), rho_ref)) <= 1e-9

    def test_bernoulli_columns_scored_at_their_own_end_times(self):
        # seed 3 aborts columns 4, 5 and 7 at steps 7, 37 and 6; the rest run
        # all 40 steps.  An aborted column ends on the complement, so it
        # scores 0; a live one scores |<exp(-i H_Z T_r) psi0|psi_r>|.
        spec, psi0 = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, 40, BIMODAL, bernoulli=True)
        trajs = run_lockstep(spec, psi0, config, [SeededSampler(3).spawn(i) for i in range(10)])
        assert [t.aborted_at for t in trajs] == [None] * 4 + [7, 37, None, 6, None, None]
        w, v = np.linalg.eigh(zeno_hamiltonian(spec))
        for traj, f in zip(trajs, ensemble_fidelities(spec, psi0, trajs)):
            steps = traj.aborted_at or 40
            assert len(traj.times) == steps
            assert abs(traj.total_time - np.sum(traj.intervals)) <= 1e-9
            if traj.aborted_at:
                assert f == 0.0
                continue
            ideal = v @ (np.exp(-1j * w * traj.total_time) * (v.conj().T @ psi0[:2]))
            assert abs(f - abs(np.vdot(ideal, traj.final_state[:2]))) <= 1e-12
            assert f > 0.99


class TestAggregate:
    def run_ensemble(self, n, lam, m, r, seed, d=BIMODAL):
        spec = ChainSpec(n_sites=n, subspace_size=lam)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, m, d)
        base = SeededSampler(seed)
        return [
            run_projective(spec, w_state(n, lam), config, base.spawn(i))
            for i in range(r)
        ]

    def test_summary_holds_count_mean_and_spread(self):
        names = [f.name for f in dataclasses.fields(EnsembleSummary)]
        assert names == ["realization_count", "log_mean", "log_std"]

    def test_single_realization(self):
        trajs = self.run_ensemble(6, 2, 30, 1, 9)
        summary = aggregate(trajs)
        assert summary.realization_count == 1
        assert summary.log_std == 0.0
        assert abs(summary.log_mean - trajs[0].log_survival) <= 1e-15

    def test_deterministic_distribution_zero_spread(self):
        d = IntervalDistribution.deterministic(2.0)
        trajs = self.run_ensemble(6, 2, 30, 8, 3, d=d)
        summary = aggregate(trajs)
        assert summary.log_std == 0.0

    def test_concentration_with_more_measurements(self):
        r = 60
        short = aggregate(self.run_ensemble(8, 2, 100, r, 17))
        long = aggregate(self.run_ensemble(8, 2, 200, r, 18))
        rel_short = short.log_std / abs(short.log_mean)
        rel_long = long.log_std / abs(long.log_mean)
        assert rel_long < rel_short

    def test_permutation_invariance(self):
        trajs = self.run_ensemble(6, 2, 40, 12, 5)
        a = aggregate(trajs)
        b = aggregate(list(reversed(trajs)))
        assert a.log_mean == b.log_mean
        assert a.log_std == b.log_std

    def test_long_runs_summarized_from_log_survival(self):
        # P underflows to 0 at m = 2000, but ln P = -817.4 is tracked directly
        spec = ChainSpec(n_sites=12, subspace_size=1)
        config = ProtocolConfig(
            ProtocolKind.PROJECTIVE, 2000, IntervalDistribution.deterministic(20.0)
        )
        trajs = [
            run_projective(spec, w_state(12, 1), config, SeededSampler(seed)) for seed in (0, 1)
        ]
        assert all(t.final_survival == 0.0 for t in trajs)
        summary = aggregate(trajs)
        assert abs(summary.log_mean + 817.40) <= 0.01
        assert summary.log_std == 0.0

    @pytest.mark.filterwarnings("error")
    def test_bernoulli_ensemble_is_a_named_error(self):
        spec = ChainSpec(n_sites=12, subspace_size=1)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, 400, BIMODAL, bernoulli=True)
        base = SeededSampler(7)
        trajs = [run_projective(spec, leftmost_excited(12), config, base.spawn(i))
                 for i in range(6)]
        assert all(t.aborted_at for t in trajs)
        with pytest.raises(NonFiniteLogSurvivalError, match="6 of 6 realizations"):
            aggregate(trajs)

    @pytest.mark.parametrize("log_p", [-np.inf, np.nan])
    def test_one_non_finite_ln_p_is_counted(self, log_p):
        trajs = [ln_p_realization(-1.0)] * 3 + [ln_p_realization(log_p)]
        with pytest.raises(NonFiniteLogSurvivalError, match="1 of 4 realizations"):
            aggregate(trajs)


def ln_p_realization(log_p):
    """A one-step projective trajectory whose ln P is exactly log_p."""
    one = np.ones(1)
    return Trajectory(
        intervals=one,
        times=one,
        cumulative_survival=np.exp([log_p]),
        final_state=np.array([1.0 + 0j]),
        log_cumulative_survival=np.array([log_p]),
    )


class TestAggregateNearDegenerate:
    @pytest.mark.parametrize("ulps", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("log_p", [-0.37, -2.5, -817.4])
    def test_spread_below_float_resolution_is_degenerate(self, log_p, ulps):
        high = log_p
        for _ in range(ulps):
            high = np.nextafter(high, 0.0)
        trajs = [ln_p_realization(log_p)] * 25 + [ln_p_realization(high)] * 25
        summary = aggregate(trajs)
        assert summary.log_std > 0.0
        assert log_p <= summary.log_mean <= high


class TestVelocity:
    def test_two_site_peak_time(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        fit = fit_velocity(spec, subspace_sizes=(2,), dt=0.2)
        want = np.pi / (2 * spec.beta)
        assert abs(fit.peak_times[0] - want) <= 0.05

    def test_bound_value(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        fit = fit_velocity(spec, subspace_sizes=(2, 3, 4))
        assert abs(fit.bound - np.e * spec.beta) <= 1e-12
        assert abs(fit.bound - 0.0854) <= 1e-4

    def test_fitted_ratio_in_band(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        fit = fit_velocity(spec)
        assert 0.5 * fit.bound <= fit.velocity <= 1.0 * fit.bound

    @pytest.mark.parametrize("sizes", [(1,), (0,), (2, 1)])
    def test_size_below_two_is_a_named_error(self, sizes):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        with pytest.raises(InvalidSpecError, match="n_sites must be >= 2"):
            fit_velocity(spec, subspace_sizes=sizes)

    def test_no_peak_raises(self):
        with pytest.raises(NoPeakFoundError):
            first_peak_time(np.linspace(0, 1, 50), np.zeros(50), threshold=0.05)

    def test_parabolic_refinement_on_clean_signal(self):
        t = np.linspace(0, 10, 101)
        y = np.sin(t) ** 2
        got = first_peak_time(t, y, threshold=0.1)
        assert abs(got - np.pi / 2) <= 1e-3


class TestLocalMaxima:
    def test_simple(self):
        y = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        assert list(local_maxima(y, order=1)) == [1, 3]

    def test_order_suppresses_ripples(self):
        y = np.array([0.0, 1.0, 0.9, 1.05, 0.2, 0.1])
        assert list(local_maxima(y, order=2)) == [3]
