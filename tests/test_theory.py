import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain.chain import ChainSpec, basis_state, leftmost_excited, w_state, zeno_hamiltonian
from zenochain.linalg import evolve, propagator
from zenochain.protocols import (
    InitialStateOutsideSubspaceError,
    ProtocolConfig,
    ProtocolKind,
    run_lockstep,
    run_projective,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler, moments, weak_zeno_margin
from zenochain import theory
from zenochain.theory import (
    ExceptionalPointError,
    NonPositiveQError,
    edge_damping_rate,
    edge_population,
    edge_time_average,
    one_step_survival,
    pstar_exact_product,
    pstar_strong,
    pstar_time_averaged,
    pstar_time_averaged_curve,
    pstar_weak,
    remainder_constant,
    three_level_hamiltonian,
    three_level_survival,
    VarianceCrossCheckError,
    variance_h_pi,
)

from helpers import scalar_damped_edge_values

BIMODAL = IntervalDistribution.bimodal(1.0, 5.0, 0.5)


class TestVarianceHPi:
    def test_no_edge_amplitude(self):
        spec = ChainSpec(n_sites=8, subspace_size=3)
        assert variance_h_pi(leftmost_excited(8), spec) <= 1e-15

    @pytest.mark.parametrize("lam", [1, 2, 4, 7])
    def test_w_state(self, lam):
        spec = ChainSpec(n_sites=10, subspace_size=lam)
        got = variance_h_pi(w_state(10, lam), spec)
        assert abs(got - spec.beta**2 / lam) <= 1e-14

    def test_edge_basis_state(self):
        spec = ChainSpec(n_sites=9, subspace_size=4)
        got = variance_h_pi(basis_state(9, 4), spec)
        assert abs(got - spec.beta**2) <= 1e-14

    def test_direct_matrix_oracle(self):
        # independent route via explicit H_Pi moments on a random subspace state
        from zenochain.chain import hamiltonian, projector

        spec = ChainSpec(n_sites=7, subspace_size=3)
        rng = np.random.default_rng(14)
        psi = np.zeros(7, dtype=complex)
        psi[:3] = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        h = hamiltonian(spec)
        p = projector(spec)
        h_pi = h - p @ h @ p
        want = np.real(np.vdot(h_pi @ psi, h_pi @ psi) - np.vdot(psi, h_pi @ psi) ** 2)
        assert abs(variance_h_pi(psi, spec) - want) <= 1e-14


    def test_disagreeing_routes_raise_named_error(self, monkeypatch):
        # a wrong projector (the identity) makes H - PHP vanish while the
        # closed form still reads beta^2 |c_lambda|^2; survives python -O
        monkeypatch.setattr(theory, "projector", lambda spec: np.eye(spec.n_sites))
        spec = ChainSpec(n_sites=6, subspace_size=2)
        with pytest.raises(VarianceCrossCheckError, match="disagree"):
            variance_h_pi(w_state(6, 2), spec)

    def test_full_chain_has_no_leakage(self):
        # at lambda = n no bond leaves the subspace, so both routes read 0; the
        # closed route read beta^2 |c_lambda|^2 and failed its own cross-check
        spec = ChainSpec(n_sites=4, subspace_size=4)
        assert variance_h_pi(w_state(4, 4), spec) == 0.0


class TestWeakStrong:
    def test_zero_variance(self):
        assert pstar_weak(100, BIMODAL, 0.0).pstar == 1.0
        assert pstar_strong(100, BIMODAL, 0.0).pstar == 1.0

    def test_worked_weak_value(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        pred = pstar_weak(500, BIMODAL, spec.beta**2 / 2)
        assert abs(pred.pstar - np.exp(-3250 * spec.beta**2)) <= 1e-15
        assert abs(pred.pstar - 0.0404) <= 5e-4

    def test_doubling_m_squares_pstar(self):
        v = 1.2e-4
        p1 = pstar_weak(300, BIMODAL, v).pstar
        p2 = pstar_weak(600, BIMODAL, v).pstar
        assert abs(p2 - p1**2) <= 1e-14

    def test_first_order_identity(self):
        v = 3e-6
        weak = pstar_weak(50, BIMODAL, v)
        strong = pstar_strong(50, BIMODAL, v)
        assert abs((1.0 - strong.pstar) - (-np.log(weak.pstar))) <= 1e-15

    @pytest.mark.parametrize("variance", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("pstar", [pstar_weak, pstar_strong])
    def test_variance_not_finite_and_nonnegative_is_an_error(self, pstar, variance):
        # nan passed a bare "variance < 0" check and came back as a nan or
        # -inf prediction, inf as ln P* = -inf, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="variance must be finite and >= 0"):
                pstar(100, BIMODAL, variance)

    @pytest.mark.parametrize("m", [-5, -1, 0, 0.5, np.nan])
    def test_m_below_one_is_an_error(self, m):
        # pstar_weak(-5, ...) read 665.14, pstar_strong 7.5, pstar_time_averaged(-1, ...)
        # 1.0064 and weak_zeno_margin(d, -5, 0.1) -31.5; a nan m gave a nan prediction
        spec = ChainSpec(n_sites=12, subspace_size=2)
        series = edge_population(spec, w_state(12, 2), t_max=30.0, dt=0.15)
        calls = (
            lambda: pstar_weak(m, BIMODAL, 1e-4),
            lambda: pstar_strong(m, BIMODAL, 1e-4),
            lambda: pstar_time_averaged(m, BIMODAL, series, spec.beta),
            lambda: pstar_exact_product(m, BIMODAL, {1.0: 0.9, 5.0: 0.5}),
            lambda: weak_zeno_margin(BIMODAL, m, 0.1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="m must be a number >= 1"):
                    call()

    def test_strong_warns_out_of_regime(self):
        with pytest.warns(UserWarning):
            pred = pstar_strong(500, BIMODAL, 1e-3)
        assert pred.out_of_regime

    def test_regime_consistency_when_exponent_small(self):
        # for exponent x <= 0.01 the regimes differ by x^2/2 <= 1e-4
        for v in (1e-7, 5e-7, 7.7e-7):
            weak = pstar_weak(1000, BIMODAL, v)
            strong = pstar_strong(1000, BIMODAL, v)
            assert not strong.out_of_regime
            gap = abs(strong.pstar - weak.pstar)
            assert gap <= 1e-4
            x = 1.0 - strong.pstar
            assert gap <= 0.5 * x**2 + 1e-15

    def test_kappa_zero_reduces_to_evenly_spaced_form(self):
        d = IntervalDistribution.deterministic(2.0)
        v = 1e-4
        pred = pstar_weak(100, d, v)
        assert abs(pred.pstar - np.exp(-100 * v * 4.0)) <= 1e-15


class TestLogPstar:
    """ln P* is carried as computed, so it stays finite where P* underflows."""

    def test_weak_log_is_minus_the_exponent(self):
        mom = moments(BIMODAL)
        for m, v in ((500, 1e-4), (20000, 1.0)):
            pred = pstar_weak(m, BIMODAL, v)
            assert pred.log_pstar == -(m * v * (1.0 + mom.kappa) * mom.mean**2)
        assert pred.pstar == 0.0 and abs(pred.log_pstar + 260000.0) <= 1e-9

    def test_weak_log_matches_log_of_pstar_where_both_are_finite(self):
        pred = pstar_weak(300, BIMODAL, 1.2e-4)
        assert abs(pred.log_pstar - np.log(pred.pstar)) <= 1e-15

    def test_exact_product_log_where_pstar_underflows(self):
        d = IntervalDistribution.deterministic(2.0)
        pred = pstar_exact_product(20000, d, {2.0: 0.5})
        assert pred.pstar == 0.0
        assert pred.log_pstar == 20000 * np.log(0.5)

    @pytest.mark.parametrize("v", [0.0, 1e-4, 0.05, 1.0 / 13.0, 0.5, 1e300, 1e308])
    def test_strong_log_never_warns(self, v):
        # x = 13 v for BIMODAL at m = 1; P* = 1 - x <= 0 gives ln P* = -inf
        # (a RuntimeWarning fails the test)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the out-of-regime flag
            pred = pstar_strong(1, BIMODAL, v)
        mom = moments(BIMODAL)
        x = 1 * v * (1.0 + mom.kappa) * mom.mean**2
        assert pred.pstar == 1.0 - x
        assert pred.log_pstar == (np.log1p(-x) if x < 1 else -np.inf)


class TestExactProduct:
    def test_all_ones(self):
        pred = pstar_exact_product(100, BIMODAL, {1.0: 1.0, 5.0: 1.0})
        assert pred.pstar == 1.0

    def test_two_level_exact(self):
        spec = ChainSpec(n_sites=2, subspace_size=1)
        q = {mu: np.cos(spec.beta * mu) ** 2 for mu in (1.0, 5.0)}
        pred = pstar_exact_product(100, BIMODAL, q)
        want = np.exp(100 * 0.5 * (np.log(q[1.0]) + np.log(q[5.0])))
        assert abs(pred.pstar - want) <= 1e-15

    def test_simulation_matches_with_empirical_weights(self):
        # with a one-dimensional subspace q depends only on the interval, so
        # the sampled product equals the prediction built from the realized
        # atom frequencies, identically
        spec = ChainSpec(n_sites=2, subspace_size=1)
        m = 100
        traj = run_projective(
            spec,
            leftmost_excited(2),
            ProtocolConfig(ProtocolKind.PROJECTIVE, m, BIMODAL),
            SeededSampler(15),
        )
        counts = {mu: int(np.sum(traj.intervals == mu)) for mu in (1.0, 5.0)}
        q = {mu: np.cos(spec.beta * mu) ** 2 for mu in (1.0, 5.0)}
        empirical = IntervalDistribution.from_atoms(
            [(mu, counts[mu] / m) for mu in counts if counts[mu]]
        )
        pred = pstar_exact_product(m, empirical, q)
        assert abs(pred.pstar - traj.final_survival) <= 1e-12 * traj.final_survival

    def test_single_atom_power(self):
        d = IntervalDistribution.deterministic(2.0)
        pred = pstar_exact_product(7, d, {2.0: 0.9})
        assert abs(pred.pstar - 0.9**7) <= 1e-15

    def test_rejects_nonpositive_q(self):
        with pytest.raises(NonPositiveQError):
            pstar_exact_product(10, BIMODAL, {1.0: 0.0, 5.0: 0.5})

    def test_missing_atom_is_a_named_error(self):
        # the lookup ended in a bare KeyError: 5.0
        with pytest.raises(ValueError, match="atom mu = 5.0"):
            pstar_exact_product(10, BIMODAL, {1.0: 0.9})


class TestEdgePopulation:
    def test_w_two_sites_constant(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        series = edge_population(spec, w_state(12, 2), t_max=600.0, dt=0.15)
        assert np.max(np.abs(series.values - 0.5)) <= 1e-10
        assert abs(series.time_average - 0.5) <= 1e-10

    def test_leftmost_two_sites_sin_squared(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        # average of sin^2 over many periods -> 1/2
        series = edge_population(spec, leftmost_excited(12), t_max=50000.0, dt=1.0)
        assert abs(series.time_average - 0.5) <= 5e-3

    def test_single_site_constant_one(self):
        spec = ChainSpec(n_sites=5, subspace_size=1)
        series = edge_population(spec, leftmost_excited(5), t_max=100.0, dt=0.5)
        assert np.max(np.abs(series.values - 1.0)) <= 1e-12

    def test_array_t_max_is_a_named_error(self):
        # one series per call: an array t_max is edge_time_average's
        spec = ChainSpec(n_sites=12, subspace_size=2)
        with pytest.raises(ValueError, match="edge_time_average takes an array"):
            edge_population(spec, w_state(12, 2), t_max=np.array([1.0, 2.0]), dt=0.5)


class TestDampedEdgePopulation:
    def test_second_order_term_is_the_damping(self):
        # P exp(-iH mu) P = exp(-i H_Z mu) - (beta^2 mu^2 / 2)|lam><lam| + O(mu^3)
        from zenochain.chain import hamiltonian, zeno_hamiltonian

        spec = ChainSpec(n_sites=8, subspace_size=4)
        lam = spec.subspace_size
        edge = np.zeros((lam, lam))
        edge[-1, -1] = 1.0

        def residual(mu):
            block = propagator(hamiltonian(spec), mu)[:lam, :lam]
            ideal = propagator(zeno_hamiltonian(spec), mu)
            return np.max(np.abs(block - ideal + 0.5 * spec.beta**2 * mu**2 * edge))

        assert residual(1.0) / residual(0.5) > 7.0
        mom = moments(BIMODAL)
        assert edge_damping_rate(BIMODAL, spec.beta) == pytest.approx(
            spec.beta**2 * (mom.variance + mom.mean**2) / (2.0 * mom.mean), rel=1e-12
        )

    def test_single_site_constant_one(self):
        spec = ChainSpec(n_sites=5, subspace_size=1)
        series = edge_population(
            spec, leftmost_excited(5), t_max=3000.0, dt=0.5, distribution=BIMODAL
        )
        assert np.max(np.abs(series.values - 1.0)) <= 1e-12

    def test_full_chain_is_not_damped(self):
        # at lambda = n no bond leaves the subspace, so Gamma = 0 and the damped
        # series is the ideal one; it damped a missing bond (average 0.13897, not 0.14149)
        spec = ChainSpec(n_sites=4, subspace_size=4)
        ideal = edge_population(spec, w_state(4, 4), t_max=150.0, dt=0.15)
        damped = edge_population(spec, w_state(4, 4), t_max=150.0, dt=0.15, distribution=BIMODAL)
        assert np.max(np.abs(damped.values - ideal.values)) <= 1e-12
        assert abs(damped.time_average - ideal.time_average) <= 1e-12

    def test_vanishing_intervals_give_ideal_series(self):
        spec = ChainSpec(n_sites=12, subspace_size=9)
        ideal = edge_population(spec, leftmost_excited(12), t_max=6000.0, dt=0.15)
        damped = edge_population(
            spec,
            leftmost_excited(12),
            t_max=6000.0,
            dt=0.15,
            distribution=IntervalDistribution.deterministic(1e-9),
        )
        assert np.max(np.abs(damped.values - ideal.values)) <= 1e-9

    def test_average_matches_conditional_edge_population(self):
        # the criterion-5 run: lambda = 9, leftmost start, m = 2000, seed 7
        spec = ChainSpec(n_sites=12, subspace_size=9)
        psi0 = leftmost_excited(12)
        config = ProtocolConfig(ProtocolKind.PROJECTIVE, 2000, BIMODAL, record_states=True)
        traj = run_projective(spec, psi0, config, SeededSampler(7))
        conditional = np.mean([abs(s[8]) ** 2 for s in traj.states])
        series = edge_population(
            spec, psi0, t_max=traj.total_time, dt=0.15, distribution=BIMODAL
        )
        assert abs(series.time_average - conditional) <= 0.05 * conditional

    def test_exceptional_point_raises(self):
        # lambda = 2: H_Z - i Gamma |2><2| is defective at Gamma = 2 beta
        spec = ChainSpec(n_sites=6, subspace_size=2)
        d = IntervalDistribution.deterministic(4.0 / spec.beta)
        assert edge_damping_rate(d, spec.beta) == pytest.approx(2.0 * spec.beta)
        with pytest.raises(ExceptionalPointError):
            edge_population(spec, leftmost_excited(6), t_max=100.0, dt=1.0, distribution=d)


# 1, 2, primes, perfect squares and squares +- 1: the A x C split of the grid
# into coarse and fine steps has its edge cases here
EDGE_POINT_COUNTS = (1, 2, 3, 7, 61, 4093, 4, 9, 49, 4096, 8, 10, 48, 50, 4095, 4097)


@st.composite
def edge_cases(draw):
    lam = draw(st.integers(1, 9))
    n = max(2, lam + draw(st.integers(0, 3)))
    kind = draw(st.sampled_from(["leftmost", "w", "random"]))
    if kind == "leftmost":
        psi = leftmost_excited(n)
    elif kind == "w":
        psi = w_state(n, lam)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        psi = np.zeros(n, dtype=complex)
        psi[:lam] = rng.normal(size=lam) + 1j * rng.normal(size=lam)
        psi /= np.linalg.norm(psi)
    d = draw(st.one_of(
        st.sampled_from([BIMODAL, IntervalDistribution.bimodal(3.0, 5.0, 0.5)]),
        st.floats(0.05, 10.0).map(IntervalDistribution.deterministic),
    ))
    dt, points = draw(st.floats(0.01, 2.0)), draw(st.sampled_from(EDGE_POINT_COUNTS))
    return ChainSpec(n_sites=n, subspace_size=lam), psi, d, dt, points


class TestFactoredGrid:
    @settings(max_examples=80, deadline=None)
    @given(case=edge_cases())
    def test_both_series_match_the_direct_formula(self, case):
        spec, psi, d, dt, points = case
        lam = spec.subspace_size
        t_grid = np.arange(points) * dt
        direct = np.abs(evolve(zeno_hamiltonian(spec), psi[:lam], t_grid)[:, -1]) ** 2
        ideal = theory._edge_values(spec, psi, dt, points, None)
        assert np.max(np.abs(ideal - direct)) <= 1e-12
        damped = theory._edge_values(spec, psi, dt, points, d)
        oracle = scalar_damped_edge_values(spec, psi, t_grid, d)
        assert np.max(np.abs(damped - oracle)) <= 1e-12
        if points >= 2:  # the grid edge_population evaluates on is exactly j * dt
            for dist, values in ((None, ideal), (d, damped)):
                t_max = (points - 1) * dt
                series = edge_population(spec, psi, t_max=t_max, dt=dt, distribution=dist)
                assert np.array_equal(series.t_grid, t_grid)
                assert np.array_equal(series.values, values)

    @pytest.mark.parametrize(
        "t_max, dt",
        [(0.1, 1.0), (1.0, np.inf), (1.0, np.nan), (np.inf, 1.0), (0.0, 1.0), (1.0, -1.0)],
    )
    def test_grid_without_two_finite_points_raises(self, t_max, dt):
        spec = ChainSpec(n_sites=6, subspace_size=3)
        for d in (None, BIMODAL):
            with pytest.raises(ValueError, match="t_max"):
                edge_population(spec, leftmost_excited(6), t_max=t_max, dt=dt, distribution=d)
        with pytest.raises(ValueError, match="t_max"):
            edge_time_average(spec, leftmost_excited(6), t_max=t_max, dt=dt)


class TestEdgeTimeAverage:
    # The closed form sums terms of order one that cancel, so its rounding
    # error is ~1e-17 absolute: each grid spans a time by which the
    # excitation has reached the edge site, where 1e-12 relative is a test.
    @pytest.mark.parametrize("lam", range(1, 10))
    @pytest.mark.parametrize("initial", ["wstate", "leftmost"])
    @pytest.mark.parametrize(
        "t_max, dt, points",
        [(150.0, 150.0, 2), (300.0, 150.0, 3), (30000.0, 0.15, 200_001), (1000.0, 0.7, 1430)],
    )
    def test_equals_the_series_average(self, lam, initial, t_max, dt, points):
        spec = ChainSpec(n_sites=12, subspace_size=lam)
        psi0 = w_state(12, lam) if initial == "wstate" else leftmost_excited(12)
        series = edge_population(spec, psi0, t_max=t_max, dt=dt)
        assert len(series.t_grid) == points
        average = edge_time_average(spec, psi0, t_max=t_max, dt=dt)
        assert abs(average - series.time_average) <= 1e-12 * series.time_average

    def test_rounding_noise_is_clipped_at_zero(self):
        # leftmost start, lambda = 9, one short step: the true average is
        # ~1e-47, far below what cancelling terms of order one resolve
        spec = ChainSpec(n_sites=12, subspace_size=9)
        for t_max in (0.15, 0.3, 0.45):
            average = edge_time_average(spec, leftmost_excited(12), t_max=t_max, dt=0.15)
            assert 0.0 <= average <= 1e-15

    def test_constant_edge(self):
        # W state on two sites: |c_2|^2 = 1/2 at every time
        spec = ChainSpec(n_sites=12, subspace_size=2)
        assert abs(edge_time_average(spec, w_state(12, 2), t_max=600.0, dt=0.15) - 0.5) <= 1e-15


class TestEdgeTimeAverageArray:
    # one time average per entry of an array t_max, by one quadratic form each
    @pytest.mark.parametrize("lam", [1, 2, 5, 9])
    @pytest.mark.parametrize("initial", ["wstate", "leftmost"])
    def test_each_entry_equals_its_scalar_call(self, lam, initial):
        spec = ChainSpec(n_sites=12, subspace_size=lam)
        psi0 = w_state(12, lam) if initial == "wstate" else leftmost_excited(12)
        t_max = np.array([0.15, 0.3, 7.5, 150.0, 300.0, 2999.95, 6000.0, 30000.0])
        averages = edge_time_average(spec, psi0, t_max=t_max, dt=0.15)
        scalars = [edge_time_average(spec, psi0, t_max=t, dt=0.15) for t in t_max]
        assert all(type(a) is float for a in scalars)
        # rounding noise of ~1e-17 (clipped at 0) where the edge is still empty
        np.testing.assert_allclose(averages, scalars, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("lam", range(1, 10))
    @pytest.mark.parametrize("initial", ["wstate", "leftmost"])
    def test_staircase_matches_the_series_curve(self, lam, initial):
        # the fig2/fig3 staircase: m = 1..2000 on the grid dt = mean / 20
        spec = ChainSpec(n_sites=12, subspace_size=lam)
        psi0 = w_state(12, lam) if initial == "wstate" else leftmost_excited(12)
        mom, m_axis = moments(BIMODAL), np.arange(1, 2001)
        series = edge_population(spec, psi0, t_max=2000 * mom.mean, dt=mom.mean / 20)
        expected = pstar_time_averaged_curve(m_axis, BIMODAL, series, spec.beta)
        averages = edge_time_average(spec, psi0, t_max=m_axis * mom.mean, dt=mom.mean / 20)
        curve = np.exp(-theory._exponent(m_axis, mom, spec.beta**2 * averages))
        assert np.max(np.abs(curve - expected) / expected) <= 1e-12

    @pytest.mark.parametrize(
        "t_max",
        [[], [1.0, np.nan], [np.inf], [5.0, 0.0], [-1.0, 2.0], [3.0, 0.4], np.zeros((2, 0))],
        ids=["empty", "nan", "inf", "zero", "negative", "one-point-grid", "empty-2d"],
    )
    def test_bad_entries_raise(self, t_max):
        spec = ChainSpec(n_sites=6, subspace_size=3)
        with pytest.raises(ValueError, match="t_max"):
            edge_time_average(spec, leftmost_excited(6), t_max=np.array(t_max), dt=1.0)

    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 3), (3, 1, 2)])
    def test_output_has_the_input_shape(self, shape):
        spec = ChainSpec(n_sites=12, subspace_size=4)
        t_max = np.linspace(10.0, 600.0, int(np.prod(shape))).reshape(shape)
        averages = edge_time_average(spec, w_state(12, 4), t_max=t_max, dt=0.15)
        assert isinstance(averages, np.ndarray) and averages.shape == shape
        last = edge_time_average(spec, w_state(12, 4), t_max=float(t_max.ravel()[-1]), dt=0.15)
        assert abs(averages.ravel()[-1] - last) <= 1e-13 * last


class TestTimeAveraged:
    def test_constant_edge_reduces_to_weak_form_exactly(self):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        series = edge_population(spec, w_state(12, 2), t_max=1500.0, dt=0.15)
        pred_avg = pstar_time_averaged(500, BIMODAL, series, spec.beta)
        pred_weak = pstar_weak(500, BIMODAL, spec.beta**2 * 0.5)
        assert abs(pred_avg.pstar - pred_weak.pstar) <= 1e-10 * pred_weak.pstar

    def test_zero_average_gives_one(self):
        from zenochain.theory import EdgePopulationSeries

        series = EdgePopulationSeries(
            t_grid=np.linspace(0, 10, 11), values=np.zeros(11), time_average=0.0
        )
        assert pstar_time_averaged(100, BIMODAL, series, 0.03).pstar == 1.0

    @pytest.mark.parametrize("lam, m", [(9, 400), (9, 2000), (4, 10000)])
    def test_curve_endpoint_matches_scalar_form(self, lam, m):
        # same integral, same exponent: equal to the last bit
        spec = ChainSpec(n_sites=12, subspace_size=lam)
        d = BIMODAL
        series = edge_population(spec, leftmost_excited(12), t_max=m * 3.0, dt=0.15)
        curve = pstar_time_averaged_curve(np.arange(1, m + 1), d, series, spec.beta)
        scalar = pstar_time_averaged(m, d, series, spec.beta)
        assert curve[-1] == scalar.pstar

    def test_curve_requires_coverage(self):
        spec = ChainSpec(n_sites=12, subspace_size=9)
        series = edge_population(spec, leftmost_excited(12), t_max=30.0, dt=0.15)
        with pytest.raises(ValueError):
            pstar_time_averaged_curve(np.array([1000]), BIMODAL, series, spec.beta)

    @pytest.mark.parametrize("m_values", [[0], [1, 0, 2], [-3], [np.nan, 2.0], [], [[]]])
    def test_curve_rejects_m_below_one(self, m_values):
        spec = ChainSpec(n_sites=12, subspace_size=2)
        series = edge_population(spec, w_state(12, 2), t_max=30.0, dt=0.15)
        with pytest.raises(ValueError, match="m_values"):
            pstar_time_averaged_curve(np.array(m_values), BIMODAL, series, spec.beta)

    def test_in_regime_agreement_with_simulation(self):
        # lambda=9 staircase: the mean ln P of 20 runs stays within 10% of the
        # ideal-series prediction while the cumulative decay is still moderate
        # (m = 500 here).  One run scatters by as much as the limit; the
        # ensemble's standard error is held to a fifth of it.
        spec = ChainSpec(n_sites=12, subspace_size=9)
        m = 500
        trajs = run_lockstep(
            spec,
            leftmost_excited(12),
            ProtocolConfig(ProtocolKind.PROJECTIVE, m, BIMODAL),
            [SeededSampler(7).spawn(i) for i in range(20)],
        )
        logs = np.array([t.log_survival for t in trajs])
        mean, stderr = logs.mean(), logs.std(ddof=1) / np.sqrt(len(logs))
        series = edge_population(spec, leftmost_excited(12), t_max=m * 3.0, dt=0.15)
        pred = pstar_time_averaged(m, BIMODAL, series, spec.beta)
        assert stderr <= 0.02 * abs(pred.log_pstar)
        assert abs(mean - pred.log_pstar) <= 0.10 * abs(pred.log_pstar)


class TestLogQExpansionConsistency:
    def test_product_vs_weak_for_quadratic_q(self):
        # when q(mu) = 1 - v mu^2 with v mu^2 <= 0.01 the exact product and
        # the quadratic-expansion exponential agree to 2% in ln P
        v = 4e-4
        d = BIMODAL
        q = {mu: 1.0 - v * mu**2 for mu in (1.0, 5.0)}
        exact = pstar_exact_product(200, d, q)
        weak = pstar_weak(200, d, v)
        rel = abs(np.log(exact.pstar) - np.log(weak.pstar)) / abs(np.log(exact.pstar))
        assert rel <= 0.02


class TestRemainderConstant:
    # five couplings, three grids each, all below beta mu = pi/2; the
    # finite-difference scan this replaced refused every grid at beta 0.5 and
    # (3.0, 1.4) at beta 0.2, and missed the others by 1.2e-6 to 3.7e-3
    @pytest.mark.parametrize("beta", [0.01, 2 * np.pi * 0.005, 0.06, 0.2, 0.5])
    @pytest.mark.parametrize("mu_max, grid_step", [(3.0, 0.05), (2.0, 0.25), (3.0, 1.4)])
    def test_two_level_symbolic_oracle(self, beta, mu_max, grid_step):
        # ln q = 2 ln cos(beta mu): (1/6)|d^3| = (2/3) beta^3 tan sec^2
        spec = ChainSpec(n_sites=2, subspace_size=1, beta=beta)
        got = remainder_constant(spec, leftmost_excited(2), mu_max=mu_max, grid_step=grid_step)
        grid = np.arange(0.0, mu_max + 0.5 * grid_step, grid_step)
        analytic = np.max(
            (2.0 / 3.0) * beta**3 * np.abs(np.tan(beta * grid)) / np.cos(beta * grid) ** 2
        )
        assert abs(got - analytic) <= 1e-12 * analytic

    def test_matches_a_stencil_of_one_step_survival(self):
        # lambda = 2: a five-point stencil of ln q, step h = grid_step, at each
        # grid point; its O(h^2) error is ~2e-7 relative here
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=2), w_state(12, 2)
        h = 0.05
        grid = np.arange(0.0, 6.0 + 0.5 * h, h)

        def lnq(mu):
            return np.log(one_step_survival(spec, psi0, mu))

        stencil = [(lnq(x + 2 * h) - 2 * lnq(x + h) + 2 * lnq(x - h) - lnq(x - 2 * h)) / (2 * h**3)
                   for x in grid]
        want = np.max(np.abs(stencil)) / 6.0
        got = remainder_constant(spec, psi0, mu_max=6.0, grid_step=h)
        assert abs(got - want) <= 1e-5 * want

    def test_vanishes_with_coupling(self):
        # C scales as beta^3, so it dies fast as the dynamics freezes; exact on
        # its grid, at beta = 1e-4 it reads ~(2/3) beta^4 mu_max ~ 3e-16
        specs = {
            b: ChainSpec(n_sites=2, subspace_size=1, beta=b)
            for b in (0.06, 0.03, 1e-4)
        }
        cs = {
            b: remainder_constant(s, leftmost_excited(2), mu_max=5.0, grid_step=0.05)
            for b, s in specs.items()
        }
        assert cs[0.03] < cs[0.06]
        # leading order (2/3) beta^3 tan(beta mu) sec^2 ~ beta^4 mu
        assert abs(cs[0.06] / cs[0.03] - 16.0) <= 2.5
        assert cs[1e-4] <= 1e-9

    def test_margin_pipeline(self):
        # C feeds the weak-limit margin for the bimodal benchmark setup
        spec = ChainSpec(n_sites=12, subspace_size=2)
        c = remainder_constant(spec, w_state(12, 2), mu_max=6.0, grid_step=0.05)
        r = weak_zeno_margin(BIMODAL, 500, c)
        assert 0.0 < r < 0.1  # comfortably inside the weak regime

    def test_state_outside_the_subspace_is_an_error(self):
        # a uniform 12-site state at lambda = 2 was scored silently (C = 4.5e-6)
        spec = ChainSpec(n_sites=12, subspace_size=2)
        with pytest.raises(InitialStateOutsideSubspaceError):
            remainder_constant(spec, w_state(12, 12), mu_max=6.0, grid_step=0.05)

    @pytest.mark.parametrize("mu_max, grid_step", [(np.inf, 0.05), (np.nan, 0.05), (5.0, np.inf),
                                                   (5.0, np.nan), (0.0, 0.05), (5.0, -0.05)])
    def test_grid_not_finite_and_positive_is_a_named_error(self, mu_max, grid_step):
        # mu_max = inf ended in numpy's "Maximum allowed size exceeded"
        spec = ChainSpec(n_sites=2, subspace_size=1)
        with pytest.raises(ValueError, match="must be finite and positive"):
            remainder_constant(spec, leftmost_excited(2), mu_max=mu_max, grid_step=grid_step)

    def test_one_step_survival_matches_propagator(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        psi0 = w_state(6, 2)
        from zenochain.chain import hamiltonian

        psi = propagator(hamiltonian(spec), 2.5) @ psi0
        want = float(np.sum(np.abs(psi[:2]) ** 2))
        assert abs(one_step_survival(spec, psi0, 2.5) - want) <= 1e-14


class TestThreeLevel:
    def test_t_zero(self):
        assert three_level_survival(0.7, 3.0, 0.0) == 1.0

    def test_zero_coupling_is_rabi(self):
        t = np.linspace(0, 30, 301)
        got = three_level_survival(1.1, 0.0, t)
        assert np.max(np.abs(got - np.cos(1.1 * t) ** 2)) <= 1e-12

    def test_strong_coupling_floor(self):
        omega, g = 1.0, 10.0
        t = np.linspace(0, 50, 5001)
        p = three_level_survival(omega, g, t)
        floor = (1 - 2 * omega**2 / (omega**2 + g**2)) ** 2
        assert np.min(p) >= floor - 1e-12
        assert np.min(p) >= 0.9606
        assert abs(floor - (1 - 2 / 101) ** 2) <= 1e-15

    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("g", [0.1, 1.0, 10.0])
    def test_matches_numerical_propagation(self, omega, g):
        h = three_level_hamiltonian(omega, g)
        t_grid = np.linspace(0.0, 40.0, 801)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        errs = []
        for t in t_grid[:: len(t_grid) // 80]:
            psi = propagator(h, t) @ psi0
            errs.append(abs(abs(psi[0]) ** 2 - three_level_survival(omega, g, t)))
        assert max(errs) <= 1e-8

    def test_degenerate_inputs(self):
        assert three_level_survival(0.0, 0.0, 5.0) == 1.0

