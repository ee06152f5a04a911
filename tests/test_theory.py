import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain.chain import ChainSpec, basis_state, leftmost_excited, w_state, zeno_hamiltonian
from zenochain.linalg import evolve, propagator
from zenochain.protocols import ProtocolConfig, ProtocolKind, run_lockstep, run_projective
from zenochain.stochastics import IntervalDistribution, SeededSampler, moments, weak_zeno_margin
from zenochain import theory
from zenochain.theory import (
    ExceptionalPointError,
    GridTooCoarseError,
    NonPositiveQError,
    edge_damping_rate,
    edge_population,
    one_step_survival,
    pstar_exact_product,
    pstar_strong,
    pstar_time_averaged,
    pstar_time_averaged_curve,
    pstar_weak,
    remainder_constant,
    three_level_hamiltonian,
    three_level_survival,
    three_level_transform,
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
    def test_two_level_symbolic_oracle(self):
        # ln q = 2 ln cos(beta mu): (1/6)|d^3| = (2/3) beta^3 tan sec^2
        spec = ChainSpec(n_sites=2, subspace_size=1)
        got = remainder_constant(spec, leftmost_excited(2), mu_max=5.0, grid_step=0.05)
        b = spec.beta
        grid = np.arange(0.0, 5.0 + 0.025, 0.05)
        analytic = np.max(
            (2.0 / 3.0) * b**3 * np.abs(np.tan(b * grid)) / np.cos(b * grid) ** 2
        )
        assert abs(got - analytic) <= 0.01 * analytic

    def test_vanishes_with_coupling(self):
        # C scales as beta^3, so it dies fast as the dynamics freezes; at
        # beta ~ 1e-4 the scan bottoms out at the finite-difference noise floor
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

    def test_grid_too_coarse(self):
        spec = ChainSpec(n_sites=2, subspace_size=1, beta=0.5)
        with pytest.raises(GridTooCoarseError):
            remainder_constant(spec, leftmost_excited(2), mu_max=3.0, grid_step=1.4)

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


class TestThreeLevelTransform:
    def test_unitary(self):
        t = three_level_transform()
        assert np.max(np.abs(t.conj().T @ t - np.eye(3))) <= 1e-15

    def test_diagonalizes_coupling(self):
        t = three_level_transform()
        g = 2.7
        hc = np.array([[0, 0, 0], [0, 0, g], [0, g, 0]], dtype=complex)
        d = t.conj().T @ hc @ t / g
        assert np.max(np.abs(d - np.diag([0.0, 1.0, -1.0]))) <= 1e-14

    def test_transformed_hamiltonian_form(self):
        omega, g = 0.9, 4.0
        t = three_level_transform()
        h = three_level_hamiltonian(omega, g)
        got = t.conj().T @ h @ t
        s = omega / np.sqrt(2)
        want = np.array([[0, s, s], [s, g, 0], [s, 0, -g]], dtype=complex)
        assert np.max(np.abs(got - want)) <= 1e-14
