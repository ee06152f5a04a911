import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain.stochastics import (
    IntervalDistribution,
    atom_indices,
    SeededSampler,
    derive_seed,
    draw_uniforms,
    moments,
    sample_intervals,
    weak_zeno_margin,
)

from helpers import scalar_next_uint64, scalar_sample_intervals, scalar_uniform


class TestDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            IntervalDistribution(((1.0, 0.5), (5.0, 0.4)))

    def test_intervals_must_be_positive(self):
        with pytest.raises(ValueError):
            IntervalDistribution(((0.0, 1.0),))
        with pytest.raises(ValueError, match="finite"):
            IntervalDistribution(((np.inf, 1.0),))

    @pytest.mark.parametrize(
        "atoms", [((1e-300, 1.0),), ((1e300, 1.0),), ((1e120, 0.5), (5e120, 0.5))]
    )
    def test_atom_whose_moments_cannot_be_formed_is_rejected(self, atoms):
        # mu^2 = 0 would divide kappa by zero, mu^3 = inf would overflow <mu^3>
        with pytest.raises(ValueError, match=re.escape(f"interval {atoms[0][0]}:")):
            IntervalDistribution(atoms)

    @pytest.mark.parametrize("mu", [1e-150, 1e100])
    def test_atoms_at_the_moment_limits_are_kept(self, mu):
        mom = moments(IntervalDistribution.deterministic(mu))
        assert mom.mean == mu and mom.kappa == 0.0 and 0 <= mom.third_raw < np.inf

    def test_integer_interval_beyond_any_float_is_a_value_error(self):
        # not a raw OverflowError from float(mu)
        for make in (lambda: IntervalDistribution(((10**400, 1.0),)),
                     lambda: IntervalDistribution.from_atoms([(10**400, 1.0)]),
                     lambda: IntervalDistribution.from_atoms([(1.0, 10**400)]),
                     lambda: IntervalDistribution.deterministic(10**400),
                     lambda: IntervalDistribution.from_literal(f"[({10**400}, 1.0)]")):
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("mu1, mu2", [(10**400, 5.0), (1.0, 10**400)], ids=["mu1", "mu2"])
    def test_bimodal_interval_beyond_any_float_is_a_value_error(self, mu1, mu2):
        # not a raw OverflowError from abs(mu1 - mu2)
        with pytest.raises(ValueError, match="float range"):
            IntervalDistribution.bimodal(mu1, mu2, 0.5)

    def test_atoms_must_be_distinct(self):
        with pytest.raises(ValueError):
            IntervalDistribution(((2.0, 0.5), (2.0, 0.5)))

    def test_from_literal(self):
        d = IntervalDistribution.from_literal("[(1.0, 0.5), (5.0, 0.5)]")
        assert d.atoms == ((1.0, 0.5), (5.0, 0.5))

    def test_from_literal_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntervalDistribution.from_literal("not a list")
        for text in ("[5]", "[(1.0, 0.5), (5.0, 0.5), 3]", "[(1e400, 1.0)]"):
            with pytest.raises(ValueError):
                IntervalDistribution.from_literal(text)

    def test_bimodal_collapses_to_deterministic(self):
        d = IntervalDistribution.bimodal(3.0, 3.0, 0.8)
        assert d.atoms == ((3.0, 1.0),)

    @pytest.mark.parametrize(
        "mu1, mu2, p1",
        [(1.0, 5.0, 0.0), (1.0, 5.0, -0.5), (1.0, 5.0, 1.5), (3.0, 3.0, 1.5), (1.0, 5.0, np.nan),
         (-1.0, 5.0, 0.5), (1.0, -5.0, 0.5), (3.0, -1.0, 1.0), (-3.0, -3.0, 0.5),
         (3.0, np.nan, 1.0), (np.inf, 5.0, 0.5)],
    )
    def test_bimodal_rejects_bad_parameters_even_when_collapsed(self, mu1, mu2, p1):
        # p1 outside (0, 1] or a non-positive interval; (3, 3, 1.5) and
        # (3, -1, 1) would otherwise collapse to a valid deterministic(3)
        with pytest.raises(ValueError):
            IntervalDistribution.bimodal(mu1, mu2, p1)


class TestMoments:
    def test_values_probabilities_and_moments_are_computed_once_and_read_only(self):
        d = IntervalDistribution.from_atoms([(1.0, 0.2), (2.0, 0.3), (6.0, 0.5)])
        assert d.values is d.values and d.probabilities is d.probabilities
        assert moments(d) is moments(d)
        for array in (d.values, d.probabilities):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert list(d.values) == [1.0, 2.0, 6.0] and list(d.probabilities) == [0.2, 0.3, 0.5]
        # the cache is no field: equal laws stay equal and hash alike
        fresh = IntervalDistribution.from_atoms([(1.0, 0.2), (2.0, 0.3), (6.0, 0.5)])
        assert fresh == d and hash(fresh) == hash(d) and repr(fresh) == repr(d)

    def test_fig2_distribution(self):
        mom = moments(IntervalDistribution.bimodal(1.0, 5.0, 0.5))
        assert mom.mean == 3.0
        assert mom.variance == 4.0
        assert abs(mom.kappa - 4.0 / 9.0) <= 1e-12
        assert mom.third_raw == 63.0

    def test_deterministic_has_zero_kappa(self):
        mom = moments(IntervalDistribution.deterministic(3.0))
        assert mom.kappa == 0.0
        assert mom.variance == 0.0

    def test_high_disorder_endpoint(self):
        mom = moments(IntervalDistribution.bimodal(1.0, 11.0, 0.8))
        assert abs(mom.mean - 3.0) <= 1e-12
        assert abs(mom.kappa - 16.0 / 9.0) <= 1e-12

    def test_kappa_nonnegative_and_zero_iff_single_atom(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = rng.integers(1, 5)
            mus = np.sort(rng.uniform(0.5, 10.0, size=k))
            mus += np.arange(k) * 1e-3  # enforce distinct
            probs = rng.dirichlet(np.ones(k))
            keep = probs > 1e-9
            mus, probs = mus[keep], probs[keep]
            probs = probs / probs.sum()
            d = IntervalDistribution.from_atoms(zip(mus, probs))
            mom = moments(d)
            assert mom.kappa >= 0.0
            if len(d.atoms) == 1:
                assert mom.kappa == 0.0
            else:
                assert mom.kappa > 0.0


class TestSampler:
    def test_deterministic_distribution(self):
        d = IntervalDistribution.deterministic(3.0)
        out = sample_intervals(d, SeededSampler(999), 5)
        assert np.array_equal(out, [3.0] * 5)

    def test_same_seed_same_stream(self):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        a = sample_intervals(d, SeededSampler(123), 500)
        b = sample_intervals(d, SeededSampler(123), 500)
        assert np.array_equal(a, b)

    def test_known_stream_is_stable(self):
        # pins the published SplitMix64 outputs of seed 0, through the scalar
        # oracle and through uniform(), so any generator change is loud
        oracle, s = SeededSampler(0), SeededSampler(0)
        for v in (16294208416658607535, 7960286522194355700):
            assert scalar_next_uint64(oracle) == v
            assert s.uniform() == (v >> 11) * 2**-53

    def test_uniform_range(self):
        s = SeededSampler(7)
        xs = [s.uniform() for _ in range(2000)]
        assert min(xs) >= 0.0 and max(xs) < 1.0

    def test_law_of_large_numbers(self):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        out = sample_intervals(d, SeededSampler(1), 10**5)
        freq = np.mean(out == 1.0)
        assert 0.49 <= freq <= 0.51

    def test_values_are_atoms(self):
        d = IntervalDistribution.bimodal(2.0, 7.0, 0.3)
        out = sample_intervals(d, SeededSampler(77), 1000)
        assert set(np.unique(out)) <= {2.0, 7.0}

    def test_child_streams_differ(self):
        base = SeededSampler(11)
        kids = [base.spawn(i) for i in range(4)]
        seqs = [[scalar_next_uint64(k) for _ in range(4)] for k in kids]
        for i in range(4):
            for j in range(i + 1, 4):
                assert seqs[i] != seqs[j]

    def test_derive_seed_is_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(42, 3) != derive_seed(43, 3)

    @pytest.mark.parametrize("seed", [0, 42, -3, 2**63 + 11, 2**64 - 1, 2**70 + 5])
    def test_derive_seed_over_an_index_array(self, seed):
        children = derive_seed(seed, np.arange(40, dtype=np.uint64)).tolist()
        assert children == [derive_seed(seed, i) for i in range(40)]
        assert children == [SeededSampler(seed).spawn(i).seed for i in range(40)]

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_many_equals_a_sampler_per_seed(self, seed):
        seeds = derive_seed(seed, np.arange(7, dtype=np.uint64))
        many = SeededSampler.many(seeds)
        one_by_one = [SeededSampler(s) for s in seeds.tolist()]
        assert [vars(s) for s in many] == [vars(s) for s in one_by_one]
        assert all(type(s) is SeededSampler and type(s.seed) is int for s in many)
        assert np.array_equal(draw_uniforms(many, 5), draw_uniforms(one_by_one, 5))
        assert SeededSampler.many(seeds[:0]) == []

    def test_m_must_be_positive(self):
        d = IntervalDistribution.deterministic(1.0)
        with pytest.raises(ValueError):
            sample_intervals(d, SeededSampler(0), 0)


class TestBlockDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(-(2**70), 2**70),
            st.integers(2**63, 2**64 - 1),
            st.integers(-(2**63), -1),
        ),
        k=st.integers(0, 300),
    )
    def test_uniforms_equal_scalar_draws_and_state(self, seed, k):
        block, scalar = SeededSampler(seed), SeededSampler(seed)
        u = draw_uniforms([block], k)[0]
        assert np.array_equal(u, [scalar_uniform(scalar) for _ in range(k)])
        # same state afterwards: the streams continue identically
        assert scalar_next_uint64(block) == scalar_next_uint64(scalar)
        assert block.uniform() == scalar_uniform(scalar)

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6),
        k=st.integers(0, 200),
    )
    def test_multi_stream_rows_equal_each_stream(self, seeds, k):
        # row r is samplers[r]'s one-stream draw bit for bit, and every state ends
        # where k scalar oracle draws leave it
        samplers = [SeededSampler(s) for s in seeds]
        block = draw_uniforms(samplers, k)
        assert block.shape == (len(seeds), k)
        for row, s, seed in zip(block, samplers, seeds):
            one, scalar = SeededSampler(seed), SeededSampler(seed)
            assert np.array_equal(row, draw_uniforms([one], k)[0])
            assert np.array_equal(row, [scalar_uniform(scalar) for _ in range(k)])
            assert scalar_next_uint64(s) == scalar_next_uint64(one) == scalar_next_uint64(scalar)

    def test_rewind_repeats_draws(self):
        s = SeededSampler(5)
        first = draw_uniforms([s], 10)[0]
        s.rewind(4)
        assert np.array_equal(draw_uniforms([s], 4)[0], first[6:])
        s.rewind(10)
        assert np.array_equal(draw_uniforms([s], 10)[0], first)

    @pytest.mark.parametrize("atoms", range(1, 7))
    def test_atom_indices_equal_searchsorted(self, atoms):
        # the inverse CDF as searchsorted on the CDF with its last entry set to 1,
        # on random draws, 0.0 and draws equal to each CDF entry
        rng = np.random.default_rng(atoms)
        weights = rng.integers(1, 9, atoms).astype(float)
        d = IntervalDistribution.from_atoms(zip(range(1, atoms + 1), weights / weights.sum()))
        cdf = np.cumsum(d.probabilities)
        cdf[-1] = 1.0
        u = draw_uniforms([SeededSampler(i) for i in range(5)], 300)
        u[0, : atoms + 1] = [0.0, *cdf[:-1], np.nextafter(1.0, 0.0)]
        index = atom_indices(d, u)
        assert index.dtype == np.searchsorted(cdf, u).dtype
        assert np.array_equal(index, np.searchsorted(cdf, u, side="right"))
        assert index[0, 0] == 0 and list(index[0, 1:atoms]) == list(range(1, atoms))

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**63 + 11, 2**64 - 1])
    def test_sample_intervals_match_scalar_path(self, seed):
        d = IntervalDistribution.from_atoms([(1.0, 0.2), (2.5, 0.3), (7.0, 0.5)])
        a, b = SeededSampler(seed), SeededSampler(seed)
        assert np.array_equal(sample_intervals(d, a, 777), scalar_sample_intervals(d, b, 777))
        assert scalar_next_uint64(a) == scalar_next_uint64(b)


class TestWeakZenoMargin:
    def test_zero_bound(self):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        assert weak_zeno_margin(d, 100, 0.0) == 0.0

    def test_worked_example(self):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        assert abs(weak_zeno_margin(d, 100, 1e-4) - 0.63) <= 1e-12

    def test_linear_in_m(self):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        r1 = weak_zeno_margin(d, 250, 2e-5)
        r2 = weak_zeno_margin(d, 500, 2e-5)
        assert abs(r2 - 2 * r1) <= 1e-12

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -1.0])
    def test_bound_not_finite_and_nonnegative_is_an_error(self, bound):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        with pytest.raises(ValueError, match="remainder bound must be finite and >= 0"):
            weak_zeno_margin(d, 100, bound)

    @pytest.mark.parametrize("m", [-5, 0, np.nan])
    def test_m_below_one_is_an_error(self, m):
        # weak_zeno_margin(d, -5, 0.1) read -31.5
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        with pytest.raises(ValueError, match="m must be a number >= 1"):
            weak_zeno_margin(d, m, 0.1)
