import numpy as np
import pytest

from zenochain.chain import (
    DEFAULT_RATE,
    ChainSpec,
    InvalidSpecError,
    SubspaceTooLargeError,
    coupling_hamiltonian,
    hamiltonian,
    hopping_matrix,
    leftmost_excited,
    projector,
    w_state,
    zeno_hamiltonian,
)
from zenochain.linalg import is_hermitian, propagator
from zenochain.protocols import ProtocolConfig, ProtocolKind, run_projective
from zenochain.stochastics import IntervalDistribution, SeededSampler

from helpers import (
    full_chain_hamiltonian,
    full_coupling_hamiltonian,
    project_to_sector,
    sector_constant_shift,
    single_excitation_index,
)

BETA = DEFAULT_RATE


class TestHamiltonian:
    def test_n3_matches_full_space_oracle(self):
        spec = ChainSpec(n_sites=3, subspace_size=1)
        got = hamiltonian(spec)
        full = full_chain_hamiltonian(3, spec.alpha, spec.beta)
        want = project_to_sector(full, 3)
        want -= sector_constant_shift(3, spec.alpha) * np.eye(3)  # phase off by default
        assert np.max(np.abs(got - want)) <= 1e-12
        expected = np.array([[0, BETA, 0], [BETA, 0, BETA], [0, BETA, 0]])
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_n2_eigenvalues(self):
        h = hopping_matrix(2, include_field_phase=False)
        w = np.linalg.eigvalsh(h)
        assert np.allclose(w, [-BETA, BETA], atol=1e-14)
        full = full_chain_hamiltonian(2, DEFAULT_RATE, DEFAULT_RATE)
        sector = project_to_sector(full, 2) - sector_constant_shift(2, DEFAULT_RATE) * np.eye(2)
        assert np.max(np.abs(h - sector)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sector_reduction_all_small_n(self, n):
        spec = ChainSpec(n_sites=n, subspace_size=1, include_field_phase=True)
        got = hamiltonian(spec)
        want = project_to_sector(full_chain_hamiltonian(n, spec.alpha, spec.beta), n)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_hermitian_and_tridiagonal(self):
        h = hamiltonian(ChainSpec(n_sites=9, subspace_size=3))
        assert is_hermitian(h)
        for i in range(9):
            for j in range(9):
                if abs(i - j) > 1:
                    assert h[i, j] == 0

    def test_field_phase_is_observably_irrelevant(self):
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        psis = {}
        qs = {}
        for phase in (False, True):
            spec = ChainSpec(n_sites=6, subspace_size=2, include_field_phase=phase)
            config = ProtocolConfig(ProtocolKind.PROJECTIVE, 40, d)
            traj = run_projective(spec, w_state(6, 2), config, SeededSampler(5))
            psis[phase] = np.abs(traj.final_state) ** 2
            qs[phase] = traj.survival_factors
        assert np.max(np.abs(psis[True] - psis[False])) <= 1e-10
        assert np.max(np.abs(qs[True] - qs[False])) <= 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_excitation_number_conserved_in_full_space(self, n):
        # evolution under the full 2^n Hamiltonian never leaves the sector
        full = full_chain_hamiltonian(n, DEFAULT_RATE, DEFAULT_RATE)
        u = propagator(full, 37.0)
        idx = [single_excitation_index(n, s) for s in range(1, n + 1)]
        psi = np.zeros(2**n, dtype=complex)
        psi[idx[0]] = 1.0
        evolved = u @ psi
        outside = np.delete(np.abs(evolved) ** 2, idx)
        assert np.max(outside) <= 1e-20


class TestProjector:
    def test_minimal(self):
        p = projector(ChainSpec(n_sites=3, subspace_size=1))
        assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))

    def test_rank(self):
        p = projector(ChainSpec(n_sites=12, subspace_size=9))
        assert int(np.trace(p).real) == 9

    def test_idempotent_and_hermitian(self):
        p = projector(ChainSpec(n_sites=7, subspace_size=4))
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p, p.conj().T)


class TestZenoHamiltonian:
    def test_single_site(self):
        h = zeno_hamiltonian(ChainSpec(n_sites=5, subspace_size=1))
        assert h.shape == (1, 1) and h[0, 0] == 0

    def test_two_sites(self):
        h = zeno_hamiltonian(ChainSpec(n_sites=5, subspace_size=2))
        assert np.allclose(h, [[0, BETA], [BETA, 0]], atol=1e-15)

    @pytest.mark.parametrize("lam", [1, 2, 5, 9])
    def test_block_structure(self, lam):
        spec = ChainSpec(n_sites=12, subspace_size=lam)
        h = hamiltonian(spec)
        p = projector(spec)
        block = (p @ h @ p)[:lam, :lam]
        assert np.max(np.abs(block - zeno_hamiltonian(spec))) <= 1e-14


class TestCouplingHamiltonian:
    def test_n4_matches_full_space_oracle(self):
        spec = ChainSpec(n_sites=4, subspace_size=1)
        got = coupling_hamiltonian(spec)
        want = project_to_sector(full_coupling_hamiltonian(4, 1), 4)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert got[1, 2] == 2.0 and got[2, 1] == 2.0
        assert np.count_nonzero(got) == 2

    @pytest.mark.parametrize("n,lam", [(4, 1), (5, 2), (6, 3), (6, 4)])
    def test_sector_reduction_small_n(self, n, lam):
        spec = ChainSpec(n_sites=n, subspace_size=lam)
        got = coupling_hamiltonian(spec)
        want = project_to_sector(full_coupling_hamiltonian(n, lam), n)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_commutes_with_projector(self):
        spec = ChainSpec(n_sites=8, subspace_size=3)
        hc = coupling_hamiltonian(spec)
        p = projector(spec)
        assert np.max(np.abs(hc @ p - p @ hc)) == 0.0

    def test_subspace_too_large(self):
        with pytest.raises(SubspaceTooLargeError):
            coupling_hamiltonian(ChainSpec(n_sites=5, subspace_size=4))

    def test_kick_block_closed_form(self):
        # exp(-i s Hc) on the pair block is cos(2s) I - i sin(2s) sigma_x:
        # a population swap needs s = pi/4; s = pi/2 gives a parity kick (-I).
        spec = ChainSpec(n_sites=6, subspace_size=2)
        hc = coupling_hamiltonian(spec)
        for s in (0.2, np.pi / 4, np.pi / 2, 1.3):
            block = propagator(hc, s)[2:4, 2:4]
            want = np.array(
                [
                    [np.cos(2 * s), -1j * np.sin(2 * s)],
                    [-1j * np.sin(2 * s), np.cos(2 * s)],
                ]
            )
            assert np.max(np.abs(block - want)) <= 1e-12

    def test_quarter_pi_kick_swaps_populations(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        kick = propagator(coupling_hamiltonian(spec), np.pi / 4)
        psi = np.zeros(6, dtype=complex)
        psi[2] = np.sqrt(0.7)
        psi[3] = np.sqrt(0.3) * 1j
        out = np.abs(kick @ psi) ** 2
        assert abs(out[2] - 0.3) <= 1e-10
        assert abs(out[3] - 0.7) <= 1e-10

    def test_half_pi_kick_is_pair_parity(self):
        spec = ChainSpec(n_sites=6, subspace_size=2)
        kick = propagator(coupling_hamiltonian(spec), np.pi / 2)
        want = np.diag([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
        assert np.max(np.abs(kick - want)) <= 1e-10


class TestSpecValidation:
    def test_rejects_tiny_chain(self):
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=1, subspace_size=1)

    def test_rejects_bad_subspace(self):
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=5, subspace_size=6)
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=5, subspace_size=0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(InvalidSpecError):
            ChainSpec(n_sites=5, subspace_size=2, beta=0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidSpecError, match="beta"):
                ChainSpec(n_sites=5, subspace_size=2, beta=bad)
            with pytest.raises(InvalidSpecError, match="alpha"):
                ChainSpec(n_sites=5, subspace_size=2, alpha=-bad, include_field_phase=True)

    @pytest.mark.parametrize("beta", [1e160, 1.34e154 * 1.01, 1e-170])
    def test_rejects_beta_whose_square_overflows_or_underflows(self, beta):
        with pytest.raises(InvalidSpecError, match="beta"):
            ChainSpec(n_sites=5, subspace_size=2, beta=beta)

    @pytest.mark.parametrize("sizes", [(12.0, 4), (12, 4.5), (12.0, 4.5), (True, 1), (5, True),
                                       ("5", 2), (5, None)])
    def test_rejects_sizes_that_are_not_integers(self, sizes):
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            ChainSpec(*sizes)

    def test_takes_numpy_integer_sizes(self):
        spec = ChainSpec(np.int64(5), np.int32(2))
        assert hamiltonian(spec).shape == (5, 5)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [10**400, -(10**400), "0.1", None, 1j, True],
                             ids=["int-beyond-float", "-int-beyond-float", "str", "None", "complex",
                                  "bool"])
    def test_rejects_rates_that_are_not_finite_floats(self, name, bad):
        # an int beyond any float used to end in a raw OverflowError (beta)
        # or TypeError (alpha)
        with pytest.raises(InvalidSpecError, match=name):
            ChainSpec(n_sites=5, subspace_size=2, **{name: bad})

    def test_default_rate_value(self):
        assert abs(DEFAULT_RATE - 2 * np.pi * 0.005) < 1e-18
        assert abs(DEFAULT_RATE - 0.0314159) < 1e-6


class TestStates:
    def test_w_state(self):
        psi = w_state(6, 3)
        assert abs(np.linalg.norm(psi) - 1) <= 1e-15
        assert np.allclose(psi[:3], 1 / np.sqrt(3))
        assert np.all(psi[3:] == 0)

    def test_leftmost(self):
        psi = leftmost_excited(4)
        assert psi[0] == 1 and np.all(psi[1:] == 0)
