"""XY spin chain restricted to the single-excitation sector.

The chain Hamiltonian is ``alpha * sum_i sigma_z^i + (beta/2) * sum_i
(sigma_x^i sigma_x^{i+1} + sigma_y^i sigma_y^{i+1})``.  With one excitation
present this reduces to an n x n hopping matrix in the basis ``|1_i>`` (site
i excited, 1-based): nearest-neighbour hopping of amplitude beta and a
constant diagonal alpha*(2-n) coming from the field term.  The diagonal is a
global phase in this sector, so it is dropped by default
(``include_field_phase=False``).

Confinement targets the first ``subspace_size`` sites.  The locking coupling
acts on the two sites just outside the subspace and carries no beta/2
prefactor, so its sector matrix element is 2 (not beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# alpha = beta = 2*pi x 5 kHz expressed in rad/us
DEFAULT_RATE = 2.0 * np.pi * 0.005


class InvalidSpecError(ValueError):
    """Chain parameters violate a structural constraint."""


class SubspaceTooLargeError(ValueError):
    """Coupling needs sites subspace_size+1 and +2 inside the chain."""


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry and rates.

    n_sites: number of spins (>= 2; coherent coupling needs
        subspace_size + 2 <= n_sites).
    alpha: field strength in rad/us, finite (enters only as a
        sector-constant phase, see module docstring).
    beta: hopping/coupling strength in rad/us, > 0 with a finite, nonzero square.
    subspace_size: number of leading sites forming the confined subspace.
    """

    n_sites: int
    subspace_size: int
    alpha: float = DEFAULT_RATE
    beta: float = DEFAULT_RATE
    include_field_phase: bool = False

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise InvalidSpecError(f"n_sites must be >= 2, got {self.n_sites}")
        if not (1 <= self.subspace_size <= self.n_sites):
            raise InvalidSpecError(
                f"subspace_size must lie in [1, {self.n_sites}], got {self.subspace_size}"
            )
        if not (0 < self.beta and 0 < float(self.beta) * float(self.beta) < np.inf):
            raise InvalidSpecError(f"beta must be > 0, beta^2 finite and nonzero, got {self.beta}")
        if not np.isfinite(self.alpha):
            raise InvalidSpecError(f"alpha must be finite, got {self.alpha}")


def hopping_matrix(
    n_sites: int,
    alpha: float = DEFAULT_RATE,
    beta: float = DEFAULT_RATE,
    include_field_phase: bool = False,
) -> np.ndarray:
    """Single-excitation sector matrix of an n-site chain (works for n >= 1)."""
    if n_sites < 1:
        raise InvalidSpecError("n_sites must be >= 1")
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for i in range(n_sites - 1):
        h[i, i + 1] = beta
        h[i + 1, i] = beta
    if include_field_phase:
        h[np.diag_indices(n_sites)] = alpha * (2 - n_sites)
    return h


def hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Sector Hamiltonian of the full chain."""
    return hopping_matrix(spec.n_sites, spec.alpha, spec.beta, spec.include_field_phase)


def projector(spec: ChainSpec) -> np.ndarray:
    """Diagonal 0/1 projector onto the first subspace_size sites."""
    p = np.zeros((spec.n_sites, spec.n_sites), dtype=complex)
    for i in range(spec.subspace_size):
        p[i, i] = 1.0
    return p


def zeno_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Projected generator: the chain Hamiltonian of a subspace_size-site chain."""
    return hopping_matrix(
        spec.subspace_size, spec.alpha, spec.beta, spec.include_field_phase
    )


def coupling_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Locking coupling on sites (subspace_size+1, subspace_size+2).

    Sector reduction of sigma_x sigma_x + sigma_y sigma_y on that bond:
    matrix element 2 between the two sites, zero elsewhere.
    """
    lam = spec.subspace_size
    if lam + 2 > spec.n_sites:
        raise SubspaceTooLargeError(
            f"coupling needs sites {lam + 1} and {lam + 2}, chain has {spec.n_sites}"
        )
    hc = np.zeros((spec.n_sites, spec.n_sites), dtype=complex)
    hc[lam, lam + 1] = 2.0
    hc[lam + 1, lam] = 2.0
    return hc


def basis_state(n_sites: int, site: int) -> np.ndarray:
    """|1_site> with 1-based site index."""
    if not (1 <= site <= n_sites):
        raise InvalidSpecError(f"site must lie in [1, {n_sites}], got {site}")
    psi = np.zeros(n_sites, dtype=complex)
    psi[site - 1] = 1.0
    return psi


def leftmost_excited(n_sites: int) -> np.ndarray:
    """|1_1>: excitation on the first site."""
    return basis_state(n_sites, 1)


def w_state(n_sites: int, subspace_size: int) -> np.ndarray:
    """Uniform superposition of the first subspace_size basis states."""
    if not (1 <= subspace_size <= n_sites):
        raise InvalidSpecError("subspace_size out of range for w_state")
    psi = np.zeros(n_sites, dtype=complex)
    psi[:subspace_size] = 1.0 / np.sqrt(subspace_size)
    return psi
