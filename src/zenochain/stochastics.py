"""Discrete waiting-time distributions and reproducible sampling.

Sampling uses SplitMix64, a 64-bit mixing generator with fixed published
constants, rather than a platform RNG: identical seeds must give identical
interval sequences on every platform, since seeded runs are part of the
package contract.  Child streams for parallel realizations are derived with
``derive_seed(seed, index)`` built from the same mixing function.

The state is a Weyl sequence, so draw k is ``mix64(state + k * GAMMA)`` and
a block of draws, of one stream or of many, is one numpy ``uint64``
expression (Salmon et al., SC'11).
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z):
    """SplitMix64 finalizer (Steele, Lea & Flood constants).

    z is a Python int in [0, 2**64), returned mixed, or a ``uint64`` array,
    mixed in place (numpy wraps its products modulo 2**64 already).
    """
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK64
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK64
    z ^= z >> 31
    return z


def derive_seed(seed: int, index):
    """Deterministic child seed for realization `index` of a master seed.

    index may be a ``uint64`` array; the child seeds are then one array.
    """
    return _mix64((seed & _MASK64) ^ _mix64((index + 1) & _MASK64))


class SeededSampler:
    """One SplitMix64 stream's state, a Weyl sequence that each draw advances by
    a fixed odd constant: ``uniform`` draws one, ``draw_uniforms`` blocks of many.

    Single-owner: do not share one instance between threads.  Independent
    per-realization streams are seeded with ``derive_seed(seed, index)``, as
    the experiments do for a whole ensemble at once; ``spawn(index)`` is the
    same derivation for one stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._state = int(seed) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return float(draw_uniforms([self], 1)[0, 0])

    def rewind(self, k: int) -> None:
        """Step the stream back by k draws, so the next k draws repeat."""
        self._state = (self._state - k * _GAMMA) & _MASK64

    def spawn(self, index: int) -> "SeededSampler":
        return SeededSampler(derive_seed(self.seed, index))


def draw_uniforms(samplers: Sequence[SeededSampler], k: int) -> np.ndarray:
    """The next k ``uniform()`` draws of every sampler, one row per sampler.

    All rows are one ``uint64`` expression: draw j of row r mixes
    ``state_r + (j + 1) * GAMMA``.  Each sampler's state advances by k.
    """
    z = np.array([s._state for s in samplers], dtype=np.uint64)[:, None]
    z = z + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    for s in samplers:
        s._state = (s._state + k * _GAMMA) & _MASK64
    z = _mix64(z)
    z >>= 11
    return z * 2.0**-53


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    kappa: float
    third_raw: float


@dataclass(frozen=True)
class IntervalDistribution:
    """Atomic waiting-time density: list of (mu in us > 0, probability)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        total = 0.0
        seen = set()
        for mu, p in self.atoms:
            if not (0 < mu <= sys.float_info.max):  # also an int beyond any float
                raise ValueError(f"interval must be positive and finite, got {mu}")
            if float(mu) * mu == 0 or not float(mu) * mu * mu < np.inf:  # moments() needs both
                raise ValueError(f"interval {mu}: mu^2 underflows to 0 or mu^3 overflows")
            if not (0 < p <= 1):
                raise ValueError(f"probability must lie in (0, 1], got {p}")
            if mu in seen:
                raise ValueError(f"duplicate atom at mu={mu}")
            seen.add(mu)
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def from_atoms(cls, pairs: Iterable[Sequence[float]]) -> "IntervalDistribution":
        try:
            return cls(tuple((float(mu), float(p)) for mu, p in pairs))
        except OverflowError as exc:  # an integer beyond any float
            raise ValueError(f"atom beyond the float range: {exc}") from exc

    @classmethod
    def deterministic(cls, mu: float) -> "IntervalDistribution":
        return cls.from_atoms([(mu, 1.0)])

    @classmethod
    def bimodal(cls, mu1: float, mu2: float, p1: float) -> "IntervalDistribution":
        # checked here too, since the collapsed form drops mu2 and 1 - p1
        if not (0 < p1 <= 1 and mu2 > 0):
            raise ValueError(f"bimodal needs 0 < p1 <= 1 and mu2 > 0, got p1={p1}, mu2={mu2}")
        try:
            mu1, mu2 = float(mu1), float(mu2)
        except OverflowError as exc:  # an integer beyond any float
            raise ValueError(f"interval beyond the float range: {exc}") from exc
        if abs(mu1 - mu2) < 1e-15 or p1 >= 1.0:
            return cls.deterministic(mu1)
        return cls(((mu1, float(p1)), (mu2, 1.0 - float(p1))))

    @classmethod
    def from_literal(cls, text: str) -> "IntervalDistribution":
        """Parse the config literal form ``[(1.0, 0.5), (5.0, 0.5)]``."""
        try:
            value = ast.literal_eval(text.strip())
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"bad distribution literal: {text!r}") from exc
        if not isinstance(value, (list, tuple)):
            raise ValueError("distribution literal must be a list of (mu, prob) pairs")
        try:
            return cls.from_atoms(value)
        except TypeError as exc:
            raise ValueError(f"distribution atoms must be (mu, prob) pairs: {exc}") from exc

    @property
    def values(self) -> np.ndarray:
        return np.array([mu for mu, _ in self.atoms])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])


def moments(d: IntervalDistribution) -> Moments:
    """Mean, variance, relative variance kappa and raw third moment."""
    mu = d.values
    p = d.probabilities
    mean = float(np.dot(p, mu))
    variance = float(np.dot(p, (mu - mean) ** 2))
    third_raw = float(np.dot(p, mu**3))
    return Moments(mean=mean, variance=variance, kappa=variance / mean**2, third_raw=third_raw)


def atom_indices(d: IntervalDistribution, uniforms: np.ndarray) -> np.ndarray:
    """Index of the atom each uniform draw selects: the count of CDF entries <= u."""
    index = np.zeros(np.shape(uniforms), dtype=int)
    for c in np.cumsum(d.probabilities)[:-1]:  # the last, 1 > u, counts none
        index += uniforms >= c
    return index


def _check_count(m) -> None:
    """A measurement count, or each entry of an array of them, is a number >= 1."""
    if not np.greater_equal(m, 1).all():  # nan compares False
        raise ValueError(f"m must be a number >= 1, got {m}")


def sample_intervals(
    d: IntervalDistribution, sampler: SeededSampler, m: int
) -> np.ndarray:
    """Draw m i.i.d. waiting times by inverse CDF in atom order."""
    _check_count(m)
    return d.values[atom_indices(d, draw_uniforms([sampler], m)[0])]


def weak_zeno_margin(d: IntervalDistribution, m: int, c_bound: float) -> float:
    """Ratio r = m * C * <mu^3>; the quadratic truncation needs r << 1.

    Interpretation is left to the caller; r < 0.1 is the convention used
    in this package's reports.
    """
    _check_count(m)
    if not 0 <= c_bound < np.inf:
        raise ValueError(f"remainder bound must be finite and >= 0, got {c_bound}")
    return m * c_bound * moments(d).third_raw
