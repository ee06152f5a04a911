"""Line-based experiment configuration.

Format: ``key = value`` lines under ``[chain]``, ``[protocol]`` and
``[experiment]`` section headers; ``#`` starts a comment.  Distributions use
the literal form ``dist = [(1.0, 0.5), (5.0, 0.5)]`` (us, probability).

Example::

    [chain]
    n = 12
    lambda = 2

    [protocol]
    kind = projective
    m = 500
    dist = [(1.0, 0.5), (5.0, 0.5)]

    [experiment]
    initial_state = wstate
    realizations = 100
    seed = 1234
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import DEFAULT_RATE, ChainSpec, InvalidSpecError, leftmost_excited, w_state
from .protocols import ProtocolConfig, ProtocolKind
from .stochastics import IntervalDistribution


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class InitialStateSpec:
    kind: str  # "wstate" | "leftmost" | "custom"
    amplitudes: Optional[tuple[complex, ...]] = None

    def resolve(self, spec: ChainSpec) -> np.ndarray:
        if self.kind == "wstate":
            return w_state(spec.n_sites, spec.subspace_size)
        if self.kind == "leftmost":
            return leftmost_excited(spec.n_sites)
        amps = np.zeros(spec.n_sites, dtype=complex)
        given = np.asarray(self.amplitudes, dtype=complex)
        if len(given) > spec.n_sites:
            raise ValidationError("custom state longer than the chain")
        amps[: len(given)] = given
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ValidationError("custom state has zero norm")
        return amps / norm  # normalized on load


@dataclass(frozen=True)
class ExperimentConfig:
    chain: ChainSpec
    protocol: ProtocolConfig
    initial_state: InitialStateSpec
    realizations: int = 1
    seed: int = 0
    output_path: str = "out"
    lambda_sweep: Optional[tuple[int, ...]] = None
    kappa_sweep: Optional[tuple[tuple[float, float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValidationError(f"realizations must be >= 1, got {self.realizations}")


_CHAIN_KEYS = {"n", "alpha", "beta", "lambda", "include_field_phase"}
_PROTOCOL_KEYS = {"kind", "m", "dist", "pulse_area", "coupling", "bernoulli"}
_EXPERIMENT_KEYS = {
    "initial_state",
    "amplitudes",
    "realizations",
    "seed",
    "output_path",
    "lambda_sweep",
    "kappa_sweep",
}


def _parse_bool(raw: str, line_no: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ParseError(line_no, f"expected a boolean, got {raw!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; errors carry the offending line number."""
    sections: dict[str, dict[str, tuple[str, int]]] = {
        "chain": {},
        "protocol": {},
        "experiment": {},
    }
    current: Optional[str] = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ParseError(line_no, f"unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ParseError(line_no, "key outside of any section")
        if "=" not in line:
            raise ParseError(line_no, "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        allowed = {
            "chain": _CHAIN_KEYS,
            "protocol": _PROTOCOL_KEYS,
            "experiment": _EXPERIMENT_KEYS,
        }[current]
        if key not in allowed:
            raise ParseError(line_no, f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ParseError(line_no, f"duplicate key {key!r}")
        sections[current][key] = (value, line_no)

    def take(section: str, key: str, default=None):
        if key in sections[section]:
            return sections[section][key]
        return (default, 0)

    # --- chain ---
    n_raw, n_line = take("chain", "n")
    if n_raw is None:
        raise ValidationError("[chain] n is required")
    lam_raw, lam_line = take("chain", "lambda")
    if lam_raw is None:
        raise ValidationError("[chain] lambda is required")
    try:
        chain = ChainSpec(
            n_sites=_parse_int(n_raw, n_line),
            subspace_size=_parse_int(lam_raw, lam_line),
            alpha=_parse_float(*take("chain", "alpha", str(DEFAULT_RATE))),
            beta=_parse_float(*take("chain", "beta", str(DEFAULT_RATE))),
            include_field_phase=_parse_bool(*take("chain", "include_field_phase", "false")),
        )
    except InvalidSpecError as exc:
        raise ValidationError(str(exc)) from exc
    if chain.n_sites < 3:
        raise ValidationError("experiment configs need n >= 3")

    # --- protocol ---
    kind_raw, kind_line = take("protocol", "kind")
    if kind_raw is None:
        raise ValidationError("[protocol] kind is required")
    try:
        kind = ProtocolKind(kind_raw.strip().lower())
    except ValueError:
        raise ParseError(kind_line, f"unknown protocol kind {kind_raw!r}")
    m_raw, m_line = take("protocol", "m")
    if m_raw is None:
        raise ValidationError("[protocol] m is required")
    dist_raw, dist_line = take("protocol", "dist")
    if dist_raw is None:
        raise ValidationError("[protocol] dist is required")
    try:
        dist = IntervalDistribution.from_literal(dist_raw)
    except ValueError as exc:
        raise ParseError(dist_line, str(exc))
    coupling_raw, c_line = take("protocol", "coupling")
    fields = dict(
        kind=kind,
        num_intervals=_parse_int(m_raw, m_line),
        distribution=dist,
        pulse_area=_parse_float(*take("protocol", "pulse_area", str(np.pi / 2))),
        coupling=None if coupling_raw is None else _parse_float(coupling_raw, c_line),
        bernoulli=_parse_bool(*take("protocol", "bernoulli", "false")),
    )
    try:
        protocol = ProtocolConfig(**fields)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if kind in (ProtocolKind.PULSED, ProtocolKind.CONTINUOUS):
        if chain.subspace_size + 2 > chain.n_sites:
            raise ValidationError(
                "SubspaceTooLarge: coherent protocols need lambda + 2 <= n"
            )

    # --- experiment ---
    state_raw, state_line = take("experiment", "initial_state", "wstate")
    state_kind = state_raw.strip().lower()
    if state_kind not in ("wstate", "leftmost", "custom"):
        raise ParseError(state_line, f"unknown initial_state {state_raw!r}")
    amplitudes = None
    if state_kind == "custom":
        amp_raw, amp_line = take("experiment", "amplitudes")
        if amp_raw is None:
            raise ValidationError("custom initial_state needs an amplitudes key")
        try:
            values = ast.literal_eval(amp_raw)
            amplitudes = tuple(complex(v) for v in values)
        except (ValueError, SyntaxError) as exc:
            raise ParseError(amp_line, f"bad amplitudes literal: {exc}")

    lambda_sweep = None
    ls_raw, ls_line = take("experiment", "lambda_sweep")
    if ls_raw is not None:
        try:
            lambda_sweep = tuple(int(v) for v in ls_raw.split(","))
        except ValueError:
            raise ParseError(ls_line, f"bad lambda_sweep {ls_raw!r}")
        for lam in lambda_sweep:
            if not (1 <= lam <= chain.n_sites):
                raise ValidationError(f"lambda_sweep value {lam} outside [1, n]")

    kappa_sweep = None
    ks_raw, ks_line = take("experiment", "kappa_sweep")
    if ks_raw is not None:
        try:
            triples = [t.strip() for t in ks_raw.split(";") if t.strip()]
            kappa_sweep = tuple(
                tuple(float(x) for x in ast.literal_eval(t)) for t in triples
            )
        except (ValueError, SyntaxError):
            raise ParseError(ks_line, f"bad kappa_sweep {ks_raw!r}")
        for p1, mu1, mu2 in kappa_sweep:
            if not (0 < p1 <= 1 and mu1 > 0 and mu2 > 0):
                raise ValidationError(f"bad kappa_sweep entry ({p1}, {mu1}, {mu2})")

    return ExperimentConfig(
        chain=chain,
        protocol=protocol,
        initial_state=InitialStateSpec(kind=state_kind, amplitudes=amplitudes),
        realizations=_parse_int(*take("experiment", "realizations", "1")),
        seed=_parse_int(*take("experiment", "seed", "0")),
        output_path=take("experiment", "output_path", "out")[0],
        lambda_sweep=lambda_sweep,
        kappa_sweep=kappa_sweep,
    )


def _parse_int(raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {raw!r}")


def _parse_float(raw: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(line_no, f"expected a number, got {raw!r}")
