"""Line-based experiment configuration.

Format: ``key = value`` lines under ``[chain]``, ``[protocol]`` and
``[experiment]`` section headers; ``#`` starts a comment.  Distributions use
the literal form ``dist = [(1.0, 0.5), (5.0, 0.5)]`` (us, probability).
``SCHEMA`` lists every key with its parser and default.  Each value is
parsed on its line, and ``ExperimentConfig`` builds every sweep point once
when it is constructed, so a config that parses (or is built in Python) runs.

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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .chain import DEFAULT_RATE, ChainSpec, leftmost_excited, w_state
from .protocols import ProtocolConfig, ProtocolKind, _check_initial_state
from .stochastics import IntervalDistribution, check_ensemble


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
        with np.errstate(over="ignore"):  # a sum of squares beyond any float: norm = inf
            norm = np.linalg.norm(amps)
        if not (0 < norm < np.inf):
            raise ValidationError(f"custom state needs a finite nonzero norm, got {norm}")
        amps /= norm  # normalized on load
        return _check_initial_state(amps, spec.subspace_size)


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
        """Check each sweep point by building it: a config that constructs also runs."""
        # the coupling needs sites lambda + 1 and + 2; at lambda = n nothing can leak
        need = 1 if self.protocol.kind is ProtocolKind.PROJECTIVE else 2
        try:
            check_ensemble(self.realizations, self.seed)
            for spec, _, _ in self.sweep_points():
                if spec.subspace_size + need > spec.n_sites:
                    kind = self.protocol.kind.value
                    raise ValueError(f"SubspaceTooLarge: {kind} protocols need lambda + {need} <= n")
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    def sweep_points(self):
        """(spec, psi0, protocol) per sweep point: the base configuration, then each
        lambda_sweep value, then each kappa_sweep triple; a repeated value (or the
        base lambda) is run once, where it is first seen."""
        lambdas = dict.fromkeys((self.chain.subspace_size, *(self.lambda_sweep or ())))
        for lam in lambdas:
            spec = replace(self.chain, subspace_size=lam)
            yield spec, self.initial_state.resolve(spec), self.protocol
        psi0 = self.initial_state.resolve(self.chain)
        for p1, mu1, mu2 in dict.fromkeys(self.kappa_sweep or ()):
            d = IntervalDistribution.bimodal(mu1, mu2, p1)
            yield self.chain, psi0, replace(self.protocol, distribution=d)


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError("expected a boolean")
    return raw.lower() in ("true", "1", "yes", "on")


def _initial_state(raw: str) -> str:
    if raw.lower() not in ("wstate", "leftmost", "custom"):
        raise ValueError("expected wstate, leftmost or custom")
    return raw.lower()


def _kappa_sweep(raw: str) -> tuple[tuple[float, float, float], ...]:
    triples = [ast.literal_eval(t.strip()) for t in raw.split(";") if t.strip()]
    return tuple((float(p1), float(mu1), float(mu2)) for p1, mu1, mu2 in triples)


REQUIRED = object()

# section -> key -> (parser of the value text, default or REQUIRED)
SCHEMA = {
    "chain": {
        "n": (int, REQUIRED),
        "lambda": (int, REQUIRED),
        "beta": (float, DEFAULT_RATE),
    },
    "protocol": {
        "kind": (lambda raw: ProtocolKind(raw.lower()), REQUIRED),
        "m": (int, REQUIRED),
        "dist": (IntervalDistribution.from_literal, REQUIRED),
        "pulse_area": (float, np.pi / 2),
        "coupling": (float, None),
        "bernoulli": (_bool, False),
    },
    "experiment": {
        "initial_state": (_initial_state, "wstate"),
        "amplitudes": (lambda raw: tuple(complex(v) for v in ast.literal_eval(raw)), None),
        "realizations": (int, 1),
        "seed": (int, 0),
        "output_path": (str, "out"),
        "lambda_sweep": (lambda raw: tuple(int(v) for v in raw.split(",")), None),
        "kappa_sweep": (_kappa_sweep, None),
    },
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; errors carry the offending line number."""
    values: dict[str, dict] = {section: {} for section in SCHEMA}
    current: Optional[str] = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in SCHEMA:
                raise ParseError(line_no, f"unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ParseError(line_no, "key outside of any section")
        if "=" not in line:
            raise ParseError(line_no, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in SCHEMA[current]:
            raise ParseError(line_no, f"unknown key {key!r} in [{current}]")
        if key in values[current]:
            raise ParseError(line_no, f"duplicate key {key!r}")
        try:
            values[current][key] = SCHEMA[current][key][0](value)
        except (ValueError, TypeError, SyntaxError) as exc:
            raise ParseError(line_no, f"bad {key} {value!r}: {exc}") from exc

    for section, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            if key not in values[section]:
                if default is REQUIRED:
                    raise ValidationError(f"[{section}] {key} is required")
                values[section][key] = default

    c, p, e = (values[section] for section in SCHEMA)
    custom = e["initial_state"] == "custom"
    try:
        if c["n"] < 3:
            raise ValueError("experiment configs need n >= 3")
        if custom and e["amplitudes"] is None:
            raise ValueError("custom initial_state needs an amplitudes key")
        config = ExperimentConfig(
            chain=ChainSpec(
                n_sites=c["n"],
                subspace_size=c["lambda"],
                beta=c["beta"],
            ),
            protocol=ProtocolConfig(
                kind=p["kind"],
                num_intervals=p["m"],
                distribution=p["dist"],
                pulse_area=p["pulse_area"],
                coupling=p["coupling"],
                bernoulli=p["bernoulli"],
            ),
            initial_state=InitialStateSpec(e["initial_state"], e["amplitudes"] if custom else None),
            realizations=e["realizations"],
            seed=e["seed"],
            output_path=e["output_path"],
            lambda_sweep=e["lambda_sweep"],
            kappa_sweep=e["kappa_sweep"],
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return config
