import contextlib
import csv
import dataclasses
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain.cli import main as cli_main
from zenochain.config import SCHEMA, ParseError, ValidationError, parse_config
from zenochain.protocols import ProtocolKind

MINIMAL = """
[chain]
n = 12
lambda = 5

[protocol]
kind = projective
m = 100
dist = [(1.0, 0.5), (5.0, 0.5)]

[experiment]
initial_state = wstate
realizations = 4
seed = 77
"""


class TestParse:
    def test_minimal_valid(self):
        config = parse_config(MINIMAL)
        assert config.chain.n_sites == 12
        assert config.chain.subspace_size == 5
        assert config.protocol.kind is ProtocolKind.PROJECTIVE
        assert config.protocol.num_intervals == 100
        assert config.protocol.distribution.atoms == ((1.0, 0.5), (5.0, 0.5))
        assert config.realizations == 4
        assert config.seed == 77

    def test_subspace_too_large_for_pulsed(self):
        text = MINIMAL.replace("lambda = 5", "lambda = 11").replace(
            "kind = projective", "kind = pulsed"
        )
        with pytest.raises(ValidationError, match="SubspaceTooLarge"):
            parse_config(text)

    def test_projective_allows_full_lambda_range(self):
        text = MINIMAL.replace("lambda = 5", "lambda = 11")
        config = parse_config(text)
        assert config.chain.subspace_size == 11

    def test_duplicate_key_reports_later_line(self):
        text = MINIMAL.replace("lambda = 5", "lambda = 5\nlambda = 6")
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "duplicate" in str(err.value)
        # the later of the two lambda lines is the one reported
        assert err.value.line_no == 5

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_config(MINIMAL + "\n[chain]\nfrobnicate = 1\n")

    @pytest.mark.parametrize("line", ["alpha = 0.7", "include_field_phase = true"])
    def test_field_phase_keys_are_unknown(self, line):
        # in the single-excitation sector the field term is a global phase
        with pytest.raises(ParseError, match="unknown key"):
            parse_config(MINIMAL.replace("lambda = 5", "lambda = 5\n" + line))

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_config("[nope]\nx = 1\n" + MINIMAL)

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match="outside"):
            parse_config("n = 12\n" + MINIMAL)

    def test_bad_distribution_literal(self):
        text = MINIMAL.replace("dist = [(1.0, 0.5), (5.0, 0.5)]", "dist = [(1.0, 0.7)]")
        with pytest.raises(ParseError):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n" + MINIMAL.replace(
            "n = 12", "n = 12  # sites"
        )
        assert parse_config(text).chain.n_sites == 12

    def test_custom_state_normalized(self):
        text = MINIMAL.replace(
            "initial_state = wstate",
            "initial_state = custom\namplitudes = [3.0, 4.0]",
        )
        config = parse_config(text)
        psi = config.initial_state.resolve(config.chain)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs(psi[0] - 0.6) <= 1e-12
        assert abs(psi[1] - 0.8) <= 1e-12

    def test_duplicate_across_reopened_section(self):
        text = MINIMAL + "\n[experiment]\nseed = 78\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(text)

    def test_lambda_sweep_valid(self):
        text = MINIMAL.replace("seed = 77", "seed = 77\nlambda_sweep = 1,2,3")
        assert parse_config(text).lambda_sweep == (1, 2, 3)

    def test_kappa_sweep(self):
        text = MINIMAL.replace(
            "seed = 77", "seed = 77\nkappa_sweep = (0.8, 1.0, 11.0); (1.0, 3.0, 3.0)"
        )
        config = parse_config(text)
        assert config.kappa_sweep == ((0.8, 1.0, 11.0), (1.0, 3.0, 3.0))

    def test_three_site_minimum(self):
        text = MINIMAL.replace("n = 12", "n = 2").replace("lambda = 5", "lambda = 1")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_pulse_area_and_coupling_overrides(self):
        text = MINIMAL.replace(
            "kind = projective", "kind = continuous\ncoupling = 0.25"
        )
        config = parse_config(text)
        assert config.protocol.coupling == 0.25
        assert config.protocol.effective_coupling() == 0.25

    def test_bad_value_reports_its_own_line(self):
        # parsed on read: a bad value is named before any missing key
        with pytest.raises(ParseError) as err:
            parse_config("[protocol]\nkind = projective\nm = many\n")
        assert err.value.line_no == 3

    def test_amplitudes_parsed_whatever_the_initial_state(self):
        with pytest.raises(ParseError, match="amplitudes"):
            parse_config(MINIMAL + "amplitudes = [1, \n")
        config = parse_config(MINIMAL + "amplitudes = [1, 1]\n")
        assert config.initial_state.amplitudes is None

    def test_sweep_points_in_order(self):
        text = MINIMAL.replace(
            "seed = 77", "seed = 77\nlambda_sweep = 5,2\nkappa_sweep = (1.0, 3.0, 3.0)"
        )
        points = list(parse_config(text).sweep_points())
        assert [spec.subspace_size for spec, _, _ in points] == [5, 2, 5]
        assert [np.count_nonzero(psi0) for _, psi0, _ in points] == [5, 2, 5]
        assert points[-1][2].distribution.atoms == ((3.0, 1.0),)

    def test_repeated_sweep_values_run_once(self):
        text = MINIMAL.replace(
            "seed = 77",
            "seed = 77\nlambda_sweep = 3,5,3,2,2\n"
            "kappa_sweep = (1.0, 3.0, 3.0); (0.8, 1.0, 11.0); (1.0, 3.0, 3.0)",
        )
        points = list(parse_config(text).sweep_points())
        assert [spec.subspace_size for spec, _, _ in points] == [5, 3, 2, 5, 5]
        assert [p.distribution.atoms[0][0] for _, _, p in points[3:]] == [3.0, 1.0]

    def test_config_built_in_python_walks_its_sweep(self):
        pulsed = parse_config(
            MINIMAL.replace("n = 12", "n = 8").replace("lambda = 5", "lambda = 2")
            .replace("kind = projective", "kind = pulsed")
        )
        with pytest.raises(ValidationError, match="lambda \\+ 2 <= n"):
            dataclasses.replace(pulsed, lambda_sweep=(7,))
        with pytest.raises(ValidationError):
            dataclasses.replace(pulsed, kappa_sweep=((1.5, 3.0, 3.0),))
        assert dataclasses.replace(pulsed, lambda_sweep=(6,)).lambda_sweep == (6,)

    @pytest.mark.parametrize("change", [("lambda = 5", "lambda = 12"),
                                        ("seed = 77", "seed = 77\nlambda_sweep = 3,12")])
    def test_lambda_equal_to_n_is_a_config_error(self, tmp_path, capsys, change):
        # at lambda = n nothing can leak, yet compare read a relative deviation of
        # 1.0 against ln P* = -1.38 and theory.csv a pstar_time_avg of 0.25
        cfg = tmp_path / "full.cfg"
        cfg.write_text(MINIMAL.replace(*change))
        for command in ("simulate", "theory", "compare"):
            assert cli_main([command, str(cfg), "--out-dir", str(tmp_path / command)]) == 2
            assert "projective protocols need lambda + 1 <= n" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(
        "sweep", ["lambda_sweep = 2,13", "lambda_sweep = 0", "kappa_sweep = (1.5, 3.0, 3.0)",
                  "kappa_sweep = (1.0, 3.0, -1.0)"],
    )
    def test_every_sweep_point_checked_at_parse_time(self, sweep):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL.replace("seed = 77", "seed = 77\n" + sweep))


def test_readme_config_block_sets_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("```\n[chain]") + 4
    block = readme[start : readme.index("```", start)]
    parse_config(block)
    keys, section = set(), None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            keys.add((section, line.partition("=")[0].strip()))
    assert keys == {(section, key) for section in SCHEMA for key in SCHEMA[section]}


# Every SCHEMA key has moderate values and wild ones: the whole double range
# (subnormals, the beta^2 and mu^3 limits, inf, nan), malformed text or no
# line at all.  A config draws up to three keys wild.  The keys that size
# memory are capped: n <= 8, m <= 30, realizations <= 3, and at most three
# lambda_sweep values and kappa_sweep triples.
MALFORMED = st.sampled_from(["", "x", "1.5.", "[", "((1, 2)", "None", "--1", "1e", "[(1.0,)]",
                             "[]", "()", "nan", "-inf", "True", "0x10", "1 2", "[(1, 0.5), 3]"])
EDGES = st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e-170, 1e-150, 1.34e154 * 1.01, 1e160,
                         1e100, 1e120, 1.7976931348623157e308, -1.0])
WILD = st.floats() | st.floats(min_value=5e-324, max_value=1.7976931348623157e308) | EDGES


def _dist(values, probabilities=None):
    def pairs(mus):
        equal = st.just([1 / len(mus)] * len(mus))
        if probabilities is not None:
            equal |= st.lists(probabilities, min_size=len(mus), max_size=len(mus))
        return equal.map(lambda probs: repr(list(zip(mus, probs))))

    return st.lists(values, min_size=1, max_size=3, unique=True).flatmap(pairs)


def _triples(values):
    return st.lists(st.tuples(values, values, values), min_size=1, max_size=3).map(
        lambda triples: "; ".join(map(repr, triples)))


def _amplitudes(values):
    return st.lists(st.builds(complex, values, values), min_size=1, max_size=9).map(repr)


# section -> key -> (moderate values, wild values), each the text after "key ="
FUZZ_SCHEMA = {
    "chain": {
        "n": (st.integers(3, 8), st.integers(-2, 2)),
        "lambda": (st.integers(1, 4), st.integers(-1, 10)),
        "beta": (st.floats(1e-3, 1.0), WILD),
    },
    "protocol": {
        "kind": (st.sampled_from(["projective", "pulsed", "continuous"]), st.just("zeno")),
        "m": (st.integers(1, 30), st.integers(-1, 0)),
        "dist": (_dist(st.floats(0.05, 10.0)), _dist(WILD, WILD)),
        "pulse_area": (st.floats(0.1, 10.0), WILD),
        "coupling": (st.floats(0.01, 10.0), WILD),
        "bernoulli": (st.just("false"), st.sampled_from(["true", "maybe"])),
    },
    "experiment": {
        "initial_state": (st.sampled_from(["wstate", "leftmost", "custom"]), st.just("bogus")),
        "amplitudes": (_amplitudes(st.floats(-1.0, 1.0)), _amplitudes(WILD)),
        "realizations": (st.integers(1, 3), st.integers(-1, 0)),
        "seed": (st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70)),
        "output_path": (st.just("ignored"), st.just("ignored")),  # --out-dir overrides it
        "lambda_sweep": (st.lists(st.integers(1, 8), min_size=1, max_size=3).map(
            lambda lams: ",".join(map(str, lams))), st.integers(-1, 0)),
        "kappa_sweep": (_triples(st.floats(0.05, 1.0)), _triples(WILD)),
    },
}


@st.composite
def fuzzed_configs(draw):
    """Config text: every key moderate but up to three wild, malformed or left out."""
    keys = [(section, key) for section, keys in FUZZ_SCHEMA.items() for key in keys]
    wild = draw(st.sets(st.sampled_from(keys), max_size=3))
    lines = []
    for section, keys in FUZZ_SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (moderate, extreme) in keys.items():
            if (section, key) not in wild:
                lines.append(f"{key} = {draw(moderate)}")
            elif draw(st.integers(0, 3)) < 3:  # else the line is left out
                lines.append(f"{key} = {draw(extreme.map(str) | MALFORMED)}")
    return "\n".join(lines) + "\n"


class TestConfigFuzz:
    def test_fuzz_schema_covers_every_key(self):
        assert {s: set(k) for s, k in FUZZ_SCHEMA.items()} == {s: set(k) for s, k in SCHEMA.items()}

    def test_amplitudes_whose_squares_overflow_are_a_config_error(self, tmp_path, capsys):
        # the norm of [1e200, 1] overflows: a config error, not a RuntimeWarning
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(MINIMAL.replace("initial_state = wstate",
                                       "initial_state = custom\namplitudes = [1e200, 1]"))
        for command in ("simulate", "theory", "compare"):
            assert cli_main([command, str(cfg), "--out-dir", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err.startswith("config error: custom state needs a finite")
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("protocol", ["kind = pulsed\npulse_area = 1.7976931348623157e308",
                                          "kind = continuous\ncoupling = 1e307"])
    def test_phases_beyond_any_float_are_a_config_error(self, tmp_path, capsys, protocol):
        # exp(-i E t) of an overflowing phase wrote nan cells with exit 0
        cfg = tmp_path / "phase.cfg"
        cfg.write_text(MINIMAL.replace("kind = projective", protocol))
        for command in ("simulate", "theory", "compare"):
            assert cli_main([command, str(cfg), "--out-dir", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err.startswith("config error:")
            assert not (tmp_path / command).exists()

    @settings(max_examples=100, deadline=None)
    @given(text=fuzzed_configs())
    def test_every_config_runs_or_names_its_error(self, text):
        # simulate, theory and compare: exit 0 with every CSV cell finite or
        # blank (labels aside), or exit 2 with a config error; never raise
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_text(text, encoding="utf-8")
            for command in ("simulate", "theory", "compare"):
                out, err = Path(tmp) / command, io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli_main([command, str(cfg), "--out-dir", str(out), "--reproducible"])
                assert rc in (0, 2), (command, rc, err.getvalue())
                if rc == 2:
                    assert err.getvalue().startswith("config error:"), err.getvalue()
                    continue
                for path in out.glob("*.csv"):
                    for row in csv.reader(path.read_text(encoding="utf-8").splitlines()[1:]):
                        for cell in row:
                            try:
                                value = float(cell)
                            except ValueError:  # a blank cell or a label
                                continue
                            assert np.isfinite(value), (command, path.name, row)
