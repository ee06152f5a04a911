import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenochain import cli, experiments, linalg, protocols
from zenochain.analysis import aggregate, ensemble_fidelities, final_fidelities
from zenochain.chain import ChainSpec, leftmost_excited, w_state, zeno_hamiltonian
from zenochain.cli import main as cli_main
from zenochain.config import parse_config
from zenochain.experiments import (
    kappa_family,
    preset_fig5,
    run_ensemble,
    run_experiment,
    run_three_level,
    scaling_sweep,
    write_csv,
    write_theory_csv,
)
from zenochain.protocols import (
    ProtocolConfig,
    ProtocolKind,
    Trajectory,
    run_lockstep,
    run_projective,
    run_pulsed,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler, moments
from zenochain.theory import edge_time_average, pstar_weak

from helpers import loop_fig5, scalar_write_csv

CONFIG = """
[chain]
n = 12
lambda = 2

[protocol]
kind = projective
m = 60
dist = [(1.0, 0.5), (5.0, 0.5)]

[experiment]
initial_state = wstate
realizations = 3
seed = 4242
"""


DIST = "dist = [(1.0, 0.5), (5.0, 0.5)]"
WSTATE = "initial_state = wstate"
CUSTOM = "initial_state = custom\namplitudes = "


def read_csv(path):
    """Header and rows, past the ``# generated`` line if the file has one."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(fh)
    if lines and lines[0].startswith("# generated"):
        lines = lines[1:]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestRunExperiment:
    def test_emits_expected_files(self, tmp_path):
        config = parse_config(CONFIG)
        result = run_experiment(config, out_dir=tmp_path, reproducible=True)
        names = set(result["files"])
        assert {"trajectory_r0.csv", "trajectory_r1.csv", "trajectory_r2.csv",
                "summary.csv", "theory.csv"} <= names

    def test_trajectory_columns(self, tmp_path):
        config = parse_config(CONFIG)
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(tmp_path / "trajectory_r0.csv")
        assert header == ["step", "t_us", "mu_us", "q_j", "P_cum", "pop_subspace"]
        assert len(rows) == 60
        assert rows[0][0] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(CONFIG)
        run_experiment(config, out_dir=tmp_path / "a", reproducible=True)
        run_experiment(config, out_dir=tmp_path / "b", reproducible=True)
        for name in ("trajectory_r0.csv", "summary.csv", "theory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_timestamp_header_suppressed_only_when_reproducible(self, tmp_path):
        config = parse_config(CONFIG)
        run_experiment(config, out_dir=tmp_path / "stamped", reproducible=False)
        run_experiment(config, out_dir=tmp_path / "clean", reproducible=True)
        stamped = (tmp_path / "stamped" / "summary.csv").read_text()
        clean = (tmp_path / "clean" / "summary.csv").read_text()
        assert stamped.startswith("# generated")
        assert not clean.startswith("#")

    def test_theory_columns_recomputable(self, tmp_path):
        config = parse_config(CONFIG)
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(tmp_path / "theory.csv")
        row = dict(zip(header, rows[0]))
        m = float(row["m"])
        beta = float(row["beta"])
        kappa = float(row["kappa"])
        mean = float(row["mu_mean"])
        recomputed_avg = np.exp(-m * beta**2 * float(row["c2_time_avg"]) * (1 + kappa) * mean**2)
        recomputed_const = np.exp(-m * beta**2 * float(row["c2_eigen"]) * (1 + kappa) * mean**2)
        assert abs(recomputed_avg - float(row["pstar_time_avg"])) <= 1e-12
        assert abs(recomputed_const - float(row["pstar_const"])) <= 1e-12

    def test_summary_columns(self, tmp_path):
        config = parse_config(CONFIG)
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == ["lambda", "protocol", "F", "P_final", "pstar_theory",
                          "kappa", "m", "mu_mean"]
        row = dict(zip(header, rows[0]))
        assert row["protocol"] == "projective"
        assert 0.0 < float(row["F"]) <= 1.0

    def test_lambda_sweep_adds_rows(self, tmp_path):
        text = CONFIG.replace("seed = 4242", "seed = 4242\nlambda_sweep = 1,2,3")
        config = parse_config(text)
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        _, rows = read_csv(tmp_path / "summary.csv")
        assert [r[0] for r in rows] == ["2", "1", "3"]

    def test_kappa_sweep_adds_rows(self, tmp_path):
        text = CONFIG.replace(
            "seed = 4242", "seed = 4242\nkappa_sweep = (1.0, 3.0, 3.0); (0.8, 1.0, 11.0)"
        )
        config = parse_config(text)
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(tmp_path / "summary.csv")
        kappas = [float(r[header.index("kappa")]) for r in rows]
        assert abs(kappas[1] - 0.0) <= 1e-12
        assert abs(kappas[2] - 16.0 / 9.0) <= 1e-12

    @pytest.mark.parametrize("write", [run_experiment, write_theory_csv])
    def test_theory_rows_equal_direct_calls(self, tmp_path, write):
        # three sweep points: each theory row holds the eigenstate weight, the
        # edge time average and both P* of its own point, computed directly
        # (leftmost start: its edge weight moves, so the two weights differ)
        text = CONFIG.replace(
            "seed = 4242", "seed = 4242\nkappa_sweep = (0.5, 2.0, 4.0); (0.5, 0.5, 5.5)"
        ).replace(WSTATE, "initial_state = leftmost")
        config = parse_config(text)
        write(config, out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(tmp_path / "theory.csv")
        assert len(rows) == 3 and len({r[3] for r in rows}) == 3  # three kappas
        for row, (spec, psi0, protocol) in zip(rows, config.sweep_points()):
            d, m = protocol.distribution, protocol.num_intervals
            c2_eigen = experiments._eigenstate_edge_weight(spec, psi0)
            c2_avg = edge_time_average(spec, psi0, *experiments._edge_grid(d, m))
            expected = (c2_eigen, c2_avg, pstar_weak(m, d, spec.beta**2 * c2_eigen).pstar,
                        pstar_weak(m, d, spec.beta**2 * c2_avg).pstar)
            assert row[header.index("c2_eigen"):] == ["%.15g" % v for v in expected]

    @pytest.mark.parametrize("psi0", [w_state(6, 6), leftmost_excited(6)], ids=["wstate", "leftmost"])
    def test_no_leak_predicted_at_lambda_equal_to_n(self, psi0):
        # lambda = n has no boundary bond: the variance is 0, as
        # theory.variance_h_pi reads, though the edge weights are not
        spec, d = ChainSpec(6, 6), IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        row, pred = experiments._theory_row(spec, psi0, ProtocolConfig(ProtocolKind.PROJECTIVE, 500, d))
        cells = dict(zip(experiments.THEORY_HEADER, row))
        assert cells["c2_eigen"] > 0 and cells["c2_time_avg"] > 0
        assert cells["pstar_const"] == cells["pstar_time_avg"] == pred.pstar == 1
        assert np.all(experiments._predicted_staircase(spec, psi0, d, np.arange(1, 50)) == 1)

    def test_continuous_protocol_runs_once_per_distinct_mean(self, tmp_path, monkeypatch):
        # the base law and two kappa_sweep triples share the mean 3.0: one
        # continuous run serves all three summary rows, as each would alone
        text = CONFIG.replace("kind = projective", "kind = continuous").replace(
            "seed = 4242", "seed = 4242\nkappa_sweep = (0.5, 2.0, 4.0); (0.5, 0.5, 5.5)"
        )
        config = parse_config(text)
        alone = []
        for spec, psi0, protocol in config.sweep_points():
            finals, fids = run_ensemble(spec, psi0, protocol, config.realizations, config.seed)
            alone.append(["%.15g" % fids[0], "%.15g" % finals.final_survival[0]])
        total_times = []
        run = protocols.run_continuous

        def counted(*args, **kwargs):
            total_times.append(kwargs["total_time"])
            return run(*args, **kwargs)

        monkeypatch.setattr(protocols, "run_continuous", counted)
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        assert total_times == [180.0]
        header, rows = read_csv(tmp_path / "summary.csv")
        assert [r[header.index("F") : header.index("F") + 2] for r in rows] == alone
        assert len({r[header.index("kappa")] for r in rows}) == 3

    def test_sweep_points_after_the_first_run_one_kernel_pass_per_group(self, tmp_path, monkeypatch):
        # the base point runs alone, step by step.  The lambda = 3 point has a
        # chain of its own, so a pass of its own; the kappa points share the
        # base chain and its word length (L = 4): the one-atom law (1.0, 3.0,
        # 3.0), one column, and the two bimodal laws run in one pass
        text = CONFIG.replace("seed = 4242", "seed = 4242\nlambda_sweep = 3\n"
                              "kappa_sweep = (1.0, 3.0, 3.0); (0.8, 2.0, 7.0); (0.5, 0.5, 5.5)")
        config = parse_config(text)
        alone = [run_ensemble(*point, config.realizations, config.seed)
                 for point in list(config.sweep_points())[1:]]
        passes = []  # (laws, columns) of each pass
        lockstep = protocols._lockstep
        monkeypatch.setattr(protocols, "_lockstep", lambda spec, psi0, laws, samplers, *a:
                            passes.append((len(laws), sum(map(len, samplers))))
                            or lockstep(spec, psi0, laws, samplers, *a))
        run_experiment(config, out_dir=tmp_path, reproducible=True)
        assert passes == [(1, 3), (1, 3), (3, 7)]
        header, rows = read_csv(tmp_path / "summary.csv")
        at = header.index("F")
        assert [r[at : at + 2] for r in rows[1:]] == [
            ["%.15g" % np.mean(fids), "%.15g" % np.mean(finals.final_survival)]
            for finals, fids in alone
        ]

    @pytest.mark.parametrize(
        "text",
        [CONFIG, CONFIG.replace("lambda = 2", "lambda = 1")
         .replace("m = 60", "m = 400\nbernoulli = true")
         .replace(WSTATE, "initial_state = leftmost")],
        ids=["post-selected", "bernoulli"],
    )
    def test_projective_trajectory_leaves_pop_subspace_blank(self, tmp_path, text):
        # the state is renormalized into the subspace, so there is no
        # population series; the other five columns are the run's own
        result = run_experiment(parse_config(text), out_dir=tmp_path, reproducible=True)
        for i, traj in enumerate(result["trajectories"]):
            _, rows = read_csv(tmp_path / f"trajectory_r{i}.csv")
            steps = len(traj.times)
            assert [r[5] for r in rows] == [""] * steps
            want = (traj.times, traj.intervals, traj.survival_factors, traj.cumulative_survival)
            assert [r[0] for r in rows] == [str(k) for k in range(1, steps + 1)]
            for k, column in enumerate(want, start=1):
                assert [r[k] for r in rows] == ["%.15g" % v for v in column]
        if "bernoulli" in text:  # every run of this config aborts
            assert all(t.aborted_at and t.final_survival == 0.0 for t in result["trajectories"])

    @pytest.mark.parametrize("kind", ["pulsed", "continuous"])
    def test_coherent_trajectory_cells(self, tmp_path, kind):
        # two runs of different length in one process, the longer one
        # spanning two write chunks
        for m in (experiments.CHUNK_ROWS + 88, 25):
            text = CONFIG.replace("kind = projective", f"kind = {kind}").replace("m = 60", f"m = {m}")
            result = run_experiment(parse_config(text), out_dir=tmp_path / f"m{m}", reproducible=True)
            for i, traj in enumerate(result["trajectories"]):
                _, rows = read_csv(tmp_path / f"m{m}" / f"trajectory_r{i}.csv")
                assert [r[0] for r in rows] == [str(k) for k in range(1, m + 1)]
                assert [r[3] for r in rows] == [""] * m
                want = (traj.times, traj.intervals, None, traj.cumulative_survival,
                        traj.cumulative_survival)
                for k, column in enumerate(want, start=1):
                    if column is not None:
                        assert [r[k] for r in rows] == ["%.15g" % v for v in column]

    def test_continuous_config_is_one_run(self, tmp_path):
        # the protocol is deterministic: the realization count changes nothing
        text = CONFIG.replace("kind = projective", "kind = continuous")
        names = ["summary.csv", "theory.csv", "trajectory_r0.csv"]
        for r in (3, 1):
            config = replace(parse_config(text), realizations=r)
            result = run_experiment(config, out_dir=tmp_path / f"r{r}", reproducible=True)
            assert result["files"] == names
            assert len(result["trajectories"]) == 1
        for name in names:
            assert (tmp_path / "r3" / name).read_bytes() == (tmp_path / "r1" / name).read_bytes()

    def test_continuous_ensemble_is_scored_once(self):
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=3), w_state(12, 3)
        d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
        config = ProtocolConfig(ProtocolKind.CONTINUOUS, 40, d)
        finals, fids = run_ensemble(spec, psi0, config, 20, seed=4242)
        assert len(finals.final_states) == len(finals.total_times) == len(fids) == 1

    @pytest.mark.parametrize(
        "kind, run_one", [(ProtocolKind.PROJECTIVE, run_projective), (ProtocolKind.PULSED, run_pulsed)]
    )
    def test_realization_independent_of_ensemble_width(self, kind, run_one):
        # realization i alone and inside an R=50 ensemble: bit-identical
        spec = ChainSpec(n_sites=12, subspace_size=3)
        psi0 = w_state(12, 3)
        config = ProtocolConfig(kind, 120, IntervalDistribution.bimodal(1.0, 5.0, 0.5))
        trajs = run_lockstep(spec, psi0, config, [SeededSampler(4242).spawn(i) for i in range(50)])
        for i in (0, 1, 23, 49):
            alone = run_one(spec, psi0, config, SeededSampler(4242).spawn(i))
            inside = trajs[i]
            assert np.array_equal(alone.intervals, inside.intervals)
            assert np.array_equal(alone.cumulative_survival, inside.cumulative_survival)
            assert np.array_equal(alone.final_state, inside.final_state)
            if kind is ProtocolKind.PROJECTIVE:
                assert np.array_equal(alone.survival_factors, inside.survival_factors)
                assert alone.log_survival == inside.log_survival

    @pytest.mark.parametrize(
        "kind, bernoulli",
        [(ProtocolKind.PROJECTIVE, False), (ProtocolKind.PROJECTIVE, True),
         (ProtocolKind.PULSED, False), (ProtocolKind.CONTINUOUS, False)],
    )
    def test_run_ensemble_scores_as_the_series_path(self, kind, bernoulli):
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=3), leftmost_excited(12)
        config = ProtocolConfig(kind, 90, IntervalDistribution.bimodal(1.0, 5.0, 0.5),
                                bernoulli=bernoulli)
        finals, fids = run_ensemble(spec, psi0, config, 30, seed=17)
        runs = 30 if config.stochastic else 1
        trajs = run_lockstep(spec, psi0, config, [SeededSampler(17).spawn(i) for i in range(runs)])
        assert np.array_equal(fids, ensemble_fidelities(spec, psi0, trajs))
        assert len(fids) == runs and len(finals.final_states) == runs
        if bernoulli:  # the law aborts some runs, not all
            assert 0 < np.count_nonzero(finals.aborted_at) < runs


# any text UTF-8 can encode, as both writers write UTF-8 under any locale; it
# holds the characters csv quoting turns on (comma, quote, CR, LF), NUL and
# multi-byte characters
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e308, -1e308,
               1.7976931348623157e308, 1e15, 999999999999999.9, 1e15 + 0.5, 1e16,
               9999999999999998.0, 1e16 + 2.0, 0.1 + 0.2, 1.0 / 3.0]
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)


@st.composite
def columns(draw, rows):
    """One column of a given length: Python or numpy values of one type."""
    kind = draw(st.sampled_from(["int", "numpy-int", "bool", "numpy-bool", "float",
                                 "numpy-float", "float32", "str", "numpy-str"]))
    if kind == "numpy-int":
        dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint16, np.uint64]))
        info = np.iinfo(dtype)
        values = draw(st.lists(st.integers(int(info.min), int(info.max)),
                               min_size=rows, max_size=rows))
        return np.array(values, dtype=dtype)
    if kind == "float32":
        values = draw(st.lists(st.floats(width=32), min_size=rows, max_size=rows))
        return np.array(values, dtype=np.float32)
    element = {
        "int": st.integers(-(2**63), 2**63 - 1),
        "bool": st.booleans(),
        "float": FLOATS,
        "str": TEXT,
    }[kind.removeprefix("numpy-")]
    values = draw(st.lists(element, min_size=rows, max_size=rows))
    return np.array(values) if kind.startswith("numpy-") else values


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 8))
    width = draw(st.integers(1, 5))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    return header, [draw(columns(rows)) for _ in range(width)]


def data_lines(path):
    text = path.read_bytes()
    return text.split(b"\r\n", 1)[1] if text.startswith(b"# generated") else text


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=tables(), reproducible=st.booleans())
    def test_matches_the_cell_by_cell_writer(self, tmp_path_factory, table, reproducible):
        header, cols = table
        out = tmp_path_factory.mktemp("csv")
        write_csv(out / "columns.csv", header, cols, reproducible)
        scalar_write_csv(out / "cells.csv", header, zip(*cols), reproducible)
        assert data_lines(out / "columns.csv") == data_lines(out / "cells.csv")
        stamped = (out / "columns.csv").read_bytes().startswith(b"# generated ")
        assert stamped is not reproducible

    @settings(max_examples=100, deadline=None)
    @given(
        ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
        data=st.data(),
        reproducible=st.booleans(),
    )
    def test_round_trip(self, tmp_path_factory, ints, data, reproducible):
        # ints come back exactly; floats agree to 15 significant digits; text
        # reads back whole, also a quoted line break followed by '#'
        rows = len(ints)
        floats = data.draw(st.lists(FLOATS, min_size=rows, max_size=rows))
        texts = data.draw(st.lists(TEXT | st.just("\r#"), min_size=rows, max_size=rows))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, ("i", "x", "s"), (ints, np.array(floats), texts), reproducible)
        header, back = read_csv(path)
        assert header == ["i", "x", "s"]
        assert [int(r[0]) for r in back] == ints
        for (_, cell, _), x in zip(back, floats):
            if math.isnan(x):
                assert math.isnan(float(cell))
            elif math.isfinite(x) and math.isinf(float(f"{x:.15g}")):
                # rounded to 15 digits, the largest doubles pass the double
                # range and read back as infinite
                assert float(cell) == math.copysign(math.inf, x)
            else:
                assert math.isclose(float(cell), x, rel_tol=5e-15 + 2**-52, abs_tol=5e-324)
        assert [r[2] for r in back] == texts

    def test_unequal_columns_are_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            write_csv(tmp_path / "t.csv", ("a", "b"), ([1, 2, 3], [0.5, 0.25]))
        with pytest.raises(ValueError, match="header fields"):
            write_csv(tmp_path / "t.csv", ("a", "b"), ([1, 2],))
        assert not (tmp_path / "t.csv").exists()

    def test_str_and_path_paths_write_the_same_bytes(self, tmp_path):
        # a str path, a Path and a list of str paths, each into a new directory
        header, cols = ("a", "x"), ([1, 2], [0.5, -1e-9])
        write_csv(tmp_path / "p" / "t.csv", header, cols, reproducible=True)
        write_csv(str(tmp_path / "s" / "t.csv"), header, cols, reproducible=True)
        write_csv([str(tmp_path / "l" / f"{i}.csv") for i in range(2)], header, cols,
                  reproducible=True)
        written = [(tmp_path / name).read_bytes() for name in ("p/t.csv", "s/t.csv", "l/0.csv", "l/1.csv")]
        assert written == [b"a,x\r\n1,0.5\r\n2,-1e-09\r\n"] * 4

    def test_zero_rows_write_the_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ("a", "b"), ([], np.array([])), reproducible=True)
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"

    def test_a_column_passed_twice_is_formatted_once(self, tmp_path, monkeypatch):
        formatted = []  # (block formatter, values) of each numeric block made text

        def counting(real):
            def cells_of(values, *args):
                formatted.append((real.__name__, values.tolist()))
                return real(values, *args)
            return cells_of

        for name in ("_int_cells", "_float_cells"):
            monkeypatch.setattr(experiments, name, counting(getattr(experiments, name)))
        pops = np.array([0.25, 1.0 / 3.0, 1e-300])
        steps = np.arange(1, 4)
        header = ("step", "P_cum", "pop_subspace")
        write_csv(tmp_path / "t.csv", header, (steps, pops, pops), reproducible=True)
        # pops is the one float column, formatted once for both its fields
        assert formatted == [("_int_cells", [1, 2, 3]), ("_float_cells", pops.tolist())]
        scalar_write_csv(tmp_path / "s.csv", header, zip(steps, pops, pops), reproducible=True)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

        # three files: the shared steps are made text once per pass, not
        # once per file, and the per-file pops once for both their fields
        formatted.clear()
        per_file = [pops, 2 * pops, pops / 3]
        paths = [tmp_path / f"f{i}.csv" for i in range(3)]
        write_csv(paths, header, (steps, per_file, per_file), reproducible=True)
        assert formatted == [("_int_cells", [1, 2, 3]),
                             ("_float_cells", np.concatenate(per_file).tolist())]
        for path, p in zip(paths, per_file):
            scalar_write_csv(tmp_path / "s.csv", header, zip(steps, p, p), reproducible=True)
            assert path.read_bytes() == (tmp_path / "s.csv").read_bytes()

        # a pass holds CHUNK_ROWS rows in total: 3 files of 2 * (CHUNK_ROWS // 3)
        # + 5 rows take 3 passes, CHUNK_ROWS // 3 rows of each file in the
        # first two and 5 in the last, the shared column formatted once in each
        formatted.clear()
        per = experiments.CHUNK_ROWS // 3
        rows = 2 * per + 5
        long_pops = [np.linspace(0.1, 0.9, rows) * (i + 1) for i in range(3)]
        write_csv(paths, header, (np.arange(1, rows + 1), long_pops, long_pops), reproducible=True)
        ints = [values for name, values in formatted if name == "_int_cells"]
        assert ints == [list(range(1, per + 1)), list(range(per + 1, 2 * per + 1)),
                        list(range(2 * per + 1, rows + 1))]
        floats = [len(values) for name, values in formatted if name == "_float_cells"]
        assert floats == [3 * per, 3 * per, 15]

    @staticmethod
    def per_file_columns(files, rows, seed):
        """Columns of every kind for files of rows rows: shared and per-file,
        as 2-D arrays and as lists, and a column that is whole in some files."""
        rng = np.random.default_rng(seed)
        floats = rng.standard_normal((files, rows)) * 10.0 ** rng.integers(-9, 16, (files, rows))
        mixed = [np.arange(rows, dtype=float) - 3.0 + (0.5 if f % 2 else 0.0) for f in range(files)]
        text = [[f"f{f}r{i}" + ("," if i % 5 == 0 else "") for i in range(rows)]
                for f in range(files)]
        cols = (
            np.arange(1, rows + 1),  # shared
            floats,  # 2-D
            [row.copy() for row in floats[:, ::-1]],  # a list of arrays
            mixed,
            [rng.integers(-(10**6), 10**6, rows) for _ in range(files)],
            text,
            ("",) * rows,  # shared blank
            [rng.integers(0, 2, rows).astype(bool) for _ in range(files)],
            rng.uniform(0.0, 1.0, rows),  # shared float
        )
        header = ("step", "x", "x_reversed", "mixed", "i", "s", "blank", "b", "u")
        return header, cols

    @pytest.mark.parametrize("files", [1, 2, 3, 10])
    @pytest.mark.parametrize("passes", [1, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_a_multi_file_call_equals_one_file_calls(self, tmp_path, files, passes, offset):
        # at and around the per-file pass boundary, and across several passes
        rows = passes * (experiments.CHUNK_ROWS // files) + offset
        header, cols = self.per_file_columns(files, rows, seed=rows)
        paths = [tmp_path / "multi" / f"r{i}.csv" for i in range(files)]
        write_csv(paths, header, cols, reproducible=True)
        for f, path in enumerate(paths):
            own = [c[f] if isinstance(c, list) or np.ndim(c) == 2 else c for c in cols]
            write_csv(tmp_path / "one.csv", header, own, reproducible=True)
            assert path.read_bytes() == (tmp_path / "one.csv").read_bytes()
        if files == 3 and passes == 1 and offset == 0:
            scalar_write_csv(tmp_path / "s.csv", header, zip(*own), reproducible=True)
            assert paths[-1].read_bytes() == (tmp_path / "s.csv").read_bytes()

    @pytest.mark.parametrize("realizations", [1, 2, 3, 10])
    @pytest.mark.parametrize("protocol", ["post-selected", "bernoulli", "pulsed", "continuous"])
    def test_ensemble_trajectories_equal_one_file_calls(self, tmp_path, protocol, realizations):
        # run_experiment writes runs of one length in one call; each run's
        # file equals the one-file call on that run's columns
        m = 2 * (experiments.CHUNK_ROWS // realizations) + 1
        text = CONFIG.replace("m = 60", f"m = {m}").replace("realizations = 3", f"realizations = {realizations}")
        if protocol == "bernoulli":
            text = text.replace("m = ", "bernoulli = true\nm = ").replace(DIST, "dist = [(0.7, 0.5), (2.0, 0.5)]")
        elif protocol != "post-selected":
            text = text.replace("kind = projective", f"kind = {protocol}")
        trajs = run_experiment(parse_config(text), out_dir=tmp_path, reproducible=True)["trajectories"]
        header = ("step", "t_us", "mu_us", "q_j", "P_cum", "pop_subspace")
        for i, traj in enumerate(trajs):
            steps, coherent = len(traj.times), traj.survival_factors is None
            blank = ("",) * steps
            own = (np.arange(1, steps + 1), traj.times, traj.intervals,
                   blank if coherent else traj.survival_factors, traj.cumulative_survival,
                   traj.cumulative_survival if coherent else blank)
            write_csv(tmp_path / "one" / "t.csv", header, own, reproducible=True)
            assert (tmp_path / f"trajectory_r{i}.csv").read_bytes() == (tmp_path / "one" / "t.csv").read_bytes()
        if protocol == "bernoulli" and realizations == 10:  # runs of several lengths
            lengths = [len(t.times) for t in trajs]
            assert m in lengths and len(set(lengths)) > 2

    def test_a_multi_file_call_stamps_every_file(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        write_csv(paths, ("x",), ([[1.5], [2.5]],))
        for path, cell in zip(paths, (b"1.5", b"2.5")):
            text = path.read_bytes()
            assert text.startswith(b"# generated ") and text.endswith(b"\r\nx\r\n" + cell + b"\r\n")

    def test_multi_file_columns_of_unequal_length_raise_before_any_file_exists(self, tmp_path):
        paths = [tmp_path / "out" / f"r{i}.csv" for i in range(3)]
        equal = [np.arange(4.0)] * 3
        bad = [
            (ValueError, "unequal length", [np.arange(4.0), np.arange(3.0), np.arange(4.0)], np.arange(4)),
            (ValueError, "unequal length", equal, np.arange(5)),
            (ValueError, "2 rows for 3 files", [np.arange(4.0)] * 2, np.arange(4)),
            (TypeError, "text in some files", [["a"] * 4, np.arange(4.0), ["b"] * 4], np.arange(4)),
        ]
        for error, message, per_file, shared in bad:
            with pytest.raises(error, match=message):
                write_csv(paths, ("x", "step"), (per_file, shared), reproducible=True)
        with pytest.raises(TypeError, match="dtype"):
            write_csv(paths, ("x", "c"), (equal, [np.zeros(4, complex)] * 3))
        assert not (tmp_path / "out").exists()

    def test_more_files_than_the_open_file_bound(self, tmp_path, monkeypatch):
        # the number of files open at once does not grow with the file count
        open_now, most = set(), [0]

        class Tracked:
            def __init__(self, path, mode):
                self.fh = open(path, mode)
                open_now.add(self)
                most[0] = max(most[0], len(open_now))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                open_now.discard(self)
                self.fh.close()

            def write(self, data):
                return self.fh.write(data)

        monkeypatch.setattr(experiments, "open", Tracked, raising=False)
        files = 2 * experiments.OPEN_FILES + 3
        header, cols = self.per_file_columns(files, 7, seed=files)
        paths = [tmp_path / f"r{i}.csv" for i in range(files)]
        write_csv(paths, header, cols, reproducible=True)
        assert most[0] == experiments.OPEN_FILES and not open_now
        monkeypatch.undo()
        for f, path in enumerate(paths):
            own = [c[f] if isinstance(c, list) or np.ndim(c) == 2 else c for c in cols]
            scalar_write_csv(tmp_path / "s.csv", header, zip(*own), reproducible=True)
            assert path.read_bytes() == (tmp_path / "s.csv").read_bytes()

    def test_ten_file_write_peak_memory_stays_near_the_per_file_writer(self, tmp_path):
        # the benchmark's simulate_long ensemble: ten pulsed runs of 10,000 steps
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=4), leftmost_excited(12)
        config = ProtocolConfig(ProtocolKind.PULSED, 10000, IntervalDistribution.bimodal(1.0, 5.0, 0.5))
        trajs = run_lockstep(spec, psi0, config, [SeededSampler(0).spawn(i) for i in range(10)])
        paths = [tmp_path / f"trajectory_r{i}.csv" for i in range(10)]

        def peak(write):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        def per_file():
            for traj, path in zip(trajs, paths):
                experiments.write_trajectory_csv([traj], [path], reproducible=True)

        alone = peak(per_file)
        together = peak(lambda: experiments.write_trajectory_csv(trajs, paths, reproducible=True))
        assert together <= alone + 0.5 * 2**20

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * experiments.CHUNK_ROWS + 3])
    def test_tables_past_one_chunk(self, tmp_path, offset):
        rows = experiments.CHUNK_ROWS + offset
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows)
        text = [f"s{i}" + ("," if i % 7 == 0 else "") for i in range(rows)]
        cols = (np.arange(rows), floats, text, floats, rng.integers(0, 2, rows).astype(bool))
        header = ("i", "x", "s", "x_again", "b")
        write_csv(tmp_path / "t.csv", header, cols, reproducible=True)
        scalar_write_csv(tmp_path / "s.csv", header, zip(*cols), reproducible=True)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

    def test_whole_number_floats_read_as_by_15g(self, tmp_path):
        # whole floats below 1e15 are written by %d; -0.0, 1e15 and non-finite
        # values keep %.15g; a column decides for itself
        rows = 2 * experiments.CHUNK_ROWS
        edge = [-0.0, -5.0, 999999999999999.0, -999999999999999.0, 1e15, np.nan, np.inf, 0.0]
        tails = [[], [-0.0], [1e15], [np.nan], [-np.inf], [2.5], [2.0**53]]
        whole = np.arange(rows, dtype=float) - 7.0
        mixed = whole.copy()
        mixed[experiments.CHUNK_ROWS + 3] = 0.5  # the second chunk only
        cols = [whole, mixed, np.resize(edge, rows)]
        cols += [np.resize([1.0, -2.0, *tail], rows) for tail in tails]
        header = tuple(f"c{i}" for i in range(len(cols)))
        write_csv(tmp_path / "t.csv", header, cols, reproducible=True)
        scalar_write_csv(tmp_path / "s.csv", header, zip(*cols), reproducible=True)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
        _, back = read_csv(tmp_path / "t.csv")
        assert [r[2] for r in back[:8]] == ["-0", "-5", "999999999999999", "-999999999999999",
                                            "1e+15", "nan", "inf", "0"]

    @staticmethod
    def hard_floats():
        """Floats the byte pass must get right or hand to %, hardest first."""
        rng = np.random.default_rng(2024)
        ties = [(k + 0.5) / 10.0**j for j in range(20) for k in rng.integers(0, 10**15, 40).tolist()]
        near = []
        for j in range(-10, 17):
            below = above = 10.0**j
            for _ in range(3):
                below, above = np.nextafter(below, 0), np.nextafter(above, math.inf)
                near += [below, 10.0**j, above]
        edges = [9.999999999999995e-5, 999999999999999.5, 999999999999999.7, 0.99999999999999997,
                 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, math.nan, math.inf,
                 -math.inf, 1.7976931348623157e308, 1e15, 1e-8, 1e-9, 0.5, 0.1, 0.3]
        hard = np.array(edges + ties + near)
        bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
        return np.concatenate([hard, -hard, bits])

    @pytest.mark.parametrize("rows", [experiments.CHUNK_ROWS - 1, experiments.CHUNK_ROWS,
                                      experiments.CHUNK_ROWS + 1, None])
    def test_byte_pass_equals_the_cell_by_cell_writer(self, tmp_path, rows):
        # rounding ties, neighbours of powers of ten, carries into a 16th
        # digit, cells out of the pass's range and random bit patterns, with
        # extreme integers, float32 and text that needs quoting beside them
        floats = self.hard_floats()[:rows]
        n = len(floats)
        rng = np.random.default_rng(n)
        text = ["plain", "a,b", 'say "hi"', "cr\rlf\n", "nul\0", "größe", "", "名前 ☃"]
        cols = (
            np.arange(n) - n // 2,
            floats,
            (text * n)[:n],
            np.resize([np.iinfo(np.int64).min, -1, 0, 10**15, -(10**15) + 1, np.iinfo(np.int64).max], n),
            np.resize(np.array([2**63 + 5, 2**64 - 1, 7, 10**15 - 1], np.uint64), n),
            rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32),
            floats[::-1].copy(),
        )
        header = ("i", "x", "s", "int64", "uint64", "float32", "x_reversed")
        write_csv(tmp_path / "t.csv", header, cols, reproducible=True)
        scalar_write_csv(tmp_path / "s.csv", header, zip(*cols), reproducible=True)
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

    @pytest.mark.parametrize("cells", [experiments._GATHER - 1, experiments._GATHER,
                                       experiments._GATHER + 1, 3 * experiments._GATHER + 5])
    def test_float_blocks_around_the_gather_size(self, cells):
        # float cells are gathered _GATHER at a time: blocks one below, at and
        # one above a gather, and three gathers and a part, with hard floats
        # (negative, exponent-form and %-fallback cells) spread over every
        # gather among ordinary ones
        rng = np.random.default_rng(cells)
        floats = rng.choice([-1.0, 1.0], cells) * 10.0 ** rng.uniform(-8, 15, cells)
        floats[::7] = np.resize(self.hard_floats(), len(floats[::7]))
        cells_of = experiments._float_cells(floats)
        assert cells_of.shape[0] == cells
        for row, value in zip(cells_of, floats):
            assert row[row != experiments._PAD].tobytes() == ("%.15g" % value).encode()

    def test_float_cells_memory_per_cell(self):
        # from 2,048 to 6,144 floats the float path's tracemalloc peak grows
        # by about 135 B a cell; a gather index of one int64 per output byte
        # over the whole block would add about 150 B more, so larger passes
        # cannot bring it back unseen
        def peak(n):
            x = np.random.default_rng(n).uniform(0.0, 1.0, n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                experiments._float_cells(x)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert (peak(6144) - peak(2048)) / 4096 < 200

    def test_ordinary_cells_skip_the_fallback(self, tmp_path, monkeypatch):
        # every finite double from 1e-8 to 1e15 away from a rounding tie is
        # written by the byte pass, as is every integer below 1e15 in
        # magnitude; below 1e11 a double with a random 53-bit significand is
        # never on a tie
        fallback = []  # the cells _digits marks not ok, which go through %

        def counting(x):
            n, e, ok = real(x)
            fallback.extend(x[~ok].tolist())
            return n, e, ok

        real = experiments._digits
        monkeypatch.setattr(experiments, "_digits", counting)
        rng = np.random.default_rng(5)
        floats = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-8, 11, 20000)
        ints = rng.integers(-(10**15) + 1, 10**15, 20000)
        write_csv(tmp_path / "t.csv", ("x", "i", "z"), (floats, ints, np.zeros(20000)),
                  reproducible=True)
        assert fallback == []

    def test_no_runtime_warning_on_zero_nan_or_inf(self, tmp_path):
        values = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_csv(tmp_path / "t.csv", ("x", "y"), (values, values[::-1].copy()), reproducible=True)
        _, back = read_csv(tmp_path / "t.csv")
        assert [r[0] for r in back] == ["0", "-0", "nan", "inf", "-inf", "4.94065645841247e-324",
                                        "1.79769313486232e+308", "0.5"]

    def test_utf8_under_an_ascii_locale(self, tmp_path):
        # with Python's UTF-8 mode off under the C locale, open()'s default
        # encoding is ASCII and cannot write these cells
        path = tmp_path / "t.csv"
        header, text = ("größe", "名前"), ["é,ü", "nul\0"]
        code = ("import sys; from pathlib import Path; from zenochain.experiments import write_csv; "
                f"write_csv(Path(sys.argv[1]), {ascii(header)}, ([1.5, -2.0], {ascii(text)}), True)")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
        assert path.read_bytes() == 'größe,名前\r\n1.5,"é,ü"\r\n-2,nul\0\r\n'.encode("utf-8")

    def test_every_output_goes_through_write_csv(self, tmp_path, monkeypatch):
        # the benchmark times write_csv for its CSV rows/s; a writer that
        # bypassed it would go unmeasured
        written = []

        def counting(path, *args, **kwargs):
            written.extend(path if isinstance(path, list) else [path])
            return real(path, *args, **kwargs)

        real = experiments.write_csv
        monkeypatch.setattr(experiments, "write_csv", counting)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("kind = projective", "kind = pulsed")
                       .replace("seed = 4242", "seed = 4242\nlambda_sweep = 1,3"))
        runs = {
            tmp_path / "sim": ["simulate", str(cfg)],
            tmp_path / "fig3": ["figure", "fig3", "--m", "20"],
        }
        for out, argv in runs.items():
            assert cli_main(argv + ["--out-dir", str(out), "--reproducible"]) == 0
            files = sorted(out.glob("*.csv"))
            assert len(files) >= 2
            assert files == sorted(p for p in written if p.parent == out)


class TestTheoryOnly:
    def test_write_theory_csv(self, tmp_path):
        config = parse_config(CONFIG)
        path = write_theory_csv(config, out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(path)
        assert len(rows) == 1
        assert header[0] == "lambda"


class TestThreeLevelRunner:
    def test_columns_and_accuracy(self, tmp_path):
        path = run_three_level(1.0, [0.0, 10.0], t_max=20.0, dt=0.1,
                               out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(path)
        assert header == ["g", "t", "P_formula", "P_numeric", "abs_diff"]
        diffs = [float(r[4]) for r in rows]
        assert max(diffs) <= 1e-8
        # g = 0 rows follow cos^2(omega t)
        for r in rows:
            if float(r[0]) == 0.0:
                assert abs(float(r[2]) - np.cos(float(r[1])) ** 2) <= 1e-12

    def test_larger_coupling_confines_better(self, tmp_path):
        path = run_three_level(1.0, [2.0, 8.0], t_max=30.0, dt=0.05,
                               out_dir=tmp_path, reproducible=True)
        header, rows = read_csv(path)
        worst = {}
        for r in rows:
            g = float(r[0])
            worst[g] = max(worst.get(g, 0.0), 1.0 - float(r[2]))
        assert worst[8.0] < worst[2.0]


class TestEnsembleInputs:
    """A realization count is an integer >= 1 and a seed an integer, no bool:
    anything else is a named ValueError before any run, not a silently
    rounded count or a raw TypeError."""

    POINT = (ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2),
             ProtocolConfig(ProtocolKind.PROJECTIVE, 10, IntervalDistribution.bimodal(1.0, 5.0, 0.5)))

    @pytest.mark.parametrize("realizations", [2.5, 3.0, 0, -1, True, "3", None])
    def test_run_ensemble_rejects_a_count_that_is_not_an_integer_from_one(self, realizations):
        with pytest.raises(ValueError, match=r"realizations must be an integer >= 1, got "):
            run_ensemble(*self.POINT, realizations, 7)

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, "7", None])
    def test_run_ensemble_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer, got "):
            run_ensemble(*self.POINT, 3, seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
    def test_numpy_integers_are_integers(self, seed):
        finals, fids = run_ensemble(*self.POINT, np.int64(3), seed)
        assert np.array_equal(finals.final_states, run_ensemble(*self.POINT, 3, 7)[0].final_states)

    def test_fig4_rejects_a_fractional_count_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match=r"realizations must be an integer >= 1, got 2.5"):
            experiments.preset_fig4(tmp_path, m=10, realizations=2.5, reproducible=True)
        assert list(tmp_path.iterdir()) == []

    def test_fig5_rejects_a_float_seed_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match=r"seed must be an integer, got 1.5"):
            preset_fig5(tmp_path, seed=1.5, m=10, realizations=2, reproducible=True)
        assert list(tmp_path.iterdir()) == []


class TestSweeps:
    def test_kappa_family_endpoints(self):
        fam = kappa_family()
        p1, mu1, mu2 = fam[0]
        assert (p1, mu1, mu2) == (1.0, 3.0, 3.0)
        p1, mu1, mu2 = fam[-1]
        assert abs(mu1 - 1.0) <= 1e-12 and abs(mu2 - 11.0) <= 1e-12
        # mean pinned at 3 for every member
        for p1, mu1, mu2 in fam:
            assert abs(p1 * mu1 + (1 - p1) * mu2 - 3.0) <= 1e-12

    def test_kappa_family_has_two_distinct_means(self):
        means = [moments(IntervalDistribution.bimodal(mu1, mu2, p1)).mean
                 for p1, mu1, mu2 in kappa_family()]
        assert means[:-1] == [3.0] * 6
        assert means[-1] == 3.0000000000000004

    @pytest.mark.parametrize("initial", ["wstate", "leftmost"])
    def test_fig5_matches_the_per_point_loop(self, tmp_path, initial):
        preset_fig5(tmp_path / "preset", m=20, realizations=5, initial=initial,
                    reproducible=True)
        loop_fig5(tmp_path / "loop", m=20, realizations=5, initial=initial)
        name = "fig5_kappa.csv" if initial == "wstate" else "fig5_inset_kappa.csv"
        assert (tmp_path / "preset" / name).read_bytes() == (tmp_path / "loop" / name).read_bytes()

    def test_one_overlap_per_chain_scores_each_point_as_its_own_evolution_does(self):
        # run_ensembles scores a chain's points together, each point's ideal
        # states from its own evolution: every fidelity equals the point's
        # final_fidelities bit for bit, on two chains at once
        laws = [IntervalDistribution.bimodal(mu1, mu2, p1) for p1, mu1, mu2 in kappa_family()]
        points = [(ChainSpec(n_sites=12, subspace_size=lam), w_state(12, lam), ProtocolConfig(kind, 60, d))
                  for lam in (2, 3) for kind in ProtocolKind for d in laws[::2]]
        for (spec, psi0, _), (finals, fids) in zip(points, experiments.run_ensembles(points, 7, 11)):
            want = final_fidelities(spec, psi0, finals.final_states, finals.total_times)
            assert isinstance(fids, list) and np.array_equal(fids, want)

    @pytest.mark.parametrize("initial", ["Wstate", "leftmost_excited", ""])
    def test_fig5_rejects_an_unknown_initial_state_before_any_run(
        self, tmp_path, monkeypatch, initial
    ):
        def never(*args, **kwargs):
            raise AssertionError("ran an ensemble")

        monkeypatch.setattr(experiments, "run_ensemble", never)
        monkeypatch.setattr(experiments, "run_ensembles", never)
        with pytest.raises(ValueError, match='"wstate" or "leftmost"'):
            preset_fig5(tmp_path, m=20, realizations=5, initial=initial)
        assert list(tmp_path.iterdir()) == []

    def test_fig5_runs_the_continuous_protocol_once_per_mean(self, tmp_path, monkeypatch):
        means = []
        run = protocols.run_continuous

        def counted(*args, **kwargs):
            means.append(kwargs["sample_times"][0])  # the grid is mean * (1..m)
            return run(*args, **kwargs)

        monkeypatch.setattr(protocols, "run_continuous", counted)
        preset_fig5(tmp_path, m=20, realizations=5, reproducible=True)
        assert means == [3.0, 3.0000000000000004]

    def test_fig5_runs_one_column_at_kappa_zero(self, tmp_path, monkeypatch):
        # kappa = 0 is a one-atom law: its projective (dim 2) and pulsed (dim 12)
        # ensembles advance one column, the first of a pass of 31 beside the six
        # other points' R = 5 columns; its powers k^p are 1, the others' 2^p
        calls = []  # (width, state dimension, one-atom columns) of each batched advance
        products = protocols._products

        def counted(tables, block, powers, offsets, psi, out):
            calls.append((len(block), psi.shape[1], np.flatnonzero(powers[:, 1] == 1).tolist()))
            return products(tables, block, powers, offsets, psi, out)

        monkeypatch.setattr(protocols, "_products", counted)
        preset_fig5(tmp_path, m=20, realizations=5, reproducible=True)
        assert calls == [(31, 2, [0]), (31, 12, [0])]

    def test_fig5_slice_buffers_stay_within_the_slice_budget(self, tmp_path, monkeypatch):
        # at the bench size (m = 100, R = 50) the projective pass advances 301
        # columns of 2-dim states in 8-row words (L = 4): 52-step slices take
        # 501 KB of SLICE_BYTES = 512 KiB, where a 64-step floor took 616 KB.
        # The pulsed pass carries its state through two 12-row slots
        buffers = []  # (state dimension, slice steps, slice buffer bytes) of each advance
        products = protocols._products

        def counted(tables, block, *args):
            buffers.append((args[-2].shape[1], block.shape[1], args[-1].nbytes))
            return products(tables, block, *args)

        monkeypatch.setattr(protocols, "_products", counted)
        preset_fig5(tmp_path, m=100, realizations=50, reproducible=True)
        assert max(b[2] for b in buffers) <= protocols.SLICE_BYTES
        assert [b[:2] for b in buffers] == [(2, 52), (2, 48), (12, 64), (12, 36)]
        assert buffers[0][2] == 301 * 13 * 8 * 16 and buffers[2][2] == 301 * 2 * 12 * 16

    @pytest.mark.parametrize("m", [20, 100])
    def test_fig5_makes_two_kernel_passes(self, tmp_path, monkeypatch, m):
        # one pass per protocol: every law of a protocol has one word length
        # (L = 2 at m = 20, 4 at m = 100), whatever its atom count, so the
        # one-atom kappa = 0 law shares the six disordered laws' pass
        passes = []  # (kind, laws, columns) of each pass
        lockstep = protocols._lockstep

        def counted(spec, psi0, laws, samplers, *args):
            passes.append((laws[0].config.kind, len(laws), sum(map(len, samplers))))
            return lockstep(spec, psi0, laws, samplers, *args)

        monkeypatch.setattr(protocols, "_lockstep", counted)
        preset_fig5(tmp_path, m=m, realizations=5, reproducible=True)
        pm, pc = ProtocolKind.PROJECTIVE, ProtocolKind.PULSED
        assert passes == [(pm, 7, 31), (pc, 7, 31)]

    def test_fig5_and_fig4_build_a_trajectory_for_continuous_runs_alone(self, tmp_path, monkeypatch):
        # the projective and pulsed ensembles keep end values, no per-step series
        built, continuous = [], []
        init, run = Trajectory.__init__, protocols.run_continuous
        monkeypatch.setattr(Trajectory, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        monkeypatch.setattr(protocols, "run_continuous",
                            lambda *a, **k: continuous.append(1) or run(*a, **k))
        preset_fig5(tmp_path, m=20, realizations=5, reproducible=True)
        assert len(built) == len(continuous) == 2  # one continuous run per distinct mean
        # fig4's ensemble loop, without its deterministic scaling sweep
        monkeypatch.setattr(experiments, "scaling_sweep", lambda: [(1.0, 1, 0.0, 0.0, 0.0)])
        experiments.preset_fig4(tmp_path, m=20, realizations=3, reproducible=True)
        assert len(built) == len(continuous) == 2 + 9  # one continuous run per lambda

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "kwargs",
        [{"mean": 0.5}, {"mean": 0.999}, {"mean": np.inf}, {"mean": np.nan}, {"p1": 1.0},
         {"p1": 0.0}, {"p1": -0.2}, {"p1": np.nan}, {"points": 0}, {"points": 2.5},
         {"points": 3.0}, {"points": True}],
    )
    def test_kappa_family_rejects_an_invalid_law(self, kwargs):
        with pytest.raises(ValueError, match=r"0 < p1 < 1, 1 <= mean < inf .* integer points >= 1"):
            kappa_family(**kwargs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kappa_family_edges_of_the_rule(self):
        assert kappa_family(points=1) == [(1.0, 3.0, 3.0)]
        assert kappa_family(mean=1.0, points=2) == [(1.0, 1.0, 1.0)] * 2
        p1, mu1, mu2 = kappa_family(p1=0.999, points=np.int64(2))[-1]
        assert (p1, mu1) == (0.999, 1.0) and abs(mu2 - 2001.0) <= 1e-9

    def test_scaling_sweep_small(self):
        rows = scaling_sweep(lam=5, total_time=300.0, mu_min=1.0, mu_max=3.0, points=3)
        assert len(rows) == 3
        for mu, m, leak_pm, leak_pc, leak_cc in rows:
            assert abs(m * mu - 300.0) <= mu
            assert 0 < leak_pm < 1
            assert 0 < leak_pc < leak_pm
            assert 0 < leak_cc < 1


class TestCLI:
    def test_simulate_and_compare(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        rc = cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out"),
                       "--reproducible"])
        assert rc == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        rc = cli_main(["compare", str(cfg), "--out-dir", str(tmp_path / "cmp"),
                       "--reproducible"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean ln P" in out and "relative deviation" in out

    def test_simulate_continuous_writes_one_trajectory(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("kind = projective", "kind = continuous"))
        rc = cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out"),
                       "--realizations", "20", "--reproducible"])
        assert rc == 0
        assert "wrote 3 files" in capsys.readouterr().out
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["summary.csv", "theory.csv", "trajectory_r0.csv"]

    def test_simulate_reports_the_files_it_wrote(self, tmp_path, capsys):
        # a narrower run into the directory of a wider one counts and lists
        # its own files, and deletes none of the wider run's
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(CONFIG)
        for r in (10, 3):
            assert cli_main(["simulate", str(cfg), "--out-dir", str(out),
                             "--realizations", str(r), "--reproducible"]) == 0
            assert f"wrote {r + 2} files to" in capsys.readouterr().out
        result = run_experiment(parse_config(CONFIG), out_dir=out, reproducible=True)
        assert result["files"] == ["summary.csv", "theory.csv", "trajectory_r0.csv",
                                   "trajectory_r1.csv", "trajectory_r2.csv"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["summary.csv", "theory.csv"] + [f"trajectory_r{i}.csv" for i in range(10)])

    @pytest.mark.parametrize("kind", ["projective", "pulsed"])
    def test_simulate_one_atom_is_one_run_at_any_realization_count(self, tmp_path, kind):
        # a one-atom post-selected or pulsed ensemble is deterministic: one
        # trajectory file, and the same summary and theory rows for any R
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("kind = projective", f"kind = {kind}")
                       .replace(DIST, "dist = [(3.0, 1.0)]"))
        outputs = []
        for r in ("1", "7"):
            out = tmp_path / r
            assert cli_main(["simulate", str(cfg), "--out-dir", str(out),
                             "--realizations", r, "--reproducible"]) == 0
            names = sorted(p.name for p in out.iterdir())
            assert names == ["summary.csv", "theory.csv", "trajectory_r0.csv"]
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_compare_where_pstar_underflows(self, tmp_path, capsys):
        # P* = exp(-7896) is 0 in double precision; ln P* is carried as
        # computed, so the deviation is finite (a RuntimeWarning fails the run)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CONFIG.replace("lambda = 2", "lambda = 1")
            .replace("m = 60", "m = 20000")
            .replace(DIST, "dist = [(20.0, 1.0)]")
            .replace(WSTATE, "initial_state = leftmost")
            .replace("realizations = 3", "realizations = 2")
        )
        rc = cli_main(["compare", str(cfg), "--out-dir", str(tmp_path / "cmp"), "--reproducible"])
        assert rc == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        mean_ln = float(printed["mean ln P (simulation)"])
        ln_pstar = float(printed["ln P* (time-averaged theory)"])
        rel = float(printed["relative deviation"])
        assert mean_ln == -8174.008749
        header, rows = read_csv(tmp_path / "cmp" / "theory.csv")
        row = dict(zip(header, rows[0]))
        assert row["pstar_time_avg"] == "0"
        exponent = (float(row["m"]) * float(row["beta"]) ** 2 * float(row["c2_time_avg"])
                    * (1 + float(row["kappa"])) * float(row["mu_mean"]) ** 2)
        assert abs(ln_pstar + exponent) <= 1e-6  # printed to 6 decimals
        assert abs(rel - abs(mean_ln - ln_pstar) / abs(ln_pstar)) <= 1e-4

    def test_compare_where_ln_pstar_is_zero(self, tmp_path, capsys):
        # mu^2 = 1e-322 leaves an exponent that rounds to 0: no relative deviation
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace(DIST, "dist = [(1e-161, 1.0)]").replace("m = 60", "m = 5"))
        rc = cli_main(["compare", str(cfg), "--out-dir", str(tmp_path / "cmp")])
        assert rc == 0
        assert "relative deviation: undefined (ln P* = 0)" in capsys.readouterr().out

    def test_theory_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        rc = cli_main(["theory", str(cfg), "--out-dir", str(tmp_path / "th")])
        assert rc == 0
        assert (tmp_path / "th" / "theory.csv").exists()

    def test_three_level_subcommand(self, tmp_path):
        rc = cli_main(["three-level", "--omega", "1.0", "--g", "0.5,5",
                       "--t-max", "10", "--dt", "0.1",
                       "--out-dir", str(tmp_path), "--reproducible"])
        assert rc == 0
        assert (tmp_path / "three_level.csv").exists()

    def test_figure_subcommand_small(self, tmp_path):
        rc = cli_main(["figure", "fig2", "--m", "40", "--out-dir", str(tmp_path),
                       "--seed", "3", "--reproducible"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "fig2_survival.csv")
        assert header == ["lambda", "m", "t_us", "P_sim", "pstar_time_avg", "pstar_const"]
        assert len(rows) == 9 * 40

    def test_fig3_preset_small(self, tmp_path):
        from zenochain.experiments import preset_fig3

        preset_fig3(tmp_path, m=60, reproducible=True)
        header, rows = read_csv(tmp_path / "fig3_main.csv")
        assert header == ["m", "t_us", "P_sim", "pstar_time_avg", "edge_pop"]
        assert len(rows) == 60
        assert (tmp_path / "fig3_inset.csv").exists()

    def test_fig4_preset_small(self, tmp_path):
        from zenochain.experiments import preset_fig4

        preset_fig4(tmp_path, m=15, realizations=2, reproducible=True)
        header, rows = read_csv(tmp_path / "fig4_fidelity.csv")
        assert header == ["lambda", "protocol", "F_mean", "P_final_mean", "R"]
        protocols = {r[1] for r in rows}
        assert protocols == {"projective", "pulsed", "continuous"}
        # R counts the runs a row averages: the continuous protocol is one run
        assert {(r[1], r[4]) for r in rows} == {
            ("projective", "2"), ("pulsed", "2"), ("continuous", "1")
        }
        assert (tmp_path / "fig4_inset_scaling.csv").exists()

    def test_fig5_preset_small(self, tmp_path):
        from zenochain.experiments import preset_fig5

        preset_fig5(tmp_path, m=25, realizations=2, reproducible=True)
        header, rows = read_csv(tmp_path / "fig5_kappa.csv")
        assert "ln_pstar_theory" in header
        assert len(rows) == 7
        kappas = [float(r[0]) for r in rows]
        assert abs(kappas[0]) <= 1e-12
        assert abs(kappas[-1] - 16.0 / 9.0) <= 1e-12

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[chain]\nn = 12\n")  # missing lambda and more
        rc = cli_main(["simulate", str(cfg)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare", "three-level"])
    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch, command):
        # the runners are stand-ins that raise, so nothing huge is allocated
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        monkeypatch.setattr(cli, "run_three_level", exhausted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        args = [] if command == "three-level" else [str(cfg)]
        assert cli_main([command, *args, "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "memory error: Unable to allocate 72.8 TiB\n"

    @pytest.mark.parametrize(
        "edits, flags",
        [
            ([("realizations = 3", "realizations = 0")], []),
            ([], ["--realizations", "0"]),
            ([("m = 60", "m = 0")], []),
            ([("kind = projective", "kind = continuous\ncoupling = abc")], []),
            ([("kind = projective", "kind = continuous\ncoupling = -1")], []),
            ([(DIST, "dist = [5]")], []),
            ([(DIST, "dist = [(1.0, 0.5), (5.0, 0.5), 3]")], []),
            ([(DIST, "dist = [(1e400, 1.0)]")], []),
            ([(DIST, "dist = [(1" + "0" * 400 + ", 1.0)]")], []),
            ([(DIST, "dist = [(1e-300, 1.0)]")], []),
            ([(DIST, "dist = [(1e300, 1.0)]")], []),
            ([(DIST, "dist = [(1e120, 0.5), (5e120, 0.5)]")], []),
            ([("seed = 4242", "seed = 4242\nkappa_sweep = (0.8, 1.0)")], []),
            ([("seed = 4242", "seed = 4242\nkappa_sweep = 5")], []),
            ([(WSTATE, CUSTOM + "5")], []),
            ([("kind = projective", "kind = pulsed\npulse_area = inf")], []),
            ([("kind = projective", "kind = continuous\ncoupling = inf")], []),
            ([("lambda = 2", "lambda = 2\nbeta = inf")], []),
            ([("lambda = 2", "lambda = 2\nalpha = inf\ninclude_field_phase = true")], []),
            ([("kind = projective", "kind = pulsed"),
              ("seed = 4242", "seed = 4242\nlambda_sweep = 2,7")], []),
            ([(WSTATE, CUSTOM + "[0, 0, 1]")], []),
            ([(WSTATE, CUSTOM + "[1, 0, 0, 0, 0, 0, 0, 0, 0]")], []),
            ([(WSTATE, CUSTOM + "[0, 0]")], []),
            ([(WSTATE, CUSTOM + "[1e400, 1]")], []),
        ],
        ids=["realizations-file", "realizations-flag", "m-zero", "coupling-text",
             "coupling-negative", "dist-not-pairs", "dist-trailing-number", "dist-infinite",
             "dist-integer-beyond-float",
             "dist-mu-squared-underflows", "dist-mu-cubed-overflows",
             "dist-third-moment-overflows",
             "kappa-pair", "kappa-number", "amplitudes-number", "pulse-area-inf",
             "coupling-inf", "beta-inf", "alpha-inf-with-phase", "pulsed-lambda-sweep",
             "amplitudes-beyond-lambda", "amplitudes-longer-than-chain", "amplitudes-zero",
             "amplitudes-overflow"],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, edits, flags):
        # n = 8, lambda = 2: the pulsed sweep's lambda = 7 leaves no room for
        # the coupling, and nine amplitudes overrun the chain
        text = CONFIG.replace("n = 12", "n = 8")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        rc = cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")] + flags)
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["fig5", "--m", "5", "--realizations", "0"],
            ["fig2", "--m", "0"],
            ["fig4", "--m", "5", "--realizations", "-1"],
            ["fig3", "--m", "-3"],
            ["fig2", "--m", "5", "--realizations", "7"],
            ["fig3", "--m", "5", "--realizations", "1"],
        ],
        ids=["fig5-realizations-zero", "fig2-m-zero", "fig4-realizations-negative",
             "fig3-m-negative", "fig2-realizations", "fig3-realizations"],
    )
    def test_bad_figure_flag_is_a_config_error(self, tmp_path, capsys, flags):
        rc = cli_main(["figure"] + flags + ["--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--g", "1,x"], ["--g", "1,inf"], ["--g", ","], ["--omega", "-1"], ["--dt", "0"],
         ["--t-max", "inf"]],
        ids=["g-text", "g-inf", "g-empty", "omega-negative", "dt-zero", "t-max-inf"],
    )
    def test_bad_three_level_flag_is_a_config_error(self, tmp_path, capsys, flags):
        rc = cli_main(["three-level"] + flags + ["--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "theory", "compare"])
    def test_beta_whose_square_overflows_is_a_config_error(self, tmp_path, capsys, command):
        # the theory rows square beta: 1e160 squared is not a double
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("lambda = 2", "lambda = 2\nbeta = 1e160"))
        rc = cli_main([command, str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            ("kind = projective", "kind = pulsed"),
            ("kind = projective", "kind = continuous"),
            ("kind = projective", "kind = projective\nbernoulli = true"),
        ],
        ids=["pulsed", "continuous", "bernoulli"],
    )
    def test_compare_without_a_prediction_is_a_config_error(self, tmp_path, capsys, edit):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace(*edit))
        rc = cli_main(["compare", str(cfg), "--out-dir", str(tmp_path / "cmp")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()
        # simulate still runs every config that compare turns away
        rc = cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "sim")])
        assert rc == 0
        assert (tmp_path / "sim" / "summary.csv").exists()

    @pytest.mark.parametrize("kind", ["pulsed", "continuous"])
    def test_bernoulli_for_a_coherent_protocol_is_a_config_error(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("kind = projective", f"kind = {kind}\nbernoulli = true"))
        rc = cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bernoulli" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--realizations", "3"]],
                             ids=["seed", "realizations"])
    @pytest.mark.parametrize("command", ["theory", "three-level"])
    def test_flag_without_effect_is_rejected(self, tmp_path, command, flag):
        # neither subcommand draws intervals, so neither takes these flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        args = [command] + ([str(cfg)] if command == "theory" else [])
        with pytest.raises(SystemExit) as exc:
            cli_main(args + flag + ["--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_bernoulli_simulate_is_warning_free(self, tmp_path):
        # every column of this ensemble aborts, so each ln P is -inf; only
        # compare reads ln P, and it refuses Bernoulli configs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CONFIG.replace("lambda = 2", "lambda = 1")
            .replace("m = 60", "m = 400\nbernoulli = true")
            .replace(WSTATE, "initial_state = leftmost")
            .replace("realizations = 3", "realizations = 6")
        )
        rc = cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "sim"),
                       "--reproducible"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "sim" / "summary.csv")
        assert [r[3] for r in rows] == ["0"]

    def test_theory_writes_the_theory_csv_of_simulate(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace(
            "seed = 4242",
            "seed = 4242\nlambda_sweep = 1,2,3\nkappa_sweep = (1.0, 3.0, 3.0); (0.8, 1.0, 11.0)",
        ))
        for command in ("simulate", "theory"):
            rc = cli_main([command, str(cfg), "--out-dir", str(tmp_path / command),
                           "--reproducible"])
            assert rc == 0
        simulated = (tmp_path / "simulate" / "theory.csv").read_bytes()
        assert simulated == (tmp_path / "theory" / "theory.csv").read_bytes()
        _, rows = read_csv(tmp_path / "theory" / "theory.csv")
        assert [r[0] for r in rows] == ["2", "1", "3", "2", "2"]

    def test_fig3_inset_repeats_the_main_prediction(self, tmp_path):
        from zenochain.experiments import preset_fig3

        preset_fig3(tmp_path, m=60, reproducible=True)
        header, rows = read_csv(tmp_path / "fig3_main.csv")
        main = {r[0]: r[header.index("pstar_time_avg")] for r in rows}
        _, inset = read_csv(tmp_path / "fig3_inset.csv")
        at_nine = [(m, p) for lam, m, p in inset if lam == "9"]
        assert [m for m, _ in at_nine] == [str(k) for k in range(1, 61, 10)]
        assert [p for _, p in at_nine] == [main[m] for m, _ in at_nine]

    def test_fig3_edge_pop_is_exact_at_every_step(self, tmp_path):
        # default fig3: 8 steps end past the expected span m * mean = 6000 us,
        # where an edge trace read off a series ending there would stop moving
        from zenochain.experiments import BIMODAL_1_5, preset_fig3

        preset_fig3(tmp_path, reproducible=True)
        header, rows = read_csv(tmp_path / "fig3_main.csv")
        spec, psi0 = ChainSpec(n_sites=12, subspace_size=9), leftmost_excited(12)
        proto = ProtocolConfig(ProtocolKind.PROJECTIVE, 2000, BIMODAL_1_5)
        times = run_projective(spec, psi0, proto, SeededSampler(3001)).times
        t_us, edge_pop = (np.array([float(r[header.index(k)]) for r in rows])
                          for k in ("t_us", "edge_pop"))
        np.testing.assert_allclose(t_us, times, rtol=1e-14)
        assert np.sum(times > 2000 * moments(BIMODAL_1_5).mean) == 8
        exact = np.abs(linalg.evolve(zeno_hamiltonian(spec), psi0[:9], times)[:, -1]) ** 2
        assert np.max(np.abs(edge_pop - exact)) <= 1e-12

    @pytest.mark.parametrize("preset", ["preset_fig2", "preset_fig3"])
    def test_staircases_build_no_edge_series(self, tmp_path, monkeypatch, preset):
        # the predictions read the ideal edge average in closed form, at the
        # m values each file writes: fig3's inset needs every tenth m only
        from zenochain import theory

        series, averages = [], []
        real = experiments.edge_time_average

        def average(spec, psi0, t_max, dt):
            averages.append((spec.subspace_size, np.array(t_max)))
            return real(spec, psi0, t_max, dt)

        for module in (theory, experiments):
            monkeypatch.setattr(module, "edge_population", lambda *a, **k: series.append(a),
                                raising=False)
        monkeypatch.setattr(experiments, "edge_time_average", average)
        getattr(experiments, preset)(tmp_path, m=60, reproducible=True)
        assert series == []
        mean = moments(experiments.BIMODAL_1_5).mean
        assert sorted(lam for lam, _ in averages) == list(range(1, 10))
        for lam, t_max in averages:
            step = 10 if preset == "preset_fig3" and lam < 9 else 1
            np.testing.assert_array_equal(t_max, np.arange(1, 61, step) * mean)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "s1"),
                  "--seed", "1", "--reproducible"])
        cli_main(["simulate", str(cfg), "--out-dir", str(tmp_path / "s2"),
                  "--seed", "2", "--reproducible"])
        a = (tmp_path / "s1" / "trajectory_r0.csv").read_bytes()
        b = (tmp_path / "s2" / "trajectory_r0.csv").read_bytes()
        assert a != b
