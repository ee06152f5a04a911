"""Oracle: independent of zenochain, passes on real output, flags perturbations."""

import ast
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle

BENCH = Path(__file__).resolve().parents[1]


def failed(checks):
    return sorted(name for name, ok, _ in checks if not ok)


def test_oracle_imports_nothing_from_zenochain():
    tree = ast.parse((BENCH / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "zenochain" not in imported


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_splitmix_stream_matches_program(seed):
    from zenochain.stochastics import SeededSampler, derive_seed

    ours, theirs = oracle.SplitMix64(seed), SeededSampler(seed)
    assert [ours.uniform() for _ in range(100)] == [theirs.uniform() for _ in range(100)]
    assert [oracle.child_seed(seed, i) for i in range(5)] == [
        derive_seed(seed, i) for i in range(5)
    ]


@pytest.fixture(scope="module")
def fig3_out(tmp_path_factory):
    from zenochain.experiments import preset_fig3

    out = tmp_path_factory.mktemp("fig3")
    preset_fig3(str(out), seed=42, reproducible=True)
    return out


def rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_real_output_passes(fig3_out):
    checks = oracle.check_fig3(fig3_out, 42)
    assert failed(checks) == []
    assert len(checks) >= 8


def test_wrong_seed_is_flagged(fig3_out):
    assert "fig3.P_sim_staircase" in failed(oracle.check_fig3(fig3_out, 43))


def test_perturbed_value_is_flagged(fig3_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(fig3_out, out)

    def nudge(rows):  # one staircase value, relative 1e-8: above the 1e-9 tolerance
        rows[500][2] = repr(float(rows[500][2]) * (1 - 1e-8))

    rewrite(out / "fig3_main.csv", nudge)
    bad = failed(oracle.check_fig3(out, 42))
    assert "fig3.P_sim_staircase" in bad
    assert set(bad) <= {"fig3.P_sim_staircase", "fig3.staircase_non_increasing"}


def test_rising_staircase_and_bad_schema_are_flagged(fig3_out, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(fig3_out, out)

    def rise(rows):
        rows[-1][2] = repr(float(rows[-2][2]) * 1.001)

    rewrite(out / "fig3_main.csv", rise)
    rewrite(out / "fig3_inset.csv", lambda rows: rows.pop())
    bad = failed(oracle.check_fig3(out, 42))
    assert "fig3.staircase_non_increasing" in bad
    assert "fig3.inset.schema" in bad


def test_missing_output_fails_checks_without_raising(tmp_path):
    bad = failed(oracle.check_simulate(tmp_path, 0))
    assert "simulate.files" in bad and "simulate.r0.pop_subspace" in bad


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theory_fig3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
    assert not (tmp_path / ".bench_out").exists()


def test_benchmark_json_lists_every_layer_metric():
    from layers import LAYERS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}.{k}" for layer in LAYERS for k in ("calls", "self_s")} <= names
