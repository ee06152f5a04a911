import ast
import importlib
import inspect
import types
from pathlib import Path

import numpy as np

import zenochain
from zenochain.chain import ChainSpec, w_state
from zenochain.experiments import preset_fig5
from zenochain.protocols import (
    ProtocolConfig,
    ProtocolKind,
    run_exact_subspace,
    run_projective,
    run_pulsed,
)
from zenochain.stochastics import IntervalDistribution, SeededSampler, sample_intervals
from zenochain.theory import edge_population

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_exported_name_resolves():
    missing = [name for name in zenochain.__all__ if not hasattr(zenochain, name)]
    assert missing == []
    assert len(set(zenochain.__all__)) == len(zenochain.__all__)
    modules = [n for n in zenochain.__all__ if isinstance(getattr(zenochain, n), types.ModuleType)]
    assert modules == []


def test_every_name_the_demos_import_resolves():
    # read the import lines only; running the demos takes seconds
    checked, missing = set(), []
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "zenochain"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked.add(f"{node.module}.{alias.name}")
                if not hasattr(module, alias.name):
                    missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert missing == []
    assert {
        "zenochain.experiments.write_csv",
        "zenochain.experiments.run_ensemble",
        "zenochain.experiments.scaling_sweep",
        "zenochain.experiments.kappa_family",
    } <= checked


def test_run_continuous_keeps_the_parameters_the_bench_binds():
    # bench/layers.py's continuous hook reads these arguments by name; without
    # one of them a traced run fails with KeyError
    params = inspect.signature(zenochain.protocols.run_continuous).parameters
    bound = {"spec", "psi0", "total_time", "coupling", "sample_times",
             "hamiltonian_override", "record_states"}
    assert bound <= set(params)


def test_results_carry_the_attributes_the_bench_hooks_read():
    # bench/layers.py's hooks read these only in traced runs, so a renamed
    # field would pass every other test and fail a traced run
    spec, psi0 = ChainSpec(n_sites=6, subspace_size=2), w_state(6, 2)
    d = IntervalDistribution.bimodal(1.0, 5.0, 0.5)
    runners = {ProtocolKind.PROJECTIVE: run_projective, ProtocolKind.PULSED: run_pulsed}
    for kind, run in runners.items():
        traj = run(spec, psi0, ProtocolConfig(kind, 5, d), SeededSampler(0))
        assert len(traj.intervals) == 5 and len(traj.final_state) == 6
    assert len(run_exact_subspace(spec, psi0, np.linspace(0.0, 1.0, 3)).times) == 3
    assert len(edge_population(spec, psi0, t_max=1.0, dt=0.5).t_grid) == 3
    assert len(sample_intervals(d, SeededSampler(0), 4)) == 4


def test_no_parameter_that_no_caller_sets():
    for run in (run_projective, run_pulsed):
        assert "hamiltonian_override" not in inspect.signature(run).parameters
    assert "lam" not in inspect.signature(preset_fig5).parameters


def test_write_csv_keeps_the_name_and_parameters_the_bench_and_demos_use():
    # bench/layers.py times CSV emission at zenochain.experiments.write_csv by
    # name, and the demos pass its arguments by position; a rename would
    # otherwise show only in a traced bench run
    params = list(inspect.signature(zenochain.experiments.write_csv).parameters)
    assert params == ["path", "header", "columns", "reproducible"]


def test_hermitian_eig_keeps_the_parameter_the_bench_binds():
    # bench/layers.py's eigendecomposition hook reads args["a"]
    assert "a" in inspect.signature(zenochain.linalg.hermitian_eig).parameters


def test_the_package_has_no_assert_statements():
    # python -O strips assert statements; a runtime check must raise instead
    package = Path(zenochain.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
