import ast
import importlib
import inspect
import types
from pathlib import Path

import zenochain

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
