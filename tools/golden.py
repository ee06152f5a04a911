#!/usr/bin/env python3
"""Golden diff: every --reproducible output of two revisions, file by file.

Usage::

    python3 tools/golden.py --base REV [--head REV] [--expect-moved FILE:COLUMN ...]
                            [--base-env NAME=VALUE ...] [--head-env NAME=VALUE ...]

Each revision is extracted with ``git archive`` into a temporary directory.
A fixed list of jobs (``JOBS``) then runs against each side's ``src/``, one
fresh process per job with one BLAS thread:

- the four figure presets at their default size and at a small m, and fig5
  for both initial states at its default m, m = 100 and m = 20;
- ``simulate``, ``theory`` and ``compare`` on projective, pulsed, continuous
  and Bernoulli configs that sweep both lambda and kappa, with each
  command's stdout and exit code, and ``simulate`` on a projective config
  whose base law has one atom;
- the six demos, with their stdout.

``--base-env`` and ``--head-env`` set an environment variable in one side's
job processes only, so a revision can be diffed against itself under
another setting: ``--base HEAD --head HEAD --head-env
OPENBLAS_CORETYPE=Prescott`` compares two BLAS kernels.

A job that exits with an error also keeps its exit code and its stderr,
with the side's temporary paths written as ``<tree>`` and ``<out>``, so
both are diffed like any output.

Every output file is compared with its counterpart, the ``# generated``
timestamp line dropped.  Each file is reported identical or differs; a
differing file shows its first differing line and, per numeric column, the
largest relative difference.  The exit status is 1 when a file differs in
anything but the columns ``--expect-moved FILE:COLUMN`` lists (FILE as the
report prints it) by a finite relative amount, or exists on one side only;
0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PRESET = "from zenochain.experiments import preset_{0}; preset_{0}('.', reproducible=True{1})"

# the configs simulate, theory and compare run: n = 12, lambda = 2 and two
# more lambdas, and three kappa points of one mean beside the base law
CONFIG = """[chain]
n = 12
lambda = 2

[protocol]
kind = {kind}
m = 150
dist = {dist}
{extra}
[experiment]
initial_state = wstate
realizations = 6
seed = 2024
output_path = .
lambda_sweep = 3,4
kappa_sweep = (1.0, 3.0, 3.0); (0.8, 2.0, 7.0); (0.8, 1.0, 11.0)
"""
KINDS = {
    "projective": ("projective", ""),
    "pulsed": ("pulsed", ""),
    "continuous": ("continuous", ""),
    "bernoulli": ("projective", "bernoulli = true\n"),
}
BIMODAL = "[(1.0, 0.5), (5.0, 0.5)]"
ONE_ATOM = "[(3.0, 1.0)]"  # a deterministic base law: the base ensemble is one run


def _jobs() -> dict[str, tuple[list[str], str | None]]:
    """Job name -> (argv after the interpreter, config text or None).  Each job
    runs in its own directory; CLI and demo jobs keep stdout and exit code."""
    jobs: dict[str, tuple[list[str], str | None]] = {}
    for name, small in (("fig2", 50), ("fig3", 50), ("fig4", 30)):
        jobs[f"{name}_default"] = (["-c", PRESET.format(name, "")], None)
        jobs[f"{name}_m{small}"] = (["-c", PRESET.format(name, f", m={small}")], None)
    for initial in ("wstate", "leftmost"):
        for m in (None, 100, 20):
            args = f", initial='{initial}'" + ("" if m is None else f", m={m}")
            jobs[f"fig5_{initial}_{m or 'default'}"] = (["-c", PRESET.format("fig5", args)], None)
    for name, (kind, extra) in KINDS.items():
        for command in ("simulate", "theory", "compare"):
            argv = ["-m", "zenochain.cli", command, "config.txt", "--reproducible"]
            jobs[f"{name}_{command}"] = (argv, CONFIG.format(kind=kind, extra=extra, dist=BIMODAL))
    argv = ["-m", "zenochain.cli", "simulate", "config.txt", "--reproducible"]
    jobs["one_atom_simulate"] = (argv, CONFIG.format(kind="projective", extra="", dist=ONE_ATOM))
    for k, demo in enumerate(("01_three_level_confinement", "02_wstate_survival",
                              "03_edge_staircase", "04_protocol_comparison",
                              "05_time_disorder", "06_excitation_front"), 1):
        jobs[f"demo{k:02d}"] = ([f"DEMOS/{demo}.py"], None)
    return jobs


JOBS = _jobs()


def extract(rev: str, into: Path) -> None:
    """The tree of rev, by git archive, under into."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_jobs(tree: Path, out: Path, extra_env: dict[str, str] | None = None) -> None:
    """Every job against tree's package, its outputs under out/<job>, with
    extra_env set over the jobs' environment; a job that fails leaves
    exit.txt and stderr.txt there."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", **(extra_env or {})}
    for name, (argv, config) in JOBS.items():
        where = out / name
        where.mkdir(parents=True)
        if config is not None:
            (where / "config.txt").write_text(config, encoding="utf-8")
        argv = [a.replace("DEMOS", str(tree / "demos")) for a in argv]
        done = subprocess.run([sys.executable, *argv], cwd=where, env=env, capture_output=True)
        kept = config is not None or argv[0].endswith(".py")
        if kept:
            (where / "stdout.txt").write_bytes(done.stdout)
        if kept or done.returncode:
            (where / "exit.txt").write_text(f"{done.returncode}\n")
        if done.returncode:
            stderr = done.stderr.replace(bytes(tree), b"<tree>").replace(bytes(out), b"<out>")
            (where / "stderr.txt").write_bytes(stderr)


def _lines(path: Path) -> list[str]:
    text = path.read_bytes().decode("utf-8", errors="replace")
    return [line for line in text.splitlines() if not line.startswith("# generated")]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); inf where one side is not finite and they differ."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def diff_file(base: Path, head: Path) -> dict | None:
    """None where the files match (timestamp lines aside), else a report: the
    first differing line (1-based, timestamp lines dropped) on each side and
    each column's largest relative difference, inf where a cell is not a
    number on both sides.  Column "*" stands for a change of shape (row or
    field counts) and for a file that is not a table."""
    a, b = _lines(base), _lines(head)
    if a == b:
        return None
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    report = {"line": first + 1, "base": a[first] if first < len(a) else "<end>",
              "head": b[first] if first < len(b) else "<end>", "columns": {}}
    if base.suffix != ".csv" or not a or not b or a[0] != b[0]:
        report["columns"]["*"] = math.inf
        return report
    header = next(csv.reader([a[0]]))
    if len(a) != len(b):
        report["columns"]["*"] = math.inf
    rows = (csv.reader(io.StringIO("\n".join(lines[1:]))) for lines in (a, b))
    for x, y in zip(*rows):
        for k, (u, v) in enumerate(zip(x, y)):
            if u == v:
                continue
            column = header[k] if k < len(header) and len(x) == len(y) else "*"
            nu, nv = _number(u), _number(v)
            rel = math.inf if nu is None or nv is None else _relative(nu, nv)
            report["columns"][column] = max(report["columns"].get(column, 0.0), rel)
        if len(x) != len(y):
            report["columns"]["*"] = math.inf
    return report


def compare(base: Path, head: Path, expected: set[tuple[str, str]], print_=print) -> int:
    """Report every file under base and head; return 1 on an unexpected difference."""
    names = sorted({p.relative_to(root).as_posix() for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    bad = 0
    for name in names:
        if not (base / name).is_file() or not (head / name).is_file():
            side = "base" if (base / name).is_file() else "head"
            print_(f"only in {side}  {name}")
            bad += 1
            continue
        report = diff_file(base / name, head / name)
        if report is None:
            print_(f"identical  {name}")
            continue
        columns = report["columns"]
        # a listed column may move by any finite amount; a cell that is no
        # number, a change of shape and a change of text alone never may
        ok = any(columns.values()) and all(
            (name, column) in expected and rel < math.inf for column, rel in columns.items())
        bad += not ok
        print_(f"differs    {name}" + ("  (expected)" if ok else ""))
        print_(f"    first differing line {report['line']}:")
        print_(f"      base: {report['base']}")
        print_(f"      head: {report['head']}")
        for column, rel in report["columns"].items():
            print_(f"    max relative difference {column}: {rel:.3g}")
    print_(f"{len(names)} files, {bad} with an unexpected difference")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", default="HEAD", help="head revision (default HEAD)")
    parser.add_argument("--expect-moved", action="append", default=[], metavar="FILE:COLUMN",
                        help="a column allowed to differ in one file; repeatable")
    for side in ("base", "head"):
        parser.add_argument(f"--{side}-env", action="append", default=[], metavar="NAME=VALUE",
                            help=f"a variable set in the {side} side's jobs only; repeatable")
    args = parser.parse_args(argv)
    envs = {"base": {}, "head": {}}
    for side, env in envs.items():
        for item in getattr(args, f"{side}_env"):
            name, sep, value = item.partition("=")
            if not sep or not name:
                parser.error(f"--{side}-env takes NAME=VALUE, got {item!r}")
            env[name] = value
    expected = set()
    for item in args.expect_moved:
        name, sep, column = item.rpartition(":")
        if not sep or not name:
            parser.error(f"--expect-moved takes FILE:COLUMN, got {item!r}")
        expected.add((name, column))
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        outputs = []
        for side, rev in (("base", args.base), ("head", args.head)):
            extract(rev, Path(tmp) / side / "tree")
            run_jobs(Path(tmp) / side / "tree", Path(tmp) / side / "out", envs[side])
            outputs.append(Path(tmp) / side / "out")
        return compare(*outputs, expected)


if __name__ == "__main__":
    raise SystemExit(main())
