"""zenochain benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload ensemble_fig5 --seed 0 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced calls; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics.
Every untraced call is followed by a host-speed probe (``hostspeed.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine, the sample counts and every output check.  The full result, and
the spans of the last traced call, are written under ``.bench_out/``.

An operation is one workload call, one set-up probe or one oracle check.  A
call fails when it raises or its output differs from the oracle-checked first
call's output; a probe fails when it exits with another code than 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ZENO_LAB_THREADS")
# BLAS pools of one thread: on a few shared cores a spinning BLAS worker
# measures the scheduler, not the program.  Set before numpy is imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="import zenochain, build the workload's inputs and exit (timed by setup_s)",
    )
    return p.parse_args(argv)


def environment(thread_env: dict) -> dict:
    """Machine record: without it a number is not comparable across runs."""
    import numpy as np

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": thread_env,
        "env_set": {**BLAS_THREADS, "ZENO_LAB_THREADS": None},
        "env_note": "env holds the inherited values; env_set is what the workload runs with: "
                    "ZENO_LAB_THREADS removed and BLAS pools of one thread, so runs are serial",
        "git_commit": commit,
    }


def tree_digest(path: Path) -> tuple[str, int, int]:
    """(sha256 over names and contents, CSV data rows, bytes) of an output dir."""
    h = hashlib.sha256()
    rows = size = 0
    for f in sorted(path.rglob("*")):
        if f.is_file():
            data = f.read_bytes()
            h.update(f.relative_to(path).as_posix().encode() + b"\0" + data)
            size += len(data)
            if f.suffix == ".csv":
                rows += max(0, data.count(b"\n") - 1)  # minus the header line
    return h.hexdigest(), rows, size


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with ten samples above it."""
    k = len(values) - 10
    if k < 1:
        return None
    return round(100 * k / len(values)), sorted(values)[k - 1]


def setup_times(workload: str, seed: int, count: int) -> tuple[list[float], int]:
    """Wall times of fresh interpreters that import zenochain and build inputs."""
    times, failures = [], 0
    for _ in range(count):
        t0 = time.perf_counter()
        # a blocking wait: waiting with a timeout polls in steps of up to 50 ms
        code = subprocess.call(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        failures += code != 0
    return times, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zenochain" / "__init__.py").is_file():
        print(f"bench: zenochain sources not found under {SRC}", file=sys.stderr)
        return 2
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    # the library's worker pool reads this variable; unset means serial
    os.environ.pop("ZENO_LAB_THREADS", None)
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        inputs = workload.prepare(args.seed, workdir)
        if args.setup_only:
            return 0
        return measure(args, workload, inputs, workdir, environment(thread_env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Caller:
    """Runs workload calls into fresh output dirs and compares their outputs."""

    def __init__(self, workload, inputs, workdir: Path):
        self.workload, self.inputs, self.workdir = workload, inputs, workdir
        self.calls = self.failed = 0
        self.reference = None  # digest of the first, oracle-checked output
        self.csv_rows = self.csv_bytes = 0
        self.first_peak_rss_mb = None

    def call(self, keep: bool = False):
        """One timed call: (wall_s, cpu_s, out_dir, ok); out_dir is removed unless kept."""
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.workdir))
        self.calls += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            self.workload.run(self.inputs, out)
            ok = True
        except Exception as exc:  # a failed call is counted, the run goes on
            print(f"call {self.calls} failed: {type(exc).__name__}: {exc}")
            ok = False
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.first_peak_rss_mb is None:
            # peak of import, set-up and one call: what a one-shot run holds,
            # independent of how many calls fit in the measured window
            self.first_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        digest, self.csv_rows, self.csv_bytes = tree_digest(out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            print(f"call {self.calls}: output differs from the checked first call")
            ok = False
        self.failed += not ok
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, out, ok


def measure(args, workload, inputs, workdir: Path, env: dict) -> int:
    import hostspeed
    import oracle
    import zenochain
    from layers import HOOKS, layer_metrics
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup, setup_failed = setup_times(args.workload, args.seed, SETUP_PROBES)
    caller = Caller(workload, inputs, workdir)
    walls, cpus, traced_walls, per_call_layers, probes = [], [], [], [], []
    tracer = Tracer(zenochain, HOOKS) if args.trace else None
    spans, first_out = [], None
    # Every call is timed, the first too: imports are warm (set-up is timed
    # by the probes) and a one-shot user call pays the same first-call costs.
    # The first call's output is the one the oracle checks; every later call
    # must reproduce it byte for byte.
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, cpu, out, ok = caller.call(keep=first_out is None)
        first_out = first_out or out
        if ok:
            walls.append(wall)
            cpus.append(cpu)
        probes.append(hostspeed.probe())
        step = wall + sum(probes[-1].values())
        if tracer is not None:
            tracer.reset()
            with tracer:
                twall, _, _, tok = caller.call()
            step += twall
            if tok:
                traced_walls.append(twall)
                spans = tracer.spans
                per_call_layers.append(
                    layer_metrics(tracer.spans, tracer.counters, caller.csv_rows, caller.csv_bytes)
                )
        if time.perf_counter() + step > deadline:
            break

    checks = oracle.CHECKS[args.workload](first_out, args.seed)
    shutil.rmtree(first_out, ignore_errors=True)
    check_failed = sum(not ok for _, ok, _ in checks)
    factor = hostspeed.host_factor(probes, workload.host_mix)
    attempted = caller.calls + len(checks) + len(setup)
    failed = caller.failed + check_failed + setup_failed

    if args.trace:
        names = per_call_layers[0].keys() if per_call_layers else ()
        values = {k: statistics.median(m[k] for m in per_call_layers) for k in names}
        if walls and traced_walls:
            values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        # Other tenants of the host slow every instruction by up to 2x in
        # stretches of seconds to minutes, so raw times drift from run to
        # run.  The mean call time is rescaled by the host probe run after
        # every call (see hostspeed.py for why means): seconds on a host of
        # the reference speed.  Raw medians are printed.  Set-up, mostly
        # start-up and imports, barely slows with the host and is reported
        # raw.
        values = {
            "wall_s": statistics.fmean(walls) * factor if walls else None,
            "cpu_s": statistics.fmean(cpus) * factor if cpus else None,
            "peak_rss_mb": caller.first_peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
        if values.get(m["name"]) is not None
    }

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": env,
        "samples": {
            "untraced_calls": len(walls),
            "traced_calls": len(traced_walls),
            "setup_probes": len(setup),
            "wall_s": walls,
            "cpu_s": cpus,
            "traced_wall_s": traced_walls,
            "setup_s": setup,
            "host_probe_s": probes,
            "host_factor": factor,
            "wall_s_tail": tail(walls),
        },
        "failure_ratio": failed / attempted,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict()) + "\n")

    print("machine " + json.dumps(env))
    print(f"samples: {len(walls)} untraced and {len(traced_walls)} traced calls, "
          f"{len(setup)} setup probes; failure_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"host_factor = {factor:.6g} from {len(probes)} host probes, "
          f"mix {workload.host_mix}")
    if walls:
        print(f"raw wall_s median = {statistics.median(walls):.6g} s, "
              f"raw cpu_s median = {statistics.median(cpus):.6g} s over {len(walls)} calls")
    print(f"raw setup_s median = {statistics.median(setup):.6g} s over {len(setup)} probes")
    if tail(walls):
        print("raw wall_s p{} = {:.6g} s".format(*tail(walls)))
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
