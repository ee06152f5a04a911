"""Command line entry point.

Subcommands: simulate, theory, compare, figure {fig2,fig3,fig4,fig5},
three-level.  Every subcommand takes --out-dir and --reproducible; simulate,
compare and figure also take --seed and --realizations, which override the
corresponding config or preset values.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .analysis import aggregate
from .config import ExperimentConfig, ParseError, ValidationError, parse_config
from .experiments import (
    preset_fig2,
    preset_fig3,
    preset_fig4,
    preset_fig5,
    run_experiment,
    run_three_level,
    write_theory_csv,
)
from .protocols import ProtocolKind


def _load_config(path: str, args: argparse.Namespace) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    config = parse_config(text)
    # theory takes neither --seed nor --realizations: its rows depend on neither
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "realizations", None) is not None:
        config = dataclasses.replace(config, realizations=args.realizations)
    if args.out_dir is not None:
        config = dataclasses.replace(config, output_path=args.out_dir)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=str, default=None, help="output directory")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="suppress the timestamp header so identical runs are byte-identical",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenochain",
        description="Stochastic Zeno confinement on spin chains: simulation and theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a config and emit all CSVs")
    p_sim.add_argument("config")
    _add_common(p_sim)

    p_theory = sub.add_parser("theory", help="emit theory.csv only")
    p_theory.add_argument("config")
    _add_common(p_theory)

    p_cmp = sub.add_parser("compare", help="simulate and print theory-vs-simulation")
    p_cmp.add_argument("config")
    _add_common(p_cmp)

    p_fig = sub.add_parser("figure", help="run a figure-reproduction preset")
    p_fig.add_argument("name", choices=["fig2", "fig3", "fig4", "fig5"])
    p_fig.add_argument("--m", type=int, default=None, help="override interval count")
    _add_common(p_fig)

    p_three = sub.add_parser("three-level", help="three-level model closed form vs numerics")
    p_three.add_argument("--omega", type=float, default=1.0)
    p_three.add_argument(
        "--g", type=str, default="0.1,1,10", help="comma-separated coupling list"
    )
    p_three.add_argument("--t-max", type=float, default=200.0)
    p_three.add_argument("--dt", type=float, default=0.05)
    _add_common(p_three)

    for p in (p_sim, p_cmp, p_fig):  # the subcommands that draw intervals
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "--realizations", type=int, default=None, help="override realization count"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            config = _load_config(args.config, args)
            result = run_experiment(config, reproducible=args.reproducible)
            print(f"wrote {len(result['files'])} files to {result['out_dir']}")
        elif args.command == "theory":
            config = _load_config(args.config, args)
            path = write_theory_csv(
                config, out_dir=config.output_path, reproducible=args.reproducible
            )
            print(f"wrote {path}")
        elif args.command == "compare":
            config = _load_config(args.config, args)
            if config.protocol.kind is not ProtocolKind.PROJECTIVE or config.protocol.bernoulli:
                raise ValidationError(
                    "compare covers post-selected projective configs only; no prediction applies"
                )
            result = run_experiment(config, reproducible=args.reproducible)
            ln_pstar = result["prediction"].log_pstar  # finite where P* underflows
            mean_ln = aggregate(result["trajectories"]).log_mean
            print(f"mean ln P (simulation): {mean_ln:.6f}")
            print(f"ln P* (time-averaged theory): {ln_pstar:.6f}")
            if ln_pstar:
                print(f"relative deviation: {abs(mean_ln - ln_pstar) / abs(ln_pstar):.4f}")
            else:  # P* = 1 to double precision: nothing to be relative to
                print("relative deviation: undefined (ln P* = 0)")
        elif args.command == "figure":
            for flag, value in (("--m", args.m), ("--realizations", args.realizations)):
                if value is not None and value < 1:
                    raise ValidationError(f"{flag} must be >= 1, got {value}")
            if args.realizations is not None and args.name in ("fig2", "fig3"):
                raise ValidationError(
                    f"{args.name} runs one realization per lambda; --realizations is for fig4/fig5"
                )
            out = args.out_dir or "out"
            kwargs = {"reproducible": args.reproducible}
            if args.m is not None:
                kwargs["m"] = args.m
            if args.realizations is not None:
                kwargs["realizations"] = args.realizations
            runner = {
                "fig2": preset_fig2,
                "fig3": preset_fig3,
                "fig4": preset_fig4,
                "fig5": preset_fig5,
            }[args.name]
            if args.seed is not None:
                kwargs["seed"] = args.seed
            path = runner(out, **kwargs)
            print(f"wrote {path}")
        elif args.command == "three-level":
            out = args.out_dir or "out"
            try:  # run_three_level checks every value before it builds the grid
                g_list = [float(x) for x in args.g.split(",") if x.strip()]
                path = run_three_level(
                    args.omega, g_list, args.t_max, args.dt, out, args.reproducible
                )
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
            print(f"wrote {path}")
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        kind = "io" if isinstance(exc, OSError) else "memory"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
