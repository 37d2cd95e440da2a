"""Command-line interface.

Subcommands::

    gen      generate and persist per-vehicle maneuver datasets
    pi       print a dimensionless-group basis for a variable set
    matrix   self/cross/shared MAE matrix for one scheme
    curve    learning curve (MAE vs training fraction) for one vehicle
    compare  preprocessing comparison for a single output

Exit codes: 0 success, 1 usage error, 2 runtime failure.  All commands are
deterministic given the same config and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SETTINGS, RunConfig, load_run_config, load_vehicles
from .dataset import Dataset, generate, load_csv, save_csv
from .dimensions import (
    DEFAULT_REPEATED,
    VARIABLE_SETS,
    build_dimension_matrix,
    nullspace_pi_basis,
    repeated_vars_pi_basis,
)
from .experiments import (
    check_vehicles,
    comparative_study,
    emit_comparative_csv,
    emit_curve_csv,
    emit_matrix_report,
    learning_curve,
    run_matrix,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# the settings each subcommand takes, as --key flags (config.SETTINGS defines them)
_STUDY = ("seed", "out", "rounds", "depth", "lr", "source")
COMMAND_SETTINGS = {
    "gen": ("seed", "out", "source"),
    "pi": (),
    "matrix": (*_STUDY, "scheme"),
    "curve": (*_STUDY, "scheme", "fractions", "repeats"),
    "compare": (*_STUDY, "target", "output"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="pibrake", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"gen": "generate per-vehicle datasets", "pi": "print a dimensionless-group basis"}
    funcs = {"gen": cmd_gen, "pi": cmd_pi, "matrix": cmd_matrix, "curve": cmd_curve, "compare": cmd_compare}
    subs = {}
    for name, keys in COMMAND_SETTINGS.items():
        p = subs[name] = sub.add_parser(name, help=helps.get(name, f"run the {name} experiment"))
        p.add_argument("--config", help="config file (flat key = value sections)")
        if keys:  # every command with settings runs on the vehicle registry
            p.add_argument("--vehicles", help="file holding only a [vehicles] section: name = l, Nf, Nr")
        for key in keys:
            s = SETTINGS[key]
            p.add_argument(f"--{key}", type=s.parse, choices=s.choices, help=s.help)
        p.set_defaults(func=funcs[name], settings=keys, parser=p)

    subs["pi"].add_argument("--set", dest="var_set", default="kinematic",
                            help="kinematic | dynamic | custom (custom needs a [variables] config section)")
    subs["pi"].add_argument("--repeated", help="comma-separated repeated variables, e.g. l,v_i")
    subs["pi"].add_argument("--method", choices=("repeated", "nullspace"), default="repeated")
    for name in ("matrix", "curve", "compare"):
        subs[name].add_argument("--gen", action="store_true", help="generate missing or stale datasets first")
    subs["curve"].add_argument(
        "--vehicle", required=True, help="vehicle whose self-prediction curve to compute"
    )
    return parser


def _resolve_config(args) -> RunConfig:
    """The --config file, then the --vehicles file, then each setting flag
    given; a flag value that fails its checks is a usage error."""
    cfg = load_run_config(args.config)
    if args.vehicles is not None:
        cfg.vehicles = load_vehicles(args.vehicles)
    for key in args.settings:
        value = getattr(args, key)
        if value is not None:
            try:
                SETTINGS[key].assign(cfg, value)
            except ValueError as e:
                args.parser.error(f"argument --{key}: {e}")
    return cfg


def _dataset_paths(cfg: RunConfig, source: str) -> dict[str, Path]:
    return {name: cfg.data_dir / source / f"{name}.csv" for name in cfg.vehicles}


def _load_datasets(cfg: RunConfig, source: str, gen: bool) -> dict[str, Dataset]:
    """The saved datasets of the configured vehicles.

    A missing dataset, or a stale one (saved for another vehicle geometry),
    raises; with ``gen`` it makes every dataset of the source generated anew.
    """
    paths = _dataset_paths(cfg, source)
    if all(p.exists() for p in paths.values()):
        datasets = {name: load_csv(p) for name, p in paths.items()}
        stale = [name for name, ds in datasets.items() if ds.vehicles != (cfg.vehicles[name],)]
        if not stale:
            return datasets
        if not gen:
            name = stale[0]
            raise ValueError(
                f"stale dataset {paths[name]}: it holds {datasets[name].vehicles}, but the config "
                f"gives {cfg.vehicles[name]}; pass --gen to regenerate it"
            )
    elif not gen:
        missing = [str(p) for p in paths.values() if not p.exists()]
        raise FileNotFoundError(
            f"missing datasets {missing}; run `pibrake gen --source {source}` or pass --gen"
        )
    datasets = generate(cfg.vehicles.values(), source, cfg.seed, cfg.grids[source])
    for name, ds in datasets.items():
        save_csv(ds, paths[name])
    return datasets


def cmd_gen(args) -> int:
    cfg = _resolve_config(args)
    datasets = generate(cfg.vehicles.values(), cfg.source, cfg.seed, cfg.grids[cfg.source])
    for name, ds in datasets.items():
        path = _dataset_paths(cfg, cfg.source)[name]
        save_csv(ds, path)
        print(f"{name}: {len(ds)} records -> {path}")
    return 0


def cmd_pi(args) -> int:
    cfg = load_run_config(args.config)
    if args.var_set in VARIABLE_SETS:
        variables = VARIABLE_SETS[args.var_set]()
        default_repeated = DEFAULT_REPEATED[args.var_set]
    elif args.var_set == "custom":
        if not cfg.variables:
            raise ValueError("--set custom needs a [variables] section in --config")
        variables = cfg.variables
        default_repeated = None
    else:
        raise ValueError(f"unknown variable set {args.var_set!r}")

    matrix = build_dimension_matrix(variables)
    for v in variables:
        print(f"{v.name}: [{v.dimension}] ({v.role})")

    if args.repeated is not None:
        # "" is the empty set, the repeated set of an all-dimensionless variable set
        repeated = [r.strip() for r in args.repeated.split(",") if r.strip()]
    else:
        repeated = default_repeated
    if args.method == "nullspace" or repeated is None:
        basis = nullspace_pi_basis(matrix)
        print("method: nullspace")
    else:
        basis = repeated_vars_pi_basis(matrix, repeated)
        print(f"method: repeated variables {{{', '.join(repeated)}}}")
    n, p = len(variables), matrix.rank
    print(f"buckingham count: N - P = {n} - {p} = {n - p}")
    for i, g in enumerate(basis.groups, start=1):
        print(f"pi_{i} = {g.label}")
    return 0


def cmd_matrix(args) -> int:
    cfg = _resolve_config(args)
    check_vehicles(cfg.vehicles, "matrix run")
    datasets = _load_datasets(cfg, cfg.source, args.gen)
    report = run_matrix(datasets, cfg.scheme, cfg.gbt, cfg.seed)
    out_dir = cfg.out_dir / cfg.source / cfg.scheme
    csv_path, md_path = emit_matrix_report(report, out_dir)
    for kind in ("self", "cross", "shared"):
        s = report.summary[kind]
        print(f"{kind}: X {s[0]:.4f}  Y {s[1]:.4f}  theta {s[2]:.4f}")
    print(f"wrote {csv_path} and {md_path}")
    return 0


def cmd_curve(args) -> int:
    cfg = _resolve_config(args)
    check_vehicles(cfg.vehicles, "learning curve", args.vehicle)
    datasets = _load_datasets(cfg, cfg.source, args.gen)
    points = learning_curve(
        datasets, cfg.scheme, args.vehicle, cfg.fractions, cfg.repeats, cfg.gbt, cfg.seed
    )
    path = cfg.out_dir / cfg.source / cfg.scheme / "curves" / f"{args.vehicle}.csv"
    emit_curve_csv(points, path)
    for p in points:
        print(f"fraction {p.fraction:.3f}: X {p.mae_x:.4f}  Y {p.mae_y:.4f}  theta {p.mae_theta:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    check_vehicles(cfg.vehicles, "comparative study", cfg.target_vehicle)
    datasets = _load_datasets(cfg, cfg.source, args.gen)
    study = comparative_study(
        datasets, cfg.target_vehicle, cfg.target_output, cfg.gbt, cfg.seed
    )
    path = cfg.out_dir / cfg.source / "comparative.csv"
    emit_comparative_csv(study, path)
    header = "scheme".ljust(12) + "".join(s.rjust(12) for s in study.training_sources)
    print(header)
    for scheme, row in study.rows.items():
        print(scheme.ljust(12) + "".join(f"{row[s]:.4f}".rjust(12) for s in study.training_sources))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help, or a usage error
        return int(e.code or 0)
    except Exception as e:  # runtime failures exit 2, per contract
        print(f"pibrake: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
