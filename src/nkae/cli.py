"""Command-line entry point.

Subcommands: gen-landscape, gen-dataset, train, sweep, stats (compare),
plotdata. Each flag's help gives its default; a bare `nkae sweep` runs the
whole default grid. Every run prints the resolved master seed; omitted
seeds are drawn from system entropy so any run can be replayed.

Exit codes: 0 success, 1 user error, 2 I/O error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import secrets
import sys
import traceback
from dataclasses import fields, replace
from pathlib import Path

from .errors import ParameterError, finite_float, read_csv, read_text
from . import experiments, hillclimb, landscape as nkland, networks as nets, stats


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParameterError (exit 1)."""

    def error(self, message):
        raise ParameterError(f"{message}\n{self.format_usage()}")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(63)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    print(f"master seed: {seed}")
    return seed


# argparse prints the message of an ArgumentTypeError, not of other errors
def _int_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None


def _arch_list(text: str) -> tuple:
    archs = tuple(a.strip() for a in text.split(",") if a.strip())
    for a in archs:
        if a not in nets.ARCHS:
            raise argparse.ArgumentTypeError(f"unknown architecture {a!r}; choose from {nets.ARCHS}")
    return archs


# Each flag takes its default from the config field it sets, and its help prints it.
_SWEEP_DEFAULTS = {f.name: f.default for f in fields(experiments.ExperimentConfig)}


def _add_train_flags(parser, include_arch=True):
    train, sweep = hillclimb.TrainConfig(), _SWEEP_DEFAULTS
    if include_arch:
        parser.add_argument("--arch", required=True, choices=nets.ARCHS,
                            help="network variant to train")
    parser.add_argument("--iterations", type=int, default=train.iterations,
                        help="training cycles (default: %(default)s)")
    parser.add_argument("--r", type=float, default=train.r, dest="r",
                        help="mutation half-range R (default: %(default)s)")
    parser.add_argument("--h", type=int, default=train.h, dest="h",
                        help="hidden nodes H (default: %(default)s)")
    parser.add_argument("--p-autoencode", type=float, default=train.p_autoencode,
                        help="probability of an autoencoding cycle (default: %(default)s)")
    parser.add_argument("--decoder-activation", default=train.decoder_activation,
                        choices=nets.DECODER_ACTIVATIONS,
                        help="decoder node activation (default: %(default)s)")
    parser.add_argument("--decoder-bias", action="store_true",
                        help="give decoder nodes biases (default: off)")
    parser.add_argument("--eval-interval", type=int, default=train.eval_interval,
                        help="snapshot period in cycles (default: %(default)s)")
    parser.add_argument("--train-count", type=int, default=sweep["train_count"],
                        help="generated training examples per cell (default: %(default)s)")
    parser.add_argument("--test-count", type=int, default=sweep["test_count"],
                        help="generated test examples per cell (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (printed if omitted)")
    parser.add_argument("--out-dir", required=True, help="output directory")


def _experiment_config(args, seed, **grid) -> experiments.ExperimentConfig:
    """The config that the flags named after TrainConfig and ExperimentConfig fields
    give (--seed is the master seed, not TrainConfig's), with `grid`'s fields on top."""
    train = {f.name: getattr(args, f.name) for f in fields(hillclimb.TrainConfig) if f.name != "seed"}
    flags = {f.name: getattr(args, f.name) for f in fields(experiments.ExperimentConfig)
             if hasattr(args, f.name)}
    return experiments.ExperimentConfig(**{**flags, **grid}, master_seed=seed,
                                        train_config=hillclimb.TrainConfig(**train))


def build_parser() -> _Parser:
    parser = _Parser(prog="nkae", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-landscape", parents=[], help="generate a seeded NK landscape",
                       description="Generate a seeded NK landscape and write it as JSON.")
    p.add_argument("--n", type=int, required=True, help="gene count (>= 2)")
    p.add_argument("--k", type=int, required=True, help="epistasis degree (1..min(15, n-1))")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed (printed if omitted)")
    p.add_argument("--neighbors", default="random", choices=nkland.NEIGHBOR_MODES,
                   help="epistatic partner scheme (default: %(default)s)")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("gen-dataset", help="sample a labeled dataset from a landscape",
                       description="Sample genomes from a landscape file and write CSV + metadata.")
    p.add_argument("--landscape", required=True, help="landscape JSON path")
    p.add_argument("--count", type=int, default=1000,
                   help="number of examples (default: %(default)s)")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed (printed if omitted)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="hill-climb one network on one cell",
                       description="Train one network with the interleaved autoencode/task "
                                   "hill climber.")
    _add_train_flags(p)
    p.add_argument("--landscape", help="landscape JSON (otherwise generated from --n/--k)")
    p.add_argument("--train-data", help="training CSV (otherwise sampled)")
    p.add_argument("--test-data", help="test CSV (otherwise sampled)")
    p.add_argument("--n", type=int, help="gene count when generating data")
    p.add_argument("--k", type=int, help="epistasis degree when generating data")
    p.add_argument("--neighbors", default=None, choices=nkland.NEIGHBOR_MODES,
                   help="epistatic partner scheme when generating data (default: random)")

    p = sub.add_parser("sweep", help="run the full multi-run experiment grid",
                       description="Sweep (n, k, arch) cells, several runs per cell.")
    _add_train_flags(p, include_arch=False)
    sweep = _SWEEP_DEFAULTS
    # argparse converts a str default with `type`, so these print as typed
    p.add_argument("--n-grid", type=_int_list, default=",".join(map(str, sweep["n_grid"])),
                   help="comma-separated n values (default: %(default)s)")
    p.add_argument("--k-grid", type=_int_list, default=",".join(map(str, sweep["k_grid"])),
                   help="comma-separated k values (default: %(default)s)")
    p.add_argument("--archs", type=_arch_list, default=",".join(sweep["archs"]),
                   help="comma-separated architectures (default: %(default)s)")
    p.add_argument("--runs", type=int, default=sweep["runs"],
                   help="independent runs per cell (default: %(default)s)")
    p.add_argument("--neighbors", default=sweep["neighbor_mode"], choices=nkland.NEIGHBOR_MODES,
                   dest="neighbor_mode", help="epistatic partner scheme (default: %(default)s)")
    p.add_argument("--fresh-data-per-run", action="store_true",
                   help="sample a new dataset pair for every run instead of per cell")
    p.add_argument("--workers", type=int, default=sweep["workers"],
                   help="parallel trial processes, at most one per pending trial "
                        "and per CPU (default: %(default)s)")

    p = sub.add_parser("stats", help="statistical reports over result files",
                       description="Statistical comparison of two result samples.")
    stats_sub = p.add_subparsers(dest="stats_command", metavar="SUBCOMMAND")
    c = stats_sub.add_parser("compare", help="summaries, Shapiro-Wilk, and Welch t-test",
                             description="Compare two samples: summaries, Shapiro-Wilk "
                                         "normality, and a Welch t-test at alpha=0.05.")
    c.add_argument("--a", required=True, help="first sample CSV")
    c.add_argument("--b", required=True, help="second sample CSV")
    c.add_argument("--column", default="final_test_mse",
                   help="column to read from results-style CSVs (default: %(default)s)")
    c.add_argument("--format", default="json", choices=("json", "csv"),
                   help="report format (default: %(default)s)")
    c.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("plotdata", help="emit figure-style CSV series from a sweep",
                       description="Emit plot-ready CSV series from sweep output.")
    p.add_argument("--results-dir", required=True, help="sweep output directory")
    p.add_argument("--figure", required=True, choices=("fig5", "fig6", "fig7"),
                   help="series style to emit")
    p.add_argument("--n", type=int, help="cell n (fig5/fig7)")
    p.add_argument("--k", type=int, help="cell k (fig5/fig7)")
    p.add_argument("--archs", type=_arch_list, default=None,
                   help="architectures to include (defaults per figure)")

    return parser


def _sample_cell(cell: str) -> float | None:
    """A results-style sample cell: empty (as nn's final_ae_mse) or a finite number."""
    return finite_float(cell) if cell else None


def _load_sample(path: str, column: str) -> list:
    """Read a sample vector of finite numbers: a results-style CSV column or one value per line."""
    lines = read_text(path).split("\n")
    names = lines[0].split(",")
    if column in names:
        idx = names.index(column)
        rows = read_csv(path, lambda header: [_sample_cell if name == column else str
                                              for name in header])
        values = [row[idx] for row in rows if row[idx] is not None]
    else:  # one value per line: a format of its own, with no header for read_csv
        values = []
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    values.append(finite_float(line.split(",")[0]))
                except ParameterError as exc:
                    raise ParameterError(f"{path}:{lineno}: a sample value {exc}; with no {column!r} "
                                         "column, a sample file holds one value per line") from None
    if not values:
        raise ParameterError(f"{path}: no sample values (column {column!r} is empty or absent)")
    return values


def _cmd_gen_landscape(args) -> int:
    seed = _resolve_seed(args.seed)
    land = nkland.nk_new(args.n, args.k, seed, args.neighbors)
    nkland.save_landscape(land, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_dataset(args) -> int:
    land = nkland.load_landscape(args.landscape)
    seed = _resolve_seed(args.seed)
    dataset = nkland.gen_dataset(land, args.count, seed)
    nkland.save_dataset(dataset, args.out)
    print(f"wrote {args.out} ({dataset.count} examples)")
    return 0


def _cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.landscape:
        land = nkland.load_landscape(args.landscape)
        for flag, given, field in (("--n", args.n, "n"), ("--k", args.k, "k"),
                                   ("--neighbors", args.neighbors, "neighbor_mode")):
            if given is not None and given != getattr(land, field):
                raise ParameterError(f"{flag} {given} disagrees with {args.landscape}, "
                                     f"whose {field} is {getattr(land, field)!r}")
        n, k, neighbors = land.n, land.k, land.neighbor_mode
    elif args.n is not None and args.k is not None:
        n, k, neighbors = args.n, args.k, args.neighbors or _SWEEP_DEFAULTS["neighbor_mode"]
    else:
        raise ParameterError("provide --landscape or both --n and --k")
    # run 0 of arch in a one-cell sweep, written to --out-dir instead of its cell directory
    config = _experiment_config(args, seed, n_grid=(n,), k_grid=(k,), archs=(args.arch,), runs=1,
                                neighbor_mode=neighbors)
    [spec] = experiments.build_trial_specs(config)
    spec = replace(spec, cell_dir=args.out_dir)
    # generate only the sets that no file supplies
    files = (args.train_data, args.test_data)
    wanted = [request for path, request in zip(files, spec.data.requests) if not path]
    if args.landscape:
        generated = [nkland.gen_dataset(land, count, seed) for count, seed in wanted]
    else:
        generated = wanted and nkland.nk_datasets(n, k, spec.data.landscape_seed, wanted, neighbors)
    generated = iter(generated)
    datasets = [nkland.load_dataset(path) if path else next(generated) for path in files]
    for path, dataset in zip(files, datasets):
        if path and dataset.n != n:
            raise ParameterError(f"{path} has {dataset.n} inputs per example, "
                                 f"but the cell's n is {n}")
    result = experiments.run_trial(spec, datasets)
    print(f"final train task MSE: {result.final_train_mse!r}")
    print(f"final test task MSE: {result.final_test_mse!r}")
    if result.final_ae_mse is not None:
        print(f"final reconstruction MSE: {result.final_ae_mse!r}")
    print(f"wrote run artifacts to {args.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = _experiment_config(args, _resolve_seed(args.seed))
    results = experiments.run_experiment(config)
    print(f"completed {len(results)} trials; wrote {config.out_dir / 'results.csv'}")
    return 0


def _cmd_stats(args) -> int:
    if args.stats_command != "compare":
        raise ParameterError("usage: nkae stats compare --a A.csv --b B.csv")
    sample_a = _load_sample(args.a, args.column)
    sample_b = _load_sample(args.b, args.column)
    report = {
        "summary_a": vars(stats.summarize(sample_a)),
        "summary_b": vars(stats.summarize(sample_b)),
        "shapiro_a": stats.outcome(stats.shapiro_wilk, sample_a),
        "shapiro_b": stats.outcome(stats.shapiro_wilk, sample_b),
        "t_test": stats.outcome(stats.welch_t_test, sample_a, sample_b),
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:  # not `errors.write_csv`: error strings hold commas, which csv.writer quotes
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("section", "field", "value"))
        for section, body in report.items():
            writer.writerows((section, field, "" if value is None else str(value))
                             for field, value in body.items())
        text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_plotdata(args) -> int:
    path = experiments.emit_series(
        Path(args.results_dir), args.figure, args.n, args.k, args.archs
    )
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "gen-landscape": _cmd_gen_landscape,
    "gen-dataset": _cmd_gen_dataset,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
    "plotdata": _cmd_plotdata,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ParameterError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
