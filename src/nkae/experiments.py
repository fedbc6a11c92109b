"""Multi-run sweeps over (n, k, architecture) and their aggregation.

Every trial is a pure function of the master seed and its cell identity:
per-purpose seeds are derived through `derive_seed`, so any single trial can
be regenerated in isolation (deleting one trial's outputs and re-running the
sweep recomputes only that trial, bit-identically). Within a cell all
architectures share one landscape and one train/test dataset pair, which
removes data variance from the architecture comparison.

Each process builds a cell's pair once and keeps it, read-only, while its
trials run; trials are ordered so that those sharing data run back to back.
The pair is drawn by `landscape.nk_datasets`, which streams the landscape
tables row by row instead of holding all n * 2**(k+1) entries, so a sweep's
memory is set by its datasets and networks, not by its largest k.

Each trial writes its four artifacts through a temporary file and
`os.replace`, `_result.json` last; a trial counts as complete only when all
four exist, so a sweep killed at any point resumes correctly.

Wall-clock durations are inherently not reproducible, so `results.csv`
keeps its `duration_ms` column empty and measured timings go to the
`timings.csv` sidecar; everything else in the output tree is byte-identical
across re-runs and worker counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParameterError, float_cell, opt_float, read_csv, read_json, write_csv
from . import hillclimb, landscape as nkland, networks as nets, stats

ARCH_CODES = {"nan": 1, "ann": 2, "nn": 3}

PURPOSE_LANDSCAPE = 1
PURPOSE_TRAIN_DATA = 2
PURPOSE_TEST_DATA = 3
PURPOSE_TRIAL = 4

# The keys of a trial's `_result.json`, in order, and the types of their values.
RESULT_FIELDS = {
    "n": int, "k": int, "arch": str, "run": int, "seed": int,
    "final_train_mse": float, "final_test_mse": float, "final_ae_mse": (float, type(None)),
}
RESULTS_HEADER = ",".join([*RESULT_FIELDS, "duration_ms"])


def derive_seed(master: int, purpose: int, n: int = 0, k: int = 0, arch_code: int = 0, run: int = 0) -> int:
    """Mix (master, purpose, n, k, arch, run) into an independent 64-bit seed."""
    ss = np.random.SeedSequence([int(master), purpose, n, k, arch_code, run])
    return int(ss.generate_state(1, np.uint64)[0])


def _check_distinct(name, values) -> None:
    if len(set(values)) != len(values):
        raise ParameterError(f"{name} repeats a value: {values}")


@dataclass
class ExperimentConfig:
    """A sweep grid plus the training template applied to every trial."""

    master_seed: int
    out_dir: Path
    n_grid: tuple = (20, 200, 1000)
    k_grid: tuple = (2, 5, 10, 15)
    archs: tuple = ("nan", "ann", "nn")
    runs: int = 20
    train_config: hillclimb.TrainConfig = field(default_factory=hillclimb.TrainConfig)
    train_count: int = 1000
    test_count: int = 1000
    neighbor_mode: str = "random"
    fresh_data_per_run: bool = False
    workers: int = 1

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.runs < 1:
            raise ParameterError(f"runs must be >= 1, got {self.runs}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if self.train_count < 1 or self.test_count < 1:
            raise ParameterError(
                f"train_count and test_count must be >= 1, got {self.train_count} and {self.test_count}"
            )
        if self.master_seed < 0:
            raise ParameterError(f"master seed must be >= 0, got {self.master_seed}")
        nkland.check_neighbor_mode(self.neighbor_mode)
        for arch in self.archs:
            if arch not in nets.ARCHS:
                raise ParameterError(f"unknown architecture {arch!r}")
        for name in ("n_grid", "k_grid", "archs"):
            values = getattr(self, name)
            if not values:
                raise ParameterError(f"{name} must be non-empty")
            _check_distinct(name, values)
        for n, k in itertools.product(self.n_grid, self.k_grid):
            nkland.check_size(n, k)


@dataclass
class TrialResult:
    n: int
    k: int
    arch: str
    run: int
    seed: int
    final_train_mse: float
    final_test_mse: float
    final_ae_mse: float | None
    duration_ms: float | None = None


@dataclass(frozen=True)
class DataSpec:
    """Everything `landscape.nk_datasets` takes; trials share data exactly when these are equal.

    `requests` is ((train_count, train_seed), (test_count, test_seed)).
    """

    n: int
    k: int
    landscape_seed: int
    requests: tuple
    neighbor_mode: str


@dataclass
class TrialSpec:
    """Everything one trial needs; picklable for the worker pool."""

    data: DataSpec
    arch: str
    run: int
    trial_seed: int
    train_config: hillclimb.TrainConfig
    cell_dir: str


def cell_dir(out_dir, n: int, k: int) -> Path:
    """The directory of grid cell (n, k) in a sweep's output tree."""
    return Path(out_dir) / f"n{n}_k{k}"


def run_paths(directory, arch: str, run: int) -> dict:
    """The artifact paths of one run: cycles, snapshots, network and result."""
    base = Path(directory) / f"{arch}_run{run:02d}"
    return {
        "cycles": base.with_name(base.name + "_cycles.csv"),
        "snapshots": base.with_name(base.name + "_snapshots.csv"),
        "network": base.with_name(base.name + "_network.json"),
        "result": base.with_name(base.name + "_result.json"),
    }


@functools.lru_cache(maxsize=1)
def cell_datasets(data: DataSpec) -> tuple:
    """One cell's read-only (train, test) pair, kept while consecutive trials share it."""
    datasets = nkland.nk_datasets(data.n, data.k, data.landscape_seed, data.requests,
                                  data.neighbor_mode)
    for dataset in datasets:
        dataset.inputs.flags.writeable = False
        dataset.targets.flags.writeable = False
    return tuple(datasets)


def _write_atomic(path: Path, write) -> None:
    """Call `write` on a temporary sibling of `path`, then move it into place."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def run_trial(spec: TrialSpec, datasets=None) -> TrialResult:
    """Train on `datasets` (default: the cell's, regenerated from seeds) and write the artifacts."""
    paths = run_paths(spec.cell_dir, spec.arch, spec.run)
    train_set, test_set = cell_datasets(spec.data) if datasets is None else datasets
    config = replace(spec.train_config, seed=spec.trial_seed)
    start = time.perf_counter()
    network, log = hillclimb.train(spec.arch, train_set, test_set, config)
    duration_ms = (time.perf_counter() - start) * 1000.0
    Path(spec.cell_dir).mkdir(parents=True, exist_ok=True)
    _write_atomic(paths["cycles"], lambda p: hillclimb.write_cycle_log(log, p))
    _write_atomic(paths["snapshots"], lambda p: hillclimb.write_snapshot_log(log.snapshots, p))
    _write_atomic(paths["network"], lambda p: nets.save_network(network, p))
    result = TrialResult(
        spec.data.n, spec.data.k, spec.arch, spec.run, spec.trial_seed,
        log.final_train_task_mse, log.final_test_task_mse, log.final_ae_mse,
        duration_ms,
    )
    text = json.dumps({key: getattr(result, key) for key in RESULT_FIELDS})
    _write_atomic(paths["result"], lambda p: p.write_text(text, encoding="utf-8"))
    return result


def _load_trial_result(spec: TrialSpec) -> TrialResult:
    path = run_paths(spec.cell_dir, spec.arch, spec.run)["result"]
    payload = read_json(path, "a trial result")
    values = []
    for key, kind in RESULT_FIELDS.items():
        if key not in payload:
            raise ParameterError(f"{path}: trial result has no {key!r}")
        value = payload[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParameterError(f"{path}: invalid {key} {value!r}")
        values.append(value)
    identity = (spec.data.n, spec.data.k, spec.arch, spec.run, spec.trial_seed)
    if tuple(values[:5]) != identity:
        raise ParameterError(
            f"{path}: holds trial {tuple(values[:5])}, expected (n, k, arch, run, seed) = {identity}"
        )
    return TrialResult(*values, None)


def _trial_complete(spec: TrialSpec) -> bool:
    return all(p.exists() for p in run_paths(spec.cell_dir, spec.arch, spec.run).values())


def build_trial_specs(config: ExperimentConfig) -> list[TrialSpec]:
    specs = []
    master = config.master_seed
    for n, k in itertools.product(config.n_grid, config.k_grid):
        directory = str(cell_dir(config.out_dir, n, k))
        landscape_seed = derive_seed(master, PURPOSE_LANDSCAPE, n, k)
        # run-major, so that trials sharing a dataset pair are adjacent
        for run in range(config.runs):
            data_run = run if config.fresh_data_per_run else 0
            requests = (
                (config.train_count, derive_seed(master, PURPOSE_TRAIN_DATA, n, k, run=data_run)),
                (config.test_count, derive_seed(master, PURPOSE_TEST_DATA, n, k, run=data_run)),
            )
            data = DataSpec(n, k, landscape_seed, requests, config.neighbor_mode)
            for arch in config.archs:
                trial_seed = derive_seed(master, PURPOSE_TRIAL, n, k, ARCH_CODES[arch], run)
                specs.append(TrialSpec(data, arch, run, trial_seed, config.train_config, directory))
    return specs


def write_results_csv(results, path) -> None:
    """Deterministic results table, rows in the given order; duration_ms stays empty by design."""
    rows = ([str(r.n), str(r.k), r.arch, str(r.run), str(r.seed), float_cell(r.final_train_mse),
             float_cell(r.final_test_mse), float_cell(r.final_ae_mse), ""] for r in results)
    write_csv(path, RESULTS_HEADER, rows)


def load_results_csv(path) -> list[TrialResult]:
    """Read `write_results_csv`'s table; a malformed row is a ParameterError naming file:line."""
    parsers = (int, int, str, int, int, float, float, opt_float, opt_float)
    return [TrialResult(*row) for row in read_csv(path, RESULTS_HEADER, parsers)]


def run_experiment(config: ExperimentConfig) -> list[TrialResult]:
    """Execute (or resume) every trial in the grid; write results and timings.

    Trials whose four artifact files already exist are loaded, not re-run.
    The results table is a pure function of the config, independent of
    worker count and scheduling.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    specs = build_trial_specs(config)
    pending, results = [], []
    for spec in specs:
        if _trial_complete(spec):
            results.append(_load_trial_result(spec))
        else:
            pending.append(spec)
    # The fork start method starts every worker at once, so ask for no more
    # than can be busy.
    workers = min(config.workers, len(pending), os.cpu_count() or 1)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results.extend(pool.map(run_trial, pending))
        else:
            results.extend(run_trial(s) for s in pending)
    finally:
        cell_datasets.cache_clear()
    results.sort(key=lambda r: (r.n, r.k, r.arch, r.run))
    write_results_csv(results, config.out_dir / "results.csv")
    timings = ([str(r.n), str(r.k), r.arch, str(r.run), f"{r.duration_ms:.3f}"]
               for r in results if r.duration_ms is not None)
    write_csv(config.out_dir / "timings.csv", "n,k,arch,run,duration_ms", timings)
    return results


# --- aggregation ---------------------------------------------------------------

def aggregate(results, cell: tuple[int, int]) -> dict:
    """Per-architecture summaries plus pairwise t-tests for one grid cell.

    Inapplicable tests (constant samples) are surfaced as an "error" entry
    rather than aborting the report.
    """
    n, k = cell
    rows = [r for r in results if r.n == n and r.k == k]
    if not rows:
        raise ParameterError(f"no results recorded for cell (n={n}, k={k})")
    by_arch: dict[str, list] = {}
    for r in sorted(rows, key=lambda r: r.run):
        by_arch.setdefault(r.arch, []).append(r.final_test_mse)
    report: dict = {"cell": {"n": n, "k": k}, "per_arch": {}, "pairwise": {}}
    for arch, values in sorted(by_arch.items()):
        if len(values) < 2:
            raise ParameterError(
                f"cell (n={n}, k={k}) has {len(values)} {arch} trials; need >= 2"
            )
        report["per_arch"][arch] = {
            "summary": vars(stats.summarize(values)),
            "shapiro": stats.outcome(stats.shapiro_wilk, values),
        }
    for a, b in itertools.combinations(sorted(by_arch), 2):
        t_test = stats.outcome(stats.welch_t_test, by_arch[a], by_arch[b])
        if "error" in t_test:
            t_test["note"] = "t-test skipped: samples are degenerate"
        report["pairwise"][f"{a}_vs_{b}"] = t_test
    return report


# --- figure data -----------------------------------------------------------------

def _cell_snapshot_series(out_dir, results, n, k, arch):
    """Stack snapshot logs for every run of (n, k, arch); returns (iters, rows)."""
    runs = sorted(r.run for r in results if r.n == n and r.k == k and r.arch == arch)
    if not runs:
        raise ParameterError(f"no runs recorded for n={n}, k={k}, arch={arch}")
    all_snaps = []
    for run in runs:
        path = run_paths(cell_dir(out_dir, n, k), arch, run)["snapshots"]
        all_snaps.append(hillclimb.read_snapshot_log(path))
    iters = [s.iteration for s in all_snaps[0]]
    for snaps in all_snaps:
        if [s.iteration for s in snaps] != iters:
            raise ParameterError("snapshot logs disagree on iteration grid")
    return iters, all_snaps


def emit_fig6_series(out_dir) -> Path:
    """Mean/min/max final test MSE for every (n, k, arch) in the results table."""
    out_dir = Path(out_dir)
    results = load_results_csv(out_dir / "results.csv")
    cells: dict[tuple, list] = {}
    for r in results:
        cells.setdefault((r.n, r.k, r.arch), []).append(r.final_test_mse)
    rows = []
    for (n, k, arch), values in sorted(cells.items()):
        s = stats.summarize(values)
        rows.append([str(n), str(k), arch, float_cell(s.mean), float_cell(s.min), float_cell(s.max)])
    path = out_dir / "fig6.csv"
    write_csv(path, "n,k,arch,mean_test_mse,min_test_mse,max_test_mse", rows)
    return path


# figure tag -> (snapshot columns averaged over runs, default architectures)
_CURVES = {
    "fig5": (("train_task_mse", "train_ae_mse"), ("nan", "ann")),
    "fig7": (("test_task_mse",), ("nan", "nn")),
}


def _emit_curves(out_dir, figure, n, k, archs, columns) -> Path:
    """Mean of each snapshot column over the runs of (n, k, arch), per snapshot iteration.

    The first column must be present in every run; a later one that some
    run lacks (the reconstruction MSE of nn) is left empty.
    """
    out_dir = Path(out_dir)
    results = load_results_csv(out_dir / "results.csv")
    rows = []
    for arch in archs:
        iters, snaps = _cell_snapshot_series(out_dir, results, n, k, arch)
        means = []
        for column in columns:
            values = [[getattr(s, column) for s in run] for run in snaps]
            means.append(None if any(None in v for v in values) else np.mean(values, axis=0))
        if means[0] is None:
            raise ParameterError(f"runs for arch {arch!r} carry no {columns[0]} snapshots")
        for idx, it in enumerate(iters):
            cells = [float_cell(None if mean is None else mean[idx]) for mean in means]
            rows.append([str(it), arch, *cells])
    path = out_dir / f"{figure}_{cell_dir(out_dir, n, k).name}.csv"
    write_csv(path, ",".join(["iter", "arch", *(f"mean_{column}" for column in columns)]), rows)
    return path


def emit_series(out_dir, figure: str, n: int | None = None, k: int | None = None, archs=None) -> Path:
    """Dispatch to the figure-style emitters by tag: fig5, fig6 or fig7."""
    if figure == "fig6":
        return emit_fig6_series(out_dir)
    if figure not in _CURVES:
        raise ParameterError(f"unknown figure tag {figure!r}; expected fig5, fig6 or fig7")
    if n is None or k is None:
        raise ParameterError(f"{figure} requires both n and k")
    columns, default_archs = _CURVES[figure]
    archs = archs or default_archs
    _check_distinct("archs", archs)
    return _emit_curves(out_dir, figure, n, k, archs, columns)
