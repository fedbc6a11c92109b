import dataclasses
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from nkae import (
    ExperimentConfig,
    ParameterError,
    TrainConfig,
    TrialResult,
    aggregate,
    derive_seed,
    emit_series,
    run_experiment,
)
from nkae import experiments as exps
from nkae.hillclimb import read_snapshot_log

from helpers import read_tree


def tiny_config(out_dir, runs=2, archs=("nan", "ann", "nn"), workers=1, **kwargs):
    return ExperimentConfig(
        master_seed=77,
        out_dir=out_dir,
        n_grid=(8,),
        k_grid=(2,),
        archs=archs,
        runs=runs,
        train_config=TrainConfig(seed=0, iterations=150, h=3, eval_interval=50),
        train_count=40,
        test_count=40,
        workers=workers,
        **kwargs,
    )


# --- seed derivation -------------------------------------------------------------

def test_derive_seed_frozen_values():
    assert derive_seed(42, exps.PURPOSE_TRIAL, 20, 5, 1, 0) == 12856856498721955267
    assert derive_seed(42, exps.PURPOSE_LANDSCAPE, 20, 5) == 494181662505812954


def test_derive_seed_distinct_across_tags():
    seen = {
        derive_seed(7, purpose, n, k, arch, run)
        for purpose in (1, 2, 3, 4)
        for n in (8, 20)
        for k in (2, 5)
        for arch in (0, 1, 2)
        for run in (0, 1)
    }
    assert len(seen) == 4 * 2 * 2 * 3 * 2


def test_trials_share_cell_data_unless_fresh():
    shared = exps.build_trial_specs(tiny_config(Path("unused")))
    by_run = {(s.arch, s.run): s for s in shared}
    assert by_run[("nan", 0)].data == by_run[("nn", 1)].data
    fresh = exps.build_trial_specs(tiny_config(Path("unused"), fresh_data_per_run=True))
    by_run = {(s.arch, s.run): s for s in fresh}
    assert by_run[("nan", 0)].data != by_run[("nan", 1)].data
    assert by_run[("nan", 0)].data == by_run[("ann", 0)].data


# --- grid validation -----------------------------------------------------------------

def test_invalid_grid_rejected(tmp_path):
    with pytest.raises(ParameterError):
        ExperimentConfig(master_seed=1, out_dir=tmp_path, n_grid=(8,), k_grid=(9,))
    with pytest.raises(ParameterError):
        ExperimentConfig(master_seed=1, out_dir=tmp_path, runs=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(master_seed=1, out_dir=tmp_path, archs=("mlp",))


@pytest.mark.parametrize("counts", [{"train_count": 0}, {"test_count": 0}, {"test_count": -3}])
def test_nonpositive_example_counts_rejected(tmp_path, counts):
    with pytest.raises(ParameterError, match="train_count and test_count"):
        ExperimentConfig(master_seed=1, out_dir=tmp_path, **counts)


def test_unknown_neighbor_mode_rejected_before_any_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ParameterError, match="neighbor_mode"):
        run_experiment(tiny_config(out, neighbor_mode="ring"))
    assert not out.exists()


@pytest.mark.parametrize("grid", [{"n_grid": (8, 8)}, {"k_grid": (2, 2)}, {"archs": ("nan", "nan")}])
def test_repeated_grid_value_rejected_before_any_output(tmp_path, grid):
    out = tmp_path / "out"
    grid = {"n_grid": (8,), "k_grid": (2,), "archs": ("nan", "nn"), **grid}
    with pytest.raises(ParameterError, match="repeats"):
        run_experiment(ExperimentConfig(master_seed=77, out_dir=out, runs=2, **grid))
    assert not out.exists()


# --- running sweeps ----------------------------------------------------------------------

def test_single_arch_two_runs(tmp_path):
    results = run_experiment(tiny_config(tmp_path / "out", archs=("nan",)))
    assert len(results) == 2
    assert all(r.arch == "nan" for r in results)
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "timings.csv").exists()


def test_full_cell_yields_sixty_trials(tmp_path):
    config = tiny_config(tmp_path / "out", runs=20)
    results = run_experiment(config)
    assert len(results) == 60
    loaded = exps.load_results_csv(tmp_path / "out" / "results.csv")
    assert len(loaded) == 60
    assert {r.arch for r in loaded} == {"nan", "ann", "nn"}


def test_rerun_is_byte_identical(tmp_path):
    run_experiment(tiny_config(tmp_path / "a"))
    run_experiment(tiny_config(tmp_path / "b"))
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_worker_count_does_not_change_outputs(tmp_path):
    run_experiment(tiny_config(tmp_path / "serial", workers=1))
    run_experiment(tiny_config(tmp_path / "parallel", workers=2))
    assert read_tree(tmp_path / "serial") == read_tree(tmp_path / "parallel")


class SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "archs, runs, workers, cpus, sizes",
    [
        (("nan",), 2, 500, 64, [2]),             # capped by the pending trials
        (("nan", "ann", "nn"), 2, 500, 3, [3]),  # capped by the CPU count
        (("nan", "ann", "nn"), 2, 4, 64, [4]),
        (("nan",), 1, 500, 64, []),              # one trial runs in-process
    ],
)
def test_worker_pool_sized_to_pending_trials_and_cpus(tmp_path, monkeypatch,
                                                       archs, runs, workers, cpus, sizes):
    monkeypatch.setattr(exps, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(exps.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(SerialPool, "sizes", [])
    config = tiny_config(tmp_path / "out", runs=runs, archs=archs, workers=workers)
    assert len(run_experiment(config)) == len(archs) * runs
    assert SerialPool.sizes == sizes


def test_deleted_trial_regenerated_identically(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out))
    before = read_tree(out)
    removed = list(out.glob("n8_k2/ann_run01_*"))
    assert len(removed) == 4
    for path in removed:
        path.unlink()
    results_again = run_experiment(tiny_config(out))
    assert read_tree(out) == before
    assert len(results_again) == 6


def test_results_have_ae_only_for_decoder_archs(tmp_path):
    results = run_experiment(tiny_config(tmp_path / "out"))
    for r in results:
        if r.arch == "nn":
            assert r.final_ae_mse is None
        else:
            assert r.final_ae_mse > 0.0


def test_duration_column_stays_empty(tmp_path):
    run_experiment(tiny_config(tmp_path / "out", archs=("nn",)))
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == exps.RESULTS_HEADER
    assert all(line.endswith(",") for line in lines[1:])
    timing_lines = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert len(timing_lines) == 3  # header + 2 executed trials


def timing_rows(out):
    """timings.csv's rows as (trial identity, duration cell), after checking its header."""
    lines = (out / "timings.csv").read_bytes().decode().split("\n")
    assert lines[0] == "n,k,arch,run,duration_ms" and lines[-1] == ""
    return [tuple(line.rsplit(",", 1)) for line in lines[1:-1]]


def test_timings_hold_one_row_per_trial_that_ran(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out, archs=("nan", "nn")))
    rows = timing_rows(out)
    assert [trial for trial, _ in rows] == ["8,2,nan,0", "8,2,nan,1", "8,2,nn,0", "8,2,nn,1"]
    assert all(re.fullmatch(r"\d+\.\d{3}", duration) for _, duration in rows)
    for path in out.glob("n8_k2/nn_run01_*"):
        path.unlink()
    run_experiment(tiny_config(out, archs=("nan", "nn")))
    # the three trials loaded on resume have no duration
    [(trial, duration)] = timing_rows(out)
    assert trial == "8,2,nn,1" and re.fullmatch(r"\d+\.\d{3}", duration)


# --- cell data built once per process -----------------------------------------------------

def count_builds(monkeypatch):
    builds = []
    real = exps.nkland.nk_datasets

    def counted(n, k, landscape_seed, requests, neighbor_mode):
        builds.append((n, k, tuple(requests)))
        return real(n, k, landscape_seed, requests, neighbor_mode)

    monkeypatch.setattr(exps.nkland, "nk_datasets", counted)
    return builds


@pytest.mark.parametrize("fresh, expected", [(False, 2), (True, 4)])
def test_cell_data_built_once_per_cell_or_run(tmp_path, monkeypatch, fresh, expected):
    builds = count_builds(monkeypatch)
    config = dataclasses.replace(
        tiny_config(tmp_path / "out", fresh_data_per_run=fresh), k_grid=(2, 3)
    )
    assert len(run_experiment(config)) == 12
    # 2 cells; with fresh data, one pair per (cell, run)
    assert len(builds) == expected
    assert len(set(builds)) == expected
    assert exps.cell_datasets.cache_info().currsize == 0


def test_cached_datasets_are_read_only(tmp_path, monkeypatch):
    seen = []
    real_train = exps.hillclimb.train

    def spying_train(arch, train_set, test_set, config):
        seen.extend([train_set, test_set])
        return real_train(arch, train_set, test_set, config)

    monkeypatch.setattr(exps.hillclimb, "train", spying_train)
    run_experiment(tiny_config(tmp_path / "out"))
    assert len(seen) == 12
    for dataset in seen:
        with pytest.raises(ValueError):
            dataset.inputs[0, 0] = 0.0
        with pytest.raises(ValueError):
            dataset.targets[0] = 0.0


# --- interrupted sweeps ----------------------------------------------------------------------

@pytest.mark.parametrize("suffix", ["_cycles.csv", "_network.json", "_result.json"])
def test_interrupted_write_resumes_identically(tmp_path, monkeypatch, suffix):
    run_experiment(tiny_config(tmp_path / "clean"))
    real_write = Path.write_text
    attempts = []

    def failing_write(self, text, *args, **kwargs):
        if suffix in self.name:
            attempts.append(self)
            if len(attempts) == 3:
                real_write(self, text[: len(text) // 2], *args, **kwargs)
                raise RuntimeError("killed mid-write")
        return real_write(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(RuntimeError, match="killed mid-write"):
        run_experiment(tiny_config(tmp_path / "out"))
    monkeypatch.undo()
    out = tmp_path / "out"
    assert not list(out.rglob("*.tmp"))
    assert not attempts[-1].with_suffix("").exists()
    # a hard kill skips the clean-up and leaves the truncated temporary file
    attempts[-1].write_text('{"n": 8, "k"', encoding="utf-8")
    assert len(run_experiment(tiny_config(out))) == 6
    assert read_tree(out) == read_tree(tmp_path / "clean")


# --- aggregation -----------------------------------------------------------------------------

def fake_results(arch, values, n=8, k=2):
    return [
        TrialResult(n, k, arch, run, 1000 + run, 0.01, value, 0.5)
        for run, value in enumerate(values)
    ]


def test_aggregate_identical_vectors():
    values = [0.01, 0.012, 0.02, 0.011]
    report = aggregate(fake_results("nan", values) + fake_results("ann", values), (8, 2))
    t = report["pairwise"]["ann_vs_nan"]
    assert t["statistic"] == 0.0
    assert t["p_value"] == 1.0
    assert not t["significant"]


def test_aggregate_detects_systematic_gap():
    rng = np.random.default_rng(3)
    ann = 0.05 + rng.normal(0.0, 1e-4, 20)
    nan_vals = ann - 0.01
    report = aggregate(fake_results("ann", ann) + fake_results("nan", nan_vals), (8, 2))
    t = report["pairwise"]["ann_vs_nan"]
    assert t["significant"] and t["p_value"] < 0.05
    assert (
        report["per_arch"]["nan"]["summary"]["mean"]
        < report["per_arch"]["ann"]["summary"]["mean"]
    )


def test_aggregate_surfaces_inapplicable_tests():
    constant = fake_results("nan", [0.5] * 20) + fake_results("ann", [0.5] * 20)
    report = aggregate(constant, (8, 2))
    assert "error" in report["per_arch"]["nan"]["shapiro"]
    assert "error" in report["pairwise"]["ann_vs_nan"]
    assert "skipped" in report["pairwise"]["ann_vs_nan"]["note"]


def test_aggregate_missing_cell():
    with pytest.raises(ParameterError):
        aggregate(fake_results("nan", [0.1, 0.2]), (20, 5))


def test_aggregate_requires_two_trials_per_arch():
    with pytest.raises(ParameterError):
        aggregate(fake_results("nan", [0.1]), (8, 2))


# --- figure series -----------------------------------------------------------------------------

def test_fig5_single_run_equals_snapshots(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out, runs=1, archs=("nan", "ann")))
    path = emit_series(out, "fig5", 8, 2)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,arch,mean_train_task_mse,mean_train_ae_mse"
    snaps = read_snapshot_log(out / "n8_k2" / "nan_run00_snapshots.csv")
    nan_rows = [l.split(",") for l in lines[1:] if l.split(",")[1] == "nan"]
    assert [int(r[0]) for r in nan_rows] == [s.iteration for s in snaps]
    for row, snap in zip(nan_rows, snaps):
        assert float(row[2]) == snap.train_task_mse
        assert float(row[3]) == snap.train_ae_mse


def test_fig5_two_runs_averages_snapshots(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out, runs=2, archs=("ann",)))
    path = emit_series(out, "fig5", 8, 2, archs=("ann",))
    snaps = [
        read_snapshot_log(out / "n8_k2" / f"ann_run{r:02d}_snapshots.csv")
        for r in range(2)
    ]
    rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
    for idx, row in enumerate(rows):
        expected = np.mean([snaps[0][idx].train_task_mse, snaps[1][idx].train_task_mse])
        assert float(row[2]) == expected


def test_fig6_extremes_match_results(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out, runs=3, archs=("nn",)))
    path = emit_series(out, "fig6")
    rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
    values = [r.final_test_mse for r in exps.load_results_csv(out / "results.csv")]
    assert float(rows[0][3]) == np.mean(values)
    assert float(rows[0][4]) == min(values)
    assert float(rows[0][5]) == max(values)


def test_fig7_emits_test_series(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out, runs=2, archs=("nan", "nn")))
    path = emit_series(out, "fig7", 8, 2)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,arch,mean_test_task_mse"
    assert {l.split(",")[1] for l in lines[1:]} == {"nan", "nn"}


def test_emit_series_validation(tmp_path):
    out = tmp_path / "out"
    run_experiment(tiny_config(out, runs=1, archs=("nn",)))
    with pytest.raises(ParameterError):
        emit_series(out, "fig9")
    with pytest.raises(ParameterError):
        emit_series(out, "fig5")
    with pytest.raises(ParameterError, match="no runs recorded for n=20, k=5"):
        emit_series(out, "fig7", 20, 5)  # cell never ran
    shutil.rmtree(out)
    with pytest.raises(FileNotFoundError):
        emit_series(out, "fig6")
