"""Acceptance suite: one test per numbered criterion.

Each test prints an `ACCEPTANCE n: PASS/FAIL` line (repeated in a summary
after the run; use `pytest -s` to see them live). Criteria 6 and 7 run the
real experiments as sweeps on every usable CPU and take minutes each; the
whole module fits in the stated runtime budgets on a single core.
"""

import shutil
import time

import numpy as np
import pytest

from nkae import (
    Dataset,
    EvalCache,
    ExperimentConfig,
    TrainConfig,
    aggregate,
    fitness_batch,
    gen_dataset,
    init_network,
    nk_new,
    run_experiment,
    shapiro_wilk,
    train,
    welch_t_test,
)
from nkae import networks as nets
from nkae.experiments import (
    PURPOSE_LANDSCAPE,
    PURPOSE_TRAIN_DATA,
    derive_seed,
    emit_series,
    usable_cpus,
)
from nkae.incremental import scratch_divergence, scratch_objectives

from conftest import record_acceptance
from helpers import read_tree
from oracles import (
    all_genomes,
    monotonicity_violations,
    oracle_fitness,
    oracle_objective,
    pick_coordinate,
    replay_final_network,
    same_network,
)
from test_stats import SW_FIXTURES, WELCH_FIXTURES, closed_form_welch


# the sweeps of criteria 6 and 7 run one worker process per usable CPU; their
# bytes do not depend on the worker count (criterion 3)
WORKERS = usable_cpus()


def check(criterion, ok, detail):
    record_acceptance(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1: NK oracle equivalence ---------------------------------------------------

def test_criterion_1_nk_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in range(2, 11):
        for k in range(1, min(4, n - 1) + 1):
            for seed in range(5):
                land = nk_new(n, k, seed=seed * 7919 + n * 131 + k)
                genomes = np.array(list(all_genomes(n)), dtype=np.uint8)
                fast = fitness_batch(land, genomes)
                for genome, value in zip(genomes, fast):
                    checked += 1
                    if value != oracle_fitness(land.tables, land.neighbors, genome):
                        mismatches += 1
                if fast.min() < 0.0 or fast.max() > 1.0:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    check(1, ok, f"{checked} genome evaluations bitwise-equal to brute force, "
                 f"{mismatches} mismatches, {elapsed:.1f}s (< 10s)")


# -- 2: monotonicity over full default-length runs -----------------------------------

def test_criterion_2_monotonicity_suite():
    start = time.perf_counter()
    land = nk_new(20, 5, seed=40405)
    train_set = gen_dataset(land, 1000, seed=1)
    problems = []
    runs = 0
    for arch in ("nn", "nan", "ann"):
        for seed in range(5):
            config = TrainConfig(seed=seed + 100)
            net, log = train(arch, train_set, None, config)
            runs += 1
            violations = monotonicity_violations(arch, log.records)
            if violations:
                problems.append(f"{arch}/seed{seed}: {violations[0]}")
            replayed = replay_final_network(arch, 20, config, log.records)
            if not same_network(replayed, net):
                problems.append(f"{arch}/seed{seed}: rejected proposal leaked a mutation")
            if len(log.snapshots) != 100:
                problems.append(f"{arch}/seed{seed}: {len(log.snapshots)} snapshots")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    check(2, ok, f"{runs} full default-length runs; monotone streams, bit-identical "
                 f"reverts and snapshot cadence: "
                 f"{problems if problems else 'all clean'}; {elapsed:.0f}s (< 120s)")


# -- 3: sweep determinism ---------------------------------------------------------------

def test_criterion_3_sweep_determinism(tmp_path):
    def config(out, workers):
        return ExperimentConfig(
            master_seed=3003, out_dir=out, n_grid=(20,), k_grid=(5,),
            archs=("nan", "ann", "nn"), runs=2, train_config=TrainConfig(seed=0),
            workers=workers,
        )

    run_experiment(config(tmp_path / "first", 1))
    run_experiment(config(tmp_path / "second", 1))
    run_experiment(config(tmp_path / "pooled", 2))
    first = read_tree(tmp_path / "first")
    identical_rerun = first == read_tree(tmp_path / "second")
    identical_pool = first == read_tree(tmp_path / "pooled")
    ok = identical_rerun and identical_pool
    check(3, ok, f"results.csv and {len(first) - 1} run-log files byte-identical: "
                 f"rerun={identical_rerun}, workers=2 {identical_pool}")


# -- 4: incremental-evaluation equivalence ------------------------------------------------

def test_criterion_4_incremental_equivalence():
    rng = np.random.default_rng(444)
    bits = rng.integers(0, 2, size=(60, 10))
    dataset = Dataset(bits * 2.0 - 1.0, rng.random(60))
    worst_overall = 0.0
    for arch in ("nn", "nan", "ann"):
        config = TrainConfig(seed=0, h=4)
        net = init_network(arch, 10, config, np.random.default_rng(8))
        cache = EvalCache(net, dataset)
        worst = 0.0
        for _ in range(10_000):
            kind = "task" if rng.random() < 0.5 else "autoencode"
            coord = pick_coordinate(net, kind, rng)
            delta = float(rng.uniform(-1.0, 1.0))
            _, candidate = cache.propose(coord, delta)
            probe = net.copy()
            probe.params[probe.index(coord)] += delta
            worst = max(worst, abs(candidate - oracle_objective(probe, coord, dataset)))
            if rng.random() < 0.5:
                cache.accept()
            else:
                cache.reject()
            worst = max(worst, scratch_divergence((cache.task_mse, cache.ae),
                                                    scratch_objectives(net, dataset)))
        worst_overall = max(worst_overall, worst)
    ok = worst_overall < 1e-12
    check(4, ok, f"30000 mutate/accept/reject steps, max |cached - naive| = "
                 f"{worst_overall:.2e} (< 1e-12)")


# -- 5: statistics validation ----------------------------------------------------------------

def test_criterion_5_statistics_validation():
    worst_t = worst_p = 0.0
    for a, b, t_ref, df_ref, p_ref in WELCH_FIXTURES:
        report = welch_t_test(a, b)
        t_closed, df_closed = closed_form_welch(a, b)
        worst_t = max(worst_t, abs(report.statistic - t_closed),
                      abs(report.statistic - t_ref), abs(report.df - df_closed))
        worst_p = max(worst_p, abs(report.p_value - p_ref))
    worst_w = worst_sw_p = 0.0
    for sample, w_ref, p_ref in SW_FIXTURES:
        report = shapiro_wilk(sample)
        worst_w = max(worst_w, abs(report.statistic - w_ref))
        worst_sw_p = max(worst_sw_p, abs(report.p_value - p_ref))
    ok = worst_t < 1e-6 and worst_p < 1e-6 and worst_w < 1e-3 and worst_sw_p < 1e-3
    check(5, ok, f"Welch max |t err| {worst_t:.2e}, |p err| {worst_p:.2e} (< 1e-6); "
                 f"Shapiro-Wilk max |W err| {worst_w:.2e}, |p err| {worst_sw_p:.2e} (< 1e-3)")


# -- 6 & 8 share one small-N sweep --------------------------------------------------------------

@pytest.fixture(scope="module")
def small_n_sweep(tmp_path_factory):
    """The sweep tree, removed after its last test: pytest keeps a factory directory."""
    out = tmp_path_factory.mktemp("c6_sweep")
    start = time.perf_counter()
    config = ExperimentConfig(
        master_seed=1001, out_dir=out, n_grid=(20,), k_grid=(2, 5, 10, 15),
        archs=("nan", "ann"), runs=20, train_config=TrainConfig(seed=0), workers=WORKERS,
    )
    results = run_experiment(config)
    yield out, results, time.perf_counter() - start
    shutil.rmtree(out)


def test_criterion_6_small_n_directional_claim(small_n_sweep):
    _, results, elapsed = small_n_sweep
    cell_summaries = []
    failures = []
    for k in (2, 5, 10, 15):
        report = aggregate(results, (20, k))
        nan_mean = report["per_arch"]["nan"]["summary"]["mean"]
        ann_mean = report["per_arch"]["ann"]["summary"]["mean"]
        t = report["pairwise"]["ann_vs_nan"]
        cell_summaries.append(f"k={k}: nan {nan_mean:.5f} ann {ann_mean:.5f} p={t['p_value']:.3g}")
        if nan_mean > ann_mean:
            failures.append(f"k={k}: NAN mean {nan_mean:.5f} > ANN mean {ann_mean:.5f}")
        if t["significant"] and ann_mean < nan_mean:
            failures.append(f"k={k}: ANN significantly better (p={t['p_value']:.3g})")
    ok = not failures and elapsed < 900.0
    check(6, ok, f"{'; '.join(cell_summaries)}; {elapsed:.0f}s with {WORKERS} workers (< 900s)"
                 + (f"; FAILURES: {failures}" if failures else ""))


def test_criterion_8_fig5_series_consistency(small_n_sweep):
    out, results, _ = small_n_sweep
    path = emit_series(out, "fig5", 20, 5, archs=("nan", "ann"))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    nan_rows = [r for r in rows if r[1] == "nan"]
    assert len(nan_rows) == 100
    emitted_final_ae = float(nan_rows[-1][3])

    # independent recomputation: reload every run's final network snapshot and
    # average the per-neuron reconstruction errors on the regenerated train set
    land = nk_new(20, 5, derive_seed(1001, PURPOSE_LANDSCAPE, 20, 5))
    train_set = gen_dataset(land, 1000, derive_seed(1001, PURPOSE_TRAIN_DATA, 20, 5))
    per_run = []
    for run in sorted(r.run for r in results if r.k == 5 and r.arch == "nan"):
        network = nets.load_network(out / "n20_k5" / f"nan_run{run:02d}_network.json")
        per_neuron = [nets.neuron_ae_mse(network, j, train_set) for j in range(network.h)]
        per_run.append(sum(per_neuron) / network.h)
    recomputed = float(np.mean(np.asarray(per_run)))
    diff = abs(emitted_final_ae - recomputed)
    ok = diff < 1e-12
    check(8, ok, f"fig5 NAN AE series end {emitted_final_ae:.6f} vs recomputed "
                 f"{recomputed:.6f} from 20 final snapshots, |diff| = {diff:.2e} (< 1e-12)")


# -- 7: large-N directional claim -------------------------------------------------------------------

def test_criterion_7_large_n_directional_claim(tmp_path):
    start = time.perf_counter()
    results = run_experiment(ExperimentConfig(
        master_seed=2002, out_dir=tmp_path, n_grid=(1000,), k_grid=(5,), archs=("nan", "nn"),
        runs=20, workers=WORKERS,
    ))
    # results come sorted by arch, then run
    finals = {arch: [r.final_test_mse for r in results if r.arch == arch] for arch in ("nan", "nn")}
    nan_mean = float(np.mean(finals["nan"]))
    nn_mean = float(np.mean(finals["nn"]))
    report = welch_t_test(finals["nan"], finals["nn"])
    elapsed = time.perf_counter() - start
    ok = nan_mean <= nn_mean and elapsed < 1800.0
    check(7, ok, f"n=1000 k=5: nan {nan_mean:.6f} <= nn {nn_mean:.6f}: {nan_mean <= nn_mean}, "
                 f"Welch p={report.p_value:.3g}; {elapsed:.0f}s with {WORKERS} workers (< 1800s)")
