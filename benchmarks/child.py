"""One fresh interpreter per measurement; started by run.py, not by hand.

    child.py setup --workload W --seed S
        time `import nkae` plus one landscape and train/test pair per cell
    child.py sweep --workload W --seed S --out DIR [--trace FILE]
        time one `run_experiment` into the empty DIR; with --trace, wrap
        every layer, write the span table to FILE and report per-layer metrics

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import ARCHS, BLOCKS, EXAMPLES, SELF_TEST, WORKLOADS  # noqa: E402

# Top-up target for per-block call counts in the traced run (see tracing.top_up_blocks).
MIN_BLOCK_CALLS = 10


def _cell_data(nkae, master_seed, n, k):
    from nkae.experiments import (
        PURPOSE_LANDSCAPE, PURPOSE_TEST_DATA, PURPOSE_TRAIN_DATA, derive_seed,
    )
    land = nkae.nk_new(n, k, derive_seed(master_seed, PURPOSE_LANDSCAPE, n, k))
    train_set = nkae.gen_dataset(land, EXAMPLES, derive_seed(master_seed, PURPOSE_TRAIN_DATA, n, k))
    test_set = nkae.gen_dataset(land, EXAMPLES, derive_seed(master_seed, PURPOSE_TEST_DATA, n, k))
    return land, train_set, test_set


def peak_rss_kib():
    """This process's own resident-set high-water mark.

    ru_maxrss is not used: Linux carries the spawning parent's resident size
    into it across fork and exec, so it reads at least the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(workload, master_seed):
    start = time.perf_counter()
    import nkae
    for n, k in workload.cells:
        _cell_data(nkae, master_seed, n, k)
    return {"setup_s": time.perf_counter() - start}


def _generation_peak_mib(nkae, workload, master_seed):
    """Largest traced allocation peak of generating one cell's data."""
    peak = 0
    for n, k in workload.cells:
        tracemalloc.start()
        data = _cell_data(nkae, master_seed, n, k)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        del data
    return peak / 2**20


def _per_layer(tracer, sweep_spans, final_spans):
    """Per-layer metrics: name -> (value, unit)."""

    def mean(spans, name, scale):
        calls, total, _ = spans.get(name, (0, 0.0, 0.0))
        return total / calls * scale if calls else 0.0

    def calls(name):
        return sweep_spans.get(name, (0,))[0]

    trials = calls("experiments.run_trial")
    m = {
        "landscape.nk_new_ms": (mean(sweep_spans, "landscape.nk_new", 1e3), "ms"),
        "landscape.gen_dataset_ms": (mean(sweep_spans, "landscape.gen_dataset", 1e3), "ms"),
        "landscape.calls": (calls("landscape.nk_new"), "count"),
        "networks.task_mse_us": (mean(sweep_spans, "networks.task_mse", 1e6), "us"),
        "networks.save_network_ms": (mean(sweep_spans, "networks.save_network", 1e3), "ms"),
        "networks.calls": (
            sum(c for name, (c, _, _) in sweep_spans.items() if name.startswith("networks.")),
            "count",
        ),
        "hillclimb.write_cycle_log_ms": (mean(sweep_spans, "hillclimb.write_cycle_log", 1e3), "ms"),
        "hillclimb.write_snapshot_log_ms": (
            mean(sweep_spans, "hillclimb.write_snapshot_log", 1e3), "ms"),
        "experiments.run_trial_self_ms": (
            sweep_spans["experiments.run_trial"][2] / trials * 1e3, "ms"),
        "experiments.trials": (trials, "count"),
    }
    for arch in ("nan", "ann"):
        m[f"networks.ae_mse_us.{arch}"] = (mean(sweep_spans, f"networks.ae_mse.{arch}", 1e6), "us")
    for arch in ARCHS:
        train = sweep_spans[f"hillclimb.train.{arch}"]
        m[f"hillclimb.train_s.{arch}"] = (train[1] / train[0], "s")
        m[f"hillclimb.loop_self_us.{arch}"] = (train[2] / tracer.cycles[arch] * 1e6, "us")
        for block in BLOCKS[arch]:
            key = f"{arch}.{block}"
            m[f"incremental.propose_us.{key}"] = (
                mean(final_spans, f"incremental.propose.{key}", 1e6), "us")
            m[f"incremental.accept_us.{key}"] = (
                mean(final_spans, f"incremental.accept.{key}", 1e6), "us")
            proposals, accepts, ties = tracer.climb_counts.get((arch, block), (0, 0, 0))
            m[f"hillclimb.proposals.{key}"] = (proposals, "count")
            m[f"hillclimb.accepts.{key}"] = (accepts, "count")
            m[f"hillclimb.ties.{key}"] = (ties, "count")
    return m


def sweep(workload, master_seed, out_dir, trace_path):
    import nkae
    from tracing import Tracer, install, top_up_blocks

    config = nkae.ExperimentConfig(
        master_seed=master_seed,
        out_dir=out_dir,
        n_grid=workload.n_grid,
        k_grid=workload.k_grid,
        archs=ARCHS,
        runs=workload.runs,
        train_config=nkae.TrainConfig(iterations=workload.iterations),
        train_count=EXAMPLES,
        test_count=EXAMPLES,
        workers=1,
    )
    tracer = Tracer() if trace_path else None
    undo = install(tracer) if tracer else None
    start = time.perf_counter()
    nkae.run_experiment(config)
    sweep_s = time.perf_counter() - start
    result = {
        "sweep_s": sweep_s,
        "peak_rss_kib": peak_rss_kib(),
    }
    if tracer is None:
        return result

    sweep_spans = tracer.by_name()
    n, k = workload.cells[0]
    _, train_set, _ = _cell_data(nkae, master_seed, n, k)
    cell_dir = Path(out_dir) / f"n{n}_k{k}"
    trained = {arch: nkae.load_network(cell_dir / f"{arch}_run00_network.json") for arch in ARCHS}
    top_up_blocks(tracer, trained, train_set, BLOCKS, MIN_BLOCK_CALLS, master_seed)
    final_spans = tracer.by_name()
    undo()
    del train_set, trained
    metrics = _per_layer(tracer, sweep_spans, final_spans)
    metrics["landscape.peak_mib"] = (_generation_peak_mib(nkae, workload, master_seed), "MiB")
    Path(trace_path).write_text(
        json.dumps({"sweep_s": sweep_s, "spans": tracer.dump()}, indent=1), encoding="utf-8"
    )
    result["per_layer"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    workload = SELF_TEST if args.workload == SELF_TEST.name else WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        result = sweep(workload, args.seed, args.out, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
