#!/usr/bin/env python3
"""nkae benchmark: sweep time, set-up time, peak memory and artifact size.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-n20 --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --self-test

Each measurement runs in a fresh interpreter (benchmarks/child.py) that
drives the public `nkae.run_experiment` with workers=1 on an empty
directory under .bench_out/. --trace 0 reports the end-to-end metrics;
--trace 1 makes one untraced and one traced sweep and reports the
per-layer metrics and the tracing overhead. Every run checks the outputs
(checks.py). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the sweep runs in one process, its hot kernels are
# elementwise numpy that BLAS threads do not touch, and spinning BLAS
# threads make timings on a small shared host noisy.
BLAS_THREADS = "1"
THREAD_ENV = {v: BLAS_THREADS for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread settings)

# One CPU for this process and every child it starts: the reference
# computation and the sweep it is compared with then run on the same CPU.
PINNED_CPU = max(os.sched_getaffinity(0))

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
# Fewest timed rounds in a --trace 0 run, however short --seconds is.
MIN_ROUNDS = 5
sys.path.insert(0, str(ROOT / "src"))

from checks import check_tree, compare_trees, tree_bytes  # noqa: E402
from workloads import SELF_TEST, WORKLOADS  # noqa: E402


class ChildFailed(Exception):
    pass


def _child(*argv):
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *argv],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child.py {argv[0]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child.py {argv[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sweep(workload, seed, out_dir, trace_path=None):
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["sweep", "--workload", workload.name, "--seed", str(seed), "--out", str(out_dir)]
    if trace_path:
        argv += ["--trace", str(trace_path)]
    return _child(*argv)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_cpu": PINNED_CPU,
    }


def reference_s():
    """Wall time of a fixed computation that uses no nkae code.

    Its mix follows the sweeps': an interpreter loop over small numpy calls,
    then random fills of a few 16 MiB arrays. Timed beside every sweep, it
    shows how fast the shared host runs at that moment.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 20))
    acc = 0.0
    for i in range(16000):
        j = i % 20
        acc += float((x[:, j] * 0.5).sum())
        _ = f"{i},{j},{acc:.6g}"
    for _ in range(8):
        acc += float(rng.random((32, 65536)).sum())
    return time.perf_counter() - start


def timed_run(workload, seed, seconds, out):
    """End-to-end metrics: rounds repeated until `seconds` are spent.

    A round times one set-up, then one sweep between two reference
    computations, so all three sample the host over the whole run. The first
    round's tree is the one checked; every later sweep must reproduce it
    byte for byte.
    """
    first = out / "round0"
    setups, sweeps, refs, rss, problems, spent = [], [], [], [], [], 0.0
    while len(sweeps) < MIN_ROUNDS or spent + spent / len(sweeps) <= seconds:
        start = time.perf_counter()
        setups.append(_child("setup", "--workload", workload.name, "--seed", str(seed))["setup_s"])
        tree = out / "round" if sweeps else first
        ref_before = reference_s()
        result = _sweep(workload, seed, tree)
        refs.append((ref_before + reference_s()) / 2)
        sweeps.append(result["sweep_s"])
        rss.append(result["peak_rss_kib"] / 1024)
        spent += time.perf_counter() - start
        if tree == first:
            problems += check_tree(first, workload, seed)
            artifact_mib = tree_bytes(first) / 2**20
        else:
            problems += compare_trees(first, tree)
            shutil.rmtree(tree)
    print(json.dumps({"rounds": {"setup_s": setups, "sweep_s": sweeps, "reference_s": refs}}),
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_ref": (statistics.median(s / r for s, r in zip(sweeps, refs)), "refs"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "artifact_mib": (artifact_mib, "MiB"),
    }
    return metrics, len(sweeps), problems


def traced_run(workload, seed, out):
    """Per-layer metrics from a traced sweep, plus its overhead over an untraced one."""
    plain_tree, traced_tree = out / "round0", out / "traced"
    plain = _sweep(workload, seed, plain_tree)
    problems = check_tree(plain_tree, workload, seed)
    traced = _sweep(workload, seed, traced_tree, out / "trace.json")
    problems += compare_trees(plain_tree, traced_tree)
    shutil.rmtree(traced_tree)
    metrics = {name: tuple(v) for name, v in traced["per_layer"].items()}
    metrics["trace.overhead_s"] = (traced["sweep_s"] - plain["sweep_s"], "s")
    return metrics, 2, problems


def _declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_test():
    """The checks pass on a fresh tree and fail on trees with one tampered value."""
    seed, out = 7, OUT / SELF_TEST.name
    good, twin = out / "good", out / "twin"
    _sweep(SELF_TEST, seed, good)
    _sweep(SELF_TEST, seed, twin)
    ok = True

    def expect(label, problems, should_fail):
        nonlocal ok
        passed = bool(problems) == should_fail
        ok &= passed
        detail = problems[0] if problems else "no problem found"
        print(f"self-test {'PASS' if passed else 'FAIL'}: {label}: {detail}")

    expect("fresh tree passes the checks", check_tree(good, SELF_TEST, seed), False)
    expect("same seed gives a byte-identical tree", compare_trees(good, twin), False)

    def tampered(name, edit):
        tree = out / name
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(good, tree)
        edit(tree / "n20_k2")
        expect(f"{name} fails the checks", check_tree(tree, SELF_TEST, seed), True)
        expect(f"{name} differs from the fresh tree", compare_trees(good, tree), True)

    def network_value(cell):
        path = cell / "nan_run00_network.json"
        net = json.loads(path.read_text(encoding="utf-8"))
        net["encoder"][0][0] += 1e-6
        path.write_text(json.dumps(net), encoding="utf-8")

    def flipped_cycle(cell):
        path = cell / "ann_run00_cycles.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines[1:], start=1):
            f = line.split(",")
            if f[6] == "0" and float(f[5]) > float(f[4]):
                lines[i] = ",".join(f[:6] + ["1"])
                break
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def dropped_cycle(cell):
        path = cell / "nn_run00_cycles.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

    tampered("altered-network-value", network_value)
    tampered("flipped-cycle-row", flipped_cycle)
    tampered("dropped-cycle-row", dropped_cycle)
    shutil.rmtree(out)
    print(f"self-test {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed, >= 0 (default: 1)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the output checks reject tampered trees")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nkae" / "__init__.py").is_file():
        print(f"error: no nkae source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed < 0:
            parser.error("--workload and a --seed >= 0 are required")
        workload = WORKLOADS[args.workload]
        out = OUT / workload.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        print(json.dumps({"environment": environment()}), file=sys.stderr)
        os.sched_setaffinity(0, {PINNED_CPU})
        if args.trace:
            metrics, rounds, problems = traced_run(workload, args.seed, out)
        else:
            metrics, rounds, problems = timed_run(workload, args.seed, args.seconds, out)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = _declared_metrics(args.trace)
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(reported.items()) ^ set(declared.items()))[:6]}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.trials * rounds,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
