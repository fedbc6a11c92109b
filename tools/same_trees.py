"""Check that this checkout writes the same sweep trees as another one.

    python3 tools/same_trees.py PARENT_CHECKOUT

Runs each sweep config below from both source trees (`src/` of this
checkout and of PARENT_CHECKOUT), each in a fresh interpreter with one BLAS
thread, then compares the two output trees with `diff -r`, ignoring the
wall-clock `timings.csv`. Exits 0 when every pair of trees is
byte-identical and 1 otherwise, printing the files that differ. For a
`*_snapshots.csv` that differs it also prints the largest |difference| over
its numeric cells, and whether the `iter` column, the empty cells and the
last row match: snapshot values that agree to 1e-12 still count as a
difference.

The nine configs are criterion 3's sweep (tests/test_acceptance.py), the
same sweep with decoder biases, with a tanh decoder, with a linear decoder,
and with fresh data per run, adjacent neighbours and two worker processes,
one n=1000 nan+ann cell with decoder biases (its reconstruction kernels run
in several blocks of examples, where every n=20 config runs in one), and the
three benchmark workloads of `benchmarks/workloads.py` at seed 1, built as
`benchmarks/child.py` builds them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import nkae
if not nkae.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported nkae from {nkae.__file__}, not from {sys.argv[1]}")
spec = json.loads(sys.argv[3])
train = nkae.TrainConfig(**spec.pop("train_config"))
grid = {key: tuple(value) if isinstance(value, list) else value for key, value in spec.items()}
nkae.run_experiment(nkae.ExperimentConfig(out_dir=sys.argv[2], train_config=train, **grid))
"""


def _workloads():
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def configs() -> dict:
    """Config name -> ExperimentConfig fields, `train_config` as TrainConfig fields."""
    criterion_3 = {
        "master_seed": 3003, "n_grid": [20], "k_grid": [5], "archs": ["nan", "ann", "nn"],
        "runs": 2, "workers": 1, "train_config": {"seed": 0},
    }
    out = {"criterion-3": criterion_3}
    for name, extra in (("decoder-bias", {"decoder_bias": True}),
                        ("tanh", {"decoder_activation": "tanh"}),
                        ("linear", {"decoder_activation": "linear"})):
        out[f"criterion-3-{name}"] = dict(criterion_3, train_config={"seed": 0, **extra})
    out["criterion-3-fresh-adjacent-pool"] = dict(
        criterion_3, fresh_data_per_run=True, neighbor_mode="adjacent", workers=2
    )
    out["n1000-decoder-bias"] = dict(
        criterion_3, n_grid=[1000], archs=["nan", "ann"], runs=1,
        train_config={"seed": 0, "iterations": 200, "decoder_bias": True},
    )
    bench = _workloads()
    for w in bench.WORKLOADS.values():
        out[w.name] = {
            "master_seed": 1, "n_grid": list(w.n_grid), "k_grid": list(w.k_grid),
            "archs": list(bench.ARCHS), "runs": w.runs, "workers": 1,
            "train_count": bench.EXAMPLES, "test_count": bench.EXAMPLES,
            "train_config": {"iterations": w.iterations},
        }
    return out


def snapshot_difference(a: Path, b: Path) -> str:
    """How two snapshot logs differ, cell by cell, after their header."""
    tables = [[line.split(",") for line in path.read_text().splitlines()[1:]] for path in (a, b)]
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return "row or cell counts differ"
    rows = list(zip(*tables))
    iters = all(x[0] == y[0] for x, y in rows)
    pairs = [(u, v) for x, y in rows for u, v in zip(x[1:], y[1:])]
    empty = all((u == "") == (v == "") for u, v in pairs)
    delta = max((abs(float(u) - float(v)) for u, v in pairs if u and v), default=0.0)
    last = rows[-1][0] == rows[-1][1] if rows else True
    return (f"max |delta| {delta:.3g}; iter column {'matches' if iters else 'DIFFERS'}; "
            f"empty cells {'match' if empty else 'DIFFER'}; "
            f"last row {'matches' if last else 'DIFFERS'}")


def run_sweep(checkout: Path, spec: dict, out_dir: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(out_dir), json.dumps(spec)],
        env=env, cwd=out_dir.parent, check=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare this one with")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "nkae").is_dir():
        parser.error(f"{parent} has no src/nkae")
    failed = []
    with tempfile.TemporaryDirectory(prefix="same_trees_") as tmp:
        for name, spec in configs().items():
            trees = []
            for side, checkout in (("parent", parent), ("change", ROOT)):
                tree = Path(tmp) / side / name
                tree.parent.mkdir(exist_ok=True)
                run_sweep(checkout, spec, tree)
                trees.append(tree)
            diff = subprocess.run(["diff", "-rq", "-x", "timings.csv", *map(str, trees)],
                                  capture_output=True, text=True)
            files = sum(len(files) for _, _, files in os.walk(trees[1]))
            if diff.returncode == 0:
                print(f"{name}: byte-identical ({files} files)", flush=True)
            else:
                print(f"{name}: DIFFERENT\n{diff.stdout}{diff.stderr}", end="", flush=True)
                for a, b in re.findall(r"^Files (\S+) and (\S+) differ$", diff.stdout, re.M):
                    if a.endswith("_snapshots.csv"):
                        print(f"  {Path(a).name}: {snapshot_difference(Path(a), Path(b))}")
                failed.append(name)
    if failed:
        print(f"trees differ for: {', '.join(failed)}")
        return 1
    print("all trees byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
