"""Check that this checkout writes the same sweep and run trees as another one.

    python3 tools/same_trees.py PARENT_CHECKOUT

Runs each config below from both source trees (`src/` of this checkout and
of PARENT_CHECKOUT), each in a fresh interpreter with one BLAS thread, then
compares the two output trees with `diff -r`, ignoring the
wall-clock `timings.csv`. Exits 0 when every pair of trees is
byte-identical and 1 otherwise, printing the files that differ. For a
`*_snapshots.csv` that differs it also prints the largest |difference| over
its numeric cells, and whether the `iter` column, the empty cells and the
last row match: snapshot values that agree to 1e-12 still count as a
difference.

The fourteen configs are eleven sweeps, one `nkae train` run, one sweep
followed by `nkae plotdata`, and one landscape and dataset. The sweeps
are criterion 3's (tests/test_acceptance.py), the same sweep with decoder
biases, with a tanh decoder, with a linear decoder, with r=200 (whose
saturated sigmoids make exact ties, so the tie-break draw is taken; the
default r=1 sweeps make none), and with fresh data per run, adjacent
neighbours and two worker processes, an n=200 and an n=1000
nan+ann cell with decoder biases, and the three benchmark workloads of
`benchmarks/workloads.py` at seed 1, built as `benchmarks/child.py` builds
them. The two wide cells run their reconstruction kernels in several blocks
of examples, where every n=20 config runs in one; at n=200 the kernels take
the carry-row sum with `einsum`, and at n=1000 with `sum(axis=0)`. The run
is `nkae train` with the flags of `TRAIN_ARGV`, whose four run files are
compared. The plotdata config runs criterion 3's sweep, then writes the fig5,
fig6 and fig7 series from it (`PLOTDATA_ARGVS`). The last config runs
`nkae gen-landscape` and `nkae gen-dataset` (`DATAGEN_ARGVS`), comparing the
landscape JSON and the dataset's CSV and `.meta.json`.
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
TRAIN_ARGV = ["train", "--arch", "ann", "--n", "20", "--k", "5", "--decoder-bias",
              "--seed", "7", "--iterations", "300", "--out-dir", "{out}"]
PLOTDATA_ARGVS = [
    ["plotdata", "--figure", "fig5", "--n", "20", "--k", "5", "--results-dir", "{out}"],
    ["plotdata", "--figure", "fig6", "--results-dir", "{out}"],
    ["plotdata", "--figure", "fig7", "--n", "20", "--k", "5", "--results-dir", "{out}"],
]
DATAGEN_ARGVS = [
    ["gen-landscape", "--n", "200", "--k", "5", "--seed", "11", "--out", "{out}/landscape.json"],
    ["gen-dataset", "--landscape", "{out}/landscape.json", "--count", "500", "--seed", "12",
     "--out", "{out}/dataset.csv"],
]

CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import nkae
if not nkae.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported nkae from {nkae.__file__}, not from {sys.argv[1]}")
import nkae.cli
out, spec = sys.argv[2], json.loads(sys.argv[3])
os.makedirs(out, exist_ok=True)
if "sweep" in spec:
    sweep = spec["sweep"]
    train = nkae.TrainConfig(**sweep.pop("train_config"))
    grid = {key: tuple(v) if isinstance(v, list) else v for key, v in sweep.items()}
    nkae.run_experiment(nkae.ExperimentConfig(out_dir=out, train_config=train, **grid))
for argv in spec.get("commands", []):  # `nkae ARGV`, with {out} the output directory
    status = nkae.cli.cli_main([arg.replace("{out}", out) for arg in argv])
    if status:
        sys.exit(status)
"""


def _workloads():
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def configs() -> dict:
    """Config name -> {"sweep": ExperimentConfig fields, `train_config` as TrainConfig
    fields} and/or {"commands": `nkae` argument lists, run after the sweep}."""
    criterion_3 = {
        "master_seed": 3003, "n_grid": [20], "k_grid": [5], "archs": ["nan", "ann", "nn"],
        "runs": 2, "workers": 1, "train_config": {"seed": 0},
    }
    sweeps = {"criterion-3": criterion_3}
    for name, extra in (("decoder-bias", {"decoder_bias": True}),
                        ("tanh", {"decoder_activation": "tanh"}),
                        ("linear", {"decoder_activation": "linear"}),
                        ("r200", {"r": 200.0})):
        sweeps[f"criterion-3-{name}"] = dict(criterion_3, train_config={"seed": 0, **extra})
    sweeps["criterion-3-fresh-adjacent-pool"] = dict(
        criterion_3, fresh_data_per_run=True, neighbor_mode="adjacent", workers=2
    )
    for n in (200, 1000):
        sweeps[f"n{n}-decoder-bias"] = dict(
            criterion_3, n_grid=[n], archs=["nan", "ann"], runs=1,
            train_config={"seed": 0, "iterations": 200, "decoder_bias": True},
        )
    bench = _workloads()
    for w in bench.WORKLOADS.values():
        sweeps[w.name] = {
            "master_seed": 1, "n_grid": list(w.n_grid), "k_grid": list(w.k_grid),
            "archs": list(bench.ARCHS), "runs": w.runs, "workers": 1,
            "train_count": bench.EXAMPLES, "test_count": bench.EXAMPLES,
            "train_config": {"iterations": w.iterations},
        }
    out = {name: {"sweep": sweep} for name, sweep in sweeps.items()}
    out["train-ann-n20-k5-decoder-bias"] = {"commands": [TRAIN_ARGV]}
    out["criterion-3-plotdata"] = {"sweep": criterion_3, "commands": PLOTDATA_ARGVS}
    out["gen-landscape-dataset"] = {"commands": DATAGEN_ARGVS}
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


def run_config(checkout: Path, spec: dict, out_dir: Path) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(out_dir), json.dumps(spec)],
        env=env, cwd=out_dir.parent, check=True, stdout=subprocess.DEVNULL,
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
                run_config(checkout, spec, tree)
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
