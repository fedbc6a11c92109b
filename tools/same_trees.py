"""Check that this checkout writes the same sweep and run trees as another one.

    python3 tools/same_trees.py PARENT_CHECKOUT

Each config below is a list of `nkae` command lines. Runs each config from
both source trees (`src/` of this checkout and of PARENT_CHECKOUT), each in a
fresh interpreter with one BLAS thread, then compares the two output trees
file by file as `read_tree` reads them, without the wall-clock
`timings.csv`. Exits 0 when every pair of trees is byte-identical and 1
otherwise, naming each file that differs or exists on one side only. For a
`*_snapshots.csv` that differs it also prints the largest |difference| over
its numeric cells, and whether the `iter` column, the empty cells and the
last row match: snapshot values that agree to 1e-12 still count as a
difference. tests/test_golden.py pins every config's tree by digest, through
`run_config` and `read_tree`; this comparison checks a numpy or a host whose
digests are not recorded.

The fifteen configs are thirteen sweeps, one `nkae train` run, and two
`nkae gen-landscape` runs, random and adjacent neighbours, each with its
`nkae gen-dataset`. The sweeps are criterion
3's (tests/test_acceptance.py), followed by `nkae plotdata` for fig5, fig6
and fig7; that sweep with decoder biases, with a tanh decoder, with a linear
decoder, and with fresh data per run, adjacent neighbours and two worker
processes; an n=1000 nan+ann cell with decoder biases; four small sweeps at
master seed 7 with 200 train and 100 test examples; and the three benchmark
workloads of `benchmarks/workloads.py` at seed 1, built as
`benchmarks/child.py` builds them. The wide cells run their reconstruction
kernels in several blocks of examples, where every n=20 config runs in one;
at n=200 the kernels take the carry-row sum with `einsum`, and at n=1000
with `sum(axis=0)`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A later flag overrides an earlier one, so a variant appends its flags to a base sweep.
CRITERION_3 = ["sweep", "--seed", "3003", "--n-grid", "20", "--k-grid", "5",
               "--archs", "nan,ann,nn", "--runs", "2", "--out-dir", "{out}"]
SMALL = ["sweep", "--seed", "7", "--n-grid", "20", "--k-grid", "5", "--archs", "nan,ann,nn",
         "--runs", "1", "--train-count", "200", "--test-count", "100", "--out-dir", "{out}"]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import nkae.cli
if not nkae.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported nkae from {nkae.__file__}, not from {sys.argv[1]}")
out = sys.argv[2]
for argv in json.loads(sys.argv[3]):  # `nkae ARGV`, with {out} the output directory
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


def _add(table: dict, name: str, argvs: list) -> None:
    """Add config `name` to `table`; a taken name would silently replace a config."""
    if name in table:
        raise ValueError(f"config name {name!r} is taken")
    table[name] = argvs


def _joined(values) -> str:
    return ",".join(map(str, values))


def configs() -> dict:
    """Config name -> the `nkae` argument lists it runs in order, with `{out}` for its
    output directory."""
    table = {}
    _add(table, "criterion-3", [
        CRITERION_3,
        ["plotdata", "--figure", "fig5", "--n", "20", "--k", "5", "--results-dir", "{out}"],
        ["plotdata", "--figure", "fig6", "--results-dir", "{out}"],
        ["plotdata", "--figure", "fig7", "--n", "20", "--k", "5", "--results-dir", "{out}"],
    ])
    for name, flags in (
            ("decoder-bias", ["--decoder-bias"]),
            ("tanh", ["--decoder-activation", "tanh"]),
            ("linear", ["--decoder-activation", "linear"]),
            ("fresh-adjacent-pool",
             ["--fresh-data-per-run", "--neighbors", "adjacent", "--workers", "2"]),
            ("n1000-decoder-bias", ["--n-grid", "1000", "--archs", "nan,ann", "--runs", "1",
                                    "--iterations", "200", "--decoder-bias"])):
        _add(table, f"criterion-3-{name}", [CRITERION_3 + flags])
    # saturated sigmoids make exact ties, so the tie-break draw is taken; r=1 sweeps make none
    _add(table, "n20-r200", [SMALL + ["--iterations", "500", "--r", "200"]])
    _add(table, "n20-tanh-decoder-bias", [SMALL + [
        "--archs", "nan,ann", "--iterations", "500", "--decoder-activation", "tanh",
        "--decoder-bias"]])
    # two blocks of examples, carry-row sums by einsum
    _add(table, "n200-decoder-bias", [SMALL + [
        "--n-grid", "200", "--archs", "nan,ann", "--train-count", "400", "--iterations", "200",
        "--decoder-bias"]])
    # four blocks of examples, carry-row sums by sum(axis=0)
    _add(table, "n1000", [SMALL + ["--n-grid", "1000", "--k-grid", "2", "--iterations", "60"]])
    # sweep-n20 also runs every arch at both small k, one block of examples per kernel call
    bench = _workloads()
    for w in bench.WORKLOADS.values():
        _add(table, w.name, [[
            "sweep", "--seed", "1", "--n-grid", _joined(w.n_grid), "--k-grid", _joined(w.k_grid),
            "--archs", _joined(bench.ARCHS), "--runs", str(w.runs),
            "--train-count", str(bench.EXAMPLES), "--test-count", str(bench.EXAMPLES),
            "--iterations", str(w.iterations), "--out-dir", "{out}"]])
    _add(table, "train-ann-n20-k5-decoder-bias", [[
        "train", "--arch", "ann", "--n", "20", "--k", "5", "--decoder-bias", "--seed", "7",
        "--iterations", "300", "--out-dir", "{out}"]])
    _add(table, "gen-landscape-dataset", [
        ["gen-landscape", "--n", "200", "--k", "5", "--seed", "11",
         "--out", "{out}/landscape.json"],
        ["gen-dataset", "--landscape", "{out}/landscape.json", "--count", "500", "--seed", "12",
         "--out", "{out}/dataset.csv"],
        ["gen-landscape", "--n", "50", "--k", "3", "--seed", "13", "--neighbors", "adjacent",
         "--out", "{out}/adjacent.json"],
        ["gen-dataset", "--landscape", "{out}/adjacent.json", "--count", "300", "--seed", "14",
         "--out", "{out}/adjacent.csv"],
    ])
    return table


def read_tree(root) -> dict:
    """Relative path -> bytes of every file under `root` but the wall-clock `timings.csv`."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file() and p.name != "timings.csv"
    }


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


def run_config(checkout: Path, argvs: list, out_dir: Path) -> None:
    """Run a config's command lines from `checkout`'s `src/` into `out_dir`. The child
    writes no `__pycache__` into `checkout`, which tools/bench_pairs.py would refuse."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-c", CHILD, str(checkout / "src"), str(out_dir), json.dumps(argvs)],
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
        for name, argvs in configs().items():
            roots = [Path(tmp) / side / name for side in ("parent", "change")]
            for checkout, root in zip((parent, ROOT), roots):
                run_config(checkout, argvs, root)
            old, new = map(read_tree, roots)
            differ = sorted(path for path in old.keys() | new.keys()
                            if old.get(path) != new.get(path))
            if not differ:
                print(f"{name}: byte-identical ({len(new)} files)", flush=True)
                continue
            print(f"{name}: DIFFERENT", flush=True)
            for path in differ:
                if path not in old or path not in new:
                    print(f"  {path}: only in {'parent' if path in old else 'change'}")
                elif path.endswith("_snapshots.csv"):
                    print(f"  {path}: {snapshot_difference(roots[0] / path, roots[1] / path)}")
                else:
                    print(f"  {path}: differs")
            failed.append(name)
    if failed:
        print(f"trees differ for: {', '.join(failed)}")
        return 1
    print("all trees byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
