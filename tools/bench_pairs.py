"""Run the benchmark on another checkout and on this one, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_CHECKOUT --workload cell-n1000 --seeds 1-10 \
        --out BENCH_name.json

Pair i runs `benchmarks/run.py --workload W --seed S --trace T` once in each
checkout, each with its own benchmark files, on seed S, the i-th of
`--seeds`. Even-numbered pairs (from 0) run the parent first and odd ones
the change first. Every run's metrics go to one entry of `--out`, keyed by
workload, trace and seed list, with the environment the first run printed,
each checkout's commit (read before the first pair; a directory without
git, such as a `git archive` export, is recorded as "not a git checkout")
and, per metric, each side's median and quartiles and the number of pairs
in which the change read better, worse or the same, by the direction
`BENCHMARK.json` gives. Each metric also gets two verdicts:

- `claim_met`: the change read better in at least 9 of 10 pairs (a tie
  counts for neither side), and its median is better than the parent's by
  more than the parent's q3 - q1, so a gain may be claimed;
- `within_bound`: the change's median is worse than the parent's by at most
  the relative `bound` of `BENCHMARK.json` (null for a metric with none).

An existing `--out` file keeps its other entries, so one file can hold
several workloads and several seed lists of one workload. Exits 1 if a run
fails or its output checks fail, and, before the first pair, if `--out`
already holds the entry of this run, or if either checkout has a
`src/nkae/__pycache__`: a run imports the compiled modules there instead of
compiling nkae's sources, so a one-sided or stale cache skews the pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    """The seeds of `1-10`, `1,3,5` or a mix, in order; an empty or descending
    range and a repeated seed are refused."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"{part!r} is an empty range")
        seeds += span
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r} names a seed twice")
    return seeds


def _git_state(checkout: Path) -> str:
    def git(*argv):
        return subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
    except subprocess.CalledProcessError:
        return "not a git checkout"
    return head + (" with uncommitted changes" if git("status", "--porcelain") else "")


def _bytecode(checkout: Path):
    """`checkout`'s compiled nkae modules, or None if it has none."""
    cache = checkout / "src" / "nkae" / "__pycache__"
    return cache if cache.is_dir() else None


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> tuple:
    """(metrics as name -> value, environment) of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)], cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{checkout}: benchmark exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: output checks failed:\n{proc.stderr}")
    environment = json.loads(proc.stderr.splitlines()[0])["environment"]
    return {name: m["value"] for name, m in result["metrics"].items()}, environment


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, declared: dict) -> dict:
    """Per metric, both sides' spreads, the pair counts and the two verdicts;
    `declared` maps a metric's name to its `BENCHMARK.json` entry."""
    out = {}
    for name in pairs[0]["parent"]:
        metric = declared.get(name, {})
        better = metric.get("better", "lower")
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = 1 if better == "lower" else -1
        diffs = [sign * (p - c) for p, c in zip(parent, change)]
        wins = sum(d > 0 for d in diffs)
        par, chg = _spread(parent), _spread(change)
        # the change's median gain over the parent's, positive when better
        gain = sign * (par["median"] - chg["median"])
        bound = metric.get("bound")
        out[name] = {
            "better": better,
            "parent": par,
            "change": chg,
            "change_better": wins,
            "change_worse": sum(d < 0 for d in diffs),
            "same": sum(d == 0 for d in diffs),
            "claim_met": 10 * wins >= 9 * len(diffs) and gain > par["q3"] - par["q1"],
            "within_bound": None if bound is None else -gain <= bound * abs(par["median"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare this one with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "benchmarks" / "run.py").is_file():
        parser.error(f"{parent} has no benchmarks/run.py")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    sides = {"parent": parent, "change": ROOT}
    for cache in map(_bytecode, sides.values()):
        if cache:
            print(f"{cache} holds compiled modules that would skew the pairs: delete it, or "
                  "benchmark `git archive` exports of both commits", file=sys.stderr)
            return 1
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload} --trace {args.trace} --seeds {','.join(map(str, args.seeds))}"
    if key in record.get("runs", {}):
        print(f"{args.out} already holds the run {key!r}", file=sys.stderr)
        return 1
    checkouts = {side: _git_state(path) for side, path in sides.items()}
    pairs, environment = [], None
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed, "first": "parent" if i % 2 == 0 else "change"}
        for side in sorted(sides, key=lambda s: s != pair["first"]):
            pair[side], env = run_once(sides[side], args.workload, seed, args.trace)
            environment = environment or env
        print(json.dumps(pair), flush=True)
        pairs.append(pair)
    record.setdefault("runs", {})[key] = {
        "environment": environment, "checkouts": checkouts,
        "pairs": pairs, "summary": summarize(pairs, metrics),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
