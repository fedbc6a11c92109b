"""Tests of the maintenance scripts under `tools/`."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_reads_git_state_first_and_takes_a_plain_directory(
        bench_pairs, monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    (parent / "benchmarks").mkdir(parents=True)
    (parent / "benchmarks" / "run.py").write_text("")
    events = []
    git_state = bench_pairs._git_state

    def spy_git_state(checkout):
        events.append("git")
        return git_state(checkout)

    def fake_run_once(checkout, workload, seed, trace):
        events.append("run")
        return {"sweep_ref": 1.0}, {"numpy": "x"}

    monkeypatch.setattr(bench_pairs, "_git_state", spy_git_state)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), "--workload", "w", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    assert events == ["git", "git", "run", "run", "run", "run"]
    record = json.loads(out.read_text())
    assert record["checkouts"]["parent"] == "not a git checkout"
    assert record["checkouts"]["change"] != "not a git checkout"


def pairs_of(parent, change):
    return [{"parent": {"m": p}, "change": {"m": c}} for p, c in zip(parent, change)]


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # q3 - q1 = 0.55


@pytest.mark.parametrize("change, better, claim_met, within_bound", [
    # better in 10 of 10 pairs, by far more than the parent's quartile spread
    ([9.0] * 10, "lower", True, True),
    # 9 better and 1 tie: ties count for neither side
    ([9.0] * 9 + [10.9], "lower", True, True),
    # 8 better and 2 ties
    ([9.0] * 8 + [10.8, 10.9], "lower", False, True),
    # better in every pair, but the medians differ by less than q3 - q1
    ([p - 0.05 for p in PARENT], "lower", False, True),
    # 30% worse against a bound of 25%
    ([p * 1.3 for p in PARENT], "lower", False, False),
    # 20% worse: inside the bound
    ([p * 1.2 for p in PARENT], "lower", False, True),
    # higher is better: the same raise is a clear gain
    ([p * 1.3 for p in PARENT], "higher", True, True),
    # and a 30% drop is out of bounds
    ([p * 0.7 for p in PARENT], "higher", False, False),
])
def test_bench_pairs_claim_and_bound_verdicts(bench_pairs, change, better, claim_met,
                                              within_bound):
    declared = {"m": {"name": "m", "better": better, "bound": 0.25}}
    summary = bench_pairs.summarize(pairs_of(PARENT, change), declared)["m"]
    assert (summary["claim_met"], summary["within_bound"]) == (claim_met, within_bound)


def test_bench_pairs_metric_without_bound_has_no_bound_verdict(bench_pairs):
    summary = bench_pairs.summarize(pairs_of(PARENT, [9.0] * 10), {"m": {"better": "lower"}})
    assert summary["m"]["claim_met"] is True
    assert summary["m"]["within_bound"] is None
