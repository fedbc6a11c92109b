"""Tests of the maintenance scripts under `tools/`."""

import dataclasses
import json
import shutil

import pytest

from helpers import load_tool


@pytest.fixture
def bench_pairs():
    return load_tool("bench_pairs")


@pytest.fixture
def same_trees():
    return load_tool("same_trees")


def plain_parent(tmp_path):
    """A parent checkout without git that holds only `benchmarks/run.py`."""
    parent = tmp_path / "parent"
    (parent / "benchmarks").mkdir(parents=True)
    (parent / "benchmarks" / "run.py").write_text("")
    return parent


def test_bench_pairs_reads_git_state_first_and_takes_a_plain_directory(
        bench_pairs, monkeypatch, tmp_path):
    parent = plain_parent(tmp_path)
    # this checkout may hold compiled modules from earlier runs; that refusal
    # has its own test
    monkeypatch.setattr(bench_pairs, "_bytecode", lambda checkout: None)
    events, states = [], {}
    git_state = bench_pairs._git_state

    def spy_git_state(checkout):
        # this checkout may be a git clone or an export; pin what it reports
        events.append("git")
        states[checkout] = "abc1234" if checkout == bench_pairs.ROOT else git_state(checkout)
        return states[checkout]

    def fake_run_once(checkout, workload, seed, trace):
        events.append("run")
        return {"sweep_ref": 1.0}, {"numpy": "x"}

    monkeypatch.setattr(bench_pairs, "_git_state", spy_git_state)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), "--workload", "w", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    assert events == ["git", "git", "run", "run", "run", "run"]
    entry = json.loads(out.read_text())["runs"]["w --trace 0 --seeds 1,2"]
    parent = parent.resolve()
    assert states[parent] == "not a git checkout"
    assert entry["checkouts"] == {"parent": states[parent], "change": states[bench_pairs.ROOT]}


def test_bench_pairs_keeps_each_seed_list_and_refuses_a_repeat(
        bench_pairs, monkeypatch, tmp_path, capsys):
    parent = plain_parent(tmp_path)
    monkeypatch.setattr(bench_pairs, "_bytecode", lambda checkout: None)
    runs = []

    def fake_run_once(checkout, workload, seed, trace):
        runs.append(seed)
        return {"sweep_ref": float(seed)}, {"numpy": f"run {len(runs)}"}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "pairs.json"

    def run(seeds):
        return bench_pairs.main([str(parent), "--workload", "w", "--seeds", seeds,
                                 "--out", str(out)])

    assert run("1-2") == 0 and run("3") == 0
    entries = json.loads(out.read_text())["runs"]
    assert sorted(entries) == ["w --trace 0 --seeds 1,2", "w --trace 0 --seeds 3"]
    assert [p["seed"] for p in entries["w --trace 0 --seeds 1,2"]["pairs"]] == [1, 2]
    assert entries["w --trace 0 --seeds 1,2"]["environment"] == {"numpy": "run 1"}
    assert entries["w --trace 0 --seeds 3"]["environment"] == {"numpy": "run 5"}
    assert "checkouts" in entries["w --trace 0 --seeds 3"]
    before, runs[:] = out.read_text(), []
    assert run("1,2") == 1
    assert runs == [] and out.read_text() == before
    assert "already holds the run 'w --trace 0 --seeds 1,2'" in capsys.readouterr().err


def test_bench_pairs_refuses_a_checkout_with_compiled_modules(
        bench_pairs, monkeypatch, tmp_path, capsys):
    parent = plain_parent(tmp_path)
    cache = parent / "src" / "nkae" / "__pycache__"
    cache.mkdir(parents=True)
    runs = []

    def fake_run_once(checkout, workload, seed, trace):
        runs.append(checkout)
        return {"sweep_ref": 1.0}, {"numpy": "x"}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main([str(parent), "--workload", "w", "--seeds", "1",
                             "--out", str(tmp_path / "pairs.json")]) == 1
    assert runs == []
    assert str(cache) in capsys.readouterr().err


@pytest.mark.parametrize("seeds, message", [
    ("5-3", "'5-3' is an empty range"),
    ("1-3,2", "'1-3,2' names a seed twice"),
    ("4,4", "'4,4' names a seed twice"),
    # three seeds are a valid list, but too few traced pairs
    ("1-3", "--trace 1 needs at least 4 seeds, got 3"),
])
def test_bench_pairs_refuses_a_bad_seed_list_before_any_run(
        bench_pairs, monkeypatch, tmp_path, capsys, seeds, message):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(plain_parent(tmp_path)), "--workload", "w", "--seeds", seeds,
                          "--trace", "1", "--out", str(tmp_path / "pairs.json")])
    assert exc.value.code == 2
    assert runs == []
    assert message in capsys.readouterr().err


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


HEADER = "iter,train_task_mse,train_ae_mse,test_task_mse\n"
ROWS = ["0,0.5,0.25,0.5\n", "10,0.4,0.2,0.45\n", "20,0.3,0.1,0.35\n"]


def snapshot_logs(tmp_path, a_rows, b_rows):
    a, b = tmp_path / "a_snapshots.csv", tmp_path / "b_snapshots.csv"
    a.write_text(HEADER + "".join(a_rows))
    b.write_text(HEADER + "".join(b_rows))
    return a, b


@pytest.mark.parametrize("changed, last", [(0, "matches"), (2, "DIFFERS")])
def test_snapshot_difference_reports_a_moved_and_an_emptied_cell(same_trees, tmp_path,
                                                                   changed, last):
    # row `changed`: train_task_mse moved by 1e-13, train_ae_mse emptied
    rows = list(ROWS)
    cells = rows[changed].split(",")
    rows[changed] = ",".join([cells[0], repr(float(cells[1]) + 1e-13), "", cells[3]])
    report = same_trees.snapshot_difference(*snapshot_logs(tmp_path, ROWS, rows))
    assert report == (f"max |delta| 1e-13; iter column matches; empty cells DIFFER; "
                      f"last row {last}")


def test_snapshot_difference_reports_logs_of_different_lengths(same_trees, tmp_path):
    report = same_trees.snapshot_difference(*snapshot_logs(tmp_path, ROWS, ROWS[:2]))
    assert report == "row or cell counts differ"


def test_same_trees_configs_refuse_a_taken_name(same_trees, monkeypatch):
    # a benchmark workload named like a golden sweep would replace that sweep
    bench = same_trees._workloads()
    clash = dataclasses.replace(next(iter(bench.WORKLOADS.values())), name="n1000")
    monkeypatch.setattr(bench, "WORKLOADS", {clash.name: clash})
    monkeypatch.setattr(same_trees, "_workloads", lambda: bench)
    with pytest.raises(ValueError, match="'n1000'"):
        same_trees.configs()


def test_same_trees_child_writes_no_compiled_modules(same_trees, monkeypatch, tmp_path):
    # bench_pairs refuses a checkout with src/nkae/__pycache__
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    checkout = tmp_path / "checkout"
    shutil.copytree(same_trees.ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    same_trees.run_config(checkout, same_trees.configs()["gen-landscape-dataset"],
                          tmp_path / "out")
    assert (tmp_path / "out" / "dataset.csv").is_file()
    assert list(checkout.rglob("__pycache__")) == []


TREE = {
    "results.csv": "n,k,arch\n20,5,nan\n",
    "timings.csv": "trial,ms\nnan,1.5\n",
    "n20_k5/nan_run00_cycles.csv": "iter,accepted\n0,1\n",
    "n20_k5/nan_run00_snapshots.csv": HEADER + "".join(ROWS),
}


def run_same_trees(same_trees, monkeypatch, tmp_path, change_tree):
    """`same_trees.main` on one config whose parent side writes TREE."""
    def fake_run_config(checkout, argvs, out_dir):
        tree = change_tree if checkout == same_trees.ROOT else TREE
        for name, text in tree.items():
            (out_dir / name).parent.mkdir(parents=True, exist_ok=True)
            (out_dir / name).write_text(text)

    monkeypatch.setattr(same_trees, "configs", lambda: {"one": [["sweep"]]})
    monkeypatch.setattr(same_trees, "run_config", fake_run_config)
    parent = tmp_path / "parent"
    (parent / "src" / "nkae").mkdir(parents=True)
    return same_trees.main([str(parent)])


def test_same_trees_main_passes_trees_that_differ_only_in_timings(
        same_trees, monkeypatch, tmp_path, capsys):
    change = dict(TREE, **{"timings.csv": "trial,ms\nnan,2.5\n"})
    assert run_same_trees(same_trees, monkeypatch, tmp_path, change) == 0
    assert "one: byte-identical (3 files)" in capsys.readouterr().out


def test_same_trees_main_names_each_differing_file(same_trees, monkeypatch, tmp_path, capsys):
    change = dict(TREE)
    change["results.csv"] = "n,k,arch\n20,5,ann\n"  # one changed byte
    change["n20_k5/nan_run01_cycles.csv"] = "iter,accepted\n"  # one side only
    rows = list(ROWS)
    rows[1] = "10,0.4,0.2,0.4500000000001\n"  # one moved snapshot cell
    change["n20_k5/nan_run00_snapshots.csv"] = HEADER + "".join(rows)
    assert run_same_trees(same_trees, monkeypatch, tmp_path, change) == 1
    out = capsys.readouterr().out
    assert "one: DIFFERENT" in out
    assert "  results.csv: differs" in out
    assert "  n20_k5/nan_run01_cycles.csv: only in change" in out
    assert ("  n20_k5/nan_run00_snapshots.csv: max |delta| 1e-13; iter column matches; "
            "empty cells match; last row matches") in out
    assert out.endswith("trees differ for: one\n")
