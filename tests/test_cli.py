import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nkae
from nkae import (ExperimentConfig, TrainConfig, TrialResult, derive_seed, experiments,
                  load_dataset, load_landscape)
from nkae.cli import cli_main
from nkae.experiments import (PURPOSE_LANDSCAPE, PURPOSE_TEST_DATA, PURPOSE_TRAIN_DATA,
                              RESULTS_HEADER, run_paths)

from test_hillclimb import corrupt_first_judge


def run_cli(*argv):
    return cli_main(list(argv))


def test_gen_landscape_roundtrip(tmp_path, capsys):
    out = tmp_path / "land.json"
    assert run_cli("gen-landscape", "--n", "6", "--k", "2", "--seed", "9",
                   "--out", str(out)) == 0
    captured = capsys.readouterr().out
    assert "master seed: 9" in captured
    land = load_landscape(out)
    assert (land.n, land.k, land.seed) == (6, 2, 9)


def test_gen_landscape_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen-landscape", "--n", "5", "--k", "2", "--seed", "4", "--out", str(a))
    run_cli("gen-landscape", "--n", "5", "--k", "2", "--seed", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_landscape_draws_seed_when_omitted(tmp_path, capsys):
    out = tmp_path / "land.json"
    assert run_cli("gen-landscape", "--n", "5", "--k", "2", "--out", str(out)) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if "master seed" in l)
    assert int(line.split(":")[1]) >= 0


def test_gen_dataset(tmp_path):
    land_path = tmp_path / "land.json"
    run_cli("gen-landscape", "--n", "7", "--k", "2", "--seed", "3", "--out", str(land_path))
    data_path = tmp_path / "data.csv"
    assert run_cli("gen-dataset", "--landscape", str(land_path), "--count", "25",
                   "--seed", "8", "--out", str(data_path)) == 0
    ds = load_dataset(data_path)
    assert ds.count == 25 and ds.n == 7
    assert ds.meta["dataset_seed"] == 8


def test_train_twice_identical_outputs(tmp_path):
    args = ["train", "--arch", "nan", "--n", "8", "--k", "2", "--seed", "7",
            "--iterations", "80", "--h", "3", "--eval-interval", "20",
            "--train-count", "30", "--test-count", "30"]
    assert run_cli(*args, "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out-dir", str(tmp_path / "b")) == 0
    for name in ("nan_run00_cycles.csv", "nan_run00_snapshots.csv", "nan_run00_network.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


TRAIN_FLAGS = ["--iterations", "60", "--h", "3", "--eval-interval", "20",
               "--train-count", "25", "--test-count", "25", "--seed", "5"]


@pytest.mark.parametrize("mode", ["cell", "landscape", "data-files", "landscape-data-files",
                                  "test-data-file"])
def test_train_is_run_zero_of_a_sweep(tmp_path, monkeypatch, mode):
    n, k = 8, 2
    sweep = tmp_path / "sweep"
    assert run_cli("sweep", "--n-grid", str(n), "--k-grid", str(k), "--archs", "ann",
                   "--runs", "1", *TRAIN_FLAGS, "--out-dir", str(sweep)) == 0
    cell = ["--n", str(n), "--k", str(k)]
    land = tmp_path / "land.json"
    run_cli("gen-landscape", *cell, "--seed", str(derive_seed(5, PURPOSE_LANDSCAPE, n, k)),
            "--out", str(land))
    inputs = ["--landscape", str(land)] if mode.startswith("landscape") else cell
    files = {"data-files": ("train", "test"), "test-data-file": ("test",)}.get(
        mode.removeprefix("landscape-"), ())
    for name in files:
        purpose = {"train": PURPOSE_TRAIN_DATA, "test": PURPOSE_TEST_DATA}[name]
        path = tmp_path / f"{name}.csv"
        run_cli("gen-dataset", "--landscape", str(land), "--count", "25",
                "--seed", str(derive_seed(5, purpose, n, k)), "--out", str(path))
        inputs = inputs + [f"--{name}-data", str(path)]

    def fail(what):
        def raiser(*args, **kwargs):
            raise AssertionError(f"nkae train called {what}")
        return raiser

    monkeypatch.setattr(nkae.landscape, "nk_new", fail("nk_new"))
    if len(files) == 2:
        # both sets come from files, so nothing is generated
        monkeypatch.setattr(nkae.landscape, "nk_datasets", fail("nk_datasets"))
        monkeypatch.setattr(nkae.landscape, "gen_dataset", fail("gen_dataset"))
    out = tmp_path / "train"
    assert run_cli("train", "--arch", "ann", *inputs, *TRAIN_FLAGS, "--out-dir", str(out)) == 0
    expected = run_paths(sweep / f"n{n}_k{k}", "ann", 0)
    for kind, path in run_paths(out, "ann", 0).items():
        assert path.read_bytes() == expected[kind].read_bytes(), kind


@pytest.mark.parametrize("flags, field", [
    (["--n", "9"], "n"), (["--k", "3"], "k"), (["--neighbors", "adjacent"], "neighbor_mode"),
])
def test_train_flags_disagreeing_with_landscape_exit_one(tmp_path, capsys, flags, field):
    land = tmp_path / "land.json"
    run_cli("gen-landscape", "--n", "8", "--k", "2", "--seed", "4", "--out", str(land))
    out = tmp_path / "train"
    assert run_cli("train", "--arch", "nn", "--landscape", str(land), "--n", "8", *flags,
                   *TRAIN_FLAGS, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{flags[0]} {flags[1]} disagrees with {land}, whose {field} is" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["cell", "landscape"])
def test_train_data_narrower_than_the_cell_exits_one(tmp_path, capsys, source):
    wide, narrow = tmp_path / "wide.json", tmp_path / "narrow.json"
    run_cli("gen-landscape", "--n", "8", "--k", "2", "--seed", "4", "--out", str(wide))
    run_cli("gen-landscape", "--n", "5", "--k", "2", "--seed", "4", "--out", str(narrow))
    files = []
    for name in ("train", "test"):
        files += [f"--{name}-data", str(tmp_path / f"{name}.csv")]
        run_cli("gen-dataset", "--landscape", str(narrow), "--count", "20", "--seed", "6",
                "--out", files[-1])
    inputs = ["--landscape", str(wide)] if source == "landscape" else ["--n", "8", "--k", "2"]
    out = tmp_path / "train"
    capsys.readouterr()
    assert run_cli("train", "--arch", "nan", *inputs, *files, *TRAIN_FLAGS,
                   "--out-dir", str(out)) == 1
    assert f"{files[1]} has 5 inputs per example, but the cell's n is 8" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_train_requires_cell_or_landscape(tmp_path):
    assert run_cli("train", "--arch", "nn", "--seed", "1",
                   "--out-dir", str(tmp_path)) == 1


def test_sweep_and_plotdata(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--n-grid", "8", "--k-grid", "2", "--archs", "nan,ann",
                   "--runs", "2", "--iterations", "60", "--h", "3",
                   "--eval-interval", "20", "--train-count", "25",
                   "--test-count", "25", "--seed", "5", "--out-dir", str(out)) == 0
    assert (out / "results.csv").exists()
    assert run_cli("plotdata", "--results-dir", str(out), "--figure", "fig5",
                   "--n", "8", "--k", "2") == 0
    assert (out / "fig5_n8_k2.csv").exists()
    assert run_cli("plotdata", "--results-dir", str(out), "--figure", "fig6") == 0


SWEEP_ARGS = ["sweep", "--n-grid", "8", "--k-grid", "2", "--archs", "nan,ann", "--runs", "2",
              "--iterations", "60", "--h", "3", "--eval-interval", "20",
              "--train-count", "25", "--test-count", "25", "--seed", "5"]


def edit_results_row(out, edit):
    results = out / "results.csv"
    lines = results.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    results.write_text("\n".join(lines) + "\n")


def edit_result(out, edit):
    result = out / "n8_k2" / "nan_run00_result.json"
    result.write_text(edit(result.read_text()))


def append_snapshot_row(out):
    with (out / "n8_k2" / "nan_run00_snapshots.csv").open("a") as fh:
        fh.write("300,xyz,,\n")


FIG5 = ["plotdata", "--figure", "fig5", "--n", "8", "--k", "2", "--results-dir"]
FIG6 = ["plotdata", "--figure", "fig6", "--results-dir"]
# case -> (how a finished sweep is broken, the command that reads it, the error)
MALFORMED = {
    "short results row": (lambda out: edit_results_row(out, lambda cells: cells[:6]),
                          FIG6, "results.csv:3: expected 9 cells, got 6"),
    "text final_test_mse": (
        lambda out: edit_results_row(out, lambda cells: cells[:6] + ["abc"] + cells[7:]),
        FIG6, "results.csv:3: invalid final_test_mse 'abc'"),
    "text snapshot mse": (append_snapshot_row, FIG5,
                          "nan_run00_snapshots.csv:5: invalid train_task_mse 'xyz'"),
    "result without keys": (
        lambda out: (out / "n8_k2" / "nan_run00_result.json").write_text('{"n": 20}'),
        SWEEP_ARGS + ["--out-dir"], "nan_run00_result.json: trial result has no 'k'"),
    "result of another trial": (
        lambda out: (out / "n8_k2" / "nan_run00_result.json").write_bytes(
            (out / "n8_k2" / "ann_run00_result.json").read_bytes()),
        SWEEP_ARGS + ["--out-dir"], "nan_run00_result.json: holds trial (8, 2, 'ann', 0,"),
    "truncated result": (lambda out: edit_result(out, lambda text: text[: len(text) // 2]),
                         SWEEP_ARGS + ["--out-dir"], "nan_run00_result.json: not JSON: "),
    "result not an object": (
        lambda out: edit_result(out, lambda text: "[]"),
        SWEEP_ARGS + ["--out-dir"], "nan_run00_result.json: a trial result must be a JSON object"),
    "text final_train_mse": (
        lambda out: edit_result(
            out, lambda text: json.dumps({**json.loads(text), "final_train_mse": "0.1"})),
        SWEEP_ARGS + ["--out-dir"], "nan_run00_result.json: invalid final_train_mse '0.1'"),
}


def test_plotdata_for_a_cell_that_never_ran_exits_one(tmp_path, capsys):
    (tmp_path / "results.csv").write_text(RESULTS_HEADER + "\n")
    assert run_cli(*FIG5, str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "no runs recorded for n=8, k=2, arch=nan" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_run_artifact_exits_one(tmp_path, capsys, case):
    corrupt, argv, message = MALFORMED[case]
    out = tmp_path / "sweep"
    assert run_cli(*SWEEP_ARGS, "--out-dir", str(out)) == 0
    corrupt(out)
    capsys.readouterr()
    assert run_cli(*argv, str(out)) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_stats_compare_identical_files(tmp_path, capsys):
    sample = tmp_path / "vals.csv"
    sample.write_text("\n".join(str(v / 10) for v in range(1, 21)) + "\n")
    assert run_cli("stats", "compare", "--a", str(sample), "--b", str(sample)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["t_test"]["statistic"] == 0.0
    assert report["t_test"]["p_value"] == 1.0
    assert report["summary_a"] == report["summary_b"]
    assert "statistic" in report["shapiro_a"]


def test_stats_compare_results_column(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    header = "n,k,arch,run,seed,final_train_mse,final_test_mse,final_ae_mse,duration_ms"
    a.write_text(header + "\n" + "\n".join(
        f"8,2,nan,{i},1,0.1,{0.01 + i / 1000},0.5," for i in range(10)) + "\n")
    b.write_text(header + "\n" + "\n".join(
        f"8,2,ann,{i},1,0.1,{0.05 + i / 1000},0.5," for i in range(10)) + "\n")
    assert run_cli("stats", "compare", "--a", str(a), "--b", str(b)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary_a"]["count"] == 10
    assert report["t_test"]["significant"]


@pytest.mark.parametrize("values_a, values_b, errors", [
    (range(1, 13), range(1, 13), {}),
    ([1], [1, 2, 3], {"shapiro_a": "sample size must lie in [3, 5000], got 1",
                      "t_test": "each sample needs >= 2 values, got 1 and 3"}),
], ids=["same-sample", "one-value-sample"])
def test_stats_compare_csv_format_to_file(tmp_path, values_a, values_b, errors):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("\n".join(str(v / 7) for v in values_a) + "\n")
    b.write_text("\n".join(str(v / 7) for v in values_b) + "\n")
    out = tmp_path / "report.csv"
    assert run_cli("stats", "compare", "--a", str(a), "--b", str(b),
                   "--format", "csv", "--out", str(out)) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["section", "field", "value"]
    assert all(len(row) == 3 for row in rows)
    assert {section: value for section, field, value in rows if field == "error"} == errors
    # a missing value is an empty cell, as in results.csv
    assert ["shapiro_b", "df", ""] in rows
    assert all(value != "None" for _, _, value in rows)


@pytest.mark.parametrize("row, message", [
    ("8,2,nan,9,1,0.1", "expected 9 cells, got 6"),
    ("8,2,nan,9,1,0.1,abc,0.5,", "final_test_mse must be numeric"),
    ("8,2,nan,9,1,0.1,nan,0.5,", "final_test_mse must be finite"),
    ("8,2,nan,9,1,0.1,-inf,0.5,", "final_test_mse must be finite"),
])
def test_stats_compare_bad_sample_exits_one(tmp_path, capsys, row, message):
    header = "n,k,arch,run,seed,final_train_mse,final_test_mse,final_ae_mse,duration_ms"
    a = tmp_path / "a.csv"
    a.write_text(header + "\n" + "\n".join(
        f"8,2,nan,{i},1,0.1,{0.01 + i / 1000},0.5," for i in range(3)) + "\n" + row + "\n")
    assert run_cli("stats", "compare", "--a", str(a), "--b", str(a)) == 1
    err = capsys.readouterr().err
    assert f"a.csv:5: {message}" in err
    assert "Traceback" not in err


# "0.2,9": a plain list holds one value per line, not a first column
@pytest.mark.parametrize("value", ["nan", "inf", "x", "0.2,9"])
def test_stats_compare_plain_list_needs_finite_values(tmp_path, capsys, value):
    sample = tmp_path / "s.csv"
    sample.write_text(f"0.1\n{value}\n0.3\n0.2\n")
    assert run_cli("stats", "compare", "--a", str(sample), "--b", str(sample)) == 1
    captured = capsys.readouterr()
    assert "s.csv:2: a sample value must be " in captured.err
    assert repr(value) in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_stats_compare_empty_column_names_file_and_column(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + "\n" + "".join(
        f"8,2,nn,{i},1,0.1,0.2,,\n" for i in range(3)))
    assert run_cli("stats", "compare", "--a", str(results), "--b", str(results),
                   "--column", "final_ae_mse") == 1
    err = capsys.readouterr().err
    assert f"{results}: no sample values (column 'final_ae_mse' is empty or absent)" in err


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_one(capsys):
    assert run_cli() == 1


def test_bad_parameters_exit_one(tmp_path, capsys):
    assert run_cli("gen-landscape", "--n", "4", "--k", "9",
                   "--out", str(tmp_path / "x.json")) == 1
    assert "k must satisfy" in capsys.readouterr().err


@pytest.mark.parametrize("cell, message", [("abc", "numeric"), ("7", "-1 or 1")])
def test_bad_train_data_exits_one(tmp_path, capsys, cell, message):
    land = tmp_path / "land.json"
    run_cli("gen-landscape", "--n", "4", "--k", "2", "--seed", "3", "--out", str(land))
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x1,x2,x3,x4,y\n1,-1,1,-1,0.5\n1,{cell},1,-1,0.25\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli("train", "--arch", "nn", "--landscape", str(land), "--train-data", str(bad),
                   "--iterations", "10", "--out-dir", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and "bad.csv:3" in err
    assert "Traceback" not in err


def write_landscape(path, case):
    """A saved landscape, broken as `case` says."""
    run_cli("gen-landscape", "--n", "4", "--k", "2", "--seed", "3", "--out", str(path))
    payload = json.loads(path.read_text())
    if case == "missing key":
        del payload["tables"]
    elif case == "nan entry":
        payload["tables"][2][1] = float("nan")
    elif case == "entry above one":
        payload["tables"][1][0] = 1.5
    elif case == "negative entry":
        payload["tables"][3][7] = -0.25
    elif case == "repeated neighbor":
        payload["neighbors"][0] = [2, 2]
    elif case == "own neighbor":
        payload["neighbors"][0] = [0, 1]
    elif case == "neighbor beyond n":
        payload["neighbors"][0] = [1, 4]
    elif case == "negative neighbor":
        payload["neighbors"][0] = [-1, 1]
    elif case == "two bad neighbor rows":
        payload["neighbors"][3] = [3, 0]
        payload["neighbors"][1] = [2, 2]
    elif case == "missing neighbor row":
        del payload["neighbors"][3]
    elif case == "long neighbor rows":
        payload["neighbors"] = [row + [row[0]] for row in payload["neighbors"]]
    elif case == "unknown neighbor mode":
        payload["neighbor_mode"] = "bogus"
    elif case == "fractional n":
        payload["n"] = 4.7
    elif case == "fractional neighbor":
        payload["neighbors"][1][0] = 2.5
    elif case == "neighbor beyond int64":
        payload["neighbors"][1][0] = 2**64
    elif case == "text table entry":
        payload["tables"][0][3] = str(payload["tables"][0][3])
    elif case == "list":
        payload = [payload]
    text = json.dumps(payload)
    path.write_text(text[: len(text) // 2] if case == "not json" else text)


@pytest.mark.parametrize("case, message", [
    ("missing key", "no 'tables'"),
    ("not json", "Expecting"),
    ("nan entry", "table entries must lie in [0.0, 1.0]"),
    ("entry above one", "table entries must lie in [0.0, 1.0]"),
    ("negative entry", "table entries must lie in [0.0, 1.0]"),
    ("repeated neighbor", "neighbors[0] must be 2 distinct indices != 0 in [0, 4)"),
    ("own neighbor", "neighbors[0] must be 2 distinct indices != 0 in [0, 4)"),
    ("neighbor beyond n", "neighbors[0] must be 2 distinct indices != 0 in [0, 4)"),
    ("negative neighbor", "neighbors[0] must be 2 distinct indices != 0 in [0, 4)"),
    ("two bad neighbor rows", "neighbors[1] must be 2 distinct indices != 1 in [0, 4)"),
    ("missing neighbor row", "neighbors must have shape (4, 2)"),
    ("long neighbor rows", "neighbors must have shape (4, 2)"),
    ("unknown neighbor mode", "neighbor_mode must be one of"),
    ("fractional n", "n, k and seed must be JSON integers, got [4.7, 2, 3]"),
    ("fractional neighbor", "neighbors must be JSON integers"),
    ("neighbor beyond int64", "neighbors must be JSON integers"),
    ("text table entry", "tables must be JSON numbers"),
    ("list", "a landscape must be a JSON object"),
])
def test_bad_landscape_file_exits_one(tmp_path, capsys, case, message):
    land = tmp_path / "land.json"
    write_landscape(land, case)
    capsys.readouterr()
    out = tmp_path / "d.csv"
    assert run_cli("gen-dataset", "--landscape", str(land), "--seed", "1",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{land}: " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def corrupt_bytes(path):
    """Put a byte that is not UTF-8 in the middle of a file."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2:])


def not_utf8_input(tmp_path, case):
    """The argv of a command that reads the input `case` names, and that input file."""
    if case == "stats sample":
        sample = tmp_path / "a.csv"
        sample.write_text("0.1\n0.2\n0.3\n")
        return ["stats", "compare", "--a", str(sample), "--b", str(sample)], sample
    if case == "snapshot log":
        out = tmp_path / "sweep"
        assert run_cli(*SWEEP_ARGS, "--out-dir", str(out)) == 0
        return FIG5 + [str(out)], out / "n8_k2" / "nan_run00_snapshots.csv"
    land, data = tmp_path / "land.json", tmp_path / "train.csv"
    run_cli("gen-landscape", "--n", "4", "--k", "2", "--seed", "3", "--out", str(land))
    run_cli("gen-dataset", "--landscape", str(land), "--count", "20", "--seed", "4",
            "--out", str(data))
    argv = ["train", "--arch", "nn", "--landscape", str(land), "--train-data", str(data),
            "--iterations", "10", "--out-dir", str(tmp_path / "run")]
    return argv, data if case == "train data" else data.with_suffix(".meta.json")


@pytest.mark.parametrize("case", ["train data", "train data meta", "stats sample",
                                  "snapshot log"])
def test_input_that_is_not_utf8_exits_one(tmp_path, capsys, case):
    argv, path = not_utf8_input(tmp_path, case)
    corrupt_bytes(path)
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and "can't decode byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("archs, n_grid", [("nan,nn", "8,8"), ("nan,nan", "8")])
def test_repeated_grid_value_exits_one(tmp_path, capsys, archs, n_grid):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--n-grid", n_grid, "--k-grid", "2", "--archs", archs,
                   "--runs", "2", "--seed", "5", "--out-dir", str(out)) == 1
    assert "repeats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--archs", "foo", "unknown architecture 'foo'"),
    ("--n-grid", "20,x", "expected a comma-separated integer list, got '20,x'"),
])
def test_list_flag_errors_name_the_value(tmp_path, capsys, flag, value, message):
    assert run_cli("sweep", flag, value, "--out-dir", str(tmp_path / "sweep")) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "invalid" not in err
    assert not (tmp_path / "sweep").exists()


def test_plotdata_with_repeated_archs_exits_one(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli(*SWEEP_ARGS, "--out-dir", str(out)) == 0
    capsys.readouterr()
    assert run_cli(*FIG5, str(out), "--archs", "nan,nan") == 1
    assert "archs repeats a value: ('nan', 'nan')" in capsys.readouterr().err
    assert not (out / "fig5_n8_k2.csv").exists()


def test_missing_input_file_exits_two(tmp_path, capsys):
    assert run_cli("gen-dataset", "--landscape", str(tmp_path / "absent.json"),
                   "--seed", "1", "--out", str(tmp_path / "d.csv")) == 2


def test_internal_failure_exits_three(tmp_path, monkeypatch, capsys):
    from nkae import cli as cli_mod

    def boom(config):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli_mod.experiments, "run_experiment", boom)
    code = run_cli("sweep", "--n-grid", "8", "--k-grid", "2", "--runs", "2",
                   "--seed", "1", "--out-dir", str(tmp_path / "s"))
    assert code == 3


@pytest.mark.parametrize("command", [
    ["train", "--arch", "ann", "--n", "8", "--k", "2"],
    ["sweep", "--n-grid", "8", "--k-grid", "2", "--archs", "ann", "--runs", "1"],
])
def test_corrupted_cache_exits_three(tmp_path, monkeypatch, capsys, command):
    corrupt_first_judge(monkeypatch)
    code = run_cli(*command, "--p-autoencode", "0", *TRAIN_FLAGS, "--out-dir", str(tmp_path))
    assert code == 3
    assert "InternalError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["train", "--help"],
    ["sweep", "--help"],
    ["stats", "compare", "--help"],
])
def test_help_exits_zero(argv, capsys):
    assert run_cli(*argv) == 0


def test_help_documents_default_setup(capsys):
    run_cli("train", "--help")
    text = capsys.readouterr().out
    for token in ("10000", "1.0", "10", "0.5", "100"):
        assert token in text
    run_cli("sweep", "--help")
    text = capsys.readouterr().out
    assert "20" in text and "20,200,1000" in text and "2,5,10,15" in text


def test_flag_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    configs, build_trial_specs = [], experiments.build_trial_specs

    def recorded(config):
        configs.append(config)
        return build_trial_specs(config)

    monkeypatch.setattr(experiments, "build_trial_specs", recorded)
    monkeypatch.setattr(experiments, "run_trial", lambda spec, datasets: TrialResult(
        8, 2, "nn", 0, 1, 0.1, 0.2, None))
    monkeypatch.setattr(experiments, "run_experiment", lambda config: configs.append(config) or [])
    out = str(tmp_path / "out")
    assert run_cli("train", "--arch", "nn", "--n", "8", "--k", "2", "--out-dir", out) == 0
    assert run_cli("sweep", "--out-dir", out) == 0
    train, sweep = configs
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    defaults["train_config"] = TrainConfig()
    assert train.train_config == TrainConfig()
    assert (train.train_count, train.test_count) == (defaults["train_count"], defaults["test_count"])
    for name, default in defaults.items():
        if name not in ("master_seed", "out_dir"):
            assert getattr(sweep, name) == default, name


def test_console_entry_point_runs():
    # the child imports the same nkae as this session, installed or from src/
    src = str(Path(nkae.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "nkae.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "gen-landscape" in proc.stdout
