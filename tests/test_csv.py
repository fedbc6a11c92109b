"""The CSV codec of `nkae.errors`: the float cell rule, the writer and the readers."""

import shutil

import numpy as np
import pytest

from nkae import ExperimentConfig, ParameterError, TrainConfig, load_dataset, run_experiment
from nkae import experiments
from nkae.cli import _load_sample
from nkae.errors import float_cell, opt_float, read_csv, write_csv
from nkae.hillclimb import read_cycle_log, read_snapshot_log


@pytest.mark.parametrize("value, cell", [
    (np.float64(0.1), "0.1"),
    (np.float64(1e-300), "1e-300"),
    (np.float32(0.5), "0.5"),
    (0.30000000000000004, "0.30000000000000004"),
    (None, ""),
])
def test_float_cell_is_the_python_float_repr(value, cell):
    assert float_cell(value) == cell
    assert opt_float(cell) == (None if value is None else float(value))


def test_write_csv_writes_header_and_rows_line_by_line(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "a,b", (["1", float_cell(np.float64(0.25))], ["2", float_cell(None)]))
    assert path.read_bytes() == b"a,b\n1,0.25\n2,\n"
    write_csv(path, "a,b", [])
    assert path.read_bytes() == b"a,b\n"


def test_read_csv_names_file_line_and_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ParameterError, match=r"t\.csv:3: invalid b 'x'"):
        read_csv(path, "a,b", (int, int))
    with pytest.raises(ParameterError, match=r"t\.csv:1: expected header 'a,c', got 'a,b'"):
        read_csv(path, "a,c", (int, int))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    run_experiment(ExperimentConfig(
        master_seed=5, out_dir=out, n_grid=(8,), k_grid=(2,), archs=("nan", "nn"), runs=1,
        train_config=TrainConfig(iterations=60, h=3, eval_interval=20),
        train_count=25, test_count=25,
    ))
    yield out
    shutil.rmtree(out)


def with_blank_lines(path):
    """Insert a blank line after the header and a whitespace-only one at the end."""
    header, rest = path.read_text().split("\n", 1)
    path.write_text(f"{header}\n\n{rest} \n\n")


def nn_file(sweep, kind):
    return experiments.run_paths(experiments.cell_dir(sweep, 8, 2), "nn", 0)[kind]


def write_dataset(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1,-1,0.5\n-1,1.0,0.25\n")
    return path


def read_dataset(path):
    dataset = load_dataset(path)
    return dataset.inputs.tolist(), dataset.targets.tolist()


def write_plain_sample(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("0.1\n0.3\n0.2\n")
    return path


# reader -> (a file it reads, how to read it)
READERS = {
    "cycle log": (lambda tmp, sweep: nn_file(sweep, "cycles"), read_cycle_log),
    "snapshot log": (lambda tmp, sweep: nn_file(sweep, "snapshots"), read_snapshot_log),
    "results": (lambda tmp, sweep: sweep / "results.csv", experiments.load_results_csv),
    "dataset": (lambda tmp, sweep: write_dataset(tmp), read_dataset),
    "results-style sample": (lambda tmp, sweep: sweep / "results.csv",
                             lambda path: _load_sample(path, "final_test_mse")),
    "plain sample": (lambda tmp, sweep: write_plain_sample(tmp),
                     lambda path: _load_sample(path, "final_test_mse")),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_skips_blank_lines(tmp_path, sweep, reader):
    make, read = READERS[reader]
    source = make(tmp_path, sweep)
    path = tmp_path / "blank.csv"
    path.write_bytes(source.read_bytes())
    expected = read(path)
    assert expected
    with_blank_lines(path)
    assert read(path) == expected


def test_dataset_lines_may_carry_surrounding_whitespace(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(" x1,x2,y \n 1,-1.0,0.5 \n")
    dataset = load_dataset(path)
    assert dataset.inputs.tolist() == [[1.0, -1.0]] and dataset.targets.tolist() == [0.5]
