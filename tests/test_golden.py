"""Golden digests: small sweeps whose output trees must keep their bytes.

Each config below runs through `run_experiment`, and the SHA-256 of its tree
(sorted relative paths and bytes, without the wall-clock `timings.csv`) must
equal the digest recorded in `golden_digests.json`. The cycle logs hold the
`repr` of every objective, so a change that moves any bit of a trajectory
(a reordered float reduction, a different RNG draw, a numpy whose SIMD `exp`
rounds differently) fails here even when it flips no acceptance direction.

The bits depend on the numpy version and on the SIMD targets numpy
dispatches to, so the digests are keyed by both. A key with no digests
fails and names itself. They also depend on the BLAS thread count: at
n=1000 the cached pre-activations `X @ encoder.T` round differently with one
OpenBLAS thread than with two. So each config runs in a fresh interpreter
with one BLAS thread, as `tools/same_trees.py` runs its configs.

    PYTHONPATH=src python tests/test_golden.py --record

(re)writes the current key's digests; a change that moves trajectories on
purpose records new ones and says so.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import nkae
from nkae import ExperimentConfig, TrainConfig, run_experiment
from nkae.hillclimb import read_cycle_log

from helpers import read_tree

DIGESTS = Path(__file__).with_name("golden_digests.json")

# name -> (ExperimentConfig fields, TrainConfig fields); master seed 7 throughout
CONFIGS = {
    # both small k, every arch, one block of examples per kernel call
    "n20-k2-k5": ({"n_grid": (20,), "k_grid": (2, 5), "archs": ("nan", "ann", "nn"), "runs": 2},
                  {"iterations": 500}),
    # saturated sigmoids make exact ties, so the tie-break draw is taken
    "n20-r200": ({"n_grid": (20,), "k_grid": (5,), "archs": ("nan", "ann", "nn"), "runs": 1},
                 {"iterations": 500, "r": 200.0}),
    "n20-tanh-decoder-bias": ({"n_grid": (20,), "k_grid": (5,), "archs": ("nan", "ann"), "runs": 1},
                              {"iterations": 500, "decoder_activation": "tanh",
                               "decoder_bias": True}),
    # two blocks of examples, carry-row sums by einsum
    "n200-decoder-bias": ({"n_grid": (200,), "k_grid": (5,), "archs": ("nan", "ann"), "runs": 1,
                           "train_count": 400},
                          {"iterations": 200, "decoder_bias": True}),
    # four blocks of examples, carry-row sums by sum(axis=0)
    "n1000": ({"n_grid": (1000,), "k_grid": (2,), "archs": ("nan", "ann", "nn"), "runs": 1},
              {"iterations": 60}),
}

ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def numpy_key() -> str:
    """The numpy version and the SIMD targets it dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} / {' '.join(active) or 'baseline'}"


def run_config(name, out_dir) -> Path:
    grid, train = CONFIGS[name]
    config = ExperimentConfig(**{"master_seed": 7, "out_dir": out_dir, "train_count": 200,
                                 "test_count": 100, **grid},
                              train_config=TrainConfig(**train))
    run_experiment(config)
    return Path(out_dir)


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path, data in read_tree(root).items():  # sorted by path
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def config_digest(name) -> str:
    """The tree digest of config `name`, run in a fresh interpreter with one BLAS thread."""
    src = str(Path(nkae.__file__).resolve().parent.parent)
    env = dict(os.environ, **ONE_BLAS_THREAD, PYTHONPATH=src)
    done = subprocess.run([sys.executable, __file__, name], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


@pytest.mark.parametrize("name", CONFIGS)
def test_tree_matches_golden_digest(name):
    key, table = numpy_key(), recorded()
    if key not in table:
        pytest.fail(f"no golden digests for {key!r}; recorded keys: {sorted(table)}. "
                    "Record them with `PYTHONPATH=src python tests/test_golden.py --record`.")
    assert config_digest(name) == table[key][name]


def test_r200_config_takes_tie_draws(tmp_path):
    root = run_config("n20-r200", tmp_path)
    ties = [rec.accepted for path in sorted(root.rglob("*_cycles.csv"))
            for rec in read_cycle_log(path) if rec.objective_after == rec.objective_before]
    # a tie is accepted or rejected by one more draw: both outcomes occur
    assert True in ties and False in ties


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        table = recorded()
        table[numpy_key()] = {name: config_digest(name) for name in CONFIGS}
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {numpy_key()!r} in {DIGESTS}", file=sys.stderr)
    else:  # NAME: print the digest of config NAME, run here
        with tempfile.TemporaryDirectory() as tmp:
            print(tree_digest(run_config(sys.argv[1], tmp)))
