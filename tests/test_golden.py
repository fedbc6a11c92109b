"""Golden digests: small trees whose bytes must not move.

Each name in `GOLDEN` is a config of `tools/same_trees.py`. It runs from
this checkout's `src/` through that tool's `run_config`, in a fresh
interpreter with one BLAS thread, and the SHA-256 of its tree (sorted
relative paths and bytes, without the wall-clock `timings.csv`) must equal
the digest recorded in `golden_digests.json`. The cycle logs hold the `repr`
of every objective, so a change that moves any bit of a trajectory (a
reordered float reduction, a different RNG draw, a numpy whose SIMD `exp`
rounds differently) fails here even when it flips no acceptance direction.

The bits depend on the numpy version and on the SIMD targets numpy
dispatches to, so the digests are keyed by both. A key with no digests
fails and names itself. They also depend on the BLAS thread count: at
n=1000 the cached pre-activations `X @ encoder.T` round differently with one
OpenBLAS thread than with two, which is why `run_config` pins one.

    PYTHONPATH=src python tests/test_golden.py --record

(re)writes the current key's digests; a change that moves trajectories on
purpose records new ones and says so.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nkae.hillclimb import read_cycle_log

from helpers import load_tool, read_tree

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
# spelled out rather than read from DIGESTS: a name with no recorded digest
# must fail, not drop out of the parametrization
GOLDEN = ("n20-k2-k5", "n20-r200", "n20-tanh-decoder-bias", "n200-decoder-bias", "n1000",
          "train-ann-n20-k5-decoder-bias", "gen-landscape-dataset")

same_trees = load_tool("same_trees")


def numpy_key() -> str:
    """The numpy version and the SIMD targets it dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} / {' '.join(active) or 'baseline'}"


def run_golden(name, out_dir: Path) -> Path:
    """Run `same_trees` config `name` from this checkout into `out_dir`."""
    same_trees.run_config(ROOT, same_trees.configs()[name], out_dir)
    return out_dir


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path, data in read_tree(root).items():  # sorted by path
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


@pytest.mark.parametrize("name", GOLDEN)
def test_tree_matches_golden_digest(name, tmp_path):
    key, table = numpy_key(), recorded()
    if key not in table:
        pytest.fail(f"no golden digests for {key!r}; recorded keys: {sorted(table)}. "
                    "Record them with `PYTHONPATH=src python tests/test_golden.py --record`.")
    assert tree_digest(run_golden(name, tmp_path / name)) == table[key][name]


def test_r200_config_takes_tie_draws(tmp_path):
    root = run_golden("n20-r200", tmp_path / "n20-r200")
    ties = [rec.accepted for path in sorted(root.rglob("*_cycles.csv"))
            for rec in read_cycle_log(path) if rec.objective_after == rec.objective_before]
    # a tie is accepted or rejected by one more draw: both outcomes occur
    assert True in ties and False in ties


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    table = recorded()
    with tempfile.TemporaryDirectory() as tmp:
        table[numpy_key()] = {name: tree_digest(run_golden(name, Path(tmp) / name))
                              for name in GOLDEN}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {numpy_key()!r} in {DIGESTS}", file=sys.stderr)
