"""Golden digests: small trees whose bytes must not move.

Every config of `tools/same_trees.py` runs from this checkout's `src/`
through that tool's `run_config`, in a fresh interpreter with one BLAS
thread, and the SHA-256 of its tree as that tool's `read_tree` reads it
(sorted relative paths and bytes, without the wall-clock `timings.csv`)
must equal the digest recorded in `golden_digests.json`. The cycle logs
hold the `repr` of every objective, so a change that moves any bit of a
trajectory (a reordered float reduction, a different RNG draw, a numpy whose
SIMD `exp` rounds differently) fails here even when it flips no acceptance
direction.

The bits depend on the numpy version and on the SIMD targets numpy
dispatches to, so the digests are keyed by both. A config with no digest
under this key fails and names itself and the key. At n=1000 the products
`X @ encoder.T` round differently with one OpenBLAS thread than with two, so
`hillclimb.train` runs with one thread whatever the process asks for, and
`run_config` pins one as well; the n1000 config is also run with two
threads and no pinning, and with two worker processes, and must write the
same tree both ways.

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

from nkae.experiments import usable_cpus
from nkae.hillclimb import read_cycle_log

from helpers import load_tool

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
RECORD = "PYTHONPATH=src python tests/test_golden.py --record"

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
    for path, data in same_trees.read_tree(root).items():  # sorted by path
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def golden(name) -> str:
    """Config `name`'s recorded digest under this numpy's key; fails without one."""
    key, table = numpy_key(), recorded()
    if name not in table.get(key, {}):
        pytest.fail(f"no golden digest for config {name!r} under {key!r}; recorded keys: "
                    f"{sorted(table)}. Record them with `{RECORD}`.")
    return table[key][name]


# configs(), not DIGESTS: a config with no recorded digest must fail, not drop out
@pytest.mark.parametrize("name", same_trees.configs())
def test_tree_matches_golden_digest(name, tmp_path):
    expected = golden(name)
    assert tree_digest(run_golden(name, tmp_path / name)) == expected


def test_n1000_tree_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The n1000 config, run through `same_trees`' child with two OpenBLAS
    threads and no pinning, writes the tree recorded for one thread."""
    if usable_cpus() < 2:
        pytest.skip("OpenBLAS runs at most one thread per CPU, and this process has one CPU")
    expected = golden("n1000")
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONDONTWRITEBYTECODE="1")
    out = tmp_path / "n1000"
    out.mkdir()
    argvs = json.dumps(same_trees.configs()["n1000"])
    subprocess.run([sys.executable, "-c", same_trees.CHILD, str(ROOT / "src"), str(out), argvs],
                   env=env, cwd=tmp_path, check=True, stdout=subprocess.DEVNULL)
    assert tree_digest(out) == expected


def test_n1000_tree_does_not_depend_on_the_worker_count(tmp_path):
    """The n1000 config's three trials, run by a pool of two worker
    processes, write the tree recorded for one process: the pooled n=1000
    path that criterion 7 takes."""
    if usable_cpus() < 2:
        pytest.skip("run_experiment runs one process per usable CPU, and this process has one")
    expected = golden("n1000")
    [sweep] = same_trees.configs()["n1000"]
    same_trees.run_config(ROOT, [sweep + ["--workers", "2"]], tmp_path / "n1000")
    assert tree_digest(tmp_path / "n1000") == expected


def test_a_config_without_a_digest_fails_naming_it(monkeypatch, tmp_path):
    monkeypatch.setitem(globals(), "recorded", lambda: {numpy_key(): {"n20-r200": "0" * 64}})
    with pytest.raises(pytest.fail.Exception, match=r"config 'n1000' under .*--record`"):
        test_tree_matches_golden_digest("n1000", tmp_path)


def test_r200_config_takes_tie_draws(tmp_path):
    root = run_golden("n20-r200", tmp_path / "n20-r200")
    ties = [rec.accepted for path in sorted(root.rglob("*_cycles.csv"))
            for rec in read_cycle_log(path) if rec.objective_after == rec.objective_before]
    # a tie is accepted or rejected by one more draw: both outcomes occur
    assert True in ties and False in ties


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    table = recorded()
    with tempfile.TemporaryDirectory() as tmp:
        table[numpy_key()] = {name: tree_digest(run_golden(name, Path(tmp) / name))
                              for name in same_trees.configs()}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {numpy_key()!r} in {DIGESTS}", file=sys.stderr)
