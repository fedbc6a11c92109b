"""Fixtures shared by several test modules."""

import importlib.util
from pathlib import Path

import numpy as np

from nkae import Dataset


def make_dataset(n, count, seed=0):
    """`count` random ±1 examples of width `n` with uniform targets."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, n))
    return Dataset(bits * 2.0 - 1.0, rng.random(count))


def read_tree(root):
    """Relative path -> bytes of every file under `root` but the wall-clock `timings.csv`."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file() and p.name != "timings.csv"
    }


def load_tool(name):
    """The module `tools/<name>.py`, which is a script rather than a package."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
