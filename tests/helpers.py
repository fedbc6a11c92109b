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


def load_tool(name):
    """The module `tools/<name>.py`, which is a script rather than a package."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the reader behind the golden digests and `same_trees`' comparison
read_tree = load_tool("same_trees").read_tree
