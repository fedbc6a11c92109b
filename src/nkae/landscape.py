"""Seeded NK fitness landscapes and regression datasets sampled from them.

An NK landscape assigns each of ``n`` binary genes a lookup table of
``2**(k+1)`` uniform-random contribution values; a genome's fitness is the
mean of its per-gene table lookups. The lookup index for gene ``i`` is built
with gene ``i``'s own bit as the most significant bit, followed by the bits
of its ``k`` epistatic neighbors in stored order. Contributions are summed
in gene order (left to right, float64), so results reproduce bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ParameterError, finite_float, float_cell, json_array, number, read_csv,
                     read_json, write_csv)

MAX_K = 15
NEIGHBOR_MODES = ("random", "adjacent")


def check_neighbor_mode(neighbor_mode):
    if neighbor_mode not in NEIGHBOR_MODES:
        raise ParameterError(
            f"neighbor_mode must be one of {NEIGHBOR_MODES}, got {neighbor_mode!r}"
        )


def check_size(n, k):
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not 1 <= k <= min(MAX_K, n - 1):
        raise ParameterError(
            f"k must satisfy 1 <= k <= min({MAX_K}, n-1) = {min(MAX_K, n - 1)}, got {k}"
        )


def _check_neighbors(n, k, neighbors):
    if neighbors.shape != (n, k):
        raise ParameterError(f"neighbors must have shape ({n}, {k})")
    rows = np.sort(neighbors, axis=1)
    bad = ((rows[:, 0] < 0) | (rows[:, -1] >= n)
           | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
           | (rows == np.arange(n)[:, None]).any(axis=1))
    if bad.any():
        i = int(bad.argmax())
        raise ParameterError(f"neighbors[{i}] must be {k} distinct indices != {i} in [0, {n})")


def _check_table(table):
    # written so that a NaN entry fails too
    if not (table.min() >= 0.0 and table.max() <= 1.0):
        raise ParameterError("table entries must lie in [0.0, 1.0]")


class NkLandscape:
    """A seeded NK landscape: epistasis structure plus fitness tables.

    Attributes:
        n: number of genes.
        k: epistasis degree (neighbors per gene).
        seed: 64-bit seed the structure was generated from.
        neighbors: (n, k) int array; row i holds gene i's epistatic partners.
        tables: (n, 2**(k+1)) float64 array of unit-interval contributions.
        neighbor_mode: "random" or "adjacent".
    """

    def __init__(self, n, k, seed, neighbors, tables, neighbor_mode="random"):
        self.n = int(n)
        self.k = int(k)
        self.seed = int(seed)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.tables = np.asarray(tables, dtype=np.float64)
        self.neighbor_mode = neighbor_mode
        self._validate()

    def _validate(self):
        check_size(self.n, self.k)
        check_neighbor_mode(self.neighbor_mode)
        _check_neighbors(self.n, self.k, self.neighbors)
        if self.tables.shape != (self.n, 2 ** (self.k + 1)):
            raise ParameterError(f"tables must have shape ({self.n}, {2 ** (self.k + 1)})")
        _check_table(self.tables)

    def __eq__(self, other):
        if not isinstance(other, NkLandscape):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.seed == other.seed
            and self.neighbor_mode == other.neighbor_mode
            and np.array_equal(self.neighbors, other.neighbors)
            and np.array_equal(self.tables, other.tables)
        )

    def __repr__(self):
        return f"NkLandscape(n={self.n}, k={self.k}, seed={self.seed}, neighbor_mode={self.neighbor_mode!r})"


@dataclass
class Dataset:
    """Sampled regression examples: ±1-encoded genomes and their fitnesses."""

    inputs: np.ndarray          # (count, n) float64, entries exactly -1.0 or +1.0
    targets: np.ndarray         # (count,) float64 in [0, 1]
    meta: dict = field(default_factory=dict)

    @property
    def count(self):
        return self.inputs.shape[0]

    @property
    def n(self):
        return self.inputs.shape[1]


def _draw_neighbors(rng, n, k, neighbor_mode):
    """Gene by gene: uniform without replacement, or the next k indices cyclically."""
    check_size(n, k)
    check_neighbor_mode(neighbor_mode)
    genes = np.arange(n, dtype=np.int64)
    if neighbor_mode == "adjacent":
        return (genes[:, None] + np.arange(1, k + 1)) % n
    return np.array([rng.choice(np.delete(genes, i), size=k, replace=False) for i in range(n)])


def nk_new(n: int, k: int, seed: int, neighbor_mode: str = "random") -> NkLandscape:
    """Construct a seeded landscape; deterministic in (n, k, seed, neighbor_mode).

    Neighbor rows are drawn gene by gene (uniform without replacement, or the
    next k indices cyclically for "adjacent"), then all table entries in one
    uniform [0, 1) draw.
    """
    rng = np.random.default_rng(seed)
    neighbors = _draw_neighbors(rng, n, k, neighbor_mode)
    tables = rng.random((n, 2 ** (k + 1)))
    return NkLandscape(n, k, seed, neighbors, tables, neighbor_mode)


def _check_genomes(landscape, genomes):
    genomes = np.asarray(genomes)
    if genomes.ndim != 2 or genomes.shape[1] != landscape.n:
        raise ParameterError(
            f"genomes must have {landscape.n} genes, got shape {genomes.shape}"
        )
    if not np.isin(genomes, (0, 1)).all():
        raise ParameterError("genome entries must be 0 or 1")
    return genomes.astype(np.uint8, copy=False)


def _lookup_indices(genomes, neighbors):
    """(n, m) table column of each gene for each of m uint8 0/1 genome rows.

    A column has k + 1 bits, and `check_size` caps k at MAX_K = 15, so every
    column fits in uint16, which moves a quarter of int64's bytes."""
    bits = np.ascontiguousarray(genomes.T)
    idx = bits.astype(np.uint16)
    for j in range(neighbors.shape[1]):
        idx <<= 1
        idx |= bits[neighbors[:, j]]
    return idx


def _mean_lookups(table_rows, indices, n):
    """Per-genome mean table lookup, one array per (n, m) index array.

    `table_rows` yields gene i's table for i = 0 .. n-1; each total adds the
    contributions in gene order.
    """
    totals = [np.zeros(idx.shape[1]) for idx in indices]
    for i, row in enumerate(table_rows):
        for total, idx in zip(totals, indices):
            total += row[idx[i]]
    return [total / n for total in totals]


def fitness_batch(landscape: NkLandscape, genomes) -> np.ndarray:
    """Fitness of each genome row: per-gene contributions summed in gene order, / n."""
    genomes = _check_genomes(landscape, genomes)
    idx = _lookup_indices(genomes, landscape.neighbors)
    return _mean_lookups(landscape.tables, [idx], landscape.n)[0]


def _draw_genomes(count, n, seed):
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, n), dtype=np.uint8)


def _datasets(neighbors, table_rows, requests, landscape_seed, neighbor_mode) -> list[Dataset]:
    """One Dataset per `(count, seed)` in `requests`, from one landscape.

    `table_rows` yields gene i's table for i = 0 .. n-1, each used before the
    next is asked for. The lookup indices are freed before the ±1.0 inputs
    are built, so the two never share the peak.
    """
    n, k = neighbors.shape
    genomes = [_draw_genomes(count, n, seed) for count, seed in requests]
    indices = [_lookup_indices(g, neighbors) for g in genomes]
    targets = _mean_lookups(table_rows, indices, n)
    del indices
    return [
        Dataset(g.astype(np.float64) * 2.0 - 1.0, t, {
            "landscape_seed": int(landscape_seed),
            "dataset_seed": int(seed),
            "n": n,
            "k": k,
            "count": len(g),
            "neighbor_mode": neighbor_mode,
        })
        for g, t, (_, seed) in zip(genomes, targets, requests)
    ]


def gen_dataset(landscape: NkLandscape, count: int, seed: int) -> Dataset:
    """Sample `count` uniform genomes (with replacement); encode bits as ±1.0.

    Deterministic in (landscape, count, seed); the generator is independent
    of the landscape's construction stream.
    """
    return _datasets(landscape.neighbors, landscape.tables, [(count, seed)], landscape.seed,
                     landscape.neighbor_mode)[0]


def nk_datasets(n: int, k: int, landscape_seed: int, requests,
                neighbor_mode: str = "random") -> list[Dataset]:
    """Datasets from one landscape, without materialising its tables.

    Returns one Dataset per `(count, seed)` in `requests`, byte-identical to
    `gen_dataset(nk_new(n, k, landscape_seed, neighbor_mode), count, seed)`
    by construction: both run `_datasets`, and only the source of the table
    rows differs. Here the rows are drawn one gene at a time into a single
    2**(k+1) buffer: the generator yields the same values row by row as in
    one (n, 2**(k+1)) draw, so memory is set by the datasets rather than by
    the tables (512 KiB instead of 500 MiB at n=1000, k=15).
    """
    rng = np.random.default_rng(landscape_seed)
    neighbors = _draw_neighbors(rng, n, k, neighbor_mode)
    row = np.empty(2 ** (k + 1))
    return _datasets(neighbors, (rng.random(out=row) for _ in range(n)), requests,
                     landscape_seed, neighbor_mode)


def save_landscape(landscape: NkLandscape, path) -> None:
    """Write the landscape as JSON with tables in full, portable across RNGs."""
    payload = {
        "n": landscape.n,
        "k": landscape.k,
        "seed": landscape.seed,
        "neighbor_mode": landscape.neighbor_mode,
        "neighbors": landscape.neighbors.tolist(),
        "tables": landscape.tables.tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_landscape(path) -> NkLandscape:
    """Read a `save_landscape` file; malformed content raises ParameterError naming it.

    n, k, seed and the neighbors must be JSON integers, the tables JSON numbers.
    """
    payload = read_json(path, "a landscape")
    try:
        sizes = [payload[key] for key in ("n", "k", "seed")]
        if any(type(value) is not int for value in sizes):
            raise ParameterError(f"n, k and seed must be JSON integers, got {sizes}")
        return NkLandscape(*sizes, json_array(payload["neighbors"], "neighbors", integer=True),
                           json_array(payload["tables"], "tables"),
                           payload.get("neighbor_mode", "random"))
    except KeyError as exc:
        raise ParameterError(f"{path}: landscape has no {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _meta_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def save_dataset(dataset: Dataset, path) -> None:
    """Write examples as CSV (x1..xN,y) plus a sibling .meta.json with seeds.

    Inputs are serialized as -1/1; targets with full round-trip precision.
    """
    header = ",".join([*(f"x{i + 1}" for i in range(dataset.n)), "y"])
    rows = (np.where(x > 0, "1", "-1").tolist() + [float_cell(y)]
            for x, y in zip(dataset.inputs, dataset.targets))
    write_csv(path, header, rows)
    _meta_path(path).write_text(json.dumps(dataset.meta), encoding="utf-8")


class _Signs(dict):
    """Input cells: "1" and "-1" are dict hits (cheaper than float()); other spellings are parsed."""

    def __missing__(self, cell):
        if abs(number(cell)) != 1.0:
            raise ParameterError(f"must be -1 or 1, got {cell!r}")
        return float(cell)


def _dataset_parsers(names) -> list:
    """The parsers of a dataset file whose header is x1,...,xN,y."""
    n = len(names) - 1
    if n < 1 or names != [f"x{i + 1}" for i in range(n)] + ["y"]:
        raise ValueError("header must be x1,...,xN,y")
    return [_Signs({"1": 1.0, "-1": -1.0}).__getitem__] * n + [finite_float]


def load_dataset(path) -> Dataset:
    """Read examples written by `save_dataset`; malformed content raises ParameterError."""
    rows = read_csv(path, _dataset_parsers)
    if not rows:
        raise ParameterError(f"{path}: no examples")
    mp = _meta_path(path)
    meta = read_json(mp, "dataset metadata") if mp.exists() else {}
    data = np.asarray(rows)
    return Dataset(np.ascontiguousarray(data[:, :-1]), np.ascontiguousarray(data[:, -1]), meta)
