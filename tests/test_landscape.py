import json
import tracemalloc

import numpy as np
import pytest

from nkae import (
    ParameterError,
    gen_dataset,
    fitness_batch,
    load_dataset,
    load_landscape,
    nk_new,
    save_dataset,
    save_landscape,
)
from nkae import landscape
from nkae.landscape import MAX_K, NkLandscape, nk_datasets

from oracles import all_genomes, oracle_fitness, oracle_gene_contribution


def test_figure_sized_landscape_has_expected_tables():
    land = nk_new(3, 1, seed=11)
    assert land.tables.shape == (3, 4)
    assert land.neighbors.shape == (3, 1)


def test_k_exceeding_n_minus_1_rejected():
    with pytest.raises(ParameterError, match="k must satisfy"):
        nk_new(2, 2, seed=0)


@pytest.mark.parametrize("n,k", [(1, 1), (0, 1), (5, 0), (5, -1), (20, 16)])
def test_out_of_range_parameters_rejected(n, k):
    with pytest.raises(ParameterError):
        nk_new(n, k, seed=0)


def test_construction_deterministic():
    assert nk_new(5, 2, seed=42) == nk_new(5, 2, seed=42)
    assert nk_new(5, 2, seed=42) != nk_new(5, 2, seed=43)


@pytest.mark.parametrize("mode", ["random", "adjacent"])
def test_nk_new_does_not_recheck_its_own_draws(monkeypatch, mode):
    drawn = nk_new(30, 4, seed=9, neighbor_mode=mode)
    built = NkLandscape(30, 4, 9, drawn.neighbors.copy(), drawn.tables.copy(), mode)

    def refuse(table):
        raise ParameterError("the table was checked")

    monkeypatch.setattr(landscape, "_check_table", refuse)
    assert nk_new(30, 4, seed=9, neighbor_mode=mode) == built
    with pytest.raises(ParameterError, match="the table was checked"):
        NkLandscape(30, 4, 9, built.neighbors, built.tables, mode)


def test_neighbor_invariants():
    land = nk_new(12, 4, seed=9)
    for i in range(12):
        row = land.neighbors[i].tolist()
        assert len(set(row)) == 4
        assert i not in row
        assert all(0 <= v < 12 for v in row)
    assert land.tables.min() >= 0.0
    assert land.tables.max() <= 1.0


def test_adjacent_neighbor_mode():
    land = nk_new(6, 2, seed=1, neighbor_mode="adjacent")
    assert land.neighbors[4].tolist() == [5, 0]
    assert land.neighbors[5].tolist() == [0, 1]
    for n, k in [(2, 1), (7, 3), (16, MAX_K), (40, 6)]:
        got = nk_new(n, k, seed=2, neighbor_mode="adjacent").neighbors
        assert got.dtype == np.int64
        assert got.tolist() == [[(i + j + 1) % n for j in range(k)] for i in range(n)]


# A single gene's contribution is read through fitness_batch on a landscape
# whose other tables are zero: the fitness is then that contribution / n.

def only_gene(land, i):
    """`land` with every table except gene i's zeroed."""
    tables = np.zeros_like(land.tables)
    tables[i] = land.tables[i]
    return NkLandscape(land.n, land.k, land.seed, land.neighbors, tables, land.neighbor_mode)


def test_constant_table_contribution():
    land = nk_new(4, 2, seed=3)
    land.tables[1][:] = 0.7
    fits = fitness_batch(only_gene(land, 1), list(all_genomes(4)))
    assert np.all(fits == 0.7 / 4)


def test_contribution_matches_hand_traced_lookup():
    land = nk_new(3, 1, seed=17)
    genome = [1, 0, 1]
    expected = oracle_gene_contribution(land.tables, land.neighbors, 0, genome)
    assert fitness_batch(only_gene(land, 0), [genome])[0] == expected / 3


def test_all_zero_genome_hits_first_table_row():
    land = nk_new(6, 3, seed=5)
    zeros = [0] * 6
    for i in range(6):
        assert fitness_batch(only_gene(land, i), [zeros])[0] == land.tables[i][0] / 6


def test_constant_landscape_fitness():
    land = nk_new(5, 2, seed=8)
    land.tables[:] = 0.5
    for genome in ([0] * 5, [1] * 5, [1, 0, 1, 0, 1]):
        assert fitness_batch(land, [genome])[0] == 0.5


def test_fitness_matches_exhaustive_oracle():
    land = nk_new(3, 1, seed=29)
    for genome in all_genomes(3):
        assert fitness_batch(land, [genome])[0] == oracle_fitness(land.tables, land.neighbors, genome)


def test_fitness_in_unit_interval():
    rng = np.random.default_rng(0)
    for seed in range(3):
        land = nk_new(15, 6, seed=seed)
        genomes = rng.integers(0, 2, size=(50, 15))
        fits = fitness_batch(land, genomes)
        assert fits.min() >= 0.0 and fits.max() <= 1.0


def test_fitness_length_mismatch():
    land = nk_new(5, 2, seed=1)
    with pytest.raises(ParameterError):
        fitness_batch(land, [[0, 1, 0]])


def test_single_table_entry_localized_effect():
    # changing one entry of gene i's table moves fitness exactly for the
    # genomes whose lookup index selects that entry
    land = nk_new(6, 2, seed=13)
    gene, entry = 2, 5
    bumped = NkLandscape(
        land.n, land.k, land.seed, land.neighbors.copy(), land.tables.copy(),
        land.neighbor_mode,
    )
    bumped.tables[gene, entry] = (land.tables[gene, entry] + 0.37) % 1.0
    for genome in all_genomes(6):
        bits = str(genome[gene]) + "".join(str(genome[j]) for j in land.neighbors[gene])
        selects = int(bits, 2) == entry
        changed = fitness_batch(land, [genome])[0] != fitness_batch(bumped, [genome])[0]
        assert changed == selects


def test_uint16_lookup_indices_give_the_int64_targets_at_max_k():
    land = nk_new(20, MAX_K, seed=5)
    genomes = np.random.default_rng(6).integers(0, 2, size=(64, 20), dtype=np.uint8)
    genomes[0] = 1  # every bit set: index 2**16 - 1
    idx = landscape._lookup_indices(genomes, land.neighbors)
    wide = genomes.T.astype(np.int64)
    for j in range(MAX_K):
        wide = (wide << 1) | genomes.T[land.neighbors[:, j]]
    assert idx.dtype == np.uint16 and idx.max() == 2**16 - 1
    assert np.array_equal(idx, wide)
    expected = landscape._mean_lookups(land.tables, [wide], land.n)[0]
    assert fitness_batch(land, genomes).tobytes() == expected.tobytes()


def test_dataset_shape_and_encoding():
    land = nk_new(20, 5, seed=77)
    ds = gen_dataset(land, 1000, seed=3)
    assert ds.inputs.shape == (1000, 20)
    assert ds.targets.shape == (1000,)
    assert np.isin(ds.inputs, (-1.0, 1.0)).all()
    assert ds.targets.min() >= 0.0 and ds.targets.max() <= 1.0


def test_dataset_targets_match_decoded_bits():
    land = nk_new(8, 3, seed=21)
    ds = gen_dataset(land, 40, seed=9)
    for row, target in zip(ds.inputs, ds.targets):
        bits = [(int(v) + 1) // 2 for v in row]
        assert target == oracle_fitness(land.tables, land.neighbors, bits)


def test_dataset_deterministic_and_serialized_identically(tmp_path):
    land = nk_new(9, 2, seed=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(gen_dataset(land, 25, seed=6), a)
    save_dataset(gen_dataset(land, 25, seed=6), b)
    assert a.read_bytes() == b.read_bytes()


def test_dataset_count_validation():
    land = nk_new(5, 2, seed=1)
    with pytest.raises(ParameterError):
        gen_dataset(land, 0, seed=1)


def test_landscape_roundtrip(tmp_path):
    land = nk_new(7, 3, seed=123)
    path = tmp_path / "land.json"
    save_landscape(land, path)
    assert load_landscape(path) == land


def test_dataset_roundtrip_with_meta(tmp_path):
    land = nk_new(6, 2, seed=55)
    ds = gen_dataset(land, 12, seed=66)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    assert (tmp_path / "data.meta.json").exists()
    loaded = load_dataset(path)
    assert np.array_equal(loaded.inputs, ds.inputs)
    assert np.array_equal(loaded.targets, ds.targets)
    assert loaded.meta["dataset_seed"] == 66
    assert loaded.meta["landscape_seed"] == 55


# --- streamed datasets -------------------------------------------------------------

@pytest.mark.parametrize("mode", ["random", "adjacent"])
@pytest.mark.parametrize("n, k", [(2, 1), (8, 2), (20, 5), (33, 7), (16, MAX_K)])
def test_nk_datasets_matches_nk_new_and_gen_dataset(n, k, mode):
    requests = [(40, 5), (1, 6), (17, 7)]
    land = nk_new(n, k, seed=321, neighbor_mode=mode)
    streamed = nk_datasets(n, k, 321, requests, mode)
    assert len(streamed) == len(requests)
    for got, (count, seed) in zip(streamed, requests):
        want = gen_dataset(land, count, seed)
        assert got.inputs.dtype == want.inputs.dtype and got.inputs.shape == want.inputs.shape
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.targets.dtype == want.targets.dtype and got.targets.shape == want.targets.shape
        assert got.targets.tobytes() == want.targets.tobytes()
        assert json.dumps(got.meta) == json.dumps(want.meta)


def test_nk_datasets_validation():
    with pytest.raises(ParameterError):
        nk_datasets(5, 5, 1, [(3, 1)])
    with pytest.raises(ParameterError):
        nk_datasets(1, 1, 1, [(3, 1)])
    with pytest.raises(ParameterError):
        nk_datasets(5, 2, 1, [(3, 1)], "ring")
    with pytest.raises(ParameterError):
        nk_datasets(5, 2, 1, [(3, 1), (0, 2)])


def test_nk_datasets_memory_stays_below_the_tables():
    tracemalloc.start()
    try:
        nk_datasets(1000, 15, 9, [(1000, 10), (1000, 11)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the (1000, 2**16) tables alone are 500 MiB


# --- dataset file validation -----------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ("a,b,y\n1,-1,0.5\n", "header"),
    ("x1,x2\n1,0.5\n", "header"),
    ("x1,x2,y\n1,-1\n", "expected 3 cells"),
    ("x1,x2,y\n1,-1,0.5,0.1\n", "expected 3 cells"),
    ("x1,x2,y\n1,abc,0.5\n", "numeric"),
    ("x1,x2,y\n1,7,0.5\n", "-1 or 1"),
    ("x1,x2,y\n1,nan,0.5\n", "-1 or 1"),
    ("x1,x2,y\n1,-1,inf\n", "finite"),
    ("x1,x2,y\n", "no examples"),
])
def test_load_dataset_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParameterError, match=message):
        load_dataset(path)


def test_load_dataset_rejects_malformed_meta(tmp_path):
    ds = gen_dataset(nk_new(4, 2, seed=3), 5, seed=4)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    (tmp_path / "data.meta.json").write_text("{", encoding="utf-8")
    with pytest.raises(ParameterError):
        load_dataset(path)
    (tmp_path / "data.meta.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ParameterError, match="data.meta.json: dataset metadata must be a JSON object"):
        load_dataset(path)
