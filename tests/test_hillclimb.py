import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nkae import Dataset, EvalCache, InternalError, ParameterError, TrainConfig, init_network
from nkae import ExperimentConfig, gen_dataset, nk_new, run_experiment
from nkae import experiments
from nkae import networks as nets
from nkae.hillclimb import (
    CYCLE_HEADER,
    RAW_BLOCK,
    SNAPSHOT_HEADER,
    RawDraws,
    read_cycle_log,
    read_snapshot_log,
    train,
    write_cycle_log,
    write_snapshot_log,
)

from oracles import (
    choose_cycle,
    monotonicity_violations,
    pick_coordinate,
    propose_and_test,
    reference_climb,
    replay_final_network,
    same_network,
)


class StubRng:
    """Minimal rng double: fixed delta, scripted tie-break draws."""

    def __init__(self, uniform_value, random_values=()):
        self._uniform = uniform_value
        self._random = list(random_values)

    def uniform(self, lo, hi):
        return self._uniform

    def random(self):
        return self._random.pop(0)


def make_dataset(n, count, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, n))
    return Dataset(bits * 2.0 - 1.0, rng.random(count))


def make_cell(n=10, k=3, count=60, seed=5):
    land = nk_new(n, k, seed)
    return gen_dataset(land, count, seed + 1), gen_dataset(land, count, seed + 2)


# --- config -------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"iterations": 0},
        {"r": 0.0},
        {"r": -1.0},
        {"h": 0},
        {"p_autoencode": -0.1},
        {"p_autoencode": 1.5},
        {"eval_interval": 0},
        {"decoder_activation": "relu"},
        {"r": float("inf")},
        {"r": 1e308},  # uniform(-r, r) overflows: 2 * r is not finite
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ParameterError):
        TrainConfig(seed=0, **kwargs)


def test_config_default_values():
    config = TrainConfig(seed=0)
    assert (config.iterations, config.r, config.h) == (10000, 1.0, 10)
    assert config.p_autoencode == 0.5
    assert config.eval_interval == 100


# --- cycle choice -----------------------------------------------------------------

def test_choose_cycle_degenerate_probabilities():
    rng = np.random.default_rng(0)
    always_task = TrainConfig(seed=0, p_autoencode=0.0)
    always_ae = TrainConfig(seed=0, p_autoencode=1.0)
    assert all(choose_cycle(rng, always_task) == "task" for _ in range(200))
    assert all(choose_cycle(rng, always_ae) == "autoencode" for _ in range(200))


def test_choose_cycle_balanced_fraction():
    rng = np.random.default_rng(0)
    config = TrainConfig(seed=0, p_autoencode=0.5)
    hits = sum(choose_cycle(rng, config) == "autoencode" for _ in range(10000))
    assert 0.45 <= hits / 10000 <= 0.55


# --- coordinate picking ---------------------------------------------------------------

def test_task_pool_is_output_node():
    net = init_network("nn", 20, TrainConfig(seed=0, h=10), np.random.default_rng(1))
    rng = np.random.default_rng(2)
    seen = {pick_coordinate(net, "task", rng) for _ in range(2000)}
    assert len(seen) == 11
    assert all(c.layer in ("output_w", "output_bias") for c in seen)


def test_nan_autoencode_pool_size():
    net = init_network("nan", 20, TrainConfig(seed=0, h=10), np.random.default_rng(1))
    assert net.task_start == 410
    covered = {net.coord(u) for u in range(410)}
    assert len(covered) == 410
    layers = Counter(c.layer for c in covered)
    assert layers == {"encoder": 200, "hidden_bias": 10, "decoder": 200}


def test_ann_autoencode_pool_size_with_bias():
    net = init_network(
        "ann", 6, TrainConfig(seed=0, h=4, decoder_bias=True), np.random.default_rng(1)
    )
    assert net.task_start == 6 * 4 + 4 + 4 * 6 + 6


def test_pick_coordinate_empirical_uniformity():
    # frozen seed: every count within 3 sigma of the multinomial expectation
    config = TrainConfig(seed=0, h=10)
    nn = init_network("nn", 20, config, np.random.default_rng(1))
    nan = init_network("nan", 20, config, np.random.default_rng(1))
    for net, kind, pool in ((nn, "task", 11), (nan, "autoencode", 410)):
        rng = np.random.default_rng(2)
        draws = 100_000
        counts = Counter(pick_coordinate(net, kind, rng) for _ in range(draws))
        assert len(counts) == pool
        p = 1.0 / pool
        sigma = (draws * p * (1 - p)) ** 0.5
        assert max(abs(c - draws * p) for c in counts.values()) <= 3 * sigma


# --- raw-word draws ---------------------------------------------------------------------

# 1 reads nothing, 2**31 + 5 rejects about half its draws, 2**32 is a plain uint32
BOUNDS = (1, 2, 11, 410, 2**31 + 5, 2**32 - 1, 2**32)
SPANS = ((-1.0, 1.0), (-200.0, 200.0), (-0.37, 0.37), (2.5, 7.0))


def draw_script(seed, calls):
    """A seeded interleaving of the three draws: (method name, args) per call."""
    plan = np.random.default_rng(1000 + seed)
    steps = []
    for _ in range(calls):
        kind = int(plan.integers(3))
        if kind == 0:
            steps.append(("random", ()))
        elif kind == 1:
            steps.append(("integers", (BOUNDS[int(plan.integers(len(BOUNDS)))],)))
        else:
            steps.append(("uniform", SPANS[int(plan.integers(len(SPANS)))]))
    return steps


def play(source, steps):
    return [getattr(source, name)(*args) for name, args in steps]


def words_used(seed, draws):
    """Raw words that `draws(rng)` takes from a fresh generator of `seed`,
    counted by stepping a twin one word at a time until the states agree."""
    rng = np.random.default_rng(seed)
    draws(rng)
    target = rng.bit_generator.state["state"]
    twin = np.random.default_rng(seed).bit_generator
    used = 0
    while twin.state["state"] != target:
        twin.random_raw()
        used += 1
    return used


@pytest.mark.parametrize("seed", range(6))
def test_raw_draws_replay_generator_calls(seed):
    steps = draw_script(seed, 3000)
    expected = play(np.random.default_rng(seed), steps)
    got = play(RawDraws(np.random.default_rng(seed)), steps)
    assert got == expected
    assert all(type(value) is (int if name == "integers" else float)
               for value, (name, _) in zip(got, steps))
    # the draws cross several blocks of raw words
    assert words_used(seed, lambda rng: play(rng, steps)) > 2 * RAW_BLOCK


@pytest.mark.parametrize("n", BOUNDS)
def test_raw_integers_at_each_bound(n):
    steps = [("integers", (n,))] * 400 + [("random", ())]
    for seed in range(5):
        assert play(RawDraws(np.random.default_rng(seed)), steps) == play(
            np.random.default_rng(seed), steps)
    used = words_used(0, lambda rng: play(rng, steps[:-1]))
    if n == 1:
        assert used == 0
    elif n == 2**31 + 5:
        assert used > 200 + 50  # 400 draws without rejection take 200 words
    else:
        assert used == 200


def test_raw_draws_take_over_a_kept_half():
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    rng.integers(7)
    twin.integers(7)
    assert rng.bit_generator.state["has_uint32"] == 1
    steps = [("integers", (410,))] + draw_script(3, 200)
    assert play(RawDraws(rng), steps) == play(twin, steps)


def test_raw_draws_reject_what_they_do_not_replay():
    reader = RawDraws(np.random.default_rng(0))
    for n in (0, -3, 2**32 + 1):
        with pytest.raises(ParameterError, match=r"replayed for 1 <= n <= 2\*\*32"):
            reader.integers(n)
    with pytest.raises(ParameterError, match="PCG64 only"):
        RawDraws(np.random.Generator(np.random.SFC64(0)))


# --- propose_and_test -------------------------------------------------------------------

def monotone_setup():
    """One example, target 1, output weight 0: error is monotone in output_bias."""
    net = init_network("nn", 1, TrainConfig(seed=0, h=1), np.random.default_rng(3))
    net.output_w[0] = 0.0
    ds = Dataset(np.array([[1.0]]), np.array([1.0]))
    return net, EvalCache(net, ds)


def test_improving_mutation_accepted():
    seed = 4  # first uniform(-1, 1) draw is positive
    probe = np.random.default_rng(seed)
    delta = float(probe.uniform(-1.0, 1.0))
    assert delta > 0
    net, cache = monotone_setup()
    coord = nets.Coord("output_bias", 0, 0)
    accepted, rec = propose_and_test(
        cache, coord, np.random.default_rng(seed), TrainConfig(seed=0, h=1)
    )
    assert accepted and rec.accepted
    assert rec.delta == delta
    assert rec.objective_after < rec.objective_before
    assert net.output_bias == pytest.approx(rec.delta, abs=2.0)


def test_worsening_mutation_reverted_exactly():
    seed = 2  # first uniform(-1, 1) draw is negative
    probe = np.random.default_rng(seed)
    assert float(probe.uniform(-1.0, 1.0)) < 0
    net, cache = monotone_setup()
    before = net.copy()
    coord = nets.Coord("output_bias", 0, 0)
    accepted, rec = propose_and_test(
        cache, coord, np.random.default_rng(seed), TrainConfig(seed=0, h=1)
    )
    assert not accepted and not rec.accepted
    assert rec.objective_after > rec.objective_before
    assert same_network(net, before)


@pytest.mark.parametrize("tie_draw,expect", [(0.3, True), (0.7, False)])
def test_zero_delta_tie_broken_at_random(tie_draw, expect):
    net, cache = monotone_setup()
    before = net.copy()
    coord = nets.Coord("output_bias", 0, 0)
    accepted, rec = propose_and_test(
        cache, coord, StubRng(0.0, [tie_draw]), TrainConfig(seed=0, h=1)
    )
    assert accepted is expect
    assert rec.delta == 0.0
    assert rec.objective_after == rec.objective_before
    assert same_network(net, before)  # delta 0 leaves values unchanged either way


def test_kind_recorded_from_coordinate():
    _, cache = monotone_setup()
    _, rec = propose_and_test(
        cache, nets.Coord("encoder", 0, 0), np.random.default_rng(1), TrainConfig(seed=0, h=1)
    )
    assert rec.kind == "autoencode"
    _, rec = propose_and_test(
        cache, nets.Coord("output_w", 0, 0), np.random.default_rng(1), TrainConfig(seed=0, h=1)
    )
    assert rec.kind == "task"


# --- train ------------------------------------------------------------------------------

def test_single_iteration_run():
    train_set, _ = make_cell()
    config = TrainConfig(seed=1, iterations=1, h=3)
    _, log = train("nn", train_set, None, config)
    assert len(log.records) == 1
    assert log.records[0].iteration == 1


def test_snapshot_cadence_exact():
    train_set, test_set = make_cell()
    config = TrainConfig(seed=2, iterations=430, h=3, eval_interval=100)
    _, log = train("nan", train_set, test_set, config)
    assert [s.iteration for s in log.snapshots] == [100, 200, 300, 400]
    assert all(s.test_task_mse is not None for s in log.snapshots)


def test_snapshot_fields_for_plain_network_and_missing_test_set():
    train_set, _ = make_cell()
    config = TrainConfig(seed=3, iterations=100, h=3, eval_interval=50)
    _, log = train("nn", train_set, None, config)
    assert all(s.train_ae_mse is None for s in log.snapshots)
    assert all(s.test_task_mse is None for s in log.snapshots)


def test_train_deterministic_in_seed():
    train_set, test_set = make_cell()
    config = TrainConfig(seed=9, iterations=300, h=3)
    net_a, log_a = train("ann", train_set, test_set, config)
    net_b, log_b = train("ann", train_set, test_set, config)
    assert same_network(net_a, net_b)
    assert log_a.records == log_b.records
    assert log_a.snapshots == log_b.snapshots


def test_train_rejects_mismatched_sets():
    train_set, _ = make_cell(n=10)
    other, _ = make_cell(n=8)
    with pytest.raises(ParameterError):
        train("nn", train_set, other, TrainConfig(seed=0, h=2))


CLIMBS = {
    "default": {},
    "decoder-bias": {"decoder_bias": True},
    "tanh": {"decoder_activation": "tanh"},
    "linear": {"decoder_activation": "linear"},
    "task-only": {"p_autoencode": 0.0},
    "autoencode-only": {"p_autoencode": 1.0},
    "r200": {"r": 200.0},
}


@pytest.mark.parametrize("climb", CLIMBS)
@pytest.mark.parametrize("arch", ["nan", "ann", "nn"])
def test_train_log_equals_the_reference_climb(arch, climb):
    train_set, test_set = make_cell()
    config = TrainConfig(seed=41, iterations=400, h=3, eval_interval=100, **CLIMBS[climb])
    net, log = train(arch, train_set, test_set, config)
    reference_net, records = reference_climb(arch, train_set, config)
    assert log.records == records
    assert same_network(net, reference_net)
    if climb == "r200":
        # saturated sigmoids make exact ties, which take the extra draw
        assert sum(rec.objective_after == rec.objective_before for rec in records) > 0


@pytest.mark.parametrize("arch", ["nn", "nan", "ann"])
def test_short_run_objective_streams_monotone(arch):
    train_set, test_set = make_cell()
    config = TrainConfig(seed=21, iterations=600, h=3)
    _, log = train(arch, train_set, test_set, config)
    assert monotonicity_violations(arch, log.records) == []


@pytest.mark.parametrize("arch", ["nn", "nan", "ann"])
def test_final_network_replays_from_accepted_deltas(arch):
    train_set, _ = make_cell()
    config = TrainConfig(seed=22, iterations=400, h=3)
    net, log = train(arch, train_set, None, config)
    replayed = replay_final_network(arch, train_set.n, config, log.records)
    assert same_network(replayed, net)


def test_final_snapshot_matches_final_network():
    train_set, test_set = make_cell()
    config = TrainConfig(seed=23, iterations=200, h=3, eval_interval=100)
    net, log = train("nan", train_set, test_set, config)
    last = log.snapshots[-1]
    assert last.iteration == 200
    assert last.train_task_mse == nets.task_mse(net, train_set)
    assert last.train_ae_mse == nets.ae_mse(net, train_set)
    assert log.final_train_task_mse == last.train_task_mse


@pytest.mark.parametrize("iterations", [60, 50])
def test_final_metrics_evaluated_once(monkeypatch, iterations):
    train_set, test_set = make_cell()
    calls = Counter()
    evaluators = {name: getattr(nets, name)
                  for name in ("task_mse", "neuron_ae_mse", "layer_ae_mse")}
    for name, evaluate in evaluators.items():
        def counted(network, *args, _name=name, _evaluate=evaluate):
            calls[_name, args[-1] is train_set] += 1
            return _evaluate(network, *args)

        monkeypatch.setattr(nets, name, counted)
    config = TrainConfig(seed=24, iterations=iterations, h=3, eval_interval=20)
    # snapshots read the train-set values from the cache, whatever their
    # count: the final network alone is scored from scratch on it, once per judge
    judges = {"nan": {("neuron_ae_mse", True): 3}, "ann": {("layer_ae_mse", True): 1}, "nn": {}}
    for arch, judge_calls in judges.items():
        calls.clear()
        net, log = train(arch, train_set, test_set, config)
        test_calls = len(log.snapshots) + (iterations % 20 != 0)
        assert calls == {("task_mse", True): 1, ("task_mse", False): test_calls, **judge_calls}
        assert log.final_train_task_mse == evaluators["task_mse"](net, train_set)
        assert log.final_test_task_mse == evaluators["task_mse"](net, test_set)
        if arch == "nan":
            expected_ae = 0.0
            for j in range(3):
                expected_ae += evaluators["neuron_ae_mse"](net, j, train_set)
            expected_ae /= 3
        else:
            expected_ae = evaluators["layer_ae_mse"](net, train_set) if arch == "ann" else None
        assert log.final_ae_mse == expected_ae
        assert 0.0 <= log.audit_divergence <= 1e-12


@pytest.mark.parametrize("decoder_bias", [False, True])
@pytest.mark.parametrize("arch", ["nan", "ann", "nn"])
def test_snapshots_within_1e12_of_scratch_and_last_row_is_the_result(tmp_path, arch,
                                                                      decoder_bias):
    config = ExperimentConfig(
        master_seed=27, out_dir=tmp_path, n_grid=(10,), k_grid=(3,), archs=(arch,), runs=1,
        train_config=TrainConfig(iterations=300, h=3, eval_interval=30,
                                 decoder_bias=decoder_bias),
        train_count=60, test_count=40,
    )
    run_experiment(config)
    [spec] = experiments.build_trial_specs(config)
    train_set, test_set = experiments.cell_datasets(spec.data)
    paths = experiments.run_paths(spec.cell_dir, arch, 0)
    records = read_cycle_log(paths["cycles"])
    snapshots = read_snapshot_log(paths["snapshots"])
    assert [s.iteration for s in snapshots] == list(range(30, 301, 30))
    train_config = replace(spec.train_config, seed=spec.trial_seed)
    for snap in snapshots:
        net = replay_final_network(arch, 10, train_config, records[:snap.iteration])
        scratch = (nets.task_mse(net, train_set), nets.ae_mse(net, train_set),
                   nets.task_mse(net, test_set))
        values = (snap.train_task_mse, snap.train_ae_mse, snap.test_task_mse)
        if arch == "nn":
            assert values[1] is None and scratch[1] is None
            values, scratch = values[::2], scratch[::2]
        assert max(abs(a - b) for a, b in zip(values, scratch)) <= 1e-12, snap.iteration
    [row] = experiments.load_results_csv(tmp_path / "results.csv")
    last = snapshots[-1]
    assert (last.train_task_mse, last.train_ae_mse, last.test_task_mse) == (
        row.final_train_mse, row.final_ae_mse, row.final_test_mse)


def corrupt_first_judge(monkeypatch):
    """Every new EvalCache starts with ae[0] 1e-9 off its true value."""
    refresh = EvalCache.refresh

    def corrupted(cache):
        refresh(cache)
        cache.ae[0] += 1e-9

    monkeypatch.setattr(EvalCache, "refresh", corrupted)


def test_corrupted_cache_fails_the_audit(monkeypatch):
    train_set, test_set = make_cell()
    corrupt_first_judge(monkeypatch)
    # task cycles only, so no accepted autoencode proposal rewrites ae[0]
    config = TrainConfig(seed=25, iterations=40, h=3, p_autoencode=0.0)
    with pytest.raises(InternalError, match="from the from-scratch objectives"):
        train("ann", train_set, test_set, config)


def test_ann_decoder_state_and_scratch_pass_never_coexist():
    m, n = 1000, 400
    train_set, test_set = make_dataset(n, m, 1), make_dataset(n, m, 2)
    config = TrainConfig(seed=26, iterations=40, h=3, eval_interval=10)
    tracemalloc.start()
    try:
        train("ann", train_set, test_set, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the datasets: the cache's (m, n) dec_pre or the final from-scratch
    # pass's (m, n) temporary, never both, plus (m, h) arrays and a 0.5 MiB block buffer
    assert peak < 1.5 * m * n * 8


# --- log files --------------------------------------------------------------------------

def test_cycle_log_roundtrip(tmp_path):
    train_set, _ = make_cell()
    config = TrainConfig(seed=31, iterations=120, h=3)
    _, log = train("nan", train_set, None, config)
    path = tmp_path / "cycles.csv"
    write_cycle_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CYCLE_HEADER
    assert lines[1:] == [
        f"{r.iteration},{r.kind},{r.coord},{r.delta!r},{r.objective_before!r},"
        f"{r.objective_after!r},{int(r.accepted)}" for r in log.records
    ]
    assert read_cycle_log(path) == log.records


def test_snapshot_log_roundtrip(tmp_path):
    train_set, test_set = make_cell()
    config = TrainConfig(seed=32, iterations=200, h=3, eval_interval=50)
    _, log = train("nn", train_set, test_set, config)
    path = tmp_path / "snaps.csv"
    write_snapshot_log(log.snapshots, path)
    lines = path.read_text().splitlines()
    assert lines[0] == SNAPSHOT_HEADER
    # nn has no reconstruction objective: the ae field stays empty
    assert all(line.split(",")[2] == "" for line in lines[1:])
    assert read_snapshot_log(path) == log.snapshots
