import numpy as np
import pytest

from nkae import Dataset, EvalCache, ParameterError, TrainConfig, init_network
from nkae import networks as nets
from nkae.hillclimb import pick_coordinate

from oracles import oracle_objective, same_network


def make_dataset(n, count, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, n))
    return Dataset(bits * 2.0 - 1.0, rng.random(count))


def make_cache(arch, n=8, h=3, count=30, seed=2, **cfg_kwargs):
    config = TrainConfig(seed=0, h=h, **cfg_kwargs)
    net = init_network(arch, n, config, np.random.default_rng(seed))
    ds = make_dataset(n, count, seed + 100)
    return net, ds, EvalCache(net, ds)


@pytest.mark.parametrize("arch", ["nn", "nan", "ann"])
def test_initial_cache_matches_scratch(arch):
    _, ds, cache = make_cache(arch)
    assert cache.scratch_divergence(ds) < 1e-14


@pytest.mark.parametrize("arch", ["nn", "nan", "ann"])
def test_objective_for_matches_naive(arch):
    net, ds, cache = make_cache(arch)
    rng = np.random.default_rng(5)
    for kind in ("task", "autoencode"):
        for _ in range(10):
            coord = pick_coordinate(net, kind, rng)
            assert abs(cache.objective_for(coord) - oracle_objective(net, coord, ds)) < 1e-12


# nn has no decoder, so it walks once; the sigmoid walks keep their short ids
WALKS = [
    pytest.param(bias, arch, act, id=f"{bias}-{arch}" + ("" if act == "sigmoid" else f"-{act}"))
    for arch in ("nn", "nan", "ann")
    for bias in (False, True)
    for act in nets.DECODER_ACTIVATIONS
    if arch != "nn" or (not bias and act == "sigmoid")
]


@pytest.mark.parametrize("decoder_bias, arch, decoder_activation", WALKS)
def test_random_walk_stays_consistent(arch, decoder_bias, decoder_activation):
    net, ds, cache = make_cache(arch, decoder_bias=decoder_bias,
                                decoder_activation=decoder_activation)
    rng = np.random.default_rng(11)
    for step in range(800):
        kind = "task" if rng.random() < 0.4 else "autoencode"
        coord = pick_coordinate(net, kind, rng)
        delta = float(rng.uniform(-1.0, 1.0))

        candidate = cache.propose(coord, delta)
        probe = net.copy()
        probe.params[probe.index(coord)] += delta
        assert abs(candidate - oracle_objective(probe, coord, ds)) < 1e-12

        if rng.random() < 0.5:
            cache.accept()
            assert net.params[net.index(coord)] == probe.params[probe.index(coord)]
        else:
            before = net.copy()
            cache.reject()
            assert same_network(net, before)

        if step % 50 == 0:
            assert cache.scratch_divergence(ds) < 1e-12
    assert cache.scratch_divergence(ds) < 1e-12


def test_pending_protocol_enforced():
    net, _, cache = make_cache("nan")
    coord = nets.Coord("encoder", 0, 0)
    with pytest.raises(ParameterError):
        cache.accept()
    with pytest.raises(ParameterError):
        cache.reject()
    cache.propose(coord, 0.1)
    with pytest.raises(ParameterError):
        cache.propose(coord, 0.2)
    cache.reject()


def test_accepted_hidden_mutation_updates_task_mse():
    net, ds, cache = make_cache("nan")
    coord = nets.Coord("encoder", 1, 3)
    cache.propose(coord, 0.8)
    cache.accept()
    assert abs(cache.task_mse - nets.task_mse(net, ds)) < 1e-12


def test_invalid_coordinate_rejected():
    net, _, cache = make_cache("nn")
    with pytest.raises(ParameterError):
        cache.propose(nets.Coord("decoder", 0, 0), 0.1)
