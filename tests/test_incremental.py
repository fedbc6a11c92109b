import numpy as np
import pytest

from nkae import Dataset, EvalCache, ParameterError, TrainConfig, incremental, init_network
from nkae import networks as nets
from nkae.incremental import scratch_divergence, scratch_objectives

from oracles import oracle_objective, pick_coordinate, same_network


def make_dataset(n, count, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, n))
    return Dataset(bits * 2.0 - 1.0, rng.random(count))


def make_cache(arch, n=8, h=3, count=30, seed=2, **cfg_kwargs):
    config = TrainConfig(seed=0, h=h, **cfg_kwargs)
    net = init_network(arch, n, config, np.random.default_rng(seed))
    ds = make_dataset(n, count, seed + 100)
    return net, ds, EvalCache(net, ds)


def divergence(cache, ds):
    return scratch_divergence((cache.task_mse, cache.ae), scratch_objectives(cache.net, ds))


@pytest.mark.parametrize("arch", ["nn", "nan", "ann"])
def test_initial_cache_matches_scratch(arch):
    _, ds, cache = make_cache(arch)
    assert divergence(cache, ds) < 1e-14


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
            assert divergence(cache, ds) < 1e-12
    assert divergence(cache, ds) < 1e-12


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# the carry-row reductions of the blocked kernels, as (rows, out) -> out
CARRY_ROW_SUMS = {
    "sum": lambda rows, out: rows.sum(axis=0, out=out),
    "einsum": lambda rows, out: nets.einsum("ij->j", rows, out=out),
}


@pytest.mark.parametrize("m", [1, 63, 64, 65, 1000])
def test_carry_row_reduction_is_one_axis_0_sum(m):
    """The blocked kernels rely on ``sum(axis=0)`` and, on rows of 2 to
    EINSUM_SUM_MAX_N components, ``einsum("ij->j")`` over ``buf[:b + 1]``,
    with row 0 carrying the running sums, adding rows in the order of one
    ``sum(axis=0)``; a numpy that reorders either reduction fails here."""
    rng = np.random.default_rng(m)
    widths = (2, 3, 20, 37, 150, incremental.EINSUM_SUM_MAX_N,
              incremental.EINSUM_SUM_MAX_N + 1, 1000)
    for n in widths:
        squares = (rng.uniform(-1.0, 1.0, size=(m, n)) * 10.0 ** rng.integers(-8, 9, size=(m, n))) ** 2
        expected = squares.sum(axis=0)
        for name, reduce in CARRY_ROW_SUMS.items():
            for rows in sorted({1, 2, 3, 7, 64, 65, m}):
                buf, sums = np.empty((rows + 1, n)), np.zeros(n)
                for s in range(0, m, rows):
                    e = min(s + rows, m)
                    buf[1:e - s + 1] = squares[s:e]
                    buf[0] = sums
                    reduce(buf[:e - s + 1], sums)
                assert np.array_equal(bits(sums), bits(expected)), (n, name, rows)


def test_einsum_outer_product_and_square_keep_the_bits_of_multiply():
    """The kernels' ``einsum("i,j->ij")`` rounds every product as
    ``multiply.outer`` does. It adds each product onto +0.0, so a zero
    product comes out +0.0 where ``multiply.outer`` may give -0.0; the
    kernels square or exponentiate every pre-activation before a sum, which
    removes that sign. Their ``square(x)`` is ``x * x`` bit for bit. A numpy
    that changes any of this fails here."""
    rng = np.random.default_rng(17)
    shapes = [(65, 1000), (1000, 20), (327, 200), (1, 1), (1, 9), (9, 1)]
    shapes += [tuple(rng.integers(1, 80, size=2)) for _ in range(300)]
    with np.errstate(over="ignore", under="ignore"):
        for m, n in shapes:
            factors = []
            for size in (m, n):
                v = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-300, 301, size)
                v[rng.random(size) < 0.1] = 0.0
                v[rng.random(size) < 0.1] = -0.0
                factors.append(v)
            a, d = factors
            # the ann kernels pass a decoder column: a strided view
            for right in (d, np.repeat(d, 3).reshape(n, 3)[:, 1]):
                out = np.empty((m, n))
                nets.einsum("i,j->ij", a, right, out=out)
                expected = np.multiply.outer(a, right)
                assert np.array_equal(bits(out), bits(expected + 0.0)), (m, n)
                assert np.array_equal(bits(nets.einsum("i,j->ij", a, right)), bits(out))
                assert np.array_equal(bits(np.square(expected)), bits(expected * expected))


def assert_same_cache(a, b):
    assert a.task_mse == b.task_mse
    assert a.ae == b.ae
    assert np.array_equal(a.comp_sums, b.comp_sums)
    if a.net.arch == "ann":
        assert np.array_equal(a.dec_pre, b.dec_pre)


@pytest.mark.parametrize("elems", [16, 24], ids=["2-rows", "3-rows"])
@pytest.mark.parametrize("decoder_bias, arch, decoder_activation", WALKS)
def test_block_size_does_not_change_results(monkeypatch, elems, arch, decoder_bias,
                                            decoder_activation):
    # n=8 and 31 examples: blocks of 2 or 3 rows with a ragged last block
    net, ds, whole = make_cache(arch, count=31, decoder_bias=decoder_bias,
                                decoder_activation=decoder_activation)
    monkeypatch.setattr(incremental, "BLOCK_ELEMS", elems)
    blocked = EvalCache(net.copy(), ds)
    if arch != "nn":
        assert blocked._rows == elems // 8 and whole._rows == 31
    assert_same_cache(blocked, whole)
    rng = np.random.default_rng(13)
    for _ in range(400):
        coord = pick_coordinate(net, "task" if rng.random() < 0.3 else "autoencode", rng)
        delta = float(rng.uniform(-1.0, 1.0))
        assert blocked.propose(coord, delta) == whole.propose(coord, delta)
        if rng.random() < 0.5:
            blocked.accept()
            whole.accept()
        else:
            blocked.reject()
            whole.reject()
        assert_same_cache(blocked, whole)
    assert same_network(blocked.net, whole.net)


def full_neuron_sums(net, j, act, X):
    """Neuron j's per-component error sums through one (m, n) array, clamped."""
    pre = np.multiply.outer(act, net.decoder[j])
    if net.decoder_bias is not None:
        pre += net.decoder_bias[j]
    rec = nets.sigmoid_vec(pre, out=pre)
    rec -= X
    np.multiply(rec, rec, out=rec)
    return rec.sum(axis=0)


@pytest.mark.parametrize("decoder_bias", [False, True])
def test_nan_clamps_decoder_weights_above_clamp(monkeypatch, decoder_bias):
    monkeypatch.setattr(incremental, "BLOCK_ELEMS", 24)
    config = TrainConfig(seed=0, h=3, decoder_bias=decoder_bias)
    net = init_network("nan", 8, config, np.random.default_rng(4))
    # exp(1e6 * act) overflows unless the pre-activations are clamped
    net.decoder[1, ::2] = -1e6
    ds = make_dataset(8, 31, 104)
    X = ds.inputs
    with np.errstate(over="raise"):
        cache = EvalCache(net, ds)
        assert np.array_equal(cache.comp_sums[1], full_neuron_sums(net, 1, cache.h_act[:, 1], X))
        rng = np.random.default_rng(6)
        for step in range(20):
            coord = nets.Coord("encoder", 1, step % 8) if step % 3 else nets.Coord("hidden_bias", 1, 0)
            delta = float(rng.uniform(-1.0, 1.0))
            candidate = cache.propose(coord, delta)
            if step % 2:
                cache.accept()
                sums = full_neuron_sums(net, 1, cache.h_act[:, 1], X)
                assert np.array_equal(cache.comp_sums[1], sums)
                assert candidate == float(sums.sum()) / (31 * 8)
            else:
                cache.reject()
                probe = net.copy()
                probe.params[probe.index(coord)] += delta
                assert abs(candidate - nets.neuron_ae_mse(probe, 1, ds)) < 1e-12


class ClampAlways(EvalCache):
    """An EvalCache whose sigmoid decoders clamp every pre-activation."""

    def _needs_clamp(self, g):
        return True


def clamped_layer_sums(dec_pre, X):
    """ann's per-component error sums for the pre-activations `dec_pre`, clamped."""
    rec = nets.sigmoid_vec(dec_pre)
    rec -= X
    np.multiply(rec, rec, out=rec)
    return rec.sum(axis=0)


@pytest.mark.parametrize("decoder_bias", [False, True])
def test_ann_clamps_decoder_pre_activations_above_clamp(monkeypatch, decoder_bias):
    monkeypatch.setattr(incremental, "BLOCK_ELEMS", 24)
    config = TrainConfig(seed=0, h=3, decoder_bias=decoder_bias)
    net = init_network("ann", 8, config, np.random.default_rng(4))
    # decoder node 1 reads every hidden node with weight -1e6: exp(-pre)
    # overflows unless its pre-activations are clamped
    net.decoder[1] = -1e6
    ds = make_dataset(8, 31, 104)
    X = ds.inputs
    with np.errstate(over="raise"):
        cache = EvalCache(net, ds)
        always = ClampAlways(net.copy(), ds)
        assert_same_cache(cache, always)
        assert np.array_equal(cache.comp_sums[0], clamped_layer_sums(cache.dec_pre, X))
        rng = np.random.default_rng(6)
        for step in range(24):
            r = step % 3
            coord = nets.Coord("encoder", r, step % 8) if step % 4 else nets.Coord("hidden_bias", r, 0)
            delta = float(rng.uniform(-1.0, 1.0))
            candidate = cache.propose(coord, delta)
            assert candidate == always.propose(coord, delta)
            if step % 2:
                cache.accept()
                always.accept()
                sums = clamped_layer_sums(cache.dec_pre, X)
                assert np.array_equal(cache.comp_sums[0], sums)
                assert candidate == float(sums.sum()) / (31 * 8)
            else:
                cache.reject()
                always.reject()
                probe = net.copy()
                probe.params[probe.index(coord)] += delta
                assert abs(candidate - nets.layer_ae_mse(probe, ds)) < 1e-12
            assert_same_cache(cache, always)


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
