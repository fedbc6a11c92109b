import numpy as np
import pytest

from nkae import EvalCache, ParameterError, TrainConfig, incremental, init_network
from nkae import networks as nets
from nkae.incremental import scratch_divergence, scratch_objectives

from helpers import make_dataset
from oracles import oracle_objective, pick_coordinate, same_network


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
            before, _ = cache.propose(coord, 0.5)
            assert abs(before - oracle_objective(net, coord, ds)) < 1e-12
            cache.reject()


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

        _, candidate = cache.propose(coord, delta)
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


@pytest.mark.parametrize("elems", [16, 2**16], ids=["2-rows", "1-block"])
@pytest.mark.parametrize("decoder_bias, arch, decoder_activation",
                         [walk for walk in WALKS if walk.values[1] != "nn"])
def test_refresh_rows_equal_one_full_array(monkeypatch, elems, arch, decoder_bias,
                                           decoder_activation):
    monkeypatch.setattr(incremental, "BLOCK_ELEMS", elems)
    net, ds, cache = make_cache(arch, count=31, decoder_bias=decoder_bias,
                                decoder_activation=decoder_activation)
    X = ds.inputs
    act = nets.hidden_batch(net, X)
    if arch == "nan":
        pres = [np.multiply.outer(act[:, j], net.decoder[j]) for j in range(net.h)]
        biases = [None] * net.h if net.decoder_bias is None else list(net.decoder_bias)
    else:
        pres, biases = [act @ net.decoder.T], [net.decoder_bias]
    assert cache.comp_sums.shape == (len(pres), 8)
    for row, pre, bias in zip(cache.comp_sums, pres, biases, strict=True):
        if bias is not None:
            pre += bias
        rec = nets._dec_act_vec(net.decoder_activation, pre, out=pre)
        rec -= X
        np.multiply(rec, rec, out=rec)
        assert np.array_equal(bits(row), bits(rec.sum(axis=0)))


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
        assert np.array_equal(cache.comp_sums[1], full_neuron_sums(net, 1, cache.h_act[1], X))
        rng = np.random.default_rng(6)
        for step in range(20):
            coord = nets.Coord("encoder", 1, step % 8) if step % 3 else nets.Coord("hidden_bias", 1, 0)
            delta = float(rng.uniform(-1.0, 1.0))
            _, candidate = cache.propose(coord, delta)
            if step % 2:
                cache.accept()
                sums = full_neuron_sums(net, 1, cache.h_act[1], X)
                assert np.array_equal(cache.comp_sums[1], sums)
                assert candidate == float(sums.sum()) / (31 * 8)
            else:
                cache.reject()
                probe = net.copy()
                probe.params[probe.index(coord)] += delta
                assert abs(candidate - nets.neuron_ae_mse(probe, 1, ds)) < 1e-12


class ClampAlways(EvalCache):
    """An EvalCache whose sigmoid decoders clamp every pre-activation."""

    def _decoder_bound(self, g):
        return np.inf


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
            before, candidate = cache.propose(coord, delta)
            assert (before, candidate) == always.propose(coord, delta)
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


def parent_outcome(cache, coord, delta):
    """(candidate, comp_sums, task_mse) of proposing and accepting `coord +=
    delta`, by the formulas of a propose with a branch per bias: a bias moves
    its pre-activations to ``pre + delta``, a weight on input x to
    ``pre + x * delta``, and nan's decoder pre-activations are rebuilt as
    ``act * d + b`` with only the moved term changed."""
    net, m, n = cache.net, cache.m, cache.n
    layer, r, c = coord
    sums, task = cache.comp_sums.copy(), cache.task_mse
    if layer in ("output_w", "output_bias"):
        move = delta if layer == "output_bias" else cache.h_act[r] * delta
        err = nets.sigmoid_vec(cache.out_pre + move) - cache.y
        task = float(err @ err) / m
        return task, sums, task
    if layer in ("encoder", "hidden_bias"):
        move = delta if layer == "hidden_bias" else cache.X[:, c] * delta
        act = nets.sigmoid_vec(cache.h_pre[r] + move)
        shift = act - cache.h_act[r]
        err = nets.sigmoid_vec(cache.out_pre + shift * net.output_w[r]) - cache.y
        task = float(err @ err) / m
        if net.arch == "nn":
            return task, sums, task
        g = r if net.arch == "nan" else 0
        sums[g] = cache._judge_sums(r, act, shift)
        return float(sums[g].sum()) / (m * n), sums, task
    if net.arch == "nan":
        g, i = r, c
        d = net.decoder[r, i]
        b = 0.0 if net.decoder_bias is None else net.decoder_bias[r, i]
        if layer == "decoder":
            pre = cache.h_act[r] * (d + delta) + b
        else:
            pre = cache.h_act[r] * d + (b + delta)
    else:
        g, i = 0, r
        move = delta if layer == "decoder_bias" else cache.h_act[c] * delta
        pre = cache.dec_pre[:, i] + move
    err = nets._dec_act_vec(net.decoder_activation, pre, out=pre) - cache.X[:, i]
    s_new = float((err * err).sum())
    cand = (float(sums[g].sum()) - float(sums[g, i]) + s_new) / (m * n)
    sums[g, i] = s_new
    return cand, sums, task


# on the first pass, each decoder weight and bias is still -0.0 when it moves
SIGNED_MOVES = (-0.0, 0.0, 0.5, -0.25)


@pytest.mark.parametrize("decoder_activation", nets.DECODER_ACTIVATIONS)
@pytest.mark.parametrize("arch", ["nan", "ann"])
def test_signed_zero_decoder_proposals_keep_the_bits_of_branch_per_bias(arch,
                                                                       decoder_activation):
    """Every decoder weight and bias starts at -0.0 and is moved by +-0.0 and by
    nonzero deltas; a bias is proposed as a weight on the constant input 1.0,
    and the candidates, comp_sums and task MSE keep the bits of the formulas
    in `parent_outcome`."""
    net, ds, _ = make_cache(arch, decoder_bias=True, decoder_activation=decoder_activation)
    net.decoder[...] = -0.0
    net.decoder_bias[...] = -0.0
    cache = EvalCache(net, ds)
    every = [net.coord(flat) for flat in range(net.params.size)]
    rng = np.random.default_rng(23)
    coords = []
    for layer in ("decoder", "decoder_bias"):
        block = [coord for coord in every if coord.layer == layer]
        coords += [block[k] for k in rng.permutation(len(block))]
    coords += [nets.Coord("hidden_bias", 1, 0), nets.Coord("output_bias", 0, 0),
               nets.Coord("encoder", 2, 5), nets.Coord("output_w", 0, 0)]
    for step, coord in enumerate(coords * 2):
        delta = SIGNED_MOVES[step % len(SIGNED_MOVES)]
        cand, sums, task = parent_outcome(cache, coord, delta)
        _, candidate = cache.propose(coord, delta)
        assert candidate.hex() == cand.hex(), (coord, delta)
        cache.accept()
        assert np.array_equal(bits(cache.comp_sums), bits(sums)), (coord, delta)
        assert cache.task_mse.hex() == task.hex(), (coord, delta)
    assert divergence(cache, ds) < 1e-12


def unclamped_pre_activations(cache, coord, delta):
    """(out_pre, the pre-activations of hidden node r, of ann's decoder node r
    or None) after accepting `coord += delta`, updated incrementally and never
    clamped."""
    net, (layer, r, c) = cache.net, coord
    if layer in ("output_w", "output_bias"):
        return cache.out_pre + (delta if layer == "output_bias" else cache.h_act[r] * delta), None
    if layer.startswith("decoder"):
        if net.arch == "nan":
            return cache.out_pre.copy(), None
        move = delta if layer == "decoder_bias" else cache.h_act[c] * delta
        return cache.out_pre.copy(), cache.dec_pre[:, r] + move
    h_pre = cache.h_pre[r] + (delta if layer == "hidden_bias" else cache.X[:, c] * delta)
    shift = nets.sigmoid_vec(h_pre) - cache.h_act[r]
    return cache.out_pre + shift * net.output_w[r], h_pre


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("arch", ["nan", "ann", "nn"])
def test_logistics_clamp_past_clamp_and_stored_pre_activations_stay_unclamped(arch, sign):
    """Output pre-activations near +-1200, one hidden node whose encoder row
    sums to 800 in |w| (example 0's pre-activation is -740) and one decoder
    row of weights -1e6 (nan's neuron 1, ann's decoder node 1): every
    candidate and task MSE keep the bits of the always-clamping formulas of
    `parent_outcome`, no exp overflows, and the cached pre-activations are
    the unclamped ones."""
    net, ds, _ = make_cache(arch, n=20, h=10, count=31, decoder_bias=True)
    net.output_w[...] = 120.0 * sign
    net.hidden_bias[...] = 60.0
    net.encoder[1] = -40.0 * ds.inputs[0]
    coords = [nets.Coord("output_bias", 0, 0), nets.Coord("output_w", 1, 0),
              nets.Coord("encoder", 1, 3), nets.Coord("hidden_bias", 1, 0),
              nets.Coord("encoder", 4, 7), nets.Coord("output_w", 4, 0)]
    if arch != "nn":
        net.decoder[1] = -1e6
        # nan's (h, n) decoder rows are neurons, ann's (n, h) rows decoder nodes
        bias_col = 5 if arch == "nan" else 0
        coords += [nets.Coord("decoder", 1, 2), nets.Coord("decoder_bias", 1, bias_col),
                   nets.Coord("decoder", 4, 3), nets.Coord("decoder_bias", 4, bias_col)]
    with np.errstate(over="raise"):
        cache = EvalCache(net, ds)
        assert np.abs(cache.out_pre).max() > 1000.0 and cache.h_pre[1].min() < -700.0
        for step, coord in enumerate(coords * 2):
            delta = (0.5, -0.25, 3.0)[step % 3]
            cand, sums, task = parent_outcome(cache, coord, delta)
            out_pre, pre = unclamped_pre_activations(cache, coord, delta)
            _, candidate = cache.propose(coord, delta)
            assert candidate.hex() == cand.hex(), (coord, delta)
            cache.accept()
            assert np.array_equal(bits(cache.comp_sums), bits(sums)), (coord, delta)
            assert cache.task_mse.hex() == task.hex(), (coord, delta)
            assert np.array_equal(cache.out_pre, out_pre), (coord, delta)
            if pre is not None:
                decoder = coord.layer.startswith("decoder")
                stored = cache.dec_pre[:, coord.row] if decoder else cache.h_pre[coord.row]
                assert np.array_equal(stored, pre), (coord, delta)
    assert divergence(cache, ds) < 1e-12


@pytest.mark.parametrize("arch", ["nan", "ann"])
def test_judge_clamp_follows_decoder_accepts_both_ways(arch):
    """A decoder accept moves one weight of nan's neuron 1, or of ann's decoder
    node 1, past CLAMP, back, and past it again; exp(1e6 * act) overflows
    unless the next proposal of that weight and the next hidden proposal of
    node 1 clamp. The decoder proposal's candidate keeps the bits of the
    always-clamping `parent_outcome`, and the hidden proposal's sums those of
    one clamped (m, n) array."""
    net, ds, cache = make_cache(arch, count=31)
    X = ds.inputs
    g = 1 if arch == "nan" else 0
    coord = nets.Coord("decoder", 1, 2)
    rng = np.random.default_rng(8)
    with np.errstate(over="raise"):
        for delta in (-1e6, 1e6, -1e6):
            cache.propose(coord, delta)
            cache.accept()
            move = float(rng.uniform(-1, 1))
            cand, _, _ = parent_outcome(cache, coord, move)
            assert cache.propose(coord, move)[1].hex() == cand.hex(), delta
            cache.reject()
            cache.propose(nets.Coord("encoder", 1, int(rng.integers(8))), float(rng.uniform(-1, 1)))
            cache.accept()
            if arch == "nan":
                expected = full_neuron_sums(net, 1, cache.h_act[1], X)
            else:
                expected = clamped_layer_sums(cache.dec_pre, X)
            assert np.array_equal(bits(cache.comp_sums[g]), bits(expected)), delta


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
