import json
import math
import re

import numpy as np
import pytest

from nkae import (
    Dataset,
    EvalCache,
    ParameterError,
    TrainConfig,
    ae_mse,
    init_network,
    layer_ae_mse,
    load_network,
    neuron_ae_mse,
    save_network,
    task_mse,
)
from nkae.networks import Coord, Network, forward_batch, hidden_batch, sigmoid_vec

from oracles import (
    same_network,
    oracle_forward,
    oracle_layer_ae_mse,
    oracle_neuron_ae_mse,
    oracle_task_mse,
    pick_coordinate,
)

SIG1 = 0.7310585786300049  # 1 / (1 + e^-1)


def make_dataset(n, count, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(count, n))
    return Dataset(bits * 2.0 - 1.0, rng.random(count))


def make_net(arch, n=6, h=3, seed=1, **cfg_kwargs):
    config = TrainConfig(seed=0, h=h, **cfg_kwargs)
    return init_network(arch, n, config, np.random.default_rng(seed))


# --- initialization -----------------------------------------------------------

class FixedDraw:
    """rng double whose integers() returns a fixed pool index."""

    def __init__(self, u):
        self.u = u

    def integers(self, high):
        assert 0 <= self.u < high
        return self.u


def documented_pools(arch, n, h, decoder_bias):
    """Autoencode and task pools in the documented order, built from the definitions."""
    ae = [Coord("encoder", j, i) for j in range(h) for i in range(n)]
    ae += [Coord("hidden_bias", j, 0) for j in range(h)]
    if arch == "nan":
        ae += [Coord("decoder", j, i) for j in range(h) for i in range(n)]
        if decoder_bias:
            ae += [Coord("decoder_bias", j, i) for j in range(h) for i in range(n)]
    elif arch == "ann":
        ae += [Coord("decoder", i, j) for i in range(n) for j in range(h)]
        if decoder_bias:
            ae += [Coord("decoder_bias", i, 0) for i in range(n)]
    task = [Coord("output_w", j, 0) for j in range(h)] + [Coord("output_bias", 0, 0)]
    return ae, task


def documented_init_draws(arch, n, h, decoder_bias, rng):
    """Initial blocks drawn one by one in init_network's documented order."""
    draws = {
        "encoder": rng.uniform(-1.0, 1.0, size=(h, n)),
        "hidden_bias": rng.uniform(-1.0, 1.0, size=h),
        "output_w": rng.uniform(-1.0, 1.0, size=h),
        "output_bias": float(rng.uniform(-1.0, 1.0)),
    }
    if arch != "nn":
        draws["decoder"] = rng.uniform(-1.0, 1.0, size=(h, n) if arch == "nan" else (n, h))
        if decoder_bias:
            draws["decoder_bias"] = rng.uniform(-1.0, 1.0, size=(h, n) if arch == "nan" else n)
    return draws


# (arch, decoder_bias) -> (autoencode pool size, parameter count) at n=20, h=10
CLOSED_FORMS = {
    ("nn", False): (210, 221), ("nn", True): (210, 221),
    ("nan", False): (410, 421), ("nan", True): (610, 621),
    ("ann", False): (410, 421), ("ann", True): (430, 441),
}


def test_parameter_counts_match_closed_forms():
    for (arch, decoder_bias), sizes in CLOSED_FORMS.items():
        check_flat_layout(arch, decoder_bias, sizes)


def check_flat_layout(arch, decoder_bias, sizes, n=20, h=10):
    net = make_net(arch, n=n, h=h, decoder_bias=decoder_bias)
    ae, task = documented_pools(arch, n, h, decoder_bias and arch != "nn")
    assert (net.task_start, net.params.size) == sizes
    assert (len(ae), len(ae) + len(task)) == sizes

    # Coord -> flat -> Coord round-trips; pool index u is flat u (autoencode)
    # or task_start + u (task), both through pick_coordinate's draw.
    for u in range(net.params.size):
        assert net.index(net.coord(u)) == u
    for u, coord in enumerate(ae):
        assert pick_coordinate(net, "autoencode", FixedDraw(u)) == coord
        assert net.index(coord) == u
    for u, coord in enumerate(task):
        assert pick_coordinate(net, "task", FixedDraw(u)) == coord
        assert net.index(coord) == net.task_start + u

    # init equals draws in the documented order, which is not the flat order
    # (except for nn, which has no decoder)
    draws = documented_init_draws(arch, n, h, decoder_bias, np.random.default_rng(1))
    assert set(draws) == set(net.layout)
    for name, values in draws.items():
        assert np.array_equal(getattr(net, name), values)
    drawn = np.concatenate([np.ravel(values) for values in draws.values()])
    assert np.array_equal(net.params, drawn) == (arch == "nn")

    # every named view aliases params: a write through any element, the
    # scalar output bias included, lands at that coordinate's flat index
    for u in range(net.params.size):
        layer, row, col = net.coord(u)
        view = getattr(net, layer)
        assert np.shares_memory(view, net.params)
        view[(row, col)[:view.ndim]] = -10.0 - u
    assert np.array_equal(net.params, -10.0 - np.arange(net.params.size))
    net.output_bias = 0.25
    assert net.params[-1] == 0.25
    assert (net.decoder is None) == (arch == "nn")
    assert (net.decoder_bias is None) == (arch == "nn" or not decoder_bias)


def test_init_weights_within_seeding_range():
    net = make_net("nan", n=20, h=10)
    for arr in (net.encoder, net.hidden_bias, net.output_w, net.decoder):
        assert arr.min() >= -1.0 and arr.max() <= 1.0
    assert -1.0 <= net.output_bias <= 1.0


def test_init_deterministic():
    a = make_net("ann", seed=9)
    b = make_net("ann", seed=9)
    assert same_network(a, b)
    assert not same_network(a, make_net("ann", seed=10))


def test_init_rejects_unknown_arch():
    with pytest.raises(ParameterError):
        init_network("cnn", 5, TrainConfig(seed=0), np.random.default_rng(0))


def test_unknown_decoder_activation_rejected(tmp_path):
    with pytest.raises(ParameterError, match="relu"):
        Network("nan", 3, 2, decoder_activation="relu")
    path = write_snapshot(tmp_path, "ann", lambda p: p.update(decoder_activation="relu"))
    with pytest.raises(ParameterError, match=re.escape(f"{path}: decoder_activation")):
        load_network(path)


# --- activations ----------------------------------------------------------------

def sigmoid(x):
    return sigmoid_vec(np.array([x]))[0]


def forward(net, x):
    return forward_batch(net, np.array([x], dtype=np.float64))[0]


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1.0) == SIG1
    assert abs(sigmoid(-1.0) - (1.0 - SIG1)) < 1e-15


def test_sigmoid_clamps_extremes():
    assert sigmoid(600.0) == sigmoid(500.0)
    assert sigmoid(-600.0) == sigmoid(-500.0)
    assert 0.0 < sigmoid(-500.0) < sigmoid(500.0) <= 1.0


def test_hidden_activation_zero_network():
    net = make_net("nn", n=4, h=2)
    net.encoder[:] = 0.0
    net.hidden_bias[:] = 0.0
    assert hidden_batch(net, np.array([[1.0, -1.0, 1.0, -1.0]]))[0, 0] == 0.5


def test_hidden_activation_hand_case():
    net = make_net("nn", n=1, h=1)
    net.encoder[0, 0] = 2.0
    net.hidden_bias[0] = -1.0
    assert abs(hidden_batch(net, np.array([[1.0]]))[0, 0] - SIG1) < 1e-15


def test_hidden_activation_sign_flip_symmetry():
    net = make_net("nn", n=5, h=2, seed=8)
    x = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    a = hidden_batch(net, x[None])[0, 1]
    net.encoder[1] *= -1.0
    net.hidden_bias[1] *= -1.0
    assert abs(hidden_batch(net, x[None])[0, 1] - (1.0 - a)) < 1e-12


def test_forward_zero_network_is_half():
    net = make_net("nn", n=3, h=2)
    net.encoder[:] = 0.0
    net.hidden_bias[:] = 0.0
    net.output_w[:] = 0.0
    net.output_bias = 0.0
    assert forward(net, [1.0, 1.0, -1.0]) == 0.5


def test_forward_single_hidden_hand_case():
    net = make_net("nn", n=1, h=1)
    net.encoder[0, 0] = 0.5
    net.hidden_bias[0] = 0.25
    net.output_w[0] = -0.75
    net.output_bias = 0.125
    a = 1.0 / (1.0 + math.exp(-(0.25 + 0.5 * 1.0)))
    expected = 1.0 / (1.0 + math.exp(-(0.125 - 0.75 * a)))
    assert abs(forward(net, [1.0]) - expected) < 1e-14


def test_forward_stays_inside_open_interval():
    rng = np.random.default_rng(3)
    net = make_net("nn", n=8, h=4, seed=4)
    for _ in range(20):
        x = rng.integers(0, 2, 8) * 2.0 - 1.0
        assert 0.0 < forward(net, x) < 1.0


def test_forward_matches_scalar_oracle():
    net = make_net("nan", n=7, h=3, seed=12)
    x = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    assert abs(forward(net, x) - oracle_forward(net, x)) < 1e-13


def test_forward_dimension_mismatch():
    net = make_net("nn", n=4, h=2)
    narrow = make_dataset(2, 5)
    with pytest.raises(ParameterError, match="width 2"):
        task_mse(net, narrow)
    with pytest.raises(ParameterError, match="width 2"):
        EvalCache(net, narrow)


def test_no_nan_or_inf_for_huge_weights():
    net = make_net("nan", n=5, h=2)
    net.encoder[:] = 1e6
    net.decoder[:] = -1e6
    net.output_w[:] = 1e6
    ds = make_dataset(5, 10)
    assert math.isfinite(task_mse(net, ds))
    assert math.isfinite(neuron_ae_mse(net, 0, ds))
    assert math.isfinite(forward(net, ds.inputs[0]))


# --- decoders ----------------------------------------------------------------------
#
# A decoder's output is checked through the reconstruction MSE on one example
# whose input is the expected reconstruction. The encoder is zero, so the
# hidden activations depend on the hidden biases alone.

def logit(p):
    return math.log(p / (1.0 - p))


def target(values):
    """A one-example dataset whose input row is `values`."""
    return Dataset(np.array([values], dtype=np.float64), np.zeros(1))


def set_activations(net, hidden):
    net.encoder[:] = 0.0
    net.hidden_bias[:] = [logit(a) for a in hidden]


def test_decode_neuron_zero_weights():
    net = make_net("nan", n=4, h=2)
    net.decoder[:] = 0.0
    set_activations(net, [0.9, 0.9])
    assert neuron_ae_mse(net, 0, target([0.5] * 4)) == 0.0


def test_decode_neuron_zero_activation():
    net = make_net("nan", n=4, h=2, seed=6)
    net.encoder[:] = 0.0
    net.hidden_bias[1] = -1000.0      # clamped: activation ~7e-218
    assert neuron_ae_mse(net, 1, target([0.5] * 4)) == 0.0


def test_decode_neuron_hand_value():
    net = make_net("nan", n=1, h=1)
    set_activations(net, [0.5])
    net.decoder[0, 0] = 3.0
    expected = 1.0 / (1.0 + math.exp(-1.5))
    assert neuron_ae_mse(net, 0, target([expected])) <= 1e-15 ** 2


def test_decode_neuron_linear_and_bias():
    net = make_net("nan", n=2, h=1, decoder_activation="linear", decoder_bias=True)
    set_activations(net, [0.5])
    net.decoder[0] = [2.0, -2.0]
    net.decoder_bias[0] = [0.25, 0.5]
    assert neuron_ae_mse(net, 0, target([1.25, -0.5])) == 0.0


def test_decode_layer_zero_weights():
    net = make_net("ann", n=4, h=3)
    net.decoder[:] = 0.0
    set_activations(net, [0.2, 0.9, 0.5])
    assert layer_ae_mse(net, target([0.5] * 4)) == 0.0


def test_decode_layer_single_hidden_equals_decode_neuron():
    ann = make_net("ann", n=5, h=1, seed=14)
    nan = make_net("nan", n=5, h=1, seed=15)
    nan.decoder[0] = ann.decoder[:, 0]
    ds = make_dataset(5, 6, seed=2)
    for act in (0.1, 0.5, 0.93):
        set_activations(ann, [act])
        set_activations(nan, [act])
        assert layer_ae_mse(ann, ds) == neuron_ae_mse(nan, 0, ds)


def test_decode_layer_matches_dense_oracle():
    net = make_net("ann", n=6, h=4, seed=20)
    net.encoder[:] = 0.0
    net.hidden_bias[:] = np.random.default_rng(7).normal(size=4)
    hidden = [1.0 / (1.0 + math.exp(-float(b))) for b in net.hidden_bias]
    expected = []
    for i in range(6):
        pre = sum(float(net.decoder[i, j]) * hidden[j] for j in range(4))
        expected.append(1.0 / (1.0 + math.exp(-pre)))
    # one example, so n * MSE is the summed squared error: every component within 1e-12
    assert 6 * layer_ae_mse(net, target(expected)) <= 1e-12 ** 2


# --- objectives -----------------------------------------------------------------------

def test_task_mse_zero_when_outputs_equal_targets():
    net = make_net("nn", n=5, h=2, seed=30)
    ds = make_dataset(5, 8, seed=3)
    ds.targets[:] = forward_batch(net, ds.inputs)
    assert task_mse(net, ds) == 0.0


def test_task_mse_zero_network_against_half_targets():
    net = make_net("nn", n=4, h=2)
    net.encoder[:] = 0.0
    net.hidden_bias[:] = 0.0
    net.output_w[:] = 0.0
    net.output_bias = 0.0
    ds = make_dataset(4, 6)
    ds.targets[:] = 0.5
    assert task_mse(net, ds) == 0.0


def test_task_mse_three_example_hand_case():
    net = make_net("nn", n=2, h=1)
    net.encoder[0] = [0.5, -0.25]
    net.hidden_bias[0] = 0.1
    net.output_w[0] = 0.8
    net.output_bias = -0.2
    X = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.2, 0.9, 0.5])
    total = 0.0
    for x, t in zip(X, y):
        a = 1.0 / (1.0 + math.exp(-(0.1 + 0.5 * x[0] - 0.25 * x[1])))
        out = 1.0 / (1.0 + math.exp(-(-0.2 + 0.8 * a)))
        total += (out - t) ** 2
    assert abs(task_mse(net, Dataset(X, y)) - total / 3) < 1e-14


def test_task_mse_rejects_empty_dataset():
    net = make_net("nn", n=3, h=1)
    empty = Dataset(np.empty((0, 3)), np.empty(0))
    with pytest.raises(ParameterError):
        task_mse(net, empty)


def test_neuron_ae_mse_balanced_half_outputs():
    # all decoder outputs pinned to 0.5 against balanced ±1 inputs
    net = make_net("nan", n=2, h=1)
    net.decoder[:] = 0.0
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    ds = Dataset(X, np.zeros(2))
    assert neuron_ae_mse(net, 0, ds) == 1.25


def test_layer_ae_mse_balanced_half_outputs():
    net = make_net("ann", n=2, h=3)
    net.decoder[:] = 0.0
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert layer_ae_mse(net, Dataset(X, np.zeros(2))) == 1.25


def test_linear_decoder_exact_reconstruction_is_zero():
    net = make_net("nan", n=2, h=1, decoder_activation="linear")
    net.encoder[0] = [0.0, 0.0]
    net.hidden_bias[0] = 0.0          # activation is exactly 0.5
    net.decoder[0] = [2.0, -2.0]      # 0.5 * ±2 reconstructs ±1 exactly
    ds = Dataset(np.array([[1.0, -1.0]]), np.zeros(1))
    assert neuron_ae_mse(net, 0, ds) == 0.0


@pytest.mark.parametrize("decoder_bias", [False, True])
@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "linear"])
def test_neuron_ae_mse_matches_oracle(decoder_bias, activation):
    net = make_net("nan", n=5, h=3, seed=40,
                   decoder_bias=decoder_bias, decoder_activation=activation)
    ds = make_dataset(5, 12, seed=5)
    for j in range(3):
        assert abs(neuron_ae_mse(net, j, ds) - oracle_neuron_ae_mse(net, j, ds)) < 1e-12


@pytest.mark.parametrize("decoder_bias", [False, True])
def test_layer_ae_mse_matches_oracle(decoder_bias):
    net = make_net("ann", n=5, h=3, seed=41, decoder_bias=decoder_bias)
    ds = make_dataset(5, 12, seed=6)
    assert abs(layer_ae_mse(net, ds) - oracle_layer_ae_mse(net, ds)) < 1e-12


def test_task_mse_matches_oracle():
    net = make_net("nn", n=6, h=3, seed=42)
    ds = make_dataset(6, 15, seed=7)
    assert abs(task_mse(net, ds) - oracle_task_mse(net, ds)) < 1e-12


def test_neuron_ae_mse_depends_only_on_owning_neuron():
    net = make_net("nan", n=6, h=3, seed=50)
    ds = make_dataset(6, 10, seed=8)
    before = neuron_ae_mse(net, 1, ds)
    net.encoder[0, 2] += 0.7
    net.hidden_bias[2] -= 0.3
    net.decoder[0, 4] += 1.1
    net.output_w[1] += 0.9
    net.output_bias -= 0.4
    assert neuron_ae_mse(net, 1, ds) == before


def test_task_mse_ignores_decoder_weights():
    net = make_net("nan", n=6, h=3, seed=51)
    ds = make_dataset(6, 10, seed=9)
    before = task_mse(net, ds)
    net.decoder[:] += 0.5
    assert task_mse(net, ds) == before
    ann = make_net("ann", n=6, h=3, seed=52)
    before = task_mse(ann, ds)
    ann.decoder[:] -= 0.25
    assert task_mse(ann, ds) == before


def test_nan_mean_ae_mse_is_mean_over_neurons():
    net = make_net("nan", n=5, h=4, seed=53)
    ds = make_dataset(5, 9, seed=10)
    per_neuron = [neuron_ae_mse(net, j, ds) for j in range(4)]
    assert abs(ae_mse(net, ds) - sum(per_neuron) / 4) < 1e-15


def test_hidden_index_out_of_range():
    net = make_net("nan", n=4, h=2)
    ds = make_dataset(4, 5)
    with pytest.raises(ParameterError):
        neuron_ae_mse(net, 2, ds)
    with pytest.raises(ParameterError):
        neuron_ae_mse(net, -1, ds)


# --- serialization -------------------------------------------------------------------

@pytest.mark.parametrize("arch", ["nan", "ann", "nn"])
def test_network_roundtrip_is_bit_exact(tmp_path, arch):
    net = make_net(arch, n=7, h=3, seed=60, decoder_bias=(arch != "nn"))
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert same_network(net, loaded)
    if arch != "nn":
        assert loaded.decoder_activation == net.decoder_activation


def write_snapshot(tmp_path, arch, edit):
    """Save a small network with decoder biases, then edit its JSON payload."""
    path = tmp_path / "net.json"
    save_network(make_net(arch, n=4, h=2, seed=61, decoder_bias=True), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def test_load_network_rejects_unknown_arch(tmp_path):
    path = write_snapshot(tmp_path, "ann", lambda p: p.update(arch="cnn"))
    with pytest.raises(ParameterError, match="arch"):
        load_network(path)


@pytest.mark.parametrize("arch", ["nan", "ann", "nn"])
def test_load_network_rejects_missing_key(tmp_path, arch):
    keys = json.loads(write_snapshot(tmp_path, arch, lambda p: None).read_text())
    for key in keys:
        path = write_snapshot(tmp_path, arch, lambda p: p.pop(key))
        with pytest.raises(ParameterError, match=key):
            load_network(path)


@pytest.mark.parametrize("damage", [
    lambda data: data[: len(data) // 2],
    lambda data: data[:10] + b"\xff" + data[10:],
    lambda data: b"0.5",
], ids=["truncated", "not-utf8", "not-an-object"])
def test_load_network_rejects_unreadable_content(tmp_path, damage):
    path = write_snapshot(tmp_path, "nan", lambda p: None)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ParameterError, match=re.escape(f"{path}: ")):
        load_network(path)


@pytest.mark.parametrize(
    "arch,key,value",
    [
        ("nn", "hidden_bias", [0.1, 0.2, 0.3]),     # h=2
        ("nn", "output_w", [0.5]),
        ("nn", "output_bias", [0.5]),
        ("nn", "encoder", [[0.1, 0.2, 0.3, 0.4], [0.5]]),
        ("nan", "decoder", [[0.0] * 4] * 3),
        ("nan", "decoder_bias", [0.0] * 4),
        ("nan", "encoder", "weights"),
        ("ann", "layer_decoder", [[0.0] * 4] * 2),  # (n, h) is (4, 2)
        ("ann", "layer_decoder_bias", [0.0] * 2),
    ],
)
def test_load_network_rejects_misshapen_block(tmp_path, arch, key, value):
    path = write_snapshot(tmp_path, arch, lambda p: p.update({key: value}))
    with pytest.raises(ParameterError, match=key):
        load_network(path)
