"""The three network variants and their objective functions.

All three share the same supervised core: N inputs, H sigmoid hidden nodes
with biases, one sigmoid output node with bias. The variants differ in how
they reconstruct the inputs:

* nan — every hidden neuron carries its own N decoder weights and is scored
  on reconstructing all inputs from its activation alone;
* ann — one conventional N-node decoder layer reads the whole hidden layer;
* nn  — no decoder at all.

Pre-activations are clamped to [-500, 500] before exponentiation so that
mutation-inflated weights can never overflow. Decoder nodes default to
sigmoid activation with no bias; both are configurable.

A network is one float64 vector, ``Network.params``, laid out block by
block as [encoder | hidden_bias | decoder | decoder_bias | output_w |
output_bias]; ``layout`` gives each block's offset and shape, and the
blocks a network lacks (nn's decoder, disabled decoder biases) take no
room. Each block is also a named view into the vector, in the shape of
``Coord``: encoder (H, N); hidden_bias and output_w (H,); output_bias a
0-d view; decoder and decoder_bias (H, N) for nan, where row j is neuron
j's decoder, and (N, H) and (N,) for ann, where row i is decoder node i.
The flat index of ``Coord(layer, row, col)`` is the block offset plus
``row * cols + col``, with cols the block's second dimension (1 for
vectors and the scalar). Everything before ``output_w`` is attached to
the hidden layer, so autoencode pool index u is flat index u and task
pool index u is flat index ``task_start + u``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, json_array, read_json
from .landscape import Dataset

ARCHS = ("nan", "ann", "nn")
DECODER_ACTIVATIONS = ("sigmoid", "tanh", "linear")
# The output node's blocks: the task pool. Every other block is autoencoded.
TASK_LAYERS = ("output_w", "output_bias")

CLAMP = 500.0

# The `clip` ufunc that `np.clip` wraps, and the C `einsum` that `np.einsum`
# calls when not asked to optimize: the same bits without the wrappers'
# argument handling, which costs more than the clip on a 1000-vector.
try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum as einsum
    from numpy._core.umath import clip as clip_ufunc
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as einsum
    from numpy.core.umath import clip as clip_ufunc


def logistic_neg(neg: np.ndarray, out: np.ndarray, clip: bool = True) -> np.ndarray:
    """``1 / (1 + exp(neg))``, the logistic of the negated pre-activations
    `neg`, written into `out` (which may be `neg`). With `clip` it first clamps
    `neg` to [-CLAMP, CLAMP] into `out`; `neg` itself is never clamped."""
    if clip:
        clip_ufunc(neg, -CLAMP, CLAMP, out=out)
        neg = out
    np.exp(neg, out=out)
    np.add(out, 1.0, out=out)
    return np.reciprocal(out, out=out)


def sigmoid_vec(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized clamped logistic; writes into `out` when given."""
    if out is None:
        out = np.empty_like(x)
    np.negative(x, out=out)
    return logistic_neg(out, out=out)


def _dec_act_vec(name, x, out):
    """Decoder activation of `x`, written into `out` (which may be `x`)."""
    if name == "sigmoid":
        return sigmoid_vec(x, out=out)
    if name == "tanh":
        return np.tanh(x, out=out)
    if out is not x:
        np.copyto(out, x)
    return out


# --- parameters and their coordinates ------------------------------------------
#
# A coordinate is (layer, row, col). Scalars use row=col=0; vectors use col=0.

class Coord(NamedTuple):
    layer: str
    row: int
    col: int

    def __str__(self):
        return f"{self.layer}:{self.row}:{self.col}"


def parse_coord(text: str) -> Coord:
    layer, row, col = text.split(":")
    return Coord(layer, int(row), int(col))


def layout(arch: str, n: int, h: int, decoder_bias: bool = False) -> dict:
    """Block name -> (offset, shape) in the flat parameter vector, in order."""
    blocks = [("encoder", (h, n)), ("hidden_bias", (h,))]
    if arch == "nan":
        blocks.append(("decoder", (h, n)))
        if decoder_bias:
            blocks.append(("decoder_bias", (h, n)))
    elif arch == "ann":
        blocks.append(("decoder", (n, h)))
        if decoder_bias:
            blocks.append(("decoder_bias", (n,)))
    blocks += [("output_w", (h,)), ("output_bias", ())]
    table, offset = {}, 0
    for name, shape in blocks:
        table[name] = (offset, shape)
        offset += math.prod(shape)
    return table


def _view(name):
    def get(self):
        return self._views.get(name)

    def set(self, value):
        self._views[name][...] = value

    return property(get, set, doc=f"The {name} block of `params` (None when absent).")


class Network:
    """One network of any arch: its parameters in one flat float64 vector.

    Assigning to a block (``net.output_bias = 0.5``) writes into `params`.
    """

    encoder = _view("encoder")
    hidden_bias = _view("hidden_bias")
    decoder = _view("decoder")
    decoder_bias = _view("decoder_bias")
    output_w = _view("output_w")
    output_bias = _view("output_bias")

    def __init__(self, arch, n, h, *, decoder_bias=False, decoder_activation="sigmoid"):
        if arch not in ARCHS:
            raise ParameterError(f"arch must be one of {ARCHS}, got {arch!r}")
        if decoder_activation not in DECODER_ACTIVATIONS:
            raise ParameterError(
                f"decoder_activation must be one of {DECODER_ACTIVATIONS}, got {decoder_activation!r}"
            )
        if n < 1 or h < 1:
            raise ParameterError(f"n and h must be >= 1, got n={n}, h={h}")
        self.arch = arch
        self.n = n
        self.h = h
        self.decoder_activation = decoder_activation
        self.layout = layout(arch, n, h, decoder_bias)
        self.task_start = self.layout["output_w"][0]
        self.params = np.zeros(self.task_start + h + 1)
        self._views, self._index = {}, {}
        for name, (offset, shape) in self.layout.items():
            self._views[name] = self.params[offset:offset + math.prod(shape)].reshape(shape)
            self._index[name] = (offset, *(shape + (1, 1))[:2])

    def copy(self) -> Network:
        twin = Network(self.arch, self.n, self.h, decoder_bias=self.decoder_bias is not None,
                       decoder_activation=self.decoder_activation)
        twin.params[:] = self.params
        return twin

    def index(self, coord: Coord) -> int:
        """Flat index of a coordinate; ParameterError if this network lacks it."""
        layer, row, col = coord
        if layer not in self._index:
            raise ParameterError(f"coordinate {coord} is not valid for arch {self.arch!r}")
        offset, rows, cols = self._index[layer]
        if not (0 <= row < rows and 0 <= col < cols):
            raise ParameterError(
                f"coordinate {coord} is out of range for shape {self.layout[layer][1]}")
        return offset + row * cols + col

    def coord(self, u: int) -> Coord:
        """The coordinate at flat index u."""
        for layer, (offset, rows, cols) in self._index.items():
            if 0 <= u < offset + rows * cols:
                return Coord(layer, *divmod(u - offset, cols))
        raise ParameterError(f"flat index {u} out of range for {self.params.size} parameters")


def init_network(arch: str, n: int, config, rng: np.random.Generator) -> Network:
    """Seed a fresh network with every parameter uniform in [-1, 1].

    Draw order, each block row-major: encoder, hidden biases, output
    weights, output bias, then decoder weights (and decoder biases when
    enabled). This is not the flat order of `params`.
    """
    net = Network(arch, n, config.h, decoder_bias=config.decoder_bias,
                  decoder_activation=config.decoder_activation)
    for name in ("encoder", "hidden_bias", "output_w", "output_bias", "decoder", "decoder_bias"):
        view = getattr(net, name)
        if view is not None:
            view[...] = rng.uniform(-1.0, 1.0, size=view.shape)
    return net


def hidden_batch(network: Network, X: np.ndarray) -> np.ndarray:
    """Hidden activations for every example row; shape (count, h)."""
    return sigmoid_vec(X @ network.encoder.T + network.hidden_bias)


def forward_batch(network: Network, X: np.ndarray) -> np.ndarray:
    act = hidden_batch(network, X)
    return sigmoid_vec(act @ network.output_w + network.output_bias)


def _check_dataset(network, dataset):
    if dataset.count == 0:
        raise ParameterError("dataset must contain at least one example")
    if dataset.n != network.n:
        raise ParameterError(
            f"dataset input width {dataset.n} does not match network n={network.n}"
        )


def task_mse(network: Network, dataset: Dataset) -> float:
    """Mean squared supervised error over the dataset."""
    _check_dataset(network, dataset)
    d = forward_batch(network, dataset.inputs) - dataset.targets
    return float(d @ d) / dataset.count


def _reconstruction_mse(network, pre, bias, X) -> float:
    """Mean squared error of reconstructing `X` from the decoder pre-activations
    `pre` plus `bias` (None for none), through the decoder activation, in place."""
    if bias is not None:
        pre += bias
    rec = _dec_act_vec(network.decoder_activation, pre, out=pre)
    rec -= X
    np.multiply(rec, rec, out=rec)
    return float(rec.sum()) / rec.size


def neuron_ae_mse(nan: Network, j: int, dataset: Dataset) -> float:
    """Neuron j's reconstruction MSE, averaged over examples and components."""
    if not 0 <= j < nan.h:
        raise ParameterError(f"hidden index must lie in [0, {nan.h}), got {j}")
    _check_dataset(nan, dataset)
    X = dataset.inputs
    act = sigmoid_vec(X @ nan.encoder[j] + nan.hidden_bias[j])
    # einsum writes a zero product as +0.0; the activation or the square removes that sign
    pre = einsum("i,j->ij", act, nan.decoder[j])
    bias = None if nan.decoder_bias is None else nan.decoder_bias[j]
    return _reconstruction_mse(nan, pre, bias, X)


def layer_ae_mse(ann: Network, dataset: Dataset) -> float:
    """Decoder-layer reconstruction MSE over examples and components."""
    _check_dataset(ann, dataset)
    X = dataset.inputs
    act = hidden_batch(ann, X)
    return _reconstruction_mse(ann, act @ ann.decoder.T, ann.decoder_bias, X)


def judge_ae_mses(network: Network, dataset: Dataset) -> list[float]:
    """Each judge's reconstruction MSE, from scratch.

    A judge is one reconstruction objective: nan has one per hidden neuron,
    in neuron order; ann has one, its decoder layer; nn has none.
    """
    if network.arch == "nan":
        return [neuron_ae_mse(network, j, dataset) for j in range(network.h)]
    if network.arch == "ann":
        return [layer_ae_mse(network, dataset)]
    return []


def mean_ae_mse(judges: list[float]) -> float | None:
    """The reconstruction MSE of a network from its per-judge values; None for none (nn).

    The values are added in judge order onto 0.0 and divided by their count,
    so ann's one value comes back unchanged. The explicit loop fixes the
    rounding: `sum` compensates float additions from Python 3.12 on.
    """
    if not judges:
        return None
    total = 0.0
    for value in judges:
        total += value
    return total / len(judges)


def ae_mse(network: Network, dataset: Dataset) -> float | None:
    """Reconstruction MSE: nan's mean over its neurons, ann's layer MSE, None for nn."""
    return mean_ae_mse(judge_ae_mses(network, dataset))


def _json_key(arch, block):
    """Snapshot key of a block: ann's decoder blocks keep their `layer_` names."""
    return "layer_" + block if arch == "ann" and block.startswith("decoder") else block


def save_network(network: Network, path) -> None:
    """JSON snapshot with full round-trip precision, enough to resume a run."""
    payload = {"arch": network.arch, "n": network.n, "h": network.h}
    for name in ("encoder", "hidden_bias", "output_w"):
        payload[name] = getattr(network, name).tolist()
    payload["output_bias"] = float(network.output_bias)
    if network.arch != "nn":
        payload["decoder_activation"] = network.decoder_activation
        for name in ("decoder", "decoder_bias"):
            view = getattr(network, name)
            payload[_json_key(network.arch, name)] = None if view is None else view.tolist()
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_network(path) -> Network:
    """Read a `save_network` snapshot, checking every block against the layout."""
    payload = read_json(path, "a network snapshot")
    try:
        arch, n, h = payload["arch"], payload["n"], payload["h"]
        if arch not in ARCHS:
            raise ParameterError(f"arch must be one of {ARCHS}, got {arch!r}")
        if type(n) is not int or type(h) is not int:
            raise ParameterError(f"n and h must be integers, got {n!r} and {h!r}")
        activation, bias = "sigmoid", False
        if arch != "nn":
            activation = payload["decoder_activation"]
            bias = payload[_json_key(arch, "decoder_bias")] is not None
        net = Network(arch, n, h, decoder_bias=bias, decoder_activation=activation)
        for name, (offset, shape) in net.layout.items():
            key = _json_key(arch, name)
            value = json_array(payload[key], repr(key))
            if value.shape != shape:
                raise ParameterError(f"{key!r} must be numbers of shape {shape}")
            getattr(net, name)[...] = value
        return net
    except KeyError as exc:
        raise ParameterError(f"{path}: network snapshot has no {exc}") from None
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
