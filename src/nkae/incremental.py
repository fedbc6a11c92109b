"""Incremental objective evaluation under single-coordinate mutation.

The hill climber changes one parameter per cycle, so almost all per-example
state survives between evaluations. ``EvalCache`` keeps hidden and output
pre-activations for the training set and evaluates a proposed mutation by
recomputing only the slices the touched coordinate can reach. Proposals are
staged: the network and cache are written only on ``accept``, so a rejected
proposal provably leaves both untouched.

Reconstruction is tracked per judge. A judge is one reconstruction
objective: nan has h of them, judge j owning neuron j's encoder row, hidden
bias and decoder; ann has one, the decoder layer; nn has none. Row g of
``comp_sums`` holds judge g's squared reconstruction errors summed per input
component, and ``ae[g]`` is their mean over examples and components. A
proposal is staged as one of three kinds: ``task`` (the output node, and
every nn hidden-node change, which only the task judges), ``hidden`` (a nan
or ann encoder weight or hidden bias) and ``decoder`` (a nan or ann decoder
weight or bias, which moves one component of one judge).

Correctness is defined by the from-scratch evaluators in ``networks``;
``scratch_divergence`` measures the gap, which stays below 1e-12 over any
mutation sequence the trainer produces.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from . import networks as nets
from .networks import TASK_LAYERS, Coord


class EvalCache:
    """Cached objectives for one network on one training set."""

    def __init__(self, network, dataset):
        nets._check_dataset(network, dataset)
        self.net = network
        self.X = dataset.inputs
        self.y = dataset.targets
        self.m = dataset.count
        self.n = network.n
        self.h = network.h
        self._pending = None
        m, n = self.m, self.n
        self._c1 = np.empty(m)
        self._c2 = np.empty(m)
        self._c3 = np.empty(m)
        self._c4 = np.empty(m)
        if network.arch in ("nan", "ann"):
            self._mbuf = np.empty((m, n))
        if network.arch == "ann":
            self._dec_buf = np.empty((m, n))
        self.refresh()

    # -- full rebuild --------------------------------------------------------

    def refresh(self):
        """Recompute every cached quantity from scratch."""
        net, X = self.net, self.X
        self.h_pre = X @ net.encoder.T + net.hidden_bias
        self.h_act = nets.sigmoid_vec(self.h_pre)
        self.out_pre = self.h_act @ net.output_w + net.output_bias
        self.task_mse = self._task_from(self.out_pre)
        if net.arch == "nan":
            self.comp_sums = np.empty((self.h, self.n))
            for j in range(self.h):
                self.comp_sums[j] = self._col_sums(self._nan_pre(j, self.h_act[:, j]))
        elif net.arch == "ann":
            self.dec_pre = self.h_act @ net.decoder.T
            if net.decoder_bias is not None:
                self.dec_pre += net.decoder_bias
            self.comp_sums = self._col_sums(self.dec_pre)[None]
        else:
            self.comp_sums = np.empty((0, self.n))
        self.ae = (self.comp_sums.sum(axis=1) / (self.m * self.n)).tolist()

    # -- helpers ---------------------------------------------------------------

    def _task_from(self, out_pre):
        buf = nets.sigmoid_vec(out_pre, out=self._c4)
        buf -= self.y
        return float(buf @ buf) / self.m

    def _nan_pre(self, j, act_col):
        """Neuron j's (m, n) decoder pre-activations for the activations `act_col`."""
        buf = np.multiply.outer(act_col, self.net.decoder[j], out=self._mbuf)
        if self.net.decoder_bias is not None:
            buf += self.net.decoder_bias[j]
        return buf

    def _col_sums(self, pre):
        """Squared reconstruction errors of (m, n) decoder pre-activations, summed per component."""
        buf = nets._dec_act_vec(self.net.decoder_activation, pre, out=self._mbuf)
        buf -= self.X
        np.multiply(buf, buf, out=buf)
        return buf.sum(axis=0)

    def _judge(self, coord: Coord) -> int:
        """Row of `comp_sums` and `ae` that judges an autoencode coordinate."""
        return coord.row if self.net.arch == "nan" else 0

    # -- public API ------------------------------------------------------------

    def objective_for(self, coord: Coord) -> float:
        """Current incumbent value of the objective this coordinate is judged on."""
        if coord.layer in TASK_LAYERS or self.net.arch == "nn":
            return self.task_mse
        return self.ae[self._judge(coord)]

    def propose(self, coord: Coord, delta: float) -> float:
        """Stage `coord += delta` and return the candidate objective value."""
        if self._pending is not None:
            raise ParameterError("a proposal is already pending")
        net = self.net
        flat = net.index(coord)
        layer, r, c = coord
        if layer == "output_w":
            np.multiply(self.h_act[:, r], delta, out=self._c3)
            self._c3 += self.out_pre
        elif layer == "output_bias":
            np.add(self.out_pre, delta, out=self._c3)
        elif layer in ("encoder", "hidden_bias"):
            if layer == "encoder":
                np.multiply(self.X[:, c], delta, out=self._c1)
                self._c1 += self.h_pre[:, r]
            else:
                np.add(self.h_pre[:, r], delta, out=self._c1)
            nets.sigmoid_vec(self._c1, out=self._c2)
            # _c3: the activation shift of hidden node r
            np.subtract(self._c2, self.h_act[:, r], out=self._c3)
            if net.arch == "nn":
                # only the task judges nn, so _c3 becomes the candidate out_pre
                self._c3 *= net.output_w[r]
                self._c3 += self.out_pre
            else:
                if net.arch == "nan":
                    sums = self._col_sums(self._nan_pre(r, self._c2))
                else:
                    np.multiply.outer(self._c3, net.decoder[:, r], out=self._dec_buf)
                    self._dec_buf += self.dec_pre
                    sums = self._col_sums(self._dec_buf)
                cand = float(sums.sum()) / (self.m * self.n)
                self._pending = ("hidden", coord, flat, delta, cand, sums)
                return cand
        else:
            # a decoder weight or bias: _c1 gets the candidate pre-activations
            # of the one reconstructed component i it moves
            if net.arch == "nan":
                i = c
                if layer == "decoder":
                    np.multiply(self.h_act[:, r], net.decoder[r, i] + delta, out=self._c1)
                    if net.decoder_bias is not None:
                        self._c1 += net.decoder_bias[r, i]
                else:
                    np.multiply(self.h_act[:, r], net.decoder[r, i], out=self._c1)
                    self._c1 += net.decoder_bias[r, i] + delta
            else:
                i = r
                if layer == "decoder":
                    np.multiply(self.h_act[:, c], delta, out=self._c1)
                    self._c1 += self.dec_pre[:, i]
                else:
                    np.add(self.dec_pre[:, i], delta, out=self._c1)
            col = nets._dec_act_vec(net.decoder_activation, self._c1, out=self._c2)
            col -= self.X[:, i]
            np.multiply(col, col, out=col)
            s_new = float(col.sum())
            g = self._judge(coord)
            total = float(self.comp_sums[g].sum()) - float(self.comp_sums[g, i]) + s_new
            cand = total / (self.m * self.n)
            self._pending = ("decoder", coord, flat, delta, cand, (i, s_new))
            return cand
        cand = self._task_from(self._c3)
        self._pending = ("task", coord, flat, delta, cand, None)
        return cand

    def accept(self) -> None:
        """Apply the pending mutation to the network and commit staged state."""
        if self._pending is None:
            raise ParameterError("no proposal is pending")
        kind, coord, flat, delta, cand, staged = self._pending
        net = self.net
        net.params[flat] += delta
        j = coord.row

        if kind == "task":
            if coord.layer not in TASK_LAYERS:
                self.h_pre[:, j] = self._c1
                self.h_act[:, j] = self._c2
            self.out_pre, self._c3 = self._c3, self.out_pre
            self.task_mse = cand
        elif kind == "hidden":
            g = self._judge(coord)
            self.h_pre[:, j] = self._c1
            self.h_act[:, j] = self._c2
            # _c3 still holds the activation shift from propose()
            self._c3 *= net.output_w[j]
            self.out_pre += self._c3
            if net.arch == "ann":
                self.dec_pre, self._dec_buf = self._dec_buf, self.dec_pre
            self.comp_sums[g] = staged
            self.ae[g] = cand
            self.task_mse = self._task_from(self.out_pre)
        else:
            g = self._judge(coord)
            i, s_new = staged
            if net.arch == "ann":
                self.dec_pre[:, i] = self._c1
            self.comp_sums[g, i] = s_new
            self.ae[g] = cand
        self._pending = None

    def reject(self) -> None:
        """Discard the pending proposal; network and cache are untouched."""
        if self._pending is None:
            raise ParameterError("no proposal is pending")
        self._pending = None

    # -- audit -----------------------------------------------------------------

    def scratch_divergence(self, dataset) -> float:
        """Max |cached - from-scratch| over every objective this cache tracks."""
        net = self.net
        worst = abs(self.task_mse - nets.task_mse(net, dataset))
        if net.arch == "nan":
            scratch = [nets.neuron_ae_mse(net, j, dataset) for j in range(self.h)]
        else:
            scratch = [nets.layer_ae_mse(net, dataset)] if net.arch == "ann" else []
        for cached, value in zip(self.ae, scratch):
            worst = max(worst, abs(cached - value))
        return worst
