"""Incremental objective evaluation under single-coordinate mutation.

The hill climber changes one parameter per cycle, so almost all per-example
state survives between evaluations. ``EvalCache`` keeps hidden and output
pre-activations (plus per-component reconstruction error sums) for the
training set and evaluates a proposed mutation by recomputing only the
slices the touched coordinate can reach. Proposals are staged: the network
and cache are written only on ``accept``, so a rejected proposal provably
leaves both untouched.

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
                self.comp_sums[j] = self._nan_row_sums(j, self.h_act[:, j])
            self.neuron_mse = self.comp_sums.sum(axis=1) / (self.m * self.n)
        elif net.arch == "ann":
            self.dec_pre = self.h_act @ net.decoder.T
            if net.decoder_bias is not None:
                self.dec_pre += net.decoder_bias
            self.comp_sums = self._ann_col_sums(self.dec_pre)
            self.layer_mse = float(self.comp_sums.sum()) / (self.m * self.n)

    # -- helpers ---------------------------------------------------------------

    def _task_from(self, out_pre):
        buf = nets.sigmoid_vec(out_pre, out=self._c4)
        buf -= self.y
        return float(buf @ buf) / self.m

    def _nan_row_sums(self, j, act_col):
        """Squared reconstruction errors of neuron j summed per component."""
        net = self.net
        buf = np.multiply.outer(act_col, net.decoder[j], out=self._mbuf)
        if net.decoder_bias is not None:
            buf += net.decoder_bias[j]
        nets._dec_act_vec(net.decoder_activation, buf, out=buf)
        buf -= self.X
        np.multiply(buf, buf, out=buf)
        return buf.sum(axis=0)

    def _ann_col_sums(self, dec_pre):
        buf = nets._dec_act_vec(self.net.decoder_activation, dec_pre, out=self._mbuf)
        buf -= self.X
        np.multiply(buf, buf, out=buf)
        return buf.sum(axis=0)

    # -- public API ------------------------------------------------------------

    def objective_for(self, coord: Coord) -> float:
        """Current incumbent value of the objective this coordinate is judged on."""
        if coord.layer in TASK_LAYERS or self.net.arch == "nn":
            return self.task_mse
        if self.net.arch == "nan":
            return float(self.neuron_mse[coord.row])
        return self.layer_mse

    def propose(self, coord: Coord, delta: float) -> float:
        """Stage `coord += delta` and return the candidate objective value."""
        if self._pending is not None:
            raise ParameterError("a proposal is already pending")
        net = self.net
        flat = net.index(coord)
        layer, r, c = coord
        if layer in TASK_LAYERS:
            if layer == "output_w":
                np.multiply(self.h_act[:, r], delta, out=self._c3)
                self._c3 += self.out_pre
            else:
                np.add(self.out_pre, delta, out=self._c3)
            cand = self._task_from(self._c3)
            self._pending = ("output", coord, flat, delta, cand)
            return cand

        if layer in ("encoder", "hidden_bias"):
            j = r
            if layer == "encoder":
                np.multiply(self.X[:, c], delta, out=self._c1)
                self._c1 += self.h_pre[:, j]
            else:
                np.add(self.h_pre[:, j], delta, out=self._c1)
            nets.sigmoid_vec(self._c1, out=self._c2)
            if net.arch == "nn":
                np.subtract(self._c2, self.h_act[:, j], out=self._c3)
                self._c3 *= net.output_w[j]
                self._c3 += self.out_pre
                cand = self._task_from(self._c3)
                self._pending = ("nn_hidden", coord, flat, delta, cand)
                return cand
            if net.arch == "nan":
                row = self._nan_row_sums(j, self._c2)
                cand = float(row.sum()) / (self.m * self.n)
                self._pending = ("nan_hidden", coord, flat, delta, cand, row)
                return cand
            # ann: shift every decoder pre-activation through hidden node j
            np.subtract(self._c2, self.h_act[:, j], out=self._c3)
            np.multiply.outer(self._c3, net.decoder[:, j], out=self._dec_buf)
            self._dec_buf += self.dec_pre
            sums = self._ann_col_sums(self._dec_buf)
            cand = float(sums.sum()) / (self.m * self.n)
            self._pending = ("ann_hidden", coord, flat, delta, cand, sums)
            return cand

        if net.arch == "nan":
            j, i = r, c
            if layer == "decoder":
                np.multiply(self.h_act[:, j], net.decoder[j, i] + delta, out=self._c1)
                if net.decoder_bias is not None:
                    self._c1 += net.decoder_bias[j, i]
            else:
                np.multiply(self.h_act[:, j], net.decoder[j, i], out=self._c1)
                self._c1 += net.decoder_bias[j, i] + delta
            col = nets._dec_act_vec(net.decoder_activation, self._c1, out=self._c1)
            col -= self.X[:, i]
            np.multiply(col, col, out=col)
            s_new = float(col.sum())
            total = float(self.comp_sums[j].sum()) - float(self.comp_sums[j, i]) + s_new
            cand = total / (self.m * self.n)
            self._pending = ("nan_decoder", coord, flat, delta, cand, s_new)
            return cand

        # ann decoder or decoder bias: `net.index` has ruled out the rest
        i = r
        if layer == "decoder":
            np.multiply(self.h_act[:, c], delta, out=self._c1)
            self._c1 += self.dec_pre[:, i]
        else:
            np.add(self.dec_pre[:, i], delta, out=self._c1)
        col = nets._dec_act_vec(self.net.decoder_activation, self._c1, out=self._c2)
        col -= self.X[:, i]
        np.multiply(col, col, out=col)
        s_new = float(col.sum())
        total = float(self.comp_sums.sum()) - float(self.comp_sums[i]) + s_new
        cand = total / (self.m * self.n)
        self._pending = ("ann_decoder", coord, flat, delta, cand, s_new)
        return cand

    def accept(self) -> None:
        """Apply the pending mutation to the network and commit staged state."""
        if self._pending is None:
            raise ParameterError("no proposal is pending")
        kind, coord, flat, delta, cand = self._pending[:5]
        net = self.net
        net.params[flat] += delta

        if kind == "output":
            self.out_pre, self._c3 = self._c3, self.out_pre
            self.task_mse = cand
        elif kind == "nn_hidden":
            j = coord.row
            self.h_pre[:, j] = self._c1
            self.h_act[:, j] = self._c2
            self.out_pre, self._c3 = self._c3, self.out_pre
            self.task_mse = cand
        elif kind == "nan_hidden":
            j = coord.row
            row = self._pending[5]
            np.subtract(self._c2, self.h_act[:, j], out=self._c3)
            self._c3 *= net.output_w[j]
            self.out_pre += self._c3
            self.h_pre[:, j] = self._c1
            self.h_act[:, j] = self._c2
            self.comp_sums[j] = row
            self.neuron_mse[j] = cand
            self.task_mse = self._task_from(self.out_pre)
        elif kind == "ann_hidden":
            j = coord.row
            sums = self._pending[5]
            self.h_pre[:, j] = self._c1
            self.h_act[:, j] = self._c2
            # _c3 still holds the activation shift from propose()
            self._c3 *= net.output_w[j]
            self.out_pre += self._c3
            self.dec_pre, self._dec_buf = self._dec_buf, self.dec_pre
            self.comp_sums = sums
            self.layer_mse = cand
            self.task_mse = self._task_from(self.out_pre)
        elif kind == "nan_decoder":
            j, i = coord.row, coord.col
            self.comp_sums[j, i] = self._pending[5]
            self.neuron_mse[j] = cand
        elif kind == "ann_decoder":
            i = coord.row
            self.dec_pre[:, i] = self._c1
            self.comp_sums[i] = self._pending[5]
            self.layer_mse = cand
        self._pending = None

    def reject(self) -> None:
        """Discard the pending proposal; network and cache are untouched."""
        if self._pending is None:
            raise ParameterError("no proposal is pending")
        self._pending = None

    # -- audit -----------------------------------------------------------------

    def scratch_divergence(self, dataset) -> float:
        """Max |cached - from-scratch| over every objective this cache tracks."""
        worst = abs(self.task_mse - nets.task_mse(self.net, dataset))
        if self.net.arch == "nan":
            for j in range(self.h):
                worst = max(
                    worst,
                    abs(float(self.neuron_mse[j]) - nets.neuron_ae_mse(self.net, j, dataset)),
                )
        elif self.net.arch == "ann":
            worst = max(worst, abs(self.layer_mse - nets.layer_ae_mse(self.net, dataset)))
        return worst
