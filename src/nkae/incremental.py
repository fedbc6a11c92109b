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

A hidden proposal of nan or ann moves a whole judge's reconstruction, an
(m, n) array for m examples. It is never written out: the kernel walks the
examples in blocks of ``max(1, min(m, BLOCK_ELEMS // n))`` rows through a
``(rows + 1, n)`` scratch buffer, whose row 0 carries the running column
sums so that every sum is bit-identical to one ``sum(axis=0)`` over all
rows. At n=1000 that is 65 rows (about 0.5 MiB); at n <= 65 a 1000-example
set is one block. Besides that buffer the cache holds (m,) and (m, h)
arrays and the (h, n) ``comp_sums``; the one (m, n) array is ann's decoder
pre-activations ``dec_pre``, which an accepted ann hidden proposal updates
in place, block by block.

The kernel's passes are the cheapest numpy calls that keep those bits. An
outer product is ``einsum("i,j->ij")``, which rounds each product as
``multiply.outer`` does but writes a zero product as +0.0; the sign of a
zero pre-activation never reaches a sum, since exp(±0) = 1 and every error
is squared. On rows of 2 to ``EINSUM_SUM_MAX_N`` components the carry-row
sum is ``einsum("ij->j")``, which adds the rows in the same order as
``sum(axis=0)``. Errors are squared by ``square``, which is ``x * x`` in a
faster loop. A sigmoid decoder clamps its pre-activations to
[-CLAMP, CLAMP] only when the judge's decoder could reach past it (see
``_needs_clamp``).

Correctness is defined by the from-scratch evaluators in ``networks``;
``scratch_divergence`` measures the gap between the cached ``(task_mse,
ae)`` and ``scratch_objectives``, which stays below ``AUDIT_TOL`` over any
mutation sequence the trainer produces. The trainer audits every run this
way once, after its last cycle.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from . import networks as nets
from .networks import TASK_LAYERS, Coord

# The largest |cached - from-scratch| objective gap a run's audit tolerates.
AUDIT_TOL = 1e-12

# Elements per block of examples in the reconstruction kernels: 2**16
# float64 (512 KiB) stays in L2, and at n <= 65 a 1000-example set is one block.
BLOCK_ELEMS = 2**16

# The widest rows whose carry-row sum is taken by `einsum("ij->j")`. On one
# BLOCK_ELEMS block (an AVX-512 Xeon, numpy 2.4) it takes 0.4 of the time of
# `sum(axis=0)` at n=20 and 0.9 at n=200, but 1.4 at n=500. At n=1 both
# collapse to 1-D sums in different orders, so one-component rows keep
# `sum(axis=0)`.
EINSUM_SUM_MAX_N = 200


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
            self._rows = max(1, min(m, BLOCK_ELEMS // n))
            self._buf = np.empty((self._rows + 1, n))
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
                self.comp_sums[j] = self._nan_sums(j, self.h_act[:, j])
        elif net.arch == "ann":
            self.dec_pre = self.h_act @ net.decoder.T
            if net.decoder_bias is not None:
                self.dec_pre += net.decoder_bias
            self.comp_sums = self._col_sums(None, None, self.dec_pre,
                                            clip=self._needs_clamp(0))[None]
        else:
            self.comp_sums = np.empty((0, self.n))
        self.ae = (self.comp_sums.sum(axis=1) / (self.m * self.n)).tolist()

    # -- helpers ---------------------------------------------------------------

    def _task_from(self, out_pre):
        buf = nets.sigmoid_vec(out_pre, out=self._c4)
        buf -= self.y
        return float(buf @ buf) / self.m

    def _blocks(self):
        """(start, stop) of each block of `_rows` examples, in order."""
        for s in range(0, self.m, self._rows):
            yield s, min(s + self._rows, self.m)

    def _needs_clamp(self, g):
        """Whether judge g's sigmoid decoder must clamp its pre-activations,
        that is whether they can leave [-CLAMP, CLAMP].

        Hidden activations lie in [-1, 1]. So nan neuron g's ``act * d + b``
        is at most max|d| + max|b| in magnitude, with one rounding that cannot
        pass that bound, and ann's decoder node i at most
        ``sum_j |decoder[i, j]| + |b_i|``. Accepts update ``dec_pre`` in place,
        so ann's bound gets a margin of 1.0 for rounding drift, far above any
        drift that the AUDIT_TOL audit lets pass.
        """
        net = self.net
        if net.decoder_activation != "sigmoid":
            return False
        if net.arch == "nan":
            bound = np.abs(net.decoder[g]).max()
            if net.decoder_bias is not None:
                bound += np.abs(net.decoder_bias[g]).max()
        else:
            rows = np.abs(net.decoder).sum(axis=1)
            if net.decoder_bias is not None:
                rows += np.abs(net.decoder_bias)
            bound = rows.max() + 1.0
        return bool(bound > nets.CLAMP)

    def _nan_sums(self, j, act_col):
        """Neuron j's per-component error sums for the hidden activations `act_col`."""
        b = None if self.net.decoder_bias is None else self.net.decoder_bias[j]
        return self._col_sums(act_col, self.net.decoder[j], b, clip=self._needs_clamp(j))

    def _col_sums(self, act, d, base, clip):
        """Squared reconstruction errors of the decoder pre-activations
        ``outer(act, d) + base``, summed per component (``base`` alone when `act`
        is None). `base` is None, one (n,) row or an (m, n) array.

        The examples are walked in blocks of `_rows` rows through the
        ``(_rows + 1, n)`` scratch `_buf`, whose row 0 carries the running
        column sums: ``sum(axis=0)`` over the carry row and a block adds rows in
        the same order as one ``sum(axis=0)`` over all m rows, so the sums are
        bit-identical to it. Rows of 2 to EINSUM_SUM_MAX_N components take that
        sum with ``einsum("ij->j")``, which adds in the same order and is
        faster on narrow rows. The sums go to a separate vector, since an `out`
        that overlaps the input makes numpy copy the input first.

        The outer product is ``einsum("i,j->ij")``: the bits of
        ``multiply.outer``, except that a zero product is +0.0, a sign that the
        activation or the square removes before any sum. ``square(x)`` is
        ``x * x`` bit for bit, in a faster loop. A sigmoid decoder
        computes 1 / (1 + exp(p)) from the negated pre-activations
        ``p = outer(act, -d) - base``, which equal ``-(outer(act, d) + base)``
        bit for bit; `clip` False skips the clamp where ``_needs_clamp`` has
        shown |p| <= CLAMP.
        """
        activation = self.net.decoder_activation
        sign = -1.0 if activation == "sigmoid" else 1.0
        if act is not None:
            d = d * sign
        buf, sums = self._buf, np.zeros(self.n)
        narrow = 2 <= self.n <= EINSUM_SUM_MAX_N
        for s, e in self._blocks():
            blk = buf[1:e - s + 1]
            part = base[s:e] if base is not None and base.ndim == 2 else base
            if act is None:
                np.multiply(part, sign, out=blk)
            else:
                nets.einsum("i,j->ij", act[s:e], d, out=blk)
                if part is not None:
                    if sign < 0:
                        blk -= part
                    else:
                        blk += part
            if activation == "sigmoid":
                if clip:
                    nets.clip_ufunc(blk, -nets.CLAMP, nets.CLAMP, out=blk)
                np.exp(blk, out=blk)
                blk += 1.0
                np.reciprocal(blk, out=blk)
            elif activation == "tanh":
                np.tanh(blk, out=blk)
            blk -= self.X[s:e]
            np.square(blk, out=blk)
            buf[0] = sums
            if narrow:
                nets.einsum("ij->j", buf[:e - s + 1], out=sums)
            else:
                buf[:e - s + 1].sum(axis=0, out=sums)
        return sums

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
                    sums = self._nan_sums(r, self._c2)
                else:
                    sums = self._col_sums(self._c3, net.decoder[:, r], self.dec_pre,
                                          clip=self._needs_clamp(0))
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
            if net.arch == "ann":
                # dec_pre += outer(shift, decoder column j), one block of examples at a time
                for s, e in self._blocks():
                    blk = nets.einsum("i,j->ij", self._c3[s:e], net.decoder[:, j],
                                      out=self._buf[1:e - s + 1])
                    self.dec_pre[s:e] += blk
            self._c3 *= net.output_w[j]
            self.out_pre += self._c3
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


# -- audit ---------------------------------------------------------------------

def scratch_objectives(network, dataset) -> tuple[float, list[float]]:
    """``(task_mse, ae)`` of `network` on `dataset` from scratch: the values an
    `EvalCache` on them tracks."""
    return nets.task_mse(network, dataset), nets.judge_ae_mses(network, dataset)


def scratch_divergence(cached, scratch) -> float:
    """Max |cached - scratch| over the task MSE and every judge's reconstruction
    MSE; both arguments are ``(task_mse, ae)`` pairs."""
    (task, ae), (scratch_task, scratch_ae) = cached, scratch
    gaps = [abs(a - b) for a, b in zip(ae, scratch_ae, strict=True)]
    return max([abs(task - scratch_task), *gaps])
