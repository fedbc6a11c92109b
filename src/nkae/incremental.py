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
component, and ``ae[g]`` is their mean over examples and components.
``propose`` stages two facts with each proposal: the hidden node j whose
activation it moves (any encoder weight or hidden bias, nn's too) and the
judge g that scores it (nan's neuron, ann's 0, or None when the task judges:
the output node and every nn change). ``accept`` writes hidden row j when
j is set, then commits the task when g is None, and otherwise judge g's row
(a hidden proposal) or the one component of it that a decoder weight or bias
moves. ``propose`` treats a bias as a weight on the constant input 1.0, and
returns the incumbent and candidate values of g's objective.

A hidden proposal of nan or ann moves a whole judge's reconstruction, an
(m, n) array for m examples. It is never written out: the kernel walks the
examples in blocks of ``max(1, min(m, BLOCK_ELEMS // n))`` rows through a
``(rows + 1, n)`` scratch buffer, whose row 0 carries the running column
sums so that every sum is bit-identical to one ``sum(axis=0)`` over all
rows. At n=1000 that is 65 rows (about 0.5 MiB); at n <= 65 a 1000-example
set is one block. Besides that buffer the cache holds (m,) arrays, the
(h, n) ``comp_sums`` and the hidden state ``h_pre`` and ``h_act``, which is
node-major: (h, m), row r being node r, so that a proposal reads and writes
contiguous rows. ``refresh`` still takes its products on (m, h) activations,
as the from-scratch evaluators do, and copies them out transposed. The one
(m, n) array is ann's decoder pre-activations ``dec_pre``, which an accepted
ann hidden proposal updates in place, block by block.

Every logistic has one clamp rule: it clamps to [-CLAMP, CLAMP] unless a
cached bound on its pre-activations, plus |delta| plus 1.0, stays within
CLAMP (``_clips``). The 1.0 is a margin for the rounding drift of in-place
updates. Inputs are +-1 and activations lie in [0, 1], so the bounds are
Σ|output_w| + |output_bias| for the output node, Σ|encoder[r]| +
|hidden_bias[r]| for hidden node r, and, for judge g's decoder, max|d| +
max|b| over nan neuron g's decoder weights d and biases b, or ann's largest
Σ_j |decoder[i, j]| + |decoder_bias[i]|. An accept renews the bound of what
it moved. Clamping a value inside [-CLAMP, CLAMP] is the identity, so a
skipped clamp changes no bit.

Every logistic reads negated pre-activations, through
``networks.logistic_neg``. A task or hidden candidate is formed negated, as
``x * -delta - pre``: that is ``-(pre + x * delta)`` bit for bit, up to the
sign of a zero, which exp(±0) = 1 hides. ``accept`` negates it back into
``out_pre`` or ``h_pre``. Decoder pre-activations are formed the same way,
times ``_sign`` (-1 for a sigmoid decoder, 1 otherwise) and joined to a bias
or to ``dec_pre`` by ``_join`` (subtract for a sigmoid, add otherwise). One
method, ``_errors``, turns them into squared reconstruction errors, for the
hidden kernel's blocks and for a decoder proposal's one component alike. The
clamp writes into the activation buffer, never into the candidate, so
``out_pre``, ``h_pre`` and ``dec_pre`` always hold unclamped values.

The kernel's passes are the cheapest numpy calls that keep those bits. An
outer product is ``einsum("i,j->ij")``, which rounds each product as
``multiply.outer`` does but writes a zero product as +0.0; the sign of a
zero pre-activation never reaches a sum, since exp(±0) = 1 and every error
is squared. So ``refresh`` builds every judge's row through the kernel of a
hidden proposal, ann's with a zero activation shift: a +0.0 product plus or
minus ``x`` is exactly ``x`` or ``-x``. On rows of 2 to ``EINSUM_SUM_MAX_N``
components the carry-row sum is ``einsum("ij->j")``, which adds the rows in
the same order as ``sum(axis=0)``. Errors are squared by ``square``, which
is ``x * x`` in a faster loop.

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
from .networks import Coord

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


def _bound(w, b):
    """sum |w| + |b|: a bound on |x @ w + b| for inputs x in [-1, 1]."""
    return float(np.abs(w).sum()) + abs(float(b))


def _clips(bound, delta):
    """Whether a logistic must clamp pre-activations whose magnitude is at most
    `bound` + |delta|, with a margin of 1.0 for the rounding drift of in-place
    updates. Written so that a NaN bound clamps."""
    return not bound + abs(delta) + 1.0 <= nets.CLAMP


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
            self._blocks = [(s, min(s + self._rows, m)) for s in range(0, m, self._rows)]
            self._buf = np.empty((self._rows + 1, n))
            self._d = np.empty(n)
            sigmoid = network.decoder_activation == "sigmoid"
            # a sigmoid decoder reads negated pre-activations: -(p + b) is -p - b
            self._sign = -1.0 if sigmoid else 1.0
            self._join = np.subtract if sigmoid else np.add
            self._narrow = 2 <= n <= EINSUM_SUM_MAX_N
        self.refresh()

    # -- full rebuild --------------------------------------------------------

    def refresh(self):
        """Recompute every cached quantity from scratch."""
        net, X = self.net, self.X
        # (m, h) products keep the bits of the from-scratch evaluators' ones
        pre = X @ net.encoder.T + net.hidden_bias
        self.h_pre = np.ascontiguousarray(pre.T)
        act = nets.sigmoid_vec(pre, out=pre)
        self.out_pre = act @ net.output_w + net.output_bias
        if net.arch == "ann":
            self.dec_pre = act @ net.decoder.T
            if net.decoder_bias is not None:
                self.dec_pre += net.decoder_bias
        self.h_act = np.ascontiguousarray(act.T)
        del pre, act
        self._task_bound = _bound(net.output_w, net.output_bias)
        self._node_bound = [_bound(net.encoder[r], net.hidden_bias[r]) for r in range(self.h)]
        self.task_mse = self._task_from(np.negative(self.out_pre, out=self._c3), 0.0)
        judges = {"nan": self.h, "ann": 1, "nn": 0}[net.arch]
        self._judge_bound = [self._decoder_bound(g) for g in range(judges)]
        self.comp_sums = np.empty((judges, self.n))
        zero = np.zeros(self.m)
        for g in range(judges):
            self.comp_sums[g] = self._judge_sums(g, self.h_act[g], zero)
        self.ae = (self.comp_sums.sum(axis=1) / (self.m * self.n)).tolist()

    # -- helpers ---------------------------------------------------------------

    def _task_from(self, neg_pre, delta):
        """Task MSE of the negated output pre-activations `neg_pre`, which the
        task bound plus |delta| bounds in magnitude."""
        buf = nets.logistic_neg(neg_pre, self._c4, _clips(self._task_bound, delta))
        np.subtract(buf, self.y, out=buf)
        return float(buf @ buf) / self.m

    def _decoder_bound(self, g):
        """A bound on the magnitude of judge g's decoder pre-activations. As
        activations lie in [0, 1], nan neuron g's ``act * d + b`` is at most
        max|d| + max|b|, and ann's are at most the largest over decoder nodes i
        of ``sum_j |decoder[i, j]| + |decoder_bias[i]|``."""
        net = self.net
        if net.arch == "nan":
            bound = float(np.abs(net.decoder[g]).max())
            if net.decoder_bias is not None:
                bound += float(np.abs(net.decoder_bias[g]).max())
            return bound
        rows = np.abs(net.decoder).sum(axis=1)
        if net.decoder_bias is not None:
            rows += np.abs(net.decoder_bias)
        return float(rows.max())

    def _errors(self, pre, x, clip, out):
        """Squared errors of reconstructing `x` from the ``_sign``-oriented decoder
        pre-activations `pre`, written into `out` (which may be `pre`). A sigmoid
        decoder reads them negated, as ``1 / (1 + exp(pre))``, clamping them into
        `out` first when `clip` is set; tanh and linear decoders read them as they
        are."""
        activation = self.net.decoder_activation
        if activation == "sigmoid":
            pre = nets.logistic_neg(pre, out, clip)
        elif activation == "tanh":
            pre = np.tanh(pre, out=out)
        np.subtract(pre, x, out=out)
        return np.square(out, out=out)

    def _judge_sums(self, j, act, shift):
        """Per-component error sums of the judge that hidden node j feeds, for
        j's activations `act`, which differ from the cached ones by `shift`:
        nan neuron j scores ``outer(act, decoder[j]) + decoder_bias[j]``, ann's
        layer ``dec_pre + outer(shift, decoder[:, j])``.

        The examples are walked in blocks of `_rows` rows through the
        ``(_rows + 1, n)`` scratch `_buf`, whose row 0 carries the running
        column sums: ``sum(axis=0)`` over the carry row and a block adds rows in
        the same order as one ``sum(axis=0)`` over all m rows, so the sums are
        bit-identical to it. Rows of 2 to EINSUM_SUM_MAX_N components take that
        sum with ``einsum("ij->j")``, which adds in the same order and is
        faster on narrow rows. The sums go to a separate vector, since an `out`
        that overlaps the input makes numpy copy the input first.
        """
        net = self.net
        if net.arch == "nan":
            g, left, d = j, act, net.decoder[j]
            base = None if net.decoder_bias is None else net.decoder_bias[j]
        else:
            g, left, d, base = 0, shift, net.decoder[:, j], self.dec_pre
        clip = _clips(self._judge_bound[g], 0.0)
        d = np.multiply(d, self._sign, out=self._d)
        buf, sums = self._buf, np.zeros(self.n)
        for s, e in self._blocks:
            blk = nets.einsum("i,j->ij", left[s:e], d, out=buf[1:e - s + 1])
            if base is not None:
                self._join(blk, base[s:e] if base.ndim == 2 else base, out=blk)
            self._errors(blk, self.X[s:e], clip, blk)
            buf[0] = sums
            if self._narrow:
                nets.einsum("ij->j", buf[:e - s + 1], out=sums)
            else:
                buf[:e - s + 1].sum(axis=0, out=sums)
        return sums

    # -- public API ------------------------------------------------------------

    def propose(self, coord: Coord, delta: float) -> tuple[float, float]:
        """Stage `coord += delta`; returns ``(before, after)``, the incumbent and
        candidate values of the one objective that judges `coord`."""
        if self._pending is not None:
            raise ParameterError("a proposal is already pending")
        net = self.net
        flat = net.index(coord)
        layer, r, c = coord
        # a bias is a weight on the constant input 1.0: `multiply` broadcasts
        # 1.0 * -delta, which is -delta exactly. Candidates are formed negated,
        # as x * -delta - pre, which is -(pre + x * delta) bit for bit up to the
        # sign of a zero, and the logistic reads them so.
        bias = layer.endswith("bias")
        j = None  # the hidden node whose activation moves
        if layer in nets.TASK_LAYERS:
            # _c3: the negated candidate out_pre
            np.multiply(1.0 if bias else self.h_act[r], -delta, out=self._c3)
            np.subtract(self._c3, self.out_pre, out=self._c3)
        elif layer in ("encoder", "hidden_bias"):
            j = r
            # _c1: the negated candidate pre-activations of node r; _c2 its activations
            np.multiply(1.0 if bias else self.X[:, c], -delta, out=self._c1)
            np.subtract(self._c1, self.h_pre[r], out=self._c1)
            nets.logistic_neg(self._c1, self._c2, _clips(self._node_bound[r], delta))
            # _c3: the activation shift of hidden node r
            np.subtract(self._c2, self.h_act[r], out=self._c3)
            if net.arch == "nn":
                # only the task judges nn, so _c3 becomes the negated candidate out_pre
                np.multiply(self._c3, -net.output_w[r], out=self._c3)
                np.subtract(self._c3, self.out_pre, out=self._c3)
            else:
                g = r if net.arch == "nan" else 0
                sums = self._judge_sums(r, self._c2, self._c3)
                cand = float(sums.sum()) / (self.m * self.n)
                self._pending = (flat, delta, j, g, cand, sums)
                return self.ae[g], cand
        else:
            # a decoder weight or bias: _c1 gets the _sign-oriented candidate
            # pre-activations of the one reconstructed component i it moves,
            # formed as the kernel forms them
            if net.arch == "nan":
                # nan keeps no decoder pre-activations, so component i is rebuilt;
                # a zero added to the unmoved term can only flip the sign of a zero
                g, i = r, c
                d = net.decoder[r, i] + (0.0 if bias else delta)
                np.multiply(self.h_act[r], self._sign * d, out=self._c1)
                if net.decoder_bias is not None:
                    self._join(self._c1, net.decoder_bias[r, i] + (delta if bias else 0.0),
                               out=self._c1)
            else:
                g, i = 0, r
                np.multiply(1.0 if bias else self.h_act[c], self._sign * delta, out=self._c1)
                self._join(self._c1, self.dec_pre[:, i], out=self._c1)
            col = self._errors(self._c1, self.X[:, i], _clips(self._judge_bound[g], delta),
                               self._c2)
            s_new = float(col.sum())
            total = float(self.comp_sums[g].sum()) - float(self.comp_sums[g, i]) + s_new
            cand = total / (self.m * self.n)
            self._pending = (flat, delta, None, g, cand, (i, s_new))
            return self.ae[g], cand
        # a hidden move keeps the output pre-activations within the task bound
        cand = self._task_from(self._c3, delta if j is None else 0.0)
        self._pending = (flat, delta, j, None, cand, None)
        return self.task_mse, cand

    def accept(self) -> None:
        """Apply the pending mutation to the network and commit staged state."""
        if self._pending is None:
            raise ParameterError("no proposal is pending")
        flat, delta, j, g, cand, staged = self._pending
        net = self.net
        net.params[flat] += delta
        if j is not None:
            np.negative(self._c1, out=self.h_pre[j])
            self.h_act[j] = self._c2
            self._node_bound[j] = _bound(net.encoder[j], net.hidden_bias[j])
        if g is None:
            np.negative(self._c3, out=self.out_pre)
            self.task_mse = cand
            if j is None:
                self._task_bound = _bound(net.output_w, net.output_bias)
        elif j is not None:
            # _c3 still holds the activation shift from propose()
            if net.arch == "ann":
                # dec_pre += outer(shift, decoder column j), one block of examples at a time
                for s, e in self._blocks:
                    blk = nets.einsum("i,j->ij", self._c3[s:e], net.decoder[:, j],
                                      out=self._buf[1:e - s + 1])
                    self.dec_pre[s:e] += blk
            # out_pre += shift * output_w[j], formed negated as in propose
            np.multiply(self._c3, -net.output_w[j], out=self._c3)
            np.subtract(self._c3, self.out_pre, out=self._c3)
            np.negative(self._c3, out=self.out_pre)
            self.comp_sums[g] = staged
            self.ae[g] = cand
            self.task_mse = self._task_from(self._c3, 0.0)
        else:
            i, s_new = staged
            if net.arch == "ann":
                np.multiply(self._c1, self._sign, out=self.dec_pre[:, i])
            self.comp_sums[g, i] = s_new
            self.ae[g] = cand
            self._judge_bound[g] = self._decoder_bound(g)
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
