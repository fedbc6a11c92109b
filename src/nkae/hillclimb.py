"""Interleaved autoencode/task random hill climbing.

Each cycle: pick a cycle kind (autoencode with probability `p_autoencode`),
pick one coordinate uniformly from that kind's pool (task cycles draw from
the output node's weights and bias; autoencode cycles from everything
attached to the hidden layer, decoders included), add a uniform delta from
[-r, +r], and keep the change only if the cycle's objective does not get
worse (strict improvement accepts; an exact tie accepts with probability
0.5; anything else reverts exactly).

Objectives per cycle kind: task cycles score supervised MSE for every
architecture. Autoencode cycles score the owning neuron's reconstruction
MSE (nan), the decoder layer's reconstruction MSE (ann), or — lacking any
decoder — supervised MSE again (nn), which preserves the per-layer mutation
budget for a fair comparison.

A run is a pure function of its config seed. The RNG stream is consumed in
a fixed order: network init, then per cycle one `random()` for the kind,
one `integers()` for the coordinate, one `uniform()` for the delta, and one
`random()` only when a tie must be broken. The climb does not call the
`Generator` for these: `RawDraws` decodes them from PCG64's raw output
words, as numpy's C code does. So identical bytes depend on numpy's
`Generator` algorithms as well as on PCG64, and `tests/test_hillclimb.py`
checks the decoding against `Generator` calls on the installed numpy.

A `RunLog` keeps the cycles as columns (coordinate, delta, objective
before and after, accepted); `RunLog.records` derives one `CycleRecord`
per cycle from them, and `write_cycle_log` formats them column-wise.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import sys
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path

import numpy as np

from .errors import InternalError, ParameterError, float_cell, opt_float, read_csv, write_csv
from .incremental import AUDIT_TOL, EvalCache, scratch_divergence, scratch_objectives
from .landscape import Dataset
from . import networks as nets
from .networks import TASK_LAYERS, Coord, parse_coord

KIND_AUTOENCODE = "autoencode"
KIND_TASK = "task"


@dataclass
class TrainConfig:
    """Hill-climber hyperparameters (defaults: 10000 cycles, H=10, R=1.0)."""

    seed: int = 0
    iterations: int = 10000
    r: float = 1.0
    h: int = 10
    p_autoencode: float = 0.5
    decoder_activation: str = "sigmoid"
    decoder_bias: bool = False
    eval_interval: int = 100

    def __post_init__(self):
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        # rng.uniform(-r, r) overflows unless 2 * r is finite
        if not (self.r > 0 and np.isfinite(2 * self.r)):
            raise ParameterError(f"r must be > 0 with 2 * r finite, got {self.r}")
        if self.h < 1:
            raise ParameterError(f"h must be >= 1, got {self.h}")
        if not 0.0 <= self.p_autoencode <= 1.0:
            raise ParameterError(f"p_autoencode must lie in [0, 1], got {self.p_autoencode}")
        if self.eval_interval < 1:
            raise ParameterError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.decoder_activation not in nets.DECODER_ACTIVATIONS:
            raise ParameterError(
                f"decoder_activation must be one of {nets.DECODER_ACTIVATIONS}, "
                f"got {self.decoder_activation!r}"
            )


@dataclass
class CycleRecord:
    iteration: int
    kind: str
    coord: Coord
    delta: float
    objective_before: float
    objective_after: float
    accepted: bool


@dataclass
class Snapshot:
    iteration: int
    train_task_mse: float
    train_ae_mse: float | None
    test_task_mse: float | None


@dataclass
class RunLog:
    """Complete, replayable trace of one training run.

    Cycle i (from 1) is entry i - 1 of each cycle column: the coordinate it
    mutated, its delta, the objective before and after, and whether the
    proposal was accepted. The columns hold Python floats and bools.
    """

    coords: list[Coord] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    before: list[float] = field(default_factory=list)
    after: list[float] = field(default_factory=list)
    accepted: list[bool] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    final_train_task_mse: float = 0.0
    final_test_task_mse: float | None = None
    final_ae_mse: float | None = None
    # max |cached - from-scratch| objective over the final network; see `train`
    audit_divergence: float | None = None

    @property
    def records(self) -> list[CycleRecord]:
        """One `CycleRecord` per cycle, built from the columns on each read."""
        return [
            CycleRecord(i, _kind(coord.layer), coord, *cells)
            for i, coord, *cells in zip(count(1), self.coords, self.deltas, self.before,
                                        self.after, self.accepted)
        ]


def _kind(layer: str) -> str:
    return KIND_TASK if layer in TASK_LAYERS else KIND_AUTOENCODE


# Raw words read per `random_raw` call: about 400 cycles' worth of draws.
RAW_BLOCK = 1024


class RawDraws:
    """The scalar draws of a PCG64 `np.random.Generator`, replayed from raw words.

    Each method returns what the `Generator` method of its name returns at
    the same point of the stream, decoded from the 64-bit output words as
    numpy's C code does (O'Neill, "PCG", 2014; Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 2019). The reader reads blocks of
    `RAW_BLOCK` words through `bit_generator.random_raw` ahead of its draws,
    so the generator must not be drawn from once a reader takes it over.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        if state["bit_generator"] != "PCG64":
            raise ParameterError(f"RawDraws replays PCG64 only, got {state['bit_generator']}")
        blocks = iter(lambda: bitgen.random_raw(RAW_BLOCK).tolist(), None)
        self._word = chain.from_iterable(blocks).__next__
        # PCG64 serves 32-bit draws low half first and keeps the high half for
        # the next one; a generator may hand over such a kept half
        self._half = state["uinteger"] if state["has_uint32"] else None

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of one word, times 2**-53."""
        return (self._word() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """Uniform in [0, n) for 1 <= n <= 2**32, by Lemire's bounded 32-bit draw.

        `n == 1` reads nothing. Above 2**32 numpy switches to a 64-bit draw,
        which is not replayed: ParameterError.
        """
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ParameterError(f"integers(n) is replayed for 1 <= n <= 2**32, got n={n}")
        # at n == 2**32 the threshold is 0 and the draw is the plain 32-bit
        # half, as numpy takes it
        threshold = (1 << 32) % n
        while True:
            half = self._half
            if half is None:
                word = self._word()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            scaled = half * n
            if scaled & 0xFFFFFFFF >= threshold:
                return scaled >> 32


def _snapshot(cache, test_set, iteration):
    """Train-set values from the cache; the test-set task MSE from scratch."""
    return Snapshot(
        iteration,
        cache.task_mse,
        nets.mean_ae_mse(cache.ae),
        None if test_set is None else nets.task_mse(cache.net, test_set),
    )


@functools.cache
def _blas_threads():
    """The getter and setter of the thread count of the OpenBLAS that numpy 2
    bundles (scipy-openblas), or None, with one warning on stderr, for another
    BLAS. Loading numpy's own extension module finds them among its libraries."""
    try:
        from numpy._core import _multiarray_umath as umath
        lib = ctypes.CDLL(umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        print("nkae: numpy's BLAS is not its bundled OpenBLAS, so runs are not pinned to one "
              "BLAS thread; at n=1000 their bytes may depend on the thread count",
              file=sys.stderr)
        return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run with one OpenBLAS thread and restore the count afterwards. At
    n=1000 the products ``X @ encoder.T`` round differently with two threads
    than with one, so a run's bytes would depend on the host."""
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_to = threads
    saved = get()
    set_to(1)
    try:
        yield
    finally:
        set_to(saved)


@_one_blas_thread()
def train(
    arch: str,
    train_set: Dataset,
    test_set: Dataset | None,
    config: TrainConfig,
) -> tuple[object, RunLog]:
    """Run the full hill climb; returns the incumbent network and its log.

    Per-cycle objectives come from the incremental `EvalCache`, and so do
    the train-set values of every snapshot taken before the last cycle; the
    test-set task MSE is evaluated from scratch. After the last cycle the
    cache is dropped, which frees ann's (m, n) decoder pre-activations, and
    the final network is scored from scratch once: task MSE on both sets and
    every judge's reconstruction MSE. Those are the final metrics, and the
    last snapshot when `eval_interval` divides `iterations`.

    That pass also audits the cache: `log.audit_divergence` is the max
    |cached - from-scratch| over the task MSE and every judge. Above
    `AUDIT_TOL` (or NaN) it raises InternalError.

    It runs with one OpenBLAS thread (`_one_blas_thread`), so its bytes do not
    depend on the caller's BLAS thread count.
    """
    if test_set is not None and test_set.n != train_set.n:
        raise ParameterError(
            f"train and test sets must share input width, got {train_set.n} and {test_set.n}"
        )
    rng = np.random.default_rng(config.seed)
    network = nets.init_network(arch, train_set.n, config, rng)
    cache = EvalCache(network, train_set)
    log = RunLog()
    draws = RawDraws(rng)
    random, integers, uniform = draws.random, draws.integers, draws.uniform
    coord_at = functools.cache(network.coord)
    propose, accept, reject = cache.propose, cache.accept, cache.reject
    coords, deltas, befores, afters, accepts = (
        column.append for column in (log.coords, log.deltas, log.before, log.after, log.accepted))
    # the autoencode pool is flat indices [0, task_start), the task pool the rest
    start = network.task_start
    task_pool = network.params.size - start
    p_autoencode, r = config.p_autoencode, config.r
    iterations, interval = config.iterations, config.eval_interval
    for iteration in range(1, iterations + 1):
        u = integers(start) if random() < p_autoencode else start + integers(task_pool)
        coord = coord_at(u)
        delta = uniform(-r, r)
        before, after = propose(coord, delta)
        # strict improvement accepts, an exact tie with probability 0.5 (one more draw)
        accepted = after < before or (after == before and random() < 0.5)
        if accepted:
            accept()
        else:
            reject()
        coords(coord)
        deltas(delta)
        befores(before)
        afters(after)
        accepts(accepted)
        if iteration % interval == 0 and iteration < iterations:
            log.snapshots.append(_snapshot(cache, test_set, iteration))
    cached = cache.task_mse, cache.ae
    # frees ann's (m, n) dec_pre before the scratch pass allocates its own
    del cache, propose, accept, reject
    scratch = scratch_objectives(network, train_set)
    log.audit_divergence = scratch_divergence(cached, scratch)
    if not log.audit_divergence <= AUDIT_TOL:
        raise InternalError(
            f"{arch} run with seed {config.seed}: the incremental cache is "
            f"{log.audit_divergence!r} from the from-scratch objectives (> {AUDIT_TOL})"
        )
    log.final_train_task_mse = scratch[0]
    log.final_ae_mse = nets.mean_ae_mse(scratch[1])
    log.final_test_task_mse = None if test_set is None else nets.task_mse(network, test_set)
    if config.iterations % config.eval_interval == 0:
        log.snapshots.append(Snapshot(config.iterations, log.final_train_task_mse,
                                      log.final_ae_mse, log.final_test_task_mse))
    return network, log


# --- log serialization ------------------------------------------------------
# (`benchmarks/tracing.py` times the two log writers by their names here)

CYCLE_HEADER = "iter,kind,coord,delta,obj_before,obj_after,accepted"
# %r writes the exact repr of a float: a RunLog's columns hold Python floats;
# the obj_before cell comes already formatted (see `write_cycle_log`)
CYCLE_ROW = "%d,%s,%s:%d:%d,%r,%s,%r,%d\n"
SNAPSHOT_HEADER = "iter,train_task_mse,train_ae_mse,test_task_mse"


def write_cycle_log(log: RunLog, path) -> None:
    """One CSV row per cycle of `log`, formatted column-wise by one `%` template and not
    by `errors.write_csv`: float reprs already take about 4 of its 6 ms per 1000 cycles.

    `before` holds the incumbent objective, one float object for every cycle
    until an accept replaces it, so each distinct object is formatted once.
    The memo is keyed on the objects' ids, which the list keeps alive, and not
    on their values, under which 0.0 and -0.0 would share a repr and NaNs
    would miss."""
    layers, rows, cols = tuple(zip(*log.coords)) or ((), (), ())
    ids = list(map(id, log.before))
    objects = dict(zip(ids, log.before))
    reprs = dict(zip(objects, map(repr, objects.values())))
    columns = (count(1), map(_kind, layers), layers, rows, cols,
               log.deltas, map(reprs.__getitem__, ids), log.after, log.accepted)
    lines = map(CYCLE_ROW.__mod__, zip(*columns))
    Path(path).write_text(CYCLE_HEADER + "\n" + "".join(lines), encoding="utf-8")


def read_cycle_log(path) -> list[CycleRecord]:
    rows = read_csv(path, CYCLE_HEADER, (int, str, parse_coord, float, float, float, int))
    return [CycleRecord(*row[:6], row[6] == 1) for row in rows]


def write_snapshot_log(snapshots, path) -> None:
    rows = ([str(s.iteration), float_cell(s.train_task_mse), float_cell(s.train_ae_mse),
             float_cell(s.test_task_mse)] for s in snapshots)
    write_csv(path, SNAPSHOT_HEADER, rows)


def read_snapshot_log(path) -> list[Snapshot]:
    rows = read_csv(path, SNAPSHOT_HEADER, (int, float, opt_float, opt_float))
    return [Snapshot(*row) for row in rows]
