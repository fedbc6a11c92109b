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
`random()` only when a tie must be broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InternalError, ParameterError
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
        if not self.r > 0:
            raise ParameterError(f"r must be > 0, got {self.r}")
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
    """Complete, replayable trace of one training run."""

    arch: str
    config: TrainConfig
    records: list[CycleRecord] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    final_network: object = None
    final_train_task_mse: float = 0.0
    final_test_task_mse: float | None = None
    final_ae_mse: float | None = None
    # max |cached - from-scratch| objective over the final network; see `train`
    audit_divergence: float | None = None


def choose_cycle(rng: np.random.Generator, config: TrainConfig) -> str:
    """Autoencode with probability p_autoencode, else task (one draw)."""
    return KIND_AUTOENCODE if rng.random() < config.p_autoencode else KIND_TASK


def pick_coordinate(network, kind: str, rng: np.random.Generator) -> Coord:
    """Uniform draw over the cycle kind's coordinate pool.

    The autoencode pool is the flat indices [0, task_start), the task pool
    the rest; see `networks` for the layout.
    """
    start = network.task_start
    if kind == KIND_TASK:
        return network.coord(start + int(rng.integers(network.params.size - start)))
    if kind == KIND_AUTOENCODE:
        return network.coord(int(rng.integers(start)))
    raise ParameterError(f"unknown cycle kind {kind!r}")


def propose_and_test(
    cache: EvalCache,
    coord: Coord,
    rng: np.random.Generator,
    config: TrainConfig,
    *,
    iteration: int = 0,
) -> tuple[bool, CycleRecord]:
    """Mutate one coordinate of `cache.net` by a uniform delta; keep it only if not worse.

    Accepts iff the cycle objective strictly improves; exact ties accept
    with probability 0.5 (one extra draw); otherwise the proposal is
    dropped and the incumbent is untouched.
    """
    delta = float(rng.uniform(-config.r, config.r))
    kind = KIND_TASK if coord.layer in TASK_LAYERS else KIND_AUTOENCODE
    before = cache.objective_for(coord)
    after = cache.propose(coord, delta)
    if after < before:
        accepted = True
    elif after == before:
        accepted = bool(rng.random() < 0.5)
    else:
        accepted = False
    if accepted:
        cache.accept()
    else:
        cache.reject()
    return accepted, CycleRecord(iteration, kind, coord, delta, before, after, accepted)


def _snapshot(cache, test_set, iteration):
    """Train-set values from the cache; the test-set task MSE from scratch."""
    return Snapshot(
        iteration,
        cache.task_mse,
        nets.mean_ae_mse(cache.ae),
        None if test_set is None else nets.task_mse(cache.net, test_set),
    )


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
    """
    if arch not in nets.ARCHS:
        raise ParameterError(f"arch must be one of {nets.ARCHS}, got {arch!r}")
    if train_set.count == 0:
        raise ParameterError("training set must contain at least one example")
    if test_set is not None and test_set.n != train_set.n:
        raise ParameterError(
            f"train and test sets must share input width, got {train_set.n} and {test_set.n}"
        )
    rng = np.random.default_rng(config.seed)
    network = nets.init_network(arch, train_set.n, config, rng)
    cache = EvalCache(network, train_set)
    log = RunLog(arch, config)
    records = log.records
    for iteration in range(1, config.iterations + 1):
        kind = choose_cycle(rng, config)
        coord = pick_coordinate(network, kind, rng)
        _, record = propose_and_test(cache, coord, rng, config, iteration=iteration)
        records.append(record)
        if iteration % config.eval_interval == 0 and iteration < config.iterations:
            log.snapshots.append(_snapshot(cache, test_set, iteration))
    cached = cache.task_mse, cache.ae
    del cache  # frees ann's (m, n) dec_pre before the scratch pass allocates its own
    scratch = scratch_objectives(network, train_set)
    log.audit_divergence = scratch_divergence(cached, scratch)
    if not log.audit_divergence <= AUDIT_TOL:
        raise InternalError(
            f"{arch} run with seed {config.seed}: the incremental cache is "
            f"{log.audit_divergence!r} from the from-scratch objectives (> {AUDIT_TOL})"
        )
    log.final_network = network.copy()
    log.final_train_task_mse = scratch[0]
    log.final_ae_mse = nets.mean_ae_mse(scratch[1])
    log.final_test_task_mse = None if test_set is None else nets.task_mse(network, test_set)
    if config.iterations % config.eval_interval == 0:
        log.snapshots.append(Snapshot(config.iterations, log.final_train_task_mse,
                                      log.final_ae_mse, log.final_test_task_mse))
    return network, log


# --- log serialization ------------------------------------------------------

CYCLE_HEADER = "iter,kind,coord,delta,obj_before,obj_after,accepted"
SNAPSHOT_HEADER = "iter,train_task_mse,train_ae_mse,test_task_mse"


def _fmt(value) -> str:
    """A float artifact cell: the exact repr, or empty for None."""
    return "" if value is None else repr(float(value))


def _opt_float(cell: str) -> float | None:
    return float(cell) if cell else None


def _read_csv(path, header: str, parsers) -> list[list]:
    """The rows of a CSV artifact, cell i converted by parsers[i].

    A wrong header, a row of the wrong width or a cell its parser rejects
    raises ParameterError naming the file and line.
    """
    rows = []
    names = header.split(",")
    with Path(path).open(encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ParameterError(f"{path}:1: expected header {header!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(names):
                raise ParameterError(
                    f"{path}:{lineno}: expected {len(names)} cells, got {len(cells)}"
                )
            row = []
            for name, parse, cell in zip(names, parsers, cells):
                try:
                    row.append(parse(cell))
                except ValueError:
                    raise ParameterError(f"{path}:{lineno}: invalid {name} {cell!r}") from None
            rows.append(row)
    return rows


def write_cycle_log(records, path) -> None:
    lines = [CYCLE_HEADER]
    for r in records:
        lines.append(
            f"{r.iteration},{r.kind},{r.coord},{_fmt(r.delta)},"
            f"{_fmt(r.objective_before)},{_fmt(r.objective_after)},{int(r.accepted)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_cycle_log(path) -> list[CycleRecord]:
    rows = _read_csv(path, CYCLE_HEADER, (int, str, parse_coord, float, float, float, int))
    return [CycleRecord(*row[:6], row[6] == 1) for row in rows]


def write_snapshot_log(snapshots, path) -> None:
    lines = [SNAPSHOT_HEADER]
    for s in snapshots:
        lines.append(
            f"{s.iteration},{_fmt(s.train_task_mse)},{_fmt(s.train_ae_mse)},{_fmt(s.test_task_mse)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_snapshot_log(path) -> list[Snapshot]:
    rows = _read_csv(path, SNAPSHOT_HEADER, (int, float, _opt_float, _opt_float))
    return [Snapshot(*row) for row in rows]
