"""In-memory spans around the public functions of each nkae layer.

`install` replaces module attributes and `EvalCache` methods with wrappers
that open a span per call; the package itself is not edited. Spans are
aggregated as they close, keyed by (parent span, span), so memory stays
constant however many cycles a sweep runs. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time

import numpy as np


class Tracer:
    def __init__(self):
        # (parent, name) -> [calls, total seconds, seconds covered by children]
        self.spans: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        # (arch, block) -> [proposals, accepts, ties], read from each RunLog
        self.climb_counts: dict[tuple[str, str], list] = {}
        self.cycles: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, 0.0, time.perf_counter()])

    def exit(self) -> None:
        end = time.perf_counter()
        name, child, start = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else ""
        entry = self.spans.get((parent, name))
        if entry is None:
            entry = self.spans[(parent, name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += child
        if self._stack:
            self._stack[-1][1] += duration

    def count_log(self, arch: str, log) -> None:
        self.cycles[arch] = self.cycles.get(arch, 0) + len(log.records)
        for record in log.records:
            counts = self.climb_counts.setdefault((arch, record.coord.layer), [0, 0, 0])
            counts[0] += 1
            counts[1] += record.accepted
            counts[2] += record.objective_after == record.objective_before

    def by_name(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, child) in self.spans.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += total - child
        return out

    def dump(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls,
             "total_s": total, "self_s": total - child}
            for (parent, name), (calls, total, child) in sorted(self.spans.items())
        ]


def _wrap(patches, tracer, owner, attr, name_of):
    original = getattr(owner, attr)

    def traced(*args, **kwargs):
        tracer.enter(name_of(*args))
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit()

    patches.append((owner, attr, original))
    setattr(owner, attr, traced)


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns an undo callable."""
    from nkae import experiments, hillclimb, incremental, landscape, networks

    patches: list = []

    def fixed(name):
        return lambda *args: name

    _wrap(patches, tracer, landscape, "nk_new", fixed("landscape.nk_new"))
    _wrap(patches, tracer, landscape, "gen_dataset", fixed("landscape.gen_dataset"))
    _wrap(patches, tracer, networks, "init_network", fixed("networks.init_network"))
    _wrap(patches, tracer, networks, "task_mse", fixed("networks.task_mse"))
    _wrap(patches, tracer, networks, "ae_mse", lambda net, *a: f"networks.ae_mse.{net.arch}")
    _wrap(patches, tracer, networks, "save_network", fixed("networks.save_network"))
    _wrap(patches, tracer, incremental.EvalCache, "refresh",
          lambda cache: f"incremental.refresh.{cache.net.arch}")
    _wrap(patches, tracer, hillclimb, "write_cycle_log", fixed("hillclimb.write_cycle_log"))
    _wrap(patches, tracer, hillclimb, "write_snapshot_log", fixed("hillclimb.write_snapshot_log"))
    _wrap(patches, tracer, experiments, "run_trial", fixed("experiments.run_trial"))

    # propose names its block; accept inherits the block of the pending proposal.
    pending = [""]

    def propose_name(cache, coord, *a):
        pending[0] = f"{cache.net.arch}.{coord.layer}"
        return "incremental.propose." + pending[0]

    _wrap(patches, tracer, incremental.EvalCache, "propose", propose_name)
    _wrap(patches, tracer, incremental.EvalCache, "accept",
          lambda cache: "incremental.accept." + pending[0])

    # train: its span, then the RunLog counts in a span of their own so that
    # reading the log is not charged to run_trial's self time.
    original_train = hillclimb.train

    def traced_train(arch, *args, **kwargs):
        tracer.enter(f"hillclimb.train.{arch}")
        try:
            network, log = original_train(arch, *args, **kwargs)
        finally:
            tracer.exit()
        tracer.enter("trace.count_log")
        tracer.count_log(arch, log)
        tracer.exit()
        return network, log

    patches.append((hillclimb, "train", original_train))
    hillclimb.train = traced_train

    def undo():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


def _random_coord(nkae, net, block, rng):
    h, n = net.h, net.n
    j = int(rng.integers(h))
    if block == "encoder":
        return nkae.Coord("encoder", j, int(rng.integers(n)))
    if block == "decoder":
        i = int(rng.integers(n))
        return nkae.Coord("decoder", j, i) if net.arch == "nan" else nkae.Coord("decoder", i, j)
    if block == "output_bias":
        return nkae.Coord("output_bias", 0, 0)
    return nkae.Coord(block, j, 0)


def top_up_blocks(tracer, networks_by_arch, train_set, blocks, min_calls, seed):
    """Probe blocks the sweep proposed or accepted fewer than `min_calls` times.

    At n=1000 only 10 of ~20 000 autoencode coordinates are hidden biases, so
    a short climb may never touch that block; its per-call cost is then
    measured by proposing and accepting random coordinates of the block on a
    copy of a trained network, through the same wrapped methods.
    """
    import nkae

    rng = np.random.default_rng(seed)
    spans = tracer.by_name()
    for arch, network in networks_by_arch.items():
        cache = nkae.EvalCache(network, train_set)
        for block in blocks[arch]:
            proposed = spans.get(f"incremental.propose.{arch}.{block}", [0])[0]
            accepted = spans.get(f"incremental.accept.{arch}.{block}", [0])[0]
            for _ in range(min_calls - min(proposed, accepted)):
                cache.propose(_random_coord(nkae, network, block, rng), float(rng.uniform(-1, 1)))
                cache.accept()
