"""The benchmark's workloads: each is one `run_experiment` grid.

All use 1000 train and 1000 test examples and the package's default
hyperparameters (H=10, R=1.0, p_autoencode=0.5, eval_interval=100); only the
cycle count and the run count are cut to fit the run length. Every workload
trains all three architectures, so every per-layer metric is measured on
every workload.
"""

from __future__ import annotations

from dataclasses import dataclass

ARCHS = ("nan", "ann", "nn")
# Coordinate blocks the climber mutates under the default hyperparameters
# (decoder biases are off by default; nn has no decoder).
BLOCKS = {
    "nan": ("encoder", "hidden_bias", "decoder", "output_w", "output_bias"),
    "ann": ("encoder", "hidden_bias", "decoder", "output_w", "output_bias"),
    "nn": ("encoder", "hidden_bias", "output_w", "output_bias"),
}
EXAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    n_grid: tuple
    k_grid: tuple
    runs: int
    iterations: int

    @property
    def cells(self):
        return [(n, k) for n in self.n_grid for k in self.k_grid]

    @property
    def trials(self):
        return len(self.cells) * len(ARCHS) * self.runs


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance small-n grid with a shortened climb: kernels are cheap,
        # so loop glue, RNG calls, snapshots and cycle-log writes dominate.
        Workload("sweep-n20", n_grid=(20,), k_grid=(2, 5, 10, 15), runs=2, iterations=1000),
        # One n=1000 cell with a short climb: encoder proposals and nan's
        # per-neuron snapshots dominate, loop glue is negligible.
        Workload("cell-n1000", n_grid=(1000,), k_grid=(5,), runs=2, iterations=400),
        # The largest default cell with very short climbs: run_trial rebuilds the
        # ~540 MiB landscape per trial, which sets wall time and peak memory.
        Workload("datagen-n1000-k15", n_grid=(1000,), k_grid=(15,), runs=1, iterations=100),
    )
}

# A tiny grid for the checks' self-test; not a benchmark workload.
SELF_TEST = Workload("self-test", n_grid=(20,), k_grid=(2,), runs=1, iterations=300)
