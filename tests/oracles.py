"""Independent reference implementations the tests check the library against.

Everything here is written from the definitions with plain Python loops,
string-built table indices and math.exp, deliberately sharing no code with
the package. The one exception is the reference climb, which scores its
proposals with the package's `EvalCache`: it is the reference for the
climber's draws and bookkeeping, which it takes from scalar `Generator`
calls, one cycle at a time.
"""

import math

import numpy as np

from nkae import EvalCache, ParameterError
from nkae import networks as nets
from nkae.hillclimb import KIND_AUTOENCODE, KIND_TASK, CycleRecord
from nkae.networks import TASK_LAYERS


# --- NK model ----------------------------------------------------------------

def oracle_gene_contribution(tables, neighbors, i, genome):
    """Table lookup with the index built as a bit string: own gene first."""
    bits = str(int(genome[i])) + "".join(str(int(genome[j])) for j in neighbors[i])
    return tables[i][int(bits, 2)]


def oracle_fitness(tables, neighbors, genome):
    n = len(tables)
    total = 0.0
    for i in range(n):
        total += oracle_gene_contribution(tables, neighbors, i, genome)
    return total / n


def all_genomes(n):
    for value in range(2 ** n):
        yield [(value >> (n - 1 - i)) & 1 for i in range(n)]


# --- network evaluation --------------------------------------------------------

def _sig(x):
    return 1.0 / (1.0 + math.exp(-min(max(x, -500.0), 500.0)))


def _dec(act_name, x):
    if act_name == "sigmoid":
        return _sig(x)
    if act_name == "tanh":
        return math.tanh(x)
    return x


def oracle_hidden(net, j, x):
    pre = float(net.hidden_bias[j])
    for i in range(net.n):
        pre += float(net.encoder[j, i]) * float(x[i])
    return _sig(pre)


def oracle_forward(net, x):
    pre = float(net.output_bias)
    for j in range(net.h):
        pre += float(net.output_w[j]) * oracle_hidden(net, j, x)
    return _sig(pre)


def oracle_task_mse(net, dataset):
    total = 0.0
    for x, y in zip(dataset.inputs, dataset.targets):
        total += (oracle_forward(net, x) - float(y)) ** 2
    return total / dataset.count


def oracle_neuron_ae_mse(net, j, dataset):
    total = 0.0
    for x in dataset.inputs:
        act = oracle_hidden(net, j, x)
        for i in range(net.n):
            pre = float(net.decoder[j, i]) * act
            if net.decoder_bias is not None:
                pre += float(net.decoder_bias[j, i])
            total += (_dec(net.decoder_activation, pre) - float(x[i])) ** 2
    return total / (dataset.count * net.n)


def oracle_layer_ae_mse(net, dataset):
    total = 0.0
    for x in dataset.inputs:
        hidden = [oracle_hidden(net, j, x) for j in range(net.h)]
        for i in range(net.n):
            pre = 0.0
            for j in range(net.h):
                pre += float(net.decoder[i, j]) * hidden[j]
            if net.decoder_bias is not None:
                pre += float(net.decoder_bias[i])
            total += (_dec(net.decoder_activation, pre) - float(x[i])) ** 2
    return total / (dataset.count * net.n)


def oracle_objective(net, coord, dataset):
    if coord.layer in ("output_w", "output_bias") or net.arch == "nn":
        return oracle_task_mse(net, dataset)
    if net.arch == "nan":
        return oracle_neuron_ae_mse(net, coord.row, dataset)
    return oracle_layer_ae_mse(net, dataset)


# --- the climb, one scalar Generator call per draw --------------------------------

def choose_cycle(rng, config):
    """Autoencode with probability p_autoencode, else task (one draw)."""
    return KIND_AUTOENCODE if rng.random() < config.p_autoencode else KIND_TASK


def pick_coordinate(network, kind, rng):
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


def propose_and_test(cache, coord, rng, config, *, iteration=0):
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


def reference_climb(arch, train_set, config):
    """The network and cycle records of `train`'s climb, drawn by scalar calls."""
    rng = np.random.default_rng(config.seed)
    net = nets.init_network(arch, train_set.n, config, rng)
    cache = EvalCache(net, train_set)
    records = []
    for iteration in range(1, config.iterations + 1):
        coord = pick_coordinate(net, choose_cycle(rng, config), rng)
        records.append(propose_and_test(cache, coord, rng, config, iteration=iteration)[1])
    return net, records


# --- run-log audits --------------------------------------------------------------

def objective_thread(arch, record):
    """Which monotone objective stream a cycle record belongs to."""
    if record.kind == "task" or arch == "nn":
        return "task"
    if arch == "ann":
        return "layer"
    return ("neuron", record.coord.row)


def monotonicity_violations(arch, records):
    """Check every monotone objective stream for chain consistency.

    Streams: task MSE for nn (every cycle evaluates it), per-neuron
    reconstruction MSE for nan, layer reconstruction MSE for ann. For
    nan/ann the task stream is legitimately shifted by accepted hidden
    mutations, so its chain restarts after any accepted autoencode cycle
    and only the per-record accept/reject direction is asserted.

    Returns a list of human-readable violations; empty means no monotone
    stream ever increased and every before-value matched the stream's
    running value exactly.
    """
    incumbent = {}
    violations = []
    for rec in records:
        key = objective_thread(arch, rec)
        if key in incumbent and rec.objective_before != incumbent[key]:
            violations.append(
                f"iter {rec.iteration}: before {rec.objective_before!r} != "
                f"incumbent {incumbent[key]!r} for stream {key}"
            )
        if rec.accepted:
            if rec.objective_after > rec.objective_before:
                violations.append(
                    f"iter {rec.iteration}: accepted but objective rose "
                    f"{rec.objective_before!r} -> {rec.objective_after!r}"
                )
            incumbent[key] = rec.objective_after
            if arch != "nn" and key != "task":
                # hidden move changed the incumbent's task MSE unobserved
                incumbent.pop("task", None)
        else:
            if rec.objective_after < rec.objective_before:
                violations.append(
                    f"iter {rec.iteration}: rejected despite improvement "
                    f"{rec.objective_before!r} -> {rec.objective_after!r}"
                )
            incumbent[key] = rec.objective_before
    return violations


def replay_final_network(arch, n, config, records):
    """Rebuild the final network from the seed and the accepted deltas alone.

    Any mutation leaked by a rejected proposal would make this replay diverge
    from the trainer's final network bit-for-bit.
    """
    rng = np.random.default_rng(config.seed)
    net = nets.init_network(arch, n, config, rng)
    for rec in records:
        if rec.accepted:
            net.params[net.index(rec.coord)] += rec.delta
    return net


def same_network(a, b):
    """Same arch and shape, and bit-for-bit equal parameters."""
    return (a.arch, a.n, a.h) == (b.arch, b.n, b.h) and np.array_equal(a.params, b.params)
