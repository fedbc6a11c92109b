"""Output checks for a finished sweep tree, computed apart from the package.

The package is used only to regenerate each cell's data from its derived
seeds; the seeds themselves, the NK targets, the network evaluators and the
log properties are recomputed here from the files alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import ARCHS, EXAMPLES

TOL = 1e-12
TARGET_SAMPLES = 16
# Seed layout of a sweep: SeedSequence([master, purpose, n, k, arch_code, run]).
PURPOSE_LANDSCAPE, PURPOSE_TRAIN, PURPOSE_TEST, PURPOSE_TRIAL = 1, 2, 3, 4
ARCH_CODES = {"nan": 1, "ann": 2, "nn": 3}
RESULTS_HEADER = "n,k,arch,run,seed,final_train_mse,final_test_mse,final_ae_mse,duration_ms"
CYCLE_HEADER = "iter,kind,coord,delta,obj_before,obj_after,accepted"
SNAPSHOT_HEADER = "iter,train_task_mse,train_ae_mse,test_task_mse"


def derive_seed(master, purpose, n=0, k=0, arch_code=0, run=0):
    ss = np.random.SeedSequence([int(master), purpose, n, k, arch_code, run])
    return int(ss.generate_state(1, np.uint64)[0])


# --- evaluators ---------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _hidden(net, X):
    encoder = np.asarray(net["encoder"])
    return _sigmoid(X @ encoder.T + np.asarray(net["hidden_bias"]))


def task_mse(net, X, y):
    out = _sigmoid(_hidden(net, X) @ np.asarray(net["output_w"]) + net["output_bias"])
    return float(np.mean((out - y) ** 2))


def ae_mse(net, X):
    """nan: mean over neurons of each neuron's reconstruction MSE; ann: layer MSE."""
    hidden = _hidden(net, X)
    if net["arch"] == "nan":
        decoder = np.asarray(net["decoder"])
        per_neuron = [
            np.mean((_sigmoid(np.outer(hidden[:, j], decoder[j])) - X) ** 2)
            for j in range(decoder.shape[0])
        ]
        return float(np.mean(per_neuron))
    return float(np.mean((_sigmoid(hidden @ np.asarray(net["layer_decoder"]).T) - X) ** 2))


def nk_target(land, genome_pm1):
    """Fitness by bit-string table lookup: own bit first, then the neighbours."""
    bits = "".join("1" if v > 0 else "0" for v in genome_pm1)
    total = 0.0
    for i, row in enumerate(land.neighbors):
        key = bits[i] + "".join(bits[j] for j in row)
        total += float(land.tables[i, int(key, 2)])
    return total / land.n


# --- per-file checks --------------------------------------------------------------

def _check_targets(land, dataset, rng, label):
    problems = []
    if not np.all(np.abs(dataset.inputs) == 1.0):
        problems.append(f"{label}: inputs are not all +-1")
    for r in rng.choice(dataset.count, size=min(TARGET_SAMPLES, dataset.count), replace=False):
        want = nk_target(land, dataset.inputs[r])
        if abs(want - dataset.targets[r]) > TOL:
            problems.append(f"{label}: target of example {r} is {dataset.targets[r]!r}, lookup gives {want!r}")
    return problems


def check_cycle_log(path, iterations):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CYCLE_HEADER:
        return [f"{path.name}: bad header"]
    rows = lines[1:]
    if len(rows) != iterations:
        return [f"{path.name}: {len(rows)} rows for {iterations} cycles"]
    for expect_iter, line in enumerate(rows, start=1):
        fields = line.split(",")
        if len(fields) != 7 or fields[0] != str(expect_iter) or fields[6] not in ("0", "1"):
            return [f"{path.name}: malformed row {expect_iter}: {line!r}"]
        before, after = float(fields[4]), float(fields[5])
        if fields[6] == "1" and after > before:
            return [f"{path.name}: row {expect_iter} accepted a worse objective"]
        if fields[6] == "0" and after < before:
            return [f"{path.name}: row {expect_iter} rejected a better objective"]
    return []


def check_snapshots(path, arch, iterations, eval_interval):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        return [f"{path.name}: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(eval_interval, iterations + 1, eval_interval)):
        return [f"{path.name}: snapshot iterations do not follow the eval interval"]
    column = 1 if arch == "nn" else 2   # the objective autoencode cycles are judged on
    judged = [float(r[column]) for r in rows]
    for i in range(1, len(judged)):
        if judged[i] > judged[i - 1] + TOL:
            return [f"{path.name}: judged objective rose at snapshot {rows[i][0]}"]
    return []


def _read_results(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        raise ValueError("results.csv: bad header")
    rows = {}
    for line in lines[1:]:
        n, k, arch, run, seed, train, test, ae, _ = line.split(",")
        rows[(int(n), int(k), arch, int(run))] = (int(seed), float(train), float(test), ae)
    return rows


def _check_trial(tree, n, k, arch, run, row, master_seed, train_set, test_set,
                 iterations, eval_interval):
    label = f"n{n}_k{k}/{arch}_run{run:02d}"
    base = Path(tree) / f"n{n}_k{k}" / f"{arch}_run{run:02d}"
    seed, train_mse, test_mse, ae_cell = row
    problems = []
    if seed != derive_seed(master_seed, PURPOSE_TRIAL, n, k, ARCH_CODES[arch], run):
        problems.append(f"{label}: trial seed {seed} does not follow the seed layout")
    net = json.loads(base.with_name(base.name + "_network.json").read_text(encoding="utf-8"))
    if net["arch"] != arch or net.get("decoder_activation", "sigmoid") != "sigmoid" or \
            net.get("decoder_bias") is not None or net.get("layer_decoder_bias") is not None:
        problems.append(f"{label}: network is not a default {arch} network")
        return problems
    recomputed = {
        "final_train_mse": (task_mse(net, train_set.inputs, train_set.targets), train_mse),
        "final_test_mse": (task_mse(net, test_set.inputs, test_set.targets), test_mse),
    }
    if arch == "nn":
        if ae_cell:
            problems.append(f"{label}: nn has a reconstruction MSE")
    else:
        recomputed["final_ae_mse"] = (ae_mse(net, train_set.inputs), float(ae_cell) if ae_cell else None)
    for column, (want, got) in recomputed.items():
        if got is None or abs(want - got) > TOL:
            problems.append(f"{label}: {column} is {got!r}, recomputed {want!r}")
    problems += check_cycle_log(base.with_name(base.name + "_cycles.csv"), iterations)
    problems += check_snapshots(
        base.with_name(base.name + "_snapshots.csv"), arch, iterations, eval_interval)
    return problems


def check_tree(tree, workload, master_seed):
    """Every problem found in a finished sweep tree; an empty list means it passed."""
    import nkae

    eval_interval = nkae.TrainConfig().eval_interval
    try:
        rows = _read_results(Path(tree) / "results.csv")
    except (OSError, ValueError) as exc:
        return [f"results.csv: {exc}"]
    expected = {(n, k, a, r) for n, k in workload.cells for a in ARCHS for r in range(workload.runs)}
    if set(rows) != expected:
        return [f"results.csv: rows {sorted(set(rows) ^ expected)[:4]} differ from the grid"]
    rng = np.random.default_rng(master_seed)
    problems = []
    for n, k in workload.cells:
        land = nkae.nk_new(n, k, derive_seed(master_seed, PURPOSE_LANDSCAPE, n, k))
        train_set = nkae.gen_dataset(land, EXAMPLES, derive_seed(master_seed, PURPOSE_TRAIN, n, k))
        test_set = nkae.gen_dataset(land, EXAMPLES, derive_seed(master_seed, PURPOSE_TEST, n, k))
        problems += _check_targets(land, train_set, rng, f"n{n}_k{k} train")
        problems += _check_targets(land, test_set, rng, f"n{n}_k{k} test")
        del land
        for arch in ARCHS:
            for run in range(workload.runs):
                try:
                    problems += _check_trial(
                        tree, n, k, arch, run, rows[(n, k, arch, run)], master_seed,
                        train_set, test_set, workload.iterations, eval_interval)
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"n{n}_k{k}/{arch}_run{run:02d}: unreadable: {exc!r}")
    return problems


def _tree_files(root):
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): p
        for p in root.rglob("*")
        if p.is_file() and p.relative_to(root).as_posix() != "timings.csv"
    }


def compare_trees(a, b):
    """Problems if two sweep trees differ in any byte apart from timings.csv."""
    files_a, files_b = _tree_files(a), _tree_files(b)
    if files_a.keys() != files_b.keys():
        return [f"trees differ in file set: {sorted(files_a.keys() ^ files_b.keys())[:4]}"]
    for rel in sorted(files_a):
        if files_a[rel].read_bytes() != files_b[rel].read_bytes():
            return [f"trees differ in {rel}"]
    return []


def tree_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())
