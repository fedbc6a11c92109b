"""NK-landscape regression benchmarks for hill-climbed feedforward networks
with per-neuron autoencoding."""

from .errors import InapplicableTestError, InternalError, ParameterError
from .landscape import (
    Dataset,
    NkLandscape,
    gen_dataset,
    fitness_batch,
    load_dataset,
    load_landscape,
    nk_datasets,
    nk_new,
    save_dataset,
    save_landscape,
)
from .networks import (
    Coord,
    Network,
    ae_mse,
    init_network,
    layer_ae_mse,
    load_network,
    neuron_ae_mse,
    save_network,
    task_mse,
)
from .incremental import EvalCache
from .hillclimb import (
    CycleRecord,
    RunLog,
    Snapshot,
    TrainConfig,
    choose_cycle,
    pick_coordinate,
    propose_and_test,
    train,
)
from .stats import SummaryStats, TestReport, shapiro_wilk, summarize, welch_t_test
from .experiments import (
    ExperimentConfig,
    TrialResult,
    aggregate,
    derive_seed,
    emit_series,
    run_experiment,
)

__version__ = "0.1.0"
