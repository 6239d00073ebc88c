"""Class-level machine unlearning over sharded, sliced, checkpointed ensembles."""

from .data import (CIFAR10_CLASSES, LabeledDataset, SplitSpec,
                   generate_synthetic, load_cifar10, split)
from .ensemble import EnsembleModel, train_gating
from .evaluation import EvaluationReport, evaluate
from .nn import (Architecture, ModelParameters, adam_init, adam_step,
                 cnn_architecture, forward, init_params, loss_and_grad,
                 mlp_architecture)
from .partition import (BALANCED, SEQUENTIAL_CLASS, PartitionPlan,
                        build_metadata, make_plan, plan_shards, plan_slices)
from .pipeline import (DataBundle, SisaSystem, synthetic_bundle, train_baseline,
                       train_sisa)
from .rng import RngState
from .training import (Checkpoint, ReplayBuffer, TrainConfig,
                       early_stop_monitor, sample_replay, train_shard)
from .unlearning import (STRATEGIES, UnlearnOutcome, run_unlearning,
                         unlearn_balanced, unlearn_baseline, unlearn_gated,
                         unlearn_scls, verify_exact)

__version__ = "0.1.0"
