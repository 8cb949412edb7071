"""Deterministic federated-learning simulator with a collaborative
membership-inference defense and a trajectory-based attack harness."""

from .assignment import (
    ClassAssignmentSchedule,
    CoalitionSpec,
    assign_classes,
    build_schedule,
    decay_subset_size,
    select_assigned_subset,
    theoretical_overlap_bound,
)
from .attacks import (
    AttackResult,
    attack_avg_cosine,
    attack_fedmia,
    attack_fta,
    attack_loss_series,
    evaluate_attack,
    run_attack,
)
from .compensation import (
    BanditState,
    SampleIntervals,
    compute_reward,
    exp3_select,
    exp3_update,
    init_intervals,
    normalize_reward,
    select_recycled,
)
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .data import (
    ClientDataset,
    EvalPools,
    LabeledDataset,
    PartitionPlan,
    build_eval_pools,
    generate_synthetic,
    load_csv,
    make_client_datasets,
    partition_dirichlet,
    partition_iid,
    split_train_test,
)
from .experiment import comm_overhead_estimate, run_experiment
from .federation import (
    CoalitionDefenseConfig,
    FlConfig,
    RoundReport,
    SnapshotStore,
    aggregate_weighted,
    grad_gaussian_noise,
    grad_sparsify,
    run_round,
    run_training,
)
from .metrics import auc_score, roc_points, tpr_at_fpr
from .models import ModelSpec, init_params
from .perturbation import (
    NoisePlan,
    apply_perturbation,
    build_noise_plan,
    project_neutral,
    verify_cancellation,
)

__version__ = "0.1.0"
