"""End-to-end experiment orchestration: train, attack, report.

Stages communicate through files in an output directory:

  config.txt        effective config (written by train, reused by later stages)
  rounds.csv        round,test_acc,mean_train_loss
  assignments.csv   round,client,classes,lambda   (semicolon-separated classes)
  compensation.csv  round,client,arm,raw_reward,norm_reward,n_assigned,n_recycled
  snapshots.npz     recorded model snapshots
  attacks.csv       attack,target,auc,tpr_at_fpr_0.001,tpr_at_fpr_0.01,
                    tpr_at_fpr_0.1,n_members,n_nonmembers
  summary.csv       defense,final_test_acc,acc_delta_vs_undefended,mean_attack_auc

All outputs are deterministic functions of (config, seed) — reruns produce
byte-identical files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from . import attacks as atk
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    resolved_class_bounds,
    serialize_config,
)
from .compensation import RecycleConfig
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
from .federation import (
    CoalitionDefenseConfig,
    FlConfig,
    SnapshotStore,
    TrainingState,
    run_training,
)
from .models import ModelSpec
from .rng import derive_seed

ROUNDS_CSV = "rounds.csv"
ASSIGNMENTS_CSV = "assignments.csv"
COMPENSATION_CSV = "compensation.csv"
ATTACKS_CSV = "attacks.csv"
SUMMARY_CSV = "summary.csv"
SNAPSHOTS_NPZ = "snapshots.npz"
CONFIG_TXT = "config.txt"


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


@dataclass
class PreparedData:
    """Deterministically derived datasets and partition for one config."""

    train: LabeledDataset
    test: LabeledDataset
    plan: PartitionPlan
    clients: list[ClientDataset]
    spec: ModelSpec


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    """Build dataset, test split, client partition, and per-client val carves."""
    if cfg.source == "synthetic":
        full = generate_synthetic(
            cfg.num_classes,
            cfg.samples_per_class,
            cfg.input_dim,
            cfg.cluster_spread,
            derive_seed(cfg.seed, "data"),
            mean_scale=cfg.mean_scale,
        )
    else:
        full = load_csv(cfg.csv_path)
    train, test = split_train_test(full, cfg.test_fraction, derive_seed(cfg.seed, "testsplit"))
    if cfg.partition == "iid":
        plan = partition_iid(
            train, cfg.num_clients, cfg.ofl_fraction, derive_seed(cfg.seed, "partition")
        )
    else:
        plan = partition_dirichlet(
            train, cfg.num_clients, cfg.beta, cfg.ofl_fraction, derive_seed(cfg.seed, "partition")
        )
    clients = make_client_datasets(train, plan, cfg.val_fraction, cfg.seed)
    spec = ModelSpec(
        input_dim=train.input_dim, hidden_dim=cfg.hidden_dim, num_classes=train.num_classes
    )
    return PreparedData(train=train, test=test, plan=plan, clients=clients, spec=spec)


def build_fl_config(cfg: ExperimentConfig) -> FlConfig:
    return FlConfig(
        num_clients=cfg.num_clients,
        rounds=cfg.rounds,
        lr=cfg.lr,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        snapshot_every=cfg.snapshot_every,
        defense=cfg.defense,
        coalition=cfg.coalition,
        seed=cfg.seed,
        keep_rate=cfg.keep_rate,
        noise_sigma=cfg.noise_sigma,
    )


def build_defense_config(cfg: ExperimentConfig, num_classes: int) -> CoalitionDefenseConfig | None:
    if cfg.defense != "coalition":
        return None
    m_max, m_min = resolved_class_bounds(cfg, num_classes)
    return CoalitionDefenseConfig(
        m_max=m_max,
        m_min=m_min,
        decay=cfg.decay,
        recycle=RecycleConfig(
            start_round=cfg.t0,
            num_intervals=cfg.intervals,
            max_ratio=cfg.r_l,
            mu=cfg.mu,
            eta=cfg.eta,
            val_fraction=cfg.val_fraction,
        ),
        sigma=cfg.sigma,
        tail_ratio=cfg.r_p,
    )


def comm_overhead_estimate(num_classes: int, rounds: int) -> int:
    """Coordinator-to-member traffic estimate: (N + 2) items per round, 1 byte each."""
    if num_classes < 0 or rounds < 0:
        raise ValueError("counts must be >= 0")
    return (num_classes + 2) * rounds


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def write_rounds_csv(path: str, reports) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "test_acc", "mean_train_loss"])
        for rep in reports:
            writer.writerow([rep.round_t, _fmt(rep.test_acc), _fmt(rep.mean_train_loss)])


def write_assignments_csv(path: str, state: TrainingState) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "client", "classes", "lambda"])
        if state.schedule is None:
            return
        coalition = state.config.coalition
        for t in range(1, state.config.rounds + 1):
            subsets = state.schedule.round_subsets(t)
            lam = state.schedule.lambdas[t - 1]
            for member, client_id in enumerate(coalition):
                classes = ";".join(str(c) for c in sorted(subsets[member]))
                writer.writerow([t, client_id, classes, lam])


def write_compensation_csv(path: str, telemetry) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "client", "arm", "raw_reward", "norm_reward", "n_assigned", "n_recycled"]
        )
        for tele in telemetry:
            writer.writerow(
                [
                    tele.round_t,
                    tele.client_id,
                    tele.arm,
                    _fmt(tele.raw_reward),
                    _fmt(tele.norm_reward),
                    tele.n_assigned,
                    tele.n_recycled,
                ]
            )


def write_attacks_csv(path: str, results) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "attack",
                "target",
                "auc",
                "tpr_at_fpr_0.001",
                "tpr_at_fpr_0.01",
                "tpr_at_fpr_0.1",
                "n_members",
                "n_nonmembers",
            ]
        )
        for res in results:
            n_members = int(res.labels.sum())
            writer.writerow(
                [
                    res.attack,
                    res.target,
                    _fmt(res.auc),
                    _fmt(res.tpr_at_fpr[0.001]),
                    _fmt(res.tpr_at_fpr[0.01]),
                    _fmt(res.tpr_at_fpr[0.1]),
                    n_members,
                    len(res.labels) - n_members,
                ]
            )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_train(cfg: ExperimentConfig, out_dir: str) -> TrainingState:
    """Run training and write rounds/assignments/compensation CSVs + snapshots.

    The evaluation pools are drawn first, so a config whose pools cannot be
    filled fails before any training; the pools have their own random
    stream, so drawing them here changes no artefact.
    """
    prep = prepare_data(cfg)
    build_pools(cfg, prep)
    os.makedirs(out_dir, exist_ok=True)
    state = run_training(
        build_fl_config(cfg),
        prep.spec,
        prep.clients,
        prep.test.X,
        prep.test.y,
        defense_cfg=build_defense_config(cfg, prep.spec.num_classes),
    )
    with open(os.path.join(out_dir, CONFIG_TXT), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    write_rounds_csv(os.path.join(out_dir, ROUNDS_CSV), state.reports)
    write_assignments_csv(os.path.join(out_dir, ASSIGNMENTS_CSV), state)
    write_compensation_csv(os.path.join(out_dir, COMPENSATION_CSV), state.telemetry)
    state.store.save(os.path.join(out_dir, SNAPSHOTS_NPZ))
    return state


def build_pools(cfg: ExperimentConfig, prep: PreparedData) -> EvalPools:
    """Member/IFL/OFL pools for the configured target client.

    The target's validation indices are excluded from the member pool: those
    samples are never trained, so they are not members. Raises ConfigError
    naming the eval.* sizes when the data cannot fill the pools.
    """
    exclude = prep.clients[cfg.target_client].val_indices
    try:
        return build_eval_pools(
            prep.plan,
            cfg.target_client,
            cfg.members_n,
            cfg.ifl_n,
            cfg.ofl_n,
            derive_seed(cfg.seed, "pools"),
            exclude=exclude,
        )
    except ValueError as exc:
        raise ConfigError(
            f"eval pools (eval.members = {cfg.members_n}, eval.ifl = {cfg.ifl_n}, "
            f"eval.ofl = {cfg.ofl_n}) do not fit the data: {exc}"
        ) from None


def _attack_selector(cfg: ExperimentConfig):
    if cfg.attack_target == "global":
        return "global"
    if cfg.attack_target == "coalition":
        return ("coalition", tuple(cfg.coalition))
    return ("local", cfg.target_client)


def stage_attack(
    cfg: ExperimentConfig, out_dir: str, store: SnapshotStore | None = None
) -> list[atk.AttackResult]:
    """Score the configured attacks against the recorded snapshots."""
    if store is None:
        store = SnapshotStore.load(os.path.join(out_dir, SNAPSHOTS_NPZ))
    prep = prepare_data(cfg)
    pools = build_pools(cfg, prep)
    selector = _attack_selector(cfg)
    results = [
        atk.run_attack(store, prep.train, pools, cfg.target_client, name, selector=selector)
        for name in cfg.attack_list
    ]
    write_attacks_csv(os.path.join(out_dir, ATTACKS_CSV), results)
    return results


def _read_final_test_acc(out_dir: str) -> float:
    with open(os.path.join(out_dir, ROUNDS_CSV), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FileNotFoundError(f"{out_dir}/{ROUNDS_CSV} has no data rows")
    return float(rows[-1]["test_acc"])


def _read_mean_attack_auc(out_dir: str) -> float | None:
    with open(os.path.join(out_dir, ATTACKS_CSV), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return None
    return float(np.mean([float(r["auc"]) for r in rows]))


def stage_report(cfg: ExperimentConfig, out_dir: str, baseline_dir: str | None = None) -> None:
    """Summarize a finished run; optional baseline gives the accuracy delta."""
    final_acc = _read_final_test_acc(out_dir)
    mean_auc = _read_mean_attack_auc(out_dir)
    delta = ""
    if baseline_dir:
        delta = _fmt(final_acc - _read_final_test_acc(baseline_dir))
    with open(os.path.join(out_dir, SUMMARY_CSV), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["defense", "final_test_acc", "acc_delta_vs_undefended", "mean_attack_auc"])
        writer.writerow(
            [cfg.defense, _fmt(final_acc), delta, "" if mean_auc is None else _fmt(mean_auc)]
        )


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str,
    baseline_dir: str | None = None,
) -> int:
    """Train, attack, and report in one pass. Returns a process exit status."""
    state = stage_train(cfg, out_dir)
    stage_attack(cfg, out_dir, store=state.store)
    stage_report(cfg, out_dir, baseline_dir=baseline_dir)
    return 0


def load_run_config(out_dir: str, config_path: str | None = None) -> ExperimentConfig:
    """Config for a stage: explicit path wins, else the run's config.txt."""
    if config_path:
        return parse_config(config_path)
    echo = os.path.join(out_dir, CONFIG_TXT)
    if not os.path.exists(echo):
        raise FileNotFoundError(f"no --config given and {echo} not found")
    return parse_config(echo)


def with_overrides(
    cfg: ExperimentConfig, seed: int | None = None, out_dir: str | None = None
) -> ExperimentConfig:
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if out_dir:
        updates["out_dir"] = out_dir
    return replace(cfg, **updates) if updates else cfg
