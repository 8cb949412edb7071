"""End-to-end experiment orchestration: train, attack, report.

Stages communicate through files in an output directory:

  config.txt        effective config (written by train, reused by later stages)
  rounds.csv        round,test_acc,mean_train_loss
  assignments.csv   round,client,classes,lambda   (semicolon-separated classes)
  compensation.csv  round,client,arm,raw_reward,norm_reward,n_assigned,n_recycled
  snapshots.npz     recorded model snapshots and the training rows with their
                    owners (format 3, uncompressed), stamped with the SHA-256
                    of the config's data./model./fl./defense. lines and the
                    seed; attack and report refuse the run when their config
                    or seed does not match the stamp, and attack reads its
                    rows from here, never from the data file
  attacks.csv       attack,target,auc,tpr_at_fpr_0.001,tpr_at_fpr_0.01,
                    tpr_at_fpr_0.1,n_members,n_nonmembers
  summary.csv       defense,final_test_acc,acc_delta_vs_undefended,mean_attack_auc

train removes the attacks.csv and summary.csv of an earlier run in the same
directory, and report refuses a baseline run trained on other data, model
or federation settings, or on other rows.

All outputs are deterministic functions of (config, seed) — reruns produce
byte-identical files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import attacks as atk
from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    resolved_class_bounds,
    serialize_config,
    training_fingerprint,
    validate_config,
)
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
    validation_carve,
)
from .federation import (
    ROW_FIELDS,
    SnapshotStore,
    TrainingState,
    read_snapshot_stamp,
    run_training,
)
from .metrics import DEFAULT_FPR_LEVELS
from .models import ModelSpec
from .rng import derive_seed

ROUNDS_CSV = "rounds.csv"
ASSIGNMENTS_CSV = "assignments.csv"
COMPENSATION_CSV = "compensation.csv"
ATTACKS_CSV = "attacks.csv"
SUMMARY_CSV = "summary.csv"
SNAPSHOTS_NPZ = "snapshots.npz"
CONFIG_TXT = "config.txt"
# written after training by attack and report; a new training run removes them
DOWNSTREAM_CSVS = (ATTACKS_CSV, SUMMARY_CSV)


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


@dataclass(eq=False)
class PreparedData:
    """Deterministically derived datasets and partition for one config."""

    train: LabeledDataset
    test: LabeledDataset
    plan: PartitionPlan
    clients: list[ClientDataset]
    spec: ModelSpec


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    """Build dataset, test split, client partition and each client's dataset
    with its validation carve.

    Raises ConfigError naming data.cluster_spread for features that are not
    finite, data.csv_path for fewer than 2 classes, data.test_fraction for
    no test row and fl.K for a client's."""
    if cfg.source == "synthetic":
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            full = generate_synthetic(
                cfg.num_classes,
                cfg.samples_per_class,
                cfg.input_dim,
                cfg.cluster_spread,
                derive_seed(cfg.seed, "data"),
                mean_scale=cfg.mean_scale,
            )
        if not np.isfinite(full.X).all():
            raise ConfigError(
                f"config field 'data.cluster_spread': {cfg.cluster_spread} with data.mean_scale "
                f"= {cfg.mean_scale} gives synthetic features that are not finite"
            )
    else:
        full = load_csv(cfg.csv_path)
        if full.num_classes < 2:
            raise ConfigError(
                f"config field 'data.csv_path': {cfg.csv_path} has labels of "
                f"{full.num_classes} class; a classifier needs at least 2"
            )
    train, test = split_train_test(full, cfg.test_fraction, derive_seed(cfg.seed, "testsplit"))
    if len(test) == 0:
        raise ConfigError(
            f"config field 'data.test_fraction': {cfg.test_fraction} of {len(full)} rows "
            "leaves no test row"
        )
    seed = derive_seed(cfg.seed, "partition")
    try:
        if cfg.partition == "iid":
            plan = partition_iid(train, cfg.num_clients, cfg.ofl_fraction, seed)
        else:
            plan = partition_dirichlet(train, cfg.num_clients, cfg.beta, cfg.ofl_fraction, seed)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(
            f"config field 'fl.K': the partition cannot give each of {cfg.num_clients} "
            f"clients a training row: {exc}"
        ) from None
    clients = make_client_datasets(train, plan, cfg.val_fraction, cfg.seed)
    spec = ModelSpec(
        input_dim=train.input_dim, hidden_dim=cfg.hidden_dim, num_classes=train.num_classes
    )
    return PreparedData(train, test, plan, clients=clients, spec=spec)


def build_fl_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """The config that the round loop reads: cfg, refused with a ConfigError
    naming the key unless `validate_config` passes it, with its coalition
    ids sorted."""
    validate_config(cfg)
    return replace(cfg, coalition=tuple(sorted(cfg.coalition)))


def build_defense_config(cfg: ExperimentConfig, num_classes: int) -> ExperimentConfig | None:
    """Under the coalition defense, `build_fl_config(cfg)` with m_max and
    m_min resolved for `num_classes` (`config.resolved_class_bounds`);
    None under any other defense. Refuses what `build_fl_config` refuses."""
    run = build_fl_config(cfg)
    if cfg.defense != "coalition":
        return None
    m_max, m_min = resolved_class_bounds(cfg, num_classes)
    return replace(run, m_max=m_max, m_min=m_min)


def comm_overhead_estimate(num_classes: int, rounds: int) -> int:
    """Coordinator-to-member traffic estimate: (N + 2) items per round, 1 byte each."""
    if num_classes < 0 or rounds < 0:
        raise ValueError("counts must be >= 0")
    return (num_classes + 2) * rounds


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(out_dir: str, name: str) -> list[dict[str, str]]:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_rounds_csv(path: str, reports) -> None:
    rows = ([rep.round_t, _fmt(rep.test_acc), _fmt(rep.mean_train_loss)] for rep in reports)
    _write_csv(path, ["round", "test_acc", "mean_train_loss"], rows)


def write_assignments_csv(path: str, state: TrainingState) -> None:
    schedule = state.schedule
    rounds = range(1, state.config.rounds + 1) if schedule is not None else ()
    rows = (
        [t, client_id, ";".join(str(c) for c in sorted(subset)), schedule.lambdas[t - 1]]
        for t in rounds
        for client_id, subset in zip(state.config.coalition, schedule.round_subsets(t))
    )
    _write_csv(path, ["round", "client", "classes", "lambda"], rows)


def write_compensation_csv(path: str, telemetry) -> None:
    header = ["round", "client", "arm", "raw_reward", "norm_reward", "n_assigned", "n_recycled"]
    rows = (
        [t.round_t, t.client_id, t.arm, _fmt(t.raw_reward), _fmt(t.norm_reward)]
        + [t.n_assigned, t.n_recycled]
        for t in telemetry
    )
    _write_csv(path, header, rows)


def write_attacks_csv(path: str, results) -> None:
    header = ["attack", "target", "auc"] + [f"tpr_at_fpr_{q}" for q in DEFAULT_FPR_LEVELS]
    rows = (
        [res.attack, res.target, _fmt(res.auc)]
        + [_fmt(res.tpr_at_fpr[q]) for q in DEFAULT_FPR_LEVELS]
        + [int(res.labels.sum()), len(res.labels) - int(res.labels.sum())]
        for res in results
    )
    _write_csv(path, header + ["n_members", "n_nonmembers"], rows)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_train(cfg: ExperimentConfig, out_dir: str) -> TrainingState:
    """Run training and write rounds/assignments/compensation CSVs + snapshots.
    The returned state's store carries the training rows and their plan,
    which `snapshots.npz` stores too, so no later stage reads the data.

    The evaluation pools are drawn first and `federation.init_training`
    refuses what the partition or model cannot run, so a config that does
    not fit them fails before any training; the pools have their own random
    stream, so drawing them here changes no artefact. `out_dir` is made
    only once training has succeeded; then the attack and report outputs of
    an earlier run in it are removed before anything is written, so none of
    them can be read as this run's.
    """
    prep = prepare_data(cfg)
    build_pools(cfg, prep)
    state = run_training(
        build_fl_config(cfg),
        prep.spec,
        prep.clients,
        prep.test.X,
        prep.test.y,
        defense_cfg=build_defense_config(cfg, prep.spec.num_classes),
    )
    os.makedirs(out_dir, exist_ok=True)
    state.store.train, state.store.plan = prep.train, prep.plan
    for name in DOWNSTREAM_CSVS:
        if os.path.exists(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, CONFIG_TXT), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
    write_rounds_csv(os.path.join(out_dir, ROUNDS_CSV), state.reports)
    write_assignments_csv(os.path.join(out_dir, ASSIGNMENTS_CSV), state)
    write_compensation_csv(os.path.join(out_dir, COMPENSATION_CSV), state.telemetry)
    state.store.save(os.path.join(out_dir, SNAPSHOTS_NPZ), training_fingerprint(cfg), cfg.seed)
    return state


def _check_snapshot_stamp(cfg: ExperimentConfig, out_dir: str) -> None:
    """Refuse a run whose snapshots another training config or seed wrote.

    Reads only the stamp of the run's snapshot file."""
    path = os.path.join(out_dir, SNAPSHOTS_NPZ)
    _check_stamp(cfg, path, *read_snapshot_stamp(path))


def _check_stamp(cfg: ExperimentConfig, path: str, config_sha256: str, seed: int) -> None:
    """Refuse the stamp (config_sha256, seed) of snapshot file `path` unless
    cfg trained it: attack.*, eval.* and output.dir may differ from the
    training run; nothing else may."""
    if seed != cfg.seed:
        raise ConfigError(
            f"config field 'fl.seed': {cfg.seed} differs from seed {seed} that trained {path}"
        )
    if config_sha256 != training_fingerprint(cfg):
        raise ConfigError(
            f"the config's data./model./fl./defense. settings differ from the ones that "
            f"trained {path}; only attack.*, eval.* and output.dir may change after training"
        )


def build_pools(cfg: ExperimentConfig, prep: PreparedData | SnapshotStore) -> EvalPools:
    """Member/IFL/OFL pools for the configured target client, drawn from
    `prep.plan`: the prepared data's, or that of the store that carries the
    run's rows.

    The target's validation indices (`data.validation_carve`, as its client
    dataset carves them) are excluded from the member pool: those samples
    are never trained, so they are not members. Raises ConfigError naming
    the eval.* sizes when the data cannot fill the pools.
    """
    k = cfg.target_client
    exclude = validation_carve(prep.plan.client_indices[k], cfg.val_fraction, cfg.seed, k)[1]
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


def stage_attack(
    cfg: ExperimentConfig, out_dir: str, store: SnapshotStore | None = None
) -> list[atk.AttackResult]:
    """Score the configured attacks against the recorded snapshots and
    write `attacks.csv`, listing the attacks in `attack.list` order.

    Unless `store` is given, `snapshots.npz` is opened once: its stamp is
    checked before any model or row field is read. An attack that needs two
    recorded rounds is refused, before any attack runs, when the snapshots
    hold fewer. The rows and the partition come from the store alone (set
    by `stage_train`, or loaded), so no data file is read and no data are
    built; a store without them is refused. `attacks.run_attacks` then
    measures what the attacks read once and scores each from it.
    """
    if store is None:
        path = os.path.join(out_dir, SNAPSHOTS_NPZ)
        store = SnapshotStore.load(path, check_stamp=partial(_check_stamp, cfg, path))
    for name in cfg.attack_list:
        if name in atk.MULTI_ROUND_ATTACKS and len(store.rounds) < 2:
            raise ConfigError(
                f"config field 'attack.list': {name} needs at least 2 recorded rounds, "
                f"the run recorded {len(store.rounds)} (see fl.T and fl.snapshot_every)"
            )
    train, _ = store.rows()
    pools = build_pools(cfg, store)
    selector = atk.attack_selector(cfg.attack_target, cfg.target_client, cfg.coalition)
    results = atk.run_attacks(
        store, train, pools, cfg.target_client, cfg.attack_list, selector=selector
    )
    write_attacks_csv(os.path.join(out_dir, ATTACKS_CSV), results)
    return results


def _read_final_test_acc(out_dir: str) -> float:
    rows = _read_csv(out_dir, ROUNDS_CSV)
    if not rows:
        raise FileNotFoundError(f"{out_dir}/{ROUNDS_CSV} has no data rows")
    return float(rows[-1]["test_acc"])


def _read_mean_attack_auc(out_dir: str) -> float | None:
    rows = _read_csv(out_dir, ATTACKS_CSV)
    return float(np.mean([float(r["auc"]) for r in rows])) if rows else None


def _check_baseline(cfg: ExperimentConfig, out_dir: str, baseline_dir: str) -> None:
    """Refuse a baseline run that differs from `cfg` in more than its defense.

    Reads the baseline's config.txt and the stamp of its snapshots, which
    must agree. Its seed, its data./model./fl. settings and its
    defense.val_fraction, which every client carves off its training rows,
    defended or not, must equal cfg's; only the other defense.* keys,
    attack.*, eval.* and output.dir may differ. The error names the first
    key that differs. Then the row fields of both runs' snapshots, and
    nothing else of them, must be equal: a data file edited between the two
    trainings is refused, naming the first field that differs.
    """
    base = parse_config(os.path.join(baseline_dir, CONFIG_TXT))
    _check_snapshot_stamp(base, baseline_dir)
    sections = ("data.", "model.", "fl.")
    for f in fields(ExperimentConfig):
        key = f.metadata["key"]
        mine, theirs = getattr(cfg, f.name), getattr(base, f.name)
        if (key.startswith(sections) or key == "defense.val_fraction") and mine != theirs:
            raise ConfigError(
                f"config field {key!r}: {mine!r} differs from {theirs!r} in baseline "
                f"{baseline_dir}; only attack.*, eval.*, output.dir and the defense.* keys "
                "other than defense.val_fraction may differ"
            )
    # both stamps are checked, so both files hold every field of this format
    mine_path, base_path = (os.path.join(d, SNAPSHOTS_NPZ) for d in (out_dir, baseline_dir))
    with np.load(mine_path) as mine, np.load(base_path) as theirs:
        differ = [name for name in ROW_FIELDS if not np.array_equal(mine[name], theirs[name])]
    if differ:
        key, data = "data.source", cfg.source
        if cfg.source == "csv":
            key, data = "data.csv_path", cfg.csv_path
        raise ConfigError(
            f"config field {key!r}: {data} gave other training rows than those of baseline "
            f"{baseline_dir} (snapshot field {differ[0]!r} differs); train both on the same data"
        )


def stage_report(cfg: ExperimentConfig, out_dir: str, baseline_dir: str | None = None) -> None:
    """Summarize a finished run; optional baseline gives the accuracy delta.

    The baseline must be the same training setup without (or with another)
    defense: `_check_baseline` refuses any other before anything is written.
    """
    _check_snapshot_stamp(cfg, out_dir)
    if baseline_dir:
        _check_baseline(cfg, out_dir, baseline_dir)
    final_acc = _read_final_test_acc(out_dir)
    mean_auc = _read_mean_attack_auc(out_dir)
    delta = ""
    if baseline_dir:
        delta = _fmt(final_acc - _read_final_test_acc(baseline_dir))
    _write_csv(
        os.path.join(out_dir, SUMMARY_CSV),
        ["defense", "final_test_acc", "acc_delta_vs_undefended", "mean_attack_auc"],
        [[cfg.defense, _fmt(final_acc), delta, "" if mean_auc is None else _fmt(mean_auc)]],
    )


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str,
    baseline_dir: str | None = None,
) -> int:
    """Train, attack, and report in one pass, on data prepared once: the
    attack reads the rows that training's store carries. Returns a process
    exit status."""
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
    """cfg with the command line's seed and output directory, validated again."""
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if out_dir:
        updates["out_dir"] = out_dir
    cfg = replace(cfg, **updates)
    validate_config(cfg)
    return cfg
