"""FedAvg round loop with pluggable per-client defenses and snapshot recording.

Every client trains every round (full participation keeps the coalition's
noise cancellation exact), all together in one lock-step
`models.sgd_lockstep` call; coalition members under the coalition defense
plan their recycled rows before it, from the per-sample training losses of
the evaluation that ended the previous round, and reward their bandits
after it, from their validation losses under that evaluation's model and
one forward pass of their uploads. The server aggregates local parameters
with weights proportional to each client's original local dataset size,
and records model snapshots — the global broadcast and every uploaded
local — at round 1 and every snapshot_every rounds thereafter. The
`SnapshotStore` also carries the run's training rows and their partition,
which `snapshots.npz` stores, so the attack stage reads no data file.

A run is configured by one `config.ExperimentConfig`. `init_training` is
the gate between it and the rounds: it validates the config, sorts its
coalition ids (as `experiment.build_fl_config` does), refuses a defense
config (`experiment.build_defense_config`) that says otherwise, and refuses
what the data cannot run, each time naming the key. The run keeps that one
config, class bounds resolved, as `TrainingState.config`, and no round
checks its values again.

A run makes its generators and its large arrays once (`RunBuffers`) and
reuses them every round; `experiment.run_training`, which runs every round
and sets the store's rows, drops them and the clients when it returns.

Every read of a snapshot file goes through `open_snapshots`, so a damaged
file fails with one error that names it.
"""

from __future__ import annotations

import math
import re
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import models
from .assignment import ClassAssignmentSchedule, build_schedule, select_assigned_subset
from .compensation import BanditState, Telemetry, cr_term, is_rewarded
from .compensation import plan_local_update, planned_rows, reward_local_update
from .data import ClientDataset, LabeledDataset, PartitionPlan
from .models import ModelSpec
from .perturbation import NoisePlan, apply_perturbation, build_noise_plan
from .rng import RoundStreams, stream

if TYPE_CHECKING:  # config imports DEFENSE_KINDS from here
    from .config import ExperimentConfig

DEFENSE_KINDS = ("none", "coalition", "grad_sparse", "grad_noise")


@dataclass
class RoundReport:
    round_t: int
    test_acc: float
    mean_train_loss: float


SNAPSHOT_FORMAT = 3
MODEL_FIELDS = ("rounds", "client_sizes", "spec", "globals", "locals")
# The run's training rows (n, d), their labels (n,) and their owners (n,):
# a client id, or -1 for a row of the OFL pool.
ROW_FIELDS = ("rows", "labels", "owners")
# The stamp in front names the run that trained the models: the file format,
# the SHA-256 of the training part of its config (`config.training_fingerprint`)
# and its seed.
SNAPSHOT_FIELDS = ("format", "config_sha256", "seed") + MODEL_FIELDS + ROW_FIELDS


class SnapshotStore:
    """Recorded model snapshots, one entry per recorded round: the global
    broadcasts in `globals` (R, P) and the uploaded locals in `locals`
    (R, K, P), row k of an entry holding client k's upload; and the run's
    training rows (`train`) with their partition (`plan`), which
    `experiment.run_training` or `load` sets and the attacks read.

    The snapshots are recorded into two stacks made for `capacity` snapshots
    and doubled when full, so `save` writes them as they are."""

    def __init__(self, spec: ModelSpec, client_sizes: np.ndarray, capacity: int = 1):
        self.spec = spec
        self.client_sizes = np.asarray(client_sizes, dtype=np.int64)
        self.rounds: list[int] = []
        p = spec.param_count
        self._globals = np.empty((capacity, p))
        self._locals = np.empty((capacity, self.num_clients, p))
        self.train: LabeledDataset | None = None
        self.plan: PartitionPlan | None = None

    @property
    def num_clients(self) -> int:
        return len(self.client_sizes)

    @property
    def globals(self) -> np.ndarray:
        return self._globals[: len(self.rounds)]

    @property
    def locals(self) -> np.ndarray:
        return self._locals[: len(self.rounds)]

    def rows(self) -> tuple[LabeledDataset, PartitionPlan]:
        """(train, plan), refused when unset: `experiment.run_training` sets them."""
        if self.train is None or self.plan is None:
            raise ValueError(f"the snapshot store holds no training rows {ROW_FIELDS}")
        return self.train, self.plan

    def record(self, round_t: int, global_params: np.ndarray, uploads: np.ndarray):
        """Copy one round's global broadcast and its (K, P) upload matrix."""
        shape = (self.num_clients, self.spec.param_count)
        if np.shape(uploads) != shape:
            raise ValueError(f"uploads must have shape {shape}, got {np.shape(uploads)}")
        row = len(self.rounds)
        if row == len(self._globals):
            more = max(1, row)
            self._globals = np.concatenate([self._globals, np.empty((more, shape[1]))])
            self._locals = np.concatenate([self._locals, np.empty((more, *shape))])
        self._globals[row], self._locals[row] = global_params, uploads
        self.rounds.append(round_t)

    def save(self, path: str, config_sha256: str, seed: int) -> None:
        """Write format 3: the stamp of the run that trained these models,
        the stacked snapshots, then the training rows with their owners.
        Members are stored uncompressed, since float64 values barely
        compress; numpy gives every zip member the same fixed timestamp, so
        the bytes are a function of the contents."""
        spec, (train, plan) = self.spec, self.rows()
        owners = np.full(len(train), -1, dtype=np.int64)
        for k, indices in enumerate(plan.client_indices):
            owners[indices] = k
        np.savez(
            path,
            format=np.int64(SNAPSHOT_FORMAT),
            config_sha256=np.str_(config_sha256),
            seed=np.int64(seed),
            rounds=np.asarray(self.rounds, dtype=np.int64),
            client_sizes=self.client_sizes,
            spec=np.asarray([spec.input_dim, spec.hidden_dim, spec.num_classes], dtype=np.int64),
            globals=self.globals,
            locals=self.locals,
            rows=train.X,
            labels=train.y,
            owners=owners,
        )

    @classmethod
    def load(cls, path: str, check_stamp=None) -> "SnapshotStore":
        """Read a file written by `save`, checking its stamp and every field
        against the others (`_check_snapshot_fields`). `check_stamp(
        config_sha256, seed)`, if given, is called on the stamp before any
        model or row field is read, and refuses the file by raising.

        The file is opened once and each stored array read exactly once; the
        loaded stacks and rows are the store's. Each part of the plan is the
        sorted row ids of one owner, as both partitioners sort theirs.
        """
        with open_snapshots(path) as blob:
            stamp = _read_stamp(blob, path)
            if check_stamp is not None:
                check_stamp(*stamp)
            fields = {name: blob[name] for name in MODEL_FIELDS + ROW_FIELDS}
        spec = _check_snapshot_fields(fields)
        store = cls(spec, fields["client_sizes"], capacity=0)
        store.rounds = [int(t) for t in fields["rounds"]]
        store._globals, store._locals = fields["globals"], fields["locals"]
        owners = fields["owners"]
        store.train = LabeledDataset(fields["rows"], fields["labels"], spec.num_classes)
        # a stable sort lists each owner's rows in increasing order, OFL first
        order = np.argsort(owners, kind="stable")
        ends = np.cumsum(np.bincount(owners + 1, minlength=store.num_clients + 1)).tolist()
        ofl, *parts = (order[a:b] for a, b in zip([0] + ends, ends))
        store.plan = PartitionPlan(parts, ofl)
        return store


_RERUN = "re-run `fedpriv train` to rewrite it"


@contextmanager
def open_snapshots(path: str):
    """The members of the snapshot file at `path` (`_Members`), open for
    reading until the block ends. A file that is empty or not a zip archive
    of arrays, or a member that fails its checksum or cannot be parsed as
    an array when read in the block, raises a ValueError that names `path`;
    a missing file raises the OSError of `open`."""
    # the handle is ours, so it is closed however np.load fails
    with open(path, "rb") as fh:
        try:
            blob = np.load(fh)
        except (EOFError, zipfile.BadZipFile) as err:
            raise _damaged(path, err) from None
        except ValueError:  # numpy's refusal to unpickle what is no array file
            blob = None
        if not isinstance(blob, np.lib.npyio.NpzFile):
            raise _damaged(path, "not a zip archive of arrays")
        with blob:
            yield _Members(blob, path)


class _Members:
    """An open snapshot file's member names (`files`) and arrays by name;
    reading a member that fails its checksum, or whose `.npy` header or data
    numpy cannot parse, raises `_damaged`."""

    def __init__(self, blob, path: str) -> None:
        self.files, self._blob, self._path = blob.files, blob, path

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._blob[name]
        except (EOFError, zipfile.BadZipFile, ValueError) as err:
            raise _damaged(self._path, err) from None


def _damaged(path: str, why) -> ValueError:
    return ValueError(f"snapshot file {path} cannot be read ({why}); {_RERUN}")


def read_snapshot_stamp(path: str) -> tuple[str, int]:
    """(config_sha256, seed) of a snapshot file, reading only its stamp."""
    with open_snapshots(path) as blob:
        return _read_stamp(blob, path)


def _bad_field(name: str, why: str) -> ValueError:
    return ValueError(f"snapshot field {name!r} {why}")


def _is_int(arr: np.ndarray) -> bool:
    return np.issubdtype(arr.dtype, np.integer)


def _read_stamp(blob, path: str) -> tuple[str, int]:
    """Check an open snapshot file's format and member names; return the
    (config_sha256, seed) it was stamped with."""
    if "format" not in blob.files:
        raise ValueError(
            f"snapshot file {path} has no 'format' field: it predates format "
            f"{SNAPSHOT_FORMAT}; {_RERUN}"
        )
    fmt = blob["format"]
    if fmt.shape != () or not _is_int(fmt) or int(fmt) != SNAPSHOT_FORMAT:
        raise _bad_field("format", f"is {fmt!r}, not {SNAPSHOT_FORMAT}; {_RERUN}")
    missing = [name for name in SNAPSHOT_FIELDS if name not in blob.files]
    if missing:
        raise ValueError(f"snapshot file lacks field(s) {missing}")
    digest = blob["config_sha256"]
    hex_digest = digest.dtype.kind == "U" and re.fullmatch("[0-9a-f]{64}", str(digest))
    if digest.shape != () or not hex_digest:
        raise _bad_field("config_sha256", f"must be a SHA-256 hex string, got {digest!r}")
    seed = blob["seed"]
    if seed.shape != () or not _is_int(seed):
        raise _bad_field("seed", f"must be one int, got {seed!r}")
    return str(digest), int(seed)


def _check_snapshot_fields(fields: dict[str, np.ndarray]) -> ModelSpec:
    """Validate the model and row fields of a loaded snapshot file and
    return its ModelSpec.

    Raises ValueError naming the first field that does not fit the others:
    spec (d, h, C), globals (R, P) with P = spec.param_count, locals (R, K, P),
    both finite (the first non-finite row, and client, is named),
    client_sizes (K,), rounds (R,) strictly increasing, rows (n, d) finite,
    labels (n,) in [0, C) and owners (n,) in [-1, K) with client_sizes[k]
    rows of each client k.
    """
    raw_spec = fields["spec"]
    if raw_spec.shape != (3,) or not _is_int(raw_spec):
        raise _bad_field(
            "spec", f"must be 3 ints (input_dim, hidden_dim, classes), got {raw_spec!r}"
        )
    try:
        spec = ModelSpec(*(int(v) for v in raw_spec))
    except ValueError as err:
        raise _bad_field("spec", f"is not a valid model: {err}") from None
    p = spec.param_count
    globals_stack = fields["globals"]
    if globals_stack.ndim != 2 or globals_stack.shape[1] != p or len(globals_stack) == 0:
        raise _bad_field(
            "globals", f"must have shape (R, {p}) with R >= 1, got {globals_stack.shape}"
        )
    r = len(globals_stack)
    locals_stack = fields["locals"]
    if locals_stack.ndim != 3 or locals_stack.shape[0] != r or locals_stack.shape[2] != p:
        raise _bad_field("locals", f"must have shape ({r}, K, {p}), got {locals_stack.shape}")
    for name, stack in (("globals", globals_stack), ("locals", locals_stack)):
        # min and max carry any NaN or infinity without a mask the size of the stack
        if not (np.isfinite(stack.min()) and np.isfinite(stack.max())):
            where = np.argwhere(~np.isfinite(stack))[0]
            at = f"row {where[0]}" + (f", client {where[1]}" if name == "locals" else "")
            raise _bad_field(name, f"holds a non-finite weight at {at}")
    k = locals_stack.shape[1]
    sizes = fields["client_sizes"]
    if sizes.shape != (k,) or not _is_int(sizes):
        raise _bad_field("client_sizes", f"must be {k} ints, got shape {sizes.shape}")
    rounds = fields["rounds"]
    if (
        rounds.shape != (r,)
        or not _is_int(rounds)
        or np.any(np.diff(rounds.astype(np.int64)) <= 0)
    ):
        raise _bad_field("rounds", f"must be {r} strictly increasing ints, got {rounds!r}")
    rows, d = fields["rows"], spec.input_dim
    if rows.ndim != 2 or rows.shape[1] != d or rows.dtype.kind != "f":
        raise _bad_field("rows", f"must be floats of shape (n, {d}), got {rows.dtype} {rows.shape}")
    if not np.isfinite(rows).all():
        raise _bad_field("rows", "holds a non-finite value")
    n = len(rows)
    for name, low, high in (("labels", 0, spec.num_classes), ("owners", -1, k)):
        ids = fields[name]
        if ids.shape != (n,) or ids.dtype.kind != "i":
            raise _bad_field(name, f"must be {n} ints, got {ids.dtype} of shape {ids.shape}")
        if n and not low <= ids.min() <= ids.max() < high:
            raise _bad_field(name, f"must lie in [{low}, {high}), got {ids.min()} to {ids.max()}")
    counts = np.bincount(fields["owners"] + 1, minlength=k + 1)[1:]
    if not np.array_equal(counts, sizes):
        c = int(np.flatnonzero(counts != sizes)[0])
        raise _bad_field(
            "owners", f"gives client {c} {counts[c]} rows, not client_sizes[{c}] = {sizes[c]}"
        )
    return spec


def aggregate_weighted(params_list, weights, product=None) -> np.ndarray:
    """Element-wise weighted average sum(w_k * theta_k) / sum(w_k) of the
    parameter vectors in `params_list` (a sequence or the rows of a matrix).
    `product`, a float64 array of the matrix's shape (K, P) and possibly the
    matrix itself, takes the weighted rows if given."""
    weights = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"weights must be finite, got {weights}")
    if len(params_list) != len(weights):
        raise ValueError("params_list and weights differ in length")
    if len(params_list) == 0:
        raise ValueError("nothing to aggregate")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    length = len(params_list[0])
    if any(len(p) != length for p in params_list):
        raise ValueError("parameter vectors differ in length")
    weighted = np.multiply(weights[:, None], np.asarray(params_list, dtype=np.float64), out=product)
    if length == 1:  # numpy would sum a contiguous column pairwise, not in order
        weighted = np.repeat(weighted, 2, axis=1)
    # from +0.0 and row after row, as a loop of `out += w * p` sums
    return np.add.reduce(weighted, axis=0, initial=0.0)[:length] / weights.sum()


def grad_sparsify(update: np.ndarray, keep_rate: float) -> np.ndarray:
    """Keep the top ceil(keep_rate * P) entries by |value| (ties to lower index)."""
    if not 0.0 < keep_rate <= 1.0:
        raise ValueError("keep_rate must be in (0, 1]")
    p = len(update)
    keep = int(np.ceil(keep_rate * p))
    order = np.argsort(-np.abs(update), kind="stable")
    out = np.zeros_like(update)
    out[order[:keep]] = update[order[:keep]]
    return out


def grad_gaussian_noise(update: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. N(0, sigma^2) per coordinate; sigma=0 is the identity."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return update.copy()
    return update + rng.normal(0.0, sigma, size=len(update))


@dataclass(eq=False)
class RunBuffers:
    """What every round of a run reuses instead of making it anew: a
    per-client generator for each of its "train", "bandit" and "gradnoise"
    streams; the stacked rows of the evaluation that ends a round (every
    client's training set) and of the coalition members' validation rows
    (the sets of `val_members`, the members that have one), each laid out
    once as a plan of forward passes over the workspace's buffers; the (K, P)
    upload matrix, which aggregation overwrites with its product; one
    workspace for the lock-step training, those passes and the test
    accuracy, which keeps the views of the training laid out over its
    buffers, so that a run without coalition plans lays them out once; and
    what later rounds read of earlier ones."""

    streams: dict[str, RoundStreams]
    workspace: models.Workspace
    evaluation: models.StackedBatches
    validation: models.StackedBatches
    val_members: list[int]
    uploads: np.ndarray
    # (params, {client id: per-sample training losses}, {member: mean
    # validation loss}) under params, the global model of the evaluation that
    # ended the last round (see `_evaluate`)
    last_evaluation: tuple[np.ndarray, dict[int, np.ndarray], dict[int, float]] | None = None
    # (ids, prepared lock-step inputs or None) of the clients with rows to
    # train in a round without coalition plans, built at the first such round
    plain_lockstep: tuple[list[int], models.LockstepInputs | None] | None = None


@dataclass(eq=False)
class TrainingState:
    """Mutable state threaded through run_round."""

    config: ExperimentConfig
    spec: ModelSpec
    clients: list[ClientDataset]  # emptied by experiment.run_training
    test_X: np.ndarray
    test_y: np.ndarray
    global_params: np.ndarray
    store: SnapshotStore
    reports: list[RoundReport] = field(default_factory=list)
    telemetry: list[Telemetry] = field(default_factory=list)
    schedule: ClassAssignmentSchedule | None = None
    noise_plan: NoisePlan | None = None
    bandits: dict[int, BanditState] = field(default_factory=dict)
    # made at the first round, dropped by experiment.run_training
    buffers: RunBuffers | None = None


def init_training(
    config: ExperimentConfig,
    spec: ModelSpec,
    clients: list[ClientDataset],
    test_X: np.ndarray,
    test_y: np.ndarray,
    defense_cfg: ExperimentConfig | None = None,
) -> TrainingState:
    """Coordinator preparation: model init plus, for the coalition defense,
    the full class-assignment schedule and the precomputed noise plan.

    The one gate between a config and its rounds, so that no round fails on
    a value the config holds: `config` must pass `validate_config`, and a
    ConfigError names the key of anything else refused. The coalition ids
    are sorted, as `build_fl_config` sorts them. `defense_cfg`
    (`build_defense_config`), required under the coalition defense, must
    equal `config` with its class bounds resolved for `spec.num_classes`
    (`resolved_class_bounds`), which the state keeps as its `config`. Every
    coalition member must hold at least defense.intervals training rows,
    and a perturbing coalition's tail (defense.r_p of the parameters) at
    least one parameter.
    """
    from .config import ConfigError, resolved_class_bounds, validate_config  # config imports us

    validate_config(config)
    config = replace(config, coalition=tuple(sorted(config.coalition)))
    if len(clients) != config.num_clients:
        raise ValueError("client list does not match num_clients")
    if config.defense == "coalition" or defense_cfg is not None:
        if defense_cfg is None:
            raise ValueError("coalition defense requires a defense config")
        m_max, m_min = resolved_class_bounds(config, spec.num_classes)
        config = replace(config, m_max=m_max, m_min=m_min)
        for f in fields(config):
            mine, theirs = getattr(config, f.name), getattr(defense_cfg, f.name)
            if mine != theirs:
                raise ConfigError(
                    f"config field {f.metadata['key']!r}: {theirs!r} in the defense config "
                    f"differs from {mine!r} in the run's config"
                )
    if config.defense == "coalition":
        for k in config.coalition:
            n = len(clients[k].train_y)
            if n < config.intervals:
                raise ConfigError(
                    f"config field 'defense.intervals': {config.intervals} intervals exceed "
                    f"the {n} training samples of coalition client {k}"
                )
        p = spec.param_count
        if config.sigma > 0 and int(np.floor(config.r_p * p)) == 0:
            raise ConfigError(
                f"config field 'defense.r_p': {config.r_p:g} of the model's {p} parameters "
                "is an empty perturbation tail"
            )
    sizes = np.asarray([c.num_samples for c in clients], dtype=np.int64)
    snapshots = sum(snapshot_due(t, config.snapshot_every) for t in range(1, config.rounds + 1))
    state = TrainingState(
        config=config,
        spec=spec,
        clients=clients,
        test_X=np.asarray(test_X, dtype=np.float64),
        test_y=np.asarray(test_y, dtype=np.int64),
        global_params=models.init_params(spec, stream(config.seed, "init")),
        store=SnapshotStore(spec, sizes, capacity=snapshots),
    )
    if config.defense == "coalition":
        state.schedule = build_schedule(config, spec.num_classes)
        weights, sigma = sizes[list(config.coalition)], config.sigma
        try:
            state.noise_plan = build_noise_plan(weights, sigma, config.rounds, config.seed)
        except FloatingPointError as err:  # refused before any round runs
            raise FloatingPointError(
                f"training diverged at {err}; coalition client(s) {list(config.coalition)}"
            ) from None
        state.bandits = {
            k: BanditState.fresh(config.intervals, config.eta) for k in config.coalition
        }
    return state


def _diverged(round_t: int, clients) -> FloatingPointError:
    return FloatingPointError(
        f"training diverged at round {round_t}: non-finite loss in the local update "
        f"of client(s) {list(clients)}"
    )


def _buffers(state: TrainingState) -> RunBuffers:
    """The run's `RunBuffers`, made at its first call."""
    if state.buffers is None:
        cfg, clients = state.config, state.clients
        rounds = range(1, cfg.rounds + 1)
        streams = {"train": RoundStreams(cfg.seed, "train", range(cfg.num_clients), rounds)}
        val_members = []
        if cfg.defense == "coalition":
            planned = rounds[cfg.t0 - 1 :]  # a plan draws only from round t0 on
            streams["bandit"] = RoundStreams(cfg.seed, "bandit", cfg.coalition, planned)
            val_members = [k for k in cfg.coalition if len(clients[k].val_y)]
        if cfg.defense == "grad_noise":
            streams["gradnoise"] = RoundStreams(cfg.seed, "gradnoise", cfg.coalition, rounds)
        workspace = models.Workspace()
        train = [c.train_X for c in clients], [c.train_y for c in clients]
        val = [clients[k].val_X for k in val_members], [clients[k].val_y for k in val_members]
        state.buffers = RunBuffers(
            streams=streams,
            workspace=workspace,
            evaluation=models.StackedBatches(state.spec, *train, workspace),
            validation=models.StackedBatches(state.spec, *val, workspace),
            val_members=val_members,
            uploads=np.empty((cfg.num_clients, state.spec.param_count)),
        )
    return state.buffers


def _evaluate(state: TrainingState):
    """(params, {client id: per-sample training losses}, {member: mean
    validation loss}) under params, the global model: one pass over every
    client's training rows and one over the validation rows of the coalition
    members that have some, each batch with the bits of a pass of its own.
    Non-finite losses are returned, not warned about."""
    bufs, params = _buffers(state), state.global_params
    with np.errstate(over="ignore", invalid="ignore"):
        losses = bufs.evaluation.losses(params)
        val = bufs.validation.losses(params) if bufs.val_members else []
    val = {m: float(v.mean()) for m, v in zip(bufs.val_members, val)}
    return params, dict(enumerate(losses)), val


def _evaluation(state: TrainingState):
    """`_evaluate`'s result for the round's broadcast: that of the evaluation
    that produced it, else (in round 1) of one evaluation of the initial
    model."""
    bufs = _buffers(state)
    if bufs.last_evaluation is None or bufs.last_evaluation[0] is not state.global_params:
        bufs.last_evaluation = _evaluate(state)
    return bufs.last_evaluation


def _lockstep_inputs(state: TrainingState, plans: dict):
    """(ids, prepared lock-step inputs, or None when ids is empty) of the
    round's clients with rows to train, in client order. Plans give their
    members rows of the round's own; without plans every client trains on
    its training set, whose inputs are prepared once and kept in the run's
    buffers."""
    bufs = _buffers(state)
    if not plans and bufs.plain_lockstep is not None:
        return bufs.plain_lockstep
    rows = {k: (c.train_X, c.train_y, None) for k, c in enumerate(state.clients)}
    rows.update({k: planned_rows(state.clients[k], plan) for k, plan in plans.items()})
    ids = [k for k, (_, y, _) in rows.items() if len(y)]
    inputs = None
    if ids:
        xs, ys, masks = zip(*(rows[k] for k in ids))
        inputs = models.prepare_lockstep(xs, ys, state.config.batch_size, masks)
    if not plans:
        bufs.plain_lockstep = (ids, inputs)
    return ids, inputs


def _local_updates(state: TrainingState, round_t: int) -> np.ndarray:
    """The round's (K, P) upload matrix, the run's buffer: coalition members
    under the coalition defense are planned, every client with rows to train
    trains in one lock-step call (a member with none uploads the broadcast),
    and the members are rewarded and perturbed; grad_sparse / grad_noise
    alter their rows."""
    cfg, start = state.config, state.global_params
    bufs = _buffers(state)
    plans, losses, val_before = {}, {}, {}
    if cfg.defense == "coalition":
        subsets = state.schedule.round_subsets(round_t)
        recycling = round_t >= cfg.t0  # a plan draws only then
        if recycling:
            _, losses, val_before = _evaluation(state)
        for member, k in enumerate(cfg.coalition):
            client = state.clients[k]
            assigned = select_assigned_subset(client, subsets[member])
            rng = bufs.streams["bandit"](k, round_t) if recycling else None
            plans[k] = plan_local_update(
                losses.get(k), assigned, round_t, cfg, state.bandits[k], rng
            )
    ids, inputs = _lockstep_inputs(state, plans)
    uploads = bufs.uploads
    uploads[:] = start
    if ids:
        rngs = [bufs.streams["train"](k, round_t) for k in ids]
        dlogits_fn = cr_term(cfg.mu) if plans else None
        try:
            uploads[ids] = models.sgd_lockstep(
                state.spec, start, inputs, cfg.lr, cfg.local_epochs, rngs, dlogits_fn,
                bufs.workspace,
            )
        except models.NonFiniteLoss as err:
            raise _diverged(round_t, [ids[i] for i in err.clients]) from None
    rewarded = [k for k, plan in plans.items() if is_rewarded(plan) and len(state.clients[k].val_y)]
    val = {}
    if rewarded:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            after = dict(zip(bufs.val_members, bufs.validation.losses(uploads[bufs.val_members])))
        val = {k: (val_before[k], float(after[k].mean())) for k in rewarded}
        diverged = [k for k in rewarded if not all(map(math.isfinite, val[k]))]
        if diverged:  # the first member in coalition order, as a member-by-member reward finds
            raise _diverged(round_t, diverged[:1])
    for member, (k, plan) in enumerate(plans.items()):
        client_id = state.clients[k].client_id
        tele = reward_local_update(client_id, plan, val.get(k), round_t, state.bandits[k])
        state.telemetry.append(tele)
        if cfg.sigma > 0:
            delta = float(state.noise_plan.round_deltas(round_t)[member])
            uploads[k] = apply_perturbation(uploads[k], delta, cfg.r_p)
    if cfg.defense in ("grad_sparse", "grad_noise"):
        for k in cfg.coalition:
            update = uploads[k] - start
            if cfg.defense == "grad_sparse":
                update = grad_sparsify(update, cfg.keep_rate)
            else:
                noise_rng = bufs.streams["gradnoise"](k, round_t)
                update = grad_gaussian_noise(update, cfg.noise_sigma, noise_rng)
            uploads[k] = start + update
    return uploads


def snapshot_due(round_t: int, snapshot_every: int) -> bool:
    """Round 1 is always snapshotted; later rounds at the snapshot cadence."""
    return round_t == 1 or round_t % snapshot_every == 0


def run_round(state: TrainingState, round_t: int) -> TrainingState:
    """Execute one federation round: local updates, snapshot, aggregation, report."""
    cfg = state.config
    if not 1 <= round_t <= cfg.rounds:
        raise ValueError(f"round {round_t} outside [1, {cfg.rounds}]")

    uploads = _local_updates(state, round_t)
    if snapshot_due(round_t, cfg.snapshot_every):
        state.store.record(round_t, state.global_params, uploads)

    # the product overwrites the uploads, which the round no longer needs
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        state.global_params = aggregate_weighted(uploads, state.store.client_sizes, uploads)
    if not np.all(np.isfinite(state.global_params)):
        raise FloatingPointError(
            f"training diverged at round {round_t}: the aggregated global model is not finite"
        )

    evaluation = state.buffers.last_evaluation = _evaluate(state)
    loss_sum = 0.0
    for client_losses in evaluation[1].values():  # not sum(): it compensates on 3.12+
        loss_sum += float(client_losses.sum())
    sample_count = sum(len(c.train_y) for c in state.clients)
    if not math.isfinite(loss_sum):
        raise FloatingPointError(
            f"training diverged at round {round_t}: the global model's training loss is not finite"
        )
    state.reports.append(
        RoundReport(
            round_t=round_t,
            test_acc=models.accuracy(
                state.spec, state.global_params, state.test_X, state.test_y, state.buffers.workspace
            ),
            mean_train_loss=loss_sum / max(1, sample_count),
        )
    )
    return state
