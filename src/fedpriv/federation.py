"""FedAvg round loop with pluggable per-client defenses and snapshot recording.

Every client trains every round (full participation keeps the coalition's
noise cancellation exact). The clients that train plainly do so together in
one lock-step `models.sgd_clients` call; coalition members under the
coalition defense train one by one. The server aggregates local parameters
with weights proportional to each client's original local dataset size, and
records model snapshots — the global broadcast and every uploaded local —
at round 1 and every snapshot_every rounds thereafter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .assignment import (
    ClassAssignmentSchedule,
    CoalitionSpec,
    build_schedule,
    select_assigned_subset,
)
from .compensation import BanditState, RecycleConfig, Telemetry, compensated_local_update
from .data import ClientDataset
from .models import ModelSpec
from .perturbation import NoisePlan, apply_perturbation, build_noise_plan
from .rng import stream

DEFENSE_KINDS = ("none", "coalition", "grad_sparse", "grad_noise")


@dataclass(frozen=True)
class FlConfig:
    """Federation-level knobs; `coalition` is the set of defended clients."""

    num_clients: int
    rounds: int
    lr: float = 0.2
    local_epochs: int = 1
    batch_size: int = 32
    snapshot_every: int = 10
    defense: str = "none"
    coalition: tuple[int, ...] = ()
    seed: int = 0
    keep_rate: float = 0.1  # grad_sparse
    noise_sigma: float = 0.01  # grad_noise

    def __post_init__(self) -> None:
        if self.num_clients < 1 or self.rounds < 1 or self.snapshot_every < 1:
            raise ValueError("num_clients, rounds, snapshot_every must be >= 1")
        if self.defense not in DEFENSE_KINDS:
            raise ValueError(f"defense must be one of {DEFENSE_KINDS}")
        coalition = tuple(sorted(set(self.coalition)))
        object.__setattr__(self, "coalition", coalition)
        if coalition and not (0 <= coalition[0] and coalition[-1] < self.num_clients):
            raise ValueError("coalition ids must lie in [0, num_clients)")
        if self.defense != "none" and not coalition:
            raise ValueError(f"defense {self.defense!r} needs a non-empty coalition")


@dataclass(frozen=True)
class CoalitionDefenseConfig:
    """Knobs for the collaborative defense run by the coalition."""

    m_max: int
    m_min: int
    decay: str = "linear"
    recycle: RecycleConfig = field(default_factory=RecycleConfig)
    sigma: float = 0.1
    tail_ratio: float = 0.2


@dataclass
class RoundReport:
    round_t: int
    test_acc: float
    mean_train_loss: float
    client_sizes: tuple[int, ...]


SNAPSHOT_FIELDS = ("rounds", "client_sizes", "spec", "globals", "locals")


class SnapshotStore:
    """Recorded model snapshots: global broadcast and uploaded locals per round."""

    def __init__(self, spec: ModelSpec, client_sizes: np.ndarray):
        self.spec = spec
        self.client_sizes = np.asarray(client_sizes, dtype=np.int64)
        self.rounds: list[int] = []
        self._globals: dict[int, np.ndarray] = {}
        self._locals: dict[int, dict[int, np.ndarray]] = {}

    @property
    def num_clients(self) -> int:
        return len(self.client_sizes)

    def record(self, round_t: int, global_params: np.ndarray, local_map: dict[int, np.ndarray]):
        self.rounds.append(round_t)
        self._globals[round_t] = global_params.copy()
        self._locals[round_t] = {k: v.copy() for k, v in local_map.items()}

    def global_at(self, round_t: int) -> np.ndarray:
        return self._globals[round_t]

    def local_at(self, round_t: int, client: int) -> np.ndarray:
        locals_t = self._locals[round_t]
        if client not in locals_t:
            raise KeyError(f"no snapshot of client {client} at round {round_t}")
        return locals_t[client]

    def save(self, path: str) -> None:
        spec = self.spec
        globals_stack = np.stack([self._globals[t] for t in self.rounds])
        locals_stack = np.stack(
            [np.stack([self._locals[t][k] for k in range(self.num_clients)]) for t in self.rounds]
        )
        np.savez_compressed(
            path,
            rounds=np.asarray(self.rounds, dtype=np.int64),
            client_sizes=self.client_sizes,
            spec=np.asarray([spec.input_dim, spec.hidden_dim, spec.num_classes], dtype=np.int64),
            globals=globals_stack,
            locals=locals_stack,
        )

    @classmethod
    def load(cls, path: str) -> "SnapshotStore":
        """Read a file written by `save`, checking every field's shape.

        Each stored array is read (and decompressed) exactly once; the
        per-round snapshots are row views into the loaded stacks.
        """
        with np.load(path) as blob:
            missing = [name for name in SNAPSHOT_FIELDS if name not in blob.files]
            if missing:
                raise ValueError(f"snapshot file lacks field(s) {missing}")
            fields = {name: blob[name] for name in SNAPSHOT_FIELDS}
        store = cls(_check_snapshot_fields(fields), fields["client_sizes"])
        store.rounds = [int(t) for t in fields["rounds"]]
        store._globals = dict(zip(store.rounds, fields["globals"]))
        store._locals = {t: dict(enumerate(row)) for t, row in zip(store.rounds, fields["locals"])}
        return store


def _check_snapshot_fields(fields: dict[str, np.ndarray]) -> ModelSpec:
    """Validate a loaded snapshot file and return its ModelSpec.

    Raises ValueError naming the first field that does not fit the others:
    spec (d, h, C), globals (R, P) with P = spec.param_count, locals (R, K, P),
    client_sizes (K,) and rounds (R,) strictly increasing.
    """

    def bad(name: str, why: str) -> ValueError:
        return ValueError(f"snapshot field {name!r} {why}")

    def is_int(arr: np.ndarray) -> bool:
        return np.issubdtype(arr.dtype, np.integer)

    raw_spec = fields["spec"]
    if raw_spec.shape != (3,) or not is_int(raw_spec):
        raise bad("spec", f"must be 3 ints (input_dim, hidden_dim, classes), got {raw_spec!r}")
    try:
        spec = ModelSpec(*(int(v) for v in raw_spec))
    except ValueError as err:
        raise bad("spec", f"is not a valid model: {err}") from None
    p = spec.param_count
    globals_stack = fields["globals"]
    if globals_stack.ndim != 2 or globals_stack.shape[1] != p or len(globals_stack) == 0:
        raise bad("globals", f"must have shape (R, {p}) with R >= 1, got {globals_stack.shape}")
    r = len(globals_stack)
    locals_stack = fields["locals"]
    if locals_stack.ndim != 3 or locals_stack.shape[0] != r or locals_stack.shape[2] != p:
        raise bad("locals", f"must have shape ({r}, K, {p}), got {locals_stack.shape}")
    k = locals_stack.shape[1]
    sizes = fields["client_sizes"]
    if sizes.shape != (k,) or not is_int(sizes):
        raise bad("client_sizes", f"must be {k} ints, got shape {sizes.shape}")
    rounds = fields["rounds"]
    if (
        rounds.shape != (r,)
        or not is_int(rounds)
        or np.any(np.diff(rounds.astype(np.int64)) <= 0)
    ):
        raise bad("rounds", f"must be {r} strictly increasing ints, got {rounds!r}")
    return spec


def aggregate_weighted(params_list, weights) -> np.ndarray:
    """Element-wise weighted average sum(w_k * theta_k) / sum(w_k)."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(params_list) != len(weights):
        raise ValueError("params_list and weights differ in length")
    if len(params_list) == 0:
        raise ValueError("nothing to aggregate")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    length = len(params_list[0])
    if any(len(p) != length for p in params_list):
        raise ValueError("parameter vectors differ in length")
    out = np.zeros(length)
    for w, p in zip(weights, params_list):
        out += w * p
    return out / weights.sum()


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


@dataclass
class TrainingState:
    """Mutable state threaded through run_round."""

    config: FlConfig
    spec: ModelSpec
    clients: list[ClientDataset]
    test_X: np.ndarray
    test_y: np.ndarray
    global_params: np.ndarray
    store: SnapshotStore
    reports: list[RoundReport] = field(default_factory=list)
    telemetry: list[Telemetry] = field(default_factory=list)
    schedule: ClassAssignmentSchedule | None = None
    noise_plan: NoisePlan | None = None
    bandits: dict[int, BanditState] = field(default_factory=dict)
    defense_cfg: CoalitionDefenseConfig | None = None


def init_training(
    config: FlConfig,
    spec: ModelSpec,
    clients: list[ClientDataset],
    test_X: np.ndarray,
    test_y: np.ndarray,
    defense_cfg: CoalitionDefenseConfig | None = None,
) -> TrainingState:
    """Coordinator preparation: model init plus, for the coalition defense,
    the full class-assignment schedule and the precomputed noise plan."""
    if len(clients) != config.num_clients:
        raise ValueError("client list does not match num_clients")
    sizes = np.asarray([c.num_samples for c in clients], dtype=np.int64)
    state = TrainingState(
        config=config,
        spec=spec,
        clients=clients,
        test_X=np.asarray(test_X, dtype=np.float64),
        test_y=np.asarray(test_y, dtype=np.int64),
        global_params=models.init_params(spec, stream(config.seed, "init")),
        store=SnapshotStore(spec, sizes),
    )
    if config.defense == "coalition":
        if defense_cfg is None:
            raise ValueError("coalition defense requires a CoalitionDefenseConfig")
        state.defense_cfg = defense_cfg
        coalition_spec = CoalitionSpec(
            coalition_size=len(config.coalition),
            num_classes=spec.num_classes,
            m_max=defense_cfg.m_max,
            m_min=defense_cfg.m_min,
            decay=defense_cfg.decay,
            rounds=config.rounds,
        )
        state.schedule = build_schedule(coalition_spec, config.seed)
        state.noise_plan = build_noise_plan(
            weights=sizes[list(config.coalition)],
            sigma=defense_cfg.sigma,
            tail_ratio=defense_cfg.tail_ratio,
            rounds=config.rounds,
            seed=config.seed,
        )
        state.bandits = {
            k: BanditState.fresh(defense_cfg.recycle.num_intervals, defense_cfg.recycle.eta)
            for k in config.coalition
        }
    return state


def _diverged(round_t: int, clients) -> FloatingPointError:
    return FloatingPointError(
        f"training diverged at round {round_t}: non-finite loss in the local update "
        f"of client(s) {list(clients)}"
    )


def _plain_updates(state: TrainingState, ids: list[int], round_t: int) -> dict[int, np.ndarray]:
    """Uploads of the clients that train plainly, all in one lock-step call;
    the grad_sparse / grad_noise baselines then alter their coalition's uploads."""
    cfg = state.config
    try:
        trained = models.sgd_clients(
            state.spec,
            state.global_params,
            [state.clients[k].train_X for k in ids],
            [state.clients[k].train_y for k in ids],
            cfg.lr,
            cfg.local_epochs,
            cfg.batch_size,
            [stream(cfg.seed, "train", k, round_t) for k in ids],
        )
    except models.NonFiniteLoss as err:
        raise _diverged(round_t, [ids[i] for i in err.clients]) from None
    uploads = dict(zip(ids, trained))
    if cfg.defense in ("grad_sparse", "grad_noise"):
        for k in cfg.coalition:
            update = uploads[k] - state.global_params
            if cfg.defense == "grad_sparse":
                update = grad_sparsify(update, cfg.keep_rate)
            else:
                noise_rng = stream(cfg.seed, "gradnoise", k, round_t)
                update = grad_gaussian_noise(update, cfg.noise_sigma, noise_rng)
            uploads[k] = state.global_params + update
    return uploads


def _coalition_update(state: TrainingState, client_id: int, round_t: int):
    """One coalition member's defended round: (uploaded params, telemetry)."""
    cfg = state.config
    dcfg = state.defense_cfg
    member = cfg.coalition.index(client_id)
    client = state.clients[client_id]
    classes = state.schedule.round_subsets(round_t)[member]
    try:
        params, tele = compensated_local_update(
            state.spec,
            state.global_params,
            client,
            select_assigned_subset(client, classes),
            round_t,
            dcfg.recycle,
            state.bandits[client_id],
            cfg.lr,
            cfg.local_epochs,
            cfg.batch_size,
            stream(cfg.seed, "train", client_id, round_t),
            stream(cfg.seed, "bandit", client_id, round_t),
        )
    except FloatingPointError:  # non-finite training or validation loss
        raise _diverged(round_t, [client_id]) from None
    if dcfg.sigma > 0:
        delta = float(state.noise_plan.round_deltas(round_t)[member])
        params = apply_perturbation(params, delta, dcfg.tail_ratio)
    return params, tele


def snapshot_due(round_t: int, snapshot_every: int) -> bool:
    """Round 1 is always snapshotted; later rounds at the snapshot cadence."""
    return round_t == 1 or round_t % snapshot_every == 0


def run_round(state: TrainingState, round_t: int) -> TrainingState:
    """Execute one federation round: local updates, snapshot, aggregation, report."""
    cfg = state.config
    if not 1 <= round_t <= cfg.rounds:
        raise ValueError(f"round {round_t} outside [1, {cfg.rounds}]")

    defended = cfg.coalition if cfg.defense == "coalition" else ()
    ids = [k for k in range(cfg.num_clients) if k not in defended]
    local_map = _plain_updates(state, ids, round_t) if ids else {}
    for k in defended:
        local_map[k], tele = _coalition_update(state, k, round_t)
        state.telemetry.append(tele)

    if snapshot_due(round_t, cfg.snapshot_every):
        state.store.record(round_t, state.global_params, local_map)

    sizes = state.store.client_sizes
    state.global_params = aggregate_weighted(
        [local_map[k] for k in range(cfg.num_clients)], sizes
    )
    if not np.all(np.isfinite(state.global_params)):
        raise FloatingPointError(
            f"training diverged at round {round_t}: the aggregated global model is not finite"
        )

    loss_sum = 0.0
    sample_count = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is raised below
        for client in state.clients:
            losses = models.per_sample_losses(
                state.spec, state.global_params, client.train_X, client.train_y
            )
            loss_sum += float(losses.sum())
            sample_count += len(losses)
    if not math.isfinite(loss_sum):
        raise FloatingPointError(
            f"training diverged at round {round_t}: the global model's training loss is not finite"
        )
    state.reports.append(
        RoundReport(
            round_t=round_t,
            test_acc=models.accuracy(state.spec, state.global_params, state.test_X, state.test_y),
            mean_train_loss=loss_sum / max(1, sample_count),
            client_sizes=tuple(int(s) for s in sizes),
        )
    )
    return state


def run_training(
    config: FlConfig,
    spec: ModelSpec,
    clients: list[ClientDataset],
    test_X: np.ndarray,
    test_y: np.ndarray,
    defense_cfg: CoalitionDefenseConfig | None = None,
) -> TrainingState:
    """Full deterministic training run; returns the final state with
    snapshots, round reports, compensation telemetry, and the schedule."""
    state = init_training(config, spec, clients, test_X, test_y, defense_cfg)
    for t in range(1, config.rounds + 1):
        run_round(state, t)
    return state
