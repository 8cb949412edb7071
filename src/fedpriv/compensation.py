"""Utility-aware compensation: loss intervals, bandit-driven sample recycling,
and confidence-regularized training for recycled samples.

A coalition client's training samples are bucketed into intervals of
comparable normalized loss. Each round, an adversarial-bandit policy picks
one interval whose not-currently-assigned samples are recycled into
training; the reward is the validation-loss reduction of the local update.
Recycled samples additionally carry a confidence-regularized loss built
from a soft label that keeps the true-class probability and spreads the
rest evenly, minus an entropy bonus weighted by mu.

A defended update is planned (`plan_local_update`) from the per-sample
training losses of the received model and the recycling fields of a
`config.ExperimentConfig` (t0, intervals, r_l), trained as one
client of a round's `models.sgd_lockstep` call (`planned_rows`, `cr_term`)
and rewarded (`reward_local_update`) by its mean validation losses under
the received model and under its upload; `compensated_local_update` runs
all three alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import ClientDataset
from .models import ModelSpec


@dataclass(eq=False)
class SampleIntervals:
    """Equal-size loss buckets over a client's samples at one round."""

    normalized: np.ndarray  # per-sample min-max normalized loss, original order
    order: np.ndarray  # sample positions sorted by normalized loss (stable)
    boundaries: np.ndarray  # rank cut points q_0..q_M

    @property
    def num_intervals(self) -> int:
        return len(self.boundaries) - 1

    def members(self, interval: int) -> np.ndarray:
        """Sample positions in the given interval, ascending."""
        if not 0 <= interval < self.num_intervals:
            raise ValueError("interval index out of range")
        lo, hi = self.boundaries[interval], self.boundaries[interval + 1]
        return np.sort(self.order[lo:hi])


@dataclass(eq=False)
class BanditState:
    """EXP3 state: positive arm weights, exploration rate, reward history
    (the raw rewards so far, kept in ascending order)."""

    weights: np.ndarray
    eta: float
    rewards: list[float] = field(default_factory=list)

    @classmethod
    def fresh(cls, num_arms: int, eta: float) -> "BanditState":
        return cls(weights=np.ones(num_arms, dtype=np.float64), eta=eta)

    @property
    def num_arms(self) -> int:
        return len(self.weights)

    def probabilities(self) -> np.ndarray:
        w = self.weights
        return (1.0 - self.eta) * w / w.sum() + self.eta / len(w)


@dataclass(frozen=True)
class Telemetry:
    """Per-round per-client compensation record."""

    round_t: int
    client_id: int
    arm: int  # -1 before recycling starts
    raw_reward: float
    norm_reward: float
    n_assigned: int
    n_recycled: int


def init_intervals(losses: np.ndarray, num_intervals: int) -> SampleIntervals:
    """Bucket samples into M intervals of near-equal size by normalized loss.

    Losses are min-max normalized (all-equal losses map to 0 and the split
    falls back to original index order); samples are sorted ascending with a
    stable sort and interval j takes sorted ranks (q_{j-1}, q_j] with
    q_j = floor(j * n / M).
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = len(losses)
    if num_intervals < 1:
        raise ValueError("num_intervals must be >= 1")
    if n < num_intervals:
        raise ValueError(f"{n} samples cannot fill {num_intervals} intervals")
    lo, hi = losses.min(), losses.max()
    normalized = np.zeros(n) if hi == lo else (losses - lo) / (hi - lo)
    order = np.argsort(normalized, kind="stable")
    boundaries = np.array(
        [(j * n) // num_intervals for j in range(num_intervals + 1)], dtype=np.int64
    )
    return SampleIntervals(normalized=normalized, order=order, boundaries=boundaries)


def compute_reward(val_loss_before: float, val_loss_after: float) -> float:
    """Validation-loss reduction of one local update (positive = improvement)."""
    if not (math.isfinite(val_loss_before) and math.isfinite(val_loss_after)):
        raise ValueError("validation losses must be finite")
    return float(val_loss_before - val_loss_after)


def _percentile(ascending: list[float], q: float) -> float:
    """`np.percentile(ascending, 100 * q)` of an ascending list, with numpy's
    linear-interpolation arithmetic."""
    at = (len(ascending) - 1) * q
    i = math.floor(at)
    if i >= len(ascending) - 1:
        return ascending[-1]
    a, b = ascending[i], ascending[i + 1]
    g, d = at - i, b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def normalize_reward(reward: float, history) -> float:
    """Rescale a raw reward to [-1, 1] via the 20th/80th percentiles of
    history, which must be finite. Sorting an ascending history, as
    BanditState keeps it, is one linear pass."""
    hist = sorted(float(r) for r in history)
    if not hist:
        raise ValueError("reward history is empty")
    if not all(map(math.isfinite, hist)):
        raise ValueError("reward history must be finite")
    r20, r80 = _percentile(hist, 0.2), _percentile(hist, 0.8)
    if r80 == r20:
        return 0.0
    return min(max(2.0 * (reward - r20) / (r80 - r20) - 1.0, -1.0), 1.0)


def exp3_select(state: BanditState, rng: np.random.Generator) -> int:
    """Draw an arm from (1 - eta) * w / sum(w) + eta / M."""
    return int(rng.choice(state.num_arms, p=state.probabilities()))


def exp3_update(state: BanditState, arm: int, norm_reward: float) -> BanditState:
    """Importance-weighted multiplicative update of the pulled arm's weight.

    The [-1, 1] reward is mapped to [0, 1] before weighting, so the worst
    reward leaves the weight unchanged. Weights are clamped to [1e-6, 1e6]
    to stay positive and finite.
    """
    if not -1.0 <= norm_reward <= 1.0:
        raise ValueError("normalized reward must be in [-1, 1]")
    p = state.probabilities()[arm]
    gain = ((norm_reward + 1.0) / 2.0) / p
    state.weights[arm] = np.clip(
        state.weights[arm] * math.exp(state.eta * gain / state.num_arms), 1e-6, 1e6
    )
    return state


def select_recycled(
    intervals: SampleIntervals,
    arm: int,
    assigned_pos: np.ndarray,
    max_ratio: float,
    total_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Recycled sample positions: interval members minus the assigned set,
    subsampled to at most floor(max_ratio * total_samples)."""
    members = intervals.members(arm)
    assigned = np.zeros(len(intervals.normalized), dtype=bool)
    assigned[np.asarray(assigned_pos, dtype=np.int64)] = True
    candidates = members[~assigned[members]]
    cap = int(math.floor(max_ratio * total_samples))
    if len(candidates) > cap:
        candidates = np.sort(rng.choice(candidates, size=cap, replace=False))
    return candidates


def soft_label(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise soft labels (n, C) for probabilities (n, C) and classes y (n,):
    keep each true-class probability, spread the rest evenly over the others."""
    probs = np.asarray(probs, dtype=np.float64)
    n, k = probs.shape
    if k < 2:
        raise ValueError("need at least 2 classes")
    rows = np.arange(n)
    p_c = probs[rows, y]
    out = np.repeat(((1.0 - p_c) / (k - 1))[:, None], k, axis=1)
    out[rows, y] = p_c
    return out


def cr_term(mu: float):
    """The confidence-regularized loss on recycled rows as `sgd_lockstep`'s
    `dlogits_fn`: its gradient w.r.t. the logits of probabilities (n, C)
    with classes y (n,). Per sample

    loss_i = KL(f_i || target_i) - mu * entropy(f_i)
           = (1 + mu) * sum_j f_ij ln f_ij - sum_j f_ij ln target_ij,

    with the soft-label targets treated as constants, clamped to >= 1e-6 and
    renormalized before their log is taken.
    """

    def dlogits(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
        targets = np.clip(soft_label(probs, y), 1e-6, None)
        targets = targets / targets.sum(axis=1, keepdims=True)
        logf = np.log(np.clip(probs, 1e-300, 1.0))
        logt = np.log(targets)
        s = (probs * logf).sum(axis=1)  # sum f ln f
        tt = (probs * logt).sum(axis=1)  # sum f ln target
        return probs * ((1.0 + mu) * (logf - s[:, None]) - (logt - tt[:, None]))

    return dlogits


def combined_sgd_epochs(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    recycled_mask: np.ndarray,
    mu: float,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """SGD on cross-entropy plus the confidence-regularized term for recycled rows.

    Per mini-batch the objective is (sum CE + sum_recycled CR) divided by the
    batch's size; soft targets are rebuilt from the current model each batch
    and treated as constants. A None mask trains on cross-entropy alone.
    """
    inputs = models.prepare_lockstep([x], [y], batch_size, [recycled_mask])
    return models.sgd_lockstep(spec, params, inputs, lr, epochs, [rng], cr_term(mu))[0]


def plan_local_update(
    losses: np.ndarray | None,
    assigned_pos: np.ndarray,
    round_t: int,
    defense,
    bandit: BanditState,
    bandit_rng: np.random.Generator | None,
) -> tuple[np.ndarray, int, int]:
    """Plan one defended local update: (rows, arm, number of recycled rows).

    The rows are training positions, assigned then recycled. Before round
    `defense.t0` (`defense` is a `config.ExperimentConfig`) the arm
    is -1 and nothing is recycled (`losses` and `bandit_rng` may be None);
    from it on, `defense.intervals` intervals of `losses`, the received
    global model's per-sample training losses, are built, one is drawn, and
    its not-assigned samples (capped at `defense.r_l`) are recycled.
    """
    assigned_pos = np.asarray(assigned_pos, dtype=np.int64)
    if round_t < defense.t0:
        return assigned_pos, -1, 0
    intervals = init_intervals(losses, defense.intervals)
    arm = exp3_select(bandit, bandit_rng)
    recycled = select_recycled(intervals, arm, assigned_pos, defense.r_l, len(losses), bandit_rng)
    return np.concatenate([assigned_pos, recycled]), arm, len(recycled)


def planned_rows(client: ClientDataset, plan) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A plan's (x, y, mask) for one client of an `sgd_lockstep` call; the mask
    marks the recycled rows, or is None when there are none (plain training)."""
    rows, _, n_recycled = plan
    mask = np.arange(len(rows)) >= len(rows) - n_recycled if n_recycled else None
    return client.train_X[rows], client.train_y[rows], mask


def is_rewarded(plan) -> bool:
    """Whether a plan's update is rewarded: it recycles and has rows to train."""
    rows, arm, _ = plan
    return arm >= 0 and len(rows) > 0


def reward_local_update(
    client_id: int, plan, val_losses: tuple[float, float] | None, round_t: int, bandit: BanditState
) -> Telemetry:
    """Reward the planned update by its validation-loss reduction and return
    its telemetry. `val_losses` holds the client's mean validation loss
    before and after the update, or is None when it has no validation rows
    (the reward is then 0). An update that is not rewarded (`is_rewarded`)
    leaves the bandit as it is and gets a reward of 0."""
    rows, arm, n_recycled = plan
    raw = norm = 0.0
    if is_rewarded(plan):
        if val_losses is not None:
            raw = compute_reward(*val_losses)
        norm = normalize_reward(raw, bandit.rewards) if len(bandit.rewards) >= 5 else 0.0
        bisect.insort(bandit.rewards, raw)
        exp3_update(bandit, arm, norm)
    return Telemetry(round_t, client_id, arm, raw, norm, len(rows) - n_recycled, n_recycled)


def compensated_local_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    client: ClientDataset,
    assigned_pos: np.ndarray,
    round_t: int,
    defense,
    bandit: BanditState,
    lr: float,
    epochs: int,
    batch_size: int,
    train_rng: np.random.Generator,
    bandit_rng: np.random.Generator,
) -> tuple[np.ndarray, Telemetry]:
    """One client's defended local update under `defense`, a
    `config.ExperimentConfig`: plan, train, reward. If nothing is
    trainable the global parameters are returned and the bandit is not updated.
    """
    losses = None
    if round_t >= defense.t0:
        losses = models.per_sample_losses(spec, global_params, client.train_X, client.train_y)
    plan = plan_local_update(losses, assigned_pos, round_t, defense, bandit, bandit_rng)
    x, y, mask = planned_rows(client, plan)
    args = (x, y, mask, defense.mu, lr, epochs, batch_size, train_rng)
    params = combined_sgd_epochs(spec, global_params, *args) if len(y) else global_params.copy()
    val = None
    if is_rewarded(plan) and len(client.val_y):
        with np.errstate(over="ignore", invalid="ignore"):  # compute_reward refuses them
            val = tuple(
                float(models.per_sample_losses(spec, p, client.val_X, client.val_y).mean())
                for p in (global_params, params)
            )
    return params, reward_local_update(client.client_id, plan, val, round_t, bandit)
