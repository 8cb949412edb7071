"""Utility-aware compensation: loss intervals, bandit-driven sample recycling,
and confidence-regularized training for recycled samples.

A coalition client's training samples are bucketed into intervals of
comparable normalized loss. Each round, an adversarial-bandit policy picks
one interval whose not-currently-assigned samples are recycled into
training; the reward is the validation-loss reduction of the local update.
Recycled samples additionally carry a confidence-regularized loss built
from a soft label that keeps the true-class probability and spreads the
rest evenly, minus an entropy bonus weighted by mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import ClientDataset
from .models import ModelSpec


@dataclass(frozen=True)
class RecycleConfig:
    """Compensation knobs: start round, interval count, cap, entropy weight."""

    start_round: int = 10  # t0: recycling is active from this round on
    num_intervals: int = 10  # M
    max_ratio: float = 0.1  # r_l: per-round cap as a fraction of |D_k|
    mu: float = 0.005  # entropy-regularizer weight
    eta: float = 0.1  # bandit exploration rate
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.start_round < 1:
            raise ValueError("start_round must be >= 1")
        if self.num_intervals < 1:
            raise ValueError("num_intervals must be >= 1")
        if not 0.0 <= self.max_ratio <= 1.0:
            raise ValueError("max_ratio must be in [0, 1]")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")


@dataclass
class SampleIntervals:
    """Equal-size loss buckets over a client's samples at one round."""

    normalized: np.ndarray  # per-sample min-max normalized loss, original order
    order: np.ndarray  # sample positions sorted by normalized loss (stable)
    boundaries: np.ndarray  # rank cut points q_0..q_M
    assignment: np.ndarray  # per-sample interval index, original order

    @property
    def num_intervals(self) -> int:
        return len(self.boundaries) - 1

    def members(self, interval: int) -> np.ndarray:
        """Sample positions in the given interval, ascending."""
        if not 0 <= interval < self.num_intervals:
            raise ValueError("interval index out of range")
        lo, hi = self.boundaries[interval], self.boundaries[interval + 1]
        return np.sort(self.order[lo:hi])


@dataclass
class BanditState:
    """EXP3 state: positive arm weights, exploration rate, reward history."""

    weights: np.ndarray
    eta: float
    rewards: list[float] = field(default_factory=list)
    pulls: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, num_arms: int, eta: float) -> "BanditState":
        return cls(weights=np.ones(num_arms, dtype=np.float64), eta=eta)

    @property
    def num_arms(self) -> int:
        return len(self.weights)

    def probabilities(self) -> np.ndarray:
        w = self.weights
        return (1.0 - self.eta) * w / w.sum() + self.eta / len(w)

    def record_reward(self, reward: float) -> None:
        self.rewards.append(float(reward))


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
    assignment = np.empty(n, dtype=np.int64)
    for j in range(num_intervals):
        assignment[order[boundaries[j] : boundaries[j + 1]]] = j
    return SampleIntervals(
        normalized=normalized, order=order, boundaries=boundaries, assignment=assignment
    )


def compute_reward(val_loss_before: float, val_loss_after: float) -> float:
    """Validation-loss reduction of one local update (positive = improvement)."""
    if not (math.isfinite(val_loss_before) and math.isfinite(val_loss_after)):
        raise ValueError("validation losses must be finite")
    return float(val_loss_before - val_loss_after)


def normalize_reward(reward: float, history) -> float:
    """Rescale a raw reward to [-1, 1] via the 20th/80th percentiles of history."""
    hist = np.asarray(list(history), dtype=np.float64)
    if len(hist) < 1:
        raise ValueError("reward history is empty")
    r20, r80 = np.percentile(hist, [20.0, 80.0])
    if r80 == r20:
        return 0.0
    return float(np.clip(2.0 * (reward - r20) / (r80 - r20) - 1.0, -1.0, 1.0))


def exp3_select(state: BanditState, rng: np.random.Generator) -> int:
    """Draw an arm from (1 - eta) * w / sum(w) + eta / M and log the pull."""
    arm = int(rng.choice(state.num_arms, p=state.probabilities()))
    state.pulls.append(arm)
    return arm


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
    candidates = np.setdiff1d(intervals.members(arm), assigned_pos, assume_unique=True)
    cap = int(math.floor(max_ratio * total_samples))
    if len(candidates) > cap:
        candidates = np.sort(rng.choice(candidates, size=cap, replace=False))
    return candidates


def soft_label(probs: np.ndarray, true_class: int) -> np.ndarray:
    """Keep the true-class probability, spread the rest evenly over other classes."""
    probs = np.asarray(probs, dtype=np.float64)
    n = len(probs)
    if n < 2:
        raise ValueError("need at least 2 classes")
    p_c = probs[true_class]
    out = np.full(n, (1.0 - p_c) / (n - 1))
    out[true_class] = p_c
    return out


def _soft_targets(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized soft labels, clamped to >= 1e-6 and renormalized."""
    n, k = probs.shape
    p_c = probs[np.arange(n), y]
    targets = np.repeat(((1.0 - p_c) / (k - 1))[:, None], k, axis=1)
    targets[np.arange(n), y] = p_c
    targets = np.clip(targets, 1e-6, None)
    return targets / targets.sum(axis=1, keepdims=True)


def _cr_loss_and_dlogits(probs: np.ndarray, targets: np.ndarray, mu: float):
    """Per-sample confidence-regularized loss and its logit gradient.

    loss_i = KL(f_i || target_i) - mu * entropy(f_i)
           = (1 + mu) * sum_j f_ij ln f_ij - sum_j f_ij ln target_ij,
    with targets treated as constants.
    """
    safe = np.clip(probs, 1e-300, 1.0)
    logf = np.log(safe)
    logt = np.log(targets)
    s = (probs * logf).sum(axis=1)  # sum f ln f
    tt = (probs * logt).sum(axis=1)  # sum f ln target
    loss = (1.0 + mu) * s - tt
    dlogits = probs * ((1.0 + mu) * (logf - s[:, None]) - (logt - tt[:, None]))
    return loss, dlogits


def confidence_regularized_loss(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: int, mu: float
) -> tuple[float, np.ndarray]:
    """Confidence-regularized loss of one sample and its analytic gradient."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    xb = np.asarray(x, dtype=np.float64)[None, :]
    probs = models.predict_proba(spec, params, xb)
    targets = _soft_targets(probs, np.asarray([int(y)]))
    loss, dlogits = _cr_loss_and_dlogits(probs, targets, mu)
    return float(loss[0]), models.grad_from_dlogits(spec, params, xb, dlogits)


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
    and treated as constants.
    """

    def cr_dlogits(probs: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
        return _cr_loss_and_dlogits(probs, _soft_targets(probs, y_rows), mu)[1]

    return models.sgd_clients(
        spec, params, [x], [y], lr, epochs, batch_size, [rng], ([recycled_mask], cr_dlogits)
    )[0]


def compensated_local_update(
    spec: ModelSpec,
    global_params: np.ndarray,
    client: ClientDataset,
    assigned_pos: np.ndarray,
    round_t: int,
    recycle: RecycleConfig,
    bandit: BanditState,
    lr: float,
    epochs: int,
    batch_size: int,
    train_rng: np.random.Generator,
    bandit_rng: np.random.Generator,
) -> tuple[np.ndarray, Telemetry]:
    """One defended local update: assigned samples plus bandit-chosen recycling.

    Before the start round, trains with plain cross-entropy on the assigned
    samples. From the start round on, intervals are rebuilt from the received
    global model's per-sample losses, an interval is drawn, its
    not-assigned samples (capped) are recycled under the
    confidence-regularized loss, and the bandit is updated with the
    validation-loss reduction. If nothing is trainable the global parameters
    are returned unchanged and the bandit is not updated.
    """
    assigned_pos = np.asarray(assigned_pos, dtype=np.int64)

    def _telemetry(arm, raw, norm, n_rec):
        return Telemetry(round_t, client.client_id, arm, raw, norm, len(assigned_pos), n_rec)

    if round_t < recycle.start_round:
        if len(assigned_pos) == 0:
            return global_params.copy(), _telemetry(-1, 0.0, 0.0, 0)
        params = models.sgd_epochs(
            spec,
            global_params,
            client.train_X[assigned_pos],
            client.train_y[assigned_pos],
            lr,
            epochs,
            batch_size,
            train_rng,
        )
        return params, _telemetry(-1, 0.0, 0.0, 0)

    losses = models.per_sample_losses(spec, global_params, client.train_X, client.train_y)
    intervals = init_intervals(losses, recycle.num_intervals)
    arm = exp3_select(bandit, bandit_rng)
    recycled_pos = select_recycled(
        intervals, arm, assigned_pos, recycle.max_ratio, len(losses), bandit_rng
    )
    if len(assigned_pos) == 0 and len(recycled_pos) == 0:
        return global_params.copy(), _telemetry(arm, 0.0, 0.0, 0)

    if len(recycled_pos) == 0:
        params = models.sgd_epochs(
            spec,
            global_params,
            client.train_X[assigned_pos],
            client.train_y[assigned_pos],
            lr,
            epochs,
            batch_size,
            train_rng,
        )
    else:
        pos = np.concatenate([assigned_pos, recycled_pos])
        mask = np.zeros(len(pos), dtype=bool)
        mask[len(assigned_pos) :] = True
        params = combined_sgd_epochs(
            spec,
            global_params,
            client.train_X[pos],
            client.train_y[pos],
            mask,
            recycle.mu,
            lr,
            epochs,
            batch_size,
            train_rng,
        )

    if len(client.val_y):
        before = float(
            models.per_sample_losses(spec, global_params, client.val_X, client.val_y).mean()
        )
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is raised below
            after = float(
                models.per_sample_losses(spec, params, client.val_X, client.val_y).mean()
            )
        if not math.isfinite(after):
            raise FloatingPointError("non-finite validation loss after the local update")
        raw = compute_reward(before, after)
    else:
        raw = 0.0
    norm = normalize_reward(raw, bandit.rewards) if len(bandit.rewards) >= 5 else 0.0
    bandit.record_reward(raw)
    exp3_update(bandit, arm, norm)
    return params, _telemetry(arm, raw, norm, len(recycled_pos))
