"""Trajectory-based membership-inference attacks over recorded snapshots.

Every attack consumes per-sample measurement trajectories (loss, true-class
confidence, or gradient cosine) across the recorded rounds of a training
run and emits one score per sample, with the convention that a higher
score means "more likely a member".

Targets: the global model series, one client's local model series, or the
weighted aggregate of the defender coalition's locals (the adaptive
attacker's target, which the cancellation property makes identical with
and without perturbation).

A trajectory and FedMIA's OUT statistic (Carlini et al., arXiv:2112.03570)
both measure a round at a time through `_round_measurements`.

Several attacks read the same trajectory: `run_attack` calls that pass one
`shared` dict compute each (target, kind) trajectory once between them
(`experiment.stage_attack` makes one dict per call).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .data import EvalPools, LabeledDataset
from .federation import SnapshotStore, aggregate_weighted
from .metrics import DEFAULT_FPR_LEVELS, auc_score, tpr_at_fpr

MEASUREMENT_KINDS = ("loss", "confidence", "grad_cosine")
ATTACK_NAMES = ("loss_series", "avg_cosine", "fta_l", "fta_c", "fedmia_i", "fedmia_ii")
# the attacks that score a trajectory's differences or slope
MULTI_ROUND_ATTACKS = ("avg_cosine", "fta_l", "fta_c")

OUT_STD_FLOOR = 1e-6


@dataclass
class AttackResult:
    attack: str
    target: str
    scores: np.ndarray
    labels: np.ndarray  # 1 = member
    auc: float
    tpr_at_fpr: dict[float, float]


# ---------------------------------------------------------------------------
# measurement extraction
# ---------------------------------------------------------------------------


def _target_params(store: SnapshotStore, selector, row: int) -> np.ndarray:
    """Resolve a selector to model parameters at one recorded round, given as
    its row (position in `store.rounds`).

    selector: "global", ("local", k), or ("coalition", ids).
    """
    if selector == "global":
        return store.globals[row]
    tag = selector[0]
    if tag not in ("local", "coalition"):
        raise ValueError(f"unknown selector {selector!r}")
    ids = [selector[1]] if tag == "local" else list(selector[1])
    if not all(0 <= k < store.num_clients for k in ids):
        raise ValueError(f"selector {selector!r} names a client outside [0, {store.num_clients})")
    locals_t = store.locals[row]
    if tag == "local":
        return locals_t[ids[0]]
    return aggregate_weighted(locals_t[ids], store.client_sizes[ids])


# Most bytes of the (rows, directions, units) projection block that
# `_grad_cosines` holds at once. 1 MiB ran fastest on the benchmark's OUT
# shape; a one-shot projection there is 11 MB and grows with every factor.
COSINE_BLOCK_BYTES = 1024 * 1024

# OpenBLAS's SkylakeX kernels run a product of a transposed and a plain
# matrix (what numpy issues for `a @ W.T`) with at most this many outputs
# and an inner dimension of 32 or more through a small-matrix kernel whose
# bits differ from the blocked kernel's. `_grad_cosines` keeps every block's
# product above it whenever the whole product is.
SMALL_GEMM_OUTPUTS = 1200


def _grad_matrix(spec, params, x, y) -> np.ndarray:
    """Per-sample cross-entropy gradients stacked into an (n, P) matrix.

    The explicit reference that `_grad_cosines` is tested against; the
    attacks themselves never call it.
    """
    return np.stack(
        [models.loss_and_grad(spec, params, x[i : i + 1], y[i : i + 1])[1] for i in range(len(y))]
    )


def _cosine_block_rows(row_bytes: int, least: int) -> int:
    """Query rows per block of `_grad_cosines`: as many as keep a block of
    `row_bytes` a row within COSINE_BLOCK_BYTES, in whole multiples of 12,
    but at least 12 and at least `least`."""
    groups = max(COSINE_BLOCK_BYTES // max(row_bytes, 1) // 12, -(-least // 12), 1)
    return 12 * groups


def _cosine_blocks(n: int, m: int, units) -> list[tuple[int, int]]:
    """(start, stop) of each block of query rows that `_grad_cosines` projects
    at once, for n samples, m directions and layers of `units` outputs.

    Every block starts at a multiple of 12. Each has enough rows that its
    product keeps more than SMALL_GEMM_OUTPUTS outputs in every layer, and at
    least 2 (numpy computes a one-row product as a vector product); a last
    block with fewer joins the one before it.
    """
    least = max(2, SMALL_GEMM_OUTPUTS // max(m * min(units), 1) + 1)
    step = _cosine_block_rows(8 * m * max(units), least)
    starts = list(range(0, max(n, 1), step))
    if len(starts) > 1 and n - starts[-1] < least:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _grad_cosines(spec, params, x, y, directions) -> np.ndarray:
    """Cosine of every sample's cross-entropy gradient at `params` with every
    direction row: (m, n) for m directions (rows of length P) and n samples.

    One forward pass; per-sample gradients are never built. Each layer's
    per-sample gradient is the outer product of its backpropagated signal
    delta and its input a, plus delta for the bias (Goodfellow,
    arXiv:1510.01799), so against a direction block (V, c) its dot product is
    sum(delta * (a V^T + c)) and its squared norm is |delta|^2 (|a|^2 + 1).
    A zero gradient or a zero direction gives cosine 0.

    The projection a V^T + c runs over `_cosine_blocks` of query rows in
    one buffer that both layers reuse, so a call holds a (rows, m, units)
    block of about COSINE_BLOCK_BYTES instead of all n rows. With one BLAS
    thread the cosines keep the bits of a one-shot projection: OpenBLAS
    computes each row of a block that starts at a multiple of 12 rows with
    the bits of the whole product, no block is small enough to switch
    kernels, and each (direction, sample) dot product sums the same units in
    the same order. Splitting the directions instead can change bits.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    logits, cache, x = models._logits_and_hidden(spec, params, x)
    n, m = len(y), len(directions)
    dlogits = np.exp(models.log_softmax(logits))
    dlogits[np.arange(n), y] -= 1.0
    if spec.hidden_dim == 0:
        layers = [(x, dlogits)]
    else:
        pre, hid = cache
        _, _, w2, _ = models.unpack(spec, params)
        layers = [(x, models._relu_backward(pre, dlogits @ w2)), (hid, dlogits)]
    blocks = models._layers(spec, directions)
    units = [w.shape[1] for w in blocks[0::2]]
    bounds = _cosine_blocks(n, m, units)
    buffer = np.empty(max(e - s for s, e in bounds) * m * max(units))
    dots = np.zeros((m, n))
    sq_norms = np.zeros(n)
    for (a, delta), w, c in zip(layers, blocks[0::2], blocks[1::2]):
        rows, cols = w.shape[1:]
        w_t = w.reshape(m * rows, cols).T
        for s, e in bounds:
            proj = buffer[: (e - s) * m * rows].reshape(e - s, m * rows)
            np.matmul(a[s:e], w_t, out=proj)
            proj = proj.reshape(e - s, m, rows)
            proj += c
            dots[:, s:e] += np.einsum("nmr,nr->mn", proj, delta[s:e])
        sq_norms += (delta * delta).sum(axis=1) * ((a * a).sum(axis=1) + 1.0)
    norms = np.linalg.norm(directions, axis=1)[:, None] * np.sqrt(sq_norms)
    return np.divide(dots, norms, out=np.zeros((m, n)), where=norms > 0)


def _round_measurements(spec, global_t, targets, x, y, kind, workspace=None) -> np.ndarray:
    """(G, n) measurements of a batch x (n, input_dim), y under each of a
    round's target models (G, P): loss and confidence through one
    `models.measure` call, x broadcast to the G models, in `workspace`;
    gradient cosines with each target's update from the round's global
    model global_t. Each model's values have the bits of a call of its own.
    """
    x = models._as_batch(spec, x)
    if kind == "grad_cosine":
        directions = targets - global_t
        del targets  # frees a stack that only this call holds before the cosine buffers exist
        return _grad_cosines(spec, global_t, x, y, directions)
    stack = np.broadcast_to(x, (len(targets), *x.shape))
    labels = np.tile(np.asarray(y, dtype=np.int64), len(targets))
    return models.measure(spec, targets, [stack], labels, kind, workspace).reshape(stack.shape[:2])


def trajectory_matrix(
    store: SnapshotStore,
    selector,
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(values (n, rounds), recorded rounds) for a batch of query samples.

    Each round takes one `_round_measurements` call, in one shared
    workspace. grad_cosine is the cosine between each sample's gradient at
    the round's global model and the selected model's update direction for
    that round (selected params minus the global broadcast).
    """
    if kind not in MEASUREMENT_KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    if not store.rounds:
        raise ValueError("snapshot store is empty")
    rounds = np.asarray(store.rounds, dtype=np.int64)
    workspace = models.Workspace()
    cols = []
    for row, (global_t, locals_t) in enumerate(zip(store.globals, store.locals)):
        if kind == "grad_cosine" and selector == "global":
            target = aggregate_weighted(locals_t, store.client_sizes)
        else:
            target = _target_params(store, selector, row)
        values = _round_measurements(store.spec, global_t, target[None], x, y, kind, workspace)
        cols.append(values[0])
    return np.column_stack(cols), rounds


# ---------------------------------------------------------------------------
# attack scoring
# ---------------------------------------------------------------------------


def attack_loss_series(values: np.ndarray) -> np.ndarray:
    """Score = -mean(loss trajectory): members sit at lower loss."""
    return -values.mean(axis=1)


def attack_avg_cosine(values: np.ndarray) -> np.ndarray:
    """Score = -mean of first differences of the gradient-cosine trajectory."""
    if values.shape[1] < 2:
        raise ValueError("need at least 2 recorded rounds")
    return -np.diff(values, axis=1).mean(axis=1)


def _ols_slope(values: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    r = rounds - rounds.mean()
    denom = float(r @ r)
    if denom == 0.0:
        raise ValueError("need at least 2 distinct rounds")
    centered = values - values.mean(axis=1, keepdims=True)
    return centered @ r / denom


def attack_fta(values: np.ndarray, rounds: np.ndarray, kind: str) -> np.ndarray:
    """Trajectory-slope attack: score = -slope of loss, or +slope of confidence."""
    if values.shape[1] < 2:
        raise ValueError("need at least 2 recorded rounds")
    slope = _ols_slope(values, np.asarray(rounds, dtype=np.float64))
    if kind == "loss":
        return -slope
    if kind == "confidence":
        return slope
    raise ValueError(f"fta kind must be loss or confidence, got {kind!r}")


def _out_stats_matrix(store, x, y, exclude_clients, kind):
    """Per-round mean/std (n, rounds) of each sample's measurement under the
    local models of every client outside `exclude_clients`.

    Each round takes one `_round_measurements` call on the stack of those
    models, in one shared workspace. Uses the population standard deviation,
    floored at 1e-6.
    """
    others = [k for k in range(store.num_clients) if k not in exclude_clients]
    if len(others) < 2:
        raise ValueError("need at least 2 non-target clients")
    workspace = models.Workspace()
    per_round_means, per_round_stds = [], []
    for global_t, locals_t in zip(store.globals, store.locals):
        stack = _round_measurements(store.spec, global_t, locals_t[others], x, y, kind, workspace)
        per_round_means.append(stack.mean(axis=0))
        per_round_stds.append(np.maximum(stack.std(axis=0), OUT_STD_FLOOR))
    return np.column_stack(per_round_means), np.column_stack(per_round_stds)


def _once(shared, key, compute):
    """compute(), kept in the dict `shared` under key for later calls that
    pass the same dict; with shared None, computed afresh."""
    if shared is None:
        return compute()
    if key not in shared:
        shared[key] = compute()
    return shared[key]


def attack_fedmia(
    store: SnapshotStore,
    dataset: LabeledDataset,
    sample_ids: np.ndarray,
    target_selector,
    variant: str,
    exclude_clients=None,
    shared=None,
) -> np.ndarray:
    """Likelihood-ratio-style attack: sum of signed per-round z-scores.

    Variant "i" measures loss, variant "ii" gradient cosine. Under the
    update-direction cosine used here (per-sample gradient vs theta_k -
    theta_global, which points against the accumulated gradient), member
    measurements fall below the OUT mean for both kinds, so both z-sums are
    negated to keep higher score = more likely member. The OUT distribution
    is estimated from clients outside `exclude_clients` (default: just the
    target client).

    `shared` is `run_attack`'s dict of trajectories; its entries must belong
    to this store, dataset and sample_ids. The OUT statistic is computed
    afresh: no two attacks read the same one.
    """
    if variant not in ("i", "ii"):
        raise ValueError("variant must be 'i' or 'ii'")
    kind = "loss" if variant == "i" else "grad_cosine"
    sign = -1.0
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    x, y = dataset.X[sample_ids], dataset.y[sample_ids]
    if exclude_clients is None:
        if not (isinstance(target_selector, tuple) and target_selector[0] == "local"):
            raise ValueError("exclude_clients is required for non-local targets")
        exclude_clients = {target_selector[1]}
    values, _ = _once(
        shared,
        ("trajectory", target_selector, kind),
        lambda: trajectory_matrix(store, target_selector, x, y, kind),
    )
    out_mean, out_std = _out_stats_matrix(store, x, y, set(exclude_clients), kind)
    z = (values - out_mean) / out_std
    return sign * z.sum(axis=1)


# ---------------------------------------------------------------------------
# evaluation and dispatch
# ---------------------------------------------------------------------------


def evaluate_attack(
    scores: np.ndarray,
    labels: np.ndarray,
    attack: str = "",
    target: str = "",
    levels=DEFAULT_FPR_LEVELS,
) -> AttackResult:
    """AUC (rank statistic, ties 1/2) and TPR at the standard FPR budgets.

    Malformed scores or labels raise a ValueError prefixed with the attack name.
    """
    try:
        auc = auc_score(scores, labels)
        tpr = tpr_at_fpr(scores, labels, levels)
    except ValueError as err:
        raise ValueError(f"attack {attack}: {err}") from None
    return AttackResult(
        attack=attack,
        target=target,
        scores=np.asarray(scores, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        auc=auc,
        tpr_at_fpr=tpr,
    )


def _pool_ids_and_labels(pools: EvalPools) -> tuple[np.ndarray, np.ndarray]:
    ids = np.concatenate([pools.member_ids, pools.ifl_ids, pools.ofl_ids])
    labels = np.concatenate(
        [
            np.ones(len(pools.member_ids), dtype=np.int64),
            np.zeros(len(pools.ifl_ids) + len(pools.ofl_ids), dtype=np.int64),
        ]
    )
    return ids, labels


def run_attack(
    store: SnapshotStore,
    dataset: LabeledDataset,
    pools: EvalPools,
    target_client: int,
    name: str,
    selector=None,
    shared=None,
) -> AttackResult:
    """Score the member/non-member pools with one named attack.

    The default selector is the target client's local model series; pass
    "global" or ("coalition", ids) to retarget. FedMIA always estimates its
    OUT distribution from clients other than the target (and, for a
    coalition target, other than every coalition member).

    `shared` is an optional dict that calls on one store, dataset and pools
    pass in common; a dict must not outlive them. The first call that needs
    a (selector, kind) trajectory computes it and keeps it there for the
    others; the scores are those of a call without it.
    """
    if name not in ATTACK_NAMES:
        raise ValueError(f"unknown attack {name!r}; choose from {ATTACK_NAMES}")
    if selector is None:
        selector = ("local", target_client)
    ids, labels = _pool_ids_and_labels(pools)

    if name in ("fedmia_i", "fedmia_ii"):
        if isinstance(selector, tuple) and selector[0] == "coalition":
            exclude = set(selector[1])
        else:
            exclude = {target_client}
        scores = attack_fedmia(
            store, dataset, ids, selector, "i" if name == "fedmia_i" else "ii", exclude, shared
        )
    else:
        kind = {
            "loss_series": "loss",
            "fta_l": "loss",
            "fta_c": "confidence",
            "avg_cosine": "grad_cosine",
        }[name]
        values, rounds = _once(
            shared,
            ("trajectory", selector, kind),
            lambda: trajectory_matrix(store, selector, dataset.X[ids], dataset.y[ids], kind),
        )
        if name == "loss_series":
            scores = attack_loss_series(values)
        elif name == "avg_cosine":
            scores = attack_avg_cosine(values)
        else:
            scores = attack_fta(values, rounds, kind)

    target_desc = (
        "global"
        if selector == "global"
        else f"local({selector[1]})"
        if selector[0] == "local"
        else "coalition(" + ",".join(str(k) for k in selector[1]) + ")"
    )
    return evaluate_attack(scores, labels, attack=name, target=target_desc)
