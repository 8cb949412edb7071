"""Trajectory-based membership-inference attacks over recorded snapshots.

Every attack consumes per-sample measurement trajectories (loss, true-class
confidence, or gradient cosine) across the recorded rounds of a training
run and emits one score per sample, with the convention that a higher
score means "more likely a member".

Targets: the global model series, one client's local model series, or the
weighted aggregate of the defender coalition's locals (the adaptive
attacker's target, which the cancellation property makes identical with
and without perturbation).

Measurements run on two kernels for one query batch and G models:
`models.measure_models` (loss and confidence), with the model on the left of
every product and each bias folded into its GEMM, and `_grad_cosines`, which
contracts each layer on its wider side. A loss or confidence trajectory
takes one `measure_models` call over the target's whole series
(`_target_series`); gradient cosines and FedMIA's OUT statistic (Carlini et
al., arXiv:2112.03570) take one call a round, and FedMIA-II's call measures
the target's cosines with its OUT clients'. Loss and confidence differ from
a row-major forward (`models._stack_logits`), and from one that adds each
bias after its GEMM, by at most 1e-13 relative; cosines differ from a
projection on each layer's units, and the target's in FedMIA-II's call from
a call of their own, by at most 1e-15 (tests/test_attacks.py,
tests/test_grad_cosines.py).
Directions and each sample's OUT values are scaled by exact powers of two,
so huge but finite models neither overflow nor change a bit; a measurement
that is still not finite is refused, naming the attack and the round.

The attack stage (`run_attacks`) reads its query rows from the store
(`SnapshotStore.rows`), then plans and scores: `_measure` takes
each measurement that the listed attacks read once (the target's loss
and confidence in one softmax pass, FedMIA's OUT statistics, and the
target's cosines, from FedMIA-II's calls when it is listed), and each
attack's scores are a pure function of those matrices (`_score`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .data import EvalPools
from .federation import SnapshotStore, aggregate_weighted
from .metrics import DEFAULT_FPR_LEVELS, auc_score, tpr_at_fpr

ATTACK_NAMES = ("loss_series", "avg_cosine", "fta_l", "fta_c", "fedmia_i", "fedmia_ii")
# the attacks that score a trajectory's differences or slope
MULTI_ROUND_ATTACKS = ("avg_cosine", "fta_l", "fta_c")
# the kind of the attacked model's measurements that each attack reads
ATTACK_KINDS = {
    "loss_series": "loss",
    "avg_cosine": "grad_cosine",
    "fta_l": "loss",
    "fta_c": "confidence",
    "fedmia_i": "loss",
    "fedmia_ii": "grad_cosine",
}

OUT_STD_FLOOR = 1e-6


@dataclass(eq=False)
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


def attack_selector(target: str, target_client: int, coalition):
    """The selector of an `attack.target`: "global", ("local", k) or ("coalition", ids)."""
    if target == "local":
        return ("local", target_client)
    return "global" if target == "global" else ("coalition", tuple(coalition))


def fedmia_excluded(selector, target_client=None) -> set[int]:
    """The clients that FedMIA's OUT statistic leaves out: a coalition
    target's members, else the target client (by default a local target's)."""
    tag = selector if selector == "global" else selector[0]
    if tag == "coalition":
        return set(selector[1])
    if target_client is None and tag != "local":
        raise ValueError("exclude_clients is required for non-local targets")
    return {selector[1] if target_client is None else target_client}


def _target_series(store: SnapshotStore, selector, kind: str) -> np.ndarray:
    """The attacked model at every recorded round, (R, P), for selector
    "global", ("local", k) or ("coalition", ids): the globals (for gradient
    cosines the aggregate of all clients), a view of client k's locals, or
    each round's weighted aggregate of the coalition's locals."""
    if not store.rounds:
        raise ValueError("snapshot store is empty")
    if selector == "global":
        if kind != "grad_cosine":
            return store.globals
        ids = slice(None)
    elif selector[0] in ("local", "coalition"):
        ids = [selector[1]] if selector[0] == "local" else list(selector[1])
        if not all(0 <= k < store.num_clients for k in ids):
            raise ValueError(f"selector {selector!r}: a client outside [0, {store.num_clients})")
        if selector[0] == "local":
            return store.locals[:, ids[0]]
    else:
        raise ValueError(f"unknown selector {selector!r}")
    sizes = store.client_sizes[ids]
    return np.stack([aggregate_weighted(locals_t[ids], sizes) for locals_t in store.locals])


# Most bytes of the (rows, directions, width) projection block that
# `_grad_cosines` holds at once. 1 MiB ran fastest of 256 KiB to 4 MiB on the
# benchmark's OUT shape, where a one-shot projection is 2 MB; it grows with
# every factor. That blocks of it keep the bits of a one-shot projection was
# checked only on OpenBLAS 0.3.31's SkylakeX kernels at one thread.
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


def _frexp_shift(a: np.ndarray, axis: int) -> np.ndarray:
    """The power of two, as an exponent for np.ldexp, that brings the largest
    |entry| along `axis` of a into [0.5, 1); 0 where it is 0 or not finite."""
    peak = np.maximum(np.maximum.reduce(a, axis=axis), -np.minimum.reduce(a, axis=axis))
    return -np.frexp(peak)[1]


def _cosine_block_rows(row_bytes: int, least: int) -> int:
    """Query rows per block of `_grad_cosines`: as many as keep a block of
    `row_bytes` a row within COSINE_BLOCK_BYTES, in whole multiples of 12,
    but at least 12 and at least `least`."""
    groups = max(COSINE_BLOCK_BYTES // max(row_bytes, 1) // 12, -(-least // 12), 1)
    return 12 * groups


def _cosine_blocks(n: int, m: int, widths) -> list[tuple[int, int]]:
    """(start, stop) of each block of query rows that `_grad_cosines` projects
    at once, for n samples, m directions and projections of `widths` columns
    per direction, one per layer.

    Every block starts at a multiple of 12. Each has enough rows that its
    product keeps more than SMALL_GEMM_OUTPUTS outputs in every layer, and at
    least 2 (numpy computes a one-row product as a vector product); a last
    block with fewer joins the one before it. That such blocks keep the bits
    of the whole product and switch no kernel was checked only on OpenBLAS
    0.3.31's SkylakeX kernels at one thread.
    """
    least = max(2, SMALL_GEMM_OUTPUTS // max(m * min(widths), 1) + 1)
    step = _cosine_block_rows(8 * m * max(widths), least)
    starts = list(range(0, max(n, 1), step))
    if len(starts) > 1 and n - starts[-1] < least:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _grad_cosines(spec, params, x, y, directions, workspace=None) -> np.ndarray:
    """Cosine of every sample's cross-entropy gradient at `params` with every
    direction row: (m, n) for m directions (rows of length P) and n samples.

    One forward pass; per-sample gradients are never built. Each layer's
    per-sample gradient is the outer product of its backpropagated signal
    delta and its input a, plus delta for the bias (Goodfellow,
    arXiv:1510.01799), so against a direction block (V, c) its dot product is
    sum(a * (delta V)) + delta . c, or sum(delta * (a V^T)) + delta . c, and
    its squared norm is |delta|^2 (|a|^2 + 1). A zero gradient or a zero
    direction gives cosine 0, a direction that is not finite NaN.

    Each direction is first scaled by the power of two that brings its
    largest |entry| into [0.5, 1): a cosine does not depend on scale, and
    the scaling is exact where no entry becomes subnormal, so huge
    directions neither overflow nor change a bit. Each layer contracts its
    wider side in a GEMM: the units first (delta V, leaving (rows, m,
    inputs)) when it has fewer inputs than units, the inputs first (a V^T)
    otherwise. The bias terms of every layer take one GEMM, c @ delta.T.
    The projections run over `_cosine_blocks` of query rows in one buffer
    of `workspace` (one of its own if None) that both layers reuse, so a
    call holds a block of about COSINE_BLOCK_BYTES instead of all n rows.
    With one BLAS thread the cosines keep the bits of one-shot products on
    OpenBLAS 0.3.31's SkylakeX kernels, the only ones checked: there each
    row of a block that starts at a multiple of 12 rows has the bits of the
    whole product, no block is small enough to switch kernels, and each
    (direction, sample) dot product sums the same terms in the same order.
    Splitting the directions instead can change bits.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    logits, cache, x = models._logits_and_hidden(spec, params, x)
    (n, m), h = (len(y), len(directions)), spec.hidden_dim
    workspace = models.Workspace() if workspace is None else workspace
    # every layer's delta side by side, in the order of the biases in `bias`
    deltas = np.empty((n, h + spec.num_classes))
    dlogits = np.exp(models.log_softmax(logits), out=deltas[:, h:])
    dlogits[np.arange(n), y] -= 1.0
    if h == 0:
        layers = [(x, dlogits)]
    else:
        pre, hid = cache
        dhid = np.matmul(dlogits, models.unpack(spec, params)[2], out=deltas[:, :h])
        layers = [(x, models._relu_backward(pre, dhid)), (hid, dlogits)]
    shift = _frexp_shift(directions, axis=1)
    blocks = models._layers(spec, directions)
    bias = np.ldexp(np.concatenate(blocks[1::2], axis=1), shift[:, None])
    dots = bias @ deltas.T
    sq_dirs = np.einsum("ij,ij->i", bias, bias)
    sq_norms = np.zeros(n)
    shapes = [w.shape[1:] for w in blocks[0::2]]  # (units, inputs) of each layer
    widths = [min(shape) for shape in shapes]
    bounds = _cosine_blocks(n, m, widths)
    buffer = workspace.array("projection", (max(e - s for s, e in bounds) * m * max(widths),))
    for (a, delta), w, (units, inputs) in zip(layers, blocks[0::2], shapes):
        if inputs < units:  # units first: delta @ V, with V^T (m, inputs, units) in "weights"
            v = workspace.array("weights", (m, inputs, units))
            np.ldexp(w.transpose(0, 2, 1), shift[:, None, None], out=v)
            left, right, width = delta, a, inputs
        else:  # inputs first: a @ V^T, with V (m, units, inputs) in "weights"
            v = np.ldexp(w, shift[:, None, None], out=workspace.array("weights", w.shape))
            left, right, width = a, delta, units
        sq_dirs += np.einsum("mwk,mwk->m", v, v)
        v = v.reshape(m * width, -1)
        for s, e in bounds:
            proj = buffer[: (e - s) * m * width].reshape(e - s, m * width)
            np.matmul(left[s:e], v.T, out=proj)
            per_row = np.matmul(proj.reshape(e - s, m, width), right[s:e, :, None])
            dots[:, s:e] += per_row[:, :, 0].T
        sq_norms += (delta * delta).sum(axis=1) * ((a * a).sum(axis=1) + 1.0)
    norms = np.sqrt(sq_dirs)[:, None] * np.sqrt(sq_norms)
    return np.divide(dots, norms, out=np.zeros((m, n)), where=norms != 0)


def trajectory_matrix(
    store: SnapshotStore,
    selector,
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(values (n, rounds), recorded rounds) for a batch of query samples.

    Loss and confidence take one `models.measure_models` call over the
    target's whole series, the batch under every round's model; `kind`
    ("loss", "confidence") gives a tuple of both values matrices from one
    softmax pass. grad_cosine is the cosine between each sample's gradient
    at the round's global model and the selected model's update direction
    for that round (selected params minus the global broadcast), one
    `_grad_cosines` call a round.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    softmax_kinds = all(k in ("loss", "confidence") for k in kinds)
    if kind != "grad_cosine" and not (kinds and softmax_kinds):
        raise ValueError(f"unknown measurement kind {kind!r}")
    series = _target_series(store, selector, kinds[0])
    rounds = np.asarray(store.rounds, dtype=np.int64)
    if kind == "grad_cosine":  # a round's gradient cosines need that round's global model
        pairs = zip(store.globals, series)
        values = [_grad_cosines(store.spec, g, x, y, t[None] - g) for g, t in pairs]
        return np.ascontiguousarray(np.concatenate(values).T), rounds
    values = models.measure_models(store.spec, series, x, y, kind)
    if isinstance(kind, tuple):
        return tuple(np.ascontiguousarray(v.T) for v in values), rounds
    return np.ascontiguousarray(values.T), rounds


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


def _out_stats_matrix(store, x, y, exclude_clients, kind, target=None):
    """Per-round mean/std (n, rounds) of each sample's measurement under the
    local models of every client outside `exclude_clients`.

    Each round takes one call on the stack of those models, in one
    workspace: `models.measure_models` for loss or confidence, and
    `_grad_cosines` at the round's global model for their update
    directions. With `target`, the attacked model's series (R, P), each
    round's stack has that round's target first, and a third matrix (n,
    rounds) holds the target's own measurements: FedMIA-II thus measures
    the target's cosines and the OUT clients' in one call a round. Uses
    the population standard deviation, floored at 1e-6. Each sample's
    values are scaled by the power of two that brings the largest
    |value| into [0.5, 1) before their mean and deviation, and these are
    scaled back: exact where no value is subnormal, so huge losses do
    not overflow in the squares and no bit changes.
    """
    others = [k for k in range(store.num_clients) if k not in exclude_clients]
    if len(others) < 2:
        raise ValueError("need at least 2 non-target clients")
    workspace = models.Workspace()
    per_round_means, per_round_stds = [], []
    target_values = None if target is None else np.empty((len(y), len(store.rounds)))
    for t, (global_t, locals_t) in enumerate(zip(store.globals, store.locals)):
        models_t = locals_t[others] if target is None else np.vstack((target[t], locals_t[others]))
        if kind == "grad_cosine":  # the models' update directions, in their own stack
            models_t -= global_t
            stack = _grad_cosines(store.spec, global_t, x, y, models_t, workspace)
        else:
            stack = models.measure_models(store.spec, models_t, x, y, kind, workspace)
        if target is not None:
            target_values[:, t], stack = stack[0], stack[1:]
        shift = _frexp_shift(stack, axis=0)
        np.ldexp(stack, shift, out=stack)
        per_round_means.append(np.ldexp(stack.mean(axis=0), -shift))
        per_round_stds.append(np.maximum(np.ldexp(stack.std(axis=0), -shift), OUT_STD_FLOOR))
    stats = np.column_stack(per_round_means), np.column_stack(per_round_stds)
    return stats if target is None else (*stats, target_values)


def _refuse_non_finite(values, rounds, attack: str, what: str) -> None:
    """Raise a ValueError naming the attack and the first recorded round
    where a column of values (n, rounds) holds one that is not finite."""
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        round_ = rounds[np.argmin(finite)]
        raise ValueError(f"attack {attack}: round {round_}: {what} is not finite")


def _measure(store, selector, x, y, names, exclude):
    """Each measurement that the attacks `names` read, taken once, as
    (values, out, rounds). values maps each kind (`ATTACK_KINDS`) to the
    target's (n, rounds) matrix: loss and confidence from one
    `trajectory_matrix` call, cosines from FedMIA-II's OUT statistic's call
    a round when it is listed, else from `trajectory_matrix`. out maps each
    listed FedMIA variant's kind to its OUT (mean, std) over the clients
    outside `exclude`. `_score` refuses values that are not finite.
    """
    kinds = {ATTACK_KINDS[name] for name in names}
    softmax_kinds = tuple(k for k in ("loss", "confidence") if k in kinds)
    values, out = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):  # `_score` checks them
        if softmax_kinds:
            matrices, _ = trajectory_matrix(store, selector, x, y, softmax_kinds)
            values.update(zip(softmax_kinds, matrices))
        if "fedmia_i" in names:
            out["loss"] = _out_stats_matrix(store, x, y, exclude, "loss")
        if "fedmia_ii" in names:
            series = _target_series(store, selector, "grad_cosine")
            *stats, cosines = _out_stats_matrix(store, x, y, exclude, "grad_cosine", series)
            out["grad_cosine"], values["grad_cosine"] = stats, cosines
        elif "grad_cosine" in kinds:
            values["grad_cosine"], _ = trajectory_matrix(store, selector, x, y, "grad_cosine")
    return values, out, np.asarray(store.rounds, dtype=np.int64)


def _score(name, values, out, rounds) -> np.ndarray:
    """The scores of attack `name` from `_measure`'s matrices; a measurement
    (or for FedMIA its z-score) that is not finite is refused."""
    kind = ATTACK_KINDS[name]
    if name in ("fedmia_i", "fedmia_ii"):
        out_mean, out_std = out[kind]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            z = (values[kind] - out_mean) / out_std
        _refuse_non_finite(z, rounds, name, f"a {kind} measurement or its z-score")
        return -z.sum(axis=1)
    _refuse_non_finite(values[kind], rounds, name, f"a {kind} measurement")
    if name == "loss_series":
        return attack_loss_series(values[kind])
    if name == "avg_cosine":
        return attack_avg_cosine(values[kind])
    return attack_fta(values[kind], rounds, kind)


def attack_fedmia(
    store: SnapshotStore,
    sample_ids: np.ndarray,
    target_selector,
    variant: str,
    exclude_clients=None,
) -> np.ndarray:
    """Likelihood-ratio-style attack on the store's training rows
    `sample_ids`: sum of signed per-round z-scores.

    Variant "i" measures loss, variant "ii" gradient cosine. Under the
    update-direction cosine used here (per-sample gradient vs theta_k -
    theta_global, which points against the accumulated gradient), member
    measurements fall below the OUT mean for both kinds, so both z-sums are
    negated to keep higher score = more likely member. The OUT distribution
    is estimated from clients outside `exclude_clients` (default:
    `fedmia_excluded` of the target). Variant "ii" measures the target's
    cosines in its OUT statistic's call a round (the first direction).
    """
    if variant not in ("i", "ii"):
        raise ValueError("variant must be 'i' or 'ii'")
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    if exclude_clients is None:
        exclude_clients = fedmia_excluded(target_selector)
    name = f"fedmia_{variant}"
    train, _ = store.rows()
    x, y = train.X[sample_ids], train.y[sample_ids]
    plan = _measure(store, target_selector, x, y, [name], set(exclude_clients))
    return _score(name, *plan)


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
    pools: EvalPools,
    target_client: int,
    name: str,
    selector=None,
) -> AttackResult:
    """`run_attacks` of one named attack."""
    return run_attacks(store, pools, target_client, [name], selector)[0]


def run_attacks(
    store: SnapshotStore,
    pools: EvalPools,
    target_client: int,
    names,
    selector=None,
) -> list[AttackResult]:
    """Score the member/non-member pools, ids of the store's training rows
    (`SnapshotStore.rows`), with each of `names`, in that order.

    The default selector is the target client's local model series; pass
    "global" or ("coalition", ids) to retarget. FedMIA's OUT distribution
    leaves out `fedmia_excluded(selector, target_client)`.

    `_measure` takes each measurement that the attacks read once, and each
    attack's scores are a pure function of those matrices (`_score`), so no
    result depends on the order of `names`. With FedMIA-II listed,
    Avg-Cosine reads the target's cosines from FedMIA-II's calls, which
    differ from a call of their own by at most 1e-15 (a stated drift).
    """
    for name in names:
        if name not in ATTACK_NAMES:
            raise ValueError(f"unknown attack {name!r}; choose from {ATTACK_NAMES}")
    if selector is None:
        selector = ("local", target_client)
    train, _ = store.rows()
    ids, labels = _pool_ids_and_labels(pools)
    exclude = fedmia_excluded(selector, target_client)
    plan = _measure(store, selector, train.X[ids], train.y[ids], names, exclude)
    target = (
        "global"
        if selector == "global"
        else f"local({selector[1]})"
        if selector[0] == "local"
        else "coalition(" + ",".join(str(k) for k in selector[1]) + ")"
    )
    return [evaluate_attack(_score(name, *plan), labels, name, target) for name in names]
