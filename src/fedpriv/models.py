"""Minimal supervised models with analytic gradients over flat parameter vectors.

Two architectures: multinomial logistic regression (hidden_dim=0) and a
one-hidden-layer ReLU MLP. Parameters live in a single float64 vector laid
out layer by layer with the output layer last, so tail-perturbation and
weighted aggregation can treat models as plain vectors.

All functions are pure: they never mutate their inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; hidden_dim=0 means logistic regression."""

    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.hidden_dim < 0:
            raise ValueError("hidden_dim must be >= 0")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    @property
    def param_count(self) -> int:
        d, h, n = self.input_dim, self.hidden_dim, self.num_classes
        if h == 0:
            return n * (d + 1)
        return h * (d + 1) + n * (h + 1)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out)) per layer."""
    d, h, n = spec.input_dim, spec.hidden_dim, spec.num_classes
    parts = []
    if h == 0:
        a = math.sqrt(6.0 / (d + n))
        parts.append(rng.uniform(-a, a, n * (d + 1)))
    else:
        a1 = math.sqrt(6.0 / (d + h))
        parts.append(rng.uniform(-a1, a1, h * (d + 1)))
        a2 = math.sqrt(6.0 / (h + n))
        parts.append(rng.uniform(-a2, a2, n * (h + 1)))
    return np.concatenate(parts)


def unpack(spec: ModelSpec, params: np.ndarray):
    """Split the flat vector into per-layer views (W1, b1, W2, b2) or (W, b)."""
    return tuple(v[0] for v in _single_layers(spec, params))


def _layers(spec: ModelSpec, theta: np.ndarray) -> list[np.ndarray]:
    """Per-layer views (G, ...) of stacked flat parameter rows theta (G, P),
    in `unpack` order; writing to a view writes to theta."""
    d, h, n = spec.input_dim, spec.hidden_dim, spec.num_classes
    g = theta.shape[0]
    if h == 0:
        return [theta[:, : n * d].reshape(g, n, d), theta[:, n * d :]]
    o = h * d
    return [
        theta[:, :o].reshape(g, h, d),
        theta[:, o : o + h],
        theta[:, o + h : o + h + n * h].reshape(g, n, h),
        theta[:, o + h + n * h :],
    ]


def _single_layers(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    """`_layers` of one flat parameter vector (P,), as a stack of one model."""
    if params.shape != (spec.param_count,):
        raise ValueError(
            f"parameter vector has length {params.shape}, expected ({spec.param_count},)"
        )
    return _layers(spec, params[None])


def _forward(spec: ModelSpec, layers: list[np.ndarray], x: np.ndarray):
    """Stacked forward pass: x (G, b, input_dim) through G models; returns the
    logits (G, b, num_classes) and the cache the backward pass reuses."""
    # biases are added in place, so no layer makes a second temporary
    if spec.hidden_dim == 0:
        w, b = layers
        logits = x @ w.transpose(0, 2, 1)
        logits += b[:, None, :]
        return logits, None
    w1, b1, w2, b2 = layers
    pre = x @ w1.transpose(0, 2, 1)
    pre += b1[:, None, :]
    hid = np.maximum(pre, 0.0)
    logits = hid @ w2.transpose(0, 2, 1)
    logits += b2[:, None, :]
    return logits, (pre, hid)


def _relu_backward(pre: np.ndarray, dhid: np.ndarray) -> np.ndarray:
    """np.where(pre > 0.0, dhid, 0.0), written into dhid (float64) and
    returned: masked entries become +0.0 (not -0.0, as a 0/1 multiply would
    give) and kept ones keep their bits, NaN included. An integer AND with an
    all-ones or all-zeros word avoids np.where's data-dependent branch, which
    mispredicts on a ReLU's random mask."""
    keep = (pre > 0.0).astype(np.int64)
    np.negative(keep, out=keep)
    bits = dhid.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)
    return dhid


def _backward(spec: ModelSpec, layers, x, cache, dlogits) -> list[np.ndarray]:
    """Stacked backward pass from the forward cache: per-layer gradients
    (G, ...) in `_layers` order for a gradient dlogits (G, b, num_classes)."""
    if spec.hidden_dim == 0:
        return [dlogits.transpose(0, 2, 1) @ x, dlogits.sum(axis=1)]
    pre, hid = cache
    dhid = _relu_backward(pre, dlogits @ layers[2])
    return [
        dhid.transpose(0, 2, 1) @ x,
        dhid.sum(axis=1),
        dlogits.transpose(0, 2, 1) @ hid,
        dlogits.sum(axis=1),
    ]


def _as_batch(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    return x


def _logits_and_hidden(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Forward pass on a (n, input_dim) batch; returns logits, the hidden
    cache (pre, hid) or None, and the batch as float64.

    Features are not checked for finiteness here: datasets are validated
    where they enter the program (`data.load_csv`).
    """
    x = _as_batch(spec, x)
    layers = _single_layers(spec, params)
    logits, cache = _forward(spec, layers, x[None])
    if cache is not None:
        cache = (cache[0][0], cache[1][0])
    return logits[0], cache, x


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def predict_proba(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Softmax probabilities for a batch (n, input_dim) -> (n, num_classes)."""
    logits, _, _ = _logits_and_hidden(spec, params, x)
    return softmax(logits)


def per_sample_losses(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Cross-entropy of each sample in a batch x (n, input_dim) -> (n,), or in
    a stack of equal-sized batches x (G, n, input_dim), y (G, n) -> (G, n).
    Each batch of a stack gets the arithmetic it would get on its own."""
    x = np.asarray(x, dtype=np.float64)
    stack = x if x.ndim == 3 else _as_batch(spec, x)[None]
    logits, _ = _forward(spec, _single_layers(spec, params), stack)
    logp = log_softmax(logits).reshape(-1, spec.num_classes)
    y = np.asarray(y, dtype=np.int64).ravel()
    losses = -logp[np.arange(len(y)), y].reshape(stack.shape[:2])
    return losses if x.ndim == 3 else losses[0]


def grad_from_dlogits(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, dlogits: np.ndarray
) -> np.ndarray:
    """Backpropagate a gradient w.r.t. the logits into a flat parameter gradient."""
    x = _as_batch(spec, x)
    layers = _single_layers(spec, params)
    _, cache = _forward(spec, layers, x[None])
    grads = _backward(spec, layers, x[None], cache, np.asarray(dlogits)[None])
    return np.concatenate([g[0].ravel() for g in grads])


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its analytic gradient.

    Args:
        x: (n, input_dim) features, n >= 1.
        y: (n,) integer class ids.
    """
    x = _as_batch(spec, x)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    layers = _single_layers(spec, params)
    logits, cache = _forward(spec, layers, x[None])
    logp = log_softmax(logits[0])
    loss = float(-logp[np.arange(n), y].mean())
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    dlogits = np.exp(logp) - np.eye(spec.num_classes)[y]
    dlogits /= n
    grads = _backward(spec, layers, x[None], cache, dlogits[None])
    return loss, np.concatenate([g[0].ravel() for g in grads])


class NonFiniteLoss(FloatingPointError):
    """A mini-batch loss was not finite; `clients` are positions in the
    client list of the `sgd_clients` call."""

    def __init__(self, clients) -> None:
        self.clients = sorted(int(k) for k in clients)
        super().__init__(f"non-finite loss at client(s) {self.clients}")


def _lockstep_layout(sizes: np.ndarray, cr: np.ndarray, batch_size: int):
    """Where every client's rows go in one epoch of lock-step training.

    Clients are ranked by path (plain first, then those flagged in cr), then
    by size, largest first. At step s a ranked client's batch has
    min(batch_size, n - s * batch_size) rows, which does not grow within a
    path, so the clients sharing a path and a batch size form contiguous
    runs: the step's groups. Each group's rows are stored contiguously, group
    after group and step after step, in one buffer of sum(sizes) rows.

    Returns (rank, starts, slots, groups): ranked client j's rows start at
    starts[j] when the clients are concatenated in rank order;
    slots[starts[j] + p] is the buffer row of its p-th shuffled sample; each
    group is (j0, j1, b, row) -- ranked clients j0..j1-1, batch size b, first
    buffer row.
    """
    rank = np.lexsort((-sizes, cr))
    n = sizes[rank]
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    slots = np.empty(int(n.sum()), dtype=np.int64)
    groups = []
    row = 0
    for s in range(-(-int(n.max()) // batch_size)):
        b_s = np.clip(n - s * batch_size, 0, batch_size)
        cuts = [0, *(np.flatnonzero(np.diff(b_s + (batch_size + 1) * cr[rank])) + 1), len(n)]
        for j0, j1 in zip(cuts, cuts[1:]):
            b = int(b_s[j0])
            if b == 0:  # these clients have finished the epoch
                continue
            pos = starts[j0:j1, None] + s * batch_size + np.arange(b)
            slots[pos] = row + np.arange((j1 - j0) * b).reshape(j1 - j0, b)
            groups.append((j0, j1, b, row))
            row += (j1 - j0) * b
    return rank, starts, slots, groups


def sgd_clients(
    spec: ModelSpec,
    params: np.ndarray,
    xs: list[np.ndarray],
    ys: list[np.ndarray],
    lr: float,
    epochs: int,
    batch_size: int,
    rngs: list[np.random.Generator],
    extra_term=None,
) -> np.ndarray:
    """Mini-batch SGD on cross-entropy for K clients from the same start.

    Client k trains on (xs[k], ys[k]). Every epoch it draws one
    rngs[k].permutation(n_k) and steps through consecutive batches of
    batch_size samples, the last one possibly shorter; each batch's gradient
    is its summed loss divided by its own size. All clients step in
    lock-step: at each step the clients whose batch has the same size are
    stacked into one (G, b, ...) group and take one forward and one backward
    pass together. Every slice of a group does the arithmetic a lone client
    would, so row k is bit-identical to training client k alone.

    extra_term, if given, is (masks, dlogits_fn): per-client boolean row
    masks (None for a client that trains on cross-entropy alone) and a
    function (probs, y) -> gradient w.r.t. the logits of an extra loss on the
    masked rows of a batch, added to the cross-entropy gradient before the
    division. Masked clients take softmax(logits) rather than
    exp(log_softmax(logits)); the two differ in the last bits, so each path
    keeps the arithmetic it has always had, in groups of its own.

    Returns the (K, P) trained parameters; `params` is not modified.
    Raises NonFiniteLoss naming the clients whose batch loss (cross-entropy)
    or logit gradient (with a mask) is not finite.
    """
    if not lr >= 0:  # written so that NaN fails
        raise ValueError(f"lr must be >= 0, got {lr}")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    k = len(xs)
    masks, dlogits_fn = extra_term if extra_term is not None else ([None] * k, None)
    if k == 0 or len(ys) != k or len(rngs) != k or len(masks) != k:
        raise ValueError("need one dataset, mask and generator per client, at least one client")
    if len({id(rng) for rng in rngs}) != k:
        raise ValueError("each client needs its own generator")
    sizes = np.asarray([len(x) for x in xs], dtype=np.int64)
    if sizes.min() == 0:
        raise ValueError("empty dataset")
    cr = np.asarray([mask is not None for mask in masks])
    rank, starts, slots, groups = _lockstep_layout(sizes, cr, batch_size)
    x_all = np.concatenate([np.asarray(xs[i], dtype=np.float64) for i in rank])
    y_all = np.concatenate([np.asarray(ys[i], dtype=np.int64) for i in rank])
    mask_all = np.concatenate(
        [np.asarray(masks[i] if cr[i] else np.zeros(sizes[i]), bool) for i in rank]
    )
    eye = np.eye(spec.num_classes)
    theta = np.repeat(np.asarray(params, dtype=np.float64)[None, :], k, axis=0)
    layers = _layers(spec, theta)
    order = np.empty(len(slots), dtype=np.int64)
    # non-finite values are detected and reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order[slots] = np.concatenate(
                [starts[j] + rngs[i].permutation(sizes[i]) for j, i in enumerate(rank)]
            )
            x_ep, y_ep = x_all[order], y_all[order]
            onehot_ep = eye[y_ep]
            for j0, j1, b, row in groups:
                g, rows = j1 - j0, slice(row, row + (j1 - j0) * b)
                xb = x_ep[rows].reshape(g, b, -1)
                yb = y_ep[rows].reshape(g, b)
                onehot = onehot_ep[rows].reshape(g, b, -1)
                group = [v[j0:j1] for v in layers]
                logits, cache = _forward(spec, group, xb)
                if not cr[rank[j0]]:
                    logp = log_softmax(logits)
                    loss = np.take_along_axis(logp, yb[..., None], axis=-1).sum(axis=(1, 2))
                    finite = np.isfinite(loss)
                    dlogits = np.exp(logp) - onehot
                else:
                    probs = softmax(logits)
                    dlogits = probs - onehot
                    rb = mask_all[order[rows]].reshape(g, b)
                    if rb.any():
                        dlogits[rb] += dlogits_fn(probs[rb], yb[rb])
                    finite = np.isfinite(dlogits).all(axis=(1, 2))
                if not finite.all():
                    raise NonFiniteLoss(rank[j0:j1][~finite])
                dlogits /= b
                for v, grad in zip(group, _backward(spec, group, xb, cache, dlogits)):
                    grad *= lr
                    v -= grad
    out = np.empty_like(theta)
    out[rank] = theta
    return out


def sgd_epochs(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mini-batch SGD on cross-entropy for one client; shuffling is driven
    solely by rng. Returns updated parameters; the input vector is not modified.
    """
    return sgd_clients(spec, params, [x], [y], lr, epochs, batch_size, [rng])[0]


def accuracy(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    logits, _, _ = _logits_and_hidden(spec, params, x)
    return float((logits.argmax(axis=1) == np.asarray(y)).mean())
