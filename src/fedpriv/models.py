"""Minimal supervised models with analytic gradients over flat parameter vectors.

Two architectures: multinomial logistic regression (hidden_dim=0) and a
one-hidden-layer ReLU MLP. Parameters live in a single float64 vector laid
out layer by layer with the output layer last, so tail-perturbation and
weighted aggregation can treat models as plain vectors.

`StackedBatches` (evaluation and validation losses) runs batches through
one row-major stacked forward under one model or one model per batch: it
lays out the chunk rule's passes and runs of logits over a workspace's
buffers once and runs them on every call. `per_sample_losses` and
`accuracy` are one-batch `StackedBatches`, laid out on every call.
`measure_models` (the attacks' loss and confidence) runs one query batch
under many models with the model on the left of every product and each
bias folded into its GEMM, writing class-major logits for the softmax
core's class-major branch, `_class_major`; its values may differ from a
row-major forward's, or from one that adds each bias after its GEMM, in
the last bits (the attacks' stated drift).

The public functions never mutate their inputs, and `prepare_lockstep`'s
arrays are read-only, so any number of `sgd_lockstep` calls may share them.
A `Workspace`, and a `StackedBatches` that draws on one, serves one call at
a time. Besides its buffers, a workspace keeps the views that
`sgd_lockstep` lays out over them (`_lockstep_views`) for the last prepared
inputs it trained, which later calls on the same inputs reuse. Views over a
buffer that the workspace has since replaced are never used again. Some
functions write into arrays they are given: `log_softmax` its result into
`out`, `_forward` the logits into `out` and the hidden layer into `hidden`,
`_backward` the gradients into `out` (and, if asked to, its hidden gradient
and ReLU mask over the forward cache), and `_relu_backward` its result over
`dhid`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

# Most bytes of hidden activations and logits that one pass of the stacked
# forward of `StackedBatches` holds, and the least bytes of logits that it hands
# on as one run to be measured. glibc serves a larger request from a fresh
# mapping (its default mmap threshold is 128 KiB) and unmaps it on free, so
# every further pass would fault its pages in again.
STACK_CHUNK_BYTES = 128 * 1024

# Least bytes of logits in one run of models that `measure_models` measures
# at once; its workspace keeps the buffers, so no run maps fresh pages.
# Each run pays a fixed softmax and layer-copy cost: FedMIA-I's OUT losses
# on the benchmark's `dirichlet_logreg` pool took 10.5 / 9.7 / 8.8 / 7.9 /
# 8.0 ms with runs of 128 KiB / 256 KiB / 512 KiB / 1 MiB / 2 MiB, on
# `scale_k40` 23.9 -> 22.4 ms from 128 KiB to 1 MiB, and on
# `overfit_coalition` 3.15 -> 2.73 ms (fastest of 7, one BLAS thread, a
# shared 2-vCPU host).
MEASURE_RUN_BYTES = 1024 * 1024


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


def _forward(spec: ModelSpec, layers: list[np.ndarray], x: np.ndarray, out=None, hidden=None):
    """Stacked forward pass: x (G, b, input_dim) through G models; returns the
    logits (G, b, num_classes), written into `out` if given, and the cache
    the backward pass reuses: an MLP's pre-activations and hidden
    activations (G, b, hidden_dim), written into the pair `hidden` if given."""
    # biases are added in place, so no layer makes a second temporary
    if spec.hidden_dim == 0:
        w, b = layers
        logits = np.matmul(x, w.transpose(0, 2, 1), out=out)
        logits += b[:, None, :]
        return logits, None
    w1, b1, w2, b2 = layers
    pre, hid = hidden or (None, None)
    pre = np.matmul(x, w1.transpose(0, 2, 1), out=pre)
    pre += b1[:, None, :]
    hid = np.maximum(pre, 0.0, out=hid)
    logits = np.matmul(hid, w2.transpose(0, 2, 1), out=out)
    logits += b2[:, None, :]
    return logits, (pre, hid)


def _relu_backward(pre: np.ndarray, dhid: np.ndarray, keep=None) -> np.ndarray:
    """np.where(pre > 0.0, dhid, 0.0), written into dhid (float64) and
    returned: masked entries become +0.0 (not -0.0, as a 0/1 multiply would
    give) and kept ones keep their bits, NaN included. An integer AND with an
    all-ones or all-zeros word avoids np.where's data-dependent branch, which
    mispredicts on a ReLU's random mask. `keep`, an int64 array of pre's
    shape, takes the mask if given."""
    if keep is None:
        keep = np.empty(pre.shape, np.int64)
    np.greater(pre, 0.0, out=keep)
    np.negative(keep, out=keep)
    bits = dhid.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)
    return dhid


def _backward(spec: ModelSpec, layers, x, cache, dlogits, out=None, consume=False):
    """Stacked backward pass from the forward cache: per-layer gradients
    (G, ...) in `_layers` order for a gradient dlogits (G, b, num_classes),
    written into the arrays of `out` (in the same order) if given. With
    `consume`, an MLP's hidden gradient and ReLU mask are written over the
    cache's hidden activations and pre-activations, once they are read."""
    out = out or [None] * (2 if spec.hidden_dim == 0 else 4)
    if spec.hidden_dim == 0:
        return [
            np.matmul(dlogits.transpose(0, 2, 1), x, out=out[0]),
            dlogits.sum(axis=1, out=out[1]),
        ]
    pre, hid = cache
    d_w2 = np.matmul(dlogits.transpose(0, 2, 1), hid, out=out[2])
    d_b2 = dlogits.sum(axis=1, out=out[3])
    dhid = np.matmul(dlogits, layers[2], out=hid if consume else None)
    dhid = _relu_backward(pre, dhid, pre.view(np.int64) if consume else None)
    return [
        np.matmul(dhid.transpose(0, 2, 1), x, out=out[0]),
        dhid.sum(axis=1, out=out[1]),
        d_w2,
        d_b2,
    ]


def _as_batch(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"batch has shape {x.shape}, expected (n, {spec.input_dim})")
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


# Rows from which the softmax core normalises class-major rather than row by
# row: the class-major form makes more numpy calls, each along all rows at
# once. At 10 classes (row by row -> class-major, fastest of 40 interleaved
# runs of 50 calls, numpy 2.4.6, one core of a shared 2-vCPU host) an
# in-place log-softmax took 13.8 -> 18.6 us at 96 rows, 22.9 -> 24.1 at 256,
# 27.7 -> 26.5 at 320 and 89 -> 67 at 1,280; the loss at each row's target
# class 15.9 -> 19.3 at 96, 23.9 -> 22.4 at 220, 25.8 -> 23.5 at 256 and
# 88 -> 56 at 1,280.
# One crossover sits between the two break-even points.
CLASS_MAJOR_ROWS = 256


def _class_sums(e: np.ndarray) -> np.ndarray:
    """Each column's sum of exponentials e (C, rows), added up over e's rows
    and returned as the view e[0], with the bits of numpy's sum along a row
    of e.T. numpy adds a row pairwise from +0.0: under 8 values one after
    another; up to 128, eight running sums over blocks of 8, combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the rest in turn; above 128, the sums
    of two halves split at a multiple of 8. The +0.0 is left out: it changes
    only a sum of -0.0, and no exponential is -0.0. Rows are added into
    rows in place, so the sums make no temporary besides the class-major
    copy, which is already the size of the logits."""
    c = len(e)
    if c > 128:
        half = c // 2 - c // 2 % 8
        s = _class_sums(e[:half])
        s += _class_sums(e[half:])
        return s
    s, rest = e[0], 1
    if c >= 8:
        acc = e[:8]
        for i in range(8, c - c % 8, 8):
            np.add(acc, e[i : i + 8], out=acc)
        r = list(acc)
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            np.add(r[a], r[b], out=r[a])
        rest = c - c % 8
    for row in e[rest:]:
        np.add(s, row, out=s)
    return s


def _target_values(z: np.ndarray, at: np.ndarray, logs: tuple, sums) -> tuple:
    """For each flag of `logs`, each row's loss -log p_y (True) or
    confidence p_y (False), all from this one pass over logits z less their
    row max, which it overwrites with their exponentials, and each with the
    bits of a pass of its own: z.ravel()[at] holds each row's target, and
    sums(e) gives each row's sum of exponentials e."""
    z_y = z.ravel()[at] if any(logs) else None
    e = np.exp(z, out=z)
    e_y = None if all(logs) else e.ravel()[at]
    s = sums(e)
    confidence = None if e_y is None else np.divide(e_y, s, out=e_y)
    if z_y is not None:  # -(z_y - log s), which is -0.0 where log p_y is +0.0
        loss = np.subtract(z_y, np.log(s, out=s), out=z_y)
        np.negative(loss, out=loss)
    return tuple(loss if flag else confidence for flag in logs)


def _class_major(z: np.ndarray, log, at=None, scratch=None) -> np.ndarray:
    """The class-major branch of `_softmax_core` on logits z (C, rows), one
    row per class, which it overwrites: with flat target indices `at` into
    z and a tuple of flags `log`, `_target_values`' tuple of each column's
    losses or confidences; else z's log-softmax (log) or softmax along its
    columns, in z, with `scratch` (C, rows) for the exponentials while they
    are summed."""
    z -= np.maximum.reduce(z, axis=0)
    if at is not None:
        return _target_values(z, at, log, _class_sums)
    if log:
        return np.subtract(z, np.log(_class_sums(np.exp(z, out=scratch))), out=z)
    np.exp(z, out=z)
    np.copyto(scratch, z)
    z /= _class_sums(scratch)
    return z


def _softmax_core(logits: np.ndarray, log: bool, y=None, out=None) -> np.ndarray:
    """Log-softmax (log) or softmax of logits (..., C) with each row's max
    subtracted: every value, written into `out` if given (which may be
    logits); or, with class ids y (logits.shape[:-1], or broadcast to it),
    each row's loss -log p_y (log) or confidence p_y, in a new array.

    Each row's max is the max of a class-major copy's columns: numpy reduces
    a short last axis row by row, about 66 ns a row at 10 classes. Below
    CLASS_MAJOR_ROWS rows the rest runs row by row as numpy's own formula
    does. From there it runs on the class-major copy (`_class_major`), each
    class one contiguous vector, with `_class_sums` for each row's sum, and
    writes the values back into (rows, C) order; the loss or confidence
    reads only the target class and needs no write-back. Every value keeps
    the bits of numpy's row-wise formula, logits - logits.max(axis=-1,
    keepdims=True) and so on, but for a NaN's sign. Where a row's max is a
    tie of +0.0 and -0.0 the other zero may come back, which changes no
    value, since the row's exponential sum is at least 2; where it is a tie
    of NaNs of both signs, the other NaN may come back.
    """
    shape, c = logits.shape[:-1], logits.shape[-1]
    z = logits.reshape(-1, c).T.copy()
    rows = z.shape[1]
    # each row's target in the flat z; y broadcasts against the row shape
    row = None if y is None else np.arange(rows).reshape(shape)
    y = None if y is None else np.asarray(y, dtype=np.int64)
    if rows >= CLASS_MAJOR_ROWS:
        if y is not None:
            return _class_major(z, (log,), (y * rows + row).ravel())[0].reshape(shape)
        # the result's buffer holds the exponentials while they are summed
        result = np.empty(logits.shape) if out is None else out
        scratch = result.reshape(c, rows) if result.flags.c_contiguous else np.empty((c, rows))
        np.copyto(result, _class_major(z, log, scratch=scratch).T.reshape(logits.shape))
        return result
    z = np.subtract(logits, np.maximum.reduce(z, axis=0).reshape(*shape, 1), out=out)
    if y is not None:
        at = (row * c + y).ravel()
        return _target_values(z, at, (log,), lambda e: e.sum(axis=-1).ravel())[0].reshape(shape)
    if log:
        return np.subtract(z, np.log(np.exp(z).sum(axis=-1, keepdims=True)), out=z)
    e = np.exp(z, out=z)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction for stability."""
    return _softmax_core(logits, log=False)


def log_softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """Row-wise log-softmax, written into `out` if given (which may be logits)."""
    return _softmax_core(logits, log=True, out=out)


def predict_proba(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Softmax probabilities for a batch (n, input_dim) -> (n, num_classes)."""
    logits, _, _ = _logits_and_hidden(spec, params, x)
    return softmax(logits)


class Workspace:
    """Named arrays that calls reuse instead of allocating their own:
    `array(name, shape, dtype)` is a C-contiguous view of the buffer `name`,
    which a larger one replaces when a call needs more; a buffer keeps the
    dtype it was made with. `layout` keeps one layout of views over the
    buffers for later calls, until a buffer is made or replaced;
    `generation` counts those events, so a caller that keeps views of its
    own can tell when they are stale. One call at a time may use a
    workspace."""

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._layout: tuple | None = None  # (key, generation, views)
        self.generation = 0

    def array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._arrays.get(name)
        if buf is not None and buf.dtype != dtype:
            raise TypeError(f"workspace buffer {name!r} holds {buf.dtype}, not {np.dtype(dtype)}")
        if buf is None or len(buf) < size:
            buf = self._arrays[name] = np.empty(size, dtype=dtype)
            self.generation += 1
        return buf[:size].reshape(shape)

    def layout(self, key, build):
        """`build()`, views over this workspace's buffers, handed back to a
        later call with an equal key until a call with another key, or a
        buffer is made or replaced."""
        if self._layout is None or self._layout[:2] != (key, self.generation):
            views = build()  # which may make or replace buffers
            self._layout = (key, self.generation, views)
        return self._layout[2]


def _folded_layers(spec: ModelSpec, theta: np.ndarray, workspace: Workspace) -> list[np.ndarray]:
    """Each layer of models theta (g, P) as one contiguous [W | b] block
    (g, units, inputs + 1), the bias as its last column, in `workspace`'s
    "layer0" and "layer1" buffers, in `_layers` order."""
    layers = _layers(spec, theta)
    folded = []
    for i, (w, b) in enumerate(zip(layers[0::2], layers[1::2])):
        g, units, inputs = w.shape
        block = workspace.array(f"layer{i}", (g, units, inputs + 1))
        block[:, :, :inputs] = w
        block[:, :, inputs] = b
        folded.append(block)
    return folded


def measure_models(spec: ModelSpec, theta, x, y, kind, workspace: Workspace | None = None):
    """Loss -log p_y ("loss") or confidence p_y ("confidence"), (G, n), of
    each row of one batch x (n, input_dim), y (n,) under each of G models
    theta (G, P), with the model on the left of every product and each
    bias folded into its GEMM. `kind` is "loss", "confidence", or a
    tuple of them, which gives a tuple of (G, n) arrays from one softmax
    pass, each with the bits of a call of its own.

    The batch is written once as a contiguous (input_dim + 1, n) array, x.T
    over a row of ones. A run of g models, the fewest whose logits hold at
    least MEASURE_RUN_BYTES, copies each layer into [W | b] blocks
    (`_folded_layers`) and runs per-model stacked GEMMs: [W1 | b1] @ [x.T; 1]
    into a hidden buffer with a ones row, ReLU, then [W2 | b2] @ [hid; 1]
    ([W | b] @ [x.T; 1] for logistic regression). The logits go straight
    into a class-major (C, g * n) array, which goes to `_class_major`
    without a copy. An MLP's forward pass takes as many of a run's models as
    keep their hidden activations within STACK_CHUNK_BYTES (at least one).
    Models are never stacked into one tall GEMM: a GEMM's shape fixes its
    bits and the softmax runs column by column, so each model's values have
    the bits of a call of its own, whatever its run. The buffers are
    `workspace`'s "inputs", "layer0", "layer1", "hid" and "logits" (one of
    its own if None).
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in kinds:
        if k not in ("loss", "confidence"):
            raise ValueError(f"unknown measurement kind {k!r}")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[1] != spec.param_count:
        raise ValueError(
            f"parameter matrix has shape {theta.shape}, expected (G, {spec.param_count})"
        )
    x, y = _as_batch(spec, x), np.asarray(y, dtype=np.int64)
    if len(y) != len(x):
        raise ValueError(f"{len(y)} labels for {len(x)} samples")
    workspace = Workspace() if workspace is None else workspace
    (n, d), h, c = x.shape, spec.hidden_dim, spec.num_classes
    inputs = workspace.array("inputs", (d + 1, n))
    inputs[:d] = x.T
    inputs[d] = 1.0
    run = max(1, -(-MEASURE_RUN_BYTES // (8 * c * max(n, 1))))
    per = max(1, STACK_CHUNK_BYTES // (8 * h * max(n, 1))) if h else run
    values = [np.empty((len(theta), n)) for _ in kinds]
    logs = tuple(k == "loss" for k in kinds)
    at = None  # each row's target in the flat logits of a run
    for g0 in range(0, len(theta), run):
        layers = _folded_layers(spec, theta[g0 : g0 + run], workspace)
        g = len(layers[0])
        if at is None or len(at) != g * n:
            at = (np.arange(g)[:, None] * n + (y * (g * n) + np.arange(n))).ravel()
        logits = workspace.array("logits", (c, g, n))
        for f0 in range(0, g, per):
            out, a = logits[:, f0 : f0 + per].transpose(1, 0, 2), inputs
            if h:
                w1 = layers[0][f0 : f0 + per]
                a = workspace.array("hid", (len(w1), h + 1, n))
                np.matmul(w1, inputs, out=a[:, :h])
                a[:, h] = 1.0
                np.maximum(a, 0.0, out=a)
            np.matmul(layers[-1][f0 : f0 + per], a, out=out)
        measured = _class_major(logits.reshape(c, g * n), logs, at)
        for v, m in zip(values, measured):
            v[g0 : g0 + g] = m.reshape(g, n)
    return tuple(values) if isinstance(kind, tuple) else values[0]


def per_sample_losses(spec: ModelSpec, params: np.ndarray, x, y) -> np.ndarray:
    """Cross-entropy of each sample of one batch x (n, input_dim), or of one
    row, with classes y, under one flat model `params` (P,) -> (n,): the
    losses of a one-batch `StackedBatches`."""
    if np.ndim(params) != 1:
        raise ValueError(f"parameters have shape {np.shape(params)}, expected one flat model")
    return StackedBatches(spec, [x], [y]).losses(params)[0]


class StackedBatches:
    """Batches (xs[i], ys[i]) stacked once per group of equal size, to be
    scored again and again: `losses` gives each batch's per-sample
    cross-entropy, every batch with the bits of a call of its own. A lone
    batch of a size is a view, not a copy. A batch whose label count is not
    its row count is refused.

    The chunk rule lays out the stacks' rows, stack after stack and batch
    after batch, in the buffers of `workspace` (one of its own if None): a
    forward pass takes as many batches of a stack as keep their hidden
    activations and logits within STACK_CHUNK_BYTES (at least one), and
    passes fill a run of logits until it holds STACK_CHUNK_BYTES or the rows
    end. Runs are views of the workspace's "logits" buffer; the hidden layer
    goes into "pre" and "hid". The plan is laid out at construction, and
    again only after the workspace has made or replaced a buffer.
    """

    def __init__(self, spec: ModelSpec, xs, ys, workspace: Workspace | None = None):
        xs = [_as_batch(spec, x) for x in xs]
        ys = [np.asarray(y, dtype=np.int64).ravel() for y in ys]
        groups: dict[int, list[int]] = {}
        for i, (x, y) in enumerate(zip(xs, ys, strict=True)):
            if len(y) != len(x):
                raise ValueError(f"batch {i} has {len(x)} rows but {len(y)} labels")
            groups.setdefault(len(x), []).append(i)
        self.spec = spec
        self.workspace = Workspace() if workspace is None else workspace
        self.order = [i for ids in groups.values() for i in ids]
        self.stacks = [
            np.stack([xs[i] for i in ids]) if len(ids) > 1 else xs[ids[0]][None]
            for ids in groups.values()
        ]
        labels = [ys[i] for i in self.order]
        self.labels = np.concatenate(labels) if labels else np.empty(0, dtype=np.int64)
        self.rows, start = [None] * len(xs), 0  # batch i's rows in the losses
        for i in self.order:
            self.rows[i] = slice(start, start + len(xs[i]))
            start += len(xs[i])
        self._lay_out()

    def _lay_out(self) -> None:
        """The plan: one (x, first batch, logits, hidden, run) per forward
        pass, which takes batches x, the first of them batch `first` in
        stack order, and writes their logits and hidden layer into its
        views; `run` is the run of logits handed on after it, or None."""
        h, c = self.spec.hidden_dim, self.spec.num_classes
        chunks = []  # (batches, first batch of all)
        first = most = 0
        for stack in self.stacks:
            n = stack.shape[1]
            per = max(1, STACK_CHUNK_BYTES // (8 * (h + c) * max(n, 1)))
            chunks += [(stack[b0 : b0 + per], first + b0) for b0 in range(0, len(stack), per)]
            most = max(most, min(per, len(stack)) * n)
            first += len(stack)
        rows, least = len(self.labels), max(1, STACK_CHUNK_BYTES // (8 * c))
        logits = self.workspace.array("logits", (min(rows, least - 1 + most), c))
        hidden = [self.workspace.array(a, (most, h)) for a in ("pre", "hid")] if h else None
        self._passes, start, fill = [], 0, 0
        for x, b in chunks:
            g, n = x.shape[:2]
            out = logits[fill : fill + g * n].reshape(g, n, c)
            cache = [a[: g * n].reshape(g, n, h) for a in hidden] if h else None
            fill += g * n
            run = None
            if fill >= least or (fill and start + fill == rows):
                run, start, fill = logits[:fill], start + fill, 0
            self._passes.append((x, b, out, cache, run))
        self._generation = self.workspace.generation

    def _runs(self, params):
        """Yield (first row, logits (rows, num_classes)) for each run of the
        plan, rows in stack order, under one flat `params` (P,) or under
        model params[i] of a matrix (B, P) for batch i. A run is valid until
        the next."""
        if self._generation != self.workspace.generation:  # its views may be stale
            self._lay_out()
        matrix = np.ndim(params) == 2
        if matrix:
            theta = np.asarray(params, dtype=np.float64)
            if theta.shape != (len(self.order), self.spec.param_count):
                raise ValueError(
                    f"parameter matrix has shape {theta.shape}, expected "
                    f"({len(self.order)}, {self.spec.param_count}): one model per batch"
                )
            theta = theta[self.order]
        else:
            layers = _single_layers(self.spec, params)
        start = 0
        for x, first, out, cache, run in self._passes:
            if matrix:
                layers = _layers(self.spec, theta[first : first + len(x)])
            _forward(self.spec, layers, x, out=out, hidden=cache)
            if run is not None:
                yield start, run
                start += len(run)

    def losses(self, params) -> list[np.ndarray]:
        """Each batch's per-sample cross-entropy under one flat `params` (P,)
        or under model params[i] of a matrix (B, P) for batch i, in batch
        order, as views into one fresh array: one softmax-core call a run
        that reads only each row's target class."""
        flat = np.empty(len(self.labels))
        for r0, logits in self._runs(params):
            at = slice(r0, r0 + len(logits))
            flat[at] = _softmax_core(logits, log=True, y=self.labels[at])
        return [flat[rows] for rows in self.rows]


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
    client list of the `sgd_lockstep` call."""

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

    Returns (rank, starts, slots, passes): ranked client j's rows start at
    starts[j] when the clients are concatenated in rank order;
    slots[starts[j] + p] is the buffer row of its p-th shuffled sample;
    passes lists the groups step by step, one list per step and path (the
    plain one first), each group (j0, j1, b, row) -- ranked clients
    j0..j1-1, batch size b, first buffer row. A pass's rows are contiguous.
    """
    rank = np.lexsort((-sizes, cr))
    n = sizes[rank]
    starts = np.concatenate([[0], np.cumsum(n)[:-1]])
    steps = -(-int(n.max()) // batch_size)
    b = np.clip(n - batch_size * np.arange(steps)[:, None], 0, batch_size)
    s, j = np.nonzero(b)  # one entry per client batch, in buffer order
    b = b[s, j]
    row = np.concatenate([[0], np.cumsum(b)[:-1]])
    path = cr[rank][j]
    new_pass = (s[1:] != s[:-1]) | (path[1:] != path[:-1])
    cut = np.flatnonzero(new_pass | (b[1:] != b[:-1])) + 1
    first, last = np.concatenate([[0], cut]), np.concatenate([cut, [len(b)]]) - 1
    total = int(n.sum())
    slots = np.empty(total, dtype=np.int64)
    # the p-th row of entry (s, j) is sample s * batch_size + p of ranked client j
    slots[np.arange(total) + np.repeat(starts[j] + s * batch_size - row, b)] = np.arange(total)
    groups = list(
        zip(j[first].tolist(), (j[last] + 1).tolist(), b[first].tolist(), row[first].tolist())
    )
    bounds = [0, *(np.flatnonzero(new_pass[first[1:] - 1]) + 1).tolist(), len(groups)]
    return rank, starts, slots, [groups[a:z] for a, z in zip(bounds, bounds[1:])]


def _pass_rows(groups):
    """Rows of one pass of `_lockstep_layout`: its buffer rows r0..r1-1 and
    each row's batch size, a scalar when the pass is one group."""
    counts = [(j1 - j0) * b for j0, j1, b, _ in groups]
    if len(groups) == 1:
        row_b = groups[0][2]
    else:
        row_b = np.repeat(np.asarray([g[2] for g in groups], dtype=np.float64), counts)[:, None]
    return groups[0][3], groups[0][3] + sum(counts), row_b


def _shuffled_rows(rank, starts, sizes, rngs) -> np.ndarray:
    """One epoch's row order in rank order: ranked client j's rows
    starts[j] .. starts[j] + n - 1 (n = sizes[rank[j]]), shuffled by
    rngs[rank[j]].

    It equals concatenate([starts[j] + rngs[i].permutation(n) ...]) with the
    same generator states after: permutation(n) is arange(n) then shuffle,
    and each client's slice of one arange is shuffled in place instead.
    """
    rows = np.arange(int(sizes.sum()))
    n = sizes.tolist()
    for start, i in zip(starts.tolist(), rank.tolist()):
        rngs[i].shuffle(rows[start : start + n[i]])
    return rows


@dataclass(frozen=True, eq=False)
class LockstepInputs:
    """Read-only inputs of lock-step training for a list of K client
    datasets, built by `prepare_lockstep`; any number of `sgd_lockstep`
    calls may share them.

    sizes (K,) are the clients' row counts in list order, and rank, starts
    and slots are `_lockstep_layout`'s. Each pass is (groups, r0, r1, row_b,
    masked): the layout's groups, `_pass_rows`' rows, and whether its
    clients carry a row mask. x, y and mask hold every client's rows in rank
    order (mask is False where a client has none); width is the most rows
    of any pass.
    """

    sizes: np.ndarray
    batch_size: int
    rank: np.ndarray
    starts: np.ndarray
    slots: np.ndarray
    passes: tuple
    width: int
    x: np.ndarray
    y: np.ndarray
    mask: np.ndarray


def prepare_lockstep(xs, ys, batch_size: int, masks=None) -> LockstepInputs:
    """Check and lay out client k's rows (xs[k], ys[k]) and optional boolean
    row mask masks[k] (masks None, or None for a client without one) for
    `sgd_lockstep` at batch_size; the rows are copied.

    Raises ValueError, naming the client's position, when its labels or
    mask do not match its rows.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    k = len(xs)
    masks = [None] * k if masks is None else masks
    if k == 0 or len(ys) != k or len(masks) != k:
        raise ValueError("need one dataset and mask per client, at least one client")
    sizes = np.asarray([len(x) for x in xs], dtype=np.int64)
    if sizes.min() == 0:
        raise ValueError("empty dataset")
    for i, (n, y, mask) in enumerate(zip(sizes, ys, masks)):
        if len(y) != n:
            raise ValueError(f"client {i} has {n} rows but {len(y)} labels")
        if mask is not None and len(mask) != n:
            raise ValueError(f"client {i} has {n} rows but {len(mask)} mask entries")
    cr = np.asarray([mask is not None for mask in masks])
    rank, starts, slots, layout = _lockstep_layout(sizes, cr, batch_size)
    passes = tuple(
        (tuple(groups), *_pass_rows(groups), bool(cr[rank[groups[0][0]]])) for groups in layout
    )
    inputs = LockstepInputs(
        sizes=sizes,
        batch_size=batch_size,
        rank=rank,
        starts=starts,
        slots=slots,
        passes=passes,
        width=max(r1 - r0 for _, r0, r1, _, _ in passes),
        x=np.concatenate([np.asarray(xs[i], dtype=np.float64) for i in rank]),
        y=np.concatenate([np.asarray(ys[i], dtype=np.int64) for i in rank]),
        mask=np.concatenate(
            [np.asarray(masks[i] if cr[i] else np.zeros(sizes[i]), bool) for i in rank]
        ),
    )
    row_bs = [row_b for *_, row_b, _ in passes if np.ndim(row_b)]
    for array in (sizes, rank, starts, slots, inputs.x, inputs.y, inputs.mask, *row_bs):
        array.flags.writeable = False
    return inputs


def _lockstep_views(spec: ModelSpec, inputs: LockstepInputs, workspace: Workspace):
    """(theta, step, order, passes) of an `sgd_lockstep` call on `inputs`,
    in `workspace`'s buffers: theta (K, P) the clients' parameters in rank
    order, step a pass's gradients then update; per pass its rows, path and
    clients with its feature and logit buffers, and per group its layer,
    gradient, feature, logit and hidden views."""
    k, p, n, h = len(inputs.sizes), spec.param_count, inputs.width, spec.hidden_dim
    theta, step = workspace.array("theta", (k, p)), workspace.array("step", (k, p))
    order = workspace.array("order", (len(inputs.slots),), np.int64)
    x_buf = workspace.array("x", (n, spec.input_dim))
    logit_buf = workspace.array("logits", (n, spec.num_classes))
    pre, hid = workspace.array("pre", (n, h)), workspace.array("hid", (n, h))
    layers, grads = _layers(spec, theta), _layers(spec, step)
    passes = []
    for groups, r0, r1, row_b, masked in inputs.passes:
        stacked = []
        for j0, j1, b, row in groups:
            at = slice(row - r0, row - r0 + (j1 - j0) * b)

            def view(buf, at=at, g=j1 - j0, b=b):
                return buf[at].reshape(g, b, -1)

            stacked.append(
                (
                    [v[j0:j1] for v in layers],
                    [v[j0:j1] for v in grads],
                    at,
                    view(x_buf),
                    view(logit_buf),
                    (view(pre), view(hid)) if h else None,
                )
            )
        passes.append(
            (r0, r1, row_b, masked, groups[0][0], groups[-1][1],
             x_buf[: r1 - r0], logit_buf[: r1 - r0], stacked)
        )
    return theta, step, order, passes


def sgd_lockstep(
    spec: ModelSpec,
    params: np.ndarray,
    inputs: LockstepInputs,
    lr: float,
    epochs: int,
    rngs: list[np.random.Generator],
    dlogits_fn=None,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Mini-batch SGD on cross-entropy from `params` for the K clients of
    `inputs`; returns their (K, P) trained parameters in client order.
    Neither `params` nor `inputs` is modified.

    Every epoch client k shuffles its n_k rows by rngs[k], as
    rngs[k].permutation(n_k) would, and steps through consecutive batches of
    batch_size samples, the last one possibly shorter; each batch's gradient
    is its summed loss divided by its own size. All clients step in
    lock-step. At each step the clients whose batch has the same size and
    path (below) form a group, stacked as (G, b, ...), that takes one
    forward and one backward pass: the GEMMs' shapes fix their bits. The
    row-wise work between them -- log-softmax or softmax, the target
    gather, the one-hot subtraction and the division by each row's batch
    size -- runs once over all of a step's rows on a path. Every client
    thus gets the arithmetic it would get alone: row k is bit-identical to
    training client k by itself.

    A client prepared with a row mask adds an extra loss on its masked rows:
    dlogits_fn, a row-wise function (probs, y) -> that loss's gradient
    w.r.t. the logits, is added to the cross-entropy gradient before the
    division. Masked clients take softmax(logits) rather than
    exp(log_softmax(logits)); the two differ in the last bits, so each path
    keeps the arithmetic it has always had, in groups and passes of its own.

    Each pass's gradients are written into one (K, P) buffer, group by group,
    and its clients, contiguous in rank, take one update. The buffers come
    from `workspace`, which a caller that trains every round can keep; the
    result is then one of them, valid until the workspace's next use. The
    workspace keeps the views laid out over them (`_lockstep_views`) for
    these inputs and spec, so a later call on the same inputs does not lay
    them out again.

    Raises NonFiniteLoss naming the clients whose batch loss (cross-entropy)
    or logit gradient (with a mask) is not finite, among those of the first
    step and path where one is.
    """
    if not lr >= 0:  # written so that NaN fails
        raise ValueError(f"lr must be >= 0, got {lr}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    k = len(inputs.sizes)
    if len(rngs) != k:
        raise ValueError(f"need one generator per client: {len(rngs)} for {k} clients")
    if len({id(rng) for rng in rngs}) != k:
        raise ValueError("each client needs its own generator")
    rank, starts, sizes = inputs.rank, inputs.starts, inputs.sizes
    workspace = Workspace() if workspace is None else workspace
    # a weak key: the workspace keeps no inputs alive
    theta, step, order, passes = workspace.layout(
        (weakref.ref(inputs), spec), lambda: _lockstep_views(spec, inputs, workspace)
    )
    theta[:] = np.asarray(params, dtype=np.float64)
    row_base = np.arange(inputs.width) * spec.num_classes  # flat index of each row's first logit
    # non-finite values are detected and reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order[inputs.slots] = _shuffled_rows(rank, starts, sizes, rngs)
            for r0, r1, row_b, masked, j_lo, j_hi, x, logits, stacked in passes:
                rows = order[r0:r1]
                np.take(inputs.x, rows, axis=0, out=x, mode="clip")  # rows are in range
                y = inputs.y[rows]
                target = row_base[: r1 - r0] + y
                for group, _, _, xb, lb, hidden in stacked:
                    _forward(spec, group, xb, out=lb, hidden=hidden)
                if not masked:
                    dlogits = log_softmax(logits, out=logits)
                    checked = dlogits.ravel()[target]  # each row's target log-probability
                    np.exp(dlogits, out=dlogits)
                else:
                    probs = softmax(logits)
                    dlogits = probs.copy()
                dlogits.ravel()[target] -= 1.0
                if masked:
                    rb = inputs.mask[rows]
                    if rb.any():
                        dlogits[rb] += dlogits_fn(probs[rb], y[rb])
                    checked = np.where(np.isfinite(dlogits).all(axis=1), 0.0, np.nan)
                # every value is <= 0 or NaN, so no client's sum of at most
                # batch_size of them can overflow when this product is finite
                if not np.isfinite(checked.min() * (4 * inputs.batch_size)):
                    # sum each client's rows as a lone client's batch does: the
                    # order of a sum decides whether it overflows
                    sums = [
                        checked[at].reshape(xb.shape[:2]).sum(axis=1)
                        for _, _, at, xb, *_ in stacked
                    ]
                    finite = np.isfinite(np.concatenate(sums))
                    if not finite.all():
                        raise NonFiniteLoss(rank[j_lo:j_hi][~finite])
                dlogits /= row_b
                for group, grad, at, xb, lb, hidden in stacked:
                    dl = lb if dlogits is logits else dlogits[at].reshape(lb.shape)
                    _backward(spec, group, xb, hidden, dl, out=grad, consume=True)
                update = step[j_lo:j_hi]
                update *= lr
                theta[j_lo:j_hi] -= update
    step[rank] = theta  # the trained parameters in client order
    return step


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
    inputs = prepare_lockstep([x], [y], batch_size)
    return sgd_lockstep(spec, params, inputs, lr, epochs, [rng])[0]


def accuracy(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
    workspace: Workspace | None = None,
) -> float:
    """Fraction of samples whose argmax prediction matches the label, NaN
    for no samples; a one-batch `StackedBatches` in `workspace` (one of its
    own if None) computes the logits."""
    batch = StackedBatches(spec, [x], [y], workspace)
    y, hits = batch.labels, 0
    for r0, logits in batch._runs(params):
        hits += int((logits.argmax(axis=1) == y[r0 : r0 + len(logits)]).sum())
    return hits / len(y) if len(y) else math.nan
