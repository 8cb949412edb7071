"""Independent oracles used by the tests.

Deliberately written as straight-line brute force, separate from the
library's implementations: finite-difference gradients, exhaustive
subset-assignment search, the greedy class placement on Python sets and the
percentile-based reward normalization the library used to run, pair-counting
AUC, the scipy rank-sum AUC the library used to compute, a threshold-sweep
TPR@FPR, the step-by-step loop that built the lock-step layout, the softmax,
log-softmax and weighted aggregation formulas the library used to run,
mini-batch SGD that trains one client and one batch at a time, the
confidence-regularized loss of one sample, the per-client `permutation`
epoch order, the OUT measurements taken one
model at a time (row-major as they ran, and with the model on the left), and
the gradient cosines with one projection of all query rows (on the units, as
they ran, and on each layer's narrower side).
"""

import itertools
from types import SimpleNamespace

import numpy as np


def finite_difference_grad(f, params, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(params)
    for i in range(len(params)):
        hi, lo = params.copy(), params.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (f(hi) - f(lo)) / (2.0 * h)
    return g


def max_rel_error(analytic, reference):
    """Max absolute gap normalized by the reference's largest magnitude."""
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(analytic - reference))) / scale


def brute_min_max_overlap(num_classes, coalition_size, m, lower_bound=0):
    """Exhaustive minimum over covering assignments of the max pairwise overlap.

    Early-exits once the supplied lower bound is met (it cannot be beaten).
    """
    subsets = [frozenset(c) for c in itertools.combinations(range(num_classes), m)]
    full = frozenset(range(num_classes))
    best = m + 1
    for combo in itertools.combinations_with_replacement(subsets, coalition_size):
        if frozenset().union(*combo) != full:
            continue
        worst = max(len(a & b) for a, b in itertools.combinations(combo, 2))
        best = min(best, worst)
        if best <= lower_bound:
            break
    return best


def set_greedy_pass(num_classes, d, m, overlap_cap, rng, over_cap=None):
    """`assignment._greedy_pass` as it ran on Python sets: a list of d class
    sets, or None. If `over_cap` is a list, one True is appended for each
    pick made while some overlap is already above the cap (every class is
    then unsafe, so the pick is drawn from all candidates)."""
    freq = np.zeros(num_classes, dtype=np.int64)
    subsets = []
    for _ in range(d):
        chosen = set()
        overlaps = [0] * len(subsets)
        for _ in range(m):
            available = [c for c in range(num_classes) if c not in chosen]
            lowest = min(freq[c] for c in available)
            candidates = [c for c in available if freq[c] == lowest]
            safe = [
                c
                for c in candidates
                if all(
                    overlaps[i] + (1 if c in subsets[i] else 0) <= overlap_cap
                    for i in range(len(subsets))
                )
            ]
            if over_cap is not None and any(o > overlap_cap for o in overlaps):
                over_cap.append(True)
            pool = safe if safe else candidates
            pick = int(rng.choice(np.asarray(sorted(pool))))
            chosen.add(pick)
            freq[pick] += 1
            for i, prev in enumerate(subsets):
                if pick in prev:
                    overlaps[i] += 1
        if any(len(chosen & prev) > overlap_cap for prev in subsets):
            return None
        subsets.append(chosen)
    return subsets


def percentile_normalize_reward(reward, history):
    """`compensation.normalize_reward` as it ran on `np.percentile`."""
    hist = np.asarray(list(history), dtype=np.float64)
    if len(hist) < 1:
        raise ValueError("reward history is empty")
    r20, r80 = np.percentile(hist, [20.0, 80.0])
    if r80 == r20:
        return 0.0
    return float(np.clip(2.0 * (reward - r20) / (r80 - r20) - 1.0, -1.0, 1.0))


def pair_counting_auc(scores, labels):
    """AUC by enumerating every (positive, negative) pair; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def rank_sum_auc(scores, labels):
    """AUC as (R_pos - P(P+1)/2) / (P*N) from scipy's average ranks: the
    formula `metrics.auc_score` used before it grouped ties itself."""
    from scipy.stats import rankdata

    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    ranks = rankdata(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def sweep_tpr_at_fpr(scores, labels, level):
    """Max TPR over all score thresholds whose empirical FPR stays <= level."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    best = 0.0
    thresholds = np.unique(scores)
    for thr in thresholds:  # predict member when score >= thr
        pred = scores >= thr
        fpr = float((pred & (labels == 0)).sum()) / n_neg
        tpr = float((pred & (labels == 1)).sum()) / n_pos
        if fpr <= level:
            best = max(best, tpr)
    return best


def trapezoid_auc(scores, labels):
    """ROC integration by the trapezoid rule over all achievable points."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    s, lab = scores[order], labels[order]
    n_pos = int((lab == 1).sum())
    n_neg = int((lab == 0).sum())
    tp = fp = 0
    fpr_pts, tpr_pts = [0.0], [0.0]
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:  # tied scores move together
            tp += int(lab[j] == 1)
            fp += int(lab[j] == 0)
            j += 1
        fpr_pts.append(fp / n_neg)
        tpr_pts.append(tp / n_pos)
        i = j
    return float(np.trapezoid(tpr_pts, fpr_pts))


def reference_softmax(logits):
    """`models.softmax` as it ran on numpy's row-wise max."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_log_softmax(logits):
    """`models.log_softmax` as it ran on numpy's row-wise max."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def loop_aggregate(params_list, weights):
    """`federation.aggregate_weighted` as it ran: one `out += w * p` per vector."""
    weights = np.asarray(weights, dtype=np.float64)
    out = np.zeros(len(params_list[0]))
    for w, p in zip(weights, params_list):
        out += w * p
    return out / weights.sum()


def _forward_2d(spec, params, x):
    """One model's forward pass on an (n, d) batch, layer by layer."""
    from fedpriv.models import unpack

    if spec.hidden_dim == 0:
        w, b = unpack(spec, params)
        return x @ w.T + b, None
    w1, b1, w2, b2 = unpack(spec, params)
    pre = x @ w1.T + b1
    hid = np.maximum(pre, 0.0)
    return hid @ w2.T + b2, (pre, hid)


def _grad_2d(spec, params, x, dlogits):
    """Flat parameter gradient for a logit gradient, recomputing the forward pass."""
    from fedpriv.models import unpack

    _, cache = _forward_2d(spec, params, x)
    if spec.hidden_dim == 0:
        return np.concatenate([(dlogits.T @ x).ravel(), dlogits.sum(axis=0)])
    pre, hid = cache
    w2 = unpack(spec, params)[2]
    dhid = np.where(pre > 0.0, dlogits @ w2, 0.0)
    return np.concatenate(
        [(dhid.T @ x).ravel(), dhid.sum(axis=0), (dlogits.T @ hid).ravel(), dlogits.sum(axis=0)]
    )


def sequential_sgd(spec, params, x, y, lr, epochs, batch_size, rng, extra_term=None):
    """One client's mini-batch SGD, one batch and one client at a time.

    The plain cross-entropy step is log-softmax, a finite-loss check, then
    exp(log-softmax) minus one-hot; with extra_term = (mask, dlogits_fn) the
    step takes softmax probabilities and adds dlogits_fn(probs, y) on the
    masked rows. Each batch's gradient is divided by its own size.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    out = params.copy()
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb, b = x[idx], y[idx], len(idx)
            logits, _ = _forward_2d(spec, out, xb)
            if extra_term is None:
                logp = reference_log_softmax(logits)
                if not np.isfinite(-logp[np.arange(b), yb].mean()):
                    raise FloatingPointError("non-finite loss")
                dlogits = np.exp(logp)
                dlogits[np.arange(b), yb] -= 1.0
            else:
                mask, dlogits_fn = extra_term
                probs = reference_softmax(logits)
                dlogits = probs.copy()
                dlogits[np.arange(b), yb] -= 1.0
                rb = np.asarray(mask, dtype=bool)[idx]
                if rb.any():
                    dlogits[rb] += dlogits_fn(probs[rb], yb[rb])
            dlogits /= b
            out -= lr * _grad_2d(spec, out, xb, dlogits)
    return out


def sequential_sgd_clients(spec, params, xs, ys, lr, epochs, batch_size, rngs, extra_term=None):
    """`models.sgd_lockstep` on `models.prepare_lockstep(xs, ys, batch_size,
    masks)` with `dlogits_fn`, for extra_term = (masks, dlogits_fn), with the
    clients trained one after another; a client whose mask is None trains on
    plain cross-entropy."""
    masks, fn = extra_term if extra_term is not None else ([None] * len(xs), None)
    return np.stack(
        [
            sequential_sgd(
                spec, params, xs[k], ys[k], lr, epochs, batch_size, rngs[k],
                None if masks[k] is None else (masks[k], fn),
            )
            for k in range(len(xs))
        ]
    )


def cr_loss_and_grad(spec, params, x, y, mu):
    """The confidence-regularized loss of one sample x (input_dim,) of class
    y, written out, and its gradient backpropagated from
    `compensation.cr_term(mu)`'s logit gradient: the loss is
    KL(f || target) - mu * entropy(f) for the model's probabilities f and
    the soft label that keeps f_y and spreads 1 - f_y evenly over the other
    classes, clamped to >= 1e-6 and renormalized."""
    from fedpriv.compensation import cr_term

    x = np.asarray(x, dtype=np.float64)[None]
    logits, _ = _forward_2d(spec, params, x)
    probs = reference_softmax(logits)
    f = probs[0]
    target = np.full(len(f), (1.0 - f[y]) / (len(f) - 1))
    target[y] = f[y]
    target = np.clip(target, 1e-6, None)
    target /= target.sum()
    logf = np.log(np.clip(f, 1e-300, 1.0))
    loss = float(np.sum(f * (logf - np.log(target))) + mu * np.sum(f * logf))
    dlogits = cr_term(mu)(probs, np.asarray([y]))
    return loss, _grad_2d(spec, params, x, dlogits)


def recorded_lockstep_inputs(xs, ys, batch_size, masks=None):
    """Stand-in for `models.prepare_lockstep` that keeps its arguments as
    given, for `sequential_sgd_lockstep`."""
    return SimpleNamespace(
        xs=xs, ys=ys, batch_size=batch_size, masks=masks, sizes=[len(x) for x in xs]
    )


def sequential_sgd_lockstep(
    spec, params, inputs, lr, epochs, rngs, dlogits_fn=None, workspace=None
):
    """Stand-in for `models.sgd_lockstep` on `recorded_lockstep_inputs`: the
    clients train one after another (`sequential_sgd_clients`); the
    workspace, which only holds buffers, is not needed."""
    masks = inputs.masks if inputs.masks is not None else [None] * len(inputs.xs)
    return sequential_sgd_clients(
        spec, params, inputs.xs, inputs.ys, lr, epochs, inputs.batch_size, rngs,
        (masks, dlogits_fn),
    )


def loop_lockstep_layout(sizes, cr, batch_size):
    """`models._lockstep_layout` as a loop over steps, with the groups in one
    flat list: (rank, starts, slots, groups)."""
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


def permutation_epoch_order(rank, starts, sizes, rngs):
    """`models._shuffled_rows` as it ran: one `permutation` per ranked client,
    shifted to its first row and concatenated."""
    return np.concatenate([starts[j] + rngs[i].permutation(sizes[i]) for j, i in enumerate(rank)])


def per_model_out_stats(store, x, y, exclude_clients, kind):
    """`attacks._out_stats_matrix` for "loss" or "confidence" as it ran: one
    forward pass per (round, client), stacked, then each round's mean and
    population std floored at 1e-6."""
    from fedpriv import attacks, models

    others = [k for k in range(store.num_clients) if k not in exclude_clients]
    means, stds = [], []
    for locals_t in store.locals:
        per_model = []
        for k in others:
            logits, _, _ = models._logits_and_hidden(store.spec, locals_t[k], x)
            rows = np.arange(len(y))
            if kind == "loss":
                per_model.append(-models.log_softmax(logits)[rows, y])
            else:
                per_model.append(models.softmax(logits)[rows, y])
        stack = np.stack(per_model)
        means.append(stack.mean(axis=0))
        stds.append(np.maximum(stack.std(axis=0), attacks.OUT_STD_FLOOR))
    return np.column_stack(means), np.column_stack(stds)


def models_left_out_stats(store, x, y, exclude_clients, kind):
    """`per_model_out_stats` with the model on the left of every product:
    one model at a time, its logits W2 @ relu(W1 @ x.T + b1) + b2 (W @ x.T
    + b for logistic regression), transposed, then the reference formulas."""
    from fedpriv import attacks, models

    others = [k for k in range(store.num_clients) if k not in exclude_clients]
    rows = np.arange(len(y))
    means, stds = [], []
    for locals_t in store.locals:
        per_model = []
        for k in others:
            layers = models.unpack(store.spec, locals_t[k])
            if store.spec.hidden_dim:
                w1, b1, w2, b2 = layers
                logits = (w2 @ np.maximum(w1 @ x.T + b1[:, None], 0.0) + b2[:, None]).T
            else:
                w, b = layers
                logits = (w @ x.T + b[:, None]).T
            if kind == "loss":
                per_model.append(-reference_log_softmax(logits)[rows, y])
            else:
                per_model.append(reference_softmax(logits)[rows, y])
        stack = np.stack(per_model)
        means.append(stack.mean(axis=0))
        stds.append(np.maximum(stack.std(axis=0), attacks.OUT_STD_FLOOR))
    return np.column_stack(means), np.column_stack(stds)


def narrow_side_grad_cosines(spec, params, x, y, directions):
    """`attacks._grad_cosines` with every product over all n query rows at
    once and no scaling of the directions: the biases' share of each dot
    product in one GEMM, then each layer contracted on its wider side (the
    units when it has fewer inputs than units, else the inputs)."""
    from fedpriv import models

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
        layers = [(x, np.where(pre > 0.0, dlogits @ w2, 0.0)), (hid, dlogits)]
    blocks = models._layers(spec, directions)
    bias = np.concatenate(blocks[1::2], axis=1)
    dots = bias @ np.concatenate([delta for _, delta in layers], axis=1).T
    sq_dirs = np.einsum("ij,ij->i", bias, bias)
    sq_norms = np.zeros(n)
    for (a, delta), w in zip(layers, blocks[0::2]):
        units, inputs = w.shape[1:]
        if inputs < units:
            v, left, right = np.ascontiguousarray(w.transpose(0, 2, 1)), delta, a
        else:
            v, left, right = np.ascontiguousarray(w), a, delta
        sq_dirs += np.einsum("mwk,mwk->m", v, v)
        proj = left @ v.reshape(m * v.shape[1], -1).T
        dots += np.matmul(proj.reshape(n, m, -1), right[:, :, None])[:, :, 0].T
        sq_norms += (delta * delta).sum(axis=1) * ((a * a).sum(axis=1) + 1.0)
    norms = np.sqrt(sq_dirs)[:, None] * np.sqrt(sq_norms)
    out = np.zeros((m, n))
    ok = norms > 0
    out[ok] = dots[ok] / norms[ok]
    return out


def one_shot_grad_cosines(spec, params, x, y, directions):
    """`attacks._grad_cosines` as it ran before it contracted each layer on
    its narrower side: each layer projects all n query rows at once into an
    (n, m, units) array a V^T + c."""
    from fedpriv import models

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
    dots = np.zeros((m, n))
    sq_norms = np.zeros(n)
    for (a, delta), w, c in zip(layers, blocks[0::2], blocks[1::2]):
        rows, cols = w.shape[1:]
        proj = (a @ w.reshape(m * rows, cols).T).reshape(n, m, rows)
        proj += c
        dots += np.einsum("nmr,nr->mn", proj, delta)
        sq_norms += (delta * delta).sum(axis=1) * ((a * a).sum(axis=1) + 1.0)
    norms = np.linalg.norm(directions, axis=1)[:, None] * np.sqrt(sq_norms)
    out = np.zeros((m, n))
    ok = norms > 0
    out[ok] = dots[ok] / norms[ok]
    return out
