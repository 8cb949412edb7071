"""Independent oracles used by the tests.

Deliberately written as straight-line brute force, separate from the
library's implementations: finite-difference gradients, exhaustive
subset-assignment search, pair-counting AUC, a threshold-sweep TPR@FPR,
and mini-batch SGD that trains one client and one batch at a time.
"""

import itertools

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
    from fedpriv.models import log_softmax, softmax

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
                logp = log_softmax(logits)
                if not np.isfinite(-logp[np.arange(b), yb].mean()):
                    raise FloatingPointError("non-finite loss")
                dlogits = np.exp(logp)
                dlogits[np.arange(b), yb] -= 1.0
            else:
                mask, dlogits_fn = extra_term
                probs = softmax(logits)
                dlogits = probs.copy()
                dlogits[np.arange(b), yb] -= 1.0
                rb = np.asarray(mask, dtype=bool)[idx]
                if rb.any():
                    dlogits[rb] += dlogits_fn(probs[rb], yb[rb])
            dlogits /= b
            out -= lr * _grad_2d(spec, out, xb, dlogits)
    return out


def sequential_sgd_clients(spec, params, xs, ys, lr, epochs, batch_size, rngs, extra_term=None):
    """Drop-in for `models.sgd_clients` that trains the clients one after another."""
    masks, fn = extra_term if extra_term is not None else (None, None)
    return np.stack(
        [
            sequential_sgd(
                spec, params, xs[k], ys[k], lr, epochs, batch_size, rngs[k],
                None if masks is None else (masks[k], fn),
            )
            for k in range(len(xs))
        ]
    )
