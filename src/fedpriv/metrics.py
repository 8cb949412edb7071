"""Binary-score evaluation: AUC via the rank statistic and TPR at low FPR."""

from __future__ import annotations

import numpy as np

DEFAULT_FPR_LEVELS = (0.001, 0.01, 0.1)


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels as int64, or a ValueError naming the bad one.

    Scores may be +-inf but not NaN; labels are 0/1, as many as the scores,
    with both classes present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if labels.shape != scores.shape:
        raise ValueError(f"labels has shape {labels.shape}, scores has {scores.shape}")
    nan = np.flatnonzero(np.isnan(scores))
    if len(nan):
        raise ValueError(f"scores contain NaN (first at index {nan[0]})")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 (non-member) or 1 (member)")
    labels = labels.astype(np.int64)
    if labels.sum() in (0, len(labels)):
        raise ValueError("labels must contain both classes (0 and 1)")
    return scores, labels


def _tie_groups(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative counts per distinct score, in ascending score order.

    One sort; equal scores (including -0.0 and 0.0, or two infinities of one
    sign) form one group.
    """
    order = np.argsort(scores)
    s, lab = scores[order], labels[order]
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    pos = np.add.reduceat(lab, starts)
    size = np.diff(np.append(starts, len(s)))
    return pos, size - pos


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve from the rank statistic; ties count 1/2.

    labels: 1 for the positive class (member), 0 otherwise. Both classes
    must be present. U = sum over tie groups g of pos_g * (negatives below g)
    + pos_g * neg_g / 2 is a sum of integers and halves, so it is exact, and
    the AUC is U / (P * N).
    """
    pos, neg = _tie_groups(*_checked(scores, labels))
    neg_below = np.cumsum(neg) - neg
    u = float(pos @ neg_below) + 0.5 * float(pos @ neg)
    return u / (int(pos.sum()) * int(neg.sum()))


def roc_points(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Achievable (FPR, TPR) operating points, sweeping thresholds high to low.

    Starts at (0, 0) (predict nothing) and only cuts between distinct score
    values, so tied scores move together.
    """
    pos, neg = _tie_groups(*_checked(scores, labels))
    tp = np.cumsum(pos[::-1])
    fp = np.cumsum(neg[::-1])
    fpr = np.concatenate([[0.0], fp / fp[-1]])
    tpr = np.concatenate([[0.0], tp / tp[-1]])
    return fpr, tpr


def tpr_at_fpr(
    scores: np.ndarray, labels: np.ndarray, levels=DEFAULT_FPR_LEVELS
) -> dict[float, float]:
    """Best achievable TPR at each empirical FPR budget."""
    fpr, tpr = roc_points(scores, labels)
    out = {}
    for level in levels:
        feasible = tpr[fpr <= level]
        out[float(level)] = float(feasible.max()) if len(feasible) else 0.0
    return out
