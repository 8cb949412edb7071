"""Tests for AUC and TPR@FPR against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedpriv import attacks as atk
from fedpriv import metrics
from oracles import pair_counting_auc, rank_sum_auc, sweep_tpr_at_fpr, trapezoid_auc

# few distinct values, so most scores tie; -0.0 and 0.0 tie with each other
TIE_HEAVY = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 1e300, np.inf])


def test_perfect_separation():
    scores = np.array([3.0, 2.5, 1.0, 0.5])
    labels = np.array([1, 1, 0, 0])
    assert metrics.auc_score(scores, labels) == 1.0
    table = metrics.tpr_at_fpr(scores, labels)
    assert table[0.001] == 1.0


def test_constant_scores_are_chance():
    scores = np.zeros(10)
    labels = np.array([1] * 5 + [0] * 5)
    assert metrics.auc_score(scores, labels) == 0.5
    table = metrics.tpr_at_fpr(scores, labels)
    assert table[0.001] == 0.0 and table[0.1] == 0.0


def test_swapped_member_gives_three_quarters():
    scores = np.array([3.0, 0.5, 1.0, 0.0])
    labels = np.array([1, 1, 0, 0])
    assert metrics.auc_score(scores, labels) == pytest.approx(
        pair_counting_auc(scores, labels)
    )
    assert metrics.auc_score(scores, labels) == 0.75


def test_single_class_rejected():
    with pytest.raises(ValueError):
        metrics.auc_score(np.arange(4.0), np.ones(4, dtype=int))


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 41))
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if labels.sum() in (0, n):
            continue
        assert abs(metrics.auc_score(scores, labels) - pair_counting_auc(scores, labels)) <= 1e-12


def test_auc_matches_trapezoid_integration():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(6, 60))
        scores = np.round(rng.normal(size=n), 1)
        labels = (rng.uniform(size=n) < 0.4).astype(int)
        if labels.sum() in (0, n):
            continue
        assert abs(metrics.auc_score(scores, labels) - trapezoid_auc(scores, labels)) <= 1e-12


def test_tpr_table_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(10, 80))
        scores = np.round(rng.normal(size=n), 1)
        labels = (rng.uniform(size=n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            continue
        table = metrics.tpr_at_fpr(scores, labels, levels=(0.001, 0.01, 0.1, 0.5))
        for level, got in table.items():
            assert got == sweep_tpr_at_fpr(scores, labels, level)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    labels = (rng.uniform(size=40) < 0.5).astype(int)
    transformed = np.exp(3.0 * scores) + 7.0  # strictly increasing
    assert metrics.auc_score(scores, labels) == pytest.approx(
        metrics.auc_score(transformed, labels), abs=1e-12
    )
    assert metrics.tpr_at_fpr(scores, labels) == metrics.tpr_at_fpr(transformed, labels)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 300))
def test_auc_is_bit_identical_to_rank_sum_oracle_and_close_to_pair_counting(data, n):
    scores = np.array(data.draw(st.lists(TIE_HEAVY, min_size=n, max_size=n)))
    n_pos = data.draw(st.integers(1, n - 1))
    labels = np.zeros(n, dtype=int)
    labels[data.draw(st.permutations(range(n)))[:n_pos]] = 1
    auc = metrics.auc_score(scores, labels)
    assert auc == rank_sum_auc(scores, labels)
    assert abs(auc - pair_counting_auc(scores, labels)) <= 1e-12
    for level in (0.001, 0.1, 0.5):
        assert metrics.tpr_at_fpr(scores, labels, (level,))[level] == sweep_tpr_at_fpr(
            scores, labels, level
        )


def test_signed_zeros_and_infinities_tie():
    labels = np.array([1, 0, 1, 0, 1, 0])
    scores = np.array([0.0, -0.0, np.inf, np.inf, -np.inf, -np.inf])
    assert metrics.auc_score(scores, labels) == 0.5
    fpr, tpr = metrics.roc_points(scores, labels)
    assert fpr.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
    assert tpr.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]


@pytest.mark.parametrize(
    "scores, labels, field",
    [
        ([0.3, np.nan, 0.1, 0.9], [1, 1, 0, 0], "scores"),
        ([0.3, 0.2, 0.1], [1, 2, 0], "labels"),
        ([0.3, 0.2, 0.1], [1, -1, 0], "labels"),
        ([0.3, 0.2, 0.1], [1.0, 0.5, 0.0], "labels"),
        ([0.3, 0.2, 0.1], [1, 0], "labels"),
        ([[0.3, 0.2], [0.1, 0.0]], [[1, 0], [0, 1]], "scores"),
        ([0.3, 0.2, 0.1], [1, 1, 1], "labels"),
        ([0.3, 0.2, 0.1], [0, 0, 0], "labels"),
        ([], [], "labels"),
    ],
    ids=["nan", "label-2", "label-neg", "label-half", "length", "2d", "no-negative",
         "no-positive", "empty"],
)
def test_malformed_input_is_rejected_naming_the_field(scores, labels, field):
    for fn in (metrics.auc_score, metrics.roc_points, metrics.tpr_at_fpr):
        with pytest.raises(ValueError, match=field):
            fn(np.array(scores), np.array(labels))


def test_evaluate_attack_names_the_attack():
    with pytest.raises(ValueError, match="fta_l: scores contain NaN"):
        atk.evaluate_attack(np.array([np.nan, 1.0]), np.array([1, 0]), attack="fta_l")
