"""Stratified fold planning: exact splits, partitioning, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmeans.cv import FoldPlan, stratified_kfold


def fold_class_counts(plan: FoldPlan, labels: np.ndarray):
    return [
        (int(np.sum(labels[f] == 1)), int(np.sum(labels[f] == 0)))
        for f in plan.test_indices
    ]


def test_700_300_split_is_exact():
    labels = np.array([0] * 700 + [1] * 300)
    plan = stratified_kfold(labels, 5, seed=42)
    for pos, neg in fold_class_counts(plan, labels):
        assert (pos, neg) == (60, 140)


def test_ten_samples_five_folds():
    labels = np.array([0, 1] * 5)
    plan = stratified_kfold(labels, 5, seed=0)
    for pos, neg in fold_class_counts(plan, labels):
        assert (pos, neg) == (1, 1)


def test_307_383_split_within_one():
    labels = np.array([1] * 307 + [0] * 383)
    plan = stratified_kfold(labels, 5, seed=7)
    for pos, neg in fold_class_counts(plan, labels):
        assert pos in (61, 62)
        assert neg in (76, 77)


def test_folds_partition_all_indices():
    labels = np.random.default_rng(1).integers(0, 2, size=103)
    plan = stratified_kfold(labels, 4, seed=3)
    combined = np.concatenate(plan.test_indices)
    assert sorted(combined) == list(range(103))


def test_test_folds_sorted_and_train_is_complement():
    labels = np.array([0, 1] * 20)
    plan = stratified_kfold(labels, 4, seed=5)
    for i, fold in enumerate(plan.test_indices):
        assert (np.diff(fold) > 0).all()
        train = plan.train_indices(i)
        assert len(set(train) & set(fold)) == 0
        assert len(train) + len(fold) == 40


def _loop_train_indices(plan, fold):
    """The per-index complement loop that ``train_indices`` replaced; the oracle."""
    test = set(plan.test_indices[fold].tolist())
    return np.array([i for i in range(plan.n) if i not in test], dtype=int)


def test_train_indices_match_loop_oracle_on_300_plans():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n, k = int(rng.integers(2, 60)), int(rng.integers(2, 6))
        folds = np.array_split(rng.permutation(n), k)
        plan = FoldPlan(k=k, test_indices=tuple(np.sort(f) for f in folds))
        for i in range(k):
            train = plan.train_indices(i)
            expect = _loop_train_indices(plan, i)
            assert train.dtype == expect.dtype and train.tobytes() == expect.tobytes()
            assert not train.flags.writeable


def test_deterministic_given_seed():
    labels = np.random.default_rng(2).integers(0, 2, size=60)
    a = stratified_kfold(labels, 3, seed=11)
    b = stratified_kfold(labels, 3, seed=11)
    c = stratified_kfold(labels, 3, seed=12)
    assert all((x == y).all() for x, y in zip(a.test_indices, b.test_indices))
    assert any((x.shape != y.shape) or (x != y).any()
               for x, y in zip(a.test_indices, c.test_indices))


def test_class_smaller_than_k_rejected():
    labels = np.array([0] * 20 + [1] * 3)
    with pytest.raises(ValueError, match="fewer than k"):
        stratified_kfold(labels, 5, seed=0)


def test_k_below_two_rejected():
    with pytest.raises(ValueError):
        stratified_kfold(np.array([0, 1, 0, 1]), 1, seed=0)


@given(
    n_pos=st.integers(min_value=3, max_value=60),
    n_neg=st.integers(min_value=3, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(deadline=None, max_examples=50)
def test_stratification_within_one_per_class(n_pos, n_neg, seed):
    k = 3
    labels = np.array([1] * n_pos + [0] * n_neg)
    rng = np.random.default_rng(seed)
    labels = labels[rng.permutation(labels.size)]
    plan = stratified_kfold(labels, k, seed=seed)
    counts = fold_class_counts(plan, labels)
    for pos, neg in counts:
        assert abs(pos - n_pos / k) <= 1
        assert abs(neg - n_neg / k) <= 1
    combined = np.concatenate(plan.test_indices)
    assert sorted(combined) == list(range(labels.size))


def _append_loop_kfold(labels: np.ndarray, k: int, seed: int) -> tuple:
    """The per-index append loop that ``stratified_kfold`` replaced; the oracle."""
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        for i, j in enumerate(idx):
            buckets[i % k].append(int(j))
    return tuple(np.array(sorted(b), dtype=int) for b in buckets)


def test_stride_dealing_matches_append_loop_oracle_on_300_label_vectors():
    rng = np.random.default_rng(23)
    for trial in range(300):
        k, classes = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        sizes = rng.integers(k, 3 * k + 1, size=classes)
        labels = rng.permutation(np.repeat(np.arange(classes), sizes))
        plan = stratified_kfold(labels, k, seed=trial)
        expect = _append_loop_kfold(labels, k, seed=trial)
        assert len(plan.test_indices) == k
        for got, want in zip(plan.test_indices, expect):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_empty_labels_give_k_empty_folds():
    plan = stratified_kfold(np.array([], dtype=int), 4, seed=0)
    assert plan.k == 4 and plan.n == 0
    assert [f.size for f in plan.test_indices] == [0, 0, 0, 0]
    assert all(f.dtype == np.dtype(int) for f in plan.test_indices)
