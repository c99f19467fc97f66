"""Stratified k-fold planning.

Folds are index plans, not data copies: downstream code slices the dataset so
that preprocessing statistics are always refit on the train side only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FoldPlan:
    """Immutable record of one k-fold split over n indices."""

    k: int
    test_indices: tuple

    def __post_init__(self):
        folds = tuple(np.asarray(f, dtype=int) for f in self.test_indices)
        for f in folds:
            f.setflags(write=False)
        object.__setattr__(self, "test_indices", folds)

    @property
    def n(self) -> int:
        return sum(f.size for f in self.test_indices)

    def train_indices(self, fold: int) -> np.ndarray:
        """All indices not in the given test fold, ascending."""
        keep = np.ones(self.n, dtype=bool)
        keep[self.test_indices[fold]] = False
        out = np.flatnonzero(keep)
        out.setflags(write=False)
        return out


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> FoldPlan:
    """Split indices into k folds preserving the class ratio.

    Within each class (classes processed in sorted order) the indices are
    shuffled with the seeded generator and dealt round-robin: fold f takes
    the shuffled indices f, f + k, f + 2k, ... of the class. Per-fold class
    counts therefore differ by at most one, and 700/300 with k=5 gives
    exactly 140/60 in every fold. Each test fold is returned sorted ascending.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D array")
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds = [np.empty(0, dtype=int)] * k
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise ValueError(
                f"class {cls} has {idx.size} members, fewer than k={k} folds"
            )
        idx = idx[rng.permutation(idx.size)]
        folds = [np.concatenate((fold, idx[f::k])) for f, fold in enumerate(folds)]
    return FoldPlan(k=k, test_indices=tuple(np.sort(f) for f in folds))
