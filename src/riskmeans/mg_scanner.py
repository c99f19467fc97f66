"""Multi-granularity sliding-window feature expansion.

Each window size w turns an L-dimensional input into ((L - w) // s + 1)
overlapping slices; every slice is pushed through m fitted per-window
estimators, each emitting c = 2 class probabilities (the scanner is always
binary, like the credit label). Output dimension per window size is
therefore window_count * m * c, and outputs for different window sizes stay
separate (keyed by w) so downstream stages can choose how to combine them.

Windowing is one strided view over the whole input matrix (the
multi-grained scanning of Zhou & Feng, "Deep Forest", IJCAI 2017), so each
estimator sees every window of one size in a single call. Each estimator is
a small K-means cluster classifier (:func:`~riskmeans.kmeans_core.fit_classifier`
with :data:`~riskmeans.kmeans_core.PROBE_PARAMS` and a derived seed) whose
score s on a window gives the pair (1 - s, s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data_ingest import Dataset
from .kmeans_core import (
    PROBE_PARAMS,
    ClusterClassifier,
    RowError,
    fit_classifier,
    predict_scores,
)
from .seeding import derive_seed

CLASSES = 2  # probabilities per window per estimator: (1 - score, score)


@dataclass(frozen=True)
class ScanConfig:
    """Geometry of the scan: input length, window sizes, stride and estimator
    count per window size."""

    input_dim: int
    windows: tuple
    stride: int = 1
    estimators: int = 2

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.windows:
            raise ValueError("at least one window size required")
        for i, w in enumerate(self.windows):
            if not 1 <= w <= self.input_dim:
                raise ValueError(f"window size {w} outside [1, {self.input_dim}]")
            if w in self.windows[:i]:
                raise ValueError(f"window size {w} repeated")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.estimators < 1:
            raise ValueError("estimators must be >= 1")

    def output_dim(self, w: int) -> int:
        return window_count(self.input_dim, w, self.stride) * self.estimators * CLASSES


def window_count(L: int, w: int, s: int) -> int:
    """Number of stride-s windows of width w over an L-vector: (L - w)//s + 1."""
    if w > L:
        raise ValueError(f"window {w} exceeds input length {L}")
    if w < 1 or s < 1:
        raise ValueError("window and stride must be >= 1")
    return (L - w) // s + 1


def scan(x: np.ndarray, w: int, s: int = 1) -> np.ndarray:
    """Stride-s windows of width w over the last axis: window i is
    x[..., i*s : i*s + w]. A vector gives (count, w); an (n, L) matrix gives
    (n, count, w). The result is a read-only view of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 1:
        raise ValueError("scan expects a vector or a matrix")
    window_count(x.shape[-1], w, s)
    return sliding_window_view(x, w, axis=-1)[..., ::s, :]


def fit_window_estimators(train: Dataset, config: ScanConfig, seed: int = 0) -> dict:
    """Fit config.estimators K-means cluster classifiers per window size:
    {w: [ClusterClassifier, ...]}.

    For each w, every training row is sliced into its windows and the slices
    pooled in row order (each inheriting the row label); the m classifiers
    differ only in their derived seeds.
    """
    X = np.asarray(train.features, dtype=float)
    if X.shape[1] != config.input_dim:
        raise ValueError(
            f"dataset dimension {X.shape[1]} != configured input_dim {config.input_dim}"
        )
    y = np.asarray(train.labels, dtype=int)
    fitted: dict[int, list[ClusterClassifier]] = {}
    for w in config.windows:
        pool = Dataset.numeric(scan(X, w, config.stride).reshape(-1, w),
                               np.repeat(y, window_count(config.input_dim, w, config.stride)))
        fitted[w] = [
            fit_classifier(pool, replace(PROBE_PARAMS, seed=derive_seed(seed, f"scan:w{w}:e{e}")))
            for e in range(config.estimators)
        ]
    return fitted


def transform_matrix(X: np.ndarray, config: ScanConfig, fitted: dict) -> dict:
    """Expand each row of an (n, L) matrix: {w: (n, window_count*m*c) matrix}.

    Layout per w: window index outer, classifier next, class innermost, so
    the flat column index is win*m*c + est*c + cls. Classifier e's score s
    on a window gives the pair (1 - s, s); each classifier scores all n *
    window_count windows of one size in a single call. A window that fails
    to score raises :class:`~riskmeans.kmeans_core.RowError` naming its
    input row and window index.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != config.input_dim:
        raise ValueError(f"expected a matrix with {config.input_dim} columns, got {X.shape}")
    for w in config.windows:
        if w not in fitted or len(fitted[w]) != config.estimators:
            raise ValueError(f"missing fitted estimators for window size {w}")
    n, m, c = X.shape[0], config.estimators, CLASSES
    # outputs first, temporaries after: keeps the peak heap small
    out = {w: np.empty((n, config.output_dim(w))) for w in config.windows}
    for w in config.windows:
        windows = scan(X, w, config.stride).reshape(-1, w)
        probs = out[w].reshape(windows.shape[0], m, c)
        for e, clf in enumerate(fitted[w]):
            try:
                s = predict_scores(clf, windows)
            except RowError as exc:  # name the input row and its window, not the flat window
                row, win = divmod(int(exc.row), window_count(config.input_dim, w, config.stride))
                raise RowError(f"{row}, window {win}", exc.reason) from None
            np.subtract(1.0, s, out=probs[:, e, 0])
            probs[:, e, 1] = s
    return out


def feature_names(config: ScanConfig, w: int) -> list[str]:
    """Column names for one window size's output: w, window index, estimator, class."""
    count = window_count(config.input_dim, w, config.stride)
    return [
        f"w{w}:win{i}:e{e}:c{k}"
        for i in range(count)
        for e in range(config.estimators)
        for k in range(CLASSES)
    ]


def dump_features(matrix: np.ndarray, config: ScanConfig, w: int, path) -> None:
    """Write one window size's transformed rows as comma-separated text."""
    names = feature_names(config, w)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[1] != len(names):
        raise ValueError(f"matrix has {matrix.shape[1]} columns, expected {len(names)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
