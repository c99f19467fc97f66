"""Binary classification metrics: confusion-matrix ratios, ROC/AUC, Brier.

Two independent AUC routes are exposed on purpose: :func:`auc` integrates the
ROC curve with the trapezoid rule, while :func:`auc_pair_count` enumerates
every positive/negative pair. They must agree to float precision; the test
suite cross-checks one against the other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

DECISION_THRESHOLD = 0.5  # a score at or above it is a predicted positive


@dataclass(frozen=True)
class ConfusionCounts:
    """Tallies of true/false positives/negatives, with 1 the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(labels, predicted) -> ConfusionCounts:
    """Count TP/TN/FP/FN for 0/1 label and prediction vectors."""
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    if labels.shape != predicted.shape:
        raise ValueError(
            f"length mismatch: {labels.shape[0]} labels vs {predicted.shape[0]} predictions"
        )
    if labels.size == 0:
        raise ValueError("empty label vector")
    for name, v in (("labels", labels), ("predictions", predicted)):
        if not np.isin(v, (0, 1)).all():
            raise ValueError(f"{name} must be 0/1")
    tp = int(np.sum((labels == 1) & (predicted == 1)))
    tn = int(np.sum((labels == 0) & (predicted == 0)))
    fp = int(np.sum((labels == 0) & (predicted == 1)))
    fn = int(np.sum((labels == 1) & (predicted == 0)))
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _check_total(cc: ConfusionCounts) -> None:
    if cc.total <= 0:
        raise ValueError("metrics undefined for an empty confusion matrix")


def accuracy(cc: ConfusionCounts) -> float:
    _check_total(cc)
    return (cc.tp + cc.tn) / cc.total


def precision(cc: ConfusionCounts) -> float:
    # 0/0 convention: no predicted positives -> 0.
    _check_total(cc)
    denom = cc.tp + cc.fp
    return cc.tp / denom if denom else 0.0


def recall(cc: ConfusionCounts) -> float:
    # 0/0 convention: no actual positives -> 0.
    _check_total(cc)
    denom = cc.tp + cc.fn
    return cc.tp / denom if denom else 0.0


def f1(cc: ConfusionCounts) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    _check_total(cc)
    p = precision(cc)
    r = recall(cc)
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def tpr(cc: ConfusionCounts) -> float:
    """True positive rate; identical to recall by definition."""
    return recall(cc)


@dataclass(frozen=True)
class RocCurve:
    """Ordered (FPR, TPR) points from (0,0) to (1,1) with matching thresholds.

    ``points`` has shape (m, 2); ``thresholds`` has length m, descending, with
    ``+inf`` for the initial (0,0) point (no sample scores above it).
    """

    points: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        thr = np.asarray(self.thresholds, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] != thr.shape[0]:
            raise ValueError("malformed ROC curve arrays")
        if np.any(np.diff(pts[:, 0]) < 0) or np.any(np.diff(pts[:, 1]) < 0):
            raise ValueError("ROC curve must be monotone in both coordinates")
        if not (pts[0] == [0.0, 0.0]).all() or not (pts[-1] == [1.0, 1.0]).all():
            raise ValueError("ROC curve must run from (0,0) to (1,1)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "thresholds", thr)

    @property
    def fpr(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def tpr(self) -> np.ndarray:
        return self.points[:, 1]


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over distinct scores, descending; tied scores move as a group.

    Grouping ties produces the diagonal segments that make trapezoidal AUC
    consistent with the pair-count definition.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC undefined: both classes must be present")

    order = np.argsort(-scores, kind="mergesort")
    s_sorted = scores[order]
    y_sorted = labels[order]
    cum_tp = np.cumsum(y_sorted == 1)
    cum_fp = np.cumsum(y_sorted == 0)
    # last index of each tie group
    group_end = np.flatnonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])

    fprs = np.r_[0.0, cum_fp[group_end] / n_neg]
    tprs = np.r_[0.0, cum_tp[group_end] / n_pos]
    return RocCurve(points=np.column_stack([fprs, tprs]),
                    thresholds=np.r_[np.inf, s_sorted[group_end]])


def auc(curve: RocCurve) -> float:
    """Area under the ROC curve by trapezoidal integration."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def auc_pair_count(scores, labels) -> float:
    """AUC as P(score of a positive > score of a negative) + half the tie mass.

    Enumerates all positive/negative pairs; serves as the independent oracle
    for the trapezoidal route.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC undefined: both classes must be present")
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(wins / (pos.size * neg.size))


@dataclass(frozen=True)
class BrierInput:
    """Predicted probability matrix f (n x r) against one-hot outcomes o (n x r)."""

    f: np.ndarray
    o: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        o = np.asarray(self.o, dtype=float)
        if f.ndim != 2 or f.shape != o.shape:
            raise ValueError("f and o must be matrices of identical shape")
        if f.shape[0] == 0:
            raise ValueError("empty Brier input")
        if np.any(np.abs(f.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("each probability row must sum to 1 (tol 1e-9)")
        if not np.all((o == 0.0) | (o == 1.0)) or np.any(o.sum(axis=1) != 1.0):
            raise ValueError("outcome rows must be one-hot")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "o", o)

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def r(self) -> int:
        return self.f.shape[1]


def brier(inp: BrierInput) -> float:
    """Mean over samples of the summed squared probability error across classes."""
    return float(np.sum((inp.f - inp.o) ** 2) / inp.n)


def brier_binary(p, y) -> float:
    """Conventional binary Brier score: mean of (p - y)^2 over samples.

    The two-class form of :func:`brier` equals exactly twice this value.
    """
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("p and y must be equal-length, non-empty vectors")
    return float(np.mean((p - y) ** 2))


@dataclass(frozen=True)
class MetricBundle:
    """The reporting bundle, in benchmark-table column order."""

    auc: float
    acc: float
    f1: float
    brier: float
    tpr: float

    def as_dict(self) -> dict:
        return asdict(self)


def compute_bundle(labels, scores) -> MetricBundle:
    """Evaluate continuous scores against 0/1 labels at :data:`DECISION_THRESHOLD`.

    Brier is the binary form, matching the magnitude convention of the
    published reference tables. Every score must be finite; finite scores
    outside [0, 1] are clipped for the Brier score only.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        i = np.flatnonzero(~np.isfinite(scores))[0]
        raise ValueError(f"score {i} is not finite: {scores.flat[i]}")
    predicted = (scores >= DECISION_THRESHOLD).astype(int)
    cc = confusion(labels, predicted)
    return MetricBundle(
        auc=auc(roc_curve(scores, labels)),
        acc=accuracy(cc),
        f1=f1(cc),
        brier=brier_binary(np.clip(scores, 0.0, 1.0), labels),
        tpr=tpr(cc),
    )
