"""Recursive feature elimination ranked by a self-contained logistic regression.

The logistic model doubles as the "lr" benchmark baseline, so it is fitted
deterministically: a damped Newton (IRLS) solve of mean log-loss plus an L2
penalty on the weights only, with the step halved while the penalized loss
would rise (Hastie, Tibshirani & Friedman, *ESL* §4.4.1). RFE rounds start
from the previous round's optimum; every other fit starts from zero.
The loss, gradient and probabilities come from one helper shared with
:func:`logistic_loss_and_grad`, so a Newton step reuses the probabilities
its accepted trial computed.
Rankings use |weight| on internally standardized columns so magnitudes are
comparable across features.

:func:`select_target_k` returns its winning candidate's RFE selection without a
rerun; each candidate's rfe starts from all d columns, so shared rounds run once
per candidate. A fold's route to its selection lives in ``bench_harness.fit_fold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cv as _cv
from .data_ingest import Dataset
from .kmeans_core import PROBE_PARAMS, RowError, fit_classifier, predict_labels
from .seeding import derive_seed

PROB_FLOOR = 1e-12
L2 = 1e-4  # the ranker's and the lr baseline's penalty on the weights
TARGET_K_FOLDS = 3  # inner folds of the target-size search


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function: with e = exp(-|z|), 1/(1+e) for z >= 0
    and e/(1+e) otherwise, so only negative magnitudes are exponentiated."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogisticModel:
    """Fitted weights and bias, the Newton step count and the loss at the fit."""

    weights: np.ndarray
    bias: float
    iterations: int
    final_loss: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not (np.all(np.isfinite(w)) and math.isfinite(self.bias)):
            raise ValueError("non-finite parameters")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1 | x), clipped away from exactly 0 and 1; a row whose logit
        overflows float64 raises :class:`~riskmeans.kmeans_core.RowError`."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.asarray(X, dtype=float) @ self.weights + self.bias
        if not np.isfinite(z).all():
            row = np.flatnonzero(~np.isfinite(z))[0]
            raise RowError(row, "its logit overflows float64")
        return np.clip(_sigmoid(z), PROB_FLOOR, 1.0 - PROB_FLOOR)


def logistic_loss_and_grad(w: np.ndarray, b: float, X: np.ndarray,
                           y: np.ndarray, l2: float) -> tuple[float, np.ndarray, float]:
    """Mean log-loss plus (l2/2)·||w||², with its exact analytic gradient.

    The bias is unpenalized. Probabilities are clipped only inside the log,
    so the gradient stays the textbook (1/n)·Xᵀ(p−y) + l2·w form.
    """
    return _loss_grad_proba(w, b, X, y, l2)[:3]


def _loss_grad_proba(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
                     l2: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """:func:`logistic_loss_and_grad` plus the probabilities p it computed."""
    p = _sigmoid(X @ w + b)
    pc = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    loss = float(-np.mean(y * np.log(pc) + (1 - y) * np.log(1 - pc))
                 + 0.5 * l2 * float(w @ w))
    resid = (p - y) / X.shape[0]
    return loss, X.T @ resid + l2 * w, float(resid.sum()), p


NEWTON_TOL = 1e-10  # stop once every gradient entry is below this
NEWTON_MAX_STEPS = 50
MAX_HALVINGS = 40  # a step that still raises the loss after this many is rounding noise
LOSS_AT_ZERO = math.log(2.0)  # every probability 1/2: a start above it is no head start


def fit_logistic(X: np.ndarray, y: np.ndarray, start: np.ndarray | None = None) -> LogisticModel:
    """Damped Newton (IRLS): each step solves H·δ = g, where H is
    [X 1]ᵀ diag(p(1−p)/n) [X 1] plus L2 on the weight diagonal, and halves δ
    while the penalized loss would rise. ``iterations`` counts the steps taken.

    ``start`` holds d + 1 finite values, the weights then the bias, and
    defaults to zero. :func:`rfe` passes each round the previous round's
    optimum; every other fit starts from zero. A start whose penalized loss
    is above :data:`LOSS_AT_ZERO` is replaced by zero, since far-out weights
    saturate the probabilities and leave H singular. The stopping rule does
    not depend on the start, so every start reaches the same optimum within
    :data:`NEWTON_TOL`. ``y`` must hold both of the labels 0 and 1 and
    nothing else, and every cell of ``X`` must be finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be n x d with matching y")
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"X holds a non-finite cell at row {row}, column {col}")
    positive = y == 1
    if not (positive | (y == 0)).all():
        raise ValueError(f"training labels must be 0/1, got {float(y[~positive & (y != 0)][0]):g}")
    if positive.all() or not positive.any():
        raise ValueError("training labels contain a single class")
    n, d = X.shape
    warm = None
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (d + 1,):
            raise ValueError(f"start must hold d + 1 = {d + 1} values, got shape {start.shape}")
        if not np.isfinite(start).all():
            raise ValueError("start holds a non-finite value")
        with np.errstate(over="ignore", invalid="ignore"):
            warm = _loss_grad_proba(start[:d].copy(), float(start[d]), X, y, L2)
    if warm is not None and warm[0] <= LOSS_AT_ZERO:
        (w, b), (loss, gw, gb, p) = (start[:d].copy(), float(start[d])), warm
    else:
        w, b = np.zeros(d), 0.0
        loss, gw, gb, p = _loss_grad_proba(w, b, X, y, L2)
    A = np.column_stack([X, np.ones(n)])
    ridge = np.diag(np.append(np.full(d, L2), 0.0))
    steps = 0
    while steps < NEWTON_MAX_STEPS and np.abs(g := np.append(gw, gb)).max() >= NEWTON_TOL:
        delta = np.linalg.solve((A.T * (p * (1.0 - p) / n)) @ A + ridge, g)
        for t in 0.5 ** np.arange(MAX_HALVINGS):
            trial = w - t * delta[:d], b - float(t * delta[d])
            fit = _loss_grad_proba(*trial, X, y, L2)
            if fit[0] <= loss:
                break
        else:
            break
        (w, b), (loss, gw, gb, p) = trial, fit
        steps += 1
    return LogisticModel(weights=w, bias=b, iterations=steps, final_loss=loss)


@dataclass(frozen=True)
class RfeResult:
    """Surviving original column indices plus the per-round elimination log."""

    selected: tuple
    elimination_trace: tuple  # (round, dropped original index, ranking score)

    def __post_init__(self):
        sel = tuple(int(i) for i in self.selected)
        if len(set(sel)) != len(sel):
            raise ValueError("duplicate selected indices")
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "elimination_trace", tuple(self.elimination_trace))


def _standardize_columns(X: np.ndarray) -> np.ndarray:
    """Population-std column standardization; constant columns become zeros."""
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    out = np.zeros_like(X, dtype=float)
    nz = sigma != 0
    out[:, nz] = (X[:, nz] - mu[nz]) / sigma[nz]
    return out


def rfe(X: np.ndarray, y: np.ndarray, target_k: int, step: int = 1) -> RfeResult:
    """Drop the lowest-|weight| features one round at a time until target_k remain.

    Each round refits the logistic ranker on the standardized survivors,
    started from the previous round's optimum less the dropped weights (the
    first round starts from zero). Score ties drop the highest original
    column index first. ``selected`` is sorted ascending by original index.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    d = X.shape[1]
    if not 1 <= target_k <= d:
        raise ValueError(f"target_k={target_k} outside [1, {d}]")
    if step < 1:
        raise ValueError("step must be >= 1")
    surviving = list(range(d))
    trace: list[tuple[int, int, float]] = []
    round_no = 0
    start = None
    while len(surviving) > target_k:
        model = fit_logistic(_standardize_columns(X[:, surviving]), y, start)
        ranks = np.abs(model.weights)
        n_drop = min(step, len(surviving) - target_k)
        # order by (score asc, original index desc) so ties shed the highest index
        order = sorted(range(len(surviving)),
                       key=lambda i: (ranks[i], -surviving[i]))
        dropped = sorted(order[:n_drop], reverse=True)  # pop from the back safely
        for i in dropped:
            trace.append((round_no, surviving[i], float(ranks[i])))
            surviving.pop(i)
        start = np.append(np.delete(model.weights, dropped), model.bias)
        round_no += 1
    return RfeResult(selected=tuple(sorted(surviving)), elimination_trace=tuple(trace))


def default_candidates(d: int) -> list[int]:
    """Target-size grid used when no explicit count is configured."""
    raw = {d, math.ceil(3 * d / 4), math.ceil(d / 2), math.ceil(d / 4)}
    return sorted(k for k in raw if k >= 1)


def select_target_k(X: np.ndarray, y: np.ndarray, seed: int = 0, step: int = 1) -> RfeResult:
    """The rfe selection of the :func:`default_candidates` size with the best
    K-means-classifier accuracy over :data:`TARGET_K_FOLDS` inner folds.

    For every candidate: run rfe to that size with ``step``, then cross-validate
    a small fixed-k cluster classifier on the selected columns. Accuracy is
    pooled over folds (total correct / n) so ties are exact; ties break to the
    smaller candidate, whose RfeResult is returned as computed. A matrix with
    no columns raises ``ValueError``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[1] == 0:
        raise ValueError("no feature columns to select from")
    try:
        plan = _cv.stratified_kfold(y, TARGET_K_FOLDS, derive_seed(seed, "target_k:folds"))
    except ValueError as exc:  # a class with fewer members than the inner folds
        exc.add_note(f"target-size search ({TARGET_K_FOLDS} inner folds); a fixed target_k skips it")
        raise
    splits = ((plan.train_indices(f), plan.test_indices[f]) for f in range(plan.k))
    folds = [(X[tr], y[tr], X[te], y[te]) for tr, te in splits]  # sliced once, for every candidate

    scored: list[tuple[int, int, RfeResult]] = []  # (candidate, pooled correct, selection)
    for cand in default_candidates(X.shape[1]):
        result = rfe(X, y, target_k=cand, step=step)
        sel = result.selected
        params = replace(PROBE_PARAMS, seed=derive_seed(seed, f"target_k:{cand}"))
        correct = 0
        for X_tr, y_tr, X_te, y_te in folds:
            train = X_tr[:, sel]
            # lloyd_fit rejects 2 clusters on one distinct row, so such a
            # fold's probe has 1 cluster and labels every query alike
            one_row = not np.ptp(train, axis=0).any()
            clf = fit_classifier(Dataset.numeric(train, y_tr),
                                 replace(params, k=1) if one_row else params)
            correct += int(np.sum(predict_labels(clf, X_te[:, sel]) == y_te))
        scored.append((cand, correct, result))
    return min(scored, key=lambda s: (-s[1], s[0]))[2]
