"""Lloyd's K-means with k-means++ seeding, silhouette K selection, and a
cluster-posterior classifier.

Clustering alone yields no class predictions, so the classifier layer is an
explicit construction documented here rather than hidden plumbing:

* each cluster gets a Laplace-smoothed positive-class posterior
  ``(positives + 1) / (members + 2)`` from the training assignment;
* a query point scores ``sum_j w_j(x) * posterior_j`` where the weights are a
  softmax over ``-d_j^2 / (2 sigma^2)`` with ``d_j`` the distance to centroid
  ``j`` and ``sigma`` the mean train-point-to-centroid distance.

Scores are therefore continuous in [0, 1], which is what ROC/AUC and the
Brier score need; hard labels are scores at or above
:data:`riskmeans.metrics.DECISION_THRESHOLD` (0.5).

Determinism contracts: ties in assignment break to the lowest cluster index,
restart seeds derive from the model seed, and all means are reduced in row
order (Lloyd's update sums each column with one ``np.bincount``). Every
squared distance adds its d column terms left to right in column order, and
a score normalises and mixes its k cluster terms in cluster order, so a
row's distances, label and score depend on that row alone: not on how many
rows share the call, nor on the memory order of either matrix.
:func:`choose_k` builds one pairwise distance matrix per sweep, in 512-row
blocks, and every k's silhouette sums each cluster's columns of those same
row blocks, so it equals a silhouette computed from the points alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data_ingest import Dataset
from .metrics import DECISION_THRESHOLD
from .seeding import derive_seed

INIT_KMEANSPP = "kmeanspp"
INIT_UNIFORM = "uniform"

# k·n from which _sq_dists adds its column terms one (k, n) slab at a time
_COLUMN_LOOP_MIN = 2**16
# rows per block of the silhouette's distance matrix
_SILHOUETTE_ROWS = 512


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iters: int = 300
    tol: float = 1e-6
    restarts: int = 10
    seed: int = 0
    init: str = INIT_KMEANSPP

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.init not in (INIT_KMEANSPP, INIT_UNIFORM):
            raise ValueError(f"unknown init {self.init!r}")


# The target-size search's and the window estimators' model; seed it with ``replace``.
PROBE_PARAMS = KMeansParams(k=2, restarts=2, max_iters=100)


@dataclass(frozen=True)
class KMeansModel:
    """Fitted centroids plus the fit diagnostics needed to audit the run."""

    centroids: np.ndarray
    wcss: float
    iterations_run: int
    converged: bool
    wcss_trace: tuple = field(default=())

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "centroids", c)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, points x centers, as a column-major view.

    Entry (i, j) adds ``(p_i0 - c_j0)**2 + (p_i1 - c_j1)**2 + ...`` left to
    right for any shapes and memory orders; a plain sum over the column axis
    would turn pairwise whenever that axis became the inner loop. Two
    strategies add the terms in that one order, picked by k·n. Below
    ``_COLUMN_LOOP_MIN`` all the terms are squared in one (d, k, n) block
    (faster for Lloyd's and the scorer's few centres); from there on they are
    added one at a time into a (k, n) buffer (faster for the silhouette's big
    blocks, and with no d-fold temporary).
    """
    if points.ndim != 2 or points.shape[1] != centers.shape[1]:
        raise ValueError(f"expected a matrix with {centers.shape[1]} columns, "
                         f"got shape {points.shape}")
    if points.shape[1] == 0:
        return np.zeros((points.shape[0], centers.shape[0]))
    cols = np.ascontiguousarray(points.T)  # (d, n): one contiguous row per column
    ct = centers.T[:, :, None]  # (d, k, 1)
    if centers.shape[0] * points.shape[0] < _COLUMN_LOOP_MIN:
        sq = np.subtract(cols[:, None, :], ct, order="C")  # (d, k, n)
        out = np.square(sq, out=sq)[0]
        for term in sq[1:]:
            out += term
    else:
        out = np.square(np.subtract(cols[0], ct[0]))  # (k, n)
        term = np.empty_like(out)
        for col, c in zip(cols[1:], ct[1:]):
            out += np.square(np.subtract(col, c, out=term), out=term)
    return out.T


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centre labels and squared distances of a :func:`_sq_dists`
    matrix, from one pass over its columns; ties go to the lowest index."""
    labels = np.zeros(d2.shape[0], dtype=np.intp)
    best = d2[:, 0].copy()
    for j in range(1, d2.shape[1]):
        np.putmask(labels, d2[:, j] < best, j)
        np.minimum(best, d2[:, j], out=best)
    return labels, best


def kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted center selection: each next center is drawn with probability
    proportional to its squared distance from the nearest existing center.

    The nearest squared distances are a running minimum that takes in only
    the newest center's column; ``min`` is exact, so the draws equal those
    from a fresh minimum over all chosen centers.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    centers = np.empty((k, points.shape[1]), dtype=float)
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        else:
            # all rows coincide with existing centers (duplicate-heavy input)
            centers[j] = points[rng.integers(n)]
        if j < k - 1:
            np.minimum(d2, _sq_dists(points, centers[j:j + 1])[:, 0], out=d2)
    return centers


def uniform_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain uniform draw of k distinct rows as initial centers."""
    points = np.asarray(points, dtype=float)
    if k > points.shape[0]:
        raise ValueError(f"k={k} exceeds n={points.shape[0]}")
    idx = rng.choice(points.shape[0], size=k, replace=False)
    return points[idx].astype(float)


def _lloyd_single(points: np.ndarray, params: KMeansParams, seed: int) -> KMeansModel:
    rng = np.random.default_rng(seed)
    init = kmeanspp_init if params.init == INIT_KMEANSPP else uniform_init
    centers = init(points, params.k, rng)

    trace: list[float] = []
    iterations = 0
    converged = False
    for _ in range(params.max_iters):
        d2 = _sq_dists(points, centers)
        labels, nearest = _nearest(d2)
        trace.append(float(nearest.sum()))
        iterations += 1

        counts = np.bincount(labels, minlength=params.k)
        new_centers = np.empty((params.k, points.shape[1]))
        for c, col in enumerate(points.T):
            new_centers[:, c] = np.bincount(labels, weights=col, minlength=params.k)
        new_centers /= np.maximum(counts, 1)[:, None]
        if counts.min() == 0:
            for j in np.flatnonzero(counts == 0):
                # empty-cluster repair: reseed at the point farthest from the
                # stale centroid; keeps k constant and is deterministic
                new_centers[j] = points[np.argmax(d2[:, j])]

        shift = np.max(
            np.linalg.norm(new_centers - centers, axis=1)
            / (1.0 + np.linalg.norm(centers, axis=1))
        )
        centers = new_centers
        if shift < params.tol:
            converged = True
            break

    wcss = float(_nearest(_sq_dists(points, centers))[1].sum())
    trace.append(wcss)
    return KMeansModel(
        centroids=centers,
        wcss=wcss,
        iterations_run=iterations,
        converged=converged,
        wcss_trace=tuple(trace),
    )


def lloyd_fit(points: np.ndarray, params: KMeansParams) -> KMeansModel:
    """Run Lloyd's algorithm ``params.restarts`` times and keep the lowest-WCSS fit.

    Restart r uses the derived seed ``(params.seed, "restart:r")``, so single
    restarts can be reproduced in isolation.
    """
    points = np.asfortranarray(points, dtype=float)  # contiguous columns
    if points.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite input")
    if points.shape[0] < params.k:
        raise ValueError(f"n={points.shape[0]} < k={params.k}")
    best: KMeansModel | None = None
    for r in range(params.restarts):
        model = _lloyd_single(points, params, derive_seed(params.seed, f"restart:{r}"))
        if best is None or model.wcss < best.wcss:
            best = model
    return best


def assign(model: KMeansModel, x: np.ndarray) -> int:
    """Index of the nearest centroid; exact ties go to the lowest index."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"expected a vector of length {model.d}, got shape {x.shape}")
    return int(assign_many(model, x[None, :])[0])


def assign_many(model: KMeansModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return _nearest(_sq_dists(X, model.centroids))[0]


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, built in the silhouette's row blocks."""
    n = points.shape[0]
    out = np.empty((n, n), order="F")
    for start in range(0, n, _SILHOUETTE_ROWS):
        stop = min(start + _SILHOUETTE_ROWS, n)
        np.sqrt(_sq_dists(points[start:stop], points), out=out[start:stop])
    return out


def silhouette_score(points: np.ndarray, assignment: np.ndarray, *,
                     distances: np.ndarray | None = None) -> float:
    """Mean of (b - a) / max(a, b) over points.

    a is the mean distance to the point's own cluster (excluding itself); b is
    the smallest mean distance to any other cluster. Singleton-cluster points
    contribute 0. ``distances``, when given, is the (n, n) Euclidean distance
    matrix of ``points``, read instead of computed; built as :func:`choose_k`
    builds it once per sweep, it gives the same score to the bit.
    """
    points = np.asarray(points, dtype=float)
    assignment = np.asarray(assignment)
    n = points.shape[0]
    if assignment.shape != (n,):
        raise ValueError(f"assignment of shape {assignment.shape} does not match "
                         f"{n} points")
    if distances is not None:
        distances = np.asarray(distances, dtype=float)
        if distances.shape != (n, n):
            raise ValueError(f"distances of shape {distances.shape} do not match "
                             f"{n} points")
    if n < 3:
        raise ValueError("silhouette needs at least 3 points")
    clusters = np.unique(assignment)
    if clusters.size < 2:
        raise ValueError("silhouette undefined for a single cluster")

    own = np.searchsorted(clusters, assignment)  # cluster position per point
    sizes = np.bincount(own)
    scores = np.zeros(n)
    for start in range(0, n, _SILHOUETTE_ROWS):
        stop = min(start + _SILHOUETTE_ROWS, n)
        if distances is None:
            block = np.sqrt(_sq_dists(points[start:stop], points))  # (rows, n)
        else:
            block = distances[start:stop]
        sums = np.stack([block[:, own == c].sum(axis=1) for c in range(sizes.size)], axis=1)
        rows, mine = np.arange(stop - start), own[start:stop]
        a = sums[rows, mine] / np.maximum(sizes[mine] - 1, 1)
        means = sums / sizes
        means[rows, mine] = np.inf  # b is over the other clusters only
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        ok = (sizes[mine] > 1) & (denom > 0)  # singletons and a = b = 0 give 0
        scores[start:stop][ok] = (b[ok] - a[ok]) / denom[ok]
    return float(scores.mean())


def choose_k(points: np.ndarray, k_range,
             params: KMeansParams) -> tuple[int, list[tuple[int, float]], KMeansModel]:
    """Fit every k in the inclusive range and pick the silhouette argmax.

    Ties break to the smallest k. The pairwise distance matrix is built once
    and shared by every k's silhouette. Returns (chosen k, per-k silhouette
    table, the chosen k's fitted model), so the winner need not be fitted
    again.
    """
    ks = sorted(k_range)
    if not ks:
        raise ValueError("empty k range")
    points = np.asfortranarray(points, dtype=float)  # one copy for every lloyd_fit
    n = points.shape[0]
    if ks[0] < 2 or ks[-1] > n - 1:
        bad = ks[0] if ks[0] < 2 else ks[-1]
        raise ValueError(f"k={bad} outside the valid range [2, {n - 1}]")
    table: list[tuple[int, float]] = []
    best_k, best_score, best_model = None, -np.inf, None
    distances = None  # built once the first fit has validated the points
    for k in ks:
        model = lloyd_fit(points, replace(params, k=k))
        if distances is None:
            distances = _distance_matrix(points)
        score = silhouette_score(points, assign_many(model, points), distances=distances)
        table.append((k, score))
        if score > best_score:
            best_k, best_score, best_model = k, score, model
    return best_k, table, best_model


@dataclass(frozen=True)
class ClusterClassifier:
    """K-means model plus per-cluster class posteriors and the score bandwidth."""

    model: KMeansModel
    posteriors: np.ndarray
    bandwidth: float

    def __post_init__(self):
        p = np.asarray(self.posteriors, dtype=float)
        if p.shape != (self.model.k,):
            raise ValueError("one posterior per cluster required")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("posteriors must lie in [0, 1]")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        p.setflags(write=False)
        object.__setattr__(self, "posteriors", p)


def fit_classifier(train: Dataset, params: KMeansParams,
                   model: KMeansModel | None = None) -> ClusterClassifier:
    """Cluster the training features, then attach smoothed class posteriors.

    Cluster j's posterior is (positives_j + 1) / (members_j + 2); the score
    bandwidth is the mean distance of training points to their centroids (1.0
    if that collapses to zero). A ``model`` already fitted on these features
    (such as :func:`choose_k`'s winner) is used as is instead of fitting one
    with ``params``.
    """
    X = np.asarray(train.features, dtype=float)
    y = np.asarray(train.labels)
    if np.unique(y).size < 2:
        raise ValueError("training set must contain both classes")
    if model is None:
        model = lloyd_fit(X, params)
    labels, nearest = _nearest(_sq_dists(X, model.centroids))
    posteriors = np.empty(model.k)
    for j in range(model.k):
        members = labels == j
        posteriors[j] = (int(y[members].sum()) + 1) / (int(members.sum()) + 2)
    sigma = float(np.sqrt(nearest).mean())
    return ClusterClassifier(model=model, posteriors=posteriors,
                             bandwidth=sigma if sigma > 0 else 1.0)


def predict_score(clf: ClusterClassifier, x: np.ndarray) -> float:
    """Posterior-weighted soft score in [0, 1] for one point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (clf.model.d,):
        raise ValueError(f"expected a vector of length {clf.model.d}, got shape {x.shape}")
    return float(predict_scores(clf, x[None, :])[0])


def predict_scores(clf: ClusterClassifier, X: np.ndarray) -> np.ndarray:
    """Vectorized :func:`predict_score`: softmax cluster weights times posteriors.

    The weights are normalised and mixed by adding the k clusters' terms in
    order, so each row's score depends on that row alone.
    """
    X = np.asarray(X, dtype=float)
    logits = -_sq_dists(X, clf.model.centroids).T / (2.0 * clf.bandwidth**2)  # (k, n)
    logits -= logits.max(axis=0)
    w = np.exp(logits)
    total = w[0].copy()
    for row in w[1:]:
        total += row
    w /= total
    scores = w[0] * clf.posteriors[0]
    for row, p in zip(w[1:], clf.posteriors[1:]):
        scores += row * p
    return scores


def predict_labels(clf: ClusterClassifier, X: np.ndarray) -> np.ndarray:
    """Hard 0/1 labels: score >= :data:`~riskmeans.metrics.DECISION_THRESHOLD`."""
    return (predict_scores(clf, X) >= DECISION_THRESHOLD).astype(int)


def classifier_to_json(clf: ClusterClassifier, seed: int | None = None,
                       config_hash: str = "") -> str:
    """Serialize a fitted classifier; floats keep full precision and round-trip."""
    payload = {
        "k": clf.model.k,
        "d": clf.model.d,
        "centroids": [[float(v) for v in row] for row in clf.model.centroids],
        "posteriors": [float(v) for v in clf.posteriors],
        "bandwidth": clf.bandwidth,
        "wcss": clf.model.wcss,
        "iterations_run": clf.model.iterations_run,
        "converged": clf.model.converged,
        "seed": seed,
        "config_hash": config_hash,
    }
    return json.dumps(payload, indent=2)


def classifier_from_json(text: str) -> ClusterClassifier:
    raw = json.loads(text)
    model = KMeansModel(
        centroids=np.array(raw["centroids"], dtype=float),
        wcss=raw["wcss"],
        iterations_run=raw["iterations_run"],
        converged=raw["converged"],
    )
    return ClusterClassifier(
        model=model,
        posteriors=np.array(raw["posteriors"], dtype=float),
        bandwidth=raw["bandwidth"],
    )
