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
:func:`choose_k` builds one pairwise distance matrix per sweep, and every
k's silhouette sums each cluster's columns of its 512-row blocks, so it
equals a silhouette computed from the points alone.

One engine, :func:`_lloyd_runs`, fits every Lloyd run: all restarts of a
:func:`lloyd_fit`, and all restarts of every k of a :func:`choose_k` sweep,
advance in lockstep, each bit for bit the run it would be on its own.
Below ``_TALL_N`` points its update bincounts all runs at once over tiled
point columns, from there on one run at a time. Every point-centre squared
distance comes from one kernel, :func:`_sq_dists`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data_ingest import Dataset
from .metrics import DECISION_THRESHOLD
from .seeding import derive_seed

INIT_KMEANSPP = "kmeanspp"
INIT_UNIFORM = "uniform"

# rows per block of the silhouette
_SILHOUETTE_ROWS = 512
# rows per block of choose_k's distance matrix build
_DISTANCE_ROWS = 128
# centres from which _sq_dists copies each centre column across a workspace
# before subtracting
_COPY_SLAB_MIN = 16
# points from which _lloyd_runs bincounts each run on its own
_TALL_N = 8192


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


def _sq_dists(points: np.ndarray, centers: np.ndarray, out: np.ndarray | None = None,
              work: _Slabs | None = None) -> np.ndarray:
    """Squared Euclidean distances as an (m, n) matrix, one row per centre,
    written into ``out`` when given.

    Entry (j, i) adds ``(p_i0 - c_j0)**2 + (p_i1 - c_j1)**2 + ...`` left to
    right for any shapes and memory orders (a plain sum would turn pairwise
    whenever the column axis became the inner loop). Below ``_COPY_SLAB_MIN``
    centres all the terms are squared in one (d, m, n) block; from there on
    each centre column is copied across an (m, n) workspace before the point
    column is subtracted, as numpy subtracts a broadcast (m, 1) column slowly.
    ``work``, a :class:`_Slabs` over ``points``, lends its cached columns and
    workspace and skips the shape check."""
    if work is None:
        if points.ndim != 2 or points.shape[1] != centers.shape[1]:
            raise ValueError(f"expected a matrix with {centers.shape[1]} columns, "
                             f"got shape {points.shape}")
        cols = np.ascontiguousarray(points.T)  # (d, n): one contiguous row per column
    else:
        cols = work.cols
    (m, d), n = centers.shape, cols.shape[1]
    if d and m < _COPY_SLAB_MIN:
        sq = np.subtract(cols[:, None, :], centers.T[:, :, None], order="C")  # (d, m, n)
        total = np.square(sq, out=sq)[0]
        for term in sq[1:]:
            total += term
        if out is None:
            return total
        np.copyto(out, total)  # frees the block
        return out
    if out is None:
        out = np.empty((m, n))
    if d == 0:
        out.fill(0.0)
        return out
    term = np.empty((m, n)) if work is None else work.term[:m]
    np.copyto(out, centers[:, :1])
    np.square(np.subtract(cols[0], out, out=out), out=out)
    for c in range(1, d):
        np.copyto(term, centers[:, c:c + 1])
        out += np.square(np.subtract(cols[c], term, out=term), out=term)
    return out


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centre labels and squared distances of a :func:`_sq_dists`
    matrix, from one pass over its rows; ties go to the lowest index."""
    labels = np.zeros(d2.shape[1], dtype=np.intp)
    best = d2[0].copy()
    for j in range(1, d2.shape[0]):
        np.putmask(labels, d2[j] < best, j)
        np.minimum(best, d2[j], out=best)
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
    return _Slabs(points, 1).kmeanspp(np.array([k]), [rng])[0]


def uniform_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain uniform draw of k distinct rows as initial centers."""
    points = np.asarray(points, dtype=float)
    if k > points.shape[0]:
        raise ValueError(f"k={k} exceeds n={points.shape[0]}")
    idx = rng.choice(points.shape[0], size=k, replace=False)
    return points[idx].astype(float)


class _Slabs:
    """(rows, n) workspaces over one point matrix, allocated once, which
    :func:`_sq_dists` fills for a slab of centres at a time.

    A centre stack is an (R, K, d) array that holds run r's centres in
    ``[r, :k_r]`` and zeros past them, with the runs sorted by k descending,
    so slab j (centre j of every run with k > j) is ``[:m_j, j]`` for a
    prefix of m_j runs.
    """

    def __init__(self, points: np.ndarray, runs: int):
        self.points = points
        self.cols = np.ascontiguousarray(points.T)  # (d, n): one contiguous row per column
        self.best, self.slab, self.term = np.empty((3, runs, points.shape[0]))

    def kmeanspp(self, ks: np.ndarray, rngs: list) -> np.ndarray:
        """k-means++ centres of runs sorted by k descending, each drawn from
        its own generator as :func:`kmeanspp_init` would; the running-minimum
        update for centre j is computed for all runs at once."""
        n = self.points.shape[0]
        stack = np.zeros((ks.size, ks[0], self.points.shape[1]))
        for r, rng in enumerate(rngs):
            stack[r, 0] = self.points[rng.integers(n)]
        m = int(np.count_nonzero(ks > 1))
        d2 = _sq_dists(self.points, stack[:m, 0], self.best[:m], self)
        for j in range(1, ks[0]):
            m = int(np.count_nonzero(ks > j))
            totals = d2[:m].sum(axis=1)
            for r in range(m):
                if totals[r] > 0:
                    stack[r, j] = self.points[rngs[r].choice(n, p=d2[r] / totals[r])]
                else:
                    # all rows coincide with existing centers (duplicate-heavy input)
                    stack[r, j] = self.points[rngs[r].integers(n)]
            m = int(np.count_nonzero(ks > j + 1))
            if m:
                np.minimum(d2[:m], _sq_dists(self.points, stack[:m, j], self.slab[:m], self),
                           out=d2[:m])
        return stack

    def nearest(self, stack: np.ndarray, ks: np.ndarray,
                labels: np.ndarray, below: np.ndarray) -> np.ndarray:
        """Label every point of every run with its nearest centre (ties to the
        lowest index, by the strict-< pass of :func:`_nearest`) and return the
        (R, n) squared distances to it."""
        best = _sq_dists(self.points, stack[:, 0], self.best[:ks.size], self)
        labels.fill(0)
        for j in range(1, ks[0]):
            m = int(np.count_nonzero(ks > j))
            d2 = _sq_dists(self.points, stack[:m, j], self.slab[:m], self)
            np.putmask(labels[:m], np.less(d2, best[:m], out=below[:m]), j)
            np.minimum(best[:m], d2, out=best[:m])
        return best


def _lloyd_runs(points: np.ndarray, ks, seeds, params: KMeansParams) -> list[KMeansModel]:
    """One Lloyd fit per (k, seed) pair on the same points, all in lockstep.

    Run i starts from ``default_rng(seeds[i])`` and ``params.init`` with
    ``ks[i]`` centres; ``params.k`` is not read. The runs advance together:
    one strict-< pass over the centre stack's slabs labels every run, and one
    weighted ``np.bincount`` per column over the labels offset to stack rows
    updates every run's centroids, each bin adding its weights in row order
    (from ``_TALL_N`` points, where tiled weights cost more than they save,
    each run is bincounted on its own). A run leaves the stack when it
    converges or reaches ``params.max_iters``. Each returned model, in the
    order of ``ks``, is bit for bit the fit of that run on its own.
    """
    n, d = points.shape
    ids = np.argsort(-np.asarray(ks), kind="stable")  # input position of each stack row
    ks = np.asarray(ks)[ids]
    rngs = [np.random.default_rng(seeds[i]) for i in ids]
    work = _Slabs(points, ks.size)
    if params.init == INIT_KMEANSPP:
        stack = work.kmeanspp(ks, rngs)
    else:
        stack = np.zeros((ks.size, ks[0], d))
        for r, rng in enumerate(rngs):
            stack[r, :ks[r]] = uniform_init(points, int(ks[r]), rng)

    tall = n >= _TALL_N
    weights = None if tall else np.empty((ks.size, n))  # one point column per run
    labels = np.empty((ks.size, n), dtype=np.intp)
    below = np.empty((ks.size, n), dtype=bool)
    traces: list[list[float]] = [[] for _ in ks]
    models: list[KMeansModel | None] = [None] * ks.size
    for iteration in range(1, params.max_iters + 1):
        R, K = ks.size, int(ks[0])
        nearest = work.nearest(stack, ks, labels[:R], below[:R])
        for i, total in zip(ids, nearest.sum(axis=1).tolist()):
            traces[i].append(total)

        sums = np.empty((R, K, d))
        if tall:
            counts = np.empty((R, K), dtype=np.intp)
            for r in range(R):
                counts[r] = np.bincount(labels[r], minlength=K)
                for c, col in enumerate(work.cols):
                    sums[r, :, c] = np.bincount(labels[r], weights=col, minlength=K)
        else:
            flat = np.add(labels[:R], (np.arange(R) * K)[:, None], out=labels[:R]).ravel()
            counts = np.bincount(flat, minlength=R * K).reshape(R, K)
            for c, col in enumerate(work.cols):
                np.copyto(weights[:R], col)
                sums[:, :, c] = np.bincount(flat, weights=weights[:R].ravel(),
                                            minlength=R * K).reshape(R, K)
        new = sums / np.maximum(counts, 1)[:, :, None]
        for r, j in zip(*np.nonzero((counts == 0) & (np.arange(K) < ks[:, None]))):
            # empty-cluster repair: reseed at the point farthest from the
            # stale centroid; keeps k constant and is deterministic
            new[r, j] = points[np.argmax(_sq_dists(points, stack[r, j:j + 1], work=work)[0])]

        shift = (np.linalg.norm(new - stack, axis=2)
                 / (1.0 + np.linalg.norm(stack, axis=2))).max(axis=1)
        converged = shift < params.tol
        done = converged | (iteration == params.max_iters)
        for r in np.flatnonzero(done):
            centers, i = new[r, :ks[r]].copy(), ids[r]
            if np.array_equal(centers, stack[r, :ks[r]]):
                wcss = traces[i][-1]  # the last labels pass saw these centres
            else:
                wcss = float(_nearest(_sq_dists(points, centers))[1].sum())
            traces[i].append(wcss)
            models[i] = KMeansModel(centroids=centers, wcss=wcss, iterations_run=iteration,
                                    converged=bool(converged[r]), wcss_trace=tuple(traces[i]))
        if done.all():
            break
        keep = ~done
        ks, ids = ks[keep], ids[keep]
        stack = np.ascontiguousarray(new[keep][:, :ks[0]])
    return models


def _checked_points(points: np.ndarray, k: int) -> np.ndarray:
    """``points`` as a float matrix with contiguous columns, checked for k and
    for squared distances within float64 range."""
    points = np.asfortranarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite input")
    if points.shape[0] < k:
        raise ValueError(f"n={points.shape[0]} < k={k}")
    with np.errstate(over="ignore"):  # the squared spans bound every distance
        span = np.ptp(points, axis=0)
        if not np.isfinite((span ** 2).sum()):
            j = int(np.argmax(span))
            raise ValueError(f"column {j} spans {span[j]:.3g}: squared distances overflow float64")
    return points


def _restart_seeds(params: KMeansParams) -> list[int]:
    return [derive_seed(params.seed, f"restart:{r}") for r in range(params.restarts)]


def _lowest_wcss(models: list[KMeansModel]) -> KMeansModel:
    """The first of the models with the lowest WCSS."""
    return min(models, key=lambda model: model.wcss)


def lloyd_fit(points: np.ndarray, params: KMeansParams) -> KMeansModel:
    """Run Lloyd's algorithm ``params.restarts`` times and keep the lowest-WCSS fit.

    Restart r uses the derived seed ``(params.seed, "restart:r")``, so single
    restarts can be reproduced in isolation. The restarts run in lockstep
    (see :func:`_lloyd_runs`); ties keep the earliest restart.
    """
    points = _checked_points(points, params.k)
    seeds = _restart_seeds(params)
    return _lowest_wcss(_lloyd_runs(points, [params.k] * len(seeds), seeds, params))


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
    """Pairwise Euclidean distances, ``_DISTANCE_ROWS`` rows at a time through
    :func:`_sq_dists` into (rows, n) workspaces, which are all it allocates
    besides the matrix."""
    n = points.shape[0]
    out = np.empty((n, n), order="F")
    work = _Slabs(points, min(n, _DISTANCE_ROWS))
    for start in range(0, n, _DISTANCE_ROWS):
        rows = points[start:start + _DISTANCE_ROWS]
        np.sqrt(_sq_dists(points, rows, work.slab[:len(rows)], work),
                out=out[start:start + len(rows)])
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
            block = np.sqrt(_sq_dists(points, points[start:stop]))  # (rows, n)
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

    Ties break to the smallest k. Every restart of every k runs in one
    lockstep :func:`_lloyd_runs` call, with the seeds and the lowest-WCSS
    pick of :func:`lloyd_fit`, so each k's model is the one ``lloyd_fit``
    would return. The pairwise distance matrix is built once and shared by
    every k's silhouette. Returns (chosen k, per-k silhouette table, the
    chosen k's fitted model), so the winner need not be fitted again.
    """
    ks = sorted(k_range)
    if not ks:
        raise ValueError("empty k range")
    points = np.asfortranarray(points, dtype=float)
    n = points.shape[0]
    if ks[0] < 2 or ks[-1] > n - 1:
        bad = ks[0] if ks[0] < 2 else ks[-1]
        raise ValueError(f"k={bad} outside the valid range [2, {n - 1}]")
    points = _checked_points(points, ks[-1])
    seeds = _restart_seeds(params)
    runs = _lloyd_runs(points, [k for k in ks for _ in seeds], seeds * len(ks), params)
    distances = _distance_matrix(points)
    table: list[tuple[int, float]] = []
    best_k, best_score, best_model = None, -np.inf, None
    for i, k in enumerate(ks):
        model = _lowest_wcss(runs[i * len(seeds):(i + 1) * len(seeds)])
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
    with np.errstate(over="ignore"):
        logits = -_sq_dists(X, clf.model.centroids) / (2.0 * clf.bandwidth**2)  # (k, n)
    top = logits.max(axis=0)
    if not np.isfinite(top).all():
        row = np.flatnonzero(~np.isfinite(top))[0]
        raise ValueError(f"row {row}: its squared distance to every centroid overflows float64")
    logits -= top
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
