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
:func:`choose_k` builds one pairwise distance matrix per sweep, computing
the blocks on and above its diagonal and mirroring them, and every k's
silhouette sums each cluster's columns of its 512-row blocks, so it equals
a silhouette computed from the points alone.

One engine, :func:`_lloyd_runs`, fits every Lloyd run: all restarts of a
:func:`lloyd_fit`, and all restarts of every k of a :func:`choose_k` sweep,
advance in lockstep, each bit for bit the run it would be on its own. A k
sweep's runs share the restart seeds, so k-means++ draws once per seed, for
the widest k, and each narrower run takes the first k of those centres.
Below ``_TALL_N`` points its update bincounts all runs at once over tiled
point columns, from there on one run at a time. Every point-centre squared
distance comes from one kernel, :func:`_sq_dists`.

The engine's labels pass screens when the widest run of the stack has k of
at least ``_SCREEN_MIN_K`` (4); below it, squaring every centre out is the
cheaper pass. One matrix
product per slab, ``[-2c, ‖c‖²] · [p, 1]``, gives each centre its screen
value ``s_j = ‖c_j‖² - 2 c_j·p``: the squared distance ``D_j`` less
``P = ‖p‖²``, which is the same for every centre of a point. The strict-<
pass over the s_j picks a winner b and tracks the runner-up; no exact
distance is computed. With ``u = 2**-53``, ``γ_m = m·u / (1 - m·u)`` and
``M`` the largest ``‖c‖²`` of the run, the two roundings are bounded:

* the screen: ``‖c‖²`` sums d squares, off by at most ``γ_d·‖c‖²``; the
  product adds d + 1 terms in any order, off by at most ``γ_{d+1}`` times
  the sum of their magnitudes, and ``2|c·p| <= P + ‖c‖²`` bounds that sum
  by ``P + (2 + γ_d)·M``; so ``|ŝ_j - (D_j - P)| <= γ_{3d+2}·(P + M)``;
* the exact kernel: each term takes three roundings and the d - 1 additions
  one more each, so ``|D̂_j - D_j| <= γ_{d+2}·D_j <= γ_{2d+4}·(P + M)``, as
  ``D_j <= 2·(P + M)``.

So ``ŝ_j - ŝ_b > τ >= 2·(γ_{3d+2} + γ_{2d+4})·(P + M)``, about
``(10d + 12)·u·(P + M)``, gives ``D̂_j > D̂_b`` for every j other than b: b
is the unique exact nearest centre, the label the dense strict-< pass gives.
The screen takes ``τ = 32·(d + 3)·u·(P + M)``, 3.2 times that bound or more
for every d, which also covers the roundings of τ, P and the gap; P carries
an extra ``2**-969``, so τ also exceeds the absolute error of underflowing
products (at most ``2**-1075`` each). A point whose runner-up is within τ
of its winner (every point with an exact tie) gets the dense strict-< pass
over its run's centres instead. The screen runs only while
``4·(max P + max M)`` is finite, so no product or partial sum overflows
(:func:`lloyd_fit` and :func:`choose_k` reject points whose P overflows).
So the labels are bit for bit those of the dense pass. A dense pass has
every exact distance anyway; after a screened pass, :meth:`_Slabs.exact`
computes ``D_b``, its columns added left to right as :func:`_sq_dists` adds
them, only for the WCSS a returned model reads (see :func:`_lloyd_runs`),
so traces and models are bit for bit those of the dense pass too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data_ingest import Dataset
from .metrics import DECISION_THRESHOLD
from .seeding import derive_seed

# rows per block of the silhouette
_SILHOUETTE_ROWS = 512
# rows per block of choose_k's distance matrix build
_DISTANCE_ROWS = 128
# centres from which _sq_dists copies each centre column across a workspace
# before subtracting
_COPY_SLAB_MIN = 16
# points from which _lloyd_runs bincounts each run on its own
_TALL_N = 8192
# widest k from which the labels pass screens centres by one product per
# slab (measured break-even: dense squaring is cheaper below)
_SCREEN_MIN_K = 4
# the screen's tie bound tau per (d + 3) and per unit of ||p||^2 + max ||c||^2
_SCREEN_EPS = 32 * 2.0 ** -53


class RowError(ValueError):
    """A failure of one row of a matrix: ``row <row>: <reason>``. A caller
    that knows where its rows came from re-raises it with ``row`` naming
    that place instead of the position in the matrix."""

    def __init__(self, row, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iters: int = 300
    tol: float = 1e-6
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol >= 0:  # NaN too
            raise ValueError("tol must be >= 0")
        if self.tol == float("inf"):  # would stop every run after one update
            raise ValueError("tol must be finite")


# The target-size search's and the scanner's cluster classifiers; seed with ``replace``.
PROBE_PARAMS = KMeansParams(k=2, restarts=2, max_iters=100)


@dataclass(frozen=True)
class KMeansModel:
    """Fitted centroids plus the fit diagnostics needed to audit the run.
    ``wcss_trace`` is the WCSS of each labels pass (each point's squared
    distance to the centre it was labelled with, summed), then ``wcss``."""

    centroids: np.ndarray
    wcss: float
    iterations_run: int
    converged: bool
    wcss_trace: tuple = field(default=())
    repairs: int = 0  # empty clusters reseeded, summed over the iterations

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
              work: _Slabs | None = None, first: int = 0) -> np.ndarray:
    """Squared Euclidean distances as an (m, n) matrix, one row per centre,
    written into ``out`` when given.

    Entry (j, i) adds ``(p_i0 - c_j0)**2 + (p_i1 - c_j1)**2 + ...`` left to
    right for any shapes and memory orders (a plain sum would turn pairwise
    whenever the column axis became the inner loop). Below ``_COPY_SLAB_MIN``
    centres all the terms are squared in one (d, m, n) block; from there on
    each centre column is copied across an (m, n) workspace before the point
    column is subtracted, as numpy subtracts a broadcast (m, 1) column slowly.
    ``work``, a :class:`_Slabs` over ``points``, lends its cached columns and
    workspace and skips the shape check; with it, ``first`` drops the points
    before that row, so the matrix has ``n - first`` columns."""
    if work is None:
        if points.ndim != 2 or points.shape[1] != centers.shape[1]:
            raise ValueError(f"expected a matrix with {centers.shape[1]} columns, "
                             f"got shape {points.shape}")
        cols = np.ascontiguousarray(points.T)  # (d, n): one contiguous row per column
    else:
        cols = work.cols[:, first:]
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
    term = np.empty((m, n)) if work is None else _head(work.term, m, n)
    np.copyto(out, centers[:, :1])
    np.square(np.subtract(cols[0], out, out=out), out=out)
    for c in range(1, d):
        np.copyto(term, centers[:, c:c + 1])
        out += np.square(np.subtract(cols[c], term, out=term), out=term)
    return out


def _head(workspace: np.ndarray, m: int, n: int) -> np.ndarray:
    """The first ``m * n`` cells of a contiguous workspace as an (m, n) matrix."""
    return workspace.ravel()[:m * n].reshape(m, n)


def _take_closer(d2: np.ndarray, j: int, best: np.ndarray, labels: np.ndarray,
                 below: np.ndarray) -> None:
    """One step of the strict-< pass: points that ``d2``, centre j's row,
    puts strictly closer than ``best`` take label j, and ``best`` keeps the
    minimum. ``labels`` and ``below`` are small unsigned ints; as j exceeds
    every earlier label, ``max(labels, j * below)`` sets the label without
    a masked write."""
    np.less(d2, best, out=below)
    np.maximum(labels, np.multiply(below, below.dtype.type(j), out=below), out=labels)
    np.minimum(best, d2, out=best)


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centre labels and squared distances of a :func:`_sq_dists`
    matrix, from one strict-< pass over its rows; ties go to the lowest index."""
    labels, below = np.zeros((2, d2.shape[1]), dtype=np.min_scalar_type(d2.shape[0]))
    best = d2[0].copy()
    for j in range(1, d2.shape[0]):
        _take_closer(d2[j], j, best, labels, below)
    return labels.astype(np.intp), best


def kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted center selection: each next center is drawn with probability
    proportional to its squared distance from the nearest existing center.

    The nearest squared distances are a running minimum that takes in only
    the newest center's column; ``min`` is exact, so the draws equal those
    from a fresh minimum over all chosen centers. Draw j reads only ``rng``
    and centers 0..j-1, and every row's distances and total are the row's
    alone, so the first k centers of a wider draw from the same generator
    state are this draw for k, bit for bit. k below 1 raises ``ValueError``.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    return _Slabs(points, 1).kmeanspp(np.array([k]), [rng])[0]


def _workspace() -> cached_property:
    """A (runs, n) workspace of a :class:`_Slabs`, allocated on first use."""
    return cached_property(lambda self: np.empty((self.runs, self.cols.shape[1])))


class _Slabs:
    """(runs, n) workspaces over one point matrix, each allocated on first
    use, which :func:`_sq_dists` fills for a slab of centres at a time.

    A centre stack is an (R, K, d) array that holds run r's centres in
    ``[r, :k_r]`` and zeros past them, with the runs sorted by k descending,
    so slab j (centre j of every run with k > j) is ``[:m_j, j]`` for a
    prefix of m_j runs. ``k`` bounds the k of every stack, which sizes the
    small ints of :attr:`marks`.
    """

    best = _workspace()
    slab = _workspace()
    term = _workspace()

    def __init__(self, points: np.ndarray, runs: int, k: int = 1):
        self.points, self.runs = points, runs
        n, d = points.shape
        # (d + 1, n): one contiguous row per column, then a row of ones for
        # the screen's product; cols is the first d rows
        self.cols1 = np.empty((d + 1, n))
        self.cols1[:d], self.cols1[d] = points.T, 1.0
        self.cols = self.cols1[:d]
        self.k = k

    @cached_property
    def marks(self) -> np.ndarray:
        """(2, runs, n) small ints: the labels and the closer-mask of the
        strict-< pass (see :func:`_take_closer`)."""
        return np.empty((2, self.runs, self.cols.shape[1]), np.min_scalar_type(self.k))

    @cached_property
    def norms(self) -> np.ndarray:
        """Each point's squared norm plus 2**-969: the P of the screen's
        bound τ (see the module docstring)."""
        return np.square(self.cols).sum(axis=0) + 2.0 ** -969

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

    def nearest(self, stack: np.ndarray, ks: np.ndarray, labels: np.ndarray) -> np.ndarray | None:
        """Label every point of every run with its nearest centre (ties to the
        lowest index, as the strict-< pass of :func:`_nearest` gives them),
        written into ``labels`` as stack rows ``r * K + j``, and return the
        (R, n) squared distances to it, which the dense pass has anyway.

        From a widest k of ``_SCREEN_MIN_K``, :meth:`screen` gives the same
        labels, whenever its products stay finite, and returns ``None``:
        :meth:`exact` gives those distances on demand."""
        R, K = ks.size, int(ks[0])
        lab, below = self.marks[:, :R]
        lab.fill(0)
        if K >= _SCREEN_MIN_K:
            with np.errstate(over="ignore"):  # norms that overflow take the dense pass
                squares = np.square(stack).sum(axis=2)  # (R, K) squared centre norms
                screened = np.isfinite(4.0 * (self.norms.max() + squares.max()))
            if screened:
                return self.screen(stack, ks, squares, labels)
        best = _sq_dists(self.points, stack[:, 0], self.best[:R], self)
        for j in range(1, K):
            m = int(np.count_nonzero(ks > j))
            d2 = _sq_dists(self.points, stack[:m, j], self.slab[:m], self)
            _take_closer(d2, j, best[:m], lab[:m], below[:m])
        np.add(lab, (np.arange(R) * K)[:, None], out=labels)
        return best

    def screen(self, stack: np.ndarray, ks: np.ndarray, squares: np.ndarray,
               labels: np.ndarray) -> None:
        """:meth:`nearest` through the screen (see the module docstring).

        One matrix product ``[-2c, ‖c‖²] · [p, 1]`` per slab ranks every
        run's centres by ``‖c‖² - 2 c·p`` in the strict-< pass, which also
        tracks each point's runner-up; points whose runner-up lies within τ
        of the winner get the dense pass from :meth:`fallback`. No exact
        distance is computed."""
        R, K = ks.size, int(ks[0])
        lab, below = self.marks[:, :R]
        best, second = self.best[:R], self.term[:R]
        weights = np.empty((K, R, self.cols1.shape[0]))  # slab j's rows contiguous
        np.multiply(stack.transpose(1, 0, 2), -2.0, out=weights[:, :, :-1])
        weights[:, :, -1] = squares.T
        np.matmul(weights[0], self.cols1, out=best)
        second.fill(np.inf)  # runs with k = 1 keep no runner-up
        for j in range(1, K):
            m = int(np.count_nonzero(ks > j))
            v = np.matmul(weights[j, :m], self.cols1, out=self.slab[:m])
            # second = min(second, max(best, v)), with no workspace for the max
            np.minimum(second[:m], v, out=second[:m])
            np.maximum(second[:m], best[:m], out=second[:m])
            _take_closer(v, j, best[:m], lab[:m], below[:m])
        gaps = np.subtract(second, best, out=second)
        np.add(lab, (np.arange(R) * K)[:, None], out=labels)

        # tau = scale * (P + M); a run whose smallest gap exceeds its largest
        # tau has no point to check
        scale = _SCREEN_EPS * (len(self.cols) + 3)
        centre_tau = scale * squares.max(axis=1)
        for r in np.flatnonzero(~(gaps.min(axis=1) > scale * self.norms.max() + centre_tau)):
            close = np.flatnonzero(~(gaps[r] > scale * self.norms + centre_tau[r]))
            if close.size:
                self.fallback(stack[r, :ks[r]], close, labels[r], r * K)

    def fallback(self, centres: np.ndarray, rows: np.ndarray, labels: np.ndarray,
                 offset: int) -> None:
        """Exact labels of ``rows`` of one run, from the strict-< pass over all
        its centres, written at ``rows`` of that run's ``labels`` (as stack
        rows, from ``offset``)."""
        labels[rows] = _nearest(_sq_dists(self.points[rows], centres))[0] + offset

    def exact(self, centres: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The (m, n) squared distances of every point to the row of the
        (M, d) ``centres`` that each of the m <= runs rows of ``labels``
        names, its columns added left to right as :func:`_sq_dists` adds
        them, written into the head of :attr:`best`."""
        out, gathered = self.best[:len(labels)], self.slab[:len(labels)]
        out.fill(0.0)
        cols = np.ascontiguousarray(centres.T)  # (d, M)
        for c, col in enumerate(self.cols):
            np.take(cols[c], labels, out=gathered, mode="wrap")  # in range by construction
            out += np.square(np.subtract(col, gathered, out=gathered), out=gathered)
        return out


def _lloyd_runs(points: np.ndarray, ks, seeds, params: KMeansParams) -> list[KMeansModel]:
    """One Lloyd fit per (k, seed) pair on the same points, all in lockstep,
    and for each distinct k, in the order the ks first appear, the first of
    its runs with the lowest WCSS.

    Run i starts from the k-means++ draw of ``ks[i]`` centres by
    ``default_rng(seeds[i])``; ``params.k`` is not read. Runs may share a
    seed, as every k of a :func:`choose_k` sweep shares the restart seeds:
    k-means++ then draws once per distinct seed, for the widest of its runs,
    and every run with that seed starts from the first ``ks[i]`` of those
    centres, which is its own draw bit for bit (see :func:`kmeanspp_init`).

    The runs advance together: one labels pass over the centre stack's
    slabs (:meth:`_Slabs.nearest`, screened from k = 4) labels every run
    with stack rows, and one weighted ``np.bincount`` per column over those
    labels updates every run's centroids, each bin adding its weights in row
    order (from ``_TALL_N`` points, where tiled weights cost more than they
    save, each run is bincounted on its own). A run converges when no centre
    c moves by ``params.tol * (1 + ||c - mu||)`` or more, mu the mean of the
    points, so translating the points does not move the stopping point. It
    leaves the stack when it converges or reaches ``params.max_iters``.

    A dense pass's WCSS goes into the traces at once. After a screened pass
    each run keeps its labels (n bytes per run and pass for k up to 255,
    freed on return) and centres, and after the loop :meth:`_Slabs.exact`
    sums, in blocks of the workspace rows, only the last pass of each run
    that ended on the centres it saw (its WCSS picks the winners), then the
    winners' other screened passes. Each returned model is bit for bit the
    fit of its run alone, ``repairs`` counting the clusters it reseeded.
    """
    n, d = points.shape
    ids = np.argsort(-np.asarray(ks), kind="stable")  # input position of each stack row
    ks, seeds = np.asarray(ks)[ids], [seeds[i] for i in ids]
    work = _Slabs(points, ks.size, int(ks[0]))
    mean = work.cols.mean(axis=1)  # the shift test measures centres from here
    # one draw sequence per distinct seed, for its first run in the stack,
    # its widest; every run with that seed takes a prefix of it
    distinct = list(dict.fromkeys(seeds))
    drawn = work.kmeanspp(ks[[seeds.index(seed) for seed in distinct]],
                          [np.random.default_rng(seed) for seed in distinct])
    stack = drawn[[distinct.index(seed) for seed in seeds]]
    stack[np.arange(ks[0]) >= ks[:, None]] = 0.0  # zeros past each run's k

    tall = n >= _TALL_N
    weights = None if tall else np.empty((ks.size, n))  # one point column per run
    labels = np.empty((ks.size, n), dtype=np.intp)  # stack rows r * K + j
    # per run, each labels pass's WCSS, or (centres, labels) of a screened pass
    traces: list[list] = [[] for _ in ks]
    repairs = [0] * ks.size
    # per run: centres, final WCSS (None: its last pass's), iterations, converged
    fits: list[tuple] = [()] * ks.size

    def settle(entries):  # sums screened trace entries (run, position), by workspace rows
        for start in range(0, len(entries), work.runs):
            block = entries[start:start + work.runs]
            centres = [traces[i][t][0] for i, t in block]
            offsets = np.cumsum([0] + [len(c) for c in centres])
            for b, (i, t) in enumerate(block):
                np.add(traces[i][t][1], offsets[b], out=labels[b])
            totals = work.exact(np.concatenate(centres), labels[:len(block)]).sum(axis=1)
            for (i, t), total in zip(block, totals.tolist()):
                traces[i][t] = total

    for iteration in range(1, params.max_iters + 1):
        R, K = ks.size, int(ks[0])
        nearest = work.nearest(stack, ks, labels[:R])
        if nearest is None:  # keep each run's labels within the run
            own = np.empty((R, n), dtype=work.marks.dtype)
            np.subtract(labels[:R], (np.arange(R) * K)[:, None], out=own, casting="unsafe")
        entries = zip(stack, own) if nearest is None else nearest.sum(axis=1).tolist()
        for i, entry in zip(ids, entries):
            traces[i].append(entry)

        sums = np.empty((R, K, d))
        flat = labels[:R].ravel()
        counts = np.bincount(flat, minlength=R * K).reshape(R, K)
        if tall:
            for r in range(R):
                for c, col in enumerate(work.cols):
                    sums[r, :, c] = np.bincount(labels[r], weights=col,
                                                minlength=(r + 1) * K)[r * K:]
        else:
            for c, col in enumerate(work.cols):
                np.copyto(weights[:R], col)
                sums[:, :, c] = np.bincount(flat, weights=weights[:R].ravel(),
                                            minlength=R * K).reshape(R, K)
        new = sums / np.maximum(counts, 1)[:, :, None]
        for r, j in zip(*np.nonzero((counts == 0) & (np.arange(K) < ks[:, None]))):
            # empty-cluster repair: reseed at the point farthest from the
            # stale centroid; keeps k constant and is deterministic
            new[r, j] = points[np.argmax(_sq_dists(points, stack[r, j:j + 1], work=work)[0])]
            repairs[ids[r]] += 1

        shift = (np.linalg.norm(new - stack, axis=2)
                 / (1.0 + np.linalg.norm(stack - mean, axis=2))).max(axis=1)
        converged = shift < params.tol
        done = converged | (iteration == params.max_iters)
        for r in np.flatnonzero(done):
            centers = new[r, :ks[r]].copy()
            # None when the last labels pass saw these centres
            wcss = (None if np.array_equal(centers, stack[r, :ks[r]])
                    else float(_nearest(_sq_dists(points, centers))[1].sum()))
            fits[ids[r]] = (centers, wcss, iteration, bool(converged[r]))
        if done.all():
            break
        keep = ~done
        ks, ids = ks[keep], ids[keep]
        stack = np.ascontiguousarray(new[keep][:, :ks[0]])

    settle([(i, -1) for i, trace in enumerate(traces)
            if fits[i][1] is None and isinstance(trace[-1], tuple)])
    wcss = [traces[i][-1] if fit[1] is None else fit[1] for i, fit in enumerate(fits)]
    winners: dict = {}  # k: the input position of its first lowest-WCSS run
    for i, (centers, *_) in enumerate(fits):
        k = len(centers)
        if k not in winners or wcss[i] < wcss[winners[k]]:
            winners[k] = i
    settle([(i, t) for i in winners.values()
            for t, entry in enumerate(traces[i]) if isinstance(entry, tuple)])
    return [KMeansModel(centroids=fits[i][0], wcss=wcss[i], iterations_run=fits[i][2],
                        converged=fits[i][3], wcss_trace=(*traces[i], wcss[i]),
                        repairs=repairs[i]) for i in winners.values()]


def _checked_points(points: np.ndarray) -> np.ndarray:
    """``points`` as a float matrix with contiguous columns, checked for
    squared distances and squared norms within float64 range (the norms
    bound the centres' norms, which the shift test and the screen take)."""
    points = np.asfortranarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite input")
    with np.errstate(over="ignore"):  # the squared spans bound every distance
        span = np.ptp(points, axis=0)
        if not np.isfinite((span ** 2).sum()):
            j = int(np.argmax(span))
            raise ValueError(f"column {j} spans {span[j]:.3g}: squared distances overflow float64")
        norms = np.square(points).sum(axis=1)
    if not np.isfinite(norms).all():
        i = int(np.argmax(~np.isfinite(norms)))
        j = int(np.argmax(np.abs(points[i])))
        raise ValueError(f"column {j} holds {points[i, j]:.3g}: squared norms overflow float64")
    return points


def _restart_seeds(params: KMeansParams) -> list[int]:
    return [derive_seed(params.seed, f"restart:{r}") for r in range(params.restarts)]


def lloyd_fit(points: np.ndarray, params: KMeansParams) -> KMeansModel:
    """Run Lloyd's algorithm ``params.restarts`` times and keep the lowest-WCSS fit.

    Restart r uses the derived seed ``(params.seed, "restart:r")``, so single
    restarts can be reproduced in isolation. The restarts run in lockstep
    (see :func:`_lloyd_runs`); ties keep the earliest restart. A k above the
    number D of distinct rows raises ``ValueError`` naming D. Equal rows
    share a label, so such a fit repairs an empty cluster in every iteration,
    and the rows are counted only when the winner has a repair (or k > n).
    """
    points, seeds = _checked_points(points), _restart_seeds(params)
    if params.k <= points.shape[0]:
        model, = _lloyd_runs(points, [params.k] * len(seeds), seeds, params)
    if params.k > points.shape[0] or model.repairs:  # k > n >= D raises, unfitted
        distinct = np.unique(points, axis=0).shape[0]
        if distinct < params.k:
            raise ValueError(f"k={params.k} exceeds the {distinct} distinct rows")
    return model


def assign_many(model: KMeansModel, X: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid; exact ties go to the lowest index."""
    X = np.asarray(X, dtype=float)
    return _nearest(_sq_dists(X, model.centroids))[0]


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, ``_DISTANCE_ROWS`` rows at a time.

    Only the blocks on and above the diagonal go through :func:`_sq_dists`:
    rows ``start:stop`` against the points from ``start`` on, into the head
    of a (rows, n) workspace. Each block fills its rows from ``start`` on
    and, transposed, its columns below them. ``(a - b)**2 == (b - a)**2``,
    so the mirror is bit for bit what :func:`_sq_dists` gives there, and
    the matrix is exactly symmetric. The workspaces are all it allocates
    besides the matrix."""
    n = points.shape[0]
    out = np.empty((n, n), order="F")
    work = _Slabs(points, min(n, _DISTANCE_ROWS))
    for start in range(0, n, _DISTANCE_ROWS):
        stop = min(start + _DISTANCE_ROWS, n)
        block = _sq_dists(points, points[start:stop], _head(work.slab, stop - start, n - start),
                          work, start)
        np.sqrt(block, out=block)
        out[start:stop, start:] = block
        out[start:, start:stop] = block.T
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


def choose_k(points: np.ndarray,
             params: KMeansParams) -> tuple[int, list[tuple[int, float]], KMeansModel]:
    """Fit every k from 2 to ``min(params.k, n - 1, D)``, D the distinct rows,
    and pick the silhouette argmax.

    ``params.k`` is the largest k swept, ``[kmeans] k_max``; below 2 it
    raises ``ValueError``, as do fewer than 3 rows or 2 distinct rows. Ties
    break to the smallest k. Every restart of every k runs in one
    lockstep :func:`_lloyd_runs` call, with the seeds and the lowest-WCSS
    pick of :func:`lloyd_fit`, so each k's model is the one ``lloyd_fit``
    would return; k-means++ draws once per restart seed, for the widest k,
    and each narrower k starts from a prefix of those centres. The pairwise
    distance matrix is built once, its upper blocks mirrored, and shared by
    every k's silhouette. Returns (chosen k, per-k silhouette table, the
    chosen k's fitted model), so the winner need not be fitted again.
    """
    if params.k < 2:
        raise ValueError(f"k_max must be >= 2, got {params.k}")
    points = _checked_points(points)
    n = points.shape[0]
    if n < 3:  # the silhouette needs 2 <= k <= n - 1
        raise ValueError(f"k = auto needs at least 3 training rows, but there are {n}")
    distinct = np.unique(points, axis=0).shape[0]
    if distinct < 2:
        raise ValueError("k = auto needs at least 2 distinct training rows, "
                         f"but the selected columns hold {distinct}")
    ks = range(2, min(params.k, n - 1, distinct) + 1)
    seeds = _restart_seeds(params)
    models = _lloyd_runs(points, [k for k in ks for _ in seeds], seeds * len(ks), params)
    distances = _distance_matrix(points)
    table: list[tuple[int, float]] = []
    best_k, best_score, best_model = None, -np.inf, None
    for k, model in zip(ks, models):
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
    positives = np.bincount(labels, weights=y, minlength=model.k)
    posteriors = (positives + 1) / (np.bincount(labels, minlength=model.k) + 2)
    sigma = float(np.sqrt(nearest).mean())
    return ClusterClassifier(model=model, posteriors=posteriors,
                             bandwidth=sigma if sigma > 0 else 1.0)


def predict_scores(clf: ClusterClassifier, X: np.ndarray) -> np.ndarray:
    """Posterior-weighted soft scores in [0, 1], one per row of ``X``:
    softmax cluster weights times posteriors.

    The weights are normalised and mixed by adding the k clusters' terms in
    order, so each row's score depends on that row alone. A row whose
    distance to every centroid overflows raises :class:`RowError`.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore"):
        logits = -_sq_dists(X, clf.model.centroids) / (2.0 * clf.bandwidth**2)  # (k, n)
    top = logits.max(axis=0)
    if not np.isfinite(top).all():
        row = np.flatnonzero(~np.isfinite(top))[0]
        raise RowError(row, "its squared distance to every centroid overflows float64")
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
