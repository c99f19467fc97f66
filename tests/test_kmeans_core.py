"""Lloyd fitting, seeding, silhouette, K selection, and the cluster classifier."""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskmeans.kmeans_core as kc
from riskmeans.bench_harness import FoldFit
from riskmeans.data_ingest import Dataset, PreprocessReport
from riskmeans.feature_select import RfeResult
from riskmeans.kmeans_core import (
    ClusterClassifier,
    KMeansModel,
    KMeansParams,
    assign_many,
    choose_k,
    fit_classifier,
    kmeanspp_init,
    lloyd_fit,
    predict_scores,
    silhouette_score,
)
from riskmeans.seeding import derive_seed

from conftest import make_blobs, make_labeled_blobs


def recompute_wcss(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


def test_kmeanspp_all_rows_when_k_equals_n():
    points = np.arange(6, dtype=float).reshape(6, 1)
    centers = kmeanspp_init(points, 6, np.random.default_rng(0))
    assert sorted(centers[:, 0]) == sorted(points[:, 0])


def test_kmeanspp_single_center_is_a_row():
    points = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = kmeanspp_init(points, 1, np.random.default_rng(1))
    assert any((c[0] == row).all() for row in points)


def test_kmeanspp_deterministic_given_seed():
    points = np.random.default_rng(9).normal(size=(100, 3))
    a = kmeanspp_init(points, 3, np.random.default_rng(42))
    b = kmeanspp_init(points, 3, np.random.default_rng(42))
    assert (a == b).all()


def _loop_sq_dists(points, centers):
    """Reference distances: one squared column difference at a time, added
    left to right in column order."""
    out = np.zeros((points.shape[0], centers.shape[0]))
    for j in range(points.shape[1]):
        out += (points[:, j, None] - centers[None, :, j]) ** 2
    return out


def _loop_nearest(d2):
    """Reference nearest centre of an (n, k) distance matrix: a strict-< pass
    over its columns, so ties keep the lowest index."""
    labels = np.zeros(d2.shape[0], dtype=np.intp)
    best = d2[:, 0].copy()
    for j in range(1, d2.shape[1]):
        closer = d2[:, j] < best
        labels[closer], best[closer] = j, d2[closer, j]
    return labels, best


def _loop_kmeanspp_init(points, k, rng):
    """Reference k-means++: each draw takes a fresh minimum over the
    distances to every center chosen so far."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    for j in range(1, k):
        d2 = _loop_sq_dists(points, centers[:j]).min(axis=1)
        total = d2.sum()
        if total > 0:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        else:
            centers[j] = points[rng.integers(n)]
    return centers


def test_kmeanspp_running_minimum_matches_full_minimum_bitwise():
    rng = np.random.default_rng(31)
    cases = [rng.normal(size=(n, d)) * rng.uniform(0.1, 50, size=d)
             for n, d in ((12, 1), (200, 3), (800, 10))]
    dup = np.repeat(rng.normal(size=(3, 4)), 7, axis=0)  # three distinct rows
    for points in cases + [dup]:
        for p, k, seed in itertools.product((np.ascontiguousarray(points),
                                             np.asfortranarray(points)),
                                            range(1, 11), range(5)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = kmeanspp_init(p, k, got_rng)
            assert got.tobytes() == _loop_kmeanspp_init(p, k, want_rng).tobytes()
            assert got_rng.random() == want_rng.random()  # same draws consumed
    # past three centers every row sits on one: the total == 0 branch
    centers = kmeanspp_init(dup, 5, np.random.default_rng(0))
    assert len(np.unique(centers, axis=0)) == 3


def test_kmeanspp_k_exceeds_n():
    with pytest.raises(ValueError):
        kmeanspp_init(np.zeros((2, 1)), 3, np.random.default_rng(0))


@pytest.mark.parametrize("init", [kmeanspp_init])
@pytest.mark.parametrize("k", [0, -1])
def test_inits_reject_k_below_1(init, k):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        init(np.arange(6, dtype=float).reshape(3, 2), k, np.random.default_rng(0))


def test_kmeanspp_narrower_k_draws_a_prefix_bitwise():
    # draw j reads only the generator and centres 0..j-1, so a k-centre
    # draw is the first k centres of a wider draw with the same seed; past
    # three centres every row of the duplicate table sits on one, so its
    # later draws take the total == 0 branch
    rng = np.random.default_rng(37)
    tables = [rng.normal(size=(200, 3)) * [0.01, 1, 100], rng.normal(size=(30, 1)),
              np.repeat(rng.normal(size=(3, 4)), 9, axis=0)]
    widest = 12
    for points, seed in itertools.product(tables, range(4)):
        for p in (np.ascontiguousarray(points), np.asfortranarray(points)):
            wide = kmeanspp_init(p, widest, np.random.default_rng(seed))
            for k in range(1, widest + 1):
                narrow = kmeanspp_init(p, k, np.random.default_rng(seed))
                assert wide[:k].tobytes() == narrow.tobytes()


def test_lloyd_two_blobs_recovers_means():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, size=(50, 2)) + [10.0, 0.0]
    b = rng.normal(0, 1, size=(50, 2)) + [-10.0, 0.0]
    points = np.concatenate([a, b])
    model = lloyd_fit(points, KMeansParams(k=2, seed=1))
    means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
    got = sorted(model.centroids, key=lambda m: m[0])
    for m, g in zip(means, got):
        assert np.linalg.norm(m - g) < 0.5
    assert abs(model.wcss - recompute_wcss(points, model.centroids)) < 1e-9


def test_lloyd_identical_points():
    points = np.full((5, 2), 3.0)
    model = lloyd_fit(points, KMeansParams(k=1, seed=0))
    assert model.wcss == 0.0
    assert model.converged and model.iterations_run == 1
    # a second centroid could only repeat the one row
    with pytest.raises(ValueError, match=r"^k=2 exceeds the 1 distinct rows$"):
        lloyd_fit(points, KMeansParams(k=2, seed=0))


def test_lloyd_stopping_rule_ignores_where_the_points_sit():
    # the shift test measures centres from the points' mean, so moving every
    # point by one offset stops each run at the same iteration; the shift
    # relative to 1 + ||c|| stopped after one iteration from 1e6 on
    x = np.random.default_rng(0).normal(size=(60, 3))
    ks = [k for k in (2, 3, 4, 5) for _ in range(3)]
    seeds = [derive_seed(0, f"run:{i}") for i in range(len(ks))]
    fits = {}
    for offset in (0.0, 1e6, 1e10):
        points = np.asfortranarray(x + offset)
        runs = [kc._lloyd_runs(points, [k], [seed], KMeansParams(k=2))[0]
                for k, seed in zip(ks, seeds)]
        fits[offset] = [(m.iterations_run, m.converged, assign_many(m, points).tolist())
                        for m in runs]
    assert fits[1e6] == fits[0.0]
    assert fits[1e10] == fits[0.0]
    assert [fit[0] for fit in fits[0.0]] != [1] * len(ks)
    assert [lloyd_fit(x + offset, KMeansParams(k=3)).iterations_run
            for offset in (0.0, 1e6, 1e10)] == [7, 7, 7]


def test_lloyd_fit_rejects_k_above_the_distinct_rows():
    points = np.repeat([[0.0, 1.0], [2.0, 3.0]], 5, axis=0)
    with pytest.raises(ValueError, match=r"^k=4 exceeds the 2 distinct rows$"):
        lloyd_fit(points, KMeansParams(k=4))
    with pytest.raises(ValueError, match=r"^k=3 exceeds the 2 distinct rows$"):
        lloyd_fit(points, KMeansParams(k=3, restarts=2, max_iters=5))
    assert len(np.unique(lloyd_fit(points, KMeansParams(k=2)).centroids, axis=0)) == 2


def test_lloyd_fit_rejects_k_above_the_distinct_rows_whose_means_round():
    # the mean of equal rows of 0.1 is not 0.1 bit for bit, so repeated
    # centroids of these fits can differ in their last bits: the rule must
    # not rest on comparing centroids
    with pytest.raises(ValueError, match=r"^k=2 exceeds the 1 distinct rows$"):
        lloyd_fit(np.full((3, 1), 0.1), KMeansParams(k=2))
    with pytest.raises(ValueError, match=r"^k=3 exceeds the 2 distinct rows$"):
        lloyd_fit(np.repeat([[0.1], [1.1]], 3, axis=0), KMeansParams(k=3))


@st.composite
def _distinct_row_cases(draw):
    """Duplicate-heavy tables of tenths (non-dyadic, so means of equal rows
    round), a k from 1 to n + 2 and parameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(-20, 21, size=(draw(st.integers(1, 5)), draw(st.integers(1, 3)))) / 10
    points = np.repeat(rows, rng.integers(1, 6, size=len(rows)), axis=0)
    points = np.asfortranarray(points[rng.permutation(len(points))])
    params = KMeansParams(
        k=draw(st.integers(1, len(points) + 2)), restarts=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 10**6)), max_iters=draw(st.sampled_from([3, 300])),
    )
    return points, params


@given(_distinct_row_cases())
@settings(deadline=None, max_examples=150)
def test_lloyd_fit_raises_exactly_above_the_distinct_rows(case):
    points, params = case
    distinct = len(np.unique(points, axis=0))
    if params.k > distinct:
        with pytest.raises(ValueError,
                           match=f"^k={params.k} exceeds the {distinct} distinct rows$"):
            lloyd_fit(points, params)
    else:
        assert _model_bits(lloyd_fit(points, params)) == _model_bits(
            _oracle_lloyd_fit(points, params))


def test_lloyd_fit_counts_distinct_rows_only_after_a_repair(monkeypatch):
    shapes = []
    unique = np.unique

    def spy(ar, *args, **kwargs):
        shapes.append(np.shape(ar))
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(kc.np, "unique", spy)
    assert lloyd_fit(make_blobs(20, np.eye(3, 4) * 6, seed=1), KMeansParams(k=3)).repairs == 0
    assert shapes == []  # a fit without a repair counts nothing
    with pytest.raises(ValueError, match="exceeds the 2 distinct rows"):
        lloyd_fit(np.repeat([[0.0], [1.0]], 4, axis=0), KMeansParams(k=3))
    assert shapes == [(8, 1)]  # the points, once


def test_lloyd_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        lloyd_fit(np.array([[np.nan, 1.0]]), KMeansParams(k=1))


def test_lloyd_rejects_n_below_k():
    with pytest.raises(ValueError):
        lloyd_fit(np.zeros((2, 2)), KMeansParams(k=3))


def _layouts(a):
    """C-ordered, F-ordered and sliced-view copies of one matrix."""
    n, d = a.shape
    big = np.zeros((2 * n + 1, d + 3))
    big[1::2, 2:d + 2] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "view": big[1::2, 2:d + 2]}


# centre counts just below, at and just above the copied-column threshold
_THRESHOLD_KS = (15, 16, 17)


@pytest.mark.parametrize("d", [0, 1, 5, 7, 8, 9, 20, 33])
def test_sq_dists_matches_column_loop_bitwise(d):
    assert [np.sign(k - kc._COPY_SLAB_MIN) for k in _THRESHOLD_KS] == [-1, 0, 1]
    rng = np.random.default_rng(d)
    shapes = itertools.product((0, 1, 2, 700), (1, 2, 7, 800) + _THRESHOLD_KS)
    for n, k in shapes:
        points = rng.normal(size=(n, d)) * rng.uniform(0.1, 100, size=d)
        centers = rng.normal(size=(k, d)) * rng.uniform(0.1, 100, size=d)
        want = _loop_sq_dists(points, centers).T.tobytes()
        for p, c in itertools.product(_layouts(points).values(), _layouts(centers).values()):
            got = kc._sq_dists(p, c)
            assert got.shape == (k, n)
            assert got.tobytes() == want
            out = np.full((k, n), np.nan)
            assert kc._sq_dists(p, c, out) is out
            assert out.tobytes() == want


def test_sq_dists_one_point_one_center_adds_in_column_order():
    # 1 + 8 * 1e-16 is 1 added left to right, but a plain add.reduce over
    # these nine squares sums them pairwise and rounds up to 1 + 2**-52
    x = np.array([[1.0] + [1e-8] * 8])
    sq = x[0] ** 2
    assert np.add.reduce(sq) > 1.0
    assert kc._sq_dists(x, np.zeros((1, 9))).tobytes() == np.array([[1.0]]).tobytes()


def test_sq_dists_rejects_a_column_count_mismatch():
    clf = _manual_clf(np.zeros((2, 5)), [0.2, 0.8])
    for X in (np.zeros((4, 3)), np.zeros((4, 6)), np.zeros(5)):
        with pytest.raises(ValueError, match="5 columns"):
            predict_scores(clf, X)
        with pytest.raises(ValueError, match="5 columns"):
            assign_many(clf.model, X)


def test_squared_distance_overflow_raises_instead_of_nan():
    # every value is finite, but the squared spread of the columns is not
    wide = np.array([[0.0, 1e154], [1.0, -1e154], [2.0, 0.0], [3.0, 5.0]])
    message = "column 1 spans 2e+154: squared distances overflow float64"
    with pytest.raises(ValueError, match=re.escape(message)):
        lloyd_fit(wide, KMeansParams(k=2))
    with pytest.raises(ValueError, match=re.escape(message)):
        choose_k(wide, KMeansParams(k=3))
    clf = _manual_clf(np.array([[0.0, 0.0], [1.0, 1.0]]), [0.2, 0.8])
    for huge in (1e200, np.inf):  # apply_report makes a value too large to scale inf
        with pytest.raises(ValueError, match="row 1: its squared distance to every centroid"):
            predict_scores(clf, np.array([[0.5, 0.5], [huge, 0.0], [2.0, 2.0]]))


def _loop_update(points, labels, d2, k):
    """Reference centroid update: one boolean-mask mean per cluster."""
    centers = np.empty((k, points.shape[1]))
    for j in range(k):
        members = labels == j
        if members.any():
            centers[j] = points[members].mean(axis=0)
        else:
            centers[j] = points[np.argmax(d2[:, j])]
    return centers


def _one_update_both_ways(points, k, seed):
    """Centroids after one Lloyd step, from the engine and from the loop."""
    params = KMeansParams(k=k, restarts=1, max_iters=1, seed=seed)
    init = kmeanspp_init(points, k, np.random.default_rng(derive_seed(seed, "restart:0")))
    d2 = ((points[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    # the engine, as lloyd_fit runs it, which rejects the k-above-distinct case
    got = kc._lloyd_runs(np.asfortranarray(points), [k], [derive_seed(seed, "restart:0")],
                         params)[0]
    return got.centroids, _loop_update(points, labels, d2, k), labels


def _update_cases(d):
    rng = np.random.default_rng(d)
    for n, k in ((7, 2), (60, 3), (500, 5), (2000, 8)):
        yield rng.normal(size=(n, d)) * rng.uniform(0.5, 50) + rng.normal(size=d), k
    # three distinct rows and k = 5: two centers repeat a row and start empty
    yield np.repeat(rng.normal(size=(3, d)), 10, axis=0), 5


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_lloyd_update_matches_mask_mean_loop_bitwise(d):
    saw_empty = False
    for points, k in _update_cases(d):
        for seed in range(3):
            got, want, labels = _one_update_both_ways(points, k, seed)
            saw_empty |= np.bincount(labels, minlength=k).min() == 0
            assert got.tobytes() == want.tobytes()
    assert saw_empty


def test_lloyd_update_one_column_within_summation_error():
    # a one-column mean was a pairwise sum and is now a sequential one, so
    # the two may differ by the rounding error of summing m terms
    eps = np.finfo(float).eps
    saw_empty = False
    for points, k in _update_cases(1):
        for seed in range(3):
            got, want, labels = _one_update_both_ways(points, k, seed)
            counts = np.bincount(labels, minlength=k)
            saw_empty |= counts.min() == 0
            for j in range(k):
                col = points[labels == j, 0]
                if col.size == 0:
                    assert got[j, 0] == want[j, 0]
                    continue
                bound = (col.size - 1) * eps * np.abs(col).mean() + np.spacing(abs(want[j, 0]))
                assert abs(got[j, 0] - want[j, 0]) <= bound
    assert saw_empty


def test_wcss_trace_non_increasing():
    rng = np.random.default_rng(17)
    for _ in range(10):
        points = rng.normal(size=(rng.integers(20, 200), rng.integers(1, 6)))
        model = lloyd_fit(points, KMeansParams(k=int(rng.integers(2, 6)),
                                               restarts=2, seed=int(rng.integers(1e6))))
        trace = np.array(model.wcss_trace)
        assert (np.diff(trace) <= 1e-9).all()


def brute_force_two_partition_wcss(points):
    """Minimum WCSS over every bipartition with both sides non-empty."""
    n = points.shape[0]
    best = np.inf
    for mask in range(1, 2 ** n - 1):
        bits = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        w = 0.0
        for side in (bits, ~bits):
            group = points[side]
            w += ((group - group.mean(axis=0)) ** 2).sum()
        best = min(best, w)
    return best


def test_lloyd_matches_exhaustive_two_partition_on_small_instances():
    rng = np.random.default_rng(100)
    hits = 0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        points = rng.normal(size=(n, 2))
        model = lloyd_fit(points, KMeansParams(k=2, restarts=10, seed=trial))
        opt = brute_force_two_partition_wcss(points)
        assert model.wcss >= opt - 1e-9
        if model.wcss <= opt + 1e-9:
            hits += 1
    assert hits >= 18


def _oracle_lloyd_single(points, params, seed):
    """Reference Lloyd run: one restart on its own, one Python iteration at a
    time, seeded by a loop k-means++; it stops once no centre c moves by
    ``tol * (1 + ||c - mean of the points||)`` or more, and counts every
    empty cluster it reseeds."""
    rng = np.random.default_rng(seed)
    centers = _loop_kmeanspp_init(points, params.k, rng)
    mean = np.ascontiguousarray(points.T).mean(axis=1)  # each column summed on its own

    trace = []
    iterations = repairs = 0
    converged = False
    for _ in range(params.max_iters):
        d2 = _loop_sq_dists(points, centers)
        labels, nearest = _loop_nearest(d2)
        trace.append(float(nearest.sum()))
        iterations += 1

        counts = np.bincount(labels, minlength=params.k)
        new_centers = np.empty((params.k, points.shape[1]))
        for c, col in enumerate(points.T):
            new_centers[:, c] = np.bincount(labels, weights=col, minlength=params.k)
        new_centers /= np.maximum(counts, 1)[:, None]
        if counts.min() == 0:
            for j in np.flatnonzero(counts == 0):
                new_centers[j] = points[np.argmax(d2[:, j])]
                repairs += 1

        shift = np.max(
            np.linalg.norm(new_centers - centers, axis=1)
            / (1.0 + np.linalg.norm(centers - mean, axis=1))
        )
        centers = new_centers
        if shift < params.tol:
            converged = True
            break

    wcss = float(_loop_nearest(_loop_sq_dists(points, centers))[1].sum())
    trace.append(wcss)
    return KMeansModel(centroids=centers, wcss=wcss, iterations_run=iterations,
                       converged=converged, wcss_trace=tuple(trace), repairs=repairs)


def _oracle_lloyd_fit(points, params):
    """Reference restart loop: the first lowest-WCSS restart wins."""
    points = np.asfortranarray(points, dtype=float)
    best = None
    for r in range(params.restarts):
        model = _oracle_lloyd_single(points, params, derive_seed(params.seed, f"restart:{r}"))
        if best is None or model.wcss < best.wcss:
            best = model
    return best


def _model_bits(model):
    return (model.centroids.tobytes(), model.centroids.shape, model.wcss,
            model.iterations_run, model.converged, model.wcss_trace, model.repairs)


def _assert_runs_match_oracle(points, ks, seeds, params):
    """Each run alone is the single-run oracle, and one lockstep call, as
    shipped and with every stack screened, returns each distinct k's first
    lowest-WCSS oracle run, in the order the ks first appear, bit for bit."""
    winners = {}
    for k, seed in zip(ks, seeds):
        want = _oracle_lloyd_single(points, replace(params, k=k), seed)
        assert _model_bits(kc._lloyd_runs(points, [k], [seed], params)[0]) == _model_bits(want)
        if k not in winners or want.wcss < winners[k].wcss:
            winners[k] = want
    for min_k in (kc._SCREEN_MIN_K, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kc, "_SCREEN_MIN_K", min_k)
            got = kc._lloyd_runs(points, ks, seeds, params)
        assert [_model_bits(model) for model in got] == [_model_bits(model)
                                                          for model in winners.values()]


@st.composite
def _lloyd_cases(draw, n_max=60):
    """Points (normal, rounded or duplicate-heavy, so that clusters empty and
    are repaired), runs of mixed k with their seeds, and shared parameters."""
    n = draw(st.integers(1, n_max))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, d)) * rng.uniform(0.1, 50, size=d) + rng.normal(size=d)
    kind = draw(st.sampled_from(["normal", "rounded", "duplicates"]))
    if kind == "rounded":
        points = np.round(points / 20)
    elif kind == "duplicates":
        points = points[rng.integers(0, max(1, n // 5), size=n)]
    ks = draw(st.lists(st.integers(1, min(n, 9)), min_size=1, max_size=24))
    seeds = draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(ks), max_size=len(ks)))
    params = KMeansParams(
        k=ks[0], restarts=draw(st.integers(1, 5)), seed=draw(st.integers(0, 10**6)),
        tol=draw(st.sampled_from([0.0, 1e-6, 1e-3])),
        max_iters=draw(st.sampled_from([1, 3, 300])),
    )
    return np.asfortranarray(points), ks, seeds, params


@given(_lloyd_cases())
@settings(deadline=None, max_examples=150)
def test_lloyd_runs_match_single_run_oracle_bitwise(case):
    # a lockstep call, whatever k the neighbours of each run have, returns
    # each k's winner as its runs on their own give it; lloyd_fit is the
    # oracle's restart loop
    points, ks, seeds, params = case
    _assert_runs_match_oracle(points, ks, seeds, params)
    want = _oracle_lloyd_fit(points, params)
    distinct = len(np.unique(points, axis=0))
    if distinct < params.k:
        with pytest.raises(ValueError, match=f"^k={params.k} exceeds the {distinct} distinct"):
            lloyd_fit(points, params)
    else:
        assert _model_bits(lloyd_fit(points, params)) == _model_bits(want)


def test_lloyd_runs_sharing_seeds_give_each_run_its_model_alone():
    # the sweep's shape: every k from 2 to 9 with the same restart seeds,
    # on a spread table and on a duplicate-heavy one whose fits repair;
    # k-means++ draws once per seed and narrower runs take a prefix
    rng = np.random.default_rng(41)
    tables = [rng.normal(size=(150, 4)) * [1, 5, 25, 125],
              np.repeat(rng.normal(size=(6, 3)), 20, axis=0)]
    params = KMeansParams(k=2, seed=5)
    seeds = [derive_seed(5, f"restart:{r}") for r in range(4)]
    ks = [k for k in range(2, 10) for _ in seeds]
    for points in tables:
        _assert_runs_match_oracle(np.asfortranarray(points), ks, seeds * 8, params)
    # k above the table's 6 distinct rows empties k - 6 clusters in each of
    # the 300 passes, so k-means++ seeding alone reaches the repair path
    winners = kc._lloyd_runs(np.asfortranarray(tables[1]), ks, seeds * 8, params)
    assert [model.repairs for model in winners[5:]] == [300, 600, 900]


def test_choose_k_draws_k_means_pp_once_per_restart_seed(monkeypatch):
    draws = _spy(monkeypatch, "kmeanspp")
    points = np.random.default_rng(2).normal(size=(90, 3))
    choose_k(points, KMeansParams(k=10, restarts=4, seed=9))
    (_, ks, rngs), = draws
    assert ks.tolist() == [10] * 4 and len(rngs) == 4


def test_lloyd_runs_cover_repairs_wide_slabs_and_tall_inputs():
    rng = np.random.default_rng(23)
    dup = np.repeat(rng.normal(size=(4, 3)), 30, axis=0)  # 4 distinct rows, k up to 9
    wide = rng.normal(size=(300, 5)) * [1, 3, 9, 27, 81]
    tall = rng.normal(size=(kc._TALL_N + 8, 2))
    tall[::2] += [0, 4]  # two blobs, bincounted one run at a time
    cases = [(dup, list(range(2, 10)) * 2, 300),  # empty clusters repaired in a shared stack
             (wide, [k for k in range(2, 10) for _ in range(kc._COPY_SLAB_MIN // 4)], 300),
             (tall, [2, 3, 2, 3], 40), (tall, [5, 4, 2], 40)]  # dense, then screened
    for points, ks, max_iters in cases:
        points = np.asfortranarray(points)
        params = KMeansParams(k=2, max_iters=max_iters, seed=4)
        seeds = [derive_seed(9, f"run:{i}") for i in range(len(ks))]
        _assert_runs_match_oracle(points, ks, seeds, params)


@st.composite
def _screen_cases(draw):
    """Points that stress the screen's rounding (exact-tie integer grids,
    duplicated rows, a large offset with small noise, column scales from
    1e-8 to 1e8, one column), runs whose widest k is 4 to 12 with their
    seeds, and shared parameters."""
    n = draw(st.integers(12, 60))
    d = draw(st.sampled_from([1, 2, 3, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "offset", "scales"]))
    if kind == "grid":
        points = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "duplicates":
        points = rng.normal(size=(n // 4, d))[rng.integers(0, n // 4, size=n)]
    elif kind == "offset":
        points = 1e6 + rng.normal(size=(n, d)) * 1e-3
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8, 8, size=d)
    widest = draw(st.integers(4, 12))
    ks = [widest] + draw(st.lists(st.integers(1, widest), max_size=8))
    seeds = draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(ks), max_size=len(ks)))
    params = KMeansParams(
        k=widest, restarts=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)),
        tol=draw(st.sampled_from([0.0, 1e-6])), max_iters=draw(st.sampled_from([2, 300])),
    )
    return np.asfortranarray(points), ks, seeds, params


@given(_screen_cases())
@settings(deadline=None, max_examples=100)
def test_screened_labels_match_the_dense_oracle_bitwise(case):
    # as shipped, and with every stack screened (any k)
    _assert_runs_match_oracle(*case)


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``_Slabs.<name>``."""
    calls, method = [], getattr(kc._Slabs, name)

    def spy(self, *args):
        calls.append((self,) + args)
        return method(self, *args)

    monkeypatch.setattr(kc._Slabs, name, spy)
    return calls


@pytest.mark.parametrize("offset", [0.0, 1e9])
def test_exact_ties_fall_back_to_the_dense_pass(offset):
    # rows 1 and 3 are exactly as far from centres 1 and 2 as from centre 0,
    # so their screen values tie; around 1e9 the screen's squared norms also
    # round (to multiples of 128), where the exact distances do not
    centres = offset + np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [9.0, 9.0]])
    points = np.asfortranarray(offset + np.array(
        [[0.0, -1.0], [1.0, 1.0], [9.0, 8.0], [1.0, 1.0], [3.0, 0.0]]))
    want_labels, want_best = _loop_nearest(_loop_sq_dists(points, centres))
    for min_k in (kc._SCREEN_MIN_K, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kc, "_SCREEN_MIN_K", min_k)
            fallbacks = _spy(mp, "fallback")
            work, labels = kc._Slabs(points, 1, 4), np.empty((1, 5), dtype=np.intp)
            # the screen gives labels only; the exact distances come on demand
            assert work.nearest(centres[None], np.array([4]), labels) is None
        assert labels[0].tolist() == want_labels.tolist() == [0, 0, 3, 0, 1]
        assert work.exact(centres, labels)[0].tobytes() == want_best.tobytes()
        assert len(fallbacks) == 1
        rows = fallbacks[0][2].tolist()
        if offset == 0:
            assert rows == [1, 3]
        else:  # every row lies within the bound of a second centre there
            assert {1, 3} <= set(rows)


@pytest.mark.parametrize("kind", ["offset", "grid"])
def test_screened_traces_sum_the_labels_the_fallback_wrote(monkeypatch, kind):
    # the fallback corrects a row's label in the stack-row labels only, and
    # around 1e9 nearly every row falls back: each winner's trace, summed
    # after the loop from the kept labels, is still the oracle's
    rng = np.random.default_rng(12)
    if kind == "offset":
        points = 1e9 + rng.normal(size=(40, 2))
    else:  # exact ties
        points = rng.integers(-2, 3, size=(40, 3)).astype(float)
    points = np.asfortranarray(points)
    monkeypatch.setattr(kc, "_SCREEN_MIN_K", 1)
    fallbacks, passes = _spy(monkeypatch, "fallback"), _spy(monkeypatch, "nearest")
    ks, params = [1, 2, 3, 4, 5] * 2, KMeansParams(k=2, seed=3)
    seeds = [derive_seed(2, f"run:{i}") for i in range(len(ks))]
    got = kc._lloyd_runs(points, ks, seeds, params)
    fallen = sum(call[2].size for call in fallbacks)
    labelled = sum(call[3].size for call in passes)
    assert fallen > labelled / 2 if kind == "offset" else fallen > 0
    winners = {}
    for k, seed in zip(ks, seeds):
        want = _oracle_lloyd_single(points, replace(params, k=k), seed)
        if k not in winners or want.wcss < winners[k].wcss:
            winners[k] = want
    assert [(m.wcss, m.wcss_trace) for m in got] == [(m.wcss, m.wcss_trace)
                                                     for m in winners.values()]

    # the gather, point by point, on a screened pass of the same stack
    order, work = np.sort(ks)[::-1], kc._Slabs(points, len(ks), 5)  # k = 5 down to 1
    stack = work.kmeanspp(order, [np.random.default_rng(seed) for seed in seeds])
    stack[np.arange(5) >= order[:, None]] = 0.0
    labels = np.empty((len(ks), points.shape[0]), dtype=np.intp)
    fallbacks.clear()
    assert work.nearest(stack, order, labels) is None
    assert fallbacks
    got = work.exact(stack.reshape(-1, points.shape[1]), labels)
    for r, k in enumerate(order):
        d2 = _loop_sq_dists(points, stack[r, :k])
        want_labels, want = _loop_nearest(d2)
        assert (labels[r] - 5 * r).tolist() == want_labels.tolist()
        assert got[r].tobytes() == want.tobytes()


def test_only_stacks_from_k_4_take_the_screen(monkeypatch):
    screens = _spy(monkeypatch, "screen")
    points = np.random.default_rng(8).normal(size=(200, 5)) * [1, 2, 3, 4, 5]
    params = KMeansParams(k=2, max_iters=50, seed=1)
    seeds = [derive_seed(3, f"run:{i}") for i in range(8)]
    kc._lloyd_runs(np.asfortranarray(points), [2, 3, 3, 2, 1, 3, 2, 2], seeds, params)
    assert screens == []
    kc._lloyd_runs(np.asfortranarray(points), list(range(2, 10)), seeds, params)
    assert screens and all(int(ks[0]) >= 4 for _, _, ks, *_ in screens)


def test_points_far_from_the_origin_are_rejected():
    # squared spans are finite, but every squared norm overflows; the shift
    # test took norms of such centres and stopped after one iteration
    points = np.random.default_rng(4).normal(size=(40, 3))
    points[:, 1] = 1e160 + points[:, 1] * 1e150
    message = "column 1 holds 1e+160: squared norms overflow float64"
    with pytest.raises(ValueError, match=re.escape(message)):
        lloyd_fit(points, KMeansParams(k=3))
    with pytest.raises(ValueError, match=re.escape(message)):
        choose_k(points, KMeansParams(k=4))
    model = lloyd_fit(points / 1e150, KMeansParams(k=3))
    assert np.isfinite(model.wcss)


def test_squared_norms_near_the_float64_limit_take_the_dense_pass(monkeypatch):
    # every squared norm is finite (about 1.3e308) but two of them add past
    # the float64 limit, so the screen's range check itself must not warn;
    # the dense pass labels these points exactly
    screens = _spy(monkeypatch, "screen")
    rng = np.random.default_rng(6)
    points = np.asfortranarray(8e153 + rng.normal(size=(60, 2)) * 1e150)
    assert np.isfinite(np.square(points).sum(axis=1)).all()
    params = KMeansParams(k=4, seed=2)
    ks, seeds = [4, 4, 5], [derive_seed(5, f"run:{i}") for i in range(3)]
    _assert_runs_match_oracle(points, ks, seeds, params)
    assert lloyd_fit(points, params).iterations_run > 1
    assert screens == []


def test_choose_k_equals_per_k_lloyd_fit():
    # the lockstep sweep picks the k, table and model a per-k loop would
    sweeps = [
        make_blobs(40, [[0, 0], [6, 0], [0, 6], [6, 6]], spread=1.5, seed=3),
        np.round(np.random.default_rng(6).normal(size=(150, 5)) * 2),
        np.random.default_rng(5).normal(size=(300, 4)),
    ]
    for points, params in itertools.product(sweeps, (KMeansParams(k=9, restarts=3, seed=1),
                                                      KMeansParams(k=9, restarts=10, seed=7))):
        k, table, model = choose_k(points, params)
        want_table, models = [], {}
        for kk in range(2, 10):
            models[kk] = lloyd_fit(points, replace(params, k=kk))
            want_table.append((kk, silhouette_score(points, assign_many(models[kk], points))))
        assert table == want_table
        assert k == max(want_table, key=lambda row: row[1])[0]
        assert _model_bits(model) == _model_bits(models[k])


def test_assign_exact_centroid_and_ties():
    model = KMeansModel(centroids=np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]]),
                        wcss=0.0, iterations_run=1, converged=True)
    # equidistant 0 and 1 -> lowest
    assert assign_many(model, np.array([[5.0, 5.0], [1.0, 0.0]])).tolist() == [2, 0]


def test_assign_matches_brute_force():
    rng = np.random.default_rng(3)
    cents = rng.normal(size=(4, 3))
    model = KMeansModel(centroids=cents, wcss=0.0, iterations_run=1, converged=True)
    X = rng.normal(size=(20, 3))
    naive = [int(np.argmin([((x - c) ** 2).sum() for c in cents])) for x in X]
    assert assign_many(model, X).tolist() == naive


def test_assign_dimension_mismatch():
    model = KMeansModel(centroids=np.zeros((2, 3)), wcss=0.0,
                        iterations_run=1, converged=True)
    with pytest.raises(ValueError, match="expected a matrix with 3 columns"):
        assign_many(model, np.zeros((1, 2)))


def test_assign_matches_assign_many_on_every_row():
    rng = np.random.default_rng(12)
    cents = rng.normal(size=(5, 12)) * 3
    model = KMeansModel(centroids=cents, wcss=0.0, iterations_run=1, converged=True)
    # midpoints of centre pairs are near-ties, decided by rounding
    mids = (cents[:, None, :] + cents[None, :, :]).reshape(-1, 12) / 2
    X = np.concatenate([rng.normal(size=(200, 12)) * 3, mids])
    labels = assign_many(model, X)
    one = np.concatenate([assign_many(model, X[i:i + 1]) for i in range(X.shape[0])])
    assert one.tolist() == labels.tolist()


def test_silhouette_hand_oracle_line():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = np.array([0, 0, 1, 1])
    expected = (19 / 21 + 17 / 19) / 2  # per-point scores worked out by hand
    assert silhouette_score(points, labels) == pytest.approx(expected, abs=1e-9)


def test_silhouette_tight_far_pairs():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
    assert silhouette_score(points, np.array([0, 0, 1, 1])) > 0.95


def test_silhouette_single_cluster_rejected():
    with pytest.raises(ValueError, match="silhouette undefined"):
        silhouette_score(np.zeros((4, 1)), np.zeros(4, dtype=int))


def test_silhouette_needs_three_points():
    with pytest.raises(ValueError):
        silhouette_score(np.zeros((2, 1)), np.array([0, 1]))


def test_silhouette_singletons_contribute_zero():
    points = np.array([[0.0], [1.0], [50.0]])
    s = silhouette_score(points, np.array([0, 0, 1]))
    # singleton contributes 0; the other two are computed normally
    s0 = (50.0 - 1.0) / 50.0
    s1 = (49.0 - 1.0) / 49.0
    assert s == pytest.approx((s0 + s1 + 0.0) / 3, abs=1e-9)


def _loop_silhouette(points, assignment):
    """Reference silhouette: one Python iteration per point over full rows."""
    clusters = np.unique(assignment)
    sizes = {c: int(np.sum(assignment == c)) for c in clusters}
    scores = np.zeros(points.shape[0])
    for i, x in enumerate(points):
        row = np.sqrt(((points - x) ** 2).sum(axis=1))
        own = assignment[i]
        if sizes[own] == 1:
            continue
        a = row[assignment == own].sum() / (sizes[own] - 1)
        b = min(row[assignment == c].mean() for c in clusters if c != own)
        if max(a, b) > 0:
            scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def test_silhouette_matches_per_point_loop():
    rng = np.random.default_rng(23)
    for n, d, k in ((3, 1, 2), (40, 2, 3), (513, 3, 4), (1100, 5, 9)):
        points = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        labels[-1] = k  # a singleton cluster, with a label gap before it
        labels = np.where(labels == 1, 7, labels)
        assert abs(silhouette_score(points, labels) - _loop_silhouette(points, labels)) <= 1e-15
    # coincident points give a = b = 0 and contribute 0
    points = np.array([[0.0], [0.0], [0.0], [0.0]])
    assert silhouette_score(points, np.array([0, 0, 1, 1])) == 0.0


def test_silhouette_rejects_an_assignment_of_another_length():
    points = np.arange(12, dtype=float).reshape(6, 2)
    for assignment in ([0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1, 1]):
        message = f"assignment of shape ({len(assignment)},) does not match 6 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            silhouette_score(points, np.array(assignment))


def test_silhouette_rejects_distances_of_another_shape():
    points = np.arange(12, dtype=float).reshape(6, 2)
    labels = np.array([0, 0, 0, 1, 1, 1])
    for shape in ((6, 5), (5, 6), (36,)):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape} do not match 6 points")):
            silhouette_score(points, labels, distances=np.zeros(shape))


@pytest.mark.parametrize("n", [1, 2, 5, 15, 127, 128, 129, 257])
def test_distance_matrix_mirrors_the_upper_blocks_bitwise(n):
    # below 16 rows the one block is squared in a (d, m, n) block; 127 and
    # 128 rows fill one block; 129 and 257 end in a ragged block of one row
    rng = np.random.default_rng(n)
    for d in range(1, 25):
        points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
        want = np.sqrt(kc._sq_dists(points, points)).tobytes()
        for p in _layouts(points).values():
            got = kc._distance_matrix(p)
            assert got.tobytes() == want
            assert got.T.tobytes() == want  # exactly symmetric


def test_choose_k_table_equals_silhouette_without_distances():
    # 1100 rows: two full 512-row blocks of the shared matrix and a ragged one
    points = np.random.default_rng(11).normal(size=(1100, 4))
    params = KMeansParams(k=6, restarts=1, seed=2)
    _, table, _ = choose_k(points, params)
    for k, score in table:
        labels = assign_many(lloyd_fit(points, replace(params, k=k)), points)
        assert score == silhouette_score(points, labels)


def test_choose_k_winner_matches_loop_silhouette(monkeypatch):
    sweeps = [
        make_blobs(40, [[0, 0], [6, 0], [0, 6], [6, 6]], spread=1.5, seed=3),
        make_blobs(60, [[0, 0, 0], [4, 0, 0], [0, 4, 0]], spread=1.2, seed=8),
        np.random.default_rng(5).normal(size=(300, 4)),
    ]
    params = KMeansParams(k=7, restarts=2, seed=1)
    got = [choose_k(points, params)[:2] for points in sweeps]
    monkeypatch.setattr(kc, "silhouette_score",
                        lambda p, a, *, distances=None: _loop_silhouette(p, a))
    want = [choose_k(points, params)[:2] for points in sweeps]
    for (k_got, table_got), (k_want, table_want) in zip(got, want):
        assert k_got == k_want
        assert all(abs(a - b) <= 1e-15 for (_, a), (_, b) in zip(table_got, table_want))


def test_choose_k_three_blobs():
    points = make_blobs(30, [[0, 0], [12, 0], [0, 12]], spread=0.5, seed=2)
    params = KMeansParams(k=6, restarts=4, seed=0)
    k, table, model = choose_k(points, params)
    assert k == 3
    assert len(table) == 5 and table[1][0] == 3
    # the returned model is the winner's fit, identical to fitting k=3 alone
    refit = lloyd_fit(points, KMeansParams(k=3, restarts=4, seed=0))
    assert model.centroids.tobytes() == refit.centroids.tobytes()


def test_choose_k_single_candidate():
    points = make_blobs(10, [[0, 0], [8, 8]], seed=1)
    k, _, model = choose_k(points, KMeansParams(k=2, restarts=2, seed=0))
    assert k == 2 and model.k == 2


def test_choose_k_two_blobs():
    points = make_blobs(25, [[0, 0], [10, 0]], spread=0.5, seed=4)
    k, _, _ = choose_k(points, KMeansParams(k=4, restarts=4, seed=0))
    assert k == 2


def test_choose_k_tie_breaks_to_smallest(monkeypatch):
    monkeypatch.setattr(kc, "silhouette_score", lambda p, a, *, distances=None: 0.5)
    points = make_blobs(10, [[0, 0], [9, 9]], seed=0)
    k, table, model = choose_k(points, KMeansParams(k=5, restarts=2, seed=0))
    assert k == 2 and model.k == 2
    assert all(s == 0.5 for _, s in table)


def test_choose_k_sweeps_no_k_past_n_minus_1_or_the_distinct_rows():
    params = KMeansParams(k=10, restarts=2)
    four_rows = np.array([[0.0], [1.0], [3.0], [7.0]])
    assert [k for k, _ in choose_k(four_rows, params)[1]] == [2, 3]
    three_distinct = np.repeat([[0.1, 0.2], [0.3, 0.1], [0.7, 0.9]], 4, axis=0)
    assert [k for k, _ in choose_k(three_distinct, params)[1]] == [2, 3]
    # k_max bounds the sweep but never sizes it
    assert [k for k, _ in choose_k(three_distinct, replace(params, k=10**12))[1]] == [2, 3]
    with pytest.raises(ValueError, match="^k = auto needs at least 3 training rows, "
                                         "but there are 2$"):
        choose_k(four_rows[:2], params)
    with pytest.raises(ValueError, match="^k = auto needs at least 2 distinct training "
                                         "rows, but the selected columns hold 1$"):
        choose_k(np.full((5, 2), 0.1), params)


def test_choose_k_rejects_bad_range():
    points = make_blobs(5, [[0, 0]], seed=0)
    with pytest.raises(ValueError, match="^k_max must be >= 2, got 1$"):
        choose_k(points, KMeansParams(k=1))


def test_fit_classifier_posterior_smoothing(blob_dataset):
    clf = fit_classifier(blob_dataset, KMeansParams(k=2, restarts=4, seed=0))
    labels = assign_many(clf.model, np.asarray(blob_dataset.features, dtype=float))
    for j in range(2):
        members = labels == j
        pos = int(blob_dataset.labels[members].sum())
        assert clf.posteriors[j] == (pos + 1) / (int(members.sum()) + 2)
    assert (clf.posteriors.min() < 0.2) and (clf.posteriors.max() > 0.8)


def test_fit_classifier_uses_given_model(blob_dataset):
    params = KMeansParams(k=2, restarts=4, seed=0)
    X = np.asarray(blob_dataset.features, dtype=float)
    given = fit_classifier(blob_dataset, params, model=lloyd_fit(X, params))
    fitted = fit_classifier(blob_dataset, params)
    assert given.model.centroids.tobytes() == fitted.model.centroids.tobytes()
    assert given.posteriors.tobytes() == fitted.posteriors.tobytes()
    assert given.bandwidth == fitted.bandwidth


def test_fit_classifier_pure_cluster_posterior():
    # far-apart singleton-class blobs force pure clusters: 5 positives -> 6/7
    X = np.concatenate([np.zeros((5, 2)), np.full((7, 2), 50.0)])
    y = np.array([1] * 5 + [0] * 7)
    clf = fit_classifier(Dataset.numeric(X, y), KMeansParams(k=2, restarts=4, seed=0))
    assert sorted(clf.posteriors) == pytest.approx(sorted([6 / 7, 1 / 9]))


def test_fit_classifier_empty_cluster_posterior_half():
    # all-identical rows fall in one cluster; the empty one smooths to 1/2
    # (lloyd_fit rejects k = 2 on one distinct row, so the model is given)
    X = np.zeros((4, 2))
    y = np.array([1, 1, 1, 0])
    model = KMeansModel(centroids=np.array([[0.0, 0.0], [5.0, 5.0]]), wcss=0.0,
                        iterations_run=1, converged=True, wcss_trace=(0.0, 0.0))
    clf = fit_classifier(Dataset.numeric(X, y), KMeansParams(k=2, restarts=2, seed=0),
                         model=model)
    assert 0.5 in list(clf.posteriors)
    assert (3 + 1) / (4 + 2) in list(clf.posteriors)
    assert clf.bandwidth == 1.0  # zero mean distance falls back to 1


@pytest.mark.parametrize("seed", range(5))
def test_fit_classifier_posteriors_match_a_per_cluster_loop(seed):
    # 6 centroids, some far from every row, so k exceeds the labels in use
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    y = (rng.random(40) < 0.3).astype(int)
    y[:2] = [0, 1]
    centroids = np.concatenate([rng.normal(size=(3, 3)), np.full((3, 3), 100.0)])
    model = KMeansModel(centroids=centroids, wcss=0.0, iterations_run=1, converged=True)
    clf = fit_classifier(Dataset.numeric(X, y), KMeansParams(k=6), model=model)
    labels = assign_many(model, X)
    assert np.unique(labels).size < 6
    want = np.empty(6)
    for j in range(6):
        members = labels == j
        want[j] = (int(y[members].sum()) + 1) / (int(members.sum()) + 2)
    assert clf.posteriors.tobytes() == want.tobytes()


def test_fit_classifier_single_class_rejected(blob_dataset):
    import dataclasses
    bad = dataclasses.replace(blob_dataset, labels=np.zeros(blob_dataset.n, dtype=int))
    with pytest.raises(ValueError, match="both classes"):
        fit_classifier(bad, KMeansParams(k=2))


def _manual_clf(centroids, posteriors, bandwidth=1.0):
    model = KMeansModel(centroids=np.asarray(centroids, dtype=float),
                        wcss=0.0, iterations_run=1, converged=True)
    return ClusterClassifier(model=model, posteriors=np.asarray(posteriors),
                             bandwidth=bandwidth)


def test_predict_score_single_cluster_returns_posterior():
    clf = _manual_clf([[0.0, 0.0]], [0.7])
    for x in ([0.0, 0.0], [5.0, -3.0], [100.0, 100.0]):
        assert predict_scores(clf, np.array([x]))[0] == pytest.approx(0.7, abs=1e-12)


def test_predict_score_equidistant_averages():
    clf = _manual_clf([[0.0], [2.0]], [0.9, 0.3])
    assert predict_scores(clf, np.array([[1.0]]))[0] == pytest.approx(0.6, abs=1e-12)


def test_predict_score_tiny_bandwidth_limits_to_posterior():
    clf = _manual_clf([[0.0], [2.0]], [0.8, 0.4], bandwidth=1e-3)
    assert predict_scores(clf, np.array([[0.0], [2.0]])) == pytest.approx([0.8, 0.4], abs=1e-12)


def test_predict_scores_bounded_unit_interval():
    rng = np.random.default_rng(8)
    clf = _manual_clf(rng.normal(size=(3, 4)), [0.2, 0.5, 0.9], bandwidth=0.7)
    scores = predict_scores(clf, rng.normal(size=(50, 4)) * 10)
    assert (scores >= 0).all() and (scores <= 1).all()


def test_predict_score_monotone_in_posterior():
    prev = -1.0
    for p1 in (0.1, 0.3, 0.5, 0.9):
        clf = _manual_clf([[0.0], [2.0]], [0.2, p1])
        s = predict_scores(clf, np.array([[1.5]]))[0]
        assert s > prev
        prev = s


def test_predict_score_dimension_mismatch():
    clf = _manual_clf([[0.0, 0.0]], [0.5])
    with pytest.raises(ValueError, match="expected a matrix with 2 columns"):
        predict_scores(clf, np.zeros((1, 3)))


def _wide_problem(n=600, d=12):
    """A labelled matrix with d >= 8, where a summation order shows."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 20, size=d)
    y = (X[:, 0] + rng.normal(size=n) * 5 > 0).astype(int)
    return X, y


@pytest.mark.parametrize("k", [4, 9])  # k >= 8 is where a one-row sum over k turns pairwise
def test_predict_scores_are_row_exact_and_layout_free(k):
    X, y = _wide_problem()
    clf = fit_classifier(Dataset.numeric(X, y), KMeansParams(k=k, restarts=2, seed=3))
    want = predict_scores(clf, X).tobytes()
    assert predict_scores(clf, np.asfortranarray(X)).tobytes() == want
    one = np.concatenate([predict_scores(clf, X[i:i + 1]) for i in range(X.shape[0])])
    assert one.tobytes() == want
    chunks = np.concatenate([predict_scores(clf, X[i:i + 7]) for i in range(0, X.shape[0], 7)])
    assert chunks.tobytes() == want


def test_fits_are_layout_free():
    X, y = _wide_problem()
    XF = np.asfortranarray(X)
    params = KMeansParams(k=4, restarts=2, seed=3)
    a, b = lloyd_fit(X, params), lloyd_fit(XF, params)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert (a.wcss, a.wcss_trace, a.iterations_run) == (b.wcss, b.wcss_trace, b.iterations_run)
    # the bandwidth is the mean root of each row's nearest kernel distance
    sigma = np.sqrt(_loop_sq_dists(X, a.centroids).min(axis=1)).mean()
    assert fit_classifier(Dataset.numeric(X, y), params, model=a).bandwidth == sigma
    assert fit_classifier(Dataset.numeric(XF, y), params, model=a).bandwidth == sigma
    labels = assign_many(a, X)
    assert labels.tobytes() == assign_many(a, XF).tobytes()
    assert silhouette_score(X, labels) == silhouette_score(XF, labels)


def test_translation_equivariance():
    points = make_blobs(20, [[0, 0, 0], [8, 8, 8], [-8, 8, 0]], spread=0.5, seed=6)
    shift = np.array([3.5, -2.0, 11.0])
    params = KMeansParams(k=3, restarts=2, seed=13, tol=0.0, max_iters=60)
    a = lloyd_fit(points, params)
    b = lloyd_fit(points + shift, params)
    order_a = np.argsort(a.centroids[:, 0])
    order_b = np.argsort(b.centroids[:, 0])
    assert np.allclose(a.centroids[order_a] + shift, b.centroids[order_b], atol=1e-9)
    la = assign_many(a, points)
    lb = assign_many(b, points + shift)
    relabel = {int(x): int(y) for x, y in zip(order_a, order_b)}
    assert all(relabel[int(x)] == int(y) for x, y in zip(la, lb))


def test_classifier_json_round_trip(blob_dataset):
    # a classifier's JSON form is the "kmeans" section of a fold fit's dict
    clf = fit_classifier(blob_dataset, KMeansParams(k=3, restarts=3, seed=5))
    fit = FoldFit(preprocess=PreprocessReport(), selection=RfeResult(range(blob_dataset.d), ()),
                  kmeans=clf, logistic=None)
    raw = json.loads(json.dumps(fit.to_dict(blob_dataset.column_names())))
    clone = FoldFit.from_dict(raw).kmeans
    assert clone.model.centroids.tobytes() == clf.model.centroids.tobytes()
    assert clone.posteriors.tobytes() == clf.posteriors.tobytes()
    assert clone.bandwidth == clf.bandwidth
    assert (clone.model.wcss, clone.model.iterations_run, clone.model.converged) == (
        clf.model.wcss, clf.model.iterations_run, clf.model.converged)
    # k and d are the shapes of the centroids; provenance is the caller's stamp
    assert set(raw["kmeans"]) == {"centroids", "posteriors", "bandwidth", "wcss",
                                  "iterations_run", "converged"}
    x = np.asarray(blob_dataset.features, dtype=float)[:7]
    assert (predict_scores(clone, x) == predict_scores(clf, x)).all()


def test_params_validation():
    with pytest.raises(ValueError):
        KMeansParams(k=0)
    with pytest.raises(ValueError):
        KMeansParams(k=2, tol=-1.0)
    with pytest.raises(ValueError, match="^tol must be >= 0$"):
        KMeansParams(k=2, tol=float("nan"))  # no shift is below a NaN tol
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        KMeansParams(k=2, restarts=0)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        KMeansParams(k=2, max_iters=0)


def test_params_reject_infinite_tol():
    # every first move is below an infinite tol, so each run would stop there
    with pytest.raises(ValueError, match="^tol must be finite$"):
        KMeansParams(k=2, tol=float("inf"))


def test_model_centroids_read_only():
    model = KMeansModel(centroids=np.zeros((2, 2)), wcss=0.0,
                        iterations_run=1, converged=True)
    with pytest.raises(ValueError):
        model.centroids[0, 0] = 1.0
