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
from riskmeans.kmeans_core import (
    INIT_KMEANSPP,
    INIT_UNIFORM,
    ClusterClassifier,
    KMeansModel,
    KMeansParams,
    assign,
    assign_many,
    choose_k,
    classifier_from_json,
    classifier_to_json,
    fit_classifier,
    kmeanspp_init,
    lloyd_fit,
    predict_score,
    predict_scores,
    silhouette_score,
    uniform_init,
)
from riskmeans.seeding import derive_seed

from conftest import make_blobs, make_labeled_blobs, numeric_dataset


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


def test_uniform_init_distinct_rows():
    points = np.arange(10, dtype=float).reshape(10, 1)
    c = uniform_init(points, 4, np.random.default_rng(0))
    assert len(set(c[:, 0])) == 4


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
    model = lloyd_fit(points, KMeansParams(k=2, seed=0))
    assert model.wcss == 0.0
    assert model.converged and model.iterations_run == 1


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
        choose_k(wide, range(2, 4), KMeansParams(k=2))
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
    """Centroids after one Lloyd step, from lloyd_fit and from the loop."""
    params = KMeansParams(k=k, restarts=1, max_iters=1, seed=seed)
    init = kmeanspp_init(points, k, np.random.default_rng(derive_seed(seed, "restart:0")))
    d2 = ((points[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return lloyd_fit(points, params).centroids, _loop_update(points, labels, d2, k), labels


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
    time, seeded by a loop k-means++ or :func:`uniform_init`."""
    rng = np.random.default_rng(seed)
    init = _loop_kmeanspp_init if params.init == INIT_KMEANSPP else uniform_init
    centers = init(points, params.k, rng)

    trace = []
    iterations = 0
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

        shift = np.max(
            np.linalg.norm(new_centers - centers, axis=1)
            / (1.0 + np.linalg.norm(centers, axis=1))
        )
        centers = new_centers
        if shift < params.tol:
            converged = True
            break

    wcss = float(_loop_nearest(_loop_sq_dists(points, centers))[1].sum())
    trace.append(wcss)
    return KMeansModel(centroids=centers, wcss=wcss, iterations_run=iterations,
                       converged=converged, wcss_trace=tuple(trace))


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
            model.iterations_run, model.converged, model.wcss_trace)


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
        init=draw(st.sampled_from([INIT_KMEANSPP, INIT_UNIFORM])),
    )
    return np.asfortranarray(points), ks, seeds, params


@given(_lloyd_cases())
@settings(deadline=None, max_examples=150)
def test_lloyd_runs_match_single_run_oracle_bitwise(case):
    # every run of a lockstep call, whatever k its neighbours have, is the
    # run on its own; lloyd_fit is the oracle's restart loop
    points, ks, seeds, params = case
    got = kc._lloyd_runs(points, ks, seeds, params)
    for k, seed, model in zip(ks, seeds, got):
        want = _oracle_lloyd_single(points, replace(params, k=k), seed)
        assert _model_bits(model) == _model_bits(want)
    assert _model_bits(lloyd_fit(points, params)) == _model_bits(_oracle_lloyd_fit(points, params))


def test_lloyd_runs_cover_repairs_wide_slabs_and_tall_inputs():
    rng = np.random.default_rng(23)
    dup = np.repeat(rng.normal(size=(4, 3)), 30, axis=0)  # 4 distinct rows, k up to 9
    wide = rng.normal(size=(300, 5)) * [1, 3, 9, 27, 81]
    tall = rng.normal(size=(kc._TALL_N + 8, 2))
    tall[::2] += [0, 4]  # two blobs, bincounted one run at a time
    cases = [(dup, list(range(2, 10)) * 2, 300),  # empty clusters repaired in a shared stack
             (wide, [k for k in range(2, 10) for _ in range(kc._COPY_SLAB_MIN // 4)], 300),
             (tall, [2, 3, 2, 3], 40)]
    for points, ks, max_iters in cases:
        points = np.asfortranarray(points)
        params = KMeansParams(k=2, max_iters=max_iters, seed=4)
        seeds = [derive_seed(9, f"run:{i}") for i in range(len(ks))]
        for model, k, seed in zip(kc._lloyd_runs(points, ks, seeds, params), ks, seeds):
            want = _oracle_lloyd_single(points, replace(params, k=k), seed)
            assert _model_bits(model) == _model_bits(want)


def test_choose_k_equals_per_k_lloyd_fit():
    # the lockstep sweep picks the k, table and model a per-k loop would
    sweeps = [
        make_blobs(40, [[0, 0], [6, 0], [0, 6], [6, 6]], spread=1.5, seed=3),
        np.round(np.random.default_rng(6).normal(size=(150, 5)) * 2),
        np.random.default_rng(5).normal(size=(300, 4)),
    ]
    for points, params in itertools.product(sweeps, (KMeansParams(k=2, restarts=3, seed=1),
                                                      KMeansParams(k=2, restarts=10, seed=7,
                                                                   init=INIT_UNIFORM))):
        k, table, model = choose_k(points, range(2, 10), params)
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
    assert assign(model, np.array([5.0, 5.0])) == 2
    assert assign(model, np.array([1.0, 0.0])) == 0  # equidistant 0 and 1 -> lowest


def test_assign_matches_brute_force():
    rng = np.random.default_rng(3)
    cents = rng.normal(size=(4, 3))
    model = KMeansModel(centroids=cents, wcss=0.0, iterations_run=1, converged=True)
    for _ in range(20):
        x = rng.normal(size=3)
        naive = int(np.argmin([((x - c) ** 2).sum() for c in cents]))
        assert assign(model, x) == naive


def test_assign_dimension_mismatch():
    model = KMeansModel(centroids=np.zeros((2, 3)), wcss=0.0,
                        iterations_run=1, converged=True)
    with pytest.raises(ValueError):
        assign(model, np.zeros(2))


def test_assign_matches_assign_many_on_every_row():
    rng = np.random.default_rng(12)
    cents = rng.normal(size=(5, 12)) * 3
    model = KMeansModel(centroids=cents, wcss=0.0, iterations_run=1, converged=True)
    # midpoints of centre pairs are near-ties, decided by rounding
    mids = (cents[:, None, :] + cents[None, :, :]).reshape(-1, 12) / 2
    X = np.concatenate([rng.normal(size=(200, 12)) * 3, mids])
    labels = assign_many(model, X)
    assert [assign(model, x) for x in X] == labels.tolist()


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


def test_choose_k_table_equals_silhouette_without_distances():
    # 1100 rows: two full 512-row blocks of the shared matrix and a ragged one
    points = np.random.default_rng(11).normal(size=(1100, 4))
    params = KMeansParams(k=2, restarts=1, seed=2)
    _, table, _ = choose_k(points, range(2, 7), params)
    for k, score in table:
        labels = assign_many(lloyd_fit(points, replace(params, k=k)), points)
        assert score == silhouette_score(points, labels)


def test_choose_k_winner_matches_loop_silhouette(monkeypatch):
    sweeps = [
        make_blobs(40, [[0, 0], [6, 0], [0, 6], [6, 6]], spread=1.5, seed=3),
        make_blobs(60, [[0, 0, 0], [4, 0, 0], [0, 4, 0]], spread=1.2, seed=8),
        np.random.default_rng(5).normal(size=(300, 4)),
    ]
    params = KMeansParams(k=2, restarts=2, seed=1)
    got = [choose_k(points, range(2, 8), params)[:2] for points in sweeps]
    monkeypatch.setattr(kc, "silhouette_score",
                        lambda p, a, *, distances=None: _loop_silhouette(p, a))
    want = [choose_k(points, range(2, 8), params)[:2] for points in sweeps]
    for (k_got, table_got), (k_want, table_want) in zip(got, want):
        assert k_got == k_want
        assert all(abs(a - b) <= 1e-15 for (_, a), (_, b) in zip(table_got, table_want))


def test_choose_k_three_blobs():
    points = make_blobs(30, [[0, 0], [12, 0], [0, 12]], spread=0.5, seed=2)
    params = KMeansParams(k=2, restarts=4, seed=0)
    k, table, model = choose_k(points, range(2, 7), params)
    assert k == 3
    assert len(table) == 5 and table[1][0] == 3
    # the returned model is the winner's fit, identical to fitting k=3 alone
    refit = lloyd_fit(points, KMeansParams(k=3, restarts=4, seed=0))
    assert model.centroids.tobytes() == refit.centroids.tobytes()


def test_choose_k_single_candidate():
    points = make_blobs(10, [[0, 0], [8, 8]], seed=1)
    k, _, model = choose_k(points, range(2, 3), KMeansParams(k=2, restarts=2, seed=0))
    assert k == 2 and model.k == 2


def test_choose_k_two_blobs():
    points = make_blobs(25, [[0, 0], [10, 0]], spread=0.5, seed=4)
    k, _, _ = choose_k(points, range(2, 5), KMeansParams(k=2, restarts=4, seed=0))
    assert k == 2


def test_choose_k_tie_breaks_to_smallest(monkeypatch):
    monkeypatch.setattr(kc, "silhouette_score", lambda p, a, *, distances=None: 0.5)
    points = make_blobs(10, [[0, 0], [9, 9]], seed=0)
    k, table, model = choose_k(points, range(2, 6), KMeansParams(k=2, restarts=2, seed=0))
    assert k == 2 and model.k == 2
    assert all(s == 0.5 for _, s in table)


def test_choose_k_rejects_bad_range():
    points = make_blobs(5, [[0, 0]], seed=0)
    with pytest.raises(ValueError):
        choose_k(points, [], KMeansParams(k=2))
    with pytest.raises(ValueError):
        choose_k(points, range(1, 3), KMeansParams(k=2))


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
    clf = fit_classifier(numeric_dataset(X, y), KMeansParams(k=2, restarts=4, seed=0))
    assert sorted(clf.posteriors) == pytest.approx(sorted([6 / 7, 1 / 9]))


def test_fit_classifier_empty_cluster_posterior_half():
    # all-identical rows collapse to one cluster; the empty one smooths to 1/2
    X = np.zeros((4, 2))
    y = np.array([1, 1, 1, 0])
    clf = fit_classifier(numeric_dataset(X, y), KMeansParams(k=2, restarts=2, seed=0))
    assert 0.5 in list(clf.posteriors)
    assert (3 + 1) / (4 + 2) in list(clf.posteriors)
    assert clf.bandwidth == 1.0  # zero mean distance falls back to 1


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
        assert predict_score(clf, np.array(x)) == pytest.approx(0.7, abs=1e-12)


def test_predict_score_equidistant_averages():
    clf = _manual_clf([[0.0], [2.0]], [0.9, 0.3])
    assert predict_score(clf, np.array([1.0])) == pytest.approx(0.6, abs=1e-12)


def test_predict_score_tiny_bandwidth_limits_to_posterior():
    clf = _manual_clf([[0.0], [2.0]], [0.8, 0.4], bandwidth=1e-3)
    assert predict_score(clf, np.array([0.0])) == pytest.approx(0.8, abs=1e-12)
    assert predict_score(clf, np.array([2.0])) == pytest.approx(0.4, abs=1e-12)


def test_predict_scores_bounded_unit_interval():
    rng = np.random.default_rng(8)
    clf = _manual_clf(rng.normal(size=(3, 4)), [0.2, 0.5, 0.9], bandwidth=0.7)
    scores = predict_scores(clf, rng.normal(size=(50, 4)) * 10)
    assert (scores >= 0).all() and (scores <= 1).all()


def test_predict_score_monotone_in_posterior():
    prev = -1.0
    for p1 in (0.1, 0.3, 0.5, 0.9):
        clf = _manual_clf([[0.0], [2.0]], [0.2, p1])
        s = predict_score(clf, np.array([1.5]))
        assert s > prev
        prev = s


def test_predict_score_dimension_mismatch():
    clf = _manual_clf([[0.0, 0.0]], [0.5])
    with pytest.raises(ValueError):
        predict_score(clf, np.zeros(3))


def _wide_problem(n=600, d=12):
    """A labelled matrix with d >= 8, where a summation order shows."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 20, size=d)
    y = (X[:, 0] + rng.normal(size=n) * 5 > 0).astype(int)
    return X, y


@pytest.mark.parametrize("k", [4, 9])  # k >= 8 is where a one-row sum over k turns pairwise
def test_predict_scores_are_row_exact_and_layout_free(k):
    X, y = _wide_problem()
    clf = fit_classifier(numeric_dataset(X, y), KMeansParams(k=k, restarts=2, seed=3))
    want = predict_scores(clf, X).tobytes()
    assert predict_scores(clf, np.asfortranarray(X)).tobytes() == want
    one = np.concatenate([predict_scores(clf, X[i:i + 1]) for i in range(X.shape[0])])
    assert one.tobytes() == want
    assert np.array([predict_score(clf, x) for x in X]).tobytes() == want
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
    assert fit_classifier(numeric_dataset(X, y), params, model=a).bandwidth == sigma
    assert fit_classifier(numeric_dataset(XF, y), params, model=a).bandwidth == sigma
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
    clf = fit_classifier(blob_dataset, KMeansParams(k=3, restarts=3, seed=5))
    text = classifier_to_json(clf, seed=5, config_hash="abc123")
    clone = classifier_from_json(text)
    assert (clone.model.centroids == clf.model.centroids).all()
    assert (clone.posteriors == clf.posteriors).all()
    assert clone.bandwidth == clf.bandwidth
    raw = json.loads(text)
    assert raw["seed"] == 5 and raw["config_hash"] == "abc123"
    assert "threshold" not in raw
    x = np.asarray(blob_dataset.features, dtype=float)[:7]
    assert (predict_scores(clone, x) == predict_scores(clf, x)).all()


def test_params_validation():
    with pytest.raises(ValueError):
        KMeansParams(k=0)
    with pytest.raises(ValueError):
        KMeansParams(k=2, tol=-1.0)
    with pytest.raises(ValueError):
        KMeansParams(k=2, init="fancy")
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        KMeansParams(k=2, restarts=0)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        KMeansParams(k=2, max_iters=0)


def test_model_centroids_read_only():
    model = KMeansModel(centroids=np.zeros((2, 2)), wcss=0.0,
                        iterations_run=1, converged=True)
    with pytest.raises(ValueError):
        model.centroids[0, 0] = 1.0
