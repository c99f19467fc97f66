"""Sliding-window scanning: counting, slicing, dimension contract, classifiers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmeans.cv import stratified_kfold
from riskmeans.data_ingest import Dataset
from riskmeans.kmeans_core import (
    PROBE_PARAMS,
    KMeansParams,
    RowError,
    fit_classifier,
    predict_labels,
    predict_scores,
)
from riskmeans.mg_scanner import (
    ScanConfig,
    dump_features,
    feature_names,
    fit_window_estimators,
    scan,
    transform_matrix,
    window_count,
)
from riskmeans.seeding import derive_seed

from conftest import constant_scanner


def test_window_count_reference_values():
    assert window_count(400, 100, 1) == 301
    assert window_count(400, 400, 1) == 1
    assert window_count(400, 200, 1) == 201
    assert window_count(400, 300, 1) == 101


def test_window_count_with_stride():
    assert window_count(10, 4, 2) == 4
    assert window_count(10, 4, 3) == 3


def test_window_count_rejects_oversized_window():
    with pytest.raises(ValueError, match="exceeds"):
        window_count(100, 200, 1)


def test_scan_direct_slicing():
    out = scan(np.array([1.0, 2.0, 3.0, 4.0]), 2, 1)
    assert out.tolist() == [[1, 2], [2, 3], [3, 4]]


def test_scan_full_width_is_identity():
    x = np.array([5.0, 6.0, 7.0])
    out = scan(x, 3, 1)
    assert out.shape == (1, 3)
    assert (out[0] == x).all()


def test_scan_index_arithmetic_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=37)
    for w, s in ((5, 1), (7, 3), (10, 2)):
        out = scan(x, w, s)
        assert out.shape == (window_count(37, w, s), w)
        for i in range(out.shape[0]):
            assert (out[i] == x[i * s:i * s + w]).all()


def test_scan_matrix_windows_every_row():
    X = np.random.default_rng(6).normal(size=(4, 11))
    for w, s in ((1, 1), (3, 2), (5, 3), (11, 1)):
        out = scan(X, w, s)
        assert out.shape == (4, window_count(11, w, s), w)
        for i in range(4):
            assert out[i].tobytes() == scan(X[i], w, s).tobytes()
    with pytest.raises(ValueError, match="exceeds"):
        scan(X, 12, 1)
    with pytest.raises(ValueError):
        scan(np.float64(1.0), 1)


def test_scan_lossless_when_stride_at_most_window():
    rng = np.random.default_rng(1)
    x = rng.normal(size=20)
    for w, s in ((4, 4), (4, 2), (6, 3)):
        out = scan(x, w, s)
        covered = set()
        for i in range(out.shape[0]):
            covered.update(range(i * s, i * s + w))
        # trailing remainder shorter than a stride may be uncovered
        full_span = (out.shape[0] - 1) * s + w
        assert covered == set(range(full_span))
        assert full_span > 20 - s


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(input_dim=10, windows=(12,))
    with pytest.raises(ValueError):
        ScanConfig(input_dim=10, windows=())
    with pytest.raises(ValueError):
        ScanConfig(input_dim=10, windows=(5,), stride=0)
    with pytest.raises(ValueError):
        ScanConfig(input_dim=0, windows=(1,))
    with pytest.raises(ValueError, match=r"^window size 3 repeated$"):
        ScanConfig(input_dim=10, windows=(3, 5, 3))


def test_constant_stub_dimension_contract():
    # the published geometry: L=400, windows 100/200/300, 2 estimators, 2 classes
    config = ScanConfig(input_dim=400, windows=(100, 200, 300))
    out = transform_matrix(np.zeros((1, 400)), config, constant_scanner(config))
    assert out[100].shape == (1, 1204)
    assert out[200].shape == (1, 804)
    assert out[300].shape == (1, 404)
    for mat in out.values():
        assert (mat == 0.5).all()


@given(
    L=st.integers(min_value=2, max_value=40),
    w_frac=st.floats(min_value=0.1, max_value=1.0),
    s=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=3),
)
@settings(deadline=None, max_examples=60)
def test_output_dimension_property_sweep(L, w_frac, s, m):
    w = max(1, int(L * w_frac))
    config = ScanConfig(input_dim=L, windows=(w,), stride=s, estimators=m)
    mat = transform_matrix(np.zeros((1, L)), config, constant_scanner(config))[w]
    assert mat.shape == (1, window_count(L, w, s) * m * 2)


def test_probability_pairs_sum_to_one():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 8))
    y = np.array([0, 1] * 15)
    config = ScanConfig(input_dim=8, windows=(3,), estimators=2)
    fitted = fit_window_estimators(Dataset.numeric(X, y), config, seed=1)
    # posteriors at the ends of [0, 1] give scores s for which 1 - s rounds
    ends = [replace(clf, posteriors=np.array(p)) for clf, p in
            zip(fitted[3], ([1e-20, 3e-17], [1.0 - 2.0**-53, 1.0]))]
    for estimators in (fitted[3], ends):
        pairs = transform_matrix(X, config, {3: estimators})[3].reshape(-1, 2)
        assert np.abs(pairs.sum(axis=1) - 1.0).max() <= 2.0**-52
    assert pairs[0::2, 1].max() < 2.0**-53 and pairs[1::2, 0].min() < 2.0**-52


def test_kmeans_estimator_rejects_k_above_the_distinct_windows():
    # every window of a constant row is the same, so a table whose rows all
    # hold one value pools a single distinct window; two values pool two
    config = ScanConfig(input_dim=4, windows=(2,))
    y = np.tile([0, 1], 6)
    flat = Dataset.numeric(np.full((12, 4), 3.0), y)
    with pytest.raises(ValueError, match=r"^k=2 exceeds the 1 distinct rows$"):
        fit_window_estimators(flat, config, seed=0)
    two = Dataset.numeric(np.repeat([[0.0], [1.0]], 6, axis=0) * np.ones(4), y)
    assert [clf.model.k for clf in fit_window_estimators(two, config, seed=0)[2]] == [2, 2]


def test_kmeans_estimator_rejects_k_above_the_distinct_windows_whose_means_round():
    # windows of 0.1 average to a value a bit off 0.1, so 2 centroids fitted
    # on them can differ in their last bit and still repeat the one window
    config = ScanConfig(input_dim=4, windows=(2,))
    flat = Dataset.numeric(np.full((20, 4), 0.1), np.tile([0, 1], 10))
    with pytest.raises(ValueError, match=r"^k=2 exceeds the 1 distinct rows$"):
        fit_window_estimators(flat, config, seed=0)


def test_estimator_seeds_give_distinct_centroids():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 10))
    y = np.array([0, 1] * 20)
    config = ScanConfig(input_dim=10, windows=(4,), estimators=2)
    fitted = fit_window_estimators(Dataset.numeric(X, y), config, seed=3)
    a, b = fitted[4]
    assert not np.allclose(a.model.centroids, b.model.centroids)


def test_single_class_labels_propagate_error():
    X = np.random.default_rng(3).normal(size=(20, 6))
    y = np.zeros(20, dtype=int)
    config = ScanConfig(input_dim=6, windows=(3,))
    with pytest.raises(ValueError, match="both classes"):
        fit_window_estimators(Dataset.numeric(X, y), config, seed=0)


def test_dimension_mismatch_rejected():
    config = ScanConfig(input_dim=8, windows=(3,))
    with pytest.raises(ValueError, match="8 columns"):
        transform_matrix(np.zeros((1, 5)), config, constant_scanner(config))
    X = np.zeros((4, 5))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="input_dim"):
        fit_window_estimators(Dataset.numeric(X, y), config, seed=0)


def test_missing_fitted_estimators_rejected():
    config = ScanConfig(input_dim=8, windows=(3, 4))
    fitted = constant_scanner(ScanConfig(input_dim=8, windows=(3,)))
    with pytest.raises(ValueError, match="window size 4"):
        transform_matrix(np.zeros((1, 8)), config, fitted)


def _reference_windows(row, w, s):
    """One row's windows, sliced one at a time."""
    return np.stack([row[i * s:i * s + w] for i in range(window_count(row.size, w, s))])


def _reference_transform(X, config, fitted):
    """The per-row loop: slice one row at a time and stack each classifier's
    (1 - s, s) pairs."""
    out = {}
    for w in config.windows:
        rows = []
        for row in X:
            windows = _reference_windows(row, w, config.stride)
            scores = [predict_scores(clf, windows) for clf in fitted[w]]
            rows.append(np.stack([np.column_stack([1.0 - s, s]) for s in scores],
                                 axis=1).ravel())
        out[w] = np.array(rows).reshape(X.shape[0], config.output_dim(w))
    return out


def _fit_scanner(windows, stride, estimators):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(24, 9))
    y = np.array([0, 1] * 12)
    config = ScanConfig(input_dim=9, windows=windows, stride=stride,
                        estimators=estimators)
    fitted = fit_window_estimators(Dataset.numeric(X, y), config, seed=2)
    return X, y, config, fitted, rng.normal(size=(17, 9))


# every setting leaves at least two windows per row; see the one-window test
@pytest.mark.parametrize("windows,stride,estimators", [
    ((3,), 1, 2), ((2, 5), 2, 1), ((4, 6), 3, 3), ((8,), 1, 2),
])
def test_matrix_path_matches_per_row_loop_bitwise(windows, stride, estimators):
    X, y, config, fitted, Xt = _fit_scanner(windows, stride, estimators)
    for w in windows:
        pool = Dataset.numeric(
            np.concatenate([_reference_windows(row, w, stride) for row in X]),
            np.repeat(y, window_count(9, w, stride)))
        for e, clf in enumerate(fitted[w]):
            ref = fit_classifier(pool, replace(PROBE_PARAMS,
                                               seed=derive_seed(2, f"scan:w{w}:e{e}")))
            assert clf.model.centroids.tobytes() == ref.model.centroids.tobytes()
    got = transform_matrix(Xt, config, fitted)
    want = _reference_transform(Xt, config, fitted)
    for w in windows:
        assert got[w].shape == (17, config.output_dim(w))
        assert got[w].tobytes() == want[w].tobytes()
        assert (transform_matrix(Xt[5:6], config, fitted)[w][0].tobytes()
                == want[w][5].tobytes())


def test_one_window_per_row_matches_per_row_loop_bitwise():
    # With a single window per row the per-row loop scores one-row matrices;
    # each score depends on its own row alone, so they match the whole
    # matrix's scores bit for bit.
    for windows, stride in (((9,), 1), ((7,), 3)):
        X, y, config, fitted, Xt = _fit_scanner(windows, stride, 2)
        w = windows[0]
        got = transform_matrix(Xt, config, fitted)[w]
        want = _reference_transform(Xt, config, fitted)[w]
        assert got.tobytes() == want.tobytes()
        assert transform_matrix(Xt[5:6], config, fitted)[w][0].tobytes() == want[5].tobytes()


def test_transform_matrix_with_no_rows():
    X = np.random.default_rng(9).normal(size=(20, 6))
    y = np.array([0, 1] * 10)
    config = ScanConfig(input_dim=6, windows=(2, 6), stride=2)
    fitted = fit_window_estimators(Dataset.numeric(X, y), config, seed=0)
    out = transform_matrix(np.zeros((0, 6)), config, fitted)
    for w in config.windows:
        assert out[w].shape == (0, config.output_dim(w))


def test_transform_matrix_names_the_input_row_and_window_that_overflows():
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(40, 3)), np.array([0, 1] * 20)
    config = ScanConfig(input_dim=3, windows=(2,))
    fitted = fit_window_estimators(Dataset.numeric(X, y), config, seed=0)
    X[1, 2] = 1e200  # only window 1 of row 1 (columns 1 and 2) holds it
    with pytest.raises(RowError) as info:
        transform_matrix(X, config, fitted)
    assert str(info.value) == ("row 1, window 1: its squared distance to every centroid "
                               "overflows float64")


def test_transform_matrix_rejects_wrong_width():
    config = ScanConfig(input_dim=8, windows=(3,))
    fitted = constant_scanner(config)
    with pytest.raises(ValueError, match="8 columns"):
        transform_matrix(np.zeros((4, 5)), config, fitted)
    with pytest.raises(ValueError, match="8 columns"):
        transform_matrix(np.zeros(8), config, fitted)


def test_fit_and_transform_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 8))
    y = np.array([0, 1] * 15)
    ds = Dataset.numeric(X, y)
    config = ScanConfig(input_dim=8, windows=(3, 5))
    a = transform_matrix(X, config, fit_window_estimators(ds, config, seed=9))
    b = transform_matrix(X, config, fit_window_estimators(ds, config, seed=9))
    for w in (3, 5):
        assert (a[w] == b[w]).all()


def test_feature_names_layout():
    config = ScanConfig(input_dim=5, windows=(4,), estimators=2)
    names = feature_names(config, 4)
    assert len(names) == 2 * 2 * 2  # 2 windows x 2 estimators x 2 classes
    assert names[0] == "w4:win0:e0:c0"
    assert names[1] == "w4:win0:e0:c1"
    assert names[2] == "w4:win0:e1:c0"
    assert names[4] == "w4:win1:e0:c0"


def test_dump_features_writes_header_and_rows(tmp_path):
    config = ScanConfig(input_dim=5, windows=(4,), estimators=2)
    mat = transform_matrix(np.zeros((3, 5)), config, constant_scanner(config))[4]
    path = tmp_path / "scan.csv"
    dump_features(mat, config, 4, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(",") == feature_names(config, 4)
    assert len(lines) == 4
    assert all(float(v) == 0.5 for v in lines[1].split(","))


def _bump_sequences(n, L, seed):
    """Class 1 rows carry a localized bump at a random position."""
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    X = 0.5 * rng.normal(size=(n, L))
    for i in range(n):
        if y[i] == 1:
            p = rng.integers(0, L - 3)
            X[i, p:p + 3] += 2.5
    return X, y


def _cv_accuracy(X, y, seed, use_scanner):
    plan = stratified_kfold(y, 3, seed)
    correct = 0
    for i in range(3):
        tr, te = plan.train_indices(i), plan.test_indices[i]
        if use_scanner:
            config = ScanConfig(input_dim=X.shape[1], windows=(4,), estimators=2)
            fitted = fit_window_estimators(Dataset.numeric(X[tr], y[tr]),
                                           config, seed=seed)
            Xtr = transform_matrix(X[tr], config, fitted)[4]
            Xte = transform_matrix(X[te], config, fitted)[4]
        else:
            Xtr, Xte = X[tr], X[te]
        clf = fit_classifier(Dataset.numeric(Xtr, y[tr]),
                             KMeansParams(k=2, restarts=3, seed=seed))
        correct += int(np.sum(predict_labels(clf, Xte) == y[te]))
    return correct / len(y)


def test_scanner_preserves_downstream_accuracy():
    # position-varying bumps: window features see the bump wherever it sits,
    # raw coordinates do not, so scanning should help (and must not hurt
    # by more than 0.05)
    X, y = _bump_sequences(72, 10, seed=0)
    raw = _cv_accuracy(X, y, seed=0, use_scanner=False)
    scanned = _cv_accuracy(X, y, seed=0, use_scanner=True)
    assert scanned >= raw - 0.05
