"""Confusion metrics, ROC/AUC against a pair-count oracle, Brier forms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmeans.metrics import (
    BrierInput,
    ConfusionCounts,
    MetricBundle,
    accuracy,
    auc,
    auc_pair_count,
    brier,
    brier_binary,
    compute_bundle,
    confusion,
    f1,
    precision,
    recall,
    roc_curve,
    tpr,
)


def test_confusion_direct_count():
    cc = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (cc.tp, cc.fn, cc.tn, cc.fp) == (1, 1, 1, 1)


def test_confusion_identity_prediction():
    labels = [1, 0, 1, 1, 0]
    cc = confusion(labels, labels)
    assert cc.fp == 0 and cc.fn == 0
    assert cc.tp == 3 and cc.tn == 2


def test_confusion_inverted_prediction():
    labels = np.array([1, 0, 1, 0])
    cc = confusion(labels, 1 - labels)
    assert cc.tp == 0 and cc.tn == 0
    assert cc.fp == 2 and cc.fn == 2


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion([1, 0], [1])


def test_confusion_rejects_non_binary():
    with pytest.raises(ValueError):
        confusion([1, 2], [1, 0])


def test_metric_formulas_plug_in():
    cc = ConfusionCounts(tp=2, tn=2, fp=1, fn=0)
    assert accuracy(cc) == pytest.approx(0.8)
    assert precision(cc) == pytest.approx(2 / 3)
    assert recall(cc) == 1.0
    assert f1(cc) == pytest.approx(0.8)


def test_metrics_all_correct():
    cc = ConfusionCounts(tp=3, tn=5, fp=0, fn=0)
    assert accuracy(cc) == 1.0
    assert f1(cc) == 1.0


def test_zero_over_zero_conventions():
    assert precision(ConfusionCounts(tp=0, tn=3, fp=0, fn=1)) == 0.0
    assert f1(ConfusionCounts(tp=0, tn=3, fp=0, fn=1)) == 0.0
    assert recall(ConfusionCounts(tp=0, tn=2, fp=2, fn=0)) == 0.0


def test_empty_confusion_rejected():
    with pytest.raises(ValueError):
        accuracy(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))


counts = st.integers(min_value=0, max_value=50)


@given(tp=counts, tn=counts, fp=counts, fn=counts)
def test_recall_equals_tpr(tp, tn, fp, fn):
    if tp + tn + fp + fn == 0:
        return
    cc = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
    assert recall(cc) == tpr(cc)


@given(tp=counts, tn=counts, fp=counts, fn=counts)
def test_f1_harmonic_identity(tp, tn, fp, fn):
    if tp + tn + fp + fn == 0:
        return
    cc = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
    p, r = precision(cc), recall(cc)
    if p + r > 0:
        assert f1(cc) == 2.0 * p * r / (p + r)
    else:
        assert f1(cc) == 0.0


def test_roc_perfect_separation_passes_through_corner():
    curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert any((x, y) == (0.0, 1.0) for x, y in curve.points)
    assert auc(curve) == 1.0


def test_roc_all_scores_equal_is_diagonal():
    curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert curve.points.shape == (2, 2)
    assert (curve.points == [[0.0, 0.0], [1.0, 1.0]]).all()
    assert auc(curve) == 0.5


def test_roc_hand_oracle():
    # threshold sweep enumerated by hand for this 4-sample instance
    curve = roc_curve([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    expected = np.array([(0, 0), (0, 0.5), (0.5, 0.5), (0.5, 1), (1, 1)], dtype=float)
    assert np.allclose(curve.points, expected, atol=1e-12)
    assert auc(curve) == pytest.approx(0.75, abs=1e-12)


def test_roc_single_class_rejected():
    with pytest.raises(ValueError):
        roc_curve([0.1, 0.9], [1, 1])


def test_roc_thresholds_descend_from_infinity():
    curve = roc_curve([0.3, 0.7, 0.7, 0.1], [0, 1, 0, 1])
    assert curve.thresholds[0] == np.inf
    assert (np.diff(curve.thresholds) < 0).all()


def test_roc_curve_type_rejects_non_monotone():
    with pytest.raises(ValueError):
        from riskmeans.metrics import RocCurve
        RocCurve(points=np.array([[0, 0], [0.5, 0.8], [0.3, 0.9], [1, 1]]),
                 thresholds=np.array([np.inf, 0.8, 0.5, 0.1]))


def _random_instance(rng, with_ties=True):
    n = int(rng.integers(2, 51))
    if with_ties and rng.random() < 0.7:
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
    else:
        scores = rng.random(n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():  # ensure both classes
        labels[0] = 1 - labels[0]
    return scores, labels


def _loop_roc_curve(scores, labels):
    """The per-group loop that ``roc_curve`` replaced; the oracle for its arrays."""
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, kind="mergesort")
    labels = np.asarray(labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    s_sorted, y_sorted = scores[order], labels[order]
    cum_tp, cum_fp = np.cumsum(y_sorted == 1), np.cumsum(y_sorted == 0)
    group_end = np.flatnonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])
    pts, thr = [(0.0, 0.0)], [np.inf]
    for i in group_end:
        pts.append((cum_fp[i] / n_neg, cum_tp[i] / n_pos))
        thr.append(s_sorted[i])
    return np.array(pts), np.array(thr)


def test_roc_curve_matches_loop_oracle_on_300_tie_heavy_instances():
    rng = np.random.default_rng(77)
    for _ in range(300):
        scores, labels = _random_instance(rng)
        curve = roc_curve(scores, labels)
        pts, thr = _loop_roc_curve(scores, labels)
        assert curve.points.shape == pts.shape and curve.points.tobytes() == pts.tobytes()
        assert curve.thresholds.tobytes() == thr.tobytes()


def test_auc_matches_pair_count_oracle_on_200_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        scores, labels = _random_instance(rng)
        a = auc(roc_curve(scores, labels))
        b = auc_pair_count(scores, labels)
        assert abs(a - b) < 1e-9


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(5)
    scores, labels = _random_instance(rng, with_ties=False)
    before = auc(roc_curve(scores, labels))
    after = auc(roc_curve(np.exp(3 * scores) + 7, labels))
    assert before == pytest.approx(after, abs=1e-12)


def test_auc_sign_flip_complements():
    rng = np.random.default_rng(6)
    for _ in range(20):
        scores, labels = _random_instance(rng)
        a = auc(roc_curve(scores, labels))
        b = auc(roc_curve(-scores, labels))
        assert a + b == pytest.approx(1.0, abs=1e-9)


def test_brier_perfect_predictions_zero():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    o = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert brier(BrierInput(f=f, o=o)) == 0.0


def test_brier_half_probabilities():
    n = 6
    f = np.full((n, 2), 0.5)
    o = np.zeros((n, 2))
    o[:, 1] = 1.0
    assert brier(BrierInput(f=f, o=o)) == pytest.approx(0.5)
    assert brier_binary(np.full(n, 0.5), np.ones(n)) == pytest.approx(0.25)


def test_brier_input_validates_rows():
    with pytest.raises(ValueError):
        BrierInput(f=np.array([[0.7, 0.7]]), o=np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        BrierInput(f=np.array([[0.7, 0.3]]), o=np.array([[0.5, 0.5]]))


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=30))
@settings(deadline=None)
def test_two_class_brier_is_twice_binary(pairs):
    p = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    f = np.column_stack([1.0 - p, p])
    o = np.column_stack([1.0 - y, y]).astype(float)
    assert abs(brier(BrierInput(f=f, o=o)) - 2.0 * brier_binary(p, y)) < 1e-12


def test_compute_bundle_table_order():
    labels = np.array([1, 0, 1, 0, 1, 0])
    scores = np.array([0.9, 0.2, 0.7, 0.4, 0.3, 0.1])
    bundle = compute_bundle(labels, scores)
    assert list(bundle.as_dict()) == ["auc", "acc", "f1", "brier", "tpr"]
    cc = confusion(labels, (scores >= 0.5).astype(int))
    assert bundle.acc == accuracy(cc)
    assert bundle.tpr == tpr(cc)
    assert bundle.brier == brier_binary(scores, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compute_bundle_rejects_non_finite_scores(bad):
    # a NaN score used to give auc=0.5 and brier=nan without an error
    with pytest.raises(ValueError, match=rf"^score 1 is not finite: {bad}$"):
        compute_bundle([0, 1, 0, 1], [0.1, bad, 0.3, bad])


def test_compute_bundle_clips_finite_scores_for_brier_only():
    labels = np.array([0, 1, 0, 1])
    scores = np.array([-0.5, 1.5, 0.2, 0.7])
    bundle = compute_bundle(labels, scores)
    assert bundle.brier == brier_binary(np.clip(scores, 0.0, 1.0), labels)
    assert bundle.auc == auc(roc_curve(scores, labels)) == 1.0


def test_bundle_reference_row_shape():
    ref = MetricBundle(auc=0.768, acc=0.750, f1=0.554, brier=0.177, tpr=0.492)
    assert ref.as_dict()["acc"] == 0.750
