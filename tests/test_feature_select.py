"""Logistic ranker gradient checks, RFE behavior, and target-size selection."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmeans import feature_select
from riskmeans.data_ingest import Dataset
from riskmeans.feature_select import (
    NEWTON_MAX_STEPS,
    LogisticModel,
    _sigmoid,
    _standardize_columns,
    default_candidates,
    fit_logistic,
    logistic_loss_and_grad,
    rfe,
    select_target_k,
)
from riskmeans.kmeans_core import PROBE_PARAMS, KMeansModel, fit_classifier, predict_labels

from conftest import make_labeled_blobs


def finite_difference_grad(w, b, X, y, l2, eps=1e-6):
    gw = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += eps
        down[j] -= eps
        gw[j] = (logistic_loss_and_grad(up, b, X, y, l2)[0]
                 - logistic_loss_and_grad(down, b, X, y, l2)[0]) / (2 * eps)
    gb = (logistic_loss_and_grad(w, b + eps, X, y, l2)[0]
          - logistic_loss_and_grad(w, b - eps, X, y, l2)[0]) / (2 * eps)
    return gw, gb


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5).astype(float)
        w = rng.normal(size=3)
        b = float(rng.normal())
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2=1e-4)
        fgw, fgb = finite_difference_grad(w, b, X, y, l2=1e-4)
        assert np.abs(gw - fgw).max() < 1e-6
        assert abs(gb - fgb) < 1e-6


def test_separable_one_dimensional_data_fits_perfectly():
    X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = fit_logistic(X, y)
    assert ((model.predict_proba(X) >= 0.5) == y).all()


def _loop_sigmoid(z):
    """The masked-scatter logistic function fit_logistic used to call."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loop_fit_logistic(X, y, lr=0.1, epochs=500, l2=1e-4):
    """The fixed-step gradient descent fit_logistic used to run, as a loss reference."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w, b, n = np.zeros(X.shape[1]), 0.0, X.shape[0]
    for _ in range(epochs):
        p = _loop_sigmoid(X @ w + b)
        resid = (p - y) / n
        gw, gb = X.T @ resid + l2 * w, float(resid.sum())
        w = w - lr * gw
        b = b - lr * gb
    return w, b


def _max_gradient(model, X, y, l2=1e-4):
    _, gw, gb = logistic_loss_and_grad(model.weights, model.bias, X, y, l2)
    return max(np.abs(gw).max(), abs(gb))


@pytest.mark.parametrize("n,d,scale", [(40, 3, 1.0), (300, 8, 5.0), (800, 20, 1.0),
                                        (50, 1, 100.0)])
def test_newton_fit_is_stationary_and_beats_gd_loop(n, d, scale):
    rng = np.random.default_rng(n + d)
    X = scale * rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    model = fit_logistic(X, y)
    assert model.final_loss == logistic_loss_and_grad(model.weights, model.bias,
                                                      X, y, 1e-4)[0]
    w, b = _loop_fit_logistic(X, y)
    assert model.final_loss <= logistic_loss_and_grad(w, b, X, y, 1e-4)[0]
    assert _max_gradient(model, X, y) < 1e-8
    assert 1 <= model.iterations <= NEWTON_MAX_STEPS


def test_newton_fit_is_stationary_at_huge_margins():
    # |z| reaches about 1000, where exp(-|z|) underflows to 0
    X = np.array([[-1000.0], [-999.5], [998.0], [1000.0]])
    y = np.array([0, 0, 1, 1])
    z = np.array([-1000.0, -710.0, -1.5, -0.0, 0.0, 2.5, 745.0, 1000.0])
    assert _sigmoid(z).tobytes() == _loop_sigmoid(z).tobytes()
    model = fit_logistic(X, y)
    assert ((model.predict_proba(X) >= 0.5) == y).all()
    assert _max_gradient(model, X, y) < 1e-8


def test_newton_fit_damps_overshooting_steps():
    # one high-leverage row makes undamped Newton steps overshoot until the
    # weights saturate every probability and the Hessian is singular
    X = np.array([[520.0, 700.0], [-2.0, 4.0], [2.0, -15.0], [-4.0, -3.0],
                  [9.0, 6.0], [-11.0, -1.0], [-3.0, 3.0]])
    y = np.array([0, 1, 0, 1, 0, 1, 1])
    model = fit_logistic(X, y)
    assert ((model.predict_proba(X) >= 0.5) == y).all()
    assert _max_gradient(model, X, y) < 1e-8


def test_single_class_rejected():
    with pytest.raises(ValueError, match="single class"):
        fit_logistic(np.zeros((4, 2)), np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cell_rejected(bad):
    # a NaN gradient fails the `>= NEWTON_TOL` test, which would return zeros
    X = np.ones((4, 3))
    X[2, 1] = bad
    with pytest.raises(ValueError, match=r"^X holds a non-finite cell at row 2, column 1$"):
        fit_logistic(X, np.array([0, 1, 0, 1]))


@pytest.mark.parametrize("labels,first_bad", [([1, 2, 1, 2], "2"), ([-1, 2, -1, 2], "-1"),
                                              ([0, 1, 0.5, 1], "0.5"), ([0, 1, np.nan, 1], "nan")])
def test_labels_outside_zero_one_rejected(labels, first_bad):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError, match=rf"^training labels must be 0/1, got {first_bad}$"):
        fit_logistic(X, np.array(labels))


@pytest.mark.parametrize("start,message", [
    (np.zeros(4), r"^start must hold d \+ 1 = 5 values, got shape \(4,\)$"),
    (np.zeros((5, 1)), r"^start must hold d \+ 1 = 5 values, got shape \(5, 1\)$"),
    (np.array([0.0, np.nan, 0.0, 0.0, 0.0]), r"^start holds a non-finite value$"),
    (np.array([0.0, 0.0, 0.0, 0.0, np.inf]), r"^start holds a non-finite value$"),
])
def test_malformed_start_rejected(start, message):
    X, y = _informative_problem()
    with pytest.raises(ValueError, match=message):
        fit_logistic(X, y, start)


def test_probabilities_stay_in_open_interval():
    X = np.array([[-1000.0], [1000.0]])
    y = np.array([0, 1])
    model = fit_logistic(X, y)
    p = model.predict_proba(X)
    assert (p > 0).all() and (p < 1).all()


def test_logit_overflow_names_the_row():
    model = LogisticModel(weights=np.array([2.0, -1.0]), bias=0.5, iterations=1, final_loss=0.0)
    for row in ([1.7e308, 0.0], [-1e308, 1e308], [np.inf, 0.0], [np.inf, np.inf]):
        with pytest.raises(ValueError, match=r"^row 1: its logit overflows float64$"):
            model.predict_proba(np.array([[0.5, 0.5], row, [1.0, 1.0]]))
    assert np.isfinite(model.predict_proba(np.array([[1e300, 1e300]]))).all()


def _informative_problem(n=120, seed=0):
    """Columns: informative copy of the label, then three pure-noise columns."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = np.column_stack([
        y + 0.05 * rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
        rng.normal(size=n),
    ])
    return X, y


def test_rfe_keep_everything_is_identity():
    X, y = _informative_problem()
    result = rfe(X, y, target_k=4)
    assert result.selected == (0, 1, 2, 3)
    assert result.elimination_trace == ()


def test_rfe_finds_informative_feature():
    X, y = _informative_problem()
    result = rfe(X, y, target_k=1)
    assert result.selected == (0,)
    assert [r for r, _, _ in result.elimination_trace] == [0, 1, 2]  # one column a round
    dropped = {j for _, j, _ in result.elimination_trace}
    assert dropped == {1, 2, 3}


def test_rfe_target_out_of_range():
    X, y = _informative_problem()
    with pytest.raises(ValueError):
        rfe(X, y, target_k=0)
    with pytest.raises(ValueError):
        rfe(X, y, target_k=5)


def test_rfe_selected_size_always_target():
    X, y = _informative_problem(seed=5)
    for k in (1, 2, 3, 4):
        assert len(rfe(X, y, target_k=k).selected) == k


def test_rfe_deterministic_replay():
    X, y = _informative_problem(seed=9)
    a = rfe(X, y, target_k=2)
    b = rfe(X, y, target_k=2)
    assert a.selected == b.selected
    assert a.elimination_trace == b.elimination_trace


def test_rfe_tie_drops_highest_index():
    # column 2 is an exact copy of column 0, so their weights tie bitwise;
    # round 0 sheds the noise column, round 1 must break the tie by index
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=80)
    base = y + 0.1 * rng.normal(size=80)
    X = np.column_stack([base, rng.normal(size=80), base])
    result = rfe(X, y, target_k=1)
    assert result.elimination_trace[0][1] == 1
    assert result.elimination_trace[1][1] == 2
    assert result.selected == (0,)


def test_rfe_permutation_consistency():
    X, y = _informative_problem(seed=13)
    perm = [2, 0, 3, 1]
    direct = rfe(X, y, target_k=2).selected
    permuted = rfe(X[:, perm], y, target_k=2).selected
    mapped = tuple(sorted(perm[j] for j in permuted))
    assert mapped == direct


def test_select_target_k_single_candidate():
    # one column: the grid is [1], so the search returns rfe to that column
    X, y = _informative_problem()
    assert default_candidates(1) == [1]
    assert select_target_k(X[:, :1], y) == rfe(X[:, :1], y, target_k=1)


def test_select_target_k_finds_signal_pair():
    # two weakly informative columns along a shared diagonal: either alone
    # separates poorly, the pair separates well, big noise columns hurt
    rng = np.random.default_rng(0)
    n = 160
    y = np.array([0, 1] * (n // 2))
    s = np.where(y == 1, 1.4, -1.4)
    X = np.column_stack([
        s + 1.4 * rng.normal(size=n),
        s + 1.4 * rng.normal(size=n),
        6.0 * rng.normal(size=n),
        6.0 * rng.normal(size=n),
    ])
    assert default_candidates(4) == [1, 2, 3, 4]
    assert len(select_target_k(X, y, seed=0).selected) == 2


def test_select_target_k_tie_prefers_smaller():
    # every column is the same signal, so candidate subsets score identically
    rng = np.random.default_rng(7)
    n = 60
    y = np.array([0, 1] * (n // 2))
    base = np.where(y == 1, 3.0, -3.0) + 0.3 * rng.normal(size=n)
    X = np.column_stack([base, base])
    assert default_candidates(2) == [1, 2]
    assert len(select_target_k(X, y, seed=0).selected) == 1


def test_select_target_k_probes_one_distinct_row_with_one_cluster():
    # lloyd_fit rejects the probe's 2 clusters on one distinct row; 1 cluster
    # predicts the labels that 2 repeated centroids did, so the search goes on
    X = np.ones((30, 3))
    queries = np.array([[1.0, 1.0, 1.0], [0.0, 2.0, -1.0]])
    for y in (np.array([0, 1, 1] * 10), np.array([1, 0, 0] * 10)):
        assert len(select_target_k(X, y, seed=0).selected) == 1  # grid [1, 2, 3]
        ds = Dataset.numeric(X, y)
        repeated = KMeansModel(centroids=np.ones((2, 3)), wcss=0.0, iterations_run=1,
                               converged=True, wcss_trace=(0.0, 0.0))
        two = fit_classifier(ds, PROBE_PARAMS, model=repeated)
        one = fit_classifier(ds, replace(PROBE_PARAMS, k=1))
        assert predict_labels(two, queries).tolist() == predict_labels(one, queries).tolist()
        assert len(set(predict_labels(one, queries).tolist())) == 1


def test_select_target_k_validations():
    X, y = _informative_problem()
    with pytest.raises(ValueError, match="^no feature columns to select from$"):
        select_target_k(X[:, :0], y)
    two_positives = np.r_[1, 1, np.zeros(y.size - 2, dtype=int)]
    with pytest.raises(ValueError) as info:
        select_target_k(X, two_positives)
    assert info.value.args == ("class 1 has 2 members, fewer than k=3 folds",)
    assert info.value.__notes__ == ["target-size search (3 inner folds); a fixed target_k skips it"]


def _correlated_problem(seed=1, n=200, d=8):
    """AR(1)-correlated unit-variance columns (rho 0.6) and a noisy linear label."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n, d))
    X = np.empty((n, d))
    X[:, 0] = e[:, 0]
    for j in range(1, d):
        X[:, j] = 0.6 * X[:, j - 1] + 0.8 * e[:, j]
    y = (X @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(int)
    return X, y


def test_select_target_k_returns_rfe_to_its_own_size():
    # the winner is returned as its candidate's rfe ranked it, trace and all
    X, y = _correlated_problem()
    assert default_candidates(8) == [2, 4, 6, 8]
    winner = select_target_k(X, y, seed=0)
    assert winner == rfe(X, y, target_k=len(winner.selected))
    assert len(winner.elimination_trace) == 6  # the 2-column candidate won


def test_default_candidates_grid():
    assert default_candidates(20) == [5, 10, 15, 20]
    assert default_candidates(3) == [1, 2, 3]
    assert default_candidates(1) == [1]


def test_rfe_then_fit_on_blobs_preserves_accuracy():
    X, y = make_labeled_blobs(60, sep=5.0, d=3, seed=1)
    noisy = np.column_stack([X, np.random.default_rng(2).normal(size=(120, 2)) * 4])
    sel = rfe(noisy, y, target_k=3).selected
    assert set(sel) == {0, 1, 2}


def _standardized_problem(seed, n, d, signal):
    """Standardized n x d normal columns; labels drawn from a logistic model
    whose weights scale with ``signal``, with both classes present."""
    rng = np.random.default_rng(seed)
    X = _standardize_columns(rng.normal(size=(n, d)))
    logits = X @ (signal * rng.normal(size=d)) + rng.logistic(size=n)
    y = (logits > 0).astype(int)
    y[:2] = (0, 1)
    return X, y


def _params(model):
    return np.append(model.weights, model.bias)


def test_warm_start_at_the_optimum_takes_no_steps():
    X, y = _standardized_problem(seed=21, n=800, d=20, signal=0.5)
    cold = fit_logistic(X, y)
    warm = fit_logistic(X, y, _params(cold))
    assert warm.iterations == 0 < cold.iterations
    assert _params(warm).tobytes() == _params(cold).tobytes()
    assert warm.final_loss == cold.final_loss


@pytest.mark.parametrize("scale", [1e3, 1e300])
def test_far_out_start_is_replaced_by_zero(scale):
    # saturated probabilities leave only the ridge in H, whose bias entry is 0
    X, y = _standardized_problem(seed=4, n=100, d=4, signal=1.0)
    start = scale * np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    cold = fit_logistic(X, y)
    warm = fit_logistic(X, y, start)
    assert _params(warm).tobytes() == _params(cold).tobytes()
    assert warm.iterations == cold.iterations


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300), d=st.integers(1, 8),
       signal=st.floats(0.0, 3.0), data=st.data())
@settings(deadline=None, max_examples=100)
def test_warm_fit_reaches_the_cold_optimum(seed, n, d, signal, data):
    X, y = _standardized_problem(seed, n, d, signal)
    cold = fit_logistic(X, y)
    # any finite start, or one near the optimum as an RFE round's start is
    anywhere = st.floats(allow_nan=False, allow_infinity=False)
    start = data.draw(st.one_of(
        st.lists(anywhere, min_size=d + 1, max_size=d + 1).map(np.array),
        st.lists(st.floats(-1.0, 1.0), min_size=d + 1, max_size=d + 1).map(
            lambda offset: _params(cold) + offset)))
    warm = fit_logistic(X, y, start)
    assert _max_gradient(warm, X, y) < 1e-8
    assert np.abs(_params(warm) - _params(cold)).max() <= 1e-6 * np.abs(_params(cold)).max()


def _cold_rfe(X, y, target_k):
    """The reference loop: rfe with every round's ranker started from zero.
    Yields (dropped original index, its score, every survivor's score by
    original index, Newton steps) per round."""
    surviving = list(range(X.shape[1]))
    while len(surviving) > target_k:
        model = fit_logistic(_standardize_columns(X[:, surviving]), y)
        ranks = np.abs(model.weights)
        i = min(range(len(surviving)), key=lambda i: (ranks[i], -surviving[i]))
        yield surviving[i], float(ranks[i]), dict(zip(surviving, ranks)), model.iterations
        surviving.pop(i)


def _credit_like_table(seed, n=800, d=20):
    """Eight informative columns of falling strength, then noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 20.0, size=d)
    strength = np.zeros(d)
    strength[:8] = np.linspace(1.5, 0.1, 8)
    y = (_standardize_columns(X) @ strength + rng.logistic(size=n) > 0).astype(int)
    return X, y


@pytest.mark.parametrize("seed", range(4))
def test_warm_rfe_keeps_the_cold_drop_order(seed):
    X, y = _credit_like_table(seed)
    warm = rfe(X, y, target_k=1).elimination_trace
    cold = list(_cold_rfe(X, y, target_k=1))
    assert [j for _, j, _ in warm] == [j for j, *_ in cold]
    for (_, _, score), (_, cold_score, *_) in zip(warm, cold):
        assert abs(score - cold_score) <= 1e-6 * cold_score


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 300), d=st.integers(2, 8),
       signal=st.floats(0.0, 3.0))
@settings(deadline=None, max_examples=40)
def test_warm_rfe_differs_from_cold_only_at_near_ties(seed, n, d, signal):
    rng = np.random.default_rng(seed)
    X, y = _standardized_problem(seed, n, d, signal)
    X = X * rng.uniform(0.1, 10.0, size=d)  # rfe standardizes its rounds itself
    warm = rfe(X, y, target_k=1).elimination_trace
    for (_, j, score), (cold_j, cold_score, cold_ranks, _) in zip(warm, _cold_rfe(X, y, 1)):
        if j != cold_j:
            # the paths part only where two cold scores nearly tie; after that
            # they rank different survivor sets, so stop comparing
            assert abs(cold_ranks[j] - cold_score) <= 1e-6 * cold_ranks[j]
            break
        assert abs(score - cold_score) <= 1e-6 * cold_score


def test_warm_rfe_takes_fewer_newton_steps(monkeypatch):
    X, y = _credit_like_table(seed=0)
    steps = []

    def counting_fit(*args):
        model = fit_logistic(*args)
        steps.append(model.iterations)
        return model

    monkeypatch.setattr(feature_select, "fit_logistic", counting_fit)
    rfe(X, y, target_k=1)
    cold = [iterations for *_, iterations in _cold_rfe(X, y, 1)]
    assert len(steps) == len(cold) == X.shape[1] - 1
    assert sum(steps) < sum(cold)
