"""Benchmark harness: fold isolation, aggregation, rendering, fold errors."""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from riskmeans.bench_harness import (
    REFERENCE_CLAIMS,
    ComparisonResult,
    CvReport,
    FoldFit,
    PipelineConfig,
    compare_methods,
    fit_fold,
    render_comparison,
    render_report,
    roc_plot_data,
    run_pipeline,
    score_fold,
)
from riskmeans import bench_harness
from riskmeans import feature_select as fs
from riskmeans import kmeans_core as kc
from riskmeans.cv import stratified_kfold
from riskmeans.data_ingest import (
    AllMissingColumnError,
    CellParseError,
    Dataset,
    preprocess,
)
from riskmeans.feature_select import rfe
from riskmeans.metrics import MetricBundle
from riskmeans.seeding import derive_seed

from conftest import make_labeled_blobs, mixed_raw_cells


def _bench_dataset(n_per=30, seed=7):
    """Two separable blob dims plus three noise dims."""
    X, y = make_labeled_blobs(n_per, sep=4.0, d=2, spread=0.8, seed=seed)
    rng = np.random.default_rng(seed + 1)
    X = np.column_stack([X, rng.normal(size=(X.shape[0], 3))])
    return Dataset.numeric(X, y, name="bench-blobs")


def _config(**kw):
    base = dict(method="kmeans", folds=3, seed=11, rfe_target_k=3,
                kmeans_k=2, kmeans_restarts=2, kmeans_max_iters=100)
    base.update(kw)
    return PipelineConfig(**base)


def test_config_validates_method_and_folds():
    with pytest.raises(ValueError, match="valid methods"):
        PipelineConfig(method="nope")
    with pytest.raises(ValueError, match="folds"):
        PipelineConfig(folds=1)


def test_mean_is_arithmetic_mean_of_folds():
    report = run_pipeline(_bench_dataset(), _config())
    for col in ("auc", "acc", "f1", "brier", "tpr"):
        vals = [getattr(b, col) for b in report.fold_metrics]
        assert abs(getattr(report.mean, col) - sum(vals) / len(vals)) < 1e-12


def test_fold_details_structure():
    ds = _bench_dataset()
    report = run_pipeline(ds, _config())
    assert len(report.fold_metrics) == 3
    for i, det in enumerate(report.fold_details):
        assert det["fold"] == i
        assert det["train_size"] + det["test_size"] == ds.n
        assert det["chosen_k"] == 2
        assert len(det["selected_indices"]) == 3
        assert det["selected_columns"] == [ds.schema[j].name
                                           for j in det["selected_indices"]]


def test_lr_method_runs_and_separates():
    report = run_pipeline(_bench_dataset(), _config(method="lr"))
    assert report.method == "lr"
    assert report.mean.acc > 0.85
    assert all(det["chosen_k"] is None for det in report.fold_details)


def test_lr_method_separates_unscaled_large_magnitude_columns():
    # raw credit-amount and duration scales; the logistic fit must not diverge
    rng = np.random.default_rng(0)
    n = 200
    y = np.array([0, 1] * (n // 2))
    X = np.column_stack([
        3000.0 + 1500.0 * y + 1000.0 * rng.normal(size=n),
        20.0 + 8.0 * y + 10.0 * rng.normal(size=n),
        35.0 + 10.0 * rng.normal(size=n),
    ])
    ds = Dataset.numeric(X, y, name="raw-magnitudes")
    report = run_pipeline(ds, _config(method="lr", scale=False, rfe_enabled=False))
    assert report.mean.auc > 0.85
    assert all(fit.logistic.final_loss < np.log(2) for fit in report.fits)


def test_rfe_disabled_keeps_all_columns():
    report = run_pipeline(_bench_dataset(), _config(rfe_enabled=False))
    for det in report.fold_details:
        assert det["selected_indices"] == [0, 1, 2, 3, 4]


def test_auto_k_stays_in_range():
    report = run_pipeline(_bench_dataset(), _config(kmeans_k=None, kmeans_k_max=3))
    for det in report.fold_details:
        assert det["chosen_k"] in (2, 3)


def test_same_seed_reruns_identical():
    ds = _bench_dataset()
    a = run_pipeline(ds, _config())
    b = run_pipeline(ds, _config())
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)


def test_to_dict_timing_toggle():
    report = run_pipeline(_bench_dataset(n_per=15), _config())
    assert "timing" in report.to_dict(include_timing=True)
    assert "timing" not in report.to_dict(include_timing=False)
    assert set(report.timing) == {"wall_seconds", "wall_minutes"}


def test_fold_errors_carry_fold_index():
    # k larger than any training fold forces a per-fold failure
    with pytest.raises(ValueError) as info:
        run_pipeline(_bench_dataset(n_per=10), _config(kmeans_k=64))
    assert info.value.__notes__ == ["fold 0"]
    assert "fold 0" not in str(info.value)


def test_fold_error_keeps_type_and_message_all_missing():
    # held-out rows never feed imputation, so a column observed only in
    # fold 0's held-out rows is as missing to fold 0's fit as one never observed
    cfg = _config()
    plan = stratified_kfold(_bench_dataset().labels, cfg.folds, derive_seed(cfg.seed, "folds"))
    for observed in ([], plan.test_indices[0]):
        ds = _bench_dataset()
        missing = np.ones(ds.n, dtype=bool)
        missing[observed] = False
        ds.features[missing, 1] = np.nan
        with pytest.raises(AllMissingColumnError) as info:
            run_pipeline(ds, cfg)
        assert str(info.value) == str(AllMissingColumnError("f1"))
        assert info.value.column == "f1"
        assert info.value.__notes__ == ["fold 0"]


def test_fold_error_keeps_type_and_message_cell_parse(monkeypatch):
    def failing_score(fit, ds, test_indices):
        raise CellParseError(row=4, column="amount", token="x?")

    monkeypatch.setattr(bench_harness, "score_fold", failing_score)
    with pytest.raises(CellParseError) as info:
        run_pipeline(_bench_dataset(), _config())
    assert str(info.value) == str(CellParseError(row=4, column="amount", token="x?"))
    assert (info.value.row, info.value.column) == (4, "amount")
    assert info.value.__notes__ == ["fold 0"]


@pytest.mark.parametrize("scale", [True, False])
def test_fold_json_forms_score_raw_rows_as_the_fold_does(scale):
    # Every fold of a run, with k auto or fixed and the target size auto,
    # fixed or off: the fit read back from its JSON form alone scores the
    # raw rows, held-out and training, bit for bit as the fit does.
    cells, labels, schema = mixed_raw_cells(n=90, seed=3)
    ds = Dataset.from_cells(cells, labels, schema)
    names = ds.column_names()
    rows = np.arange(ds.n)
    for kmeans_k in (None, 2):
        for target in (None, 2, "off"):
            config = _config(scale=scale, kmeans_k=kmeans_k, rfe_enabled=target != "off",
                             rfe_target_k=None if target == "off" else target)
            report = run_pipeline(ds, config)
            plan = stratified_kfold(ds.labels, config.folds, derive_seed(config.seed, "folds"))
            for fit, test in zip(report.fits, plan.test_indices):
                raw = json.loads(json.dumps(fit.to_dict(names)))
                loaded = FoldFit.from_dict(raw)
                assert bool(raw["preprocess"]["means"]) is scale
                assert loaded.to_dict(names) == fit.to_dict(names)
                assert (score_fold(loaded, ds, rows)["kmeans"].tobytes()
                        == score_fold(fit, ds, rows)["kmeans"].tobytes())
                assert (score_fold(loaded, ds, test)["kmeans"].tobytes()
                        == report.oof_scores[test].tobytes())


def test_fold_fit_ignores_test_rows():
    cells, labels, schema = mixed_raw_cells(n=90, seed=3)
    ds = Dataset.from_cells(cells, labels, schema)
    plan = stratified_kfold(ds.labels, 3, seed=2)
    tr = plan.train_indices(0)
    te = plan.test_indices[0]
    config = _config(seed=5, rfe_target_k=2)

    fit1 = fit_fold(ds, tr, config, fold_seed=123)

    feat = cells.copy()
    labels = labels.copy()
    for i in te:
        feat[i, 0] = 999.0
        feat[i, 1] = -999.0
        feat[i, 2] = "weird"
    labels[te] = 1 - labels[te]
    ds2 = Dataset.from_cells(feat, labels, schema)
    assert "weird" in ds2.vocabularies[2]
    fit2 = fit_fold(ds2, tr, config, fold_seed=123)

    assert fit1.preprocess.to_json() == fit2.preprocess.to_json()
    assert fit1.selection == fit2.selection
    assert np.array_equal(fit1.kmeans.model.centroids, fit2.kmeans.model.centroids)
    assert np.array_equal(fit1.kmeans.posteriors, fit2.kmeans.posteriors)
    assert fit1.kmeans.bandwidth == fit2.kmeans.bandwidth


def test_fit_fold_reuses_sweep_winner(monkeypatch):
    # with k = auto the fold's model is the object the k sweep returned:
    # Lloyd runs before and inside the sweep (the target search's probe fits
    # and the lockstep sweep itself), never after it
    ds = _bench_dataset()
    config = _config(rfe_target_k=None, kmeans_k=None, kmeans_k_max=5)
    real_lloyd, real_choose = kc.lloyd_fit, bench_harness.choose_k
    events, swept = [], []

    def lloyd(points, params):
        events.append("lloyd_fit")
        return real_lloyd(points, params)

    def choose(*args, **kwargs):
        swept.append(real_choose(*args, **kwargs))
        events.append("choose_k")
        return swept[-1]

    monkeypatch.setattr(kc, "lloyd_fit", lloyd)
    monkeypatch.setattr(bench_harness, "choose_k", choose)
    fit = fit_fold(ds, np.arange(ds.n), config, fold_seed=5)
    assert events.count("choose_k") == 1 and events[-1] == "choose_k"
    assert "lloyd_fit" in events  # the target search's probes
    chosen_k, table, model = swept[0]
    assert [k for k, _ in table] == list(range(2, 6))
    assert fit.chosen_k == chosen_k and fit.kmeans.model is model


def test_fit_fold_runs_rfe_once_per_candidate(monkeypatch):
    # the target search's winning selection is the fold's selection: no
    # elimination runs after the search, so the only logistic fits are the
    # d - c rounds of each candidate c
    ds = _bench_dataset()
    real_rfe, real_fit = fs.rfe, fs.fit_logistic
    targets, fits = [], []

    def counting_rfe(X, y, target_k):
        targets.append(target_k)
        return real_rfe(X, y, target_k)

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(fs, "rfe", counting_rfe)
    monkeypatch.setattr(fs, "fit_logistic", counting_fit)
    fit = fit_fold(ds, np.arange(ds.n), _config(rfe_target_k=None), fold_seed=5)
    assert targets == fs.default_candidates(ds.d)
    assert len(fits) == sum(ds.d - c for c in targets)
    monkeypatch.undo()
    # the two-pass oracle: search for the size, then rerun rfe to it
    proc, _ = preprocess(ds, scale=True)
    assert fit.selection == rfe(proc.features, proc.labels, len(fit.selection.selected))


def test_rfe_off_is_one_rfe_to_every_column(monkeypatch):
    ds = _bench_dataset()
    real_rfe = bench_harness.rfe
    targets = []

    def counting_rfe(X, y, target_k):
        targets.append(target_k)
        return real_rfe(X, y, target_k)

    monkeypatch.setattr(bench_harness, "rfe", counting_rfe)
    fit = fit_fold(ds, np.arange(ds.n), _config(rfe_enabled=False), fold_seed=5)
    assert targets == [ds.d]
    assert fit.selection.selected == tuple(range(ds.d))
    assert fit.selection.elimination_trace == ()


def test_fixed_target_is_one_rfe_with_the_configured_step():
    # the configured step is PipelineConfig's fixed one column per round
    ds = _bench_dataset()
    fit = fit_fold(ds, np.arange(ds.n), _config(rfe_target_k=3), fold_seed=5)
    proc, _ = preprocess(ds, scale=True)
    assert fit.selection == rfe(proc.features, proc.labels, 3)
    assert len(fit.selection.elimination_trace) == ds.d - 3


@pytest.mark.parametrize("fixed", [{"rfe_step": 2}, {"kmeans_init": "uniform"}])
def test_pipeline_config_rejects_a_second_step_or_init(fixed):
    # both fields stay only for the reports' fingerprints; no other value runs
    with pytest.raises(ValueError, match="^rfe_step must be 1 and kmeans_init 'kmeanspp'$"):
        PipelineConfig(**fixed)


def test_auto_target_is_the_search_seeded_by_the_fold_seed():
    # on pure noise the inner folds, and so the seed, decide the size
    rng = np.random.default_rng(1)
    ds = Dataset.numeric(rng.normal(size=(60, 6)), np.tile([0, 1], 30))
    fit = fit_fold(ds, np.arange(ds.n), _config(rfe_target_k=None), fold_seed=5)
    X, y = preprocess(ds, scale=True)[0].features, ds.labels
    assert fit.selection == fs.select_target_k(X, y, derive_seed(5, "target_k"))
    assert fit.selection != fs.select_target_k(X, y, 5)


def _three_distinct_rows(n_each=20):
    """Three distinct rows, each repeated with both labels."""
    rows = np.repeat([[0.0, 1.0], [4.0, -2.0], [1.0, 5.0]], n_each, axis=0)
    return Dataset.numeric(rows, np.tile([0, 1], 3 * n_each // 2))


def test_auto_k_sweep_capped_at_distinct_rows(monkeypatch):
    real_choose = bench_harness.choose_k
    swept = []

    def choose(points, params):
        swept.append(real_choose(points, params))
        return swept[-1]

    monkeypatch.setattr(bench_harness, "choose_k", choose)
    ds = _three_distinct_rows()
    for k_max in (10, 10**12):
        swept.clear()
        fit = fit_fold(ds, np.arange(ds.n), _config(rfe_enabled=False, kmeans_k=None,
                                                    kmeans_k_max=k_max), fold_seed=3)
        assert len(swept) == 1 and [k for k, _ in swept[0][1]] == [2, 3]
        assert fit.chosen_k in (2, 3)


def test_fixed_k_above_distinct_rows_rejected():
    ds = _three_distinct_rows()
    with pytest.raises(ValueError, match="^k=5 exceeds the 3 distinct rows$"):
        fit_fold(ds, np.arange(ds.n), _config(rfe_enabled=False, kmeans_k=5), fold_seed=3)
    fit = fit_fold(ds, np.arange(ds.n), _config(rfe_enabled=False, kmeans_k=3), fold_seed=3)
    assert fit.kmeans.model.k == 3


def test_compare_methods_assembles_table():
    result = compare_methods(_bench_dataset(), ["kmeans", "lr"], _config())
    assert [m for m, _ in result.computed] == ["kmeans", "lr"]
    d = result.to_dict(include_timing=False)
    assert list(d["references"]) == ["RF", "LR", "XGBoost", "LightGBM"]
    assert {k: v for k, v in d["claims"].items() if k != "note"} == REFERENCE_CLAIMS


def test_compare_methods_rejects_bad_input():
    ds = _bench_dataset(n_per=10)
    with pytest.raises(ValueError, match="at least one"):
        compare_methods(ds, [], _config())
    with pytest.raises(ValueError, match="unknown method"):
        compare_methods(ds, ["kmeans", "svm"], _config())
    with pytest.raises(ValueError, match=r"^method 'kmeans' repeated$"):
        compare_methods(ds, ["kmeans", "lr", "kmeans"], _config())


@pytest.mark.parametrize("methods", [["kmeans", "lr"], ["lr", "kmeans"], ["lr"]])
@pytest.mark.parametrize("auto", [False, True], ids=["fixed", "auto"])
def test_compare_methods_rows_equal_separate_runs(methods, auto):
    # the shared loop fits and scores each fold once, yet every row is the
    # report its method gives run alone
    ds = _bench_dataset()
    config = _config(rfe_target_k=None, kmeans_k=None, kmeans_k_max=4) if auto else _config()
    result = compare_methods(ds, methods, replace(config, method="kmeans"))
    assert [m for m, _ in result.computed] == methods
    shared = result.computed[0][1].fits
    for m, report in result.computed:
        alone = run_pipeline(ds, replace(config, method=m))
        assert report.to_json(include_timing=False) == alone.to_json(include_timing=False)
        assert report.timing["wall_seconds"] > 0
        assert all(a is b for a, b in zip(report.fits, shared, strict=True))
    for fit in shared:  # each fold's one fit holds every method's model
        assert (fit.kmeans is not None, fit.logistic is not None) == ("kmeans" in methods,
                                                                      "lr" in methods)
        assert list(fit.fit_seconds) == methods


def test_compare_methods_fits_each_fold_state_once(monkeypatch):
    counts = {"preprocess": 0, "rfe": 0, "fit_fold": 0, "apply_report": 0}

    def counting(name):
        real = getattr(bench_harness, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(bench_harness, name, counting(name))
    result = compare_methods(_bench_dataset(), ["kmeans", "lr"], _config())
    assert counts == {"preprocess": 3, "rfe": 3, "fit_fold": 3, "apply_report": 3}
    assert [len(r.fits) for _, r in result.computed] == [3, 3]


def test_compare_methods_wall_seconds_are_each_method_run_alone(monkeypatch):
    # a method's wall_seconds holds every fold's shared state and its own
    # model fit, not the other method's fit
    real_preprocess, real_fit_kmeans = bench_harness.preprocess, bench_harness._fit_kmeans

    def slow_preprocess(*args, **kwargs):
        time.sleep(0.05)
        return real_preprocess(*args, **kwargs)

    def slow_fit_kmeans(*args, **kwargs):
        time.sleep(0.1)
        return real_fit_kmeans(*args, **kwargs)

    monkeypatch.setattr(bench_harness, "preprocess", slow_preprocess)
    monkeypatch.setattr(bench_harness, "_fit_kmeans", slow_fit_kmeans)
    result = compare_methods(_bench_dataset(), ["kmeans", "lr"], _config())
    wall = {m: r.timing["wall_seconds"] for m, r in result.computed}
    assert wall["lr"] >= 3 * 0.05
    assert wall["kmeans"] >= 3 * (0.05 + 0.1)
    assert wall["kmeans"] - wall["lr"] > 3 * 0.1 - 0.05


def test_fit_fold_fills_the_slot_of_every_method():
    ds = _bench_dataset()
    both = fit_fold(ds, np.arange(ds.n), _config(), fold_seed=5, methods=("lr", "kmeans"))
    assert list(both.fit_seconds) == ["lr", "kmeans"]
    for method in ("kmeans", "lr"):
        alone = fit_fold(ds, np.arange(ds.n), _config(method=method), fold_seed=5)
        assert both.selection == alone.selection
        assert both.preprocess.to_json() == alone.preprocess.to_json()
        if method == "kmeans":
            assert alone.logistic is None and both.chosen_k == alone.chosen_k
            assert both.kmeans.model.centroids.tobytes() == alone.kmeans.model.centroids.tobytes()
        else:
            assert alone.kmeans is None and alone.chosen_k is None
            assert both.logistic.weights.tobytes() == alone.logistic.weights.tobytes()
    with pytest.raises(ValueError, match="unknown method 'svm'"):
        fit_fold(ds, np.arange(ds.n), _config(), fold_seed=5, methods=("kmeans", "svm"))


@pytest.mark.parametrize("k", [None, 3])
def test_fold_fit_stores_k_once(k):
    ds = _bench_dataset()
    fit = fit_fold(ds, np.arange(ds.n), _config(kmeans_k=k), fold_seed=5,
                   methods=("kmeans", "lr"))
    assert fit.chosen_k == fit.kmeans.model.k
    assert k is None or fit.chosen_k == k
    assert "chosen_k" not in {f.name for f in dataclasses.fields(FoldFit)}
    with pytest.raises(AttributeError):
        fit.chosen_k = 4


@pytest.mark.parametrize("methods", [["kmeans", "lr"], ["lr", "kmeans"]])
def test_compare_methods_fold_errors_keep_type_message_and_note(methods, monkeypatch):
    # a failure in the shared state
    ds = _bench_dataset()
    ds.features[:, 1] = np.nan
    with pytest.raises(AllMissingColumnError) as info:
        compare_methods(ds, methods, _config())
    assert str(info.value) == str(AllMissingColumnError("f1"))
    assert info.value.__notes__ == ["fold 0"]
    # a failure in one method's model fit, listed first or second
    with pytest.raises(ValueError) as info:
        compare_methods(_bench_dataset(n_per=10), methods, _config(kmeans_k=64))
    assert str(info.value).startswith("k=64 exceeds the ")
    assert info.value.__notes__ == ["fold 0"]

    # a failure in scoring, past the first fold
    real_score = bench_harness.score_fold
    scored = []

    def failing_score(fit, ds, test_indices):
        scored.append(fit)
        if len(scored) == 2 and fit.logistic is not None:  # fold 1
            raise CellParseError(row=4, column="amount", token="x?")
        return real_score(fit, ds, test_indices)

    monkeypatch.setattr(bench_harness, "score_fold", failing_score)
    with pytest.raises(CellParseError) as info:
        compare_methods(_bench_dataset(), methods, _config())
    assert str(info.value) == str(CellParseError(row=4, column="amount", token="x?"))
    assert info.value.__notes__ == ["fold 1"]


def _fake_report(method, acc):
    b = MetricBundle(auc=0.5, acc=acc, f1=0.5, brier=0.2, tpr=0.5)
    return CvReport(dataset="x", method=method, n=4, d=2, fold_metrics=(b,),
                    mean=b, fold_details=(),
                    fingerprint={"config": {"seed": 0}},
                    timing={"wall_seconds": 0.0, "wall_minutes": 0.0},
                    oof_scores=np.array([0.1, 0.2, 0.8, 0.9]),
                    oof_labels=np.array([0, 0, 1, 1]))


def _fake_comparison(acc_kmeans, acc_lr):
    return ComparisonResult(
        dataset="x",
        computed=(("kmeans", _fake_report("kmeans", acc_kmeans)),
                  ("lr", _fake_report("lr", acc_lr))),
    )


def test_ranking_sorts_by_mean_accuracy():
    assert _fake_comparison(0.9, 0.7).ranking() == ["kmeans", "lr"]
    assert _fake_comparison(0.6, 0.8).ranking() == ["lr", "kmeans"]


def test_comparison_to_dict_labels_references():
    d = _fake_comparison(0.9, 0.7).to_dict(include_timing=False)
    assert d["references"]["RF"]["note"] == "published reference, not reproduced here"
    assert d["claims"]["note"] == "externally reported claim, not a target"
    assert "timing" not in d["computed"]["kmeans"]
    assert d["ranking"] == ["kmeans", "lr"]
    assert d["reference_kmeans"]["auc"] == 0.768


def test_render_report_contents():
    report = run_pipeline(_bench_dataset(), _config())
    text = render_report(report)
    assert "fold 0" in text and "mean" in text
    assert "published reference (not reproduced here)" in text
    assert "delta" in text
    assert "wall_seconds" in text
    assert "wall_seconds" not in render_report(report, include_timing=False)


def test_render_report_lr_has_no_reference_delta():
    report = run_pipeline(_bench_dataset(n_per=15), _config(method="lr"))
    text = render_report(report)
    assert "delta" not in text


def test_render_comparison_contents():
    text = render_comparison(_fake_comparison(0.9, 0.7))
    assert "published reference, not reproduced" in text
    assert "ref:K-MEANS" in text
    assert "not targets" in text
    assert "0.9461" in text and "0.8377" in text
    assert "ranking (computed, by mean accuracy): kmeans, lr" in text
    assert "measured efficiency" in text
    assert "measured efficiency" not in render_comparison(
        _fake_comparison(0.9, 0.7), include_timing=False)


def test_roc_plot_data_format():
    text = roc_plot_data(_fake_report("kmeans", 0.9))
    lines = text.strip().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[2]) == float("inf")
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0 and float(last[1]) == 1.0
    for line in lines[1:]:
        fpr_v, tpr_v, _ = (float(v) for v in line.split(","))
        assert 0.0 <= fpr_v <= 1.0 and 0.0 <= tpr_v <= 1.0
