"""Top-level acceptance gate: ten numbered checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line;
without ``-s`` the lines still appear in the captured output of failures.
Check 6 needs the fetched German credit file (scripts/fetch_datasets.py) and
reports an actionable failure when it is absent rather than silently passing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from riskmeans.bench_harness import (
    PipelineConfig,
    compare_methods,
    fit_fold,
)
from riskmeans.cli import main as cli_main
from riskmeans.cv import stratified_kfold
from riskmeans.data_ingest import Dataset, load_with_schema
from riskmeans.feature_select import logistic_loss_and_grad
from riskmeans.kmeans_core import KMeansParams, lloyd_fit
from riskmeans.metrics import (
    BrierInput,
    auc,
    auc_pair_count,
    brier,
    brier_binary,
    confusion,
    recall,
    roc_curve,
    tpr,
)
from riskmeans.mg_scanner import ScanConfig, transform_matrix

from conftest import (
    constant_scanner,
    make_labeled_blobs,
    mixed_raw_cells,
    write_toy_files,
)
from test_feature_select import finite_difference_grad

ROOT = Path(__file__).resolve().parents[1]
GERMAN_DATA = ROOT / "data" / "german.data"
GERMAN_SCHEMA = ROOT / "data" / "german.schema"


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    if not ok:
        pytest.fail(f"criterion {number}: {detail}", pytrace=False)


def test_criterion_01_scanner_output_dimensions():
    t0 = time.perf_counter()
    config = ScanConfig(input_dim=400, windows=(100, 200, 300))
    out = transform_matrix(np.zeros((1, 400)), config, constant_scanner(config))
    dims = {w: int(out[w].shape[1]) for w in (100, 200, 300)}
    elapsed = time.perf_counter() - t0
    ok = dims == {100: 1204, 200: 804, 300: 404} and elapsed < 1.0
    _verdict(1, ok, f"400-dim scan output dims {dims} "
                    f"(want 1204/804/404) in {elapsed:.3f}s, budget 1s")


def test_criterion_02_ranking_metrics_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst_auc_gap = 0.0
    worst_brier_gap = 0.0
    recall_mismatches = 0
    while checked < 200:
        n = int(rng.integers(3, 60))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 2)  # force score ties
        worst_auc_gap = max(worst_auc_gap,
                            abs(auc(roc_curve(scores, y)) - auc_pair_count(scores, y)))
        cc = confusion(y, (scores >= 0.5).astype(int))
        if recall(cc) != tpr(cc):
            recall_mismatches += 1
        f = np.column_stack([1.0 - scores, scores])
        o = np.column_stack([1 - y, y]).astype(float)
        worst_brier_gap = max(worst_brier_gap,
                              abs(brier(BrierInput(f=f, o=o))
                                  - 2.0 * brier_binary(scores, y)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = (worst_auc_gap < 1e-9 and recall_mismatches == 0
          and worst_brier_gap < 1e-12 and elapsed < 5.0)
    _verdict(2, ok, f"{checked} instances: max |auc - pair count| "
                    f"{worst_auc_gap:.2e} (tol 1e-9), recall/tpr mismatches "
                    f"{recall_mismatches}, max |2-class brier - 2x binary| "
                    f"{worst_brier_gap:.2e} (tol 1e-12), {elapsed:.2f}s, budget 5s")


def _best_two_cluster_wcss(X: np.ndarray) -> float:
    n = X.shape[0]
    best = np.inf
    for mask in range(1, 2 ** n - 1):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        total = 0.0
        for side in (X[sel], X[~sel]):
            mu = side.mean(axis=0)
            total += float(((side - mu) ** 2).sum())
        best = min(best, total)
    return best


def test_criterion_03_lloyd_matches_exhaustive_small_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    equal = 0
    min_gap = np.inf
    for i in range(100):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        model = lloyd_fit(X, KMeansParams(k=2, restarts=10, seed=i))
        gap = model.wcss - _best_two_cluster_wcss(X)
        min_gap = min(min_gap, gap)
        if abs(gap) <= 1e-9:
            equal += 1
    elapsed = time.perf_counter() - t0
    ok = min_gap >= -1e-9 and equal >= 90 and elapsed < 10.0
    _verdict(3, ok, f"100 instances (n<=8, k=2, 10 restarts): optimum matched in "
                    f"{equal} (need >= 90), worst wcss below optimum "
                    f"{min(0.0, min_gap):.2e} (floor -1e-9), {elapsed:.2f}s, budget 10s")


def test_criterion_04_objective_trace_never_increases():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst_rise = -np.inf
    for i in range(100):
        n = int(rng.integers(10, 61))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(7, n)))
        X = rng.normal(size=(n, d))
        model = lloyd_fit(X, KMeansParams(k=k, restarts=1, seed=1000 + i,
                                          tol=0.0, max_iters=40))
        trace = np.asarray(model.wcss_trace)
        assert trace.size >= 1
        if trace.size > 1:
            worst_rise = max(worst_rise, float(np.diff(trace).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_rise <= 1e-9 and elapsed < 30.0
    _verdict(4, ok, f"100 fits: largest per-iteration objective rise "
                    f"{worst_rise:.2e} (tol 1e-9), {elapsed:.2f}s, budget 30s")


def test_criterion_05_stratified_folds_exact_and_balanced():
    y = np.array([0] * 700 + [1] * 300)
    plan = stratified_kfold(y, 5, seed=123)
    fold_counts = [(int((y[te] == 0).sum()), int((y[te] == 1).sum()))
                   for te in plan.test_indices]
    exact = all(c == (140, 60) for c in fold_counts)

    balanced = True
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(40, 400))
        yv = (rng.random(n) < rng.uniform(0.15, 0.85)).astype(int)
        if min((yv == 0).sum(), (yv == 1).sum()) < 5:
            continue
        p = stratified_kfold(yv, 5, seed=int(rng.integers(1 << 30)))
        for cls in (0, 1):
            per_fold = [int((yv[te] == cls).sum()) for te in p.test_indices]
            if max(per_fold) - min(per_fold) > 1:
                balanced = False

    real = ""
    if GERMAN_DATA.exists():
        ds = load_with_schema(GERMAN_DATA, GERMAN_SCHEMA, name="german")
        rp = stratified_kfold(ds.labels, 5, seed=0)
        real_counts = [(int((ds.labels[te] == 0).sum()),
                        int((ds.labels[te] == 1).sum()))
                       for te in rp.test_indices]
        real_exact = all(c == (140, 60) for c in real_counts)
        exact = exact and real_exact
        real = f", fetched-data folds {real_counts[0]}"
    else:
        real = " (fetched-data variant skipped: data/german.data absent)"

    ok = exact and balanced
    _verdict(5, ok, f"700/300 labels -> per-fold class counts {fold_counts[0]} "
                    f"in all 5 folds (want exactly (140, 60)); random vectors "
                    f"balanced within 1 per class{real}")


def test_criterion_06_credit_benchmark_reproduces_published_range():
    t0 = time.perf_counter()
    if not GERMAN_DATA.exists():
        _verdict(6, False,
                 "data/german.data is absent; this environment has no outbound "
                 "network, so the raw file could not be fetched. Run "
                 "'python3 scripts/fetch_datasets.py' on a connected machine "
                 "(it downloads, verifies 1000 rows with a 700/300 outcome "
                 "split, and prepends the header), then rerun this suite.")
    ds = load_with_schema(GERMAN_DATA, GERMAN_SCHEMA, name="german")
    result = compare_methods(ds, ["kmeans", "lr"],
                             PipelineConfig(method="kmeans", folds=5, seed=0))
    from riskmeans.bench_harness import render_comparison
    print(render_comparison(result))
    km = dict(result.computed)["kmeans"].mean
    lr = dict(result.computed)["lr"].mean
    elapsed = time.perf_counter() - t0
    ok = (0.68 <= km.acc <= 0.80 and km.auc >= 0.65
          and abs(lr.acc - 0.730) <= 0.05 and elapsed < 120.0)
    _verdict(6, ok, f"kmeans mean acc {km.acc:.3f} (want [0.68, 0.80]), "
                    f"auc {km.auc:.3f} (want >= 0.65); lr mean acc {lr.acc:.3f} "
                    f"(want 0.730 +/- 0.05); {elapsed:.1f}s, budget 120s")


def test_criterion_07_external_claims_are_annotations_only():
    X, y = make_labeled_blobs(30, sep=4.0, d=3, spread=0.9, seed=2)
    ds = Dataset.numeric(X, y, name="blobs")
    result = compare_methods(
        ds, ["kmeans"],
        PipelineConfig(method="kmeans", folds=3, seed=1, rfe_target_k=3, kmeans_k=2,
                       kmeans_restarts=2, kmeans_max_iters=100))
    from riskmeans.bench_harness import render_comparison
    text = render_comparison(result)
    payload = result.to_dict()
    quoted = ("0.9461" in text and "0.8377" in text
              and "not targets" in text)
    labeled = payload["claims"]["note"] == "externally reported claim, not a target"
    timed = ("measured efficiency" in text
             and payload["computed"]["kmeans"]["timing"]["wall_seconds"] >= 0.0)
    refs_labeled = all(v["note"] == "published reference, not reproduced here"
                       for v in payload["references"].values())
    ok = quoted and labeled and timed and refs_labeled
    _verdict(7, ok, "reported claims rendered verbatim and labeled "
                    f"'not a target' (quoted={quoted}, labeled={labeled}); "
                    f"reference rows labeled not-reproduced ({refs_labeled}); "
                    f"efficiency measured separately ({timed})")


def test_criterion_08_same_seed_rerun_byte_identical(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    args = ["run", "--config", str(config), "--seed", "9", "--folds", "3"]
    assert cli_main(args) == 0
    out = tmp_path / "out"
    json1 = (out / "report_kmeans.json").read_bytes()
    txt1 = (out / "report_kmeans.txt").read_bytes()
    assert cli_main(args) == 0
    json2 = (out / "report_kmeans.json").read_bytes()
    txt2 = (out / "report_kmeans.txt").read_bytes()
    capsys.readouterr()

    def strip_json(raw: bytes) -> str:
        payload = json.loads(raw.decode("utf-8"))
        payload.pop("timing")
        return json.dumps(payload, indent=2, sort_keys=True)

    def strip_txt(raw: bytes) -> bytes:
        return b"\n".join(ln for ln in raw.splitlines()
                          if not ln.startswith(b"wall_"))

    json_ok = strip_json(json1) == strip_json(json2)
    txt_ok = strip_txt(txt1) == strip_txt(txt2)
    raw_differs = json1 != json2  # timing fields should make the raw bytes differ
    ok = json_ok and txt_ok
    _verdict(8, ok, f"two same-seed CLI runs: reports byte-identical once the "
                    f"timing block is dropped (json={json_ok}, text={txt_ok}; "
                    f"raw bytes differ only by timing: {raw_differs})")


def test_criterion_09_ranker_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        _, gw, gb = logistic_loss_and_grad(w, b, X, y, l2=1e-4)
        fgw, fgb = finite_difference_grad(w, b, X, y, l2=1e-4)
        worst = max(worst, float(np.abs(gw - fgw).max()), abs(gb - fgb))
    ok = worst <= 1e-6
    _verdict(9, ok, f"20 random problems: max |analytic - central difference| "
                    f"{worst:.2e} (tol 1e-6)")


def test_criterion_10_test_rows_never_shape_fitted_state():
    cells, labels, schema = mixed_raw_cells(n=90, seed=3)
    ds = Dataset.from_cells(cells, labels, schema)
    plan = stratified_kfold(ds.labels, 3, seed=2)
    tr, te = plan.train_indices(0), plan.test_indices[0]
    config = PipelineConfig(method="kmeans", folds=3, seed=5, rfe_target_k=2,
                            kmeans_k=2, kmeans_restarts=2, kmeans_max_iters=100)
    fit1 = fit_fold(ds, tr, config, fold_seed=123)

    feat = cells.copy()
    labels = labels.copy()
    for i in te:
        feat[i, 0] = 999.0
        feat[i, 1] = -999.0
        feat[i, 2] = "weird"  # a category no training row holds
    labels[te] = 1 - labels[te]
    fit2 = fit_fold(Dataset.from_cells(feat, labels, schema), tr, config, fold_seed=123)

    same = {
        "preprocess": fit1.preprocess.to_json() == fit2.preprocess.to_json(),
        "selection": fit1.selection == fit2.selection,
        "centroids": bool(np.array_equal(fit1.kmeans.model.centroids,
                                         fit2.kmeans.model.centroids)),
        "posteriors": bool(np.array_equal(fit1.kmeans.posteriors,
                                          fit2.kmeans.posteriors)),
        "bandwidth": fit1.kmeans.bandwidth == fit2.kmeans.bandwidth,
    }
    ok = all(same.values())
    _verdict(10, ok, "perturbing held-out rows leaves every train-fitted "
                     f"component bitwise unchanged: {same}")
