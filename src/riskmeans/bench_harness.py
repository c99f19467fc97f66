"""Stratified cross-validation benchmark harness.

Each fold is fitted strictly on its training indices: imputation values,
category codes, standardization moments, the RFE selection, and the model
itself all come from train rows only, and the held-out rows are transformed
by replaying the recorded preprocessing. That makes the no-leakage property
structural rather than accidental: :func:`fit_fold` never receives test rows.

One cross-validation loop serves :func:`run_pipeline` (one method) and
:func:`compare_methods` (several). The fold plan and each fold's seed come
from the config's seed alone, and neither preprocessing nor feature
selection reads the method, so each fold is fitted once, by one
:func:`fit_fold` call holding every method's model, and its held-out rows
are replayed once, by one :func:`score_fold` call that every model scores.
A method's report is therefore the one it gets when run alone.

Reports carry per-fold and mean metrics, the full config fingerprint needed
to re-run identically, and wall-clock timing kept in a separate field so that
same-seed reruns are byte-identical once timing is excluded. A method's
``wall_seconds`` is each fold's elapsed time less the other methods' model
fits: what it would cost run alone, up to the other models' predict calls.

The comparison table surfaces transcribed results from prior published
benchmarks on the same datasets alongside the computed rows; those reference
rows are annotations only, never targets, and are labeled as not reproduced
here.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cv import FoldPlan, stratified_kfold
from .data_ingest import Dataset, PreprocessReport, apply_report, preprocess
from .feature_select import LogisticModel, RfeResult, fit_logistic, rfe, select_target_k
from .kmeans_core import (
    ClusterClassifier,
    KMeansModel,
    KMeansParams,
    RowError,
    choose_k,
    fit_classifier,
    predict_scores,
)
from .metrics import MetricBundle, compute_bundle, roc_curve
from .seeding import derive_seed

METHODS = ("kmeans", "lr")
_COLS = tuple(f.name for f in dataclasses.fields(MetricBundle))  # table column order

# Results transcribed from previously published benchmarks on the German
# credit data, in MetricBundle's column order. Shown in comparison
# tables for context only; nothing in this package tries to reproduce the
# tree-ensemble rows, and none of these numbers is a test target.
REFERENCE_ROWS = (
    ("RF", MetricBundle(auc=0.741, acc=0.730, f1=0.449, brier=0.188, tpr=0.350)),
    ("LR", MetricBundle(auc=0.746, acc=0.730, f1=0.463, brier=0.187, tpr=0.397)),
    ("XGBoost", MetricBundle(auc=0.755, acc=0.705, f1=0.352, brier=0.182, tpr=0.254)),
    ("LightGBM", MetricBundle(auc=0.756, acc=0.715, f1=0.412, brier=0.178, tpr=0.317)),
)

# Published counterpart for the computed K-means row, used for side-by-side
# deltas in rendered reports.
REFERENCE_KMEANS = MetricBundle(auc=0.768, acc=0.750, f1=0.554, brier=0.177, tpr=0.492)

# Externally reported aggregate claims (average accuracy and wall minutes).
# The accuracy figure is inconsistent with the per-dataset table above, so it
# is rendered as a quoted claim, never compared against.
REFERENCE_CLAIMS = {
    "kmeans_avg_accuracy": 0.9461,
    "best_other_avg_accuracy": 0.8377,
    "kmeans_minutes": 3.0,
    "best_other_minutes": 8.0,
}


def check_methods(methods) -> None:
    """Raise ValueError for an unknown or a repeated method."""
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; valid methods: {', '.join(METHODS)}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} repeated")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that determines a cross-validated run, minus the dataset."""

    method: str = "kmeans"
    folds: int = 5
    seed: int = 0
    scale: bool = True
    rfe_enabled: bool = True
    rfe_target_k: int | None = None  # None -> pick by internal CV
    rfe_step: int = 1
    kmeans_k: int | None = None      # None -> silhouette sweep
    kmeans_k_max: int = 10
    kmeans_restarts: int = KMeansParams.restarts
    kmeans_max_iters: int = KMeansParams.max_iters
    kmeans_tol: float = KMeansParams.tol
    kmeans_init: str = KMeansParams.init

    def __post_init__(self):
        check_methods((self.method,))
        if self.folds < 2:
            raise ValueError("folds must be >= 2")

    def fingerprint(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class FoldFit:
    """All state fitted on one training fold; test rows never touch it.

    The preprocessing report and the selection are shared by every model the
    fit holds: one per method it was asked for, and each method's report
    holds this one fit. ``fit_seconds`` is the wall time of each model's own
    fit, by method, in the order they were fitted.
    """

    preprocess: PreprocessReport
    selection: RfeResult
    kmeans: ClusterClassifier | None
    logistic: LogisticModel | None
    fit_seconds: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def chosen_k(self) -> int | None:
        """The k of the k-means model, None without one."""
        return None if self.kmeans is None else self.kmeans.model.k

    def to_dict(self, names) -> dict:
        """The preprocessing, the selection (its columns named by ``names``,
        the dataset's column names) and the k-means model, when there is one,
        as JSON-ready values that :meth:`from_dict` reads back bit for bit.
        The lr model is not written."""
        sel = self.selection
        out = {
            "preprocess": dataclasses.asdict(self.preprocess),
            "selection": {
                "selected_indices": list(sel.selected),
                "selected_columns": [names[j] for j in sel.selected],
                "elimination_trace": [
                    {"round": r, "dropped_index": j, "dropped_column": names[j], "score": s}
                    for r, j, s in sel.elimination_trace],
            },
        }
        if self.kmeans is not None:
            model = self.kmeans.model
            out["kmeans"] = {
                "centroids": model.centroids.tolist(),
                "posteriors": self.kmeans.posteriors.tolist(),
                "bandwidth": self.kmeans.bandwidth,
                "wcss": model.wcss,
                "iterations_run": model.iterations_run,
                "converged": model.converged,
            }
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "FoldFit":
        """The fit :meth:`to_dict` wrote, ``kmeans`` None where it holds none."""
        sel, km = raw["selection"], raw.get("kmeans")
        trace = [(e["round"], e["dropped_index"], e["score"]) for e in sel["elimination_trace"]]
        kmeans = None if km is None else ClusterClassifier(
            model=KMeansModel(centroids=np.array(km["centroids"], dtype=float), wcss=km["wcss"],
                              iterations_run=km["iterations_run"], converged=km["converged"]),
            posteriors=np.array(km["posteriors"], dtype=float), bandwidth=km["bandwidth"])
        return cls(preprocess=PreprocessReport(**raw["preprocess"]),
                   selection=RfeResult(sel["selected_indices"], trace),
                   kmeans=kmeans, logistic=None)


def _subset(ds: Dataset, indices: np.ndarray) -> Dataset:
    return dataclasses.replace(
        ds, features=ds.features[indices], labels=ds.labels[indices]
    )


def _fit_kmeans(train: Dataset, config: PipelineConfig,
                fold_seed: int) -> ClusterClassifier:
    """The cluster classifier of the fixed k, or of the k = auto sweep to ``kmeans_k_max``."""
    auto = config.kmeans_k is None
    params = KMeansParams(
        k=config.kmeans_k_max if auto else config.kmeans_k,
        max_iters=config.kmeans_max_iters, tol=config.kmeans_tol,
        restarts=config.kmeans_restarts,
        seed=derive_seed(fold_seed, "kmeans"), init=config.kmeans_init,
    )
    return fit_classifier(train, params,
                          model=choose_k(train.features, params)[2] if auto else None)


def fit_fold(ds: Dataset, train_indices: np.ndarray, config: PipelineConfig,
             fold_seed: int, *, methods=None) -> FoldFit:
    """Fit preprocessing and the selection on train rows only, then a model
    for each of ``methods`` (default ``(config.method,)``), in the order
    given, on that shared state. The selection, by ``config.rfe_step``, is
    rfe to every column with rfe off, rfe to a fixed ``rfe_target_k``, or for
    ``None`` the :func:`select_target_k` winner seeded (fold_seed, "target_k").

    Neither the preprocessing nor the selection reads the method, so each
    model is the one a fit for its method alone would give.
    """
    methods = (config.method,) if methods is None else tuple(methods)
    check_methods(methods)
    train_raw = _subset(ds, train_indices)
    train_proc, report = preprocess(train_raw, scale=config.scale)
    X, y = train_proc.features, train_proc.labels

    target_k = config.rfe_target_k if config.rfe_enabled else X.shape[1]
    if target_k is None:
        selection = select_target_k(X, y, derive_seed(fold_seed, "target_k"), config.rfe_step)
    else:
        selection = rfe(X, y, target_k, config.rfe_step)
    train = Dataset.numeric(X[:, selection.selected], y)

    fit = FoldFit(preprocess=report, selection=selection, kmeans=None, logistic=None)
    for method in methods:
        start = time.perf_counter()
        if method == "kmeans":
            fit.kmeans = _fit_kmeans(train, config, fold_seed)
        else:
            fit.logistic = fit_logistic(train.features, y)
        fit.fit_seconds[method] = time.perf_counter() - start
    return fit


def score_fold(fit: FoldFit, ds: Dataset, test_indices: np.ndarray) -> dict:
    """``{method: scores}`` of the held-out rows by every model the fit holds.
    The rows are replayed once, through the fit's own preprocessing and
    selected columns, and each model scores them. A row that fails to score
    raises :class:`RowError` naming its row of ``ds`` counted from 1, as
    ingest errors count data rows."""
    Xt = apply_report(_subset(ds, test_indices), fit.preprocess).features[:, fit.selection.selected]
    models = {"kmeans": fit.kmeans, "lr": fit.logistic}
    try:
        return {m: predict_scores(model, Xt) if m == "kmeans" else model.predict_proba(Xt)
                for m, model in models.items() if model is not None}
    except RowError as exc:
        raise RowError(int(test_indices[exc.row]) + 1, exc.reason) from None


@dataclass
class CvReport:
    """Cross-validation outcome: per-fold metrics, their mean, provenance."""

    dataset: str
    method: str
    n: int
    d: int
    fold_metrics: tuple
    mean: MetricBundle
    fold_details: tuple
    fingerprint: dict
    timing: dict
    oof_scores: np.ndarray
    oof_labels: np.ndarray
    fits: tuple = field(default=(), repr=False)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "dataset": self.dataset,
            "method": self.method,
            "n": self.n,
            "d": self.d,
            "folds": [b.as_dict() for b in self.fold_metrics],
            "mean": self.mean.as_dict(),
            "fold_details": list(self.fold_details),
            "fingerprint": self.fingerprint,
            "oof_scores": [float(v) for v in self.oof_scores],
            "oof_labels": [int(v) for v in self.oof_labels],
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _mean_bundle(bundles) -> MetricBundle:
    return MetricBundle(**{c: sum(getattr(b, c) for b in bundles) / len(bundles)
                           for c in _COLS})


def _cross_validate(ds: Dataset, methods: tuple,
                    config: PipelineConfig) -> dict[str, CvReport]:
    """One cross-validation loop for every method in ``methods``.

    Each fold is fitted once by :func:`fit_fold`, with a model per method,
    and its test rows are scored once by :func:`score_fold`, by every model.
    A method's ``wall_seconds`` adds, over the folds, the fold's elapsed time
    less the other methods' model fits: what the method costs run alone.
    """
    plan = stratified_kfold(ds.labels, config.folds, derive_seed(config.seed, "folds"))
    results = []
    wall = dict.fromkeys(methods, 0.0)
    for i in range(plan.k):
        try:
            start = time.perf_counter()
            fold_seed = derive_seed(config.seed, f"fold:{i}")
            fit = fit_fold(ds, plan.train_indices(i), config, fold_seed, methods=methods)
            results.append((fit, score_fold(fit, ds, plan.test_indices[i])))
        except Exception as exc:
            exc.add_note(f"fold {i}")
            raise
        shared = time.perf_counter() - start - sum(fit.fit_seconds.values())
        for m in methods:
            wall[m] += shared + fit.fit_seconds[m]
    return {m: _report(ds, replace(config, method=m), plan, results, wall[m])
            for m in methods}


def _report(ds: Dataset, config: PipelineConfig, plan: FoldPlan, results: list,
            wall: float) -> CvReport:
    """The report of ``config.method`` from the folds' shared fits and scores."""
    bundles = []
    details = []
    oof_scores = np.empty(ds.n)
    for i, (fit, scores) in enumerate(results):
        test_idx = plan.test_indices[i]
        bundles.append(compute_bundle(ds.labels[test_idx], scores[config.method]))
        oof_scores[test_idx] = scores[config.method]
        details.append({
            "fold": i,
            "train_size": int(ds.n - test_idx.size),
            "test_size": int(test_idx.size),
            "selected_columns": [ds.schema[j].name for j in fit.selection.selected],
            "selected_indices": list(fit.selection.selected),
            "chosen_k": fit.chosen_k if config.method == "kmeans" else None,
        })

    fingerprint = {
        "config": config.fingerprint(),
        "dataset": ds.name,
        "n": ds.n,
        "d": ds.d,
        "fold_seed_root": config.seed,
    }
    return CvReport(
        dataset=ds.name,
        method=config.method,
        n=ds.n,
        d=ds.d,
        fold_metrics=tuple(bundles),
        mean=_mean_bundle(bundles),
        fold_details=tuple(details),
        fingerprint=fingerprint,
        timing={"wall_seconds": wall, "wall_minutes": wall / 60.0},
        oof_scores=oof_scores,
        oof_labels=ds.labels.copy(),  # every row lies in exactly one test fold
        fits=tuple(fit for fit, _ in results),
    )


def run_pipeline(ds: Dataset, config: PipelineConfig) -> CvReport:
    """Cross-validate one method on one dataset.

    Folds run in index order. An error inside a fold propagates with its type
    and message unchanged and a ``fold <i>`` note added.
    """
    return _cross_validate(ds, (config.method,), config)[config.method]


@dataclass
class ComparisonResult:
    """Computed rows; reports show REFERENCE_ROWS and REFERENCE_CLAIMS beside them."""

    dataset: str
    computed: tuple      # (method, CvReport)

    def ranking(self) -> list[str]:
        """Computed methods, best mean accuracy first."""
        return [m for m, _ in sorted(self.computed,
                                     key=lambda mr: -mr[1].mean.acc)]

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "dataset": self.dataset,
            "computed": {m: r.to_dict(include_timing) for m, r in self.computed},
            "references": {
                m: dict(b.as_dict(), note="published reference, not reproduced here")
                for m, b in REFERENCE_ROWS
            },
            "reference_kmeans": REFERENCE_KMEANS.as_dict(),
            "claims": dict(REFERENCE_CLAIMS,
                           note="externally reported claim, not a target"),
            "ranking": self.ranking(),
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def compare_methods(ds: Dataset, methods, config: PipelineConfig) -> ComparisonResult:
    """Cross-validate the methods in one shared loop (:func:`_cross_validate`)
    and assemble the comparison table.

    Method m's row is the report ``run_pipeline(ds, replace(config,
    method=m))`` gives. Folds run in index order and, within a fold, methods
    in the order given; the first error propagates with its type and message
    unchanged and a ``fold <i>`` note added. A repeated method raises
    ``ValueError``.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("at least one method required")
    check_methods(methods)
    reports = _cross_validate(ds, tuple(methods), config)
    return ComparisonResult(dataset=ds.name,
                            computed=tuple((m, reports[m]) for m in methods))


def _metric_header(name: str) -> str:
    return f"{name:<12}  " + "  ".join(f"{c:>7}" for c in _COLS)


def _metric_row(name: str, b: MetricBundle, note: str = "") -> str:
    cells = "  ".join(f"{getattr(b, c):7.4f}" for c in _COLS)
    return f"{name:<12}  {cells}  {note}".rstrip()


def render_report(report: CvReport, include_timing: bool = True) -> str:
    """Human-readable per-fold table for one method."""
    lines = [
        f"dataset: {report.dataset}  (n={report.n}, d={report.d})",
        f"method: {report.method}",
        f"seed: {report.fingerprint['config']['seed']}",
        "",
        _metric_header("fold"),
    ]
    for i, b in enumerate(report.fold_metrics):
        lines.append(_metric_row(f"fold {i}", b))
    lines.append(_metric_row("mean", report.mean))
    if report.method == "kmeans":
        ref = REFERENCE_KMEANS
        lines.append("")
        lines.append("published reference (not reproduced here) and delta vs mean:")
        lines.append(_metric_row("reference", ref))
        delta = MetricBundle(**{c: getattr(report.mean, c) - getattr(ref, c)
                                for c in _COLS})
        lines.append(_metric_row("delta", delta))
    if include_timing:
        lines.append("")
        lines.append(f"wall_seconds: {report.timing['wall_seconds']:.3f}")
        lines.append(f"wall_minutes: {report.timing['wall_minutes']:.3f}")
    return "\n".join(lines) + "\n"


def render_comparison(result: ComparisonResult, include_timing: bool = True) -> str:
    """Aligned comparison table: computed rows, reference rows, claims."""
    lines = [
        f"dataset: {result.dataset}",
        "",
        _metric_header("method"),
    ]
    for m, rep in result.computed:
        lines.append(_metric_row(m, rep.mean, "computed"))
    for m, b in REFERENCE_ROWS:
        lines.append(_metric_row(f"ref:{m}", b, "published reference, not reproduced"))
    lines.append(_metric_row("ref:K-MEANS", REFERENCE_KMEANS,
                             "published reference, not reproduced"))
    lines.append("")
    lines.append("ranking (computed, by mean accuracy): " + ", ".join(result.ranking()))
    lines.append("")
    lines.append("externally reported claims (quoted, not targets; the average-")
    lines.append("accuracy figure is inconsistent with the per-dataset reference rows):")
    lines.append(f"  average accuracy: kmeans {REFERENCE_CLAIMS['kmeans_avg_accuracy']}"
                 f" vs best other {REFERENCE_CLAIMS['best_other_avg_accuracy']}")
    lines.append(f"  wall minutes: kmeans {REFERENCE_CLAIMS['kmeans_minutes']:.0f}"
                 f" vs best other {REFERENCE_CLAIMS['best_other_minutes']:.0f}")
    if include_timing:
        lines.append("")
        lines.append("measured efficiency (this run):")
        for m, rep in result.computed:
            lines.append(f"  {m}: {rep.timing['wall_seconds']:.3f} s"
                         f" ({rep.timing['wall_minutes']:.3f} min)")
    return "\n".join(lines) + "\n"


def roc_plot_data(report: CvReport) -> str:
    """Pooled out-of-fold ROC points as fpr,tpr,threshold lines."""
    curve = roc_curve(report.oof_scores, report.oof_labels)
    lines = ["fpr,tpr,threshold"]
    for (x, y), t in zip(curve.points, curve.thresholds):
        lines.append(f"{float(x)!r},{float(y)!r},{float(t)!r}")
    return "\n".join(lines) + "\n"
