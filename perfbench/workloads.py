"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (not timed as a
pass), runs one timed ``run_pass`` through the public entry points of
``riskmeans``, checks the pass's outputs, and derives its quality figures
after the pass. One pass is deterministic given the seed, so its digest must
repeat on every pass of a run, traced or not.

* ``cv-auto``: ``run_pipeline`` with the ``configs/german.ini`` settings
  (target size and k chosen automatically). Target-size search, RFE and the
  k sweep dominate.
* ``cv-fixed``: ``compare_methods`` for kmeans and lr with k=4 and 10
  features: no target search and no k sweep; RFE and the logistic solver
  dominate.
* ``batch-score``: parse a 100,000-row raw file, fit on its first 1000 rows,
  then replay and score every row in 1000-row batches. Ingest and replay
  dominate; the overflow code for unseen categories runs.
* ``scan``: fit the multi-grained scanner on the processed 1000-row table and
  transform a processed 45,000-row table. The only workload reaching
  ``mg_scanner``. The transform is fixed work per row while the fit's Lloyd
  iterations depend on the seed, so the transform is made long enough to
  dominate the pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np

# Passes call the program through its module attributes, never through names
# imported here, so that the tracer's wrappers see every call.
from riskmeans import bench_harness, data_ingest, kmeans_core, mg_scanner
from riskmeans.bench_harness import PipelineConfig
from riskmeans.data_ingest import read_schema
from riskmeans.feature_select import fit_logistic
from riskmeans.kmeans_core import KMeansParams
from riskmeans.metrics import compute_bundle
from riskmeans.mg_scanner import ScanConfig
from riskmeans.seeding import derive_seed

from gen import make_table

SCHEMA = Path("data") / "german.schema"
TRAIN_ROWS = 1000
BATCH_ROWS = 1000
# Scores and quality figures below this AUC mean the scorer is broken: every
# workload's table carries a strong class signal.
MIN_AUC = 0.6

# The configs/german.ini settings, pinned here so that editing the shipped
# config does not silently change the workload.
GERMAN_INI = dict(
    folds=5, scale=True, rfe_enabled=True, rfe_target_k=None, rfe_step=1,
    kmeans_k=None, kmeans_k_max=10, kmeans_restarts=10, kmeans_tol=1e-6,
    kmeans_max_iters=300, kmeans_init="kmeanspp",
)


@dataclasses.dataclass
class PassOutput:
    """What one timed pass produced; ``batch_s`` are per-batch latencies."""

    digest: str
    scores: np.ndarray
    labels: np.ndarray
    batch_s: list = dataclasses.field(default_factory=list)
    result: object = None
    extra: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    ops_per_pass = 1
    ops = "operations"  # what one of ops_per_pass is, for reports

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.schema = root / SCHEMA
        self.columns = [(c.name, c.kind) for c in read_schema(self.schema).columns]

    def table(self, n: int, stream: str, **kw) -> Path:
        path = self.work / f"{stream}.data"
        path.write_text(make_table(self.columns, n, self.seed, stream, **kw),
                        encoding="utf-8")
        return path

    def load(self, path: Path):
        return data_ingest.load_with_schema(path, self.schema, name="synthetic-german")

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput, quality: dict) -> list[str]:
        """Failures of the output checks of one pass (empty when correct)."""
        problems = score_problems(out.scores, out.labels.size)
        if quality["auc"] < MIN_AUC:
            problems.append(f"AUC {quality['auc']:.3f} below {MIN_AUC}")
        return problems

    def quality(self, out: PassOutput) -> dict:
        b = compute_bundle(out.labels, out.scores)
        return {"auc": b.auc, "acc": b.acc, "brier": b.brier}


def score_problems(scores: np.ndarray, rows: int) -> list[str]:
    """Scores must be finite, lie in [0, 1] and number one per row."""
    if scores.shape != (rows,):
        return [f"{scores.size} scores for {rows} rows"]
    if not (np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0):
        return ["scores not finite or outside [0, 1]"]
    return []


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode("utf-8"))
    return h.hexdigest()


def _rows(ds, start: int, stop: int):
    return dataclasses.replace(ds, features=ds.features[start:stop],
                               labels=ds.labels[start:stop])


class CvAuto(Workload):
    name = "cv-auto"
    methods = ("kmeans",)
    ops = "folds"

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(method="kmeans", seed=self.seed, **GERMAN_INI)

    @property
    def ops_per_pass(self) -> int:
        return GERMAN_INI["folds"] * len(self.methods)

    def setup(self) -> None:
        self.ds = self.load(self.table(TRAIN_ROWS, "credit"))
        self.config = self.pipeline()

    def run_pass(self) -> PassOutput:
        report = bench_harness.run_pipeline(self.ds, self.config)
        return self._output({"kmeans": report})

    def _output(self, reports: dict) -> PassOutput:
        km = reports["kmeans"]
        digest = _sha(*(reports[m].to_json(include_timing=False) for m in self.methods))
        return PassOutput(digest=digest, scores=km.oof_scores, labels=self.ds.labels,
                          result=reports)

    def check(self, out: PassOutput, quality: dict) -> list[str]:
        problems = []
        for method, report in out.result.items():
            problems += [f"{method}: {p}"
                         for p in score_problems(report.oof_scores, self.ds.n)]
            if len(report.fold_metrics) != GERMAN_INI["folds"]:
                problems.append(f"{method}: {len(report.fold_metrics)} folds")
            if report.mean.auc < MIN_AUC:
                problems.append(f"{method}: mean AUC {report.mean.auc:.3f} below {MIN_AUC}")
        return problems

    def quality(self, out: PassOutput) -> dict:
        mean = out.result["kmeans"].mean
        return {"auc": mean.auc, "acc": mean.acc, "brier": mean.brier}


class CvFixed(CvAuto):
    name = "cv-fixed"
    methods = ("kmeans", "lr")

    def pipeline(self) -> PipelineConfig:
        fixed = dict(GERMAN_INI, kmeans_k=4, rfe_target_k=10)
        return PipelineConfig(method="kmeans", seed=self.seed, **fixed)

    def run_pass(self) -> PassOutput:
        result = bench_harness.compare_methods(self.ds, self.methods, self.config)
        return self._output(dict(result.computed))

    def quality(self, out: PassOutput) -> dict:
        lr = out.result["lr"].mean
        return dict(super().quality(out), lr_auc=lr.auc, lr_acc=lr.acc)


class BatchScore(Workload):
    name = "batch-score"
    rows = 100_000
    ops_per_pass = rows // BATCH_ROWS
    ops = "batches"

    def setup(self) -> None:
        self.path = self.table(self.rows, "batch", unseen_share=0.01,
                               train_rows=TRAIN_ROWS)
        self.params = KMeansParams(k=4, restarts=10,
                                   seed=derive_seed(self.seed, "batch-score"))

    def run_pass(self) -> PassOutput:
        ds = self.load(self.path)
        train, report = data_ingest.preprocess(_rows(ds, 0, TRAIN_ROWS))
        clf = kmeans_core.fit_classifier(train, self.params)
        scores = np.empty(ds.n)
        batch_s = []
        replayed = None
        for start in range(0, ds.n, BATCH_ROWS):
            t0 = time.perf_counter()
            X = data_ingest.apply_report(_rows(ds, start, start + BATCH_ROWS), report).features
            scores[start:start + BATCH_ROWS] = kmeans_core.predict_scores(clf, X)
            batch_s.append(time.perf_counter() - t0)
            if start == 0:
                replayed = X
        return PassOutput(
            digest=_sha(report.to_json(), scores.tobytes()), scores=scores,
            labels=ds.labels, batch_s=batch_s,
            extra={"train": train.features, "replayed": replayed})

    def check(self, out: PassOutput, quality: dict) -> list[str]:
        problems = super().check(out, quality)
        train, replayed = out.extra["train"], out.extra["replayed"]
        if train.dtype != replayed.dtype or train.tobytes() != replayed.tobytes():
            problems.append("replaying the training rows does not reproduce preprocess")
        return problems


class Scan(Workload):
    name = "scan"
    rows = 45_000
    windows = (5, 10)
    ops = "window sizes"
    ops_per_pass = len(windows)

    def setup(self) -> None:
        train_ds = self.load(self.table(TRAIN_ROWS, "credit"))
        self.train, report = data_ingest.preprocess(train_ds)
        rows = data_ingest.apply_report(self.load(self.table(self.rows, "scan")), report)
        self.X, self.labels = rows.features, rows.labels
        self.config = ScanConfig(input_dim=self.train.d, windows=self.windows,
                                 stride=1, estimators=2)

    def run_pass(self) -> PassOutput:
        fitted = mg_scanner.fit_window_estimators(self.train, self.config, seed=self.seed)
        parts = {w: [] for w in self.windows}
        batch_s = []
        for start in range(0, self.rows, BATCH_ROWS):
            t0 = time.perf_counter()
            mats = mg_scanner.transform_matrix(self.X[start:start + BATCH_ROWS],
                                               self.config, fitted)
            batch_s.append(time.perf_counter() - t0)
            for w in self.windows:
                parts[w].append(mats[w])
        mats = {w: np.concatenate(parts[w]) for w in self.windows}
        # One score per row: the mean positive-class probability over every
        # window and estimator (columns alternate negative, positive).
        scores = np.concatenate([m[:, 1::2] for m in mats.values()], axis=1).mean(axis=1)
        return PassOutput(digest=_sha(*(m.tobytes() for m in mats.values())),
                          scores=scores, labels=self.labels, batch_s=batch_s,
                          result=mats)

    def quality(self, out: PassOutput) -> dict:
        """Held-out quality of the logistic baseline trained on the scanner's
        positive-class features: the features are meant for a downstream
        model, and their plain mean carries little of their signal."""
        F = np.concatenate([m[:, 1::2] for m in out.result.values()], axis=1)
        half = F.shape[0] // 2
        mu, sd = F[:half].mean(axis=0), F[:half].std(axis=0)
        Z = (F - mu) / np.where(sd > 0, sd, 1.0)
        model = fit_logistic(Z[:half], self.labels[:half])
        b = compute_bundle(self.labels[half:], model.predict_proba(Z[half:]))
        return {"auc": b.auc, "acc": b.acc, "brier": b.brier}

    def check(self, out: PassOutput, quality: dict) -> list[str]:
        problems = super().check(out, quality)
        for w, m in out.result.items():
            if m.shape != (self.rows, self.config.output_dim(w)):
                problems.append(f"window {w}: output shape {m.shape}, expected "
                                f"({self.rows}, {self.config.output_dim(w)})")
            elif np.max(np.abs(m[:, 0::2] + m[:, 1::2] - 1.0)) > 1e-9:
                problems.append(f"window {w}: class probabilities do not sum to 1")
        return problems


WORKLOADS = {w.name: w for w in (CvAuto, CvFixed, BatchScore, Scan)}
