"""Shared fixtures: synthetic datasets and small file helpers."""

from __future__ import annotations

import numpy as np
import pytest

from riskmeans.data_ingest import ColumnSpec, Dataset
from riskmeans.kmeans_core import ClusterClassifier, KMeansModel


def make_blobs(n_per: int, centers, spread: float = 0.5, seed: int = 0) -> np.ndarray:
    """Stack one isotropic Gaussian blob per center row."""
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    return np.concatenate([
        c + spread * rng.standard_normal((n_per, centers.shape[1]))
        for c in centers
    ])


def make_labeled_blobs(n_per: int, sep: float = 6.0, d: int = 2,
                       spread: float = 0.6, seed: int = 0):
    """Two blobs, one per class: features plus 0/1 labels."""
    c0 = np.zeros(d)
    c1 = np.full(d, sep)
    X = make_blobs(n_per, [c0, c1], spread=spread, seed=seed)
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def constant_scanner(config) -> dict:
    """Fitted scanner state whose every window score is exactly 0.5: per
    window size, config.estimators k = 1 classifiers with one zero centroid,
    posterior 0.5 and bandwidth 1.0."""
    def half(w):
        model = KMeansModel(centroids=np.zeros((1, w)), wcss=0.0,
                            iterations_run=0, converged=True)
        return ClusterClassifier(model=model, posteriors=np.array([0.5]), bandwidth=1.0)
    return {w: [half(w)] * config.estimators for w in config.windows}


@pytest.fixture
def blob_dataset() -> Dataset:
    X, y = make_labeled_blobs(40, seed=3)
    return Dataset.numeric(X, y)


def mixed_raw_cells(n: int = 120, seed: int = 0, missing_rate: float = 0.1):
    """(cells, labels, schema) of a table with numeric and categorical columns
    plus gaps: an object matrix of floats (NaN if missing) and strings (None
    if missing), as a file holds them before loading."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(int)
    num0 = y * 2.0 + rng.normal(0, 1, n)
    num1 = rng.normal(5, 2, n)
    cats = np.where(rng.random(n) < 0.5, "low", np.where(y == 1, "high", "mid"))
    feat = np.empty((n, 3), dtype=object)
    for i in range(n):
        feat[i, 0] = np.nan if rng.random() < missing_rate else float(num0[i])
        feat[i, 1] = float(num1[i])
        feat[i, 2] = None if rng.random() < missing_rate else str(cats[i])
    schema = [
        ColumnSpec(name="amount", kind="numeric"),
        ColumnSpec(name="age", kind="numeric"),
        ColumnSpec(name="grade", kind="categorical"),
    ]
    return feat, y, schema


def mixed_raw_dataset(n: int = 120, seed: int = 0, missing_rate: float = 0.1) -> Dataset:
    """Raw dataset of :func:`mixed_raw_cells`, as a freshly loaded file."""
    return Dataset.from_cells(*mixed_raw_cells(n, seed, missing_rate), name="mixed")


@pytest.fixture
def raw_dataset() -> Dataset:
    return mixed_raw_dataset()


def write_toy_files(tmp_path, n: int = 150, seed: int = 5):
    """Write a small csv + schema + config trio; returns their paths."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(int)
    x0 = y * 1.8 + rng.normal(0, 1, n)
    x1 = -y * 1.5 + rng.normal(0, 1, n)
    grade = np.where(rng.random(n) < 0.6, "p", "q")
    data = tmp_path / "toy.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("x0,x1,grade,outcome\n")
        for i in range(n):
            fh.write(f"{x0[i]:.6f},{x1[i]:.6f},{grade[i]},"
                     f"{'bad' if y[i] else 'good'}\n")
    schema = tmp_path / "toy.schema"
    schema.write_text(
        "column x0 numeric\n"
        "column x1 numeric\n"
        "column grade categorical\n"
        "column outcome categorical\n"
        "label outcome positive=bad\n",
        encoding="utf-8",
    )
    config = tmp_path / "toy.ini"
    config.write_text(
        "[data]\n"
        f"path = {data}\n"
        f"schema = {schema}\n"
        "name = toy\n"
        "\n[kmeans]\nk = auto\nk_max = 5\nrestarts = 4\n"
        "\n[cv]\nfolds = 5\n"
        f"\n[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    return data, schema, config
