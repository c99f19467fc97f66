"""Dataset loading and preprocessing for delimited credit-risk tables.

:func:`load_csv` reads a table into an object-dtype feature matrix in which
missing cells are NaN (numeric columns) or None (categorical columns).
:func:`preprocess` fits a :class:`PreprocessReport` on such a table, one
column at a time: the fill for missing cells (mean or mode), the category
code table (first appearance) and, when scaling, the column mean and
population std. It returns the float64 matrix together with the report.
:func:`apply_report` replays a report on raw rows without refitting. Both
produce their matrices through one column transform, so replaying the
training rows reproduces the processed matrix bit for bit and held-out rows
are transformed with train-side statistics only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class DataError(ValueError):
    """Base for malformed-input errors raised by this module."""


class SchemaError(DataError):
    pass


class RaggedRowError(DataError):
    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"row {row}: expected {expected} fields, got {got}")
        self.row = row


class CellParseError(DataError):
    def __init__(self, row: int, column: str, token: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {token!r} as a number")
        self.row = row
        self.column = column


class NonBinaryLabelError(DataError):
    pass


class EmptyDataError(DataError):
    pass


class AllMissingColumnError(DataError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} has no observed values to impute from")
        self.column = column


@dataclass(frozen=True)
class ColumnSpec:
    """Name, kind and missing-value token of one input column."""

    name: str
    kind: str
    missing_token: str = "?"

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")


@dataclass
class Dataset:
    """Feature matrix with 0/1 labels and the column schema that produced it.

    ``features`` has one row per sample and one column per feature; the label
    column is not part of the matrix. Instances are treated as immutable:
    preprocessing operations return new datasets.
    """

    features: np.ndarray
    labels: np.ndarray
    schema: list[ColumnSpec]
    name: str = ""

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(positive, negative) sample counts."""
        return int(np.sum(self.labels == 1)), int(np.sum(self.labels == 0))

    def column_names(self) -> list[str]:
        return [c.name for c in self.schema]


@dataclass
class PreprocessReport:
    """Everything needed to replay preprocessing exactly on raw data."""

    imputation: dict = field(default_factory=dict)  # column -> mean (numeric) or mode (categorical)
    codes: dict = field(default_factory=dict)       # column -> categories in code order
    means: dict = field(default_factory=dict)
    stds: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "imputation": self.imputation,
                "codes": self.codes,
                "means": self.means,
                "stds": self.stds,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PreprocessReport":
        raw = json.loads(text)
        return cls(
            imputation=raw.get("imputation", {}),
            codes=raw.get("codes", {}),
            means=raw.get("means", {}),
            stds=raw.get("stds", {}),
        )


@dataclass(frozen=True)
class SchemaFile:
    """Parsed schema config: all file columns, which one is the label, and
    which raw token counts as the positive class."""

    columns: list[ColumnSpec]
    label_column: str
    positive_label: str | None = None
    declared_dimension: int | None = None


def read_schema(path) -> SchemaFile:
    """Parse the plain-text schema grammar.

    Lines: ``column <name> <numeric|categorical> [missing=<token>]``,
    ``label <name> [positive=<token>]``, optional ``dimension <int>``.
    ``#`` starts a comment; blank lines are ignored.
    """
    columns: list[ColumnSpec] = []
    label_column = None
    positive_label = None
    declared_dimension = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kw = parts[0]
            if kw == "column":
                if len(parts) < 3:
                    raise SchemaError(f"{path}:{lineno}: column line needs a name and a kind")
                missing = "?"
                for extra in parts[3:]:
                    if extra.startswith("missing="):
                        missing = extra[len("missing="):]
                    else:
                        raise SchemaError(f"{path}:{lineno}: unknown option {extra!r}")
                columns.append(ColumnSpec(name=parts[1], kind=parts[2], missing_token=missing))
            elif kw == "label":
                if len(parts) < 2:
                    raise SchemaError(f"{path}:{lineno}: label line needs a column name")
                label_column = parts[1]
                for extra in parts[2:]:
                    if extra.startswith("positive="):
                        positive_label = extra[len("positive="):]
                    else:
                        raise SchemaError(f"{path}:{lineno}: unknown option {extra!r}")
            elif kw == "dimension":
                try:
                    declared_dimension, = map(int, parts[1:])  # exactly one integer
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: dimension line needs one integer, "
                                      f"got {' '.join(parts[1:]) or 'none'}") from None
            else:
                raise SchemaError(f"{path}:{lineno}: unknown directive {kw!r}")
    if label_column is None:
        raise SchemaError(f"{path}: schema declares no label column")
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}: duplicate column names")
    if label_column not in names:
        raise SchemaError(f"{path}: label column {label_column!r} not among declared columns")
    return SchemaFile(
        columns=columns,
        label_column=label_column,
        positive_label=positive_label,
        declared_dimension=declared_dimension,
    )


def _split_line(line: str, delimiter: str | None) -> list[str]:
    if delimiter == ",":
        return next(csv.reader([line]))
    return line.split()


def load_csv(path, schema: list[ColumnSpec], label_column: str,
             positive_label: str | None = None, name: str = "",
             declared_dimension: int | None = None) -> Dataset:
    """Load a delimited text file (comma or whitespace separated, one header row).

    Missing markers are retained (NaN / None); no imputation happens here.
    A numeric ``nan`` token also reads as missing, while a token that parses
    to an infinite float (``inf``, ``1e400``) raises :class:`CellParseError`.
    Errors name the first bad row in file order. When ``positive_label`` is
    given, that raw token maps to 1 and every other token to 0; otherwise the
    label column must already contain 0/1.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"data file not found: {path}") from None
    with fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines:
        raise EmptyDataError("no data rows")
    delimiter = "," if "," in lines[0] else None

    header = _split_line(lines[0], delimiter)
    expected = [c.name for c in schema]
    if header != expected:
        raise SchemaError(f"header mismatch: file has {header}, schema declares {expected}")
    if label_column not in expected:
        raise SchemaError(f"label column {label_column!r} not in schema")
    if len(lines) == 1:
        raise EmptyDataError("no data rows")
    if declared_dimension is not None and len(schema) != declared_dimension:
        # Declared dimension counts feature columns plus the label column.
        raise SchemaError(
            f"declared dimension {declared_dimension} implies {declared_dimension - 1} features, "
            f"schema has {len(schema) - 1}"
        )

    label_idx = expected.index(label_column)
    feature_specs = [c for i, c in enumerate(schema) if i != label_idx]
    n_cols = len(schema)

    # Every cell goes into one flat list, sized up front, and no container
    # outlives its row: a list per row would keep 100k tracked objects alive
    # and make the cyclic garbage collector walk them again and again, and a
    # list grown by appends fragments the heap a little more on every load.
    raw_labels: list[str] = []
    cells: list = [None] * ((len(lines) - 1) * len(feature_specs))
    at = 0
    for row_no, line in enumerate(lines[1:], start=1):
        fields = _split_line(line, delimiter)
        if len(fields) != n_cols:
            raise RaggedRowError(row=row_no, expected=n_cols, got=len(fields))
        raw_labels.append(fields.pop(label_idx).strip())
        for spec, tok in zip(feature_specs, fields):
            tok = tok.strip()
            if tok == spec.missing_token:
                value = np.nan if spec.kind == NUMERIC else None
            elif spec.kind == NUMERIC:
                try:
                    value = float(tok)
                    if math.isinf(value):
                        raise ValueError(tok)
                except ValueError:
                    raise CellParseError(row=row_no, column=spec.name, token=tok) from None
            else:
                value = tok
            cells[at] = value
            at += 1
    del lines

    distinct = sorted(set(raw_labels))
    if positive_label is not None:
        if positive_label not in distinct:
            raise NonBinaryLabelError(
                f"positive label {positive_label!r} never occurs; column values: {distinct}"
            )
        if len(distinct) != 2:
            raise NonBinaryLabelError(
                f"label column must take exactly two values, found {distinct}"
            )
        labels = np.array([1 if t == positive_label else 0 for t in raw_labels], dtype=int)
    else:
        if not set(distinct) <= {"0", "1"}:
            raise NonBinaryLabelError(
                f"label column must be 0/1 (or declare positive=<token>), found {distinct}"
            )
        labels = np.array([int(t) for t in raw_labels], dtype=int)

    features = np.empty(len(cells), dtype=object)
    features[:] = cells
    features = features.reshape(len(raw_labels), len(feature_specs))
    return Dataset(features=features, labels=labels, schema=feature_specs,
                   name=name or str(path))


def load_with_schema(data_path, schema_path, name: str = "") -> Dataset:
    """Convenience wrapper: read a schema file, then the data file it describes."""
    sf = read_schema(schema_path)
    return load_csv(
        data_path,
        schema=sf.columns,
        label_column=sf.label_column,
        positive_label=sf.positive_label,
        name=name,
        declared_dimension=sf.declared_dimension,
    )


def _missing(col: np.ndarray) -> np.ndarray:
    """Mask of missing cells: None or NaN."""
    return np.equal(col, None) | (col != col)


def _zscale(vals: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.zeros_like(vals) if sigma == 0.0 else (vals - mu) / sigma


def _transform_column(col: np.ndarray, spec: ColumnSpec, report: PreprocessReport,
                      scale: bool) -> np.ndarray:
    """Map one raw column to floats through the report's recorded statistics.

    Missing cells take the column's fill; categories, compared as strings,
    become their code, with categories absent from the code table sharing
    the overflow code ``len(codes)``; with ``scale`` the result is z-scaled
    by the recorded mean and std.
    """
    name = spec.name
    if (name not in report.imputation or (scale and name not in report.means)
            or (spec.kind != NUMERIC and name not in report.codes)):
        raise SchemaError(f"preprocess report has no entry for column {name!r}")
    filled = np.where(_missing(col), report.imputation[name], col)
    if spec.kind == NUMERIC:
        vals = filled.astype(float)
    else:
        cats, inverse = np.unique(filled.astype(str), return_inverse=True)
        table = {c: i for i, c in enumerate(report.codes[name])}
        vals = np.array([table.get(c, len(table)) for c in cats], dtype=float)[inverse]
    if scale:
        vals = _zscale(vals, report.means[name], report.stds[name])
    return vals


def preprocess(ds: Dataset, scale: bool = True) -> tuple[Dataset, PreprocessReport]:
    """Fit a :class:`PreprocessReport` on ``ds`` and return the processed copy.

    Numeric gaps take the column mean and categorical gaps the mode (ties to
    the lexicographically smallest category); fills are recorded even when
    nothing is missing. Categories are coded by first appearance in the
    filled column. With ``scale`` every column is then centred and divided by
    its population std, and constant columns become zeros. The matrix comes
    from the same column transform that :func:`apply_report` replays.
    """
    report = PreprocessReport()
    out = np.empty(ds.features.shape, dtype=float)
    for j, spec in enumerate(ds.schema):
        col = ds.features[:, j]
        missing = _missing(col)
        observed = col[~missing]
        if observed.size == 0:
            raise AllMissingColumnError(spec.name)
        if spec.kind == NUMERIC:
            report.imputation[spec.name] = float(np.mean(observed.astype(float)))
        else:
            cats, counts = np.unique(observed.astype(str), return_counts=True)
            fill = report.imputation[spec.name] = str(cats[np.argmax(counts)])
            cats, first = np.unique(np.where(missing, fill, col).astype(str),
                                    return_index=True)
            report.codes[spec.name] = cats[np.argsort(first)].tolist()
        out[:, j] = _transform_column(col, spec, report, scale=False)
    if scale:
        if not np.all(np.isfinite(out)):
            raise DataError("standardize requires a fully numeric, finite matrix")
        for j, spec in enumerate(ds.schema):
            mu = report.means[spec.name] = float(np.mean(out[:, j]))
            sigma = report.stds[spec.name] = float(np.std(out[:, j]))  # population std
            out[:, j] = _zscale(out[:, j], mu, sigma)
    return replace(ds, features=out), report


def apply_report(ds: Dataset, report: PreprocessReport, scale: bool = True) -> Dataset:
    """Replay a fitted report on raw data without refitting anything.

    A schema column the report does not cover raises :class:`SchemaError`.
    """
    out = np.empty(ds.features.shape, dtype=float)
    for j, spec in enumerate(ds.schema):
        out[:, j] = _transform_column(ds.features[:, j], spec, report, scale)
    return replace(ds, features=out)


def balanced_subsample(ds: Dataset, per_class: int, seed: int) -> Dataset:
    """Draw ``per_class`` rows per class uniformly without replacement, shuffled."""
    rng = np.random.default_rng(seed)
    picks = []
    for cls in (1, 0):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size < per_class:
            raise DataError(
                f"class {cls} has {idx.size} samples, cannot draw {per_class}"
            )
        picks.append(rng.choice(idx, size=per_class, replace=False))
    order = np.concatenate(picks)
    rng.shuffle(order)
    return replace(ds, features=ds.features[order], labels=ds.labels[order])


def write_processed(ds: Dataset, path) -> None:
    """Dump a processed (numeric) matrix and a last ``label`` column as CSV text."""
    X = np.asarray(ds.features, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.column_names() + ["label"]) + "\n")
        for i in range(ds.n):
            cells = [repr(float(v)) for v in X[i]] + [str(int(ds.labels[i]))]
            fh.write(",".join(cells) + "\n")
