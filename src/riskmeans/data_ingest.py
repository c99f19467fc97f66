"""Dataset loading and preprocessing for delimited credit-risk tables.

:func:`load_csv` reads a table into a float64 feature matrix. Numeric cells
hold their values; categorical cells hold interned ids, numbered per column
in order of first appearance, and :attr:`Dataset.vocabularies` maps each id
back to its category string. Missing cells are NaN in both kinds.
:func:`read_schema` parses the schema file and checks its declared
dimension; :meth:`Dataset.numeric` wraps an all-numeric matrix.
:func:`preprocess` fits a :class:`PreprocessReport` on such a table, one
column at a time: the fill for missing cells (mean or mode), the category
code table (first appearance) and, when scaling, the column mean and
population std. The report is keyed by category strings, never by ids. It
returns the processed float64 matrix together with the report.
:func:`apply_report` replays a report on raw rows without refitting, and
z-scales exactly when the report holds moments. Both produce their matrices
through one column transform, so replaying the training rows reproduces the
processed matrix bit for bit and held-out rows are transformed with
train-side statistics only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace

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


def open_input(path, role: str):
    """Open a UTF-8 text file for reading, skipping a leading byte-order mark;
    a missing path or a directory raises FileNotFoundError or
    IsADirectoryError naming ``role`` and the path."""
    try:
        return open(path, "r", encoding="utf-8-sig")
    except FileNotFoundError:
        raise FileNotFoundError(f"{role} not found: {path}") from None
    except IsADirectoryError:
        raise IsADirectoryError(f"{role} is a directory: {path}") from None


class AllMissingColumnError(DataError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} has no observed values to impute from")
        self.column = column


class ColumnOverflowError(DataError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r}: values too large, their standard deviation "
                         "overflows float64")
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


class _Interner(dict):
    """One categorical column's token table: a new token takes the next id.

    It starts as ``{missing marker: NaN}``, so ids count the other keys, in
    order of first lookup.
    """

    def __missing__(self, token: str) -> float:
        value = self[token] = float(len(self) - 1)
        return value

    def vocabulary(self) -> tuple:
        return tuple(self)[1:]


@dataclass
class Dataset:
    """Feature matrix with 0/1 labels and the column schema that produced it.

    ``features`` has one row per sample and one float64 column per feature;
    the label column is not part of the matrix. A raw dataset (from
    :func:`load_csv` or :meth:`from_cells`) holds NaN for missing cells and,
    in categorical columns, category ids; ``vocabularies`` has one entry per
    column: the category strings in id order, or None for a numeric column.
    Row subsets share the vocabularies of their source. A processed dataset
    carries none. Instances are treated as immutable: preprocessing
    operations return new datasets.
    """

    features: np.ndarray
    labels: np.ndarray
    schema: list[ColumnSpec]
    name: str = ""
    vocabularies: tuple | None = None

    @classmethod
    def from_cells(cls, cells, labels, schema: list[ColumnSpec], name: str = "") -> "Dataset":
        """Raw dataset from an (n, d) matrix of cells: floats (NaN if missing)
        in numeric columns, ``str`` (None if missing) in categorical ones.

        Ids and vocabularies are those :func:`load_csv` assigns to the same
        cells: per column, in order of first appearance down the rows.
        """
        cells = np.asarray(cells, dtype=object)
        features = np.empty(cells.shape, dtype=float)
        vocabularies = []
        for j, spec in enumerate(schema):
            if spec.kind == NUMERIC:
                features[:, j] = cells[:, j].astype(float)
                vocabularies.append(None)
            else:
                ids = _Interner({None: math.nan})
                features[:, j] = list(map(ids.__getitem__, cells[:, j]))
                vocabularies.append(ids.vocabulary())
        return cls(features=features, labels=np.asarray(labels, dtype=int),
                   schema=list(schema), name=name, vocabularies=tuple(vocabularies))

    @classmethod
    def numeric(cls, X, y, name: str = "") -> "Dataset":
        """Dataset of a float matrix and 0/1 labels: numeric columns f0, f1, ..."""
        X = np.asarray(X, dtype=float)
        return cls(features=X, labels=np.asarray(y, dtype=int), name=name,
                   schema=[ColumnSpec(f"f{j}", NUMERIC) for j in range(X.shape[1])])

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
        """The fields as sorted JSON, keyed by field name."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass(frozen=True)
class SchemaFile:
    """Parsed schema config: all file columns, which one is the label, and
    which raw token counts as the positive class."""

    columns: list[ColumnSpec]
    label_column: str
    positive_label: str | None = None


def read_schema(path) -> SchemaFile:
    """Parse the plain-text schema grammar.

    Lines: ``column <name> <numeric|categorical> [missing=<token>]``, one
    ``label <name> [positive=<token>]``, at most one ``dimension <int>``: the
    column count, label included, which must match the column lines.
    ``#`` starts a comment; blank lines are ignored.
    """
    columns: list[ColumnSpec] = []
    label_column = None
    positive_label = None
    declared_dimension = None
    with open_input(path, "schema file") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kw = parts[0]
            if {"label": label_column, "dimension": declared_dimension}.get(kw) is not None:
                raise SchemaError(f"{path}:{lineno}: a schema has one {kw} line")
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
    if declared_dimension is not None and len(columns) != declared_dimension:
        # Declared dimension counts feature columns plus the label column.
        raise SchemaError(
            f"declared dimension {declared_dimension} implies {declared_dimension - 1} features, "
            f"schema has {len(columns) - 1}"
        )
    if len(columns) == 1:
        raise SchemaError(f"{path}: schema declares no feature column")
    return SchemaFile(columns=columns, label_column=label_column,
                      positive_label=positive_label)


def _split_line(line: str, delimiter: str | None) -> list[str]:
    """The fields of one header or data line; comma fields lose their padding
    (whitespace-split fields carry none)."""
    if delimiter == ",":
        return [f.strip() for f in next(csv.reader([line]))]
    return line.split()


# Rows per parsing block in load_csv. A block's row lists, one tracked
# container each, stay below the cyclic garbage collector's first threshold
# (700), so parsing never starts it; row lists kept for the whole table would
# make it walk them again and again.
_BLOCK_ROWS = 256


def _raise_first_bad_cell(rows: list, first_row: int, specs: list[ColumnSpec],
                          label_idx: int) -> None:
    """Raise the error of the first ragged row or unparsable numeric cell of
    ``rows`` in row-major order; ``first_row`` is the file row of ``rows[0]``.
    A token that parses to an infinite float counts as unparsable."""
    n_cols = len(specs) + 1
    for row_no, fields in enumerate(rows, start=first_row):
        if len(fields) != n_cols:
            raise RaggedRowError(row=row_no, expected=n_cols, got=len(fields))
        for spec, tok in zip(specs, fields[:label_idx] + fields[label_idx + 1:]):
            if spec.kind == NUMERIC and tok != spec.missing_token:
                try:
                    bad = math.isinf(float(tok))
                except ValueError:
                    bad = True
                if bad:
                    raise CellParseError(row=row_no, column=spec.name, token=tok)


def load_csv(path, schema: list[ColumnSpec], label_column: str,
             positive_label: str | None = None, name: str = "") -> Dataset:
    """Load a delimited text file (comma or whitespace separated, one header row).

    The result is a raw :class:`Dataset`: a float64 matrix in which missing
    cells are NaN and each categorical token is replaced by its column's id
    for it (ids count up from 0 in order of first appearance), together with
    the per-column vocabularies. No imputation happens here. A numeric
    ``nan`` token also reads as missing, while a token that parses to an
    infinite float (``inf``, ``1e400``) raises :class:`CellParseError`.
    Errors name the first bad row in file order. When ``positive_label`` is
    given, that raw token maps to 1 and every other token to 0; otherwise the
    label column must already contain 0/1.
    """
    with open_input(path, "data file") as fh:
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

    label_idx = expected.index(label_column)
    feature_specs = [c for i, c in enumerate(schema) if i != label_idx]
    n_rows, n_cols = len(lines) - 1, len(schema)

    # Rows are read in blocks, and each block column by column, so a
    # column's kind is looked at once per block rather than once per cell,
    # and no row list outlives its block.
    tables = [None if spec.kind == NUMERIC else _Interner({spec.missing_token: math.nan})
              for spec in feature_specs]
    features = np.empty((n_rows, len(feature_specs)))
    raw_labels: list[str] = []
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = [_split_line(line, delimiter) for line in lines[1 + start:1 + start + _BLOCK_ROWS]]
        block = features[start:start + len(rows)]
        try:
            if any(len(fields) != n_cols for fields in rows):
                raise ValueError("ragged row")
            columns = list(zip(*rows))
            raw_labels.extend(columns.pop(label_idx))
            for j, (spec, table, tokens) in enumerate(zip(feature_specs, tables, columns)):
                if table is None:
                    gap = spec.missing_token
                    block[:, j] = [math.nan if t == gap else float(t) for t in tokens]
                else:
                    block[:, j] = list(map(table.__getitem__, tokens))
            if np.isinf(block).any():
                raise ValueError("infinite cell")
        except ValueError:
            _raise_first_bad_cell(rows, start + 1, feature_specs, label_idx)
            raise
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

    vocabularies = tuple(None if table is None else table.vocabulary() for table in tables)
    return Dataset(features=features, labels=labels, schema=feature_specs,
                   name=name or str(path), vocabularies=vocabularies)


def load_with_schema(data_path, schema_path, name: str = "") -> Dataset:
    """Convenience wrapper: read a schema file, then the data file it describes."""
    sf = read_schema(schema_path)
    return load_csv(data_path, sf.columns, sf.label_column, sf.positive_label, name)


def _vocabularies(ds: Dataset) -> tuple:
    """Per-column vocabularies of a raw dataset; every categorical column needs one."""
    vocabularies = ds.vocabularies or (None,) * ds.d
    for spec, vocab in zip(ds.schema, vocabularies):
        if spec.kind != NUMERIC and vocab is None:
            raise SchemaError(f"column {spec.name!r} is categorical but has no vocabulary: "
                              "pass raw rows, as load_csv or Dataset.from_cells build them")
    return vocabularies


def _zscale(vals: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.zeros_like(vals) if sigma == 0.0 else (vals - mu) / sigma


def _transform_column(col: np.ndarray, vocab: tuple | None, spec: ColumnSpec,
                      report: PreprocessReport) -> np.ndarray:
    """Map one raw column to floats through the report's recorded statistics.

    Missing (NaN) cells take the column's fill. A categorical column's ids
    index one table with an entry per vocabulary category: its code, or the
    overflow code ``len(codes)`` for a category absent from the code table;
    a last entry, the fill's code, serves the missing cells. A report that
    holds moments (fitted with scaling) z-scales by the column's.
    """
    name = spec.name
    if (name not in report.imputation or (spec.kind != NUMERIC and name not in report.codes)
            or (report.means and (name not in report.means or name not in report.stds))):
        raise SchemaError(f"preprocess report has no entry for column {name!r}")
    fill = report.imputation[name]
    if spec.kind == NUMERIC:
        vals = np.where(np.isnan(col), fill, col)
    else:
        codes = {c: i for i, c in enumerate(report.codes[name])}
        table = np.array([codes.get(c, len(codes)) for c in (*vocab, fill)], dtype=float)
        vals = table[np.where(np.isnan(col), len(vocab), col).astype(np.intp)]
    if report.means:
        vals = _zscale(vals, report.means[name], report.stds[name])
    return vals


def preprocess(ds: Dataset, scale: bool = True) -> tuple[Dataset, PreprocessReport]:
    """Fit a :class:`PreprocessReport` on the raw ``ds`` and return the processed copy.

    Numeric gaps take the column mean and categorical gaps the mode (ties to
    the lexicographically smallest category string); fills are recorded even
    when nothing is missing. Categories are coded by first appearance in the
    filled column. With ``scale`` every column is then centred and divided by
    its population std, and constant columns become zeros. The matrix comes
    from the same column transform that :func:`apply_report` replays. A
    column whose std overflows (or that holds a non-finite value) raises
    :class:`ColumnOverflowError`, scaled or not: every later stage squares
    its values.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised by column
        report = PreprocessReport()
        vocabularies = _vocabularies(ds)
        out = np.empty(ds.features.shape, dtype=float)
        for j, spec in enumerate(ds.schema):
            col, vocab = ds.features[:, j], vocabularies[j]
            missing = np.isnan(col)
            if missing.all():
                raise AllMissingColumnError(spec.name)
            if spec.kind == NUMERIC:
                report.imputation[spec.name] = float(np.mean(col[~missing]))
            else:
                counts = np.bincount(col[~missing].astype(np.intp), minlength=len(vocab))
                fill = min(np.flatnonzero(counts == counts.max()), key=vocab.__getitem__)
                report.imputation[spec.name] = vocab[fill]
                ids, first = np.unique(np.where(missing, fill, col), return_index=True)
                report.codes[spec.name] = [vocab[int(i)] for i in ids[np.argsort(first)]]
            out[:, j] = _transform_column(col, vocab, spec, report)  # no moments yet
        for j, spec in enumerate(ds.schema):
            mu, sigma = float(np.mean(out[:, j])), float(np.std(out[:, j]))  # population std
            if not math.isfinite(sigma):
                raise ColumnOverflowError(spec.name)
            if scale:
                report.means[spec.name], report.stds[spec.name] = mu, sigma
                out[:, j] = _zscale(out[:, j], mu, sigma)
    return replace(ds, features=out, vocabularies=None), report


def apply_report(ds: Dataset, report: PreprocessReport) -> Dataset:
    """Replay a fitted report on raw data without refitting anything.

    The rows are z-scaled exactly when the report was fitted with scaling. A
    schema column the report does not cover, moments included, raises
    :class:`SchemaError`. A value too large to scale becomes inf, which
    scoring rejects by its row.
    """
    vocabularies = _vocabularies(ds)
    out = np.empty(ds.features.shape, dtype=float)
    with np.errstate(over="ignore"):
        for j, spec in enumerate(ds.schema):
            out[:, j] = _transform_column(ds.features[:, j], vocabularies[j], spec, report)
    return replace(ds, features=out, vocabularies=None)


def write_processed(ds: Dataset, path) -> None:
    """Dump a processed (numeric) matrix and a last ``label`` column as CSV text."""
    X = np.asarray(ds.features, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.column_names() + ["label"]) + "\n")
        for i in range(ds.n):
            cells = [repr(float(v)) for v in X[i]] + [str(int(ds.labels[i]))]
            fh.write(",".join(cells) + "\n")
