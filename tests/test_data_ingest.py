"""Loading, schema parsing, imputation, encoding, scaling, and replay."""

from __future__ import annotations

import gc
import json
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmeans.data_ingest import (
    NUMERIC,
    AllMissingColumnError,
    CellParseError,
    ColumnOverflowError,
    ColumnSpec,
    DataError,
    Dataset,
    EmptyDataError,
    NonBinaryLabelError,
    PreprocessReport,
    RaggedRowError,
    SchemaError,
    _split_line,
    apply_report,
    load_csv,
    load_with_schema,
    preprocess,
    read_schema,
    write_processed,
)

from conftest import mixed_raw_cells


SCHEMA = [
    ColumnSpec("amount", "numeric"),
    ColumnSpec("grade", "categorical"),
    ColumnSpec("label", "categorical"),
]


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_comma_delimited(tmp_path):
    p = write(tmp_path, "amount,grade,label\n10,a,bad\n20,b,good\n")
    ds = load_csv(p, SCHEMA, "label", positive_label="bad")
    assert ds.n == 2 and ds.d == 2
    assert ds.features.dtype == np.float64
    assert ds.features.tolist() == [[10.0, 0.0], [20.0, 1.0]]  # "a" is id 0, "b" id 1
    assert ds.vocabularies == (None, ("a", "b"))
    assert list(ds.labels) == [1, 0]


def test_load_whitespace_delimited(tmp_path):
    p = write(tmp_path, "amount grade label\n10 a bad\n20 b good\n")
    ds = load_csv(p, SCHEMA, "label", positive_label="bad")
    assert ds.n == 2
    assert _cells(ds)[0, 1] == "a"


def test_load_missing_markers(tmp_path):
    p = write(tmp_path, "amount,grade,label\n?,a,bad\n20,?,good\n")
    ds = load_csv(p, SCHEMA, "label", positive_label="bad")
    assert np.isnan(ds.features[0, 0])
    assert np.isnan(ds.features[1, 1]) and ds.vocabularies[1] == ("a",)
    assert _cells(ds)[1, 1] is None


def test_load_custom_missing_token(tmp_path):
    schema = [ColumnSpec("x", "numeric", missing_token="NA"),
              ColumnSpec("label", "categorical")]
    p = write(tmp_path, "x,label\nNA,bad\n3,good\n")
    ds = load_csv(p, schema, "label", positive_label="bad")
    assert np.isnan(ds.features[0, 0])


def test_load_numeric_label_without_mapping(tmp_path):
    p = write(tmp_path, "amount,grade,label\n10,a,1\n20,b,0\n")
    ds = load_csv(p, SCHEMA, "label")
    assert list(ds.labels) == [1, 0]


def test_load_missing_file():
    with pytest.raises(FileNotFoundError, match="nonexistent.csv"):
        load_csv("nonexistent.csv", SCHEMA, "label")


def test_load_header_mismatch(tmp_path):
    p = write(tmp_path, "wrong,grade,label\n10,a,bad\n")
    with pytest.raises(SchemaError, match="header mismatch"):
        load_csv(p, SCHEMA, "label")


@pytest.mark.parametrize("header, row", [
    ("amount, grade, label", "10,a,bad"),
    ("amount,grade,label", "10, a, bad"),
    (" amount ,grade,  label ", " 10 ,a ,bad"),
])
def test_load_strips_padding_in_comma_headers_and_rows(tmp_path, header, row):
    p = write(tmp_path, f"{header}\n{row}\n20,b,good\n")
    ds = load_csv(p, SCHEMA, "label", positive_label="bad")
    assert ds.features[:, 0].tolist() == [10.0, 20.0]
    assert ds.vocabularies[1] == ("a", "b") and ds.labels.tolist() == [1, 0]


def test_load_padded_header_with_a_wrong_name_keeps_its_message(tmp_path):
    p = write(tmp_path, "amount, grades, label\n10,a,bad\n")
    with pytest.raises(SchemaError) as got:
        load_csv(p, SCHEMA, "label")
    assert str(got.value) == ("header mismatch: file has ['amount', 'grades', 'label'], "
                              "schema declares ['amount', 'grade', 'label']")


def test_load_ragged_row_names_row(tmp_path):
    p = write(tmp_path, "amount,grade,label\n10,a,bad\n20,b\n")
    with pytest.raises(RaggedRowError, match="row 2"):
        load_csv(p, SCHEMA, "label", positive_label="bad")


def test_load_cell_parse_error_names_row_and_column(tmp_path):
    p = write(tmp_path, "amount,grade,label\nxyz,a,bad\n20,b,good\n")
    with pytest.raises(CellParseError, match="row 1.*amount"):
        load_csv(p, SCHEMA, "label", positive_label="bad")


def test_load_non_binary_label(tmp_path):
    p = write(tmp_path, "amount,grade,label\n10,a,bad\n20,b,good\n30,c,ugly\n")
    with pytest.raises(NonBinaryLabelError):
        load_csv(p, SCHEMA, "label", positive_label="bad")


def test_load_empty_file(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(EmptyDataError, match="no data rows"):
        load_csv(p, SCHEMA, "label")


def test_load_header_only(tmp_path):
    p = write(tmp_path, "amount,grade,label\n")
    with pytest.raises(EmptyDataError, match="no data rows"):
        load_csv(p, SCHEMA, "label")


def test_read_schema_checks_declared_dimension(tmp_path):
    columns = ("column amount numeric\ncolumn grade categorical\n"
               "column label categorical\nlabel label positive=bad\n")
    good = write(tmp_path, columns + "dimension 3\n", name="good.schema")
    data = write(tmp_path, "amount,grade,label\n10,a,bad\n20,b,good\n")
    assert load_with_schema(data, good).d == 2
    bad = write(tmp_path, columns + "dimension 25\n", name="bad.schema")
    message = "^declared dimension 25 implies 24 features, schema has 2$"
    with pytest.raises(SchemaError, match=message):
        read_schema(bad)
    # the mismatch is raised before the data file is opened
    with pytest.raises(SchemaError, match=message):
        load_with_schema(tmp_path / "absent.csv", bad)


def _loop_load_csv(path, schema, label_column, positive_label=None):
    """Reference loader: one list per row, copied into the matrix row by row.

    Returns (features, labels, feature specs); reads well-formed headers only.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    delimiter = "," if "," in lines[0] else None
    label_idx = [c.name for c in schema].index(label_column)
    feature_specs = [c for i, c in enumerate(schema) if i != label_idx]
    raw_labels, rows = [], []
    for row_no, line in enumerate(lines[1:], start=1):
        fields = _split_line(line, delimiter)
        if len(fields) != len(schema):
            raise RaggedRowError(row=row_no, expected=len(schema), got=len(fields))
        raw_labels.append(fields[label_idx].strip())
        row = []
        for spec, tok in zip(feature_specs, (f for i, f in enumerate(fields) if i != label_idx)):
            tok = tok.strip()
            if tok == spec.missing_token:
                row.append(np.nan if spec.kind == NUMERIC else None)
            elif spec.kind == NUMERIC:
                try:
                    value = float(tok)
                except ValueError:
                    value = math.inf
                if math.isinf(value):  # unparsable, or a token such as inf or 1e400
                    raise CellParseError(row=row_no, column=spec.name, token=tok)
                row.append(value)
            else:
                row.append(tok)
        rows.append(row)
    labels = np.array([int(t == positive_label) if positive_label is not None else int(t)
                       for t in raw_labels], dtype=int)
    features = np.empty((len(rows), len(feature_specs)), dtype=object)
    for i, row in enumerate(rows):
        features[i, :] = row
    return features, labels, feature_specs


def _cells(ds: Dataset) -> np.ndarray:
    """The raw cells of a raw dataset as an object matrix: floats (NaN if
    missing) and category strings (None if missing)."""
    cells = ds.features.astype(object)
    for j, vocab in enumerate(ds.vocabularies):
        if vocab is not None:
            cells[:, j] = [None if v != v else vocab[int(v)] for v in ds.features[:, j]]
    return cells


def _assert_same_cells(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == object
    assert got.shape == want.shape
    for g, w in zip(got.ravel().tolist(), want.ravel().tolist()):
        assert type(g) is type(w), (g, w)
        assert g == w or (g != g and w != w), (g, w)


def _ingest_table(delimiter: str, label_pos: int, n: int = 600, seed: int = 0):
    """Schema and text of a table with three feature columns and a label at
    ``label_pos``; ``x`` marks gaps with ``NA``, the others with ``?``, and
    ``y`` also holds ``nan`` tokens."""
    rng = np.random.default_rng(seed)
    features = [ColumnSpec("x", "numeric", missing_token="NA"),
                ColumnSpec("g", "categorical"),
                ColumnSpec("y", "numeric")]
    schema = list(features)
    schema.insert(label_pos, ColumnSpec("label", "categorical"))
    pad = " " if delimiter == "," else ""
    lines = [delimiter.join(c.name for c in schema)]
    for _ in range(n):
        cells = {
            "x": rng.choice(["NA", "-0", "1e3", f"{rng.normal():.17g}", "7"]),
            "g": rng.choice(["?", "a", "b", "long-name", "NA"]),
            "y": rng.choice(["?", "nan", "-2.5", f"{pad}12{pad}", "0"]),
            "label": rng.choice(["bad", "good"]),
        }
        lines.append(delimiter.join(cells[c.name] for c in schema))
    return schema, "\n".join(lines) + "\n"


@pytest.mark.parametrize("label_pos", [0, 2, 3], ids=["label-first", "label-middle",
                                                      "label-last"])
@pytest.mark.parametrize("delimiter", [",", " "], ids=["comma", "whitespace"])
def test_load_matches_row_loop_oracle(tmp_path, delimiter, label_pos):
    schema, text = _ingest_table(delimiter, label_pos)
    p = write(tmp_path, text)
    ds = load_csv(p, schema, "label", positive_label="bad")
    features, labels, feature_specs = _loop_load_csv(p, schema, "label", positive_label="bad")
    _assert_same_cells(_cells(ds), features)
    want = Dataset.from_cells(features, labels, feature_specs)
    assert ds.features.dtype == want.features.dtype == np.float64
    assert ds.features.tobytes() == want.features.tobytes()
    assert ds.vocabularies == want.vocabularies
    assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)
    assert ds.schema == feature_specs
    assert [c.name for c in ds.schema] == ["x", "g", "y"]
    column = {c.name: j for j, c in enumerate(ds.schema)}
    assert {type(v) for v in _cells(ds)[:, column["g"]]} <= {str, type(None)}
    assert ds.vocabularies[column["x"]] is None
    assert np.isnan(ds.features[:, column["x"]]).any()  # NA read as missing


def test_load_matches_row_loop_oracle_with_no_feature_columns(tmp_path):
    schema = [ColumnSpec("label", "categorical")]
    p = write(tmp_path, "label\n1\n0\n1\n")
    ds = load_csv(p, schema, "label")
    features, labels, feature_specs = _loop_load_csv(p, schema, "label")
    assert ds.features.shape == (3, 0) and ds.vocabularies == ()
    _assert_same_cells(_cells(ds), features)
    want = Dataset.from_cells(features, labels, feature_specs)
    assert ds.features.tobytes() == want.features.tobytes()
    assert np.array_equal(ds.labels, labels) and ds.schema == feature_specs == []


BAD_ROWS = "amount,grade,label\n1,a,bad\n{row2}\n3,c,good\n4,d,bad\n{row5}\n"


@pytest.mark.parametrize("row2, row5, error, match", [
    ("xyz,b,good", "5,e", CellParseError, "row 2, column 'amount'"),
    ("2,b", "zz,e,good", RaggedRowError, "row 2: expected 3 fields, got 2"),
    ("2,b,good,extra", "5,e", RaggedRowError, "row 2: expected 3 fields, got 4"),
    ("2,b,good", "5,e", RaggedRowError, "row 5: expected 3 fields, got 2"),
    ("2 b good", "5 e good", RaggedRowError, "row 2: expected 3 fields, got 1"),
])
def test_load_reports_the_first_bad_row(tmp_path, row2, row5, error, match):
    p = write(tmp_path, BAD_ROWS.format(row2=row2, row5=row5))
    with pytest.raises(error, match=match) as got:
        load_csv(p, SCHEMA, "label", positive_label="bad")
    with pytest.raises(error) as want:
        _loop_load_csv(p, SCHEMA, "label", positive_label="bad")
    assert str(got.value) == str(want.value)
    assert got.value.row == want.value.row


@pytest.mark.parametrize("faults, error, row", [
    ({300: "xyz,b,good", 520: "2,b"}, CellParseError, 300),
    ({257: "2,b", 258: "xyz,b,good"}, RaggedRowError, 257),
    ({256: "inf,b,good", 257: "2,b,good,extra"}, CellParseError, 256),
    ({512: "1,b", 600: "1e400,a,bad"}, RaggedRowError, 512),
    ({599: "1,a,bad,x", 600: "-inf,a,bad"}, RaggedRowError, 599),
    ({699: "1,a,bad", 700: "-inf,a,bad"}, CellParseError, 700),
])
def test_load_reports_the_first_bad_row_across_blocks(tmp_path, faults, error, row):
    # 700 rows span three parsing blocks; the first fault in file order wins
    rows = [faults.get(i, f"{i},{'abc'[i % 3]},{'bad' if i % 2 else 'good'}")
            for i in range(1, 701)]
    p = write(tmp_path, "amount,grade,label\n" + "\n".join(rows) + "\n")
    with pytest.raises(error) as got:
        load_csv(p, SCHEMA, "label", positive_label="bad")
    assert got.value.row == row
    assert str(got.value).startswith(f"row {row}")
    with pytest.raises(error) as want:
        _loop_load_csv(p, SCHEMA, "label", positive_label="bad")
    assert str(got.value) == str(want.value)


def test_load_reports_the_first_bad_cell_in_row_major_order(tmp_path):
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("label", "categorical"),
              ColumnSpec("b", "numeric"), ColumnSpec("c", "numeric")]
    p = write(tmp_path, "a,label,b,c\n1,0,2,3\n4,1,x5,y6\nz7,0,8,9\n")
    with pytest.raises(CellParseError) as got:
        load_csv(p, schema, "label")
    assert (got.value.row, got.value.column) == (2, "b")
    assert str(got.value) == "row 2, column 'b': cannot parse 'x5' as a number"


@pytest.mark.parametrize("token", ["inf", "-inf", "1e400", "-1E999", "Infinity", "+INF"])
def test_load_rejects_infinite_numeric_tokens(tmp_path, token):
    p = write(tmp_path, f"amount,grade,label\n1,a,bad\n2,b,good\n{token},c,bad\n")
    with pytest.raises(CellParseError) as got:
        load_csv(p, SCHEMA, "label", positive_label="bad")
    assert (got.value.row, got.value.column) == (3, "amount")
    assert str(got.value) == f"row 3, column 'amount': cannot parse {token!r} as a number"


def test_load_reads_nan_token_as_missing(tmp_path):
    p = write(tmp_path, "amount,grade,label\nnan,a,bad\n2,b,good\n4,a,good\n1e308,b,bad\n")
    ds = load_csv(p, SCHEMA, "label", positive_label="bad")
    assert np.isnan(ds.features[0, 0]) and ds.features[3, 0] == 1e308
    with pytest.raises(ColumnOverflowError, match="'amount'"):  # 1e308 squared overflows
        preprocess(ds, scale=False)
    out, report = preprocess(replace(ds, features=ds.features[:3], labels=ds.labels[:3]),
                             scale=False)
    assert report.imputation["amount"] == 3.0
    assert out.features[0, 0] == report.imputation["amount"]


def test_load_triggers_no_gc_cascade(tmp_path):
    # One container per row kept alive until the end made the cyclic
    # collector run 28 times on this table; parsing in blocks of rows keeps
    # that near 0.
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("b", "categorical"),
              ColumnSpec("c", "numeric"), ColumnSpec("d", "categorical"),
              ColumnSpec("label", "categorical")]
    rows = (f"{i % 97},c{i % 7},{i * 0.5},d{i % 3},{i % 2}" for i in range(20_000))
    p = write(tmp_path, "a,b,c,d,label\n" + "\n".join(rows) + "\n")
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        ds = load_csv(p, schema, "label")
    finally:
        gc.callbacks.remove(count)
    assert ds.n == 20_000
    assert len(collections) <= 2, collections


def test_read_schema_grammar(tmp_path):
    p = write(tmp_path, (
        "# comment line\n"
        "column amount numeric\n"
        "column grade categorical missing=NA\n"
        "column outcome categorical   # trailing comment\n"
        "label outcome positive=bad\n"
        "dimension 3\n"
    ), name="s.schema")
    sf = read_schema(p)
    assert [c.name for c in sf.columns] == ["amount", "grade", "outcome"]
    assert sf.columns[1].missing_token == "NA"
    assert sf.label_column == "outcome"
    assert sf.positive_label == "bad"


def test_read_schema_errors(tmp_path):
    with pytest.raises(SchemaError, match="no label"):
        read_schema(write(tmp_path, "column a numeric\n", name="a.schema"))
    with pytest.raises(SchemaError, match="duplicate"):
        read_schema(write(tmp_path,
                          "column a numeric\ncolumn a numeric\nlabel a\n",
                          name="b.schema"))
    with pytest.raises(SchemaError, match="unknown directive"):
        read_schema(write(tmp_path, "weird a b\n", name="c.schema"))
    with pytest.raises(SchemaError, match="unknown kind"):
        read_schema(write(tmp_path, "column a text\nlabel a\n", name="d.schema"))
    with pytest.raises(SchemaError, match="not among"):
        read_schema(write(tmp_path, "column a numeric\nlabel b\n", name="e.schema"))
    with pytest.raises(SchemaError, match=r"f\.schema: schema declares no feature column$"):
        read_schema(write(tmp_path, "column a numeric\nlabel a\ndimension 1\n",
                          name="f.schema"))


@pytest.mark.parametrize("line,got", [
    ("dimension", "none"),
    ("dimension four", "four"),
    ("dimension 3 4", "3 4"),
])
def test_read_schema_rejects_a_bad_dimension_line(tmp_path, line, got):
    p = write(tmp_path, f"column a numeric\nlabel a\n{line}\n", name="s.schema")
    with pytest.raises(SchemaError, match=rf"s\.schema:3: dimension line needs one integer, "
                                          rf"got {got}$"):
        read_schema(p)


@pytest.mark.parametrize("lines,kw", [
    # a later label line would replace the column but keep positive=good,
    # which would fail at data time as a label that never occurs
    ("column y categorical\nlabel y positive=good\nlabel a\n", "label"),
    ("column y categorical\ndimension 2\ndimension 3\nlabel y\n", "dimension"),
])
def test_read_schema_rejects_a_second_label_or_dimension_line(tmp_path, lines, kw):
    p = write(tmp_path, "column a numeric\n" + lines, name="s.schema")
    with pytest.raises(SchemaError, match=rf"s\.schema:4: a schema has one {kw} line$"):
        read_schema(p)


def test_load_with_schema_round_trip(tmp_path):
    data = write(tmp_path, "amount,grade,outcome\n10,a,bad\n20,b,good\n")
    schema = write(tmp_path, (
        "column amount numeric\ncolumn grade categorical\n"
        "column outcome categorical\nlabel outcome positive=bad\n"
    ), name="s.schema")
    ds = load_with_schema(data, schema)
    assert ds.n == 2 and list(ds.labels) == [1, 0]


def _tiny(features, kinds):
    schema = [ColumnSpec(f"c{j}", k) for j, k in enumerate(kinds)]
    feat = np.empty((len(features), len(kinds)), dtype=object)
    for i, row in enumerate(features):
        feat[i, :] = row
    return Dataset.from_cells(feat, np.zeros(len(features), dtype=int), schema)


def test_impute_numeric_mean():
    ds = _tiny([[1.0], [np.nan], [3.0]], ["numeric"])
    out, report = preprocess(ds, scale=False)
    assert list(out.features[:, 0]) == [1.0, 2.0, 3.0]
    assert report.imputation["c0"] == 2.0


def test_impute_categorical_mode():
    ds = _tiny([["b"], ["a"], ["a"], [None]], ["categorical"])
    out, report = preprocess(ds, scale=False)
    assert list(out.features[:, 0]) == [0.0, 1.0, 1.0, 1.0]
    assert report.imputation["c0"] == "a"


def test_impute_mode_tie_lexicographic():
    ds = _tiny([["b"], ["a"], [None]], ["categorical"])
    out, report = preprocess(ds, scale=False)
    assert report.imputation["c0"] == "a"
    assert out.features[2, 0] == out.features[1, 0] == 1.0


def test_impute_no_missing_unchanged():
    ds = _tiny([[1.0, "x"], [2.0, "y"]], ["numeric", "categorical"])
    out, report = preprocess(ds, scale=False)
    assert out.features.tolist() == [[1.0, 0.0], [2.0, 1.0]]
    # fills recorded anyway, so replay is independent of missingness pattern
    assert report.imputation["c0"] == 1.5 and report.imputation["c1"] == "x"


def test_impute_all_missing_column():
    for kind, cell in (("numeric", np.nan), ("categorical", None)):
        ds = _tiny([[1.0, cell], [2.0, cell]], ["numeric", kind])
        with pytest.raises(AllMissingColumnError) as err:
            preprocess(ds)
        assert str(err.value) == "column 'c1' has no observed values to impute from"


@pytest.mark.parametrize("scale", [True, False])
def test_preprocess_rejects_a_column_whose_std_overflows(scale):
    # 1e200 parses, but its squared deviation does not fit in a float64; a
    # scaled run would otherwise divide the column by inf and zero it
    for cell in (1e200, -1e200, np.inf):
        ds = _tiny([[1.0, 0.5], [2.0, cell], [3.0, 0.25]], ["numeric", "numeric"])
        with pytest.raises(ColumnOverflowError) as err:
            preprocess(ds, scale=scale)
        assert str(err.value) == ("column 'c1': values too large, their standard "
                                  "deviation overflows float64")
    out, report = preprocess(_tiny([[1e150], [-1e150]], ["numeric"]), scale=scale)
    assert np.isfinite(out.features).all()


def test_replay_turns_a_value_too_large_to_scale_into_inf():
    _, report = preprocess(_tiny([[0.1], [0.2], [0.3]], ["numeric"]))
    out = apply_report(_tiny([[1.7e308], [0.2]], ["numeric"]), report)  # 1.7e308 / 0.08
    assert out.features[0, 0] == np.inf and np.isfinite(out.features[1, 0])


def test_encode_first_appearance():
    ds = _tiny([["red"], ["blue"], ["red"]], ["categorical"])
    out, report = preprocess(ds, scale=False)
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0]
    assert report.codes["c0"] == ["red", "blue"]


def test_encode_first_appearance_second_example():
    ds = _tiny([["b"], ["a"], ["b"], ["c"]], ["categorical"])
    out, _ = preprocess(ds, scale=False)
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0, 2.0]


def test_encode_first_appearance_counts_filled_cells():
    # the gap in row 0 is filled with the mode "a" before codes are assigned
    ds = _tiny([[None], ["b"], ["a"], ["a"]], ["categorical"])
    out, report = preprocess(ds, scale=False)
    assert report.codes["c0"] == ["a", "b"]
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0, 0.0]


def test_encode_all_numeric_unchanged():
    ds = _tiny([[1.5], [2.5]], ["numeric"])
    out, report = preprocess(ds, scale=False)
    assert list(out.features[:, 0]) == [1.5, 2.5]
    assert report.codes == {}


def test_standardize_two_points():
    ds = _tiny([[0.0], [2.0]], ["numeric"])
    out, report = preprocess(ds)
    assert list(out.features[:, 0]) == [-1.0, 1.0]
    assert report.means["c0"] == 1.0 and report.stds["c0"] == 1.0


def test_standardize_constant_column_zeros():
    ds = _tiny([[5.0, "a"], [5.0, "a"], [5.0, None]], ["numeric", "categorical"])
    out, report = preprocess(ds)
    assert (out.features == 0.0).all()
    assert report.stds == {"c0": 0.0, "c1": 0.0}


def test_standardize_random_moments():
    rng = np.random.default_rng(0)
    X = rng.normal(3, 7, size=(200, 4))
    schema = [ColumnSpec(f"c{j}", "numeric") for j in range(4)]
    ds = Dataset.from_cells(X, np.zeros(200, dtype=int), schema)
    out, _ = preprocess(ds)
    Z = np.asarray(out.features, dtype=float)
    assert np.abs(Z.mean(axis=0)).max() < 1e-12
    assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-12


def test_standardize_uses_population_std():
    ds = _tiny([[0.0], [1.0]], ["numeric"])
    _, report = preprocess(ds)
    assert report.stds["c0"] == 0.5  # population, not sample (which would be ~0.707)


def test_standardize_rejects_infinite_cells():
    ds = _tiny([[1.0], [np.inf]], ["numeric"])
    for scale in (True, False):
        with pytest.raises(ColumnOverflowError, match="'c0'"):
            preprocess(ds, scale=scale)


def test_preprocess_leaves_no_missing(raw_dataset):
    out, _ = preprocess(raw_dataset)
    X = np.asarray(out.features, dtype=float)
    assert np.isfinite(X).all()


def test_replay_reproduces_processed_matrix(raw_dataset):
    out, report = preprocess(raw_dataset)
    replayed = apply_report(raw_dataset, PreprocessReport(**json.loads(report.to_json())))
    assert replayed.features.dtype == out.features.dtype == np.float64
    assert replayed.features.tobytes() == out.features.tobytes()


def test_replay_without_scaling(raw_dataset):
    out, report = preprocess(raw_dataset, scale=False)
    replayed = apply_report(raw_dataset, report)
    assert np.array_equal(np.asarray(out.features, dtype=float),
                          np.asarray(replayed.features, dtype=float))


def test_replay_unseen_category_gets_overflow_code():
    train = _tiny([["a"], ["b"]], ["categorical"])
    test = _tiny([["c"], ["a"]], ["categorical"])
    _, report = preprocess(train, scale=False)
    assert list(apply_report(test, report).features[:, 0]) == [2.0, 0.0]
    _, report = preprocess(train)
    assert report.means["c0"] == 0.5 and report.stds["c0"] == 0.5
    assert list(apply_report(test, report).features[:, 0]) == [3.0, -1.0]


@pytest.mark.parametrize("scale", [True, False])
def test_replay_report_missing_a_column_names_it(scale):
    _, report = preprocess(_tiny([[1.0], [2.0]], ["numeric"]), scale=scale)
    ds = Dataset.from_cells([[1.0, 1.0], [3.0, 2.0]], np.zeros(2, dtype=int),
                            [ColumnSpec("a", "numeric"), ColumnSpec("c0", "numeric")])
    with pytest.raises(SchemaError, match="'a'"):
        apply_report(ds, report)


@pytest.mark.parametrize("moments", [("means",), ("stds",), ("means", "stds")])
def test_replay_scaled_report_without_a_columns_moments_names_it(moments):
    ds = Dataset.from_cells([[1.0, 2.0], [3.0, 5.0]], np.zeros(2, dtype=int),
                            [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")])
    _, report = preprocess(ds)
    for moment in moments:
        del getattr(report, moment)["b"]
    with pytest.raises(SchemaError, match="'b'"):
        apply_report(ds, report)


def test_replay_report_without_codes_for_a_categorical_column_names_it():
    train = _tiny([["a"], ["b"], ["a"], ["c"]], ["categorical"])
    _, report = preprocess(train)
    no_codes = PreprocessReport(imputation=report.imputation, means=report.means,
                                stds=report.stds)
    with pytest.raises(SchemaError, match="'c0'"):
        apply_report(train, no_codes)
    _, numeric_report = preprocess(_tiny([[1.0], [2.0]], ["numeric"]), scale=False)
    with pytest.raises(SchemaError, match="'c0'"):  # a numeric column re-declared categorical
        apply_report(_tiny([["1.0"], ["2.0"]], ["categorical"]), numeric_report)


def test_categorical_column_without_vocabulary_names_it(raw_dataset):
    out, report = preprocess(raw_dataset)  # a processed dataset carries no vocabulary
    assert sorted(raw_dataset.vocabularies[2]) == ["high", "low", "mid"]
    assert out.vocabularies is None
    with pytest.raises(SchemaError, match="'grade' is categorical but has no vocabulary"):
        preprocess(out)
    with pytest.raises(SchemaError, match="'grade' is categorical but has no vocabulary"):
        apply_report(out, report)


def test_report_json_round_trip(raw_dataset):
    for scale in (True, False):
        _, report = preprocess(raw_dataset, scale=scale)
        clone = PreprocessReport(**json.loads(report.to_json()))
        assert clone == report
        assert bool(clone.means) is bool(clone.stds) is scale
        assert clone.to_json() == report.to_json()


def test_report_json_keys_are_the_field_names(raw_dataset):
    _, report = preprocess(raw_dataset)
    assert list(json.loads(report.to_json())) == sorted(f.name for f in fields(PreprocessReport))


def test_report_json_reads_missing_fields_as_empty(raw_dataset):
    # a fold fit's dict holds the report's fields, read back as keywords
    _, report = preprocess(raw_dataset, scale=False)
    assert PreprocessReport(**json.loads("{}")) == PreprocessReport()
    partial = PreprocessReport(**json.loads(json.dumps({"imputation": report.imputation,
                                                        "codes": report.codes})))
    assert partial == report and partial.means == {} and partial.stds == {}


def test_write_processed_round_trips_floats(tmp_path, raw_dataset):
    out, _ = preprocess(raw_dataset)
    path = tmp_path / "processed.csv"
    write_processed(out, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "amount,age,grade,label"
    cells = lines[1].split(",")
    reread = np.array([float(v) for v in cells[:-1]])
    assert np.array_equal(reread, np.asarray(out.features[0], dtype=float))


@st.composite
def raw_tables(draw):
    """(numeric cells, categorical cells) of one table, None marking a gap.

    Half the tables give every category the same count (a mode tie), half
    have a constant numeric column, and a third use a single category.
    """
    categories = draw(st.sampled_from(["a", "ab", "abc"]))
    if draw(st.booleans()):
        per = draw(st.integers(min_value=2, max_value=4))
        gaps = draw(st.integers(min_value=0, max_value=3))
        cat = draw(st.permutations(list(categories) * per + [None] * gaps))
    else:
        n = draw(st.integers(min_value=2, max_value=15))
        cat = draw(st.lists(st.one_of(st.sampled_from(categories), st.none()),
                            min_size=n, max_size=n))
    n = len(cat)
    numbers = st.floats(min_value=-50, max_value=50,
                        allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        numbers = st.just(draw(numbers))
    num = draw(st.lists(st.one_of(numbers, st.none()), min_size=n, max_size=n))
    if all(v is None for v in num):
        num[0] = 1.0
    if all(v is None for v in cat):
        cat[0] = "a"
    return num, cat


TABLE_SCHEMA = [ColumnSpec("x", "numeric"), ColumnSpec("g", "categorical")]


def _table_cells(table) -> np.ndarray:
    num, cat = table
    n = len(num)
    feat = np.empty((n, 2), dtype=object)
    for i in range(n):
        feat[i, 0] = np.nan if num[i] is None else float(num[i])
        feat[i, 1] = cat[i]
    return feat


def _table_dataset(table) -> Dataset:
    return Dataset.from_cells(_table_cells(table), np.zeros(len(table[0]), dtype=int),
                              TABLE_SCHEMA)


@given(raw_tables(), st.booleans())
@settings(deadline=None, max_examples=60)
def test_replay_property_random_tables(table, scale):
    ds = _table_dataset(table)
    out, report = preprocess(ds, scale=scale)
    replayed = apply_report(ds, report)
    assert replayed.features.tobytes() == out.features.tobytes()


# Reference: the per-cell impute -> encode -> standardize chain that
# preprocess replaced, kept to check that the whole-column transform gives
# the same bytes.

def _ref_is_missing(value) -> bool:
    return value is None or (isinstance(value, float) and np.isnan(value))


def _ref_preprocess(cells: np.ndarray, schema, scale: bool):
    report = PreprocessReport()
    out = cells.copy()
    for j, spec in enumerate(schema):
        col = out[:, j]
        observed = [v for v in col if not _ref_is_missing(v)]
        if not observed:
            raise AllMissingColumnError(spec.name)
        if spec.kind == "numeric":
            fill = float(np.mean(np.array(observed, dtype=float)))
        else:
            counts = Counter(observed)
            top = max(counts.values())
            fill = min(c for c, k in counts.items() if k == top)
        report.imputation[spec.name] = fill
        for i in range(out.shape[0]):
            if _ref_is_missing(out[i, j]):
                out[i, j] = fill
    X = np.empty(out.shape, dtype=float)
    for j, spec in enumerate(schema):
        col = out[:, j]
        if spec.kind == "numeric":
            X[:, j] = col.astype(float)
            continue
        table: dict[str, int] = {}
        for v in col:
            if v not in table:
                table[v] = len(table)
        report.codes[spec.name] = list(table.keys())
        X[:, j] = [table[v] for v in col]
    if not scale:
        return X, report
    Z = np.empty_like(X)
    for j, spec in enumerate(schema):
        mu = float(np.mean(X[:, j]))
        sigma = float(np.std(X[:, j]))
        report.means[spec.name] = mu
        report.stds[spec.name] = sigma
        Z[:, j] = 0.0 if sigma == 0.0 else (X[:, j] - mu) / sigma
    return Z, report


@given(raw_tables(), st.booleans())
@settings(deadline=None, max_examples=200)
def test_preprocess_matches_per_cell_reference_bitwise(table, scale):
    out, report = preprocess(_table_dataset(table), scale=scale)
    ref_X, ref_report = _ref_preprocess(_table_cells(table), TABLE_SCHEMA, scale)
    assert out.features.tobytes() == ref_X.tobytes()
    assert report.to_json() == ref_report.to_json()


@pytest.mark.parametrize("scale", [True, False])
def test_preprocess_matches_per_cell_reference_on_mixed_table(scale):
    cells, labels, schema = mixed_raw_cells(n=500, seed=7, missing_rate=0.2)
    out, report = preprocess(Dataset.from_cells(cells, labels, schema), scale=scale)
    ref_X, ref_report = _ref_preprocess(cells, schema, scale)
    assert out.features.tobytes() == ref_X.tobytes()
    assert report.to_json() == ref_report.to_json()


# Oracle: the object-matrix preprocess and apply_report that interned ingest
# replaced. It reads raw cells (floats or NaN, strings or None) and compares
# categories as strings, so it knows nothing of ids.

def _obj_missing(col: np.ndarray) -> np.ndarray:
    return np.equal(col, None) | (col != col)


def _obj_transform_column(col, spec, report, scale):
    name = spec.name
    filled = np.where(_obj_missing(col), report.imputation[name], col)
    if spec.kind == NUMERIC:
        vals = filled.astype(float)
    else:
        cats, inverse = np.unique(filled.astype(str), return_inverse=True)
        table = {c: i for i, c in enumerate(report.codes[name])}
        vals = np.array([table.get(c, len(table)) for c in cats], dtype=float)[inverse]
    if scale:
        mu, sigma = report.means[name], report.stds[name]
        vals = np.zeros_like(vals) if sigma == 0.0 else (vals - mu) / sigma
    return vals


def _obj_preprocess(cells: np.ndarray, schema, scale: bool):
    report = PreprocessReport()
    out = np.empty(cells.shape, dtype=float)
    for j, spec in enumerate(schema):
        col = cells[:, j]
        missing = _obj_missing(col)
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
        out[:, j] = _obj_transform_column(col, spec, report, scale=False)
    if scale:
        for j, spec in enumerate(schema):
            mu = report.means[spec.name] = float(np.mean(out[:, j]))
            sigma = report.stds[spec.name] = float(np.std(out[:, j]))
            out[:, j] = np.zeros_like(out[:, j]) if sigma == 0.0 else (out[:, j] - mu) / sigma
    return out, report


def _obj_apply_report(cells: np.ndarray, schema, report, scale: bool) -> np.ndarray:
    out = np.empty(cells.shape, dtype=float)
    for j, spec in enumerate(schema):
        out[:, j] = _obj_transform_column(cells[:, j], spec, report, scale)
    return out


SPLIT_SCHEMA = [ColumnSpec("x", "numeric"), ColumnSpec("g", "categorical"),
                ColumnSpec("h", "categorical")]
TRAIN_CATEGORIES = ["a", "b", "ab", "B", "nan"]
LATER_CATEGORIES = TRAIN_CATEGORIES + ["c", "zz"]


@st.composite
def split_tables(draw):
    """(cells, is_train) of a table with the columns of ``SPLIT_SCHEMA``.

    ``cells`` holds the training rows first, then the other rows; ``is_train``
    is the order a file would hold them in, training and other rows
    interleaved. Each column of the training rows is gappy, all missing, or
    (categorical) an exact mode tie; the other rows may hold categories no
    training row holds.
    """
    n_train = draw(st.integers(min_value=1, max_value=10))
    n_other = draw(st.integers(min_value=0, max_value=8))
    columns = []
    for spec in SPLIT_SCHEMA:
        if spec.kind == NUMERIC:
            train_values = later_values = st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
        else:
            train_values = st.sampled_from(TRAIN_CATEGORIES)
            later_values = st.sampled_from(LATER_CATEGORIES)
        shape = draw(st.sampled_from(["gappy"] * 10 + ["tied"] * 8 + ["all missing"]))
        if shape == "all missing":
            train = [None] * n_train
        elif shape == "tied" and spec.kind != NUMERIC and n_train >= 2:
            tied = draw(st.lists(train_values, min_size=1, max_size=n_train // 2, unique=True))
            per = draw(st.integers(min_value=1, max_value=n_train // len(tied)))
            train = draw(st.permutations(tied * per + [None] * (n_train - per * len(tied))))
        else:
            train = draw(st.lists(st.one_of(train_values, st.none()),
                                  min_size=n_train, max_size=n_train))
        other = draw(st.lists(st.one_of(later_values, st.none()),
                              min_size=n_other, max_size=n_other))
        columns.append(train + other)
    cells = np.empty((n_train + n_other, len(SPLIT_SCHEMA)), dtype=object)
    for j, (spec, column) in enumerate(zip(SPLIT_SCHEMA, columns)):
        cells[:, j] = [np.nan if spec.kind == NUMERIC and v is None else v for v in column]
    is_train = np.array(draw(st.permutations([True] * n_train + [False] * n_other)), dtype=bool)
    return cells, is_train


@given(split_tables(), st.booleans())
@settings(deadline=None, max_examples=300)
def test_interned_preprocess_and_replay_match_object_matrix_oracle(table, scale):
    cells, is_train = table
    n_train = int(is_train.sum())
    # Lay the rows out as the file would: each category's id is set by the
    # row it first appears in, which may be a training row or not.
    order = np.empty(len(cells), dtype=int)
    order[is_train] = np.arange(n_train)
    order[~is_train] = np.arange(n_train, len(cells))
    ds = Dataset.from_cells(cells[order], np.zeros(len(cells), dtype=int), SPLIT_SCHEMA)
    train = replace(ds, features=ds.features[is_train], labels=ds.labels[is_train])
    other = replace(ds, features=ds.features[~is_train], labels=ds.labels[~is_train])
    assert train.vocabularies is other.vocabularies is ds.vocabularies
    _assert_same_cells(_cells(train), cells[:n_train])
    try:
        want_X, want_report = _obj_preprocess(cells[:n_train], SPLIT_SCHEMA, scale)
    except AllMissingColumnError as want:
        with pytest.raises(AllMissingColumnError) as got:
            preprocess(train, scale=scale)
        assert str(got.value) == str(want)
        return
    out, report = preprocess(train, scale=scale)
    assert report.to_json() == want_report.to_json()
    assert out.features.tobytes() == want_X.tobytes()
    assert out.vocabularies is None
    replayed = apply_report(other, report)
    want_replay = _obj_apply_report(cells[n_train:], SPLIT_SCHEMA, want_report, scale)
    assert replayed.features.dtype == np.float64
    assert replayed.features.tobytes() == want_replay.tobytes()
    assert replayed.vocabularies is None
