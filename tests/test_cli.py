"""End-to-end command-line behavior: artifacts, exit codes, reruns."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from riskmeans.bench_harness import FoldFit, fit_fold, score_fold
from riskmeans.cli import build_parser, main
from riskmeans.config import load_config
from riskmeans.cv import stratified_kfold
from riskmeans.data_ingest import (
    PreprocessReport,
    apply_report,
    load_with_schema,
    write_processed,
)
from riskmeans.mg_scanner import window_count
from riskmeans.seeding import derive_seed

from conftest import write_toy_files

ROOT = Path(__file__).resolve().parents[1]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "ingest" in capsys.readouterr().out


def test_installed_entry_point_is_main(capsys):
    with open(ROOT / "pyproject.toml", "rb") as fh:
        module, func = tomllib.load(fh)["project"]["scripts"]["riskmeans"].split(":")
    entry = getattr(importlib.import_module(module), func)
    assert entry is main
    assert entry(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: riskmeans ")


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_ingest_writes_artifacts(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "n=150" in out
    processed = tmp_path / "out" / "processed.csv"
    report = tmp_path / "out" / "preprocess.json"
    assert processed.exists() and report.exists()
    payload = _read_json(report)
    assert payload["fingerprint"]["seed"] == 0
    assert len(payload["fingerprint"]["config_hash"]) == 16
    assert payload["fingerprint"]["config"]["cv_folds"] == 5
    assert set(payload["preprocess"]) == {"imputation", "codes", "means", "stds"}
    header = processed.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[:2] == ["x0", "x1"]


def test_missing_data_file_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    data.unlink()
    for argv in (["ingest"], ["run", "--seed", "1"],
                 ["run", "--methods", "kmeans,lr", "--seed", "1"]):
        assert main(argv + ["--config", str(config)]) == 2, argv
        assert "toy.csv" in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists(), argv


@pytest.mark.parametrize("flag, role", [("--config", "config file"),
                                        ("--schema", "schema file"), ("--data", "data file")])
@pytest.mark.parametrize("fault", ["not found", "is a directory"])
def test_path_flag_fault_exits_two_naming_its_role(tmp_path, capsys, flag, role, fault):
    data, schema, config = write_toy_files(tmp_path)
    path = tmp_path / "nope" if fault == "not found" else tmp_path
    assert main(["ingest", "--config", str(config), flag, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {role} {fault}: {path}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["taken", "taken/sub", ""])
def test_out_at_or_under_a_file_exits_two_before_fitting(tmp_path, capsys, monkeypatch, out):
    data, schema, config = write_toy_files(tmp_path)
    (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
    fault = f"{tmp_path / 'taken'} is not a directory"
    if not out:  # a blank [output] dir, and no --out
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace(f"dir = {tmp_path / 'out'}", "dir ="), encoding="utf-8")
        fault = "expected a directory, got ''"
    monkeypatch.setattr("riskmeans.cli.fit_fold", None)  # a fit would raise TypeError
    assert main(["train", "--config", str(config)]
                + (["--out", str(tmp_path / out)] if out else [])) == 2
    assert capsys.readouterr().err == f"error: --out/[output] dir: {fault}\n"
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept\n"


_NO_DATA = "a data file and schema are required (--data/--schema or a config file with a [data] section)"


@pytest.mark.parametrize("argv, message", [
    (["train", "--out", ""], "--out/[output] dir: expected a directory, got ''"),
    (["train", "--data", ""], _NO_DATA),
    (["train", "--schema", ""], _NO_DATA),
    (["scan", "--windows", ""], "--windows/[scanner] windows: at least one window size required"),
], ids=["out", "data", "schema", "windows"])
def test_blank_flag_value_exits_two(tmp_path, capsys, monkeypatch, argv, message):
    # a blank flag overrides the file's value and fails as a blank file value does
    data, schema, config = write_toy_files(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + "\n[scanner]\nwindows = 2\n",
                      encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--config", str(config)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_select_features_command_is_gone(tmp_path, capsys):
    # train's model.json holds the selection
    data, schema, config = write_toy_files(tmp_path)
    assert main(["select-features", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument command: invalid choice: 'select-features'" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["ingest"], ["train"], ["scan", "--windows", "1"]])
def test_schema_without_a_feature_column_exits_two(tmp_path, capsys, command):
    data, schema, config = write_toy_files(tmp_path)
    data.write_text("outcome\n" + "bad\ngood\n" * 75, encoding="utf-8")
    schema.write_text("column outcome categorical\nlabel outcome positive=bad\n",
                      encoding="utf-8")
    assert main(command + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {schema}: schema declares no feature column\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("role", ["config", "schema", "data"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, role):
    paths = dict(zip(("data", "schema", "config"), write_toy_files(tmp_path)))

    def ingest():
        assert main(["ingest", "--config", str(paths["config"])]) == 0
        return [(tmp_path / "out" / f).read_bytes() for f in ("processed.csv",
                                                                "preprocess.json")]

    plain = ingest()
    paths[role].write_bytes(b"\xef\xbb\xbf" + paths[role].read_bytes())
    assert ingest() == plain
    capsys.readouterr()


@pytest.mark.parametrize("header, code", [("x0, x1, grade, outcome", 0),
                                          ("x0, x1, grades, outcome", 2)])
def test_padded_header_loads_and_a_wrong_name_exits_two(tmp_path, capsys, header, code):
    data, schema, config = write_toy_files(tmp_path)
    rows = data.read_text(encoding="utf-8").splitlines()[1:]
    data.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: header mismatch: file has ['x0', 'x1', 'grades', 'outcome'], "
                       "schema declares ['x0', 'x1', 'grade', 'outcome']\n")


def test_no_data_source_exits_two(capsys):
    assert main(["ingest"]) == 2
    assert "schema" in capsys.readouterr().err


def test_bad_config_key_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("[kmeans]\n", "[kmeans]\nwheels = 4\n"),
                      encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "[kmeans]" in err and "wheels" in err


def test_infinite_tol_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("[kmeans]\n", "[kmeans]\ntol = inf\n"), encoding="utf-8")
    assert main(["train", "--config", str(config), "--seed", "1"]) == 2
    assert "[kmeans] tol: expected a finite number, got 'inf'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_numeric_cell_exits_one(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[1] = "oops," + lines[1].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 1
    assert "oops" in capsys.readouterr().err


def test_select_features_artifact(tmp_path, capsys):
    # the selected features are the "selection" section of train's model.json
    data, schema, config = write_toy_files(tmp_path)
    assert main(["train", "--config", str(config), "--target-k", "2"]) == 0
    capsys.readouterr()
    payload = _read_json(tmp_path / "out" / "model.json")["selection"]
    assert set(payload) == {"selected_indices", "selected_columns", "elimination_trace"}
    assert len(payload["selected_indices"]) == 2
    assert len(payload["selected_columns"]) == 2
    assert len(payload["elimination_trace"]) == 1
    entry = payload["elimination_trace"][0]
    assert set(entry) == {"round", "dropped_index", "dropped_column", "score"}


def test_target_k_above_column_count_exits_one(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["train", "--config", str(config), "--target-k", "4"]) == 1
    assert "target_k=4 outside [1, 3]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.json").exists()


def test_train_writes_model(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["train", "--config", str(config), "--k", "3", "--seed", "2"]) == 0
    capsys.readouterr()
    model = _read_json(tmp_path / "out" / "model.json")
    # train fits exactly as one run fold does on all rows, target size included
    ds = load_with_schema(data, schema, name="toy")
    pcfg = dataclasses.replace(load_config(config).pipeline("kmeans", seed=2), kmeans_k=3)
    fit = fit_fold(ds, np.arange(ds.n), pcfg, 2)
    assert set(model) == {"fingerprint", "preprocess", "selection", "kmeans"}
    assert model == {"fingerprint": model["fingerprint"],
                     **json.loads(json.dumps(fit.to_dict(ds.column_names())))}
    assert len(model["kmeans"]["centroids"]) == 3
    assert len(model["kmeans"]["centroids"][0]) == len(fit.selection.selected)
    assert len(model["kmeans"]["posteriors"]) == 3
    assert model["fingerprint"]["seed"] == 2
    assert model["fingerprint"]["config_hash"] == dataclasses.replace(
        load_config(config), kmeans_k=3).fingerprint_hash()
    # the file alone, read back, scores the raw rows as the fit does
    loaded = FoldFit.from_dict(model)
    rows = np.arange(ds.n)
    assert (score_fold(loaded, ds, rows)["kmeans"].tobytes()
            == score_fold(fit, ds, rows)["kmeans"].tobytes())


def test_train_model_does_not_depend_on_how_the_data_path_is_spelled(
        tmp_path, capsys, monkeypatch):
    data, schema, config = write_toy_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, argv in [("rel", ["--data", data.name, "--schema", schema.name]),
                       ("abs", ["--data", str(data), "--schema", str(schema)])]:
        assert main(["train", "--config", str(config), "--out", name] + argv) == 0
    capsys.readouterr()
    assert (tmp_path / "rel" / "model.json").read_bytes() == (
        tmp_path / "abs" / "model.json").read_bytes()


def test_train_model_does_not_depend_on_out_dir(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    args = ["train", "--config", str(config), "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "a" / "model.json").read_bytes()
            == (tmp_path / "b" / "model.json").read_bytes())


@pytest.mark.parametrize("command, artifact", [
    ("ingest", "preprocess.json"), ("train", "model.json"), ("scan", "scan_meta.json")])
def test_every_artifact_carries_the_same_fingerprint(tmp_path, capsys, command, artifact):
    data, schema, config = write_toy_files(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + "\n[scanner]\nwindows = 2\n",
                      encoding="utf-8")
    assert main([command, "--config", str(config), "--seed", "6"]) == 0
    capsys.readouterr()
    cfg = load_config(config)
    assert _read_json(tmp_path / "out" / artifact)["fingerprint"] == {
        "config": json.loads(json.dumps(cfg.fingerprint())),  # windows as a JSON list
        "config_hash": cfg.fingerprint_hash(), "seed": 6}


@pytest.mark.parametrize("config_tail", ["", "\n[rfe]\ntarget_k = 2\n",
                                         "\n[rfe]\nenabled = false\n"])
def test_train_model_holds_the_selection_of_its_fit(tmp_path, capsys, config_tail):
    data, schema, config = write_toy_files(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + config_tail, encoding="utf-8")
    assert main(["train", "--config", str(config), "--seed", "4"]) == 0
    capsys.readouterr()
    ds = load_with_schema(data, schema, name="toy")
    fit = fit_fold(ds, np.arange(ds.n), load_config(config).pipeline("kmeans", seed=4), 4,
                   methods=())
    model = _read_json(tmp_path / "out" / "model.json")
    selection = model["selection"]
    assert selection["selected_indices"] == list(fit.selection.selected)
    assert selection["selected_columns"] == [ds.column_names()[j] for j in fit.selection.selected]
    assert ([(e["round"], e["dropped_index"], e["score"]) for e in selection["elimination_trace"]]
            == list(fit.selection.elimination_trace))
    assert len(model["kmeans"]["centroids"][0]) == len(selection["selected_indices"])


@pytest.mark.parametrize("argv", [["--candidates", "2"], ["--cv-folds", "3"]])
def test_select_features_has_no_search_flags(tmp_path, capsys, argv):
    # the target-size search has no flags of its own on train, which selects
    data, schema, config = write_toy_files(tmp_path)
    assert main(["train", "--config", str(config)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv) in captured.err
    assert not (tmp_path / "out").exists()


def test_train_honours_rfe_disabled(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + "\n[rfe]\nenabled = false\n",
                      encoding="utf-8")
    assert main(["train", "--config", str(config), "--k", "2",
                 "--target-k", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    model = _read_json(tmp_path / "out" / "model.json")
    assert len(model["kmeans"]["centroids"][0]) == 3
    assert model["selection"] == {"selected_indices": [0, 1, 2],
                                  "selected_columns": ["x0", "x1", "grade"],
                                  "elimination_trace": []}


@pytest.mark.parametrize("token", ["inf", "-inf", "1e400"])
def test_infinite_numeric_cell_exits_one(tmp_path, capsys, token):
    data, schema, config = write_toy_files(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[4] = token + "," + lines[4].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("ingest", "train"):
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"row 4, column 'x0': cannot parse {token!r} as a number" in err
    assert not (tmp_path / "out" / "model.json").exists()


def _huge_x0_in_fold_0(tmp_path, split, value="1e200"):
    """Toy files whose first fold-0 ``split`` row (``run --seed 1``, 5 folds)
    holds x0 = ``value``, a finite value whose square overflows; returns the
    config and that row's data-row number (counted from 1, as ingest counts)."""
    data, schema, config = write_toy_files(tmp_path)
    plan = stratified_kfold(load_with_schema(data, schema).labels, 5, derive_seed(1, "folds"))
    row = int((plan.test_indices[0] if split == "test" else plan.train_indices(0))[0])
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[row + 1] = value + "," + lines[row + 1].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config, row + 1


def test_huge_cell_in_a_held_out_row_exits_one(tmp_path, capsys):
    config, row = _huge_x0_in_fold_0(tmp_path, "test")
    assert main(["run", "--config", str(config), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: row {row}: its squared distance to every centroid overflows float64",
        "  fold 0"]
    assert not (tmp_path / "out" / "report_kmeans.json").exists()


@pytest.mark.parametrize("argv", [[], ["--no-scale"]])
def test_lr_logit_overflow_in_a_held_out_row_exits_one(tmp_path, capsys, argv):
    config, row = _huge_x0_in_fold_0(tmp_path, "test", "1.7e308")
    assert main(["run", "--config", str(config), "--seed", "1", "--methods", "lr"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: row {row}: its logit overflows float64",
                                         "  fold 0"]
    assert not (tmp_path / "out" / "report_lr.json").exists()


@pytest.mark.parametrize("method, value, reason", [
    ("kmeans", "1e200", "its squared distance to every centroid overflows float64"),
    ("lr", "1.7e308", "its logit overflows float64"),
])
def test_held_out_scoring_error_names_the_data_row(tmp_path, capsys, method, value, reason):
    # 60 rows, y = 1 on every third; data row 36 (counted from 1) holds a huge a
    # and is held out by fold 0 of run --k 2 --target-k 3 --seed 0
    rows = [f"{(i % 4) / 4},{(i * 5) % 11},{'pqr'[i % 3]},{int(i % 3 == 0)}" for i in range(60)]
    rows[35] = value + "," + rows[35].split(",", 1)[1]
    data, schema = tmp_path / "t.csv", tmp_path / "t.schema"
    data.write_text("a,b,c,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    schema.write_text("column a numeric\ncolumn b numeric\ncolumn c categorical\n"
                      "column y numeric\nlabel y\n", encoding="utf-8")
    plan = stratified_kfold(load_with_schema(data, schema).labels, 5, derive_seed(0, "folds"))
    assert 35 in plan.test_indices[0]
    argv = ["run", "--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "o"),
            "--k", "2", "--target-k", "3", "--seed", "0", "--methods", method]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: row 36: {reason}", "  fold 0"]


@pytest.mark.parametrize("argv", [[], ["--no-scale"]])
def test_huge_cell_in_training_rows_exits_one(tmp_path, capsys, argv):
    config, _ = _huge_x0_in_fold_0(tmp_path, "train")
    assert main(["run", "--config", str(config), "--seed", "1"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: column 'x0': values too large, their standard deviation overflows float64",
        "  fold 0"]
    assert not (tmp_path / "out" / "report_kmeans.json").exists()


def _far_from_the_origin(tmp_path):
    """Toy files whose x0 is 1e160 plus noise of 1e150 in every row: the
    spread is ordinary, but squared norms overflow unless the columns are
    scaled."""
    data, schema, config = write_toy_files(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    noise = np.random.default_rng(0).normal(size=len(lines) - 1).tolist()
    lines[1:] = [f"{1e160 + e * 1e150!r}," + line.split(",", 1)[1]
                 for e, line in zip(noise, lines[1:])]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


@pytest.mark.parametrize("argv,note", [
    (["train", "--no-scale", "--k", "3"], []),
    (["run", "--no-scale", "--seed", "1"], ["  fold 0"]),
])
def test_points_far_from_the_origin_exit_one(tmp_path, capsys, argv, note):
    config = _far_from_the_origin(tmp_path)
    assert main(argv + ["--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: column 0 holds 1e+160: squared norms overflow float64"] + note
    assert not (tmp_path / "out" / "model.json").exists()
    # scaled, the same table fits
    assert main(argv[:1] + argv[2:] + ["--config", str(config)]) == 0
    capsys.readouterr()


def test_a_shift_of_1e9_keeps_the_unscaled_fits(tmp_path, capsys):
    # unscaled, moving two columns by +1e9 and -1e9 keeps every fold's fit (its
    # k and columns) and its AUC, accuracy, F1 and TPR; only the scores' last
    # digits move, and with them the Brier score, by under 1e-7
    data, schema, config = write_toy_files(tmp_path)
    argv = ["run", "--config", str(config), "--seed", "1", "--no-scale"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[1:] = [f"{float(a) + 1e9!r},{float(b) - 1e9!r},{rest}"
                 for a, b, rest in (line.split(",", 2) for line in lines[1:])]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(argv + ["--out", str(tmp_path / "shifted")]) == 0
    capsys.readouterr()
    plain, shifted = (_read_json(tmp_path / out / "report_kmeans.json")
                      for out in ("plain", "shifted"))
    assert shifted["fold_details"] == plain["fold_details"]
    for got, want in zip(shifted["folds"], plain["folds"]):
        assert got == dict(want, brier=pytest.approx(want["brier"], abs=1e-7))


def test_run_requires_seed(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config)]) == 2
    capsys.readouterr()


def test_run_rejects_unknown_method(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "1",
                 "--methods", "svm"]) == 2
    capsys.readouterr()


def test_run_writes_report_and_rerun_matches(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    args = ["run", "--config", str(config), "--seed", "3", "--folds", "3",
            "--emit-plot-data"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "mean" in out

    ra = _read_json(tmp_path / "a" / "report_kmeans.json")
    rb = _read_json(tmp_path / "b" / "report_kmeans.json")
    ra.pop("timing")
    rb.pop("timing")
    assert ra == rb
    assert ra["fingerprint"]["config"]["folds"] == 3

    assert (tmp_path / "a" / "report_kmeans.txt").exists()
    roc = (tmp_path / "a" / "roc_kmeans.csv").read_text(encoding="utf-8")
    assert roc.splitlines()[0] == "fpr,tpr,threshold"


def test_compare_writes_all_artifacts(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    argv = ["run", "--config", str(config), "--seed", "4", "--folds", "3",
            "--methods", "kmeans,lr"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "not reproduced" in out
    base = tmp_path / "out"
    payload = _read_json(base / "comparison.json")
    assert set(payload["computed"]) == {"kmeans", "lr"}
    assert set(payload["references"]) == {"RF", "LR", "XGBoost", "LightGBM"}
    assert (base / "comparison.txt").exists()
    for method in ("kmeans", "lr"):
        assert (base / f"report_{method}.json").exists()
        assert (base / f"report_{method}.txt").exists()
    assert not list(base.glob("roc_*.csv"))
    # the paper run: the same with pooled out-of-fold ROC points
    assert main(argv + ["--emit-plot-data", "--out", str(tmp_path / "paper")]) == 0
    capsys.readouterr()
    for method in ("kmeans", "lr"):
        roc = (tmp_path / "paper" / f"roc_{method}.csv").read_text(encoding="utf-8")
        assert roc.splitlines()[0] == "fpr,tpr,threshold"


def _without_timing(path):
    payload = _read_json(path)
    payload.pop("timing")
    return payload


def test_compare_reports_equal_run_reports(tmp_path, capsys):
    # a run of two methods fits each fold's preprocessing and selection once
    # for both; each method's report is still the one a run of it alone writes
    data, schema, config = write_toy_files(tmp_path)
    common = ["--config", str(config), "--seed", "4", "--folds", "3"]
    assert main(["run", *common, "--methods", "kmeans,lr",
                 "--out", str(tmp_path / "both")]) == 0
    for method in ("kmeans", "lr"):
        assert main(["run", *common, "--methods", method,
                     "--out", str(tmp_path / method)]) == 0
        name = f"report_{method}.json"
        assert (_without_timing(tmp_path / "both" / name)
                == _without_timing(tmp_path / method / name))
    capsys.readouterr()


def test_run_prints_its_text_files_in_order_then_the_paths(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "2", "--folds", "3",
                 "--methods", "lr,kmeans", "--k", "2", "--target-k", "2",
                 "--emit-plot-data"]) == 0
    base = tmp_path / "out"
    names = [f"{kind}_{m}.{ext}" for m in ("lr", "kmeans")
             for kind, ext in (("report", "json"), ("report", "txt"), ("roc", "csv"))]
    names += ["comparison.json", "comparison.txt"]
    texts = [(base / name).read_text(encoding="utf-8") for name in names
             if name.endswith(".txt")]
    assert capsys.readouterr().out == "".join(texts) + "wrote " + ", ".join(
        str(base / name) for name in names) + "\n"
    assert sorted(p.name for p in base.iterdir()) == sorted(names)


def test_config_paths_resolve_against_the_config_file(tmp_path, capsys, monkeypatch):
    # [data] path, [data] schema and [output] dir are read against the
    # config's directory; the --out flag against the working directory
    tree = tmp_path / "tree"
    (tree / "configs").mkdir(parents=True)
    write_toy_files(tree)
    config = tree / "configs" / "toy.ini"
    config.write_text("[data]\npath = ../toy.csv\nschema = ../toy.schema\nname = toy\n"
                      "\n[output]\ndir = ../out\n", encoding="utf-8")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    argv = ["run", "--config", str(config), "--seed", "1", "--folds", "2", "--k", "2",
            "--target-k", "2"]
    assert main(argv) == 0
    assert (tree / "out" / "report_kmeans.json").is_file()
    assert main(argv + ["--out", "here"]) == 0
    capsys.readouterr()
    assert (tmp_path / "elsewhere" / "here" / "report_kmeans.json").is_file()


def _cli_in_subprocess(cwd, argv, **env):
    """Run the command line in a fresh interpreter with ``env`` added; it must exit 0."""
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "riskmeans.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _run_in_subprocess(tmp_path, config, out, blas_threads):
    threads = str(blas_threads)
    _cli_in_subprocess(tmp_path, ["run", "--config", str(config), "--seed", "9",
                                  "--folds", "3", "--out", str(out)],
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
    return json.dumps(_without_timing(out / "report_kmeans.json"), indent=2, sort_keys=True)


def test_run_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # criterion 8 across processes: the CLI does not pin BLAS threads, so a
    # report must not change with them. 1200 rows, 8 of 10 columns kept and
    # k up to 10 make the labels pass's products (54 runs x 9 x 800 training
    # rows) larger than OpenBLAS's threshold for splitting a product
    rng = np.random.default_rng(8)
    n, d = 1200, 10
    y = (rng.random(n) < 0.3).astype(int)
    X = rng.normal(size=(n, d)) + np.outer(y, np.linspace(2.0, 0.0, d))
    data = tmp_path / "wide.csv"
    names = [f"x{j}" for j in range(d)]
    data.write_text(",".join(names + ["outcome"]) + "\n" + "".join(
        ",".join(f"{v:.6f}" for v in row) + f",{'bad' if label else 'good'}\n"
        for row, label in zip(X, y)), encoding="utf-8")
    schema = tmp_path / "wide.schema"
    schema.write_text("".join(f"column {c} numeric\n" for c in names)
                      + "column outcome categorical\nlabel outcome positive=bad\n",
                      encoding="utf-8")
    config = tmp_path / "wide.ini"
    config.write_text(f"[data]\npath = {data}\nschema = {schema}\nname = wide\n"
                      "\n[rfe]\ntarget_k = 8\n"
                      "\n[kmeans]\nk = auto\nk_max = 10\nrestarts = 6\n",
                      encoding="utf-8")
    one = _run_in_subprocess(tmp_path, config, tmp_path / "one", 1)
    two = _run_in_subprocess(tmp_path, config, tmp_path / "two", 2)
    assert one == two


# The wall-time lines of report_<method>.txt and of comparison.txt
_WALL_LINE = re.compile(rb"^(wall_(seconds|minutes): .*|  \w+: [0-9.]+ s \([0-9.]+ min\))$")


def _timing_free_bytes(path):
    if path.suffix != ".json":
        return b"\n".join(line for line in path.read_bytes().splitlines()
                          if not _WALL_LINE.match(line))
    payload = _read_json(path)
    for report in [payload, *payload.get("computed", {}).values()]:
        report.pop("timing", None)
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")


def test_every_command_is_byte_identical_across_string_hash_seeds(tmp_path):
    # criterion 8 reruns in one process, so it cannot see an order that
    # follows string hashing (a set or dict of category tokens)
    data, schema, config = write_toy_files(tmp_path)
    commands = [["ingest"], ["train"],
                ["run", "--folds", "3", "--methods", "kmeans,lr", "--emit-plot-data"],
                ["scan", "--windows", "2"]]
    outs = {hash_seed: tmp_path / f"hash{hash_seed}" for hash_seed in ("1", "2")}
    for hash_seed, out in outs.items():
        for command in commands:
            _cli_in_subprocess(tmp_path, command + ["--config", str(config), "--seed", "3",
                                                    "--out", str(out / command[0])],
                               PYTHONHASHSEED=hash_seed)
    files = sorted(p.relative_to(outs["1"]) for p in outs["1"].rglob("*") if p.is_file())
    assert len(files) == 13
    assert files == sorted(p.relative_to(outs["2"]) for p in outs["2"].rglob("*")
                           if p.is_file())
    for name in files:
        assert (_timing_free_bytes(outs["1"] / name)
                == _timing_free_bytes(outs["2"] / name)), name


def test_compare_empty_methods_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "1",
                 "--methods", " , "]) == 2
    assert "valid methods" in capsys.readouterr().err


def test_compare_unknown_method_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "1",
                 "--methods", "kmeans,svm"]) == 2
    assert "svm" in capsys.readouterr().err


def test_compare_repeated_method_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "1",
                 "--methods", "kmeans,kmeans"]) == 2
    assert "--methods: method 'kmeans' repeated" in capsys.readouterr().err
    assert not (tmp_path / "out" / "comparison.json").exists()


def test_scan_writes_window_features(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["scan", "--config", str(config), "--windows", "2",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "window 2" in out
    meta = _read_json(tmp_path / "out" / "scan_meta.json")
    expect = window_count(3, 2, 1) * 2 * 2
    assert meta["output_dims"]["2"] == expect
    lines = (tmp_path / "out" / "scan_w2.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert len(lines) == 151
    assert len(lines[0].split(",")) == expect
    assert lines[0].split(",")[0] == "w2:win0:e0:c0"


def test_scan_without_windows_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["scan", "--config", str(config), "--seed", "1"]) == 2
    assert "--windows/[scanner] windows: at least one window size required" \
        in capsys.readouterr().err


def test_scan_window_out_of_range_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["scan", "--config", str(config), "--windows", "2,4",
                 "--seed", "1"]) == 2
    assert "--windows/[scanner] windows: window size 4 outside [1, 3]" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "scan_meta.json").exists()


def test_scan_repeated_window_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["scan", "--config", str(config), "--windows", "2,2",
                 "--seed", "1"]) == 2
    assert "--windows/[scanner] windows: window size 2 repeated" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scan_w2.csv").exists()


def test_demo_script_runs_every_command(tmp_path):
    # the demo drives ingest, train, run and scan end to end
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "demo_synthetic.py"),
                           "--out", str(tmp_path), "--seed", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("processed.csv", "model.json", "report_kmeans.json",
                 "report_lr.json", "comparison.json", "scan_w2.csv", "scan_w3.csv",
                 "scan_meta.json"):
        assert (tmp_path / name).is_file(), name
    model = _read_json(tmp_path / "model.json")
    assert len(model["selection"]["selected_indices"]) == len(model["kmeans"]["centroids"][0])


def test_fold_error_names_fold(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "1",
                 "--k", "500"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("error: ") and "fold" not in lines[0]
    assert lines[1:] == ["  fold 0"]


def test_k_above_distinct_rows_exits_one(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    rows = ["0.5,1.0,p", "-1.0,2.0,q", "2.0,-0.5,p"]
    data.write_text("x0,x1,grade,outcome\n" + "".join(
        f"{rows[i % 3]},{'bad' if i % 2 else 'good'}\n" for i in range(60)),
        encoding="utf-8")
    assert main(["train", "--config", str(config), "--k", "5",
                 "--target-k", "3"]) == 1
    assert "error: k=5 exceeds the 3 distinct rows\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("argv", [["run", "--seed", "1"], ["train"]])
def test_auto_k_on_one_distinct_row_exits_one(tmp_path, capsys, argv):
    data, schema, config = write_toy_files(tmp_path)
    data.write_text("x0,x1,grade,outcome\n" + "".join(
        f"1.0,2.0,p,{'bad' if i % 2 else 'good'}\n" for i in range(60)),
        encoding="utf-8")
    assert main(argv + ["--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == ("error: k = auto needs at least 2 distinct "
                                            "training rows, but the selected columns hold 1")


@pytest.mark.parametrize("argv,rows", [
    (["run", "--seed", "1", "--folds", "2"], 4),
    (["train"], 2),
])
def test_auto_k_on_two_training_rows_exits_one(tmp_path, capsys, argv, rows):
    data, schema, config = write_toy_files(tmp_path)
    data.write_text("x0,x1,grade,outcome\n" + "".join(
        f"{i}.0,{-i}.0,{'pq'[i % 2]},{'bad' if i % 2 else 'good'}\n" for i in range(rows)),
        encoding="utf-8")
    assert main(argv + ["--config", str(config), "--target-k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == ("error: k = auto needs at least 3 training "
                                            "rows, but there are 2")


def test_too_few_class_members_message_shows_plain_class(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    header, *rows = data.read_text(encoding="utf-8").splitlines()
    bad = [r for r in rows if r.endswith(",bad")]
    kept = [r for r in rows if not r.endswith(",bad")] + bad[:3]
    data.write_text("\n".join([header] + kept) + "\n", encoding="utf-8")
    assert main(["run", "--config", str(config), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class 1 has 3 members, fewer than k=5 folds\n"
    # 2 outer folds pass, but a fold's training rows hold 1 or 2 of the 3
    # positives, too few for the target-size search's 3 inner folds
    search = "  target-size search (3 inner folds); a fixed target_k skips it"
    assert main(["run", "--config", str(config), "--seed", "1", "--folds", "2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: class 1 has 1 members, fewer than k=3 folds", search, "  fold 0"]
    # train fits on every row: 2 positives are too few for the search alone
    data.write_text("\n".join([header] + kept[:-1]) + "\n", encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: class 1 has 2 members, fewer than k=3 folds", search]
    assert main(["train", "--config", str(config), "--target-k", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv,needle", [
    (["run", "--seed", "1", "--folds", "1"], "folds"),
    (["train", "--k", "-1"], "--k/[kmeans] k"),
    (["run", "--methods", "kmeans,lr", "--seed", "1", "--folds", "1"], "--folds/[cv] folds"),
    (["run", "--seed", "1", "--k", "0"], "--k/[kmeans] k"),
    (["train", "--target-k", "0"], "--target-k/[rfe] target_k"),
    (["run", "--seed", "1", "--target-k", "0"], "--target-k/[rfe] target_k"),
    (["scan", "--windows", "1", "--stride", "0"], "--stride/[scanner] stride"),
    (["scan", "--windows", "1", "--estimators", "0"], "--estimators/[scanner] estimators"),
])
def test_out_of_range_flag_exits_two(tmp_path, capsys, argv, needle):
    data, schema, config = write_toy_files(tmp_path)
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert needle in err and "must be >=" in err


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "1", "--folds"],
    ["run", "--methods", "kmeans,lr", "--seed", "1", "--folds"],
    ["scan", "--windows", "1", "--stride"],
    ["scan", "--windows", "1", "--estimators"],
])
def test_non_integer_flag_exits_two(tmp_path, capsys, argv):
    data, schema, config = write_toy_files(tmp_path)
    assert main(argv + ["x", "--config", str(config)]) == 2
    assert f"error: {argv[-1]}: expected an integer, got 'x'" in capsys.readouterr().err


def test_bare_schema_dimension_line_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    schema.write_text(schema.read_text(encoding="utf-8") + "dimension\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 2
    assert "toy.schema:6: dimension line needs one integer, got none" in capsys.readouterr().err


def test_second_schema_label_line_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    schema.write_text(schema.read_text(encoding="utf-8") + "label x0\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 2
    assert "toy.schema:6: a schema has one label line" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "5",
                 "--folds", "4", "--k", "2"]) == 0
    capsys.readouterr()
    payload = _read_json(tmp_path / "out" / "report_kmeans.json")
    assert payload["fingerprint"]["config"]["folds"] == 4
    assert payload["fingerprint"]["config"]["kmeans_k"] == 2
    assert all(det["chosen_k"] == 2 for det in payload["fold_details"])


@pytest.mark.parametrize("argv", [[], ["--no-scale"]])
def test_ingest_report_replays_to_the_processed_matrix(tmp_path, capsys, argv):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["ingest", "--config", str(config)] + argv) == 0
    capsys.readouterr()
    payload = _read_json(tmp_path / "out" / "preprocess.json")
    report = PreprocessReport(**payload["preprocess"])
    assert bool(report.means) is ("--no-scale" not in argv)
    replayed = apply_report(load_with_schema(data, schema, name="toy"), report)
    write_processed(replayed, tmp_path / "replayed.csv")
    assert ((tmp_path / "replayed.csv").read_bytes()
            == (tmp_path / "out" / "processed.csv").read_bytes())


# Each subcommand's option strings; building the flags from KEYS must keep them.
_DATA_OPTIONS = ["-h", "--help", "--config", "--data", "--schema", "--name", "--out",
                 "--no-scale"]
OPTION_STRINGS = {
    "ingest": _DATA_OPTIONS + ["--seed"],
    "train": _DATA_OPTIONS + ["--k", "--target-k", "--seed"],
    "run": _DATA_OPTIONS + ["--methods", "--seed", "--folds", "--k", "--target-k",
                            "--emit-plot-data"],
    "scan": _DATA_OPTIONS + ["--windows", "--stride", "--estimators", "--seed"],
}


def test_every_subcommand_keeps_its_option_strings():
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTION_STRINGS)
    for name, parser in sub.choices.items():
        options = [s for action in parser._actions for s in action.option_strings]
        assert sorted(options) == sorted(OPTION_STRINGS[name]), name
