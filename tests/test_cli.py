"""End-to-end command-line behavior: artifacts, exit codes, reruns."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from riskmeans import cli, feature_select
from riskmeans.bench_harness import fit_fold
from riskmeans.cli import main
from riskmeans.config import load_config
from riskmeans.cv import stratified_kfold
from riskmeans.data_ingest import load_with_schema
from riskmeans.mg_scanner import window_count
from riskmeans.seeding import derive_seed

from conftest import write_toy_files


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "ingest" in capsys.readouterr().out


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


def test_ingest_subsample_balances(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["ingest", "--config", str(config), "--subsample", "30"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "processed.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert len(lines) == 61  # header + 30 per class
    labels = [line.split(",")[-1] for line in lines[1:]]
    assert labels.count("1") == 30 and labels.count("0") == 30


def test_missing_data_file_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    data.unlink()
    assert main(["ingest", "--config", str(config)]) == 2
    assert "toy.csv" in capsys.readouterr().err


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


def test_malformed_numeric_cell_exits_one(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[1] = "oops," + lines[1].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 1
    assert "oops" in capsys.readouterr().err


def test_select_features_artifact(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["select-features", "--config", str(config),
                 "--target-k", "2"]) == 0
    capsys.readouterr()
    payload = _read_json(tmp_path / "out" / "selection.json")
    assert payload["target_k"] == 2
    assert len(payload["selected_indices"]) == 2
    assert len(payload["selected_columns"]) == 2
    assert len(payload["elimination_trace"]) == 1
    entry = payload["elimination_trace"][0]
    assert set(entry) == {"round", "dropped_index", "dropped_column", "score"}
    assert "fingerprint" in payload


@pytest.mark.parametrize("candidates", ["", ",", "0", "2,4"])
def test_select_features_bad_candidates_exit_two(tmp_path, capsys, candidates):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["select-features", "--config", str(config),
                 "--candidates", candidates]) == 2
    assert "--candidates: need feature counts in [1, 3], got " in capsys.readouterr().err
    assert not (tmp_path / "out" / "selection.json").exists()


def test_select_features_searches_given_candidates(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["select-features", "--config", str(config),
                 "--candidates", "1,2"]) == 0
    capsys.readouterr()
    payload = _read_json(tmp_path / "out" / "selection.json")
    assert payload["target_k"] in (1, 2)
    assert len(payload["selected_indices"]) == payload["target_k"]


def test_target_k_above_column_count_exits_one(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["select-features", "--config", str(config), "--target-k", "4"]) == 1
    assert "target_k=4 outside [1, 3]" in capsys.readouterr().err


def test_train_writes_model(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["train", "--config", str(config), "--k", "3", "--seed", "2"]) == 0
    capsys.readouterr()
    model = _read_json(tmp_path / "out" / "model.json")
    # train fits exactly as one run fold does on all rows, target size included
    ds = load_with_schema(data, schema, name="toy")
    pcfg = dataclasses.replace(load_config(config).pipeline("kmeans", seed=2), kmeans_k=3)
    fit = fit_fold(ds, np.arange(ds.n), pcfg, 2)
    assert model["k"] == 3
    assert model["d"] == len(fit.selected)
    assert model["centroids"] == fit.kmeans.model.centroids.tolist()
    assert len(model["centroids"]) == 3
    assert len(model["posteriors"]) == 3
    assert model["seed"] == 2
    assert model["config_hash"] == dataclasses.replace(
        load_config(config), kmeans_k=3).fingerprint_hash()
    assert "threshold" not in model and "preprocess_fingerprint" not in model


def test_train_model_does_not_depend_on_out_dir(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    args = ["train", "--config", str(config), "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "a" / "model.json").read_bytes()
            == (tmp_path / "b" / "model.json").read_bytes())


def test_select_features_and_train_pick_the_same_target(tmp_path, capsys, monkeypatch):
    data, schema, config = write_toy_files(tmp_path)
    real_search = feature_select.select_target_k
    seeds = {}
    fits = []

    def recording_search(command):
        def search(*args, **kwargs):
            seeds[command] = kwargs["seed"]
            return real_search(*args, **kwargs)
        return search

    def recording_fit(*args, **kwargs):
        fits.append(fit_fold(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(cli, "fit_fold", recording_fit)
    monkeypatch.setattr(feature_select, "select_target_k",
                        recording_search("select-features"))
    assert main(["select-features", "--config", str(config), "--seed", "4"]) == 0
    monkeypatch.setattr(feature_select, "select_target_k", recording_search("train"))
    assert main(["train", "--config", str(config), "--seed", "4"]) == 0
    capsys.readouterr()
    assert seeds == {"select-features": derive_seed(4, "target_k"),
                     "train": derive_seed(4, "target_k")}
    selection = _read_json(tmp_path / "out" / "selection.json")
    assert selection["selected_indices"] == list(fits[0].selected)


def test_train_honours_rfe_disabled(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + "\n[rfe]\nenabled = false\n",
                      encoding="utf-8")
    assert main(["train", "--config", str(config), "--k", "2",
                 "--target-k", "2", "--seed", "1"]) == 0
    assert main(["select-features", "--config", str(config),
                 "--target-k", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    assert _read_json(tmp_path / "out" / "model.json")["d"] == 3
    selection = _read_json(tmp_path / "out" / "selection.json")
    assert selection["selected_indices"] == [0, 1, 2]
    assert selection["selected_columns"] == ["x0", "x1", "grade"]
    assert selection["target_k"] == 3
    assert selection["elimination_trace"] == []


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


def _huge_x0_in_fold_0(tmp_path, split):
    """Toy files whose first fold-0 ``split`` row (``run --seed 1``, 5 folds)
    holds x0 = 1e200, a finite value whose square overflows."""
    data, schema, config = write_toy_files(tmp_path)
    plan = stratified_kfold(load_with_schema(data, schema).labels, 5, derive_seed(1, "folds"))
    row = int((plan.test_indices[0] if split == "test" else plan.train_indices(0))[0])
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[row + 1] = "1e200," + lines[row + 1].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def test_huge_cell_in_a_held_out_row_exits_one(tmp_path, capsys):
    config = _huge_x0_in_fold_0(tmp_path, "test")
    assert main(["run", "--config", str(config), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: row 0: its squared distance to every centroid overflows float64",
        "  fold 0"]
    assert not (tmp_path / "out" / "report_kmeans.json").exists()


@pytest.mark.parametrize("argv", [[], ["--no-scale"]])
def test_huge_cell_in_training_rows_exits_one(tmp_path, capsys, argv):
    config = _huge_x0_in_fold_0(tmp_path, "train")
    assert main(["run", "--config", str(config), "--seed", "1"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: column 'x0': values too large, their standard deviation overflows float64",
        "  fold 0"]
    assert not (tmp_path / "out" / "report_kmeans.json").exists()


@pytest.mark.parametrize("config_tail,argv,needle", [
    ("", ["--target-k", "1"], "--candidates conflicts with --target-k/[rfe] target_k = 1: "),
    ("\n[rfe]\nenabled = false\n", [], "--candidates conflicts with [rfe] enabled = false: "),
])
def test_select_features_candidates_need_the_target_search(tmp_path, capsys, config_tail,
                                                          argv, needle):
    data, schema, config = write_toy_files(tmp_path)
    config.write_text(config.read_text(encoding="utf-8") + config_tail, encoding="utf-8")
    assert main(["select-features", "--config", str(config), "--candidates", "2"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + needle)
    assert not (tmp_path / "out" / "selection.json").exists()


def test_run_requires_seed(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config)]) == 2
    capsys.readouterr()


def test_run_rejects_unknown_method(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "1",
                 "--method", "svm"]) == 2
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
    assert main(["compare", "--config", str(config), "--seed", "4",
                 "--folds", "3", "--methods", "kmeans,lr"]) == 0
    out = capsys.readouterr().out
    assert "not reproduced" in out
    base = tmp_path / "out"
    payload = _read_json(base / "comparison.json")
    assert set(payload["computed"]) == {"kmeans", "lr"}
    assert set(payload["references"]) == {"RF", "LR", "XGBoost", "LightGBM"}
    assert (base / "comparison.txt").exists()
    assert (base / "report_kmeans.json").exists()
    assert (base / "report_lr.json").exists()


def test_compare_empty_methods_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["compare", "--config", str(config), "--seed", "1",
                 "--methods", " , "]) == 2
    assert "valid methods" in capsys.readouterr().err


def test_compare_unknown_method_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["compare", "--config", str(config), "--seed", "1",
                 "--methods", "kmeans,svm"]) == 2
    assert "svm" in capsys.readouterr().err


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
    assert "--windows/[scanner] windows: need window sizes in [1, 3], got none" \
        in capsys.readouterr().err


def test_scan_window_out_of_range_exits_two(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["scan", "--config", str(config), "--windows", "2,4",
                 "--seed", "1"]) == 2
    assert "--windows/[scanner] windows: need window sizes in [1, 3], got 2,4" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "scan_meta.json").exists()


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
    assert "k=5 exceeds the 3 distinct training rows" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv,needle", [
    (["run", "--seed", "1", "--folds", "1"], "folds"),
    (["train", "--subsample", "-1"], "subsample"),
    (["select-features", "--target-k", "auto", "--cv-folds", "1"], "--cv-folds"),
    (["run", "--seed", "1", "--k", "0"], "--k/[kmeans] k"),
    (["train", "--target-k", "0"], "--target-k/[rfe] target_k"),
    (["select-features", "--target-k", "0"], "--target-k/[rfe] target_k"),
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
    ["train", "--subsample"],
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


def test_flag_overrides_config_file(tmp_path, capsys):
    data, schema, config = write_toy_files(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "5",
                 "--folds", "4", "--k", "2"]) == 0
    capsys.readouterr()
    payload = _read_json(tmp_path / "out" / "report_kmeans.json")
    assert payload["fingerprint"]["config"]["folds"] == 4
    assert payload["fingerprint"]["config"]["kmeans_k"] == 2
    assert all(det["chosen_k"] == 2 for det in payload["fold_details"])
