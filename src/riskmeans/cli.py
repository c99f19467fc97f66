"""Batch command-line front end.

Subcommands: ingest, select-features, train, run, compare, scan. Every
artifact-producing command embeds the resolved configuration fingerprint and
seed in its JSON outputs so any run can be reproduced from its report alone.

Exit codes: 0 success, 1 runtime failure (malformed data, failed fit),
2 usage or configuration error (bad flags, missing files, bad config values).

``train`` fits exactly as one ``run`` fold does (:func:`fit_fold`), on all rows.
``select-features`` selects through the same :func:`select_features` call as
that fit, so with the default ``--candidates`` and ``--cv-folds`` both keep the
same columns for the same seed and settings; with ``[rfe] enabled = false``
both keep every column.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .bench_harness import (
    METHODS,
    compare_methods,
    fit_fold,
    render_comparison,
    render_report,
    roc_plot_data,
    run_pipeline,
)
from .config import KEYS, ConfigError, ExperimentConfig, load_config, parse_int_list
from .data_ingest import (
    DataError,
    SchemaError,
    balanced_subsample,
    load_with_schema,
    preprocess,
    write_processed,
)
from .feature_select import RfeResult, select_features
from .kmeans_core import classifier_to_json
from .seeding import derive_seed


class UsageError(Exception):
    """Command-line misuse that argparse cannot catch itself."""


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    overrides = {"scale": False} if getattr(args, "no_scale", False) else {}
    for row in KEYS:
        raw = getattr(args, row.flag[2:].replace("-", "_"), None) if row.flag else None
        if raw is not None:
            value = row.parse(row.flag, raw)  # integer parsers reject a blank value
            if raw:
                overrides[row.field] = value
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.check_ranges("command line")
    if not cfg.data_path or not cfg.schema_path:
        raise UsageError("a data file and schema are required (--data/--schema "
                         "or a config file with a [data] section)")
    return cfg


def _load_dataset(cfg: ExperimentConfig, seed: int):
    name = cfg.dataset_name or os.path.splitext(os.path.basename(cfg.data_path))[0]
    ds = load_with_schema(cfg.data_path, cfg.schema_path, name=name)
    if cfg.subsample > 0:
        ds = balanced_subsample(ds, cfg.subsample, derive_seed(seed, "subsample"))
    return ds


def _fingerprint(cfg: ExperimentConfig, seed: int) -> dict:
    return {"config": cfg.fingerprint(), "config_hash": cfg.fingerprint_hash(),
            "seed": seed}


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    seed = args.seed
    ds = _load_dataset(cfg, seed)
    proc, report = preprocess(ds, scale=cfg.scale)
    out = _outdir(cfg)
    matrix_path = os.path.join(out, "processed.csv")
    report_path = os.path.join(out, "preprocess.json")
    write_processed(proc, matrix_path)
    _write(report_path, json.dumps(
        {"fingerprint": _fingerprint(cfg, seed),
         "preprocess": json.loads(report.to_json())},
        indent=2, sort_keys=True) + "\n")
    pos, neg = ds.class_counts()
    print(f"ingested {ds.name}: n={ds.n}, d={ds.d}, positives={pos}, negatives={neg}")
    print(f"wrote {matrix_path} and {report_path}")
    return 0


def cmd_select_features(args) -> int:
    if args.cv_folds < 2:
        raise UsageError("--cv-folds must be >= 2")
    cfg = _resolve_config(args)
    if args.candidates is not None and not cfg.rfe_enabled:
        raise UsageError("--candidates conflicts with [rfe] enabled = false: "
                         "candidates are searched only when RFE runs")
    if args.candidates is not None and cfg.rfe_target_k is not None:
        raise UsageError(f"--candidates conflicts with --target-k/[rfe] target_k = "
                         f"{cfg.rfe_target_k}: candidates are searched only when it is auto")
    seed = args.seed
    ds = _load_dataset(cfg, seed)
    proc, _ = preprocess(ds, scale=cfg.scale)
    candidates = None
    if args.candidates is not None:
        candidates = parse_int_list("--candidates", args.candidates)
        if not candidates or not all(1 <= c <= proc.d for c in candidates):
            raise UsageError(f"--candidates: need feature counts in [1, {proc.d}], "
                             f"got {','.join(map(str, candidates)) or 'none'}")
    if cfg.rfe_enabled:
        result = select_features(proc.features, proc.labels, target_k=cfg.rfe_target_k,
                                 step=cfg.rfe_step, seed=seed, candidates=candidates,
                                 cv_folds=args.cv_folds)
    else:
        result = RfeResult(selected=range(proc.d), elimination_trace=())
    target = len(result.selected)
    names = proc.column_names()
    out = _outdir(cfg)
    path = os.path.join(out, "selection.json")
    _write(path, json.dumps({
        "fingerprint": _fingerprint(cfg, seed),
        "target_k": target,
        "selected_indices": list(result.selected),
        "selected_columns": [names[j] for j in result.selected],
        "elimination_trace": [
            {"round": r, "dropped_index": j, "dropped_column": names[j], "score": s}
            for r, j, s in result.elimination_trace
        ],
    }, indent=2, sort_keys=True) + "\n")
    print(f"selected {target} of {proc.d} features: "
          + ", ".join(names[j] for j in result.selected))
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    seed = args.seed
    ds = _load_dataset(cfg, seed)
    fit = fit_fold(ds, np.arange(ds.n), cfg.pipeline("kmeans", seed=seed), seed)
    out = _outdir(cfg)
    path = os.path.join(out, "model.json")
    _write(path, classifier_to_json(fit.kmeans, seed=seed,
                                    config_hash=cfg.fingerprint_hash()) + "\n")
    print(f"trained k={fit.chosen_k} cluster classifier on {ds.name} "
          f"({len(fit.selected)} of {ds.d} features)")
    print(f"wrote {path}")
    return 0


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    ds = _load_dataset(cfg, args.seed)
    pcfg = cfg.pipeline(args.method, seed=args.seed)
    report = run_pipeline(ds, pcfg)
    out = _outdir(cfg)
    json_path = os.path.join(out, f"report_{args.method}.json")
    text_path = os.path.join(out, f"report_{args.method}.txt")
    _write(json_path, report.to_json() + "\n")
    _write(text_path, render_report(report))
    written = [json_path, text_path]
    if args.emit_plot_data:
        roc_path = os.path.join(out, f"roc_{args.method}.csv")
        _write(roc_path, roc_plot_data(report))
        written.append(roc_path)
    sys.stdout.write(render_report(report))
    print("wrote " + ", ".join(written))
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods is empty; valid methods: " + ", ".join(METHODS))
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; valid methods: " + ", ".join(METHODS))
    ds = _load_dataset(cfg, args.seed)
    result = compare_methods(ds, methods, cfg.pipeline(methods[0], seed=args.seed))
    out = _outdir(cfg)
    json_path = os.path.join(out, "comparison.json")
    text_path = os.path.join(out, "comparison.txt")
    _write(json_path, result.to_json() + "\n")
    _write(text_path, render_comparison(result))
    written = [json_path, text_path]
    for m, rep in result.computed:
        p = os.path.join(out, f"report_{m}.json")
        _write(p, rep.to_json() + "\n")
        written.append(p)
        if args.emit_plot_data:
            rp = os.path.join(out, f"roc_{m}.csv")
            _write(rp, roc_plot_data(rep))
            written.append(rp)
    sys.stdout.write(render_comparison(result))
    print("wrote " + ", ".join(written))
    return 0


def cmd_scan(args) -> int:
    from .mg_scanner import (
        ScanConfig,
        dump_features,
        fit_window_estimators,
        transform_matrix,
    )

    cfg = _resolve_config(args)
    seed = args.seed
    ds = _load_dataset(cfg, seed)
    proc, _ = preprocess(ds, scale=cfg.scale)
    windows = cfg.scanner_windows
    if not windows or not all(1 <= w <= proc.d for w in windows):
        raise UsageError(f"--windows/[scanner] windows: need window sizes in [1, {proc.d}], "
                         f"got {','.join(map(str, windows)) or 'none'}")
    scan_cfg = ScanConfig(
        input_dim=proc.d,
        windows=cfg.scanner_windows,
        stride=cfg.scanner_stride,
        estimators=cfg.scanner_estimators,
    )
    fitted = fit_window_estimators(proc, scan_cfg, seed=seed)
    mats = transform_matrix(proc.features, scan_cfg, fitted)
    out = _outdir(cfg)
    written = []
    dims = {}
    for w in scan_cfg.windows:
        path = os.path.join(out, f"scan_w{w}.csv")
        dump_features(mats[w], scan_cfg, w, path)
        written.append(path)
        dims[str(w)] = int(mats[w].shape[1])
    meta_path = os.path.join(out, "scan_meta.json")
    _write(meta_path, json.dumps(
        {"fingerprint": _fingerprint(cfg, seed), "output_dims": dims},
        indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    for w in scan_cfg.windows:
        print(f"window {w}: {dims[str(w)]} output dims")
    print("wrote " + ", ".join(written))
    return 0


def _add_common_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config file (INI format)")
    p.add_argument("--data", help="data file (overrides the config)")
    p.add_argument("--schema", help="schema file (overrides the config)")
    p.add_argument("--name", help="dataset name for reports")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--subsample", help="balanced rows per class (0 = off)")
    p.add_argument("--no-scale", action="store_true", help="skip standardization")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskmeans",
        description="K-means credit-risk benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, preprocess, and dump a dataset")
    _add_common_data_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("select-features", help="rank features and pick a subset")
    _add_common_data_flags(p)
    p.add_argument("--target-k", dest="target_k",
                   help="feature count to keep, or 'auto'")
    p.add_argument("--candidates", help="comma-separated counts for auto, each in [1, d]")
    p.add_argument("--cv-folds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_select_features)

    p = sub.add_parser("train", help="fit one cluster classifier on all rows")
    _add_common_data_flags(p)
    p.add_argument("--k", help="cluster count, or 'auto'")
    p.add_argument("--target-k", dest="target_k",
                   help="feature count to keep before fitting")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("run", help="cross-validate one method")
    _add_common_data_flags(p)
    p.add_argument("--method", choices=list(METHODS), default="kmeans")
    p.add_argument("--seed", type=int, required=True,
                   help="root seed (required for reproducibility)")
    p.add_argument("--folds")
    p.add_argument("--k", help="cluster count, or 'auto'")
    p.add_argument("--target-k", dest="target_k",
                   help="feature count to keep, or 'auto'")
    p.add_argument("--emit-plot-data", action="store_true",
                   help="write pooled out-of-fold ROC points")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="cross-validate several methods side by side")
    _add_common_data_flags(p)
    p.add_argument("--methods", required=True,
                   help="comma-separated subset of: " + ", ".join(METHODS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--folds")
    p.add_argument("--emit-plot-data", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scan", help="expand rows through sliding-window estimators")
    _add_common_data_flags(p)
    p.add_argument("--windows", help="comma-separated window sizes, each in [1, d]")
    p.add_argument("--stride")
    p.add_argument("--estimators")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scan)

    return parser


def _print_error(exc: Exception) -> None:
    """The message, then any notes (such as the failing fold) one per line."""
    print(f"error: {exc}", file=sys.stderr)
    for note in getattr(exc, "__notes__", ()):
        print(f"  {note}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (FileNotFoundError, ConfigError, SchemaError, UsageError) as exc:
        _print_error(exc)
        return 2
    except (DataError, ValueError, RuntimeError, OSError) as exc:
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
