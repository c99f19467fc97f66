"""Batch command-line front end.

Subcommands: ingest, train, run, scan. ``main`` resolves the configuration,
checks ``--out`` and loads the dataset once, then hands ``(args, cfg, ds)``
to the command. ``preprocess.json``, ``model.json`` and ``scan_meta.json``
hold a ``fingerprint``: the resolved configuration, its hash and the seed.
``run`` cross-validates the ``--methods`` side by side; each
``report_<method>.json`` (and each report in ``comparison.json``) holds the
run settings' fingerprint with ``dataset``, ``n``, ``d`` and
``fold_seed_root``, and is the same alone or beside others.

Exit codes: 0 success, 1 runtime failure (malformed data, failed fit),
2 usage or configuration error (bad flags, missing files, bad config values).

``train`` fits exactly as one ``run`` fold does (:func:`fit_fold`), on all
rows, and writes that whole fit to ``model.json``
(:meth:`FoldFit.to_dict`): the preprocessing report, the selection with its
elimination trace, and the cluster classifier. :meth:`FoldFit.from_dict`
reads it back, and :func:`score_fold` then scores raw rows as the fit does.
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
    check_methods,
    compare_methods,
    fit_fold,
    render_comparison,
    render_report,
    roc_plot_data,
)
from .config import KEYS, ConfigError, ExperimentConfig, load_config
from .data_ingest import (
    DataError,
    SchemaError,
    load_with_schema,
    preprocess,
    write_processed,
)
from .mg_scanner import ScanConfig, dump_features, fit_window_estimators, transform_matrix


class UsageError(Exception):
    """Command-line misuse that argparse cannot catch itself."""


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"scale": False} if args.no_scale else {}
    for row in KEYS:
        raw = vars(args).get(row.field)  # None: not given, or not this command's flag
        if raw is not None:  # a blank value meets the checks a blank file value meets
            overrides[row.field] = row.parse(row.flag, raw)
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.check_ranges("command line")
    if not cfg.data_path or not cfg.schema_path:
        raise UsageError("a data file and schema are required (--data/--schema "
                         "or a config file with a [data] section)")
    if not cfg.output_dir:
        raise UsageError("--out/[output] dir: expected a directory, got ''")
    head = cfg.output_dir  # the output directory, or its nearest existing ancestor
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise UsageError(f"--out/[output] dir: {head} is not a directory")
    return cfg


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_artifact(path: str, cfg: ExperimentConfig, seed: int, body: dict) -> None:
    """``body`` as sorted JSON, with the fingerprint that reproduces it."""
    fingerprint = {"config": cfg.fingerprint(), "config_hash": cfg.fingerprint_hash(),
                   "seed": seed}
    _write(path, json.dumps({"fingerprint": fingerprint, **body},
                            indent=2, sort_keys=True) + "\n")


def _outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def cmd_ingest(args, cfg, ds) -> int:
    proc, report = preprocess(ds, scale=cfg.scale)
    out = _outdir(cfg)
    matrix_path = os.path.join(out, "processed.csv")
    report_path = os.path.join(out, "preprocess.json")
    write_processed(proc, matrix_path)
    _write_artifact(report_path, cfg, args.seed, {"preprocess": dataclasses.asdict(report)})
    pos, neg = ds.class_counts()
    print(f"ingested {ds.name}: n={ds.n}, d={ds.d}, positives={pos}, negatives={neg}")
    print(f"wrote {matrix_path} and {report_path}")
    return 0


def _check_target_k(cfg: ExperimentConfig, ds) -> None:
    """Reject a fixed rfe target above the table's feature count (rfe off never reads it)."""
    if cfg.rfe_enabled and (cfg.rfe_target_k or 0) > ds.d:
        raise UsageError(f"--target-k/[rfe] target_k: {cfg.rfe_target_k} "
                         f"exceeds the {ds.d} feature columns")


def cmd_train(args, cfg, ds) -> int:
    _check_target_k(cfg, ds)
    fit = fit_fold(ds, np.arange(ds.n), cfg.pipeline("kmeans", seed=args.seed), args.seed)
    path = os.path.join(_outdir(cfg), "model.json")
    _write_artifact(path, cfg, args.seed, fit.to_dict(ds.column_names()))
    print(f"trained k={fit.chosen_k} cluster classifier on {ds.name} "
          f"({len(fit.selection.selected)} of {ds.d} features)")
    print(f"wrote {path}")
    return 0


def cmd_run(args, cfg, ds) -> int:
    _check_target_k(cfg, ds)
    result = compare_methods(ds, args.methods, cfg.pipeline(args.methods[0], seed=args.seed))
    files = {}  # name -> body, in the order written
    for m, rep in result.computed:
        files[f"report_{m}.json"] = rep.to_json() + "\n"
        files[f"report_{m}.txt"] = render_report(rep)
        if args.emit_plot_data:
            files[f"roc_{m}.csv"] = roc_plot_data(rep)
    files["comparison.json"] = result.to_json() + "\n"
    files["comparison.txt"] = render_comparison(result)
    out = _outdir(cfg)
    for name, body in files.items():
        _write(os.path.join(out, name), body)
    sys.stdout.write("".join(body for name, body in files.items() if name.endswith(".txt")))
    print("wrote " + ", ".join(os.path.join(out, name) for name in files))
    return 0


def cmd_scan(args, cfg, ds) -> int:
    proc, _ = preprocess(ds, scale=cfg.scale)
    try:
        scan_cfg = ScanConfig(input_dim=proc.d, windows=cfg.scanner_windows,
                              stride=cfg.scanner_stride, estimators=cfg.scanner_estimators)
    except ValueError as exc:  # no window size, one outside [1, d], or a repeated one
        raise UsageError(f"--windows/[scanner] windows: {exc}") from None
    fitted = fit_window_estimators(proc, scan_cfg, seed=args.seed)
    mats = transform_matrix(proc.features, scan_cfg, fitted)
    out = _outdir(cfg)
    written = [os.path.join(out, f"scan_w{w}.csv") for w in scan_cfg.windows]
    for w, path in zip(scan_cfg.windows, written):
        dump_features(mats[w], scan_cfg, w, path)
    dims = {str(w): int(mats[w].shape[1]) for w in scan_cfg.windows}
    written.append(os.path.join(out, "scan_meta.json"))
    _write_artifact(written[-1], cfg, args.seed, {"output_dims": dims})
    for w in scan_cfg.windows:
        print(f"window {w}: {dims[str(w)]} output dims")
    print("wrote " + ", ".join(written))
    return 0


def _methods(text: str) -> list:
    """``--methods``: comma-separated names, checked by :func:`check_methods`."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    try:
        check_methods(methods or [text])  # naming none, the whole text is unknown
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return methods


def _command(sub, name: str, summary: str, func, *flags: str,
             seed_required: bool = False) -> argparse.ArgumentParser:
    """A subcommand with ``--config``, ``--no-scale``, ``--seed``, the flags of
    the [data] and [output] keys and the named key flags, each built from
    its :data:`KEYS` row."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--config", help="experiment config file (INI format)")
    p.add_argument("--no-scale", action="store_true",
                   help="skip standardization (sets [preprocess] scale = false)")
    p.add_argument("--seed", type=int, default=0, required=seed_required, help="root seed")
    for row in KEYS:
        if row.flag and (row.section in ("data", "output") or row.flag in flags):
            p.add_argument(row.flag, dest=row.field,
                           help=f"overrides [{row.section}] {row.key}")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskmeans",
        description="K-means credit-risk benchmark pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "ingest", "load, preprocess, and dump a dataset", cmd_ingest)
    _command(sub, "train", "fit one cluster classifier on all rows", cmd_train,
             "--k", "--target-k")
    p = _command(sub, "run", "cross-validate one or more methods side by side", cmd_run,
                 "--folds", "--k", "--target-k", seed_required=True)
    p.add_argument("--methods", type=_methods, default="kmeans",
                   help="comma-separated subset of: " + ", ".join(METHODS))
    p.add_argument("--emit-plot-data", action="store_true",
                   help="write pooled out-of-fold ROC points")
    _command(sub, "scan", "expand rows through sliding-window estimators", cmd_scan,
             "--windows", "--stride", "--estimators")
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
        cfg = _resolve_config(args)
        name = cfg.dataset_name or os.path.splitext(os.path.basename(cfg.data_path))[0]
        ds = load_with_schema(cfg.data_path, cfg.schema_path, name=name)
        return args.func(args, cfg, ds)
    except (FileNotFoundError, IsADirectoryError, ConfigError, SchemaError,
            UsageError) as exc:
        _print_error(exc)
        return 2
    except (DataError, ValueError, RuntimeError, OSError) as exc:
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
