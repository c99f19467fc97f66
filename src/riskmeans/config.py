"""Experiment configuration: a sectioned plain-text key=value file format.

Files are standard INI as read by :mod:`configparser`:

    [data]
    path = data/german.data
    schema = data/german.schema
    name = german

    [preprocess]
    scale = true

    [rfe]
    enabled = true
    target_k = auto        ; or an integer

    [scanner]
    windows = 5,10         ; required by the scan command; each in [1, d]
    stride = 1
    estimators = 2

    [kmeans]
    k = auto               ; or an integer
    k_max = 10
    restarts = 10
    tol = 1e-6
    max_iters = 300

    [cv]
    folds = 5

    [output]
    dir = runs

Every key is optional except [data] path and schema; unknown sections or keys
are rejected so typos fail loudly, and so is a value below its floor. A
relative [data] path, [data] schema or [output] dir is read against the
config file's directory; the flags that override them (``--data``,
``--schema``, ``--out``) are read against the working directory. Each key's
field, parser, floor and command-line flag are declared once, in :data:`KEYS`;
the command line builds each flag from its row (``--help`` names the key), and
a flag overrides its file value through the same parser. The run settings
default to :class:`PipelineConfig`'s and the scanner's stride and estimators
to :class:`ScanConfig`'s. The root seed comes only from each command's
``--seed`` flag.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

from .bench_harness import PipelineConfig
from .data_ingest import open_input
from .mg_scanner import ScanConfig


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration values."""


def _parse_text(prefix, raw):
    return raw


def _parse_int(prefix, raw, kind="an integer"):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{prefix}: expected {kind}, got {raw!r}") from None


def _parse_int_or_auto(prefix, raw):
    if raw.strip().lower() == "auto":
        return None
    return _parse_int(prefix, raw, "an integer or 'auto'")


def _parse_float(prefix, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{prefix}: expected a number, got {raw!r}") from None
    if value == math.inf:  # NaN and -inf are left to the floor check
        raise ConfigError(f"{prefix}: expected a finite number, got {raw!r}")
    return value


def _parse_bool(prefix, raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{prefix}: expected a boolean, got {raw!r}") from None


def _parse_int_list(prefix, raw):
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{prefix}: expected comma-separated integers, got {raw!r}") from None


class Key(NamedTuple):
    """One config key: where it is read from, what it sets and its lowest value."""

    section: str
    key: str
    field: str
    parse: Callable  # (message prefix, raw string) -> value, or ConfigError
    floor: float | None = None
    flag: str | None = None

    @property
    def name(self) -> str:
        name = f"[{self.section}] {self.key}"
        return f"{self.flag}/{name}" if self.flag else name


# Every config key, in ExperimentConfig field order. A file is parsed in this
# order, so with several bad values the first row's error is reported.
KEYS = (
    Key("data", "path", "data_path", _parse_text, flag="--data"),
    Key("data", "schema", "schema_path", _parse_text, flag="--schema"),
    Key("data", "name", "dataset_name", _parse_text, flag="--name"),
    Key("preprocess", "scale", "scale", _parse_bool),
    Key("rfe", "enabled", "rfe_enabled", _parse_bool),
    Key("rfe", "target_k", "rfe_target_k", _parse_int_or_auto, 1, "--target-k"),
    Key("scanner", "windows", "scanner_windows", _parse_int_list, flag="--windows"),
    Key("scanner", "stride", "scanner_stride", _parse_int, 1, "--stride"),
    Key("scanner", "estimators", "scanner_estimators", _parse_int, 1, "--estimators"),
    Key("kmeans", "k", "kmeans_k", _parse_int_or_auto, 1, "--k"),
    Key("kmeans", "k_max", "kmeans_k_max", _parse_int, 2),
    Key("kmeans", "restarts", "kmeans_restarts", _parse_int, 1),
    Key("kmeans", "tol", "kmeans_tol", _parse_float, 0),
    Key("kmeans", "max_iters", "kmeans_max_iters", _parse_int, 1),
    Key("cv", "folds", "cv_folds", _parse_int, 2, "--folds"),
    Key("output", "dir", "output_dir", _parse_text, flag="--out"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings (file values plus flag overrides)."""

    data_path: str = ""
    schema_path: str = ""
    dataset_name: str = ""
    scale: bool = PipelineConfig.scale
    rfe_enabled: bool = PipelineConfig.rfe_enabled
    rfe_target_k: int | None = PipelineConfig.rfe_target_k
    scanner_windows: tuple = ()
    scanner_stride: int = ScanConfig.stride
    scanner_estimators: int = ScanConfig.estimators
    kmeans_k: int | None = PipelineConfig.kmeans_k
    kmeans_k_max: int = PipelineConfig.kmeans_k_max
    kmeans_restarts: int = PipelineConfig.kmeans_restarts
    kmeans_tol: float = PipelineConfig.kmeans_tol
    kmeans_max_iters: int = PipelineConfig.kmeans_max_iters
    cv_folds: int = PipelineConfig.folds
    output_dir: str = "runs"

    def pipeline(self, method: str, seed: int) -> PipelineConfig:
        """The run settings: every field whose name PipelineConfig shares, plus the folds."""
        shared = {f.name for f in fields(PipelineConfig)}
        kw = {k: v for k, v in asdict(self).items() if k in shared}
        return PipelineConfig(method=method, folds=self.cv_folds, seed=seed, **kw)

    def check_ranges(self, source: str) -> None:
        """Reject out-of-range values, whether a file or a flag set them."""
        for row in KEYS:
            value = getattr(self, row.field)
            # None is "auto"; "not >=" also rejects NaN
            if row.floor is not None and value is not None and not value >= row.floor:
                raise ConfigError(f"{source}: {row.name} must be >= {row.floor}")

    def fingerprint(self) -> dict:
        """Every setting that can change a result. The paths are left out: how
        a path is spelled never changes one, and ``output_dir`` never does."""
        d = asdict(self)
        for path in ("data_path", "schema_path", "output_dir"):
            del d[path]
        return d

    def fingerprint_hash(self) -> str:
        canon = json.dumps(self.fingerprint(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    """Read and validate an INI experiment file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open_input(path, "config file") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known = {(row.section, row.key) for row in KEYS}
    for section in cp.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in known:
                raise ConfigError(f"{path}: [{section}] unknown key {key!r}")

    kw = {row.field: row.parse(f"{path}: [{row.section}] {row.key}",
                               cp.get(row.section, row.key))
          for row in KEYS if cp.has_option(row.section, row.key)}
    for field in ("data_path", "schema_path", "output_dir"):  # relative to the file
        if kw.get(field) and not os.path.isabs(kw[field]):
            kw[field] = os.path.normpath(os.path.join(os.path.dirname(path), kw[field]))
    cfg = ExperimentConfig(**kw)
    cfg.check_ranges(str(path))
    return cfg
