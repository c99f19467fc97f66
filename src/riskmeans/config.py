"""Experiment configuration: a sectioned plain-text key=value file format.

Files are standard INI as read by :mod:`configparser`:

    [data]
    path = data/german.data
    schema = data/german.schema
    name = german
    subsample = 0          ; rows per class; 0 disables balancing

    [preprocess]
    scale = true

    [rfe]
    enabled = true
    target_k = auto        ; or an integer
    step = 1

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
    init = kmeanspp        ; or uniform

    [cv]
    folds = 5

    [output]
    dir = runs

Every key is optional except [data] path and schema; unknown sections or keys
are rejected so typos fail loudly, and so is a value below its floor (see
:meth:`ExperimentConfig.check_ranges`). Command-line flags override file values;
the root seed comes only from each command's ``--seed`` flag.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass

from .bench_harness import PipelineConfig
from .kmeans_core import INIT_KMEANSPP, INIT_UNIFORM


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration values."""


_KNOWN = {
    "data": {"path", "schema", "name", "subsample"},
    "preprocess": {"scale"},
    "rfe": {"enabled", "target_k", "step"},
    "scanner": {"windows", "stride", "estimators"},
    "kmeans": {"k", "k_max", "restarts", "tol", "max_iters", "init"},
    "cv": {"folds"},
    "output": {"dir"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings (file values plus flag overrides)."""

    data_path: str = ""
    schema_path: str = ""
    dataset_name: str = ""
    subsample: int = 0
    scale: bool = True
    rfe_enabled: bool = True
    rfe_target_k: int | None = None
    rfe_step: int = 1
    scanner_windows: tuple = ()
    scanner_stride: int = 1
    scanner_estimators: int = 2
    kmeans_k: int | None = None
    kmeans_k_max: int = 10
    kmeans_restarts: int = 10
    kmeans_tol: float = 1e-6
    kmeans_max_iters: int = 300
    kmeans_init: str = INIT_KMEANSPP
    cv_folds: int = 5
    output_dir: str = "runs"

    def pipeline(self, method: str, seed: int) -> PipelineConfig:
        return PipelineConfig(
            method=method,
            folds=self.cv_folds,
            seed=seed,
            scale=self.scale,
            rfe_enabled=self.rfe_enabled,
            rfe_target_k=self.rfe_target_k,
            rfe_step=self.rfe_step,
            kmeans_k=self.kmeans_k,
            kmeans_k_max=self.kmeans_k_max,
            kmeans_restarts=self.kmeans_restarts,
            kmeans_max_iters=self.kmeans_max_iters,
            kmeans_tol=self.kmeans_tol,
            kmeans_init=self.kmeans_init,
        )

    def check_ranges(self, source: str) -> None:
        """Reject out-of-range values, whether a file or a flag set them."""
        floors = (
            (self.cv_folds, 2, "--folds/[cv] folds"),
            (self.subsample, 0, "--subsample/[data] subsample"),
            (self.rfe_target_k, 1, "--target-k/[rfe] target_k"),
            (self.rfe_step, 1, "[rfe] step"),
            (self.kmeans_k, 1, "--k/[kmeans] k"),
            (self.kmeans_k_max, 2, "[kmeans] k_max"),
            (self.kmeans_restarts, 1, "[kmeans] restarts"),
            (self.kmeans_max_iters, 1, "[kmeans] max_iters"),
            (self.kmeans_tol, 0, "[kmeans] tol"),
            (self.scanner_stride, 1, "--stride/[scanner] stride"),
            (self.scanner_estimators, 1, "--estimators/[scanner] estimators"),
        )
        for value, floor, name in floors:
            if value is not None and value < floor:  # None is "auto"
                raise ConfigError(f"{source}: {name} must be >= {floor}")

    def fingerprint(self) -> dict:
        """Every field that can change a result; ``output_dir`` never does."""
        d = asdict(self)
        del d["output_dir"]
        return d

    def fingerprint_hash(self) -> str:
        canon = json.dumps(self.fingerprint(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _parse_int(path, section, key, raw, allow_auto=False):
    if allow_auto and raw.strip().lower() == "auto":
        return None
    try:
        return int(raw)
    except ValueError:
        kind = "an integer or 'auto'" if allow_auto else "an integer"
        raise ConfigError(f"{path}: [{section}] {key}: expected {kind}, got {raw!r}") from None


def _parse_float(path, section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}: [{section}] {key}: expected a number, got {raw!r}") from None


def _parse_bool(path, section, key, raw):
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{path}: [{section}] {key}: expected a boolean, got {raw!r}")


def _parse_int_list(path, section, key, raw):
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            f"{path}: [{section}] {key}: expected comma-separated integers, got {raw!r}"
        ) from None


def load_config(path) -> ExperimentConfig:
    """Read and validate an INI experiment file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN[section]:
                raise ConfigError(f"{path}: [{section}] unknown key {key!r}")

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key)
        return default

    kw: dict = {}
    if get("data", "path") is not None:
        kw["data_path"] = get("data", "path")
    if get("data", "schema") is not None:
        kw["schema_path"] = get("data", "schema")
    if get("data", "name") is not None:
        kw["dataset_name"] = get("data", "name")
    if get("data", "subsample") is not None:
        kw["subsample"] = _parse_int(path, "data", "subsample", get("data", "subsample"))
    if get("preprocess", "scale") is not None:
        kw["scale"] = _parse_bool(path, "preprocess", "scale", get("preprocess", "scale"))
    if get("rfe", "enabled") is not None:
        kw["rfe_enabled"] = _parse_bool(path, "rfe", "enabled", get("rfe", "enabled"))
    if get("rfe", "target_k") is not None:
        kw["rfe_target_k"] = _parse_int(path, "rfe", "target_k", get("rfe", "target_k"),
                                        allow_auto=True)
    if get("rfe", "step") is not None:
        kw["rfe_step"] = _parse_int(path, "rfe", "step", get("rfe", "step"))
    if get("scanner", "windows") is not None:
        kw["scanner_windows"] = _parse_int_list(path, "scanner", "windows",
                                                get("scanner", "windows"))
    if get("scanner", "stride") is not None:
        kw["scanner_stride"] = _parse_int(path, "scanner", "stride", get("scanner", "stride"))
    if get("scanner", "estimators") is not None:
        kw["scanner_estimators"] = _parse_int(path, "scanner", "estimators",
                                              get("scanner", "estimators"))
    if get("kmeans", "k") is not None:
        kw["kmeans_k"] = _parse_int(path, "kmeans", "k", get("kmeans", "k"), allow_auto=True)
    if get("kmeans", "k_max") is not None:
        kw["kmeans_k_max"] = _parse_int(path, "kmeans", "k_max", get("kmeans", "k_max"))
    if get("kmeans", "restarts") is not None:
        kw["kmeans_restarts"] = _parse_int(path, "kmeans", "restarts",
                                           get("kmeans", "restarts"))
    if get("kmeans", "tol") is not None:
        kw["kmeans_tol"] = _parse_float(path, "kmeans", "tol", get("kmeans", "tol"))
    if get("kmeans", "max_iters") is not None:
        kw["kmeans_max_iters"] = _parse_int(path, "kmeans", "max_iters",
                                            get("kmeans", "max_iters"))
    if get("kmeans", "init") is not None:
        init = get("kmeans", "init").strip()
        if init not in (INIT_KMEANSPP, INIT_UNIFORM):
            raise ConfigError(
                f"{path}: [kmeans] init: expected {INIT_KMEANSPP!r} or {INIT_UNIFORM!r}, "
                f"got {init!r}"
            )
        kw["kmeans_init"] = init
    if get("cv", "folds") is not None:
        kw["cv_folds"] = _parse_int(path, "cv", "folds", get("cv", "folds"))
    if get("output", "dir") is not None:
        kw["output_dir"] = get("output", "dir")

    cfg = ExperimentConfig(**kw)
    cfg.check_ranges(str(path))
    return cfg
