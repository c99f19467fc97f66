"""Experiment file parsing: defaults, overrides, strict validation."""

from __future__ import annotations

import configparser
import dataclasses
import pathlib
import re
import textwrap

import pytest

from riskmeans import config as config_module
from riskmeans.bench_harness import PipelineConfig
from riskmeans.config import KEYS, ConfigError, ExperimentConfig, load_config
from riskmeans.kmeans_core import KMeansParams

ROOT = pathlib.Path(__file__).parent.parent
CONFIGS = ROOT / "configs"


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


FULL = """\
[data]
path = data/toy.csv
schema = data/toy.schema
name = toy

[preprocess]
scale = false

[rfe]
enabled = true
target_k = 7
step = 2

[scanner]
windows = 4,6
stride = 2
estimators = 3

[kmeans]
k = 3
k_max = 8
restarts = 6
tol = 1e-5
max_iters = 200
init = uniform

[cv]
folds = 4

[output]
dir = out
"""


def test_full_file_round_trip(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    assert cfg.data_path == str(tmp_path / "data" / "toy.csv")  # against the file's directory
    assert cfg.schema_path == str(tmp_path / "data" / "toy.schema")
    assert cfg.dataset_name == "toy"
    assert cfg.scale is False
    assert cfg.rfe_target_k == 7 and cfg.rfe_step == 2
    assert cfg.scanner_windows == (4, 6)
    assert cfg.scanner_stride == 2 and cfg.scanner_estimators == 3
    assert cfg.kmeans_k == 3 and cfg.kmeans_k_max == 8
    assert cfg.kmeans_restarts == 6 and cfg.kmeans_tol == 1e-5
    assert cfg.kmeans_max_iters == 200 and cfg.kmeans_init == "uniform"
    assert cfg.cv_folds == 4
    assert cfg.output_dir == str(tmp_path / "out")


def test_empty_file_gives_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, ""))
    assert cfg == ExperimentConfig()
    assert cfg.kmeans_k is None and cfg.rfe_target_k is None
    assert cfg.cv_folds == 5 and cfg.kmeans_restarts == 10


def test_auto_means_unset(tmp_path):
    cfg = load_config(_write(tmp_path, "[kmeans]\nk = auto\n\n[rfe]\ntarget_k = AUTO\n"))
    assert cfg.kmeans_k is None
    assert cfg.rfe_target_k is None


def test_unknown_section_rejected(tmp_path):
    p = _write(tmp_path, "[clustering]\nk = 3\n")
    with pytest.raises(ConfigError, match=r"unknown section \[clustering\]"):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = _write(tmp_path, "[kmeans]\nsprocket = 3\n")
    with pytest.raises(ConfigError, match=r"\[kmeans\] unknown key 'sprocket'"):
        load_config(p)


@pytest.mark.parametrize("name", ["german.ini", "australian.ini"])
def test_shipped_configs_parse(name):
    cfg = load_config(CONFIGS / name)
    assert cfg.data_path and cfg.schema_path


def test_german_config_is_the_benchmark_config(monkeypatch):
    # perfbench pins the german.ini settings for cv-auto; the two must not drift
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import GERMAN_INI
    assert (load_config(CONFIGS / "german.ini").pipeline("kmeans", 0)
            == PipelineConfig(method="kmeans", seed=0, **GERMAN_INI))


def test_australian_config_differs_only_in_data_and_output():
    german, australian = (load_config(CONFIGS / n) for n in ("german.ini", "australian.ini"))
    own = {row.field: getattr(australian, row.field) for row in KEYS
           if row.section in ("data", "output")}
    assert own and dataclasses.replace(german, **own) == australian


def test_docstring_example_parses(tmp_path):
    doc = config_module.__doc__
    block = doc[doc.index("    [data]"):doc.index("\nEvery key")]
    cfg = load_config(_write(tmp_path, textwrap.dedent(block)))
    assert cfg.dataset_name == "german"
    assert cfg.scanner_windows == (5, 10)
    assert cfg.output_dir == str(tmp_path / "runs")


def test_key_table_fields_are_the_config_fields():
    assert [row.field for row in KEYS] == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_every_table_key_is_documented():
    table = {(row.section, row.key) for row in KEYS}
    doc = config_module.__doc__
    example = configparser.ConfigParser(inline_comment_prefixes=(";",))
    example.read_string(textwrap.dedent(doc[doc.index("    [data]"):doc.index("\nEvery key")]))
    assert {(s, k) for s in example.sections() for k in example[s]} == table
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = {(s, k) for s, keys in re.findall(r"`\[(\w+)\]`\s+([\w/]+)", readme)
              for k in keys.split("/")}
    assert listed == table


def test_unknown_key_reported_before_a_bad_value(tmp_path):
    p = _write(tmp_path, "[kmeans]\nk = many\nsprocket = 3\n")
    with pytest.raises(ConfigError, match=r"\[kmeans\] unknown key 'sprocket'"):
        load_config(p)


def test_bad_int_names_file_section_key(tmp_path):
    p = _write(tmp_path, "[cv]\nfolds = five\n")
    with pytest.raises(ConfigError, match=r"exp\.ini: \[cv\] folds"):
        load_config(p)


def test_bad_bool_rejected(tmp_path):
    p = _write(tmp_path, "[preprocess]\nscale = sometimes\n")
    with pytest.raises(ConfigError, match=r"\[preprocess\] scale: expected a boolean"):
        load_config(p)


def test_bad_float_rejected(tmp_path):
    p = _write(tmp_path, "[kmeans]\ntol = tiny\n")
    with pytest.raises(ConfigError, match=r"\[kmeans\] tol: expected a number"):
        load_config(p)


@pytest.mark.parametrize("value", ["inf", "+Infinity", "1e400"])
def test_infinite_tol_rejected(tmp_path, value):
    # an infinite tol would stop every Lloyd run after its first update
    p = _write(tmp_path, f"[kmeans]\ntol = {value}\n")
    with pytest.raises(ConfigError, match=r"\[kmeans\] tol: expected a finite number"):
        load_config(p)


def test_bad_init_rejected(tmp_path):
    p = _write(tmp_path, "[kmeans]\ninit = random\n")
    with pytest.raises(ConfigError, match="kmeanspp"):
        load_config(p)


def test_bad_window_list_rejected(tmp_path):
    p = _write(tmp_path, "[scanner]\nwindows = 4,six\n")
    with pytest.raises(ConfigError, match="comma-separated integers"):
        load_config(p)


def test_folds_floor_enforced(tmp_path):
    p = _write(tmp_path, "[cv]\nfolds = 1\n")
    with pytest.raises(ConfigError, match="folds must be >= 2"):
        load_config(p)


@pytest.mark.parametrize("section,key,value,floor", [
    ("rfe", "target_k", "0", 1),
    ("rfe", "step", "0", 1),
    ("kmeans", "k", "0", 1),
    ("kmeans", "k_max", "1", 2),
    ("kmeans", "restarts", "0", 1),
    ("kmeans", "max_iters", "0", 1),
    ("kmeans", "tol", "-1", 0),
    ("kmeans", "tol", "nan", 0),
    ("scanner", "stride", "0", 1),
    ("scanner", "estimators", "0", 1),
])
def test_config_floors_enforced(tmp_path, section, key, value, floor):
    p = _write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be >= {floor}$"):
        load_config(p)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.ini"):
        load_config(tmp_path / "nope.ini")


def test_fingerprint_hash_tracks_content():
    a = ExperimentConfig()
    b = ExperimentConfig()
    c = dataclasses.replace(a, cv_folds=4)
    assert a.fingerprint_hash() == b.fingerprint_hash()
    assert a.fingerprint_hash() != c.fingerprint_hash()
    assert len(a.fingerprint_hash()) == 16
    int(a.fingerprint_hash(), 16)


def test_fingerprint_hash_does_not_depend_on_how_paths_are_spelled(monkeypatch):
    # one file named relative to the working directory and by its absolute
    # path: the data and schema paths differ as strings, the hash does not
    monkeypatch.chdir(ROOT)
    rel, absolute = load_config("configs/german.ini"), load_config(CONFIGS / "german.ini")
    assert rel.data_path != absolute.data_path and rel.schema_path != absolute.schema_path
    assert rel.fingerprint() == absolute.fingerprint()
    assert rel.fingerprint_hash() == absolute.fingerprint_hash()
    assert not {"data_path", "schema_path", "output_dir"} & set(rel.fingerprint())


def test_pipeline_mapping(tmp_path):
    cfg = load_config(_write(tmp_path, FULL))
    p = cfg.pipeline("lr", seed=99)
    assert p.method == "lr"
    assert p.seed == 99
    assert p.folds == 4
    assert p.scale is False
    assert p.rfe_target_k == 7 and p.rfe_step == 2
    assert p.kmeans_k == 3 and p.kmeans_restarts == 6
    assert p.kmeans_init == "uniform"


def test_each_default_is_stated_once():
    assert ExperimentConfig().pipeline("kmeans", seed=0) == PipelineConfig(method="kmeans",
                                                                           seed=0)
    p = PipelineConfig()
    params = KMeansParams(k=2)
    assert ((p.kmeans_restarts, p.kmeans_max_iters, p.kmeans_tol, p.kmeans_init)
            == (params.restarts, params.max_iters, params.tol, params.init))
