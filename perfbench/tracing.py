"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each traced public function with a wrapper at every
module binding that holds it (``bench_harness``, ``feature_select`` and
``mg_scanner`` import functions by name, and the package re-exports them),
records one span per call and a few counts taken from the call's arguments
and result, and puts the original objects back on exit. Nothing under
``src/riskmeans`` changes.

A span is ``(id, name, start, end, parent id, pass id)``. Spans stay in
memory while the run lasts and are written out once at the end. A layer's
self time is the total duration of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


PACKAGE = "riskmeans"


def _rows(x) -> int:
    return int(np.asarray(x).shape[0])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, qualified name, per-call counts taken from (args, kwargs, result),
# whether calls are also counted as unique by a digest of their arguments).
TRACED = (
    ("bench_harness", "fit_fold", None, False),
    ("bench_harness", "score_fold", None, False),
    ("cv", "FoldPlan.train_indices", None, False),
    ("data_ingest", "load_csv", lambda a, k, r: {"rows": r.n}, False),
    ("data_ingest", "preprocess", lambda a, k, r: {"rows": r[0].n}, False),
    ("data_ingest", "apply_report", lambda a, k, r: {"rows": r.n}, False),
    ("feature_select", "fit_logistic", lambda a, k, r: {"epochs": r.iterations}, True),
    ("feature_select", "rfe",
     lambda a, k, r: {"rounds": len({t[0] for t in r.elimination_trace})}, False),
    ("feature_select", "select_target_k", None, False),
    ("kmeans_core", "choose_k", lambda a, k, r: {"ks": len(r[1])}, False),
    ("kmeans_core", "silhouette_score",
     lambda a, k, r: {"pairs": _rows(_arg(a, k, 0, "points")) ** 2}, False),
    ("kmeans_core", "lloyd_fit",
     lambda a, k, r: {"iterations": r.iterations_run, "converged": int(r.converged)}, True),
    ("kmeans_core", "fit_classifier", None, False),
    ("kmeans_core", "predict_scores", lambda a, k, r: {"rows": _rows(r)}, False),
    ("metrics", "compute_bundle", None, False),
    ("mg_scanner", "fit_window_estimators", None, False),
    ("mg_scanner", "transform_matrix",
     lambda a, k, r: {"rows": _rows(_arg(a, k, 0, "X"))}, False),
)

# Per-layer metrics in report order: (name, unit, better). Counts are per pass.
_EXTRA = {
    "data_ingest.load_csv": (("rows", "count", "lower"),),
    "data_ingest.preprocess": (("rows", "count", "lower"),),
    "data_ingest.apply_report": (("rows", "count", "lower"),),
    "feature_select.fit_logistic": (("unique_calls", "count", "lower"),
                                    ("epochs", "count", "lower")),
    "feature_select.rfe": (("rounds", "count", "lower"),),
    "kmeans_core.choose_k": (("ks", "count", "lower"),),
    "kmeans_core.silhouette_score": (("pairs", "count", "lower"),),
    "kmeans_core.lloyd_fit": (("unique_calls", "count", "lower"),
                              ("iterations", "count", "lower"),
                              ("converged_share", "share", "higher")),
    "kmeans_core.predict_scores": (("rows", "count", "lower"),),
    "mg_scanner.transform_matrix": (("rows", "count", "lower"),),
}


def layer_name(module: str, qualname: str) -> str:
    """``cv.FoldPlan.train_indices`` is reported as ``cv.train_indices``."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


LAYER_METRICS = tuple(
    metric
    for module, qualname, _, _ in TRACED
    for metric in (
        (f"{layer_name(module, qualname)}.calls", "count", "lower"),
        (f"{layer_name(module, qualname)}.self_s", "s", "lower"),
        (f"{layer_name(module, qualname)}.errors", "count", "lower"),
        *((f"{layer_name(module, qualname)}.{stat}", unit, better)
          for stat, unit, better in _EXTRA.get(layer_name(module, qualname), ())),
    )
)


def digest(args, kwargs) -> str:
    """Stable digest of a call's arrays and parameters, used to count unique calls."""
    h = hashlib.blake2b(digest_size=16)
    for value in (*args, *sorted(kwargs.items())):
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps the traced functions while active; collects spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._pass = 0
        self._counts: dict = defaultdict(lambda: defaultdict(int))
        self._digests: dict = defaultdict(lambda: defaultdict(set))
        self._patched: list[tuple] = []

    def bindings(self, original) -> list[tuple]:
        """Every (owner, attribute) in the package that holds ``original``."""
        found = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(mod).items():
                if value is original:
                    found.append((mod, attr))
        return found

    def targets(self) -> list[tuple]:
        """(layer name, original object, its bindings, stats hook, unique flag)."""
        out = []
        for module, qualname, stats, unique in TRACED:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            owner, attr = _resolve(mod, qualname)
            original = vars(owner)[attr]
            sites = [(owner, attr)] if owner is not mod else self.bindings(original)
            out.append((layer_name(module, qualname), original, sites, stats, unique))
        return out

    def __enter__(self):
        for name, original, sites, stats, unique in self.targets():
            wrapper = self._wrap(name, original, stats, unique)
            for owner, attr in sites:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def run_pass(self, pass_id: int, fn):
        """Call ``fn()`` inside a root span named ``pass``; return its result."""
        self._pass = pass_id
        return self._span("pass", fn, (), {})

    def _span(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self._counts[self._pass][f"{name}.errors"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self._pass))

    def _wrap(self, name, fn, stats, unique):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._counts[self._pass]
            counts[f"{name}.calls"] += 1
            if unique:
                self._digests[self._pass][name].add(digest(args, kwargs))
            result = self._span(name, fn, args, kwargs)
            if stats is not None:
                for stat, value in stats(args, kwargs, result).items():
                    counts[f"{name}.{stat}"] += value
            return result
        return wrapper

    def pass_metrics(self, pass_id: int) -> dict:
        """Every per-layer metric of one pass (0 for layers it never reached)."""
        durations = {}
        child_time = defaultdict(float)
        for span_id, name, start, end, parent, pid in self.spans:
            if pid == pass_id:
                durations[span_id] = (name, end - start)
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for span_id, (name, dur) in durations.items():
            self_s[name] += dur - child_time[span_id]

        counts = self._counts[pass_id]
        out = {}
        for metric, _, _ in LAYER_METRICS:
            layer, stat = metric.rsplit(".", 1)
            if stat == "self_s":
                out[metric] = self_s[layer]
            elif stat == "unique_calls":
                out[metric] = len(self._digests[pass_id][layer])
            elif stat == "converged_share":
                calls = counts[f"{layer}.calls"]
                out[metric] = counts[f"{layer}.converged"] / calls if calls else 0.0
            else:
                out[metric] = counts[metric]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, pid in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "pass": pid}) + "\n")
