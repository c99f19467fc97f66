#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of riskmeans).

    python3 perfbench/selftest.py

Checks that the generator is seeded and German-shaped, that every table
loads through ``load_with_schema``, that unseen categories appear only after
the training slice, that the tracer patches every binding and puts every
original object back, that the speed sampler takes samples, leaves the
caller's random state alone and restores the signal handler and timer, and
that ``BENCHMARK.json`` lists exactly the metrics and workloads the runner
reports. Exits 1 on the first failed group.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, message: str) -> None:
    if not cond:
        FAILURES.append(message)


def generator(work: Path) -> None:
    import numpy as np

    from gen import make_table
    from riskmeans.data_ingest import load_with_schema
    from workloads import SCHEMA, TRAIN_ROWS, Workload

    schema = run.ROOT / SCHEMA
    columns = Workload(run.ROOT, work, 0).columns
    for n, stream, kw in ((1000, "credit", {}), (10_000, "scan", {}),
                          (20_000, "batch", {"unseen_share": 0.01})):
        a = make_table(columns, n, 7, stream, **kw)
        check(a == make_table(columns, n, 7, stream, **kw), f"{stream}: same seed differs")
        check(a != make_table(columns, n, 8, stream, **kw), f"{stream}: seeds 7 and 8 agree")
        path = work / f"{stream}.data"
        path.write_text(a, encoding="utf-8")
        ds = load_with_schema(path, schema)
        kinds = [c.kind for c in ds.schema]
        check(ds.n == n and kinds.count("numeric") == 7 and kinds.count("categorical") == 13,
              f"{stream}: loaded {ds.n} rows, kinds {kinds}")
        check(abs(ds.labels.mean() - 0.3) < 0.01, f"{stream}: positive share {ds.labels.mean()}")
        cells = [line.split()[:-1] for line in a.splitlines()[1:]]
        missing = np.mean([tok == "?" for row in cells for tok in row])
        check(0.015 < missing < 0.025, f"{stream}: missing share {missing}")
        unseen = [i for i, row in enumerate(cells) if any(t.startswith("U") for t in row)]
        if kw:
            check(bool(unseen) and min(unseen) >= TRAIN_ROWS,
                  f"{stream}: unseen categories in rows {unseen[:3]}...")
        else:
            check(not unseen, f"{stream}: unseen categories in a table without them")


def tracer(work: Path) -> None:
    import riskmeans
    from riskmeans.bench_harness import PipelineConfig, run_pipeline
    from tracing import Tracer
    from workloads import BATCH_ROWS, BatchScore, CvAuto

    probe = Tracer()
    sites = {(id(owner), attr): (owner, attr, original)
             for _, original, bound, _, _ in probe.targets() for owner, attr in bound}
    check(len(sites) > len(probe.targets()), "functions imported by name were not found")

    wl = CvAuto(run.ROOT, work, 0)
    small = wl.load(wl.table(200, "credit"))
    config = PipelineConfig(method="kmeans", folds=3, seed=0, kmeans_k_max=4,
                            kmeans_restarts=2)
    tracer = Tracer()
    with tracer:
        for owner, attr, original in sites.values():
            check(getattr(owner, attr) is not original, f"{owner}.{attr} not wrapped")
        report = tracer.run_pass(1, lambda: run_pipeline(small, config))
    for owner, attr, original in sites.values():
        check(getattr(owner, attr) is original, f"{owner}.{attr} not restored")
    check(riskmeans.fit_logistic is riskmeans.feature_select.fit_logistic,
          "package re-export not restored")

    m = tracer.pass_metrics(1)
    for name in ("bench_harness.fit_fold.calls", "feature_select.select_target_k.calls",
                 "kmeans_core.choose_k.calls", "kmeans_core.silhouette_score.calls",
                 "cv.train_indices.calls", "metrics.compute_bundle.calls"):
        check(m[name] > 0, f"{name} = {m[name]}")
    check(m["bench_harness.fit_fold.calls"] == 3, "three folds, three fit_fold calls")
    check(m["feature_select.fit_logistic.unique_calls"] < m["feature_select.fit_logistic.calls"],
          "the RFE path repeats logistic fits, so some calls are not unique")
    check(all(v >= 0 for k, v in m.items() if k.endswith("self_s")), "negative self time")
    ids = {s[0] for s in tracer.spans}
    check(all(s[4] is None or s[4] in ids for s in tracer.spans), "span with unknown parent")
    check(len(report.fold_metrics) == 3, "traced run returned a wrong report")

    # The workloads' own calls into the program are traced too.
    wl = BatchScore(run.ROOT, work, 0)
    wl.rows = 2 * BATCH_ROWS
    wl.setup()
    with tracer:
        tracer.run_pass(2, wl.run_pass)
    m = tracer.pass_metrics(2)
    for name, expected in (("data_ingest.load_csv.rows", wl.rows),
                           ("data_ingest.preprocess.calls", 1),
                           ("data_ingest.apply_report.rows", wl.rows),
                           ("kmeans_core.fit_classifier.calls", 1),
                           ("kmeans_core.predict_scores.calls", 2)):
        check(m[name] == expected, f"batch-score pass: {name} = {m[name]}, expected {expected}")


def sampler() -> None:
    import signal
    import time

    import numpy as np

    from speed import Sampler

    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        s = Sampler()
        rng = np.random.default_rng(7)
        with s:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
            drawn = rng.random(3)
        check(np.array_equal(drawn, np.random.default_rng(7).random(3)),
              "sampler changed the caller's random draws")
        check(len(s.samples) >= 3, f"sampler took {len(s.samples)} samples in 0.3 s")
        check(0 < s.spent_s < 0.3, f"sampler spent {s.spent_s} s of 0.3 s")
        check(s.scale() > 0, "sampler scale not positive")
        check(signal.getsignal(signal.SIGALRM) is handler, "sampler left its handler")
        check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "sampler left its timer")
    finally:
        signal.signal(signal.SIGALRM, previous)


def benchmark_json() -> None:
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    check([tuple(m[k] for k in ("name", "unit", "better")) for m in spec["end_to_end"]]
          == list(run.END_TO_END), "end_to_end metrics")
    check([tuple(m[k] for k in ("name", "unit", "better")) for m in spec["per_layer"]]
          == list(LAYER_METRICS + run.TRACE_EXTRA), "per_layer metrics")


def main() -> int:
    _, problem = run.prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    work = run.ROOT / ".perfbench_out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    groups = (("generator", lambda: generator(work)), ("tracer", lambda: tracer(work)),
              ("sampler", sampler), ("BENCHMARK.json", benchmark_json))
    try:
        for name, group in groups:
            group()
            print(f"{name}: " + ("ok" if not FAILURES else "FAILED: " + "; ".join(FAILURES)))
            if FAILURES:
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
