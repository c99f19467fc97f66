#!/usr/bin/env python3
"""Run one riskmeans benchmark workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload cv-auto --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # each in its own process

One process, one client, no threads: set-ups, then passes back to back,
until ``--seconds`` have elapsed (at least one pass). ``RISKMEANS_THREADS``
is removed from the environment and numpy's BLAS is held to one thread.

With ``--trace 0`` the metrics are the end-to-end ones (tracing off); the
times among them are wall times less the speed sampler's, rescaled to a
fixed machine speed (see ``speed.py``), and the plain wall times are
printed beside them. With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones of the traced passes (see ``tracing.py``), plus the tracing
overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and the environment. Result files and spans
go to ``.perfbench_out/`` in the checkout that holds this script.

Exit status: 0 when every output check passed, 1 when one failed, 2 when the
checkout lacks the program or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better); every workload reports every one of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("auc", "score", "higher"),
    ("acc", "share", "higher"),
    ("brier", "score", "lower"),
)
# Reported with the per-layer metrics: the lr row of cv-fixed (0 elsewhere)
# and the tracing overhead.
TRACE_EXTRA = (
    ("bench_harness.compare_methods.lr_auc", "score", "higher"),
    ("bench_harness.compare_methods.lr_acc", "share", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, threads_was_set: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "RISKMEANS_THREADS": "unset",
        "RISKMEANS_THREADS_was_set_by_caller": threads_was_set,
        "blas_threads": 1,
        "machine": platform.machine(),
    }


def run_all(args, names) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = max(status, proc.returncode)
    return status


class Run:
    """Passes of one workload, their timings, checks and metrics."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.quality_of = {}
        self.pass_s = []
        self.batch_s = []
        self.quality = []

    def one_pass(self, call):
        """Time ``call()`` (which runs one pass), then check it; None on failure."""
        self.attempted += self.wl.ops_per_pass
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.ops_per_pass
            return None
        elapsed = time.perf_counter() - t0
        # Equal digests mean equal outputs, so quality is computed once per digest.
        if out.digest not in self.quality_of:
            self.quality_of[out.digest] = self.wl.quality(out)
        quality = self.quality_of[out.digest]
        problems = self.wl.check(out, quality)
        if len(self.quality_of) > 1:
            problems.append("pass output differs from an earlier pass")
        if problems:
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += self.wl.ops_per_pass
            return None
        self.pass_s.append(elapsed)
        self.batch_s += out.batch_s
        self.quality.append(quality)
        return elapsed


def passes_within(seconds: float):
    """Yield pass ids 1, 2, ... while the next pass, if it takes as long as
    the median one so far, still ends within ``seconds``; at least one."""
    start = time.perf_counter()
    durations = []
    pass_id = 1
    while True:
        t0 = time.perf_counter()
        yield pass_id
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return
        pass_id += 1


def report_lines(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<48} {value:>14.6g} {units[name]}{note}")


def measure(wl, args) -> tuple[Run, dict, dict]:
    from speed import Sampler

    # Set up at least SETUP_REPEATS times and for at least SETUP_SECONDS, so
    # that a set-up of a few milliseconds still gets a steady median. Set-ups
    # and passes run under the speed sampler; their wall time less the
    # sampler's is rescaled to the reference speed (see speed.py).
    start = time.perf_counter()
    sampler = Sampler()
    setup_wall = []
    with sampler:
        while (len(setup_wall) < SETUP_REPEATS
               or (sum(setup_wall) < SETUP_SECONDS and len(setup_wall) < SETUP_MAX_REPEATS)):
            spent = sampler.spent_s
            t0 = time.perf_counter()
            wl.setup()
            setup_wall.append(time.perf_counter() - t0 - (sampler.spent_s - spent))
    setup_scale = sampler.scale()
    setup_s = [t * setup_scale for t in setup_wall]

    def sampled_pass():
        with sampler:
            return wl.run_pass()

    run = Run(wl)
    wall_s, run_s, scales = [], [], []
    for _ in passes_within(args.seconds - (time.perf_counter() - start)):
        gc.collect()
        elapsed = run.one_pass(sampled_pass)
        if elapsed is not None:
            wall_s.append(elapsed - sampler.spent_s)
            scales.append(sampler.scale())
            run_s.append(wall_s[-1] * scales[-1])
    notes = {"setup_s": f"median of {len(setup_s)} set-ups",
             "run_s": f"median of {len(run.pass_s)} passes",
             "error_rate": f"{run.failed} of {run.attempted} {wl.ops} failed"}
    info = {"error_rate": run.failed / run.attempted, "setup_scale": setup_scale,
            "setup_wall_s": setup_wall, "wall_s": wall_s, "scales": scales}
    if not run.pass_s:
        return run, {}, dict(info=info, notes=notes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{k: statistics.median(q[k] for q in run.quality)
           for k in ("auc", "acc", "brier")},
    }
    if run.batch_s:
        ms = sorted(1000 * s for s in run.batch_s)
        p50, p90 = statistics.median(ms), statistics.quantiles(ms, n=10)[-1]
        info.update({"batch_ms.p50": p50, "batch_ms.p90": p90})
        notes["batch_ms.p50"] = notes["batch_ms.p90"] = f"{len(ms)} batches of 1000 rows"
    if "lr_auc" in run.quality[0]:
        info.update({k: run.quality[0][k] for k in ("lr_auc", "lr_acc")})
    info.update({"wall_setup_s": statistics.median(setup_wall),
                 "wall_run_s": statistics.median(wall_s)})
    notes["wall_run_s"] = "median wall time of one pass less the sampler's, not rescaled"
    notes["wall_setup_s"] = "median wall time of one set-up less the sampler's, not rescaled"
    return run, metrics, dict(info=info, notes=notes)


def measure_traced(wl, args) -> tuple[Run, dict, dict]:
    from tracing import Tracer

    wl.setup()
    tracer = Tracer()
    plain = Run(wl)
    traced = Run(wl)
    per_pass = []

    def traced_pass(pass_id):
        with tracer:
            return tracer.run_pass(pass_id, wl.run_pass)

    for pass_id in passes_within(args.seconds):
        plain.one_pass(wl.run_pass)
        if traced.one_pass(lambda: traced_pass(pass_id)) is not None:
            per_pass.append(tracer.pass_metrics(pass_id))
    run = traced
    run.attempted += plain.attempted
    run.failed += plain.failed
    if set(plain.quality_of) != set(traced.quality_of):
        print("check failed: traced and untraced passes differ", file=sys.stderr)
        run.failed += traced.attempted
    counts = [{k: v for k, v in m.items() if not k.endswith("self_s")} for m in per_pass]
    if any(c != counts[0] for c in counts):
        print("check failed: per-layer counts differ between traced passes",
              file=sys.stderr)
        run.failed += traced.attempted
    spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.jsonl"
    tracer.write_spans(spans_path)
    notes = {"trace.overhead_s": f"median of {len(traced.pass_s)} traced minus "
                                 f"median of {len(plain.pass_s)} untraced passes"}
    if not per_pass or not plain.pass_s:
        return run, {}, dict(info={}, notes=notes)
    metrics = {k: (statistics.median(m[k] for m in per_pass) if k.endswith("self_s")
                   else per_pass[0][k]) for k in per_pass[0]}
    lr = traced.quality[0]
    metrics["bench_harness.compare_methods.lr_auc"] = lr.get("lr_auc", 0.0)
    metrics["bench_harness.compare_methods.lr_acc"] = lr.get("lr_acc", 0.0)
    metrics["trace.overhead_s"] = (statistics.median(traced.pass_s)
                                   - statistics.median(plain.pass_s))
    return run, metrics, dict(info={"spans": str(spans_path.relative_to(ROOT))},
                              notes=notes)


def prepare() -> tuple[bool, str | None]:
    """Pin the environment and put this checkout's ``src`` first on the path.

    Returns whether the caller had set ``RISKMEANS_THREADS``, and a reason the
    checkout cannot be benchmarked (None when it can).
    """
    src = ROOT / "src"
    if not ((src / "riskmeans" / "__init__.py").is_file()
            and (ROOT / "data" / "german.schema").is_file()):
        return False, f"{ROOT} holds no riskmeans checkout (src/riskmeans, data/german.schema)"
    threads_was_set = os.environ.pop("RISKMEANS_THREADS", None) is not None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import riskmeans

    if Path(riskmeans.__file__).resolve().parent != (src / "riskmeans").resolve():
        return threads_was_set, f"imported riskmeans from {riskmeans.__file__}, not {src}"
    return threads_was_set, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_was_set, problem = prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed)
        if args.trace:
            run, metrics, extra = measure_traced(wl, args)
            spec = LAYER_METRICS + TRACE_EXTRA
        else:
            run, metrics, extra = measure(wl, args)
            spec = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {name: unit for name, unit, _ in spec}
    env = environment(args.seed, threads_was_set)
    correct = run.failed == 0 and set(metrics) == set(units)
    print(f"workload {wl.name}: {len(run.pass_s)} passes, trace {args.trace}")
    report_lines(metrics, units, extra["notes"])
    info_units = {"wall_setup_s": "s", "wall_run_s": "s", "batch_ms.p50": "ms",
                  "batch_ms.p90": "ms", "lr_auc": "score", "lr_acc": "share",
                  "error_rate": "share"}
    report_lines({k: v for k, v in extra["info"].items() if k in info_units},
                 info_units, extra["notes"])
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name, _, _ in spec if name in metrics}}
    record = dict(result, workload=wl.name, trace=args.trace, seconds=args.seconds,
                  passes=len(run.pass_s), pass_s=run.pass_s, info=extra["info"],
                  digest=sorted(run.quality_of), env=env)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
