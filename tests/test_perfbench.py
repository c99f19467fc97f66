"""The benchmark still runs against the package: perfbench's self-test passes
and every workload completes a short run with its output checks passing.

perfbench builds ``PipelineConfig``, ``ScanConfig`` and the traced entry points
by name, so a change that drops one of them breaks the benchmark; these tests
catch that. Both write only under the gitignored ``.perfbench_out/``; the
self-test removes what it wrote, a workload run leaves its result records.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_workload_runs_and_checks_its_outputs():
    """One short untraced run of each workload: the self-test drives only the
    calls of cv-auto and batch-score, so this is what catches a change that
    breaks what cv-fixed or scan call."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "all", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 4, proc.stdout
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
        assert result["attempted"] >= 1, result
