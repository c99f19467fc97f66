"""The benchmark still runs against the package: perfbench's self-test passes.

perfbench builds ``PipelineConfig``, ``ScanConfig`` and the traced entry points
by name, so a change that drops one of them breaks the benchmark; this test
catches that. The self-test writes only under ``.perfbench_out/`` and removes
what it wrote.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
