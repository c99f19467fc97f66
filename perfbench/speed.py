"""Wall time rescaled to a fixed machine speed, sampled while the program runs.

On a shared VM the same pass can take half again as long in one minute as
in the next, and from one tenth of a second to the next, because other
tenants load the host; no steal time shows, so CPU time does not help. The
quality of the program does not change meanwhile. ``Sampler`` therefore
measures the machine's speed during a timed stretch: a timer signal every
``INTERVAL_S`` of wall time runs a fixed piece of reference work of about
half a millisecond in the signal handler and records how long it took. The
handler's own time is taken out of the stretch, and what is left is rescaled
to the speed at which the reference takes ``REFERENCE_S``:

    rescaled = (wall - time in the handler) * REFERENCE_S / mean(sample times)

The reference mixes, in about equal time, what the program spends its time
on: Python function calls and small objects, numpy products on an 800 x 20
matrix (the logistic solver, Lloyd), and numpy calls on tiny arrays, whose
time is numpy's own call overhead; plus a little interpreter work on strings
and dicts (the CSV parser). Measured against cv passes on such a VM, this
mix slowed in step with the passes (log-log slope 0.96, correlation 0.99),
while dense BLAS products and memory streaming slowed far less than the
program and are therefore left out. It never calls ``riskmeans``
and touches no state of it (no global random state either), so the program
computes exactly what it would without the sampler, and a change to the
program moves the rescaled time as it moves the wall time. One process, no
threads: the handler runs in the main thread between bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# About the mean time of one reference sample taken between the program's
# calls on a 2-vCPU x86_64 VM (Intel Xeon, Python 3.11.7, numpy 2.4.6, one
# BLAS thread) while its host was quiet, so that rescaled times come out
# close to the wall times of a quiet host. Rescaled times are seconds at
# that speed.
REFERENCE_S = 0.0007

_M = np.random.default_rng(20240521).normal(size=(800, 20))
_TOKENS = [f"A{i % 37}" if i % 11 else "?" for i in range(300)]
_FIVE = np.arange(5.0)


class _Cell:
    __slots__ = ("value", "total")

    def __init__(self, value, total):
        self.value = value
        self.total = total


def _step(x: int) -> int:
    return 2 * x + 1


def reference_work() -> float:
    """Fixed work of about REFERENCE_S seconds; returns a checksum."""
    total = 0
    for i in range(500):
        total += _step(i)
        _Cell(i, total)
    counts: dict = {}
    for token in _TOKENS:
        key = token.strip().lower()
        counts[key] = counts.get(key, 0) + 1
    v = np.zeros(20)
    for _ in range(12):
        z = _M @ v
        v = v - 1e-3 * (_M.T @ (np.tanh(z) - 0.5))
    a = _FIVE
    for _ in range(65):
        a = np.maximum(a * 0.5 + 1.0, 0.0)
    return total + len(counts) + float(v.sum()) + float(a.sum())


class Sampler:
    """Samples the reference while the program runs; not reentrant.

    ``spent_s`` is the wall time spent in the handler so far and
    ``samples`` the times of the reference samples taken so far.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """REFERENCE_S over the mean sample time: the factor that takes a
        time measured under this sampler to the reference speed."""
        if not self.samples:
            raise RuntimeError("no speed sample taken; time a longer stretch")
        return REFERENCE_S / statistics.fmean(self.samples)
