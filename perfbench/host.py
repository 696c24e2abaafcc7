"""The host the benchmark runs on: context, copy bandwidth, speed gauge.

The machines this benchmark runs on are shared: the speed of the same
Python code drifts by a fifth and more over tens of seconds as neighbours
come and go, slowly enough that longer runs do not average it out.
:class:`HostGauge` times a fixed reference kernel between operations so
that every timing can also be given at a reference host speed (see
``README.md``).
"""

from __future__ import annotations

import gc
import math
import os
import platform
import time
from typing import Dict, List

import numpy as np

#: Time of one :meth:`HostGauge.tick` kernel on an unloaded host of the kind
#: the bounds in BENCHMARK.json were set on (2-vCPU x86-64, Python 3.11).
NOMINAL_REFERENCE_S = 0.0075


class HostGauge:
    """Times a fixed reference kernel: interpreter work and a NumPy sort.

    The kernel mixes the two kinds of work the package does (per-row Python
    dispatch and vectorised kernels), so its time moves with the host's
    speed for both.  It touches nothing of the package under test.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(200_000)
        self.times: List[float] = []

    def tick(self) -> float:
        # The collector stays off and the array is brought into cache first,
        # so the time does not depend on what the package left behind.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._data.sum()
            start = time.perf_counter()
            total = 0
            table: Dict[int, int] = {}
            for i in range(40_000):
                total += i * i
                table[i & 255] = total
            np.sort(self._data)
            np.sort(self._data)
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.times.append(elapsed)
        return elapsed

    def factor(self, index: int) -> float:
        """Scale to reference speed for the interval between ticks ``index`` and ``index + 1``."""
        return NOMINAL_REFERENCE_S / ((self.times[index] + self.times[index + 1]) / 2.0)


def copy_bandwidth_gb_per_s() -> float:
    """STREAM-style copy of 32 MiB: best of five copies, read + write bytes."""
    source = np.ones(32 * 2**20 // 8)
    target = np.empty_like(source)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - start)
    return 2 * source.nbytes / best / 1e9


def host_context() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
