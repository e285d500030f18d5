"""Host speed probes: fixed pieces of work timed between the program's ops.

On a shared virtual machine the processor runs in fast and slow phases that
last from seconds to minutes, and the same code takes up to 1.5 times as long
in a slow phase.  The slowdown shows in CPU time as much as in wall time, so
it cannot be timed away; it can be divided out.  The benchmark times a probe
between operations (never inside one) and reports each operation's latency
scaled to the probe's reference time:

    scaled = latency * reference / probe

where ``probe`` is the median of the probes taken around that operation.  A
scaled time reads as the latency in a typical phase of the reference
machine.  Changes to the program move it as they move raw latency; phases of
the host move the probe and the latency together and cancel.

The phases do not slow all work alike: in some, dense matrix products run 40%
slower while scalar code keeps its speed, and elementwise work over large
vectors slows less than either.  So each workload's probe does the kinds of
work its ops do (``PROBE_OF``): the small ops of sweep_crosscheck never touch
a large vector, and the large workloads mix both kinds.  The probe runs only
code of the benchmark and numpy, never the program under test.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Probe again before an op once this much time has passed since the last
# probe, once per interval passed (at most MAX_BURST), so that probing costs
# about the same share of every workload and long ops get more probes.
INTERVAL_S = 0.1
MAX_BURST = 16
# Probes within this distance of an op's start and end give its speed.
WINDOW_S = 0.25

_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=1 << 15) + 1j * _RNG.normal(size=1 << 15)
_MAT = _RNG.normal(size=(128, 128)) + 1j * _RNG.normal(size=(128, 128))
_AMPS = _RNG.normal(size=1 << 18) + 1j * _RNG.normal(size=1 << 18)


def _calls() -> float:
    """Interpreter work, small-array numpy calls and 128x128 complex matrix
    products, as in the many small runs of sweep_crosscheck, the projector
    algebra and ``verify``."""
    table = {}
    for i in range(2500):
        table[i] = (i, float(i) * 0.5)
    total = sum(v[1] for v in table.values())
    small = _SMALL[:8]
    for _ in range(150):
        small = small * 1.0 + 0.0
    weights = np.abs(_SMALL) ** 2
    total += float(np.cumsum(weights)[-1]) + float((_SMALL * _SMALL.conj()).real.sum())
    total += float((_MAT @ _MAT @ _MAT)[0, 0].real)
    return total + float(small.real.sum())


def _vectors() -> float:
    """Elementwise numpy over an 18-qubit amplitude vector (4 MB), as in the
    large workloads."""
    weights = np.abs(_AMPS) ** 2
    return float(weights.sum()) + float((_AMPS * _AMPS.conj()).real.sum())


# Each part with its time in a typical phase of the reference machine (a
# 2 vCPU Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).  The reference
# only sets the scale of the reported times.
PARTS = {"calls": (_calls, 2.0e-3), "vectors": (_vectors, 2.0e-3)}
PROBE_OF = {
    "symmetric_large": ("calls", "vectors"),
    "random_large": ("calls", "vectors"),
    "sweep_crosscheck": ("calls",),
}


class Probe:
    """A workload's probe: calling it returns the seconds one probe took."""

    def __init__(self, workload: str) -> None:
        self.parts = [PARTS[name][0] for name in PROBE_OF[workload]]
        self.reference = sum(PARTS[name][1] for name in PROBE_OF[workload])

    def __call__(self) -> float:
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start


class Track:
    """Probe timings along a run, and the speed factor around any interval."""

    def __init__(self, workload: str) -> None:
        self.probe = Probe(workload)
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self, force: bool = False) -> None:
        gap = time.perf_counter() - self.times[-1] if self.times else INTERVAL_S
        if force or gap >= INTERVAL_S:
            for _ in range(min(MAX_BURST, max(1, int(gap / INTERVAL_S)))):
                self.probes.append(self.probe())
                self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """The reference over the median probe near [start, end]; the median
        keeps out probes that an interrupt lengthened."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        # At least the nearest probe on each side of the interval.
        lo = max(0, min(lo, bisect.bisect_left(self.times, start) - 1))
        hi = min(len(self.times), max(hi, bisect.bisect_right(self.times, end) + 1))
        return self.probe.reference / statistics.median(self.probes[lo:hi])
