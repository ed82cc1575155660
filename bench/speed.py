"""Reference probes: the host's speed at a moment, for normalizing timings.

A shared virtual machine runs the same code at different speeds from one
second to the next and from one minute to the next: on a 2-vCPU VM the
same fixed work took up to 1.8x as long in a slow spell as in a fast one,
for whole runs of 25 s. No estimator over a run's own samples removes
that. So the benchmark times a fixed reference probe next to the work it
measures, and reports each timing at reference speed:

    normalized = measured * REFERENCE_S[kind] / probe

where ``probe`` is the probe's time close to the measurement and
REFERENCE_S[kind] is a constant, the probe's time on the 2-vCPU Intel
Xeon VM the benchmark was tuned on. The values are seconds on a machine
that fast, and they move one for one with the program's own speed.

A slow spell does not slow all code alike. Over one 170-second test,
interpreted loops (the exact route's Faddeev-LeVerrier) varied twice as
much as an eigensolve on N = 1001. So each workload uses a probe of its
own kind of work:

- ``interp``: interpreted additions over lists of small integers;
- ``lapack``: a 192 x 192 symmetric eigensolve;
- ``mixed``: the interpreted loops and a 160 x 160 eigensolve, for
  workloads that split their time between the two.

Larger eigensolves slow less in a slow spell than small ones do, so the
``lapack`` probe is as large as its cost allows.

A probe runs warm: an untimed run first brings its code and data back
into the caches, so its time does not depend on how much of them the
work measured just before evicted. It uses numpy's ``eigh`` as bound at
import, so the tracer's wrapper never slows it, and it calls no code of
the package.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# seconds per timed probe on the VM above, in a typical spell
REFERENCE_S = {"interp": 0.00014, "lapack": 0.0040, "mixed": 0.0026}

_eigh = np.linalg.eigh
_rng = np.random.default_rng(0)
_SYM192 = _rng.standard_normal((192, 192))
_SYM192 = _SYM192 + _SYM192.T
_SYM160 = _SYM192[:160, :160].copy()
_ROWS = [[1] * 64 for _ in range(64)]


def _interp() -> None:
    acc = [0] * 64
    for row in _ROWS:
        for t in range(64):
            acc[t] += row[t]


def _lapack() -> None:
    _eigh(_SYM192)


def _mixed() -> None:
    _interp()
    _eigh(_SYM160)


_WORK = {"interp": _interp, "lapack": _lapack, "mixed": _mixed}

# the probe each workload uses: its hot path's kind of work
WORKLOAD_KIND = {"exact-containment": "interp", "dense-alpha": "lapack",
                 "small-checks": "mixed", "cli-sweep": "mixed"}
# set-up is interpreter start, imports and input generation in every workload
SETUP_KIND = "interp"

# a process probes before a cell when its last probe ended this long ago;
# probing adds 3% to 10% to a workload's time
GAP_S = {"interp": 0.01, "lapack": 0.1, "mixed": 0.1}


def probe(kind: str) -> tuple[float, float]:
    """(start, duration) of one warm run of the reference work of this kind."""
    work = _WORK[kind]
    work()
    t0 = time.perf_counter()
    work()
    return t0, time.perf_counter() - t0


def burst(kind: str, count: int = 15) -> list[float]:
    """Durations of count probes in a row."""
    return [probe(kind)[1] for _ in range(count)]


def factor(kind: str, durations) -> float:
    """REFERENCE_S over the median probe time: the multiplier to reference speed."""
    return REFERENCE_S[kind] / statistics.median(durations)


def nearest_factor(kind: str, probes: list[tuple[float, float]], t: float,
                   each_side: int = 3) -> float:
    """Factor from the probes nearest in time to t, up to each_side before and after."""
    i = bisect.bisect_left(probes, (t,))
    return factor(kind, [d for _, d in probes[max(0, i - each_side):i + each_side]])
