"""Run the token-spectra CLI as its console script does, timing every cell.

Usage: python3 bench/cli_launch.py [--trace] ARGS...

ARGS go to the CLI unchanged. Each ``verify.check_*`` call is timed and
reported as one line on stderr, written in a single call so that lines
from pool workers do not interleave:

    BENCH-CELL {"pid": <process>, "entered": <perf_counter on entry>,
                "t0": <perf_counter at start>, "ms": <latency>, "check": <function>,
                "graph": [n, edges], "args": [...], "kwargs": {...}, "verdict": <verdict>,
                "probes": [[start, duration], ...]}

The inputs let the benchmark identify a cell across sweeps and recompute
its expected verdict. ``probes`` lists the (start, duration) of the
reference probes (bench/speed.py) run right before the cell: a process
probes before a cell when its last probe ended at least speed.GAP_S ago,
so the probes see the host's speed under the sweep's own load. With
--trace the line also holds ``layers``, the cell's per-layer metrics. A
line ``BENCH-IMPORT <seconds>`` gives the import time of the CLI module.
Pool workers are forked, so they inherit the wrappers.
"""

from __future__ import annotations

import json
import os
import sys
import time

_t_import = time.perf_counter()
from token_spectra import cli, verify  # noqa: E402
from token_spectra.graphs import Graph  # noqa: E402

_import_s = time.perf_counter() - _t_import

import speed  # noqa: E402  (the script's directory is on sys.path)
from tracer import Tracer, summarize  # noqa: E402

KIND = speed.WORKLOAD_KIND["cli-sweep"]
_last_probe = [float("-inf")]  # end of this process's last probe; pool workers fork a copy


def _emit(line: str) -> None:
    os.write(2, (line + "\n").encode())


def _probes_due() -> list:
    if time.perf_counter() - _last_probe[0] < speed.GAP_S[KIND]:
        return []
    probe = speed.probe(KIND)
    _last_probe[0] = time.perf_counter()
    return [probe]


def _timed(fn, tracer: Tracer | None):
    def cell(*args, **kwargs):
        entered = time.perf_counter()
        probes = _probes_due()
        start = len(tracer.spans) if tracer else 0
        cert = None
        t0 = time.perf_counter()
        try:
            cert = tracer.cell(fn, *args, **kwargs) if tracer else fn(*args, **kwargs)
            return cert
        finally:
            ms = (time.perf_counter() - t0) * 1000.0
            g = args[0] if args and isinstance(args[0], Graph) else None
            record = {"pid": os.getpid(), "entered": entered, "t0": t0, "ms": ms,
                      "check": fn.__name__,
                      "graph": None if g is None else [g.n, g.edges],
                      "args": list(args[1:]), "kwargs": kwargs,
                      "verdict": None if cert is None else cert.verdict, "probes": probes}
            if tracer:
                record["layers"] = summarize(tracer.spans, start)
                del tracer.spans[start:]
            _emit("BENCH-CELL " + json.dumps(record))

    return cell


def main(argv: list[str]) -> None:
    tracer = None
    if argv and argv[0] == "--trace":
        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    for name in dir(verify):
        if name.startswith("check_"):
            setattr(verify, name, _timed(getattr(verify, name), tracer))
    _emit(f"BENCH-IMPORT {_import_s!r}")
    cli.main(args=argv, prog_name="token-spectra")


if __name__ == "__main__":
    main(sys.argv[1:])
