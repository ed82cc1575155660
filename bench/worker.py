"""One benchmark process: make a workload's inputs from a seed, run it, report raw samples.

Usage: python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

run.py starts this script with the BLAS thread count and PYTHONPATH set.
The in-process workloads repeat one fixed round of cells, closed loop on
one thread, for about T seconds: a round starts only if it should end, on
average, by then. cli-sweep repeats a whole ``token-spectra sweep``
command instead. With --trace 1 the rounds go untraced, traced, traced,
untraced and so on, so one run gives both the per-layer metrics and the
tracing overhead. The result is one JSON object on the last line of
stdout. --setup-only stops at the first cell and reports only when it got
there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from math import comb

import numpy as np

from token_spectra import graphs, verify

import gate
import speed
from tracer import Tracer, summarize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

CLI_CHECKS = ["alpha-token", "containment", "pendant-bound", "edge-add-iff", "interlacing"]
CLI_INSTANCES = 240  # five checks at k = 2 each: 1200 rows


# ---------------------------------------------------------------------------
# inputs


def _gnm(rng: random.Random, n: int, m: int) -> tuple[int, tuple]:
    """A connected graph on n vertices with exactly m edges, uniform among them.

    A fixed edge count keeps the cost of a cell nearly independent of the seed.
    """
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if graphs.Graph(n, edges).is_connected():
            return n, edges


def _half(n: int) -> int:
    return comb(n, 2) // 2 + 1


def _cell(check: str, g, expected: dict | None = None, **params) -> dict:
    return {"check": check, "graph": g, "params": params,
            "expected": {"verdict": verify.PASS, **(expected or {})}}


def _containment(g, k: int, mode: str) -> dict:
    n = g[0]
    expected = {"token_vertices": comb(n, k)}
    if mode == "exact":
        expected["quotient_degree"] = comb(n, k) - n
    return _cell("check_spectral_containment", g, expected, k=k, mode=mode)


def _non_edge(rng: random.Random, g) -> dict:
    n, edges = g
    u, v = rng.choice(sorted(set(itertools.combinations(range(n), 2)) - set(edges)))
    return {"u": u, "v": v}


def exact_cells(rng: random.Random) -> list[dict]:
    cells = []
    for n, count in ((4, 12), (5, 16), (6, 16), (7, 16)):
        for _ in range(count):
            g = _gnm(rng, n, _half(n))
            cells += [_containment(g, 2, "exact"), _containment(g, 3, "exact")]
    for n, k in ((8, 3), (8, 4), (9, 4)):  # rungs at N = 56, 70, 126 token vertices
        cells.append(_containment(_gnm(rng, n, _half(n)), k, "exact"))
    return cells


# (n, k, graphs per round) for dense-alpha: N = C(n, k) runs from 105 to 1820
# token vertices in small steps, so that no percentile sits on a jump
# between two rungs far apart in cost; 50 graphs, 100 cells
DENSE_LADDER = (
    (15, 2, 3), (16, 2, 3), (10, 3, 3), (17, 2, 3), (18, 2, 3), (11, 3, 3), (19, 2, 3), (20, 2, 3),
    (10, 4, 3), (12, 3, 3), (10, 5, 3), (13, 3, 3), (11, 4, 3), (14, 3, 3),
    (15, 3, 1), (11, 5, 1), (12, 4, 1), (16, 3, 1), (17, 3, 1), (13, 4, 1), (14, 4, 1), (16, 4, 1),
)


def dense_cells(rng: random.Random) -> list[dict]:
    cells = []
    for n, k, count in DENSE_LADDER:
        for _ in range(count):
            g = _gnm(rng, n, _half(n))
            cells.append(_cell("check_alpha_token_equality", g, k=k))
            cells.append(_containment(g, k, "float"))
    return cells


def small_cells(rng: random.Random) -> list[dict]:
    cells = []
    for check in ("check_interlacing", "check_edge_add_alpha_iff"):
        for i in range(300):
            g = _gnm(rng, 6 + i % 7, _half(6 + i % 7))
            cells.append(_cell(check, g, **_non_edge(rng, g)))
    for i in range(200):
        n = 5 + i % 7
        cells.append(_cell("check_pendant_bound", _gnm(rng, n, _half(n)), k=2 + i % 2))
    for i in range(200):
        h = 2 + i % 4
        head = _gnm(rng, h, _half(h))
        check = "check_kite_alpha_theta_iff" if i % 2 == 0 else "check_symmetrizer_commutation"
        kite = {"root": rng.randrange(h), "s": 2 + (i // 4) % 2, "r": 1 + (i // 8) % 2}
        cells.append(_cell(check, head, kite=kite))
    return cells


CELLS = {"exact-containment": exact_cells, "dense-alpha": dense_cells, "small-checks": small_cells}


def _prepare(cell: dict):
    """Fresh graph objects for one call, so no cached property carries over."""
    g = graphs.Graph(*cell["graph"])
    params = dict(cell["params"])
    kite = params.pop("kite", None)
    if kite is not None:
        return getattr(verify, cell["check"]), (graphs.KiteSpec(head=g, **kite),), params
    if "u" in params:
        return getattr(verify, cell["check"]), (g, params.pop("u"), params.pop("v")), params
    return getattr(verify, cell["check"]), (g,), params


def _fill_oracle(cells: list[dict]) -> int:
    """Complete the expectations that need the independent routes of gate.py.

    Exact cells get their quotient digest. Edge-add-iff cells whose verdict
    the check's tolerance decides accept either verdict; returns their count.
    """
    ties = 0
    for cell in cells:
        n, edges = cell["graph"]
        params = cell["params"]
        if params.get("mode") == "exact":
            base = gate.charpoly_exact(gate.laplacian(n, edges))
            token = gate.charpoly_exact(gate.token_laplacian(n, edges, params["k"]))
            cell["expected"]["quotient_digest"] = gate.digest(gate.divide_exact(token, base))
        elif cell["check"] == "check_edge_add_alpha_iff":
            if gate.edge_add_tie(n, edges, params["u"], params["v"]):
                cell["expected"]["verdict"] = (verify.PASS, verify.FAIL)
                ties += 1
    return ties


def _write_trace(workload: str, seed: int, records) -> None:
    """Write the last traced round as JSON lines under bench/out/.

    In-process workloads write one line per span, whose parent is the line
    number (from 0) of the enclosing span; cli-sweep writes one line per
    cell with that cell's per-layer metrics.
    """
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# in-process rounds


def _another_round(start: float, last: dict, seconds: float) -> bool:
    """Start another round if it should end, on average, by the deadline."""
    return time.perf_counter() - start + last["wall_s"] / 2 < seconds


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_round(cells: list[dict], tracer: Tracer | None, kind: str) -> dict:
    """One pass over the cells; latency, CPU time (all threads) and speed factor of each cell.

    A reference probe runs before a cell when the last one ended at least
    speed.GAP_S[kind] ago, and once after the last cell. Each cell's factor comes
    from the probes nearest to its start (see speed.py).
    """
    seen, latencies, cpu, starts, probes, errors = [], [], [], [], [], []
    probed = float("-inf")
    t0 = time.perf_counter()
    for cell in cells:
        if time.perf_counter() - probed >= speed.GAP_S[kind]:
            probes.append(speed.probe(kind))
            probed = time.perf_counter()
        fn, args, kwargs = _prepare(cell)
        u0 = _cpu(resource.RUSAGE_SELF)
        c0 = time.perf_counter()
        try:
            cert = tracer.cell(fn, *args, **kwargs) if tracer else fn(*args, **kwargs)
        except Exception as exc:  # a cell that raises is counted, and the round goes on
            cert = None
            errors.append(f"{cell['check']} {cell['graph']}: {exc!r}")
        latencies.append((time.perf_counter() - c0) * 1000.0)
        cpu.append(_cpu(resource.RUSAGE_SELF) - u0)
        starts.append(c0)
        seen.append(None if cert is None else gate.observed(cert))
    probes.append(speed.probe(kind))
    return {"wall_s": time.perf_counter() - t0, "cell_ms": latencies, "cell_cpu_s": cpu,
            "cell_factor": [speed.nearest_factor(kind, probes, t) for t in starts],
            "seen": seen, "errors": errors}


def run_in_process(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict:
    cells = CELLS[name](random.Random(seed))
    first_cell = time.perf_counter()
    # the host's speed right after set-up; run.py probes right before the spawn
    setup_probes = speed.burst(speed.SETUP_KIND)
    if setup_only:
        return {"first_cell": first_cell, "setup_probes": setup_probes}
    kind = speed.WORKLOAD_KIND[name]
    tracer = Tracer() if trace else None
    rounds = []
    while len(rounds) < (2 if trace else 1) or _another_round(first_cell, rounds[-1], seconds):
        traced = trace and len(rounds) % 4 in (1, 2)
        if traced:
            start = len(tracer.spans)
            tracer.install()
        try:
            rnd = run_round(cells, tracer if traced else None, kind)
        finally:
            if traced:
                tracer.uninstall()
        rnd["traced"] = traced
        if traced:
            rnd["layers"] = summarize(tracer.spans, start)
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        _write_trace(name, seed, [
            {"cell": cell, "name": span_name, "parent": None if parent is None else parent - start,
             "start": t0, "end": t1, "work": work}
            for cell, span_name, parent, t0, t1, work in tracer.spans[start:]])

    ties = _fill_oracle(cells)
    records, errors = [], []
    for rnd in rounds:
        errors += rnd.pop("errors")
        for seen, cell in zip(rnd.pop("seen"), cells):
            records.append((seen, cell["expected"]))
            bad = gate.mismatches(seen, cell["expected"])
            if bad and seen is not None:
                errors.append(f"{cell['check']} {cell['graph']} {cell['params']}: {bad}")
    return {"first_cell": first_cell, "setup_probes": setup_probes, "rounds": rounds,
            "peak_rss_mb": peak_rss_mb,
            "tolerance_ties": ties * len(rounds), "attempted": len(records),
            "failed": sum(bool(gate.mismatches(s, e)) for s, e in records),
            "self_test": gate.self_test(records), "errors": errors[:5]}


# ---------------------------------------------------------------------------
# cli-sweep


def _parse_stderr(text: str):
    cells, import_s, other = [], None, []
    for line in text.splitlines():
        if line.startswith("BENCH-CELL "):
            cells.append(json.loads(line[len("BENCH-CELL "):]))
        elif line.startswith("BENCH-IMPORT "):
            import_s = float(line.split()[1])
        elif line.strip():
            other.append(line)
    return cells, import_s, other


def _sweep(spec_path: str, csv_path: str, jobs: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_launch.py")]
    cmd += ["--trace"] if traced else []
    cmd += ["sweep", spec_path, "--csv", csv_path, "--jobs", str(jobs)]
    cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_CHILDREN) - cpu0
    cells, import_s, other = _parse_stderr(proc.stderr)
    rows = []
    if os.path.exists(csv_path):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        os.remove(csv_path)
    for c in cells:
        key = json.dumps([c["check"], c["graph"], c["args"], c["kwargs"]], sort_keys=True)
        c["key"] = hashlib.sha1(key.encode()).hexdigest()[:16]
    try:
        summary = json.loads(proc.stdout)
    except ValueError:  # a crash exits 1 as well, with a traceback and no summary
        summary = None
    out = {"wall_s": wall, "cpu_s": cpu, "traced": traced, "returncode": proc.returncode,
           "summary": summary,
           "stderr": other[-5:], "rows": rows, "cells": cells, "import_s": import_s,
           "setup_s": min(c["entered"] for c in cells) - t0 if cells else None,
           # the rows' runtime_ms, at the launcher's full resolution instead of whole ms
           "busy_frac": sum(c["ms"] for c in cells) / (jobs * wall * 1000.0)}
    if traced:
        layers = dict.fromkeys(cells[0]["layers"], 0) if cells else {}
        for c in cells:
            for key, val in c["layers"].items():
                layers[key] = max(layers[key], val) if key.endswith("_max") else layers[key] + val
        out["layers"] = layers
    return out


def _expected(cell: dict, ties: dict) -> dict:
    """Expected verdict of one sweep cell; tolerance ties accept either verdict."""
    if cell["check"] != "check_edge_add_alpha_iff":
        return {"verdict": verify.PASS}
    if cell["key"] not in ties:
        (n, edges), (u, v) = cell["graph"], cell["args"]
        ties[cell["key"]] = gate.edge_add_tie(n, edges, u, v, cell["kwargs"].get("tol", 1e-7))
    return {"verdict": (verify.PASS, verify.FAIL) if ties[cell["key"]] else verify.PASS}


def _sweep_errors(sw: dict, reference: list | None, ties: dict) -> tuple[list, list[str]]:
    """(seen, expected) records of one sweep's cells, and what went wrong with the whole sweep."""
    total = CLI_INSTANCES * len(CLI_CHECKS)
    rows, cells = sw["rows"], sw["cells"]
    msgs = []
    any_fail = any(r["verdict"] == verify.FAIL for r in rows)
    if sw["returncode"] != (1 if any_fail else 0):
        msgs.append(f"exit code {sw['returncode']}: {sw['stderr']}")
    if sw["summary"] is None or sw["summary"].get("total") != total:
        msgs.append(f"summary {sw['summary']}")
    if len(rows) != total or len(cells) != total:
        msgs.append(f"{len(rows)} rows and {len(cells)} timed cells, expected {total}")
    if Counter(r["verdict"] for r in rows) != Counter(c["verdict"] for c in cells):
        msgs.append("row verdicts differ from the certificates' verdicts")
    if reference is not None and _stable(rows) != reference:
        msgs.append("rows differ from the first sweep outside the runtime column")
    if msgs:  # a sweep that went wrong as a whole counts every cell as failed
        return [(None, {"verdict": verify.PASS})] * total, msgs
    return [({"verdict": c["verdict"]}, _expected(c, ties)) for c in cells], msgs


def _sweep_factors(sw: dict) -> None:
    """Speed factors of a sweep and of each of its cells, from the probes run in the sweep.

    The sweep's factor comes from all its probes; a cell's from the probes
    of its own process nearest to its start, as in the in-process rounds.
    A sweep that ran no cell, counted as failed, keeps its times as measured.
    """
    kind = speed.WORKLOAD_KIND["cli-sweep"]
    by_pid: dict[int, list] = {}
    for c in sw["cells"]:
        by_pid.setdefault(c["pid"], []).extend(tuple(p) for p in c["probes"])
    for probes in by_pid.values():
        probes.sort()
    for c in sw["cells"]:
        c["factor"] = speed.nearest_factor(kind, by_pid[c["pid"]], c["t0"])
    durations = [d for probes in by_pid.values() for _, d in probes]
    sw["factor"] = speed.factor(kind, durations) if durations else 1.0


def _stable(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


def run_cli(seed: int, seconds: float, trace: bool, jobs: int) -> dict:
    spec = {"family": {"name": "random_connected", "n": [6, 10], "count": CLI_INSTANCES, "p": 0.5},
            "k_range": [2, 2], "checks": CLI_CHECKS, "seed": seed}
    sweeps, records, errors, reference, ties, last_traced = [], [], [], None, {}, []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        t_start = time.perf_counter()
        # a sweep's factor comes from the probes its processes ran between
        # cells; set-up, before the first cell, from probes between sweeps
        setup_probes = speed.burst(speed.SETUP_KIND)
        while len(sweeps) < (2 if trace else 1) or _another_round(t_start, sweeps[-1], seconds):
            traced = trace and len(sweeps) % 4 in (1, 2)
            sw = _sweep(spec_path, os.path.join(tmp, "rows.csv"), jobs, traced)
            setup_probes += speed.burst(speed.SETUP_KIND)
            _sweep_factors(sw)
            recs, msgs = _sweep_errors(sw, reference, ties)
            reference = reference if reference is not None else _stable(sw["rows"])
            records += recs
            errors += msgs
            if sw["traced"]:
                last_traced = sw["cells"]
            del sw["rows"]
            sw["cells"] = [{"key": c["key"], "ms": c["ms"], "factor": c["factor"]}
                           for c in sw["cells"]]
            sweeps.append(sw)
    for sw in sweeps:
        sw["setup_factor"] = speed.factor(speed.SETUP_KIND, setup_probes)
    if trace:
        _write_trace("cli-sweep", seed, last_traced)
    return {"rounds": sweeps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "tolerance_ties": sum(ties.values()) * len(sweeps), "attempted": len(records),
            "failed": sum(bool(gate.mismatches(s, e)) for s, e in records),
            "self_test": gate.self_test(records), "errors": errors[:5]}


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[*CELLS, "cli-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.workload == "cli-sweep":
        out = run_cli(args.seed, args.seconds, bool(args.trace), args.jobs)
    else:
        out = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.setup_only)
    if not args.setup_only:
        out["machine"] = machine_facts()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
