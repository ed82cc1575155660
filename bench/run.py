"""token-spectra benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

    exact-containment  exact char-poly containment, n = 4..7 plus rungs N = 56, 70, 126
    dense-alpha        alpha-token and float containment on an (n, k) ladder, N = 105..1820
    small-checks       1000 small float checks: interlacing, edge-add-iff, pendant, kites
    cli-sweep          ``token-spectra sweep`` subprocess, 1200 rows, --jobs = nproc

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the script exits 2 and prints no result. The
workload itself runs in child processes (bench/worker.py) whose BLAS
thread count is set here, so that jobs x BLAS threads <= nproc.

With --trace 0 the last line of stdout carries the end-to-end metrics,
with --trace 1 the per-layer metrics and the tracing overhead. The lines
before it give the machine facts, sample counts, error_frac and the
end-to-end metrics as measured. The result line gives every timing at
reference speed, corrected for the host's speed by a reference probe
timed next to it (bench/speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One BLAS thread everywhere; cli-sweep runs nproc pool workers. With two
# threads on a 2-vCPU VM, dense-alpha's small eigensolves waited on the
# other vCPU: its cell_ms_p50 rose 68% in a busy spell against 25% with one
# thread. Elsewhere the matrices are too small for threads to pay, and
# idle BLAS threads spin. Set before numpy is imported here, for the
# reference probes of this process too.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, BENCH_DIR)
import speed  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 9

WORKLOADS = ("exact-containment", "dense-alpha", "small-checks", "cli-sweep")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {**LAYER_METRICS, "cli.import_s": "s", "cli.pool_busy_frac": "ratio",
             "trace.wall_s": "s", "trace.overhead_s": "s"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run worker.py; returns its spawn time and its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_sample(args: list[str], env: dict, timeout: float) -> tuple[float, float, dict]:
    """(measured set-up time, speed factor, worker result) of one worker process.

    The factor comes from a probe burst here right before the spawn and
    one in the worker right after its first cell is ready.
    """
    before = speed.burst(speed.SETUP_KIND)
    spawned, result = _worker(args, env, timeout)
    factor = speed.factor(speed.SETUP_KIND, before + result["setup_probes"])
    return result["first_cell"] - spawned, factor, result


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _cell_samples(rounds: list[dict], cli: bool, normalize: bool) -> list[list[float]]:
    """Latency samples (ms) of each distinct cell, one per round."""
    if not cli:
        return [list(samples) for samples in zip(*(
            [ms * f for ms, f in zip(r["cell_ms"], r["cell_factor"])] if normalize
            else r["cell_ms"] for r in rounds))]
    samples: dict[str, list[float]] = {}
    for r in rounds:
        for c in r["cells"]:
            samples.setdefault(c["key"], []).append(c["ms"] * (c["factor"] if normalize else 1.0))
    return list(samples.values())


def _cell_ms(rounds: list[dict], cli: bool, normalize: bool = True) -> list[float]:
    """Each distinct cell's median latency over the rounds."""
    return [statistics.median(s) for s in _cell_samples(rounds, cli, normalize)]


def _wall(rounds: list[dict], cli: bool, normalize: bool = True) -> float:
    """Time to produce every certificate of one round.

    In-process cells run one after another, so this is the sum of each
    cell's median latency; a sweep's cells run in parallel, so it is the
    median wall time of the command.
    """
    if cli:
        return statistics.median(r["wall_s"] * (r["factor"] if normalize else 1.0)
                                 for r in rounds)
    return sum(_cell_ms(rounds, cli, normalize)) / 1000.0


def end_to_end(result: dict, setups: list[tuple[float, float]], cli: bool,
               normalize: bool = True) -> dict:
    """End-to-end metrics from the untraced rounds, at reference speed unless normalize is off.

    Every timing is multiplied by the speed factor of the reference probes
    taken next to it (see speed.py), then aggregated by medians: over
    rounds for each cell, over sweeps, and over set-up samples.
    """
    rounds = [r for r in result["rounds"] if not r["traced"]]
    cells = _cell_ms(rounds, cli, normalize)
    if cli:
        cpu = statistics.median(r["cpu_s"] * (r["factor"] if normalize else 1.0) for r in rounds)
    else:
        cpu = sum(statistics.median(cpu_s * (f if normalize else 1.0) for cpu_s, f in samples)
                  for samples in zip(*(zip(r["cell_cpu_s"], r["cell_factor"]) for r in rounds)))
    return {
        "setup_s": statistics.median(s * (f if normalize else 1.0) for s, f in setups),
        "wall_s": _wall(rounds, cli, normalize),
        "cell_ms_p50": _pct(cells, 50),
        "cell_ms_p90": _pct(cells, 90),
        "cpu_s": cpu,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, cli: bool) -> dict:
    plain = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    # median_low keeps counts whole; they repeat exactly from round to round anyway
    out = {key: statistics.median_low(r["layers"][key] for r in traced) for key in LAYER_METRICS}
    out["cli.import_s"] = statistics.median(r["import_s"] for r in result["rounds"]) if cli else 0
    out["cli.pool_busy_frac"] = statistics.median(r["busy_frac"] for r in plain) if cli else 0
    # the traced rounds' own median, comparable with the per-layer times above
    out["trace.wall_s"] = statistics.median(
        r["wall_s"] if cli else sum(r["cell_ms"]) / 1000.0 for r in traced)
    # at reference speed, so that a change of host speed between rounds does not show
    out["trace.overhead_s"] = _wall(traced, cli) - _wall(plain, cli)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "token_spectra", "__init__.py")):
        print(f"no token_spectra package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)

    nproc = len(os.sched_getaffinity(0))
    env = _env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    main_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "cli-sweep":
        # jobs x BLAS threads <= nproc; every sweep times its own setup, up to its first cell
        _, result = _worker([*main_args, "--jobs", str(max(1, nproc // BLAS_THREADS))], env, 170)
        setups = [(r["setup_s"], r["setup_factor"]) for r in result["rounds"] if not r["traced"]]
    else:
        measured, factor, result = _setup_sample(main_args, env, 140)
        setups = [(measured, factor)]
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            measured, factor, _ = _setup_sample([*common, "--seconds", "0", "--setup-only"],
                                                env, 10)
            setups.append((measured, factor))

    cli = args.workload == "cli-sweep"
    metrics = per_layer(result, cli) if args.trace else end_to_end(result, setups, cli)
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = result["attempted"], result["failed"]
    rounds = result["rounds"]
    print("machine: " + json.dumps(result["machine"]))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"rounds={len(rounds)} traced_rounds={sum(r['traced'] for r in rounds)} "
          f"cells_per_round={len(rounds[0]['cells' if cli else 'cell_ms'])} "
          f"setup_samples={len(setups)} blas_threads={BLAS_THREADS}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value!r} {units[name]}")
    if not args.trace:
        factors = (
            [r["factor"] for r in rounds] if cli else
            [f for r in rounds for f in r["cell_factor"]])
        print(f"  speed factor (reference / probe): median {statistics.median(factors):.3f}, "
              f"min {min(factors):.3f}, max {max(factors):.3f}; as measured:")
        for name, value in end_to_end(result, setups, cli, normalize=False).items():
            print(f"    {name:<42} {value!r} {units[name]}")
    print(f"  {'error_frac':<44} {failed / attempted!r} ratio ({failed} of {attempted} cells)")
    print(f"  {'tolerance_ties':<44} {result['tolerance_ties']} "
          "cells (edge-add-iff, either verdict accepted)")
    print(f"  {'gate_self_test':<44} {'caught' if result['self_test'] else 'MISSED'}")
    for err in result["errors"]:
        print(f"  error: {err}")
    print(json.dumps({
        "correct": failed == 0 and result["self_test"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
