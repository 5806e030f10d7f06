"""Benchmark of the specht library and CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  Every
pass of a workload runs in a fresh interpreter (worker.py), one after
another, so library caches start cold as they do for a CLI user.

--trace 0: whole passes, one after another, until the next one would
overrun --seconds (at least one).  Prints the end-to-end metrics: medians
over the passes, in seconds at a fixed reference speed (see calibrated).
--trace 1: one untraced and one traced pass; prints the per-layer metrics.
Before the result line comes one ``info`` line (machine, versions, sample
counts, known defects).  The last line is the result: {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("oracle_grid", "cli_session")
TAIL_PERCENTILE = 90
# Calibration (see calibrated): how many operations on each side of one
# share their reference times with it.
REFERENCE_WINDOW = 2
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_TIMES = (
    "gram.tableaux",
    "gram.polytabloid",
    "gram.assembly",
    "gram.elimination",
    "gram.rational_rank",
    "verify.formula",
    "verify.oracle",
    "decomposition.table",
    "decomposition.formula",
    "decomposition.chain",
    "dimensions.polynomial",
    "cli.main",
    "parameters.sequence",
    "primes.factor",
)
PER_LAYER_COUNTS = {
    name: "bytes_computed" if name == "gram.workspace_bytes" else "count"
    for name in tracing.COUNTS
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a failed operation)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list[str]) -> tuple[float, float, dict]:
    """Start worker.py, wait for it; returns (set-up seconds, total seconds,
    its JSON result).  Set-up runs from process start to its ``ready`` line."""
    start = time.perf_counter()
    deadline = start + WORKER_TIMEOUT_S
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        bufsize=0,
    )
    fd = proc.stdout.fileno()
    out, setup = b"", None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"worker {args} ran past {WORKER_TIMEOUT_S} s")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup is None and b"\n" in out:
                setup = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    total = time.perf_counter() - start
    lines = out.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return setup, total, json.loads(lines[-1])


def nearest_rank(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def calibrated(p: dict) -> tuple[float, list[float]]:
    """A pass's set-up scale and its latencies, in seconds at reference speed.

    On a shared 2-vCPU VM the host's speed swung by up to 40 % within
    minutes while the work stayed the same, so raw times spread between
    runs by more than any bound allows.  The worker times the workload's
    reference work (workloads.Reference) after every operation.  Each
    latency is scaled by the reference's nominal time over the median of
    the reference times taken after the operations within REFERENCE_WINDOW
    of it; set-up is scaled by the pass's median reference time."""
    ref, lat, nominal = p["reference_s"], p["latencies_s"], p["reference_nominal_s"]
    k = len(ref) // len(lat)
    out = []
    for i, x in enumerate(lat):
        lo, hi = max(0, i - REFERENCE_WINDOW), min(len(lat), i + REFERENCE_WINDOW + 1)
        out.append(x * nominal / statistics.median(ref[lo * k : hi * k]))
    return nominal / statistics.median(ref), out


def end_to_end(setups: list[float], passes: list[dict]) -> dict:
    """Medians over the run's passes; latency percentiles pool every
    operation of every pass.  All times are calibrated (see calibrated)."""
    scales, lats = zip(*(calibrated(p) for p in passes))
    pooled_ms = [1000 * x for lat in lats for x in lat]
    return {
        "setup_s": statistics.median(s * c for s, c in zip(setups, scales)),
        "wall_s": statistics.median(sum(lat) for lat in lats),
        "op_p50_ms": statistics.median(pooled_ms),
        "op_tail_ms": nearest_rank(pooled_ms, TAIL_PERCENTILE),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def raw_medians(setups: list[float], passes: list[dict]) -> dict:
    """The same times uncalibrated, for the info line."""
    pooled_ms = [1000 * x for p in passes for x in p["latencies_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(pooled_ms),
        "reference_ms": 1000 * statistics.median(x for p in passes for x in p["reference_s"]),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    trace = traced["trace"]
    out = {f"{layer}_s": trace["self_s"].get(layer, 0.0) for layer in PER_LAYER_TIMES}
    out.update({name: trace["counts"][name] for name in PER_LAYER_COUNTS})
    out["cli.import_s"] = trace["import_s_median"]
    traced_s, untraced_s = (sum(calibrated(p)[1]) for p in (traced, untraced))
    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    return out


def units() -> dict:
    out = dict(END_TO_END)
    out.update({f"{layer}_s": "s" for layer in PER_LAYER_TIMES})
    out.update(PER_LAYER_COUNTS)
    out["cli.import_s"] = "s"
    out["trace.overhead_frac"] = "ratio"
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke test"
    )
    args = ap.parse_args(argv)
    if not (SRC / "specht" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/specht", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    run_start = time.perf_counter()
    try:
        setups, passes, durations = [], [], []
        traced = None
        if args.trace:
            passes.append(run_worker(common)[2])
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            traced = run_worker([*common, "--trace-out", str(trace_file)])[2]
        else:
            while True:
                setup, total, result = run_worker(common)
                setups.append(setup)
                passes.append(result)
                durations.append(total)
                next_end = time.perf_counter() + max(durations)
                if next_end > run_start + args.seconds:
                    break
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = passes + ([traced] if traced else [])
    n_ops = passes[0]["attempted"]
    failed = [label for p in every for label in p["failed"]]
    defects = sorted({label for p in every for label in p["known_defects"]})
    metrics = per_layer(passes[0], traced) if traced else end_to_end(setups, passes)
    unit = units()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "ops_per_pass": n_ops,
        "latency_samples": sum(len(p["latencies_s"]) for p in passes),
        "setup_samples": len(setups),
        "tail_percentile": TAIL_PERCENTILE,
        "uncalibrated": None if traced else raw_medians(setups, passes),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "failed_ops": failed,
        "known_defects": defects,
    }
    if traced:
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        # The tracer's own counting, kept out of every layer's self time.
        info["trace_count_s"] = traced["trace"]["self_s"].get("trace.count", 0.0)
    print(json.dumps({"info": info}))
    result = {
        "correct": not failed,
        "attempted": sum(p["attempted"] for p in every),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
