"""Cold-start timings of the CLI calls pinned in perfbench/cli_expected.json.

    python bench/cli_calls.py --src NAME=CHECKOUT [--src ...] \
        [--repeat K] [--out BENCH_cli.json]

Each argv in perfbench/cli_expected.json (read, never written) runs as a
fresh ``python -m specht`` process against each checkout (a directory
holding ``src/specht``), K times.  The checkouts take turns call by call,
and the order of the turn alternates from one round to the next, so drift
in the host's speed falls on every checkout alike.  Every call's exit code
and stdout must equal the pinned ones; an entry without pinned output must
give the same exit code and stdout on every checkout.  A mismatch stops the
script before it writes anything.  Per argv and checkout it reports the
median wall time and the median peak RSS of the process; per checkout, the
sum of the medians, and the median and nearest-rank 90th percentile of the
runs of all calls pooled (perfbench pools cli_session's op_p50_ms and
op_tail_ms so, after scaling to a reference speed).  The environment
(PYTHONDONTWRITEBYTECODE, BLAS thread counts) is inherited and recorded.
Uses the stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "cli_expected.json"
ENV_VARS = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_call(checkout: str, argv: list[str]) -> tuple[int, bytes, float, float]:
    """One ``python -m specht ARGV`` process importing ``checkout``; returns
    its exit code, stdout, wall time in ms and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src")))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "specht", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (time.perf_counter() - start) * 1000
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall_ms, usage.ru_maxrss / 1024


def measure(checkouts: dict[str, str], entries: list[dict], repeat: int) -> dict:
    names = list(checkouts)
    runs = {name: [[] for _ in entries] for name in names}
    for name in names:  # warm the file cache; not timed
        run_call(checkouts[name], entries[0]["argv"])
    for k in range(repeat):
        order = names if k % 2 == 0 else names[::-1]
        for i, entry in enumerate(entries):
            for name in order:
                runs[name][i].append(run_call(checkouts[name], entry["argv"]))
    calls = []
    for i, entry in enumerate(entries):
        results = {(code, out) for name in names for code, out, _, _ in runs[name][i]}
        if "stdout" in entry:
            pinned = (entry["exit"], entry["stdout"].encode())
            if results != {pinned}:
                sys.exit(f"output differs from the pinned one: {entry['argv']}")
        elif len(results) != 1:
            sys.exit(f"checkouts disagree: {entry['argv']}")
        (code, _), = results
        calls.append(
            {
                "argv": entry["argv"],
                "exit": code,
                "pinned": "stdout" in entry,
                **{
                    name: {
                        "wall_ms": statistics.median(r[2] for r in runs[name][i]),
                        "peak_rss_mb": statistics.median(r[3] for r in runs[name][i]),
                    }
                    for name in names
                },
            }
        )
    total = {name: sum(call[name]["wall_ms"] for call in calls) for name in names}
    pooled = {}
    for name in names:
        ms = sorted(r[2] for per_call in runs[name] for r in per_call)
        pooled[name] = {
            "runs": len(ms),
            "p50_ms": statistics.median(ms),
            "p90_ms": ms[math.ceil(0.9 * len(ms)) - 1],
        }
    return {"calls": calls, "total_wall_ms": total, "pooled_wall_ms": pooled}


def _git(checkout: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=CHECKOUT")
    parser.add_argument("--repeat", type=int, default=11)
    parser.add_argument("--out", default="BENCH_cli.json")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    checkouts = dict(item.partition("=")[::2] for item in args.src)
    entries = json.loads(EXPECTED.read_text())
    result = measure(checkouts, entries, args.repeat)
    report = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "env": {var: os.environ.get(var) for var in ENV_VARS},
        },
        "repeat": args.repeat,
        "checkouts": {
            name: {
                "commit": _git(checkout, "rev-parse", "HEAD") or None,
                # True when src/ differs from that commit (measured before commit).
                "src_modified": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            }
            for name, checkout in checkouts.items()
        },
        **result,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
