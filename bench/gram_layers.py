"""Per-layer timings of the Gram oracle on named shapes, written to JSON.

    python bench/gram_layers.py --src NAME=CHECKOUT [--src ...] \
        [--repeat K] [--out BENCH_gram.json]

For each checkout (a directory holding ``src/specht``) and each shape, a
fresh interpreter times three layers through the module attributes of
``specht.gram``: ``_standard_tableaux`` (tableaux), ``_gram_matrix_cached``
(polytabloids or incidence matrix, then assembly) and ``modular_rank`` on
the assembled matrix (elimination, per prime).  A second fresh interpreter
per (shape, prime) times ``gram_rank_mod_p`` end to end, which is the path
users take, and reports its peak RSS.  Each figure is the median of K runs.
Results are merged into the output file under NAME, next to the machine
description, the checkout's git commit and whether its src/ differs from
that commit.  Exits non-zero, naming the shape and prime, if the checkouts
measured disagree on d or on any rank.  Uses the stdlib and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (11,2,1), d = 560, is the largest matrix of the oracle_grid benchmark.
# [2,2,1^6] has d = 35 but 2.8e6 incidence entries, paired in four batches
# of tabloid classes, a path the oracle_grid benchmark never takes.
SHAPES = ((11, 3), (11, 2, 1), (10, 2, 2), (10, 3, 1), (2, 2, 1, 1, 1, 1, 1, 1))
# 8388617 is the least prime past the float64 bound: it eliminates in int64.
PRIMES = (3, 5, 7, 11, 8388617)


def _layers(lam: tuple[int, ...]) -> dict:
    from specht import gram

    t0 = time.perf_counter()
    tableaux = gram._standard_tableaux(lam)
    t1 = time.perf_counter()
    matrix = gram._gram_matrix_cached(lam)
    t2 = time.perf_counter()
    elimination, ranks = {}, {}
    for p in PRIMES:
        start = time.perf_counter()
        ranks[p] = gram.modular_rank(matrix, p)
        elimination[p] = time.perf_counter() - start
    return {
        "d": len(tableaux),
        "tableaux_s": t1 - t0,
        "assembly_s": t2 - t1,
        "elimination_s": elimination,
        "rank": ranks,
    }


def _end_to_end(lam: tuple[int, ...], p: int) -> dict:
    import resource

    from specht import gram_rank_mod_p

    start = time.perf_counter()
    rank = gram_rank_mod_p(lam, p)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "rank": rank, "peak_rss_mb": peak}


def _child(checkout: str, argv: list[str]) -> dict:
    """Run one measurement in a fresh interpreter importing ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src")))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _median(runs: list, *path) -> float:
    values = []
    for run in runs:
        for key in path:
            run = run[key]
        values.append(run)
    return statistics.median(values)


def measure(checkout: str, repeat: int) -> dict:
    shapes = {}
    for lam in SHAPES:
        spec = ",".join(map(str, lam))
        layer_runs = [_child(checkout, ["layers", spec]) for _ in range(repeat)]
        # JSON turns the prime keys into strings.
        primes = [str(p) for p in PRIMES]
        entry = {
            "d": layer_runs[0]["d"],
            "tableaux_s": _median(layer_runs, "tableaux_s"),
            "assembly_s": _median(layer_runs, "assembly_s"),
            "elimination_s": {p: _median(layer_runs, "elimination_s", p) for p in primes},
            "rank": layer_runs[0]["rank"],
            "gram_rank_mod_p": {},
        }
        for p in PRIMES:
            runs = [_child(checkout, ["e2e", spec, str(p)]) for _ in range(repeat)]
            entry["gram_rank_mod_p"][str(p)] = {
                "wall_s": _median(runs, "wall_s"),
                "peak_rss_mb": _median(runs, "peak_rss_mb"),
                "rank": runs[0]["rank"],
            }
        shapes["[" + spec + "]"] = entry
        print(f"{checkout}: {lam} done", file=sys.stderr)
    return shapes


def _git(checkout: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip()


def disagreements(runs: dict) -> list[str]:
    """Each shape and prime on which the runs give more than one d or rank
    (layer ranks and end-to-end ranks alike)."""
    out = []
    for spec in next(iter(runs.values()))["shapes"]:
        shapes = {name: run["shapes"][spec] for name, run in runs.items()}
        ds = {name: s["d"] for name, s in shapes.items()}
        if len(set(ds.values())) > 1:
            out.append(f"{spec}: d differs: {ds}")
        for p in map(str, PRIMES):
            ranks = {
                name: {s["rank"][p], s["gram_rank_mod_p"][p]["rank"]}
                for name, s in shapes.items()
            }
            if len(set().union(*ranks.values())) > 1:
                out.append(f"{spec} mod {p}: ranks differ: {ranks}")
    return out


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        kind, spec = sys.argv[2], sys.argv[3]
        lam = tuple(int(x) for x in spec.split(","))
        if kind == "layers":
            result = _layers(lam)
        else:
            result = _end_to_end(lam, int(sys.argv[4]))
        print(json.dumps(result))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=CHECKOUT")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_gram.json")
    args = parser.parse_args()
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    import numpy

    report["machine"] = {
        "platform": platform.platform(),
        "processor": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
    report["inputs"] = {"shapes": [list(lam) for lam in SHAPES], "primes": list(PRIMES)}
    runs = report.setdefault("runs", {})
    measured = {}
    for item in args.src:
        name, _, checkout = item.partition("=")
        runs[name] = measured[name] = {
            "commit": _git(checkout, "rev-parse", "HEAD") or None,
            # True when src/ differs from that commit (measured before commit).
            "src_modified": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "repeat": args.repeat,
            "shapes": measure(checkout, args.repeat),
        }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    problems = disagreements(measured)
    if problems:
        sys.exit("\n".join(problems))


if __name__ == "__main__":
    main()
