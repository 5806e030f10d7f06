"""Per-layer timings of the Gram oracle on named shapes, written to JSON.

    python bench/gram_layers.py --src NAME=CHECKOUT [--src ...] \
        [--repeat K] [--out BENCH_gram.json]

For each checkout (a directory holding ``src/specht``) and each shape, a
fresh interpreter imports numpy, then times three layers through the module
attributes of ``specht.gram``: ``_standard_tableaux`` (tableaux),
``_gram_matrix_cached`` (polytabloids or incidence matrix, then assembly)
and ``modular_rank`` on the assembled matrix (elimination, per prime).  On
the JOINT_SHAPES it then ranks the assembled matrix at the grid's primes
5, 7, 11 twice: one ``modular_rank`` call per prime, and one
``modular_ranks`` call for all three where the checkout has it (the
``joint`` row).  A second fresh interpreter
per (shape, prime) times ``gram_rank_mod_p`` end to end, which is the path
users take, and reports its peak RSS.  A third, per JOINT_CALLS entry, times
one ``gram_ranks_mod_p`` call (assembly and elimination; numpy imported
before the clock) and reports its peak RSS: the grid's shapes,
(14,2,1,1), d = 7 020, at |mu| = 4, and the tall (3,3,1^6) at 7, 11, 13.
Each figure is the median of K runs, the checkouts taking turns run by run.
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
# [2,2,1^6] has d = 35 and 2.8e6 incidence entries; assembly pairs the
# 3 920 of them that leave its six rows of length 1 increasing.
SHAPES = ((11, 3), (11, 2, 1), (10, 2, 2), (10, 3, 1), (2, 2, 1, 1, 1, 1, 1, 1))
# 8388617 is the least prime past the float64 bound: it eliminates in int64.
PRIMES = (3, 5, 7, 11, 8388617)
# The primes of the criterion-3 grid, and its largest shape with two larger ones.
JOINT_PRIMES = (5, 7, 11)
JOINT_SHAPES = ((11, 2, 1), (10, 2, 2), (10, 3, 1))
# One gram_ranks_mod_p call each, in a fresh interpreter: (shape, primes, size cap).
JOINT_CALLS = tuple((lam, JOINT_PRIMES, 16) for lam in JOINT_SHAPES) + (
    ((14, 2, 1, 1), (5, 7, 11, 13), 18),
    ((3, 3, 1, 1, 1, 1, 1, 1), (7, 11, 13), 16),
)


def _layers(lam: tuple[int, ...]) -> dict:
    import numpy  # noqa: F401  before the clock: assembly_s leaves the import out

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
    out = {
        "d": len(tableaux),
        "tableaux_s": t1 - t0,
        "assembly_s": t2 - t1,
        "elimination_s": elimination,
        "rank": ranks,
    }
    if lam in JOINT_SHAPES:
        start = time.perf_counter()
        per_prime = {p: gram.modular_rank(matrix, p) for p in JOINT_PRIMES}
        middle = time.perf_counter()
        one_call = getattr(gram, "modular_ranks", None)
        joint = one_call(matrix, JOINT_PRIMES) if one_call else per_prime
        out["joint"] = {
            "per_prime_s": middle - start,
            "one_call_s": time.perf_counter() - middle if one_call else None,
            "rank": joint,
        }
    return out


def _end_to_end(lam: tuple[int, ...], p: int) -> dict:
    import resource

    from specht import gram_rank_mod_p

    start = time.perf_counter()
    rank = gram_rank_mod_p(lam, p)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "rank": rank, "peak_rss_mb": peak}


def _joint_call(lam: tuple[int, ...], primes: tuple[int, ...], size_cap: int) -> dict:
    import resource

    import numpy  # noqa: F401  before the clock, as in _layers

    from specht import gram

    start = time.perf_counter()
    ranks = gram.gram_ranks_mod_p(lam, primes, size_cap)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    d = len(gram.standard_tableaux(lam, size_cap))
    return {"d": d, "wall_s": wall, "rank": ranks, "peak_rss_mb": peak}


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


def _interleaved(checkouts: dict[str, str], argv: list[str], repeat: int) -> dict:
    """K runs of one measurement per checkout, the checkouts taking turns
    (in reverse order every other round), so that drift in the machine's
    speed falls on all of them alike."""
    runs: dict[str, list] = {name: [] for name in checkouts}
    for i in range(repeat):
        for name in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
            runs[name].append(_child(checkouts[name], argv))
    return runs


def measure(checkouts: dict[str, str], repeat: int) -> tuple[dict, dict]:
    """Per checkout: the per-shape layer and end-to-end figures, and the
    JOINT_CALLS figures."""
    shapes: dict[str, dict] = {name: {} for name in checkouts}
    # JSON turns the prime keys into strings.
    primes = [str(p) for p in PRIMES]
    for lam in SHAPES:
        spec = ",".join(map(str, lam))
        layers = _interleaved(checkouts, ["layers", spec], repeat)
        e2e = {p: _interleaved(checkouts, ["e2e", spec, str(p)], repeat) for p in PRIMES}
        for name, layer_runs in layers.items():
            entry = {
                "d": layer_runs[0]["d"],
                "tableaux_s": _median(layer_runs, "tableaux_s"),
                "assembly_s": _median(layer_runs, "assembly_s"),
                "elimination_s": {p: _median(layer_runs, "elimination_s", p) for p in primes},
                "rank": layer_runs[0]["rank"],
                "gram_rank_mod_p": {},
            }
            if "joint" in layer_runs[0]:
                one_call = layer_runs[0]["joint"]["one_call_s"] is not None
                entry["joint"] = {
                    "primes": list(JOINT_PRIMES),
                    "per_prime_s": _median(layer_runs, "joint", "per_prime_s"),
                    "one_call_s": _median(layer_runs, "joint", "one_call_s") if one_call else None,
                    "rank": layer_runs[0]["joint"]["rank"],
                }
            for p in PRIMES:
                runs = e2e[p][name]
                entry["gram_rank_mod_p"][str(p)] = {
                    "wall_s": _median(runs, "wall_s"),
                    "peak_rss_mb": _median(runs, "peak_rss_mb"),
                    "rank": runs[0]["rank"],
                }
            shapes[name]["[" + spec + "]"] = entry
        print(f"{lam} done", file=sys.stderr)
    calls: dict[str, dict] = {name: {} for name in checkouts}
    for lam, primes, size_cap in JOINT_CALLS:
        spec = ",".join(map(str, lam))
        argv = ["joint", spec, ",".join(map(str, primes)), str(size_cap)]
        for name, runs in _interleaved(checkouts, argv, repeat).items():
            calls[name]["[" + spec + "]"] = {
                "d": runs[0]["d"],
                "primes": list(primes),
                "size_cap": size_cap,
                "wall_s": _median(runs, "wall_s"),
                "peak_rss_mb": _median(runs, "peak_rss_mb"),
                "rank": runs[0]["rank"],
            }
        print(f"{lam} joint call done", file=sys.stderr)
    return shapes, calls


def _git(checkout: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip()


def disagreements(runs: dict) -> list[str]:
    """Each shape and prime on which the runs give more than one d or rank
    (layer, joint and end-to-end ranks alike)."""
    out = []
    for spec in next(iter(runs.values()))["shapes"]:
        shapes = {name: run["shapes"][spec] for name, run in runs.items()}
        ds = {name: s["d"] for name, s in shapes.items()}
        if len(set(ds.values())) > 1:
            out.append(f"{spec}: d differs: {ds}")
        for p in map(str, PRIMES):
            ranks = {
                name: {
                    s["rank"][p],
                    s["gram_rank_mod_p"][p]["rank"],
                    s.get("joint", {}).get("rank", {}).get(p),
                }
                - {None}
                for name, s in shapes.items()
            }
            if len(set().union(*ranks.values())) > 1:
                out.append(f"{spec} mod {p}: ranks differ: {ranks}")
    for spec in next(iter(runs.values()))["joint_calls"]:
        calls = {name: run["joint_calls"][spec] for name, run in runs.items()}
        for key in ("d", "rank"):
            values = {name: call[key] for name, call in calls.items()}
            if len({json.dumps(v, sort_keys=True) for v in values.values()}) > 1:
                out.append(f"{spec} joint call: {key} differs: {values}")
    return out


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        kind, spec = sys.argv[2], sys.argv[3]
        lam = tuple(int(x) for x in spec.split(","))
        if kind == "layers":
            result = _layers(lam)
        elif kind == "joint":
            primes = tuple(int(p) for p in sys.argv[4].split(","))
            result = _joint_call(lam, primes, int(sys.argv[5]))
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
    report["inputs"] = {
        "shapes": [list(lam) for lam in SHAPES],
        "primes": list(PRIMES),
        "joint_shapes": [list(lam) for lam in JOINT_SHAPES],
        "joint_primes": list(JOINT_PRIMES),
        "joint_calls": [
            {"shape": list(lam), "primes": list(primes), "size_cap": cap}
            for lam, primes, cap in JOINT_CALLS
        ],
    }
    runs = report.setdefault("runs", {})
    checkouts = dict(item.partition("=")[::2] for item in args.src)
    shapes, calls = measure(checkouts, args.repeat)
    measured = {}
    for name, checkout in checkouts.items():
        runs[name] = measured[name] = {
            "commit": _git(checkout, "rev-parse", "HEAD") or None,
            # True when src/ differs from that commit (measured before commit).
            "src_modified": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "repeat": args.repeat,
            "shapes": shapes[name],
            "joint_calls": calls[name],
        }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    problems = disagreements(measured)
    if problems:
        sys.exit("\n".join(problems))


if __name__ == "__main__":
    main()
