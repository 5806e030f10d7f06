"""Gram oracle calls timed end to end and layer by layer, written to JSON.

    python bench/gram_layers.py --src NAME=CHECKOUT [--src ...] \
        [--repeat K] [--out BENCH_gram.json]

Each CALLS entry is one ``gram_ranks_mod_p`` call, the path users take, in
a fresh interpreter importing a checkout's ``src``.  numpy and ``specht.gram``
load before any clock starts.  Timers on three ``specht.gram`` attributes
split the call into tableaux (``_standard_tableaux``), assembly
(``_gram_matrix_cached`` less its tableaux) and elimination (the outermost
``_ranks``), and a counter on ``_blocked_rank`` gives the kernel calls,
leftover blocks included.  Each figure is the median of K runs, the
checkouts taking turns, in reverse order every other round, so that drift
in the machine's speed falls on all of them alike.  The output, written whole, records the
machine and each checkout's commit and whether its src/ differs from it.
Exits non-zero, naming the call, if two runs disagree on d or a rank.
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

# (shape, primes, size cap), one gram_ranks_mod_p call each:
# - five shapes, one prime at a time.  (11,2,1), d = 560, is the largest
#   matrix of the oracle_grid benchmark; [2,2,1^6] has d = 35 and pairs
#   3 920 of its 2.8e6 incidence entries.  8388617 is the least prime past
#   the float64 bound, so it eliminates in int64;
# - the grid's primes on its largest shape, two larger ones, and the
#   equal-row shapes (3^4) and (4^3);
# - (14,2,1,1), d = 7 020, at |mu| = 4, and the tall (3,3,1^6);
# - the long row (599,1), whose tableaux memo holds every (k) and (k-1,1);
# - oracle_grid shapes of d <= 110 at its primes, where fixed costs weigh
#   most against the matrix work;
# - the rational sweep's kernel: shapes of d = 14, 35 and 90 at 8388593,
#   the prime gram_rank_rational ranks at first;
# - oracle_grid shapes of d = 120-320 at its primes, ranked by column panels
#   of _narrow_rank: (9,2,1), d = 320, is past _NARROW, but the grid's
#   modulus 385 keeps the panel kernel's product in float32 at any size;
# - (10,2,1,1), d = 2079, on the panel kernel at 5,7,11 and at 13, and on
#   the blocked kernel at 5,7,11,13, past the float32 bound; (12,2,1,1),
#   d = 4004, at 5,7,11.
CALLS = (
    *(
        (lam, (p,), 16)
        for lam in ((11, 3), (11, 2, 1), (10, 2, 2), (10, 3, 1), (2, 2, 1, 1, 1, 1, 1, 1))
        for p in (3, 5, 7, 11, 8388617)
    ),
    *(
        (lam, (5, 7, 11), 16)
        for lam in ((11, 2, 1), (10, 2, 2), (10, 3, 1), (3, 3, 3, 3), (4, 4, 4))
    ),
    ((14, 2, 1, 1), (5, 7, 11, 13), 18),
    ((3, 3, 1, 1, 1, 1, 1, 1), (7, 11, 13), 16),
    ((599, 1), (5,), 600),
    *(
        (lam, (5, 7, 11), 16)
        for lam in ((7, 1), (10, 1), (4, 2, 1), (6, 3), (8, 3), (9, 2))
    ),
    *((lam, (8388593,), 16) for lam in ((4, 3), (3, 2, 1, 1), (4, 2, 1, 1))),
    *(
        (lam, (5, 7, 11), 16)
        for lam in ((8, 1, 1, 1), (7, 2, 1), (9, 1, 1, 1), (10, 3), (8, 2, 1), (11, 3), (9, 2, 1))
    ),
    *(((10, 2, 1, 1), primes, 16) for primes in ((5, 7, 11), (13,), (5, 7, 11, 13))),
    ((12, 2, 1, 1), (5, 7, 11), 16),
)


def _measure(lam: tuple[int, ...], primes: tuple[int, ...], size_cap: int) -> dict:
    """In the child: one gram_ranks_mod_p call, timed and split by layer."""
    import resource

    import numpy  # noqa: F401  loaded before any clock starts

    from specht import gram

    times: dict[str, float] = {}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            # _ranks calls itself on leftover blocks; the outermost call
            # ends last, so its time is the one kept.
            times[name] = time.perf_counter() - start
            return result

        return wrapper

    for name in ("_standard_tableaux", "_gram_matrix_cached", "_ranks"):
        setattr(gram, name, timed(name, getattr(gram, name)))
    kernel_calls = 0
    blocked_rank = gram._blocked_rank

    def counted(*args):
        nonlocal kernel_calls
        kernel_calls += 1
        return blocked_rank(*args)

    gram._blocked_rank = counted
    start = time.perf_counter()
    ranks = gram.gram_ranks_mod_p(lam, primes, size_cap)
    wall = time.perf_counter() - start
    return {
        "d": len(gram._TABLEAUX[lam]),
        "rank": ranks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": wall,
        "tableaux_s": times["_standard_tableaux"],
        "assembly_s": times["_gram_matrix_cached"] - times["_standard_tableaux"],
        "elimination_s": times["_ranks"],
        # _blocked_rank calls, the leftover blocks' included
        "kernel_calls": kernel_calls,
    }


def _spec(values: tuple[int, ...]) -> str:
    return ",".join(map(str, values))


def _child(checkout: str, call: tuple) -> dict:
    """Run one CALLS entry in a fresh interpreter importing ``checkout``."""
    lam, primes, size_cap = call
    proc = subprocess.run(
        [sys.executable, __file__, "--child", _spec(lam), _spec(primes), str(size_cap)],
        env=dict(os.environ, PYTHONPATH=str(Path(checkout, "src"))),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def measure(checkouts: dict[str, str], repeat: int) -> tuple[dict, list[str]]:
    """Per checkout, the median figures of each call; and each call on which
    the runs disagree about d or a rank."""
    calls: dict[str, dict] = {name: {} for name in checkouts}
    problems = []
    for call in CALLS:
        lam, primes, size_cap = call
        key = f"[{_spec(lam)}] mod {_spec(primes)}"
        runs: dict[str, list] = {name: [] for name in checkouts}
        for i in range(repeat):
            for name in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
                runs[name].append(_child(checkouts[name], call))
        answers = {name: [(r["d"], r["rank"]) for r in rs] for name, rs in runs.items()}
        if len({json.dumps(a) for rs in answers.values() for a in rs}) > 1:
            problems.append(f"{key}: d or ranks differ: {answers}")
        for name, rs in runs.items():
            calls[name][key] = {
                "shape": list(lam),
                "primes": list(primes),
                "size_cap": size_cap,
                "d": rs[0]["d"],
                "rank": rs[0]["rank"],
                **{
                    figure: statistics.median(r[figure] for r in rs)
                    for figure in rs[0]
                    if figure not in ("d", "rank")
                },
            }
        print(f"{key} done", file=sys.stderr)
    return calls, problems


def _git(checkout: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip()


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        lam, primes = (tuple(int(x) for x in s.split(",")) for s in sys.argv[2:4])
        print(json.dumps(_measure(lam, primes, int(sys.argv[4]))))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=CHECKOUT")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_gram.json")
    args = parser.parse_args()
    import numpy

    checkouts = dict(item.partition("=")[::2] for item in args.src)
    calls, problems = measure(checkouts, args.repeat)
    report = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        },
        "repeat": args.repeat,
        "runs": {
            name: {
                "commit": _git(checkout, "rev-parse", "HEAD") or None,
                # True when src/ differs from that commit (measured before commit).
                "src_modified": bool(_git(checkout, "status", "--porcelain", "--", "src")),
                "calls": calls[name],
            }
            for name, checkout in checkouts.items()
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if problems:
        sys.exit("\n".join(problems))


if __name__ == "__main__":
    main()
