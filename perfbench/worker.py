"""One pass of one workload, in a fresh interpreter.

Started by run.py.  Imports the library, builds the workload's inputs and
prints ``ready``; run.py times the interval from process start to that
line as set-up.  Then runs every operation back to back (one caller, closed
loop), checks the results and prints one JSON line.  With --trace-out the
library's layer boundaries record spans, which are written to --trace-out.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TRACE_MARKER, Tracer

HERE = Path(__file__).resolve().parent


def _import_library() -> float:
    start = time.perf_counter()
    import specht  # noqa: F401
    import specht.cli  # noqa: F401

    return time.perf_counter() - start


class TracedCli:
    """Runs each CLI call in cli_child.py and keeps what the child traced."""

    def __init__(self) -> None:
        self.children: list[dict] = []

    def __call__(self, argv) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            check=False,
        )
        for line in proc.stderr.decode().splitlines():
            if line.startswith(TRACE_MARKER):
                child = json.loads(line[len(TRACE_MARKER) :])
                self.children.append({"argv": list(argv), **child})
                break
        else:
            raise RuntimeError(f"traced CLI child for {argv} sent no trace")
        return proc.returncode, proc.stdout


def _run_ops(ops, reference, tracer) -> tuple[list, list, list, list]:
    """Returns each operation's result, error and latency, and the times of
    the reference work run after every operation."""
    results, errors, latencies, reference_s = [], [], [], []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                tracer.op = i
                result = tracer.span("op." + op.kind, op.call)
            error = None
        except Exception as exc:  # one failed operation must not end the pass
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        for _ in range(reference.repeats):
            t0 = time.perf_counter()
            reference.work()
            reference_s.append(time.perf_counter() - t0)
        results.append(result)
        errors.append(error)
    return results, errors, latencies, reference_s


def _check(ops, results, errors) -> tuple[list[str], list[str]]:
    """Labels of failed operations, and of known defects still present."""
    failed, defects = [], []
    for op, result, error in zip(ops, results, errors):
        if error is not None:
            failed.append(f"{op.label}: {error}")
            continue
        defect = op.known_defect
        try:
            ok = op.check(result, results)
            known = not ok and defect is not None and defect.shows(result)
        except Exception as exc:  # a check that raises is a failed check
            ok = known = False
            error = f"check raised {type(exc).__name__}: {exc}"
        if known:
            defects.append(f"{op.label}: {defect.reason}")
        elif not ok:
            failed.append(f"{op.label}: {error or 'wrong result'}")
    return failed, defects


def _trace_summary(tracer, cli: TracedCli | None, import_s: float, out: Path) -> dict:
    layers = tracer.self_times()
    counts = dict(tracer.counts)
    imports = [import_s]
    children = cli.children if cli else []
    for child in children:
        imports.append(child["import_s"])
        for name, seconds in child["self"].items():
            layers[name] = layers.get(name, 0.0) + seconds
        for name, value in child["counts"].items():
            counts[name] += value
    out.write_text(
        json.dumps(
            {
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
                "cli_children": [
                    {"argv": c["argv"], "spans": c["spans"]} for c in children
                ],
            }
        )
    )
    return {
        "self_s": layers,
        "counts": counts,
        "import_s_median": statistics.median(imports),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    import_s = _import_library()
    start = time.perf_counter()
    import numpy
    import workloads

    rng = random.Random(args.seed)
    tiny = args.size == "tiny"
    cli = TracedCli() if args.trace_out and args.workload == "cli_session" else None
    extra = {"run": cli} if cli else {}
    workload = workloads.BUILDERS[args.workload](rng, tiny, **extra)
    inputs_s = time.perf_counter() - start
    print("ready", flush=True)

    tracer = Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    try:
        results, errors, latencies, reference_s = _run_ops(
            workload.ops, workload.reference, tracer
        )
    finally:
        if tracer:
            tracer.uninstall()
    failed, defects = _check(workload.ops, results, errors)
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    out = {
        "import_s": import_s,
        "inputs_s": inputs_s,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "reference_s": reference_s,
        "reference_nominal_s": workload.reference.nominal_s,
        "attempted": len(workload.ops),
        "failed": failed,
        "known_defects": defects,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        out["trace"] = _trace_summary(tracer, cli, import_s, args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
