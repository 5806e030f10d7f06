"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a deliberately wrong expected value (and an operation that raises) is counted
as a failed operation rather than crashing the pass, that only the known
defect's present output is filed as that defect, and that the benchmark
refuses to run without the library's source.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "tiny", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def parse(lines):
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return info, result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert code == 0
    info, result = parse(lines)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for key in ("git_sha", "python", "numpy", "nproc", "blas_threads", "seed"):
        assert key in info


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_a_failed_operation(workload, monkeypatch):
    # cli_session's operations are ``python -m specht`` processes.
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    built = workloads.BUILDERS[workload](random.Random(3), tiny=True)
    ops = built.ops
    wrong = next(i for i, op in enumerate(ops) if op.known_defect is None)
    ops[wrong].check = lambda r, _res: r == "a value no operation returns"
    ops[-1].call = lambda: 1 // 0
    results, errors, _lat, _ref = worker._run_ops(ops, built.reference, None)
    failed, _defects = worker._check(ops, results, errors)
    assert len(failed) == 2
    assert failed[0].startswith(ops[wrong].label + ": wrong result")
    assert "ZeroDivisionError" in failed[1]


def test_known_defect_is_reported_not_failed():
    code, lines = bench("--workload", "cli_session", "--seed", "3")
    assert code == 0
    info, result = parse(lines)
    assert result["correct"] is True and result["failed"] == 0
    assert all("dim-table [3,3,3]" in d for d in info["known_defects"])


def test_dim_table_333_check_accepts_only_the_fixed_behaviours():
    rows = "".join(f"  m == {m}: x\n" for m in (6, 7, 8)).encode()
    assert workloads._dim_table_333_ok((2, b""), [])
    assert workloads._dim_table_333_ok((0, b"head\n" + rows + b"  otherwise: y\n"), [])
    assert not workloads._dim_table_333_ok((0, b"head\n  otherwise: y\n"), [])
    assert not workloads._dim_table_333_ok((1, rows), [])


def test_only_the_known_truncation_is_filed_as_the_known_defect():
    (op,) = [
        op
        for op in workloads.cli_session(random.Random(3), tiny=True, run=None).ops
        if op.known_defect
    ]
    truncated = (0, b"dim D[n-9,3,3,3] ...:\n  otherwise: 1/8640*n^9\n")
    for result, failed in [
        (truncated, 0),
        ((1, b"Traceback ...\n"), 1),
        ((0, b"head\n  m == 6: x\n  otherwise: y\n"), 1),
    ]:
        op.call = lambda result=result: result
        got_failed, got_defects = worker._check([op], [op.call()], [None])
        assert (len(got_failed), len(got_defects)) == (failed, 1 - failed)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    code, lines = bench("--workload", WORKLOADS[0], "--seed", "3", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_times_are_calibrated_to_reference_speed():
    # Pass 2 ran on a host twice as slow: its reference took twice as long.
    fast = {"latencies_s": [0.004, 0.001, 0.010], "reference_s": [0.001] * 6}
    slow = {"latencies_s": [0.008, 0.002, 0.020], "reference_s": [0.002] * 6}
    for p in (fast, slow):
        p["reference_nominal_s"] = 0.001
        p["peak_rss_mb"] = 30.0
        p["wall_s"] = sum(p["latencies_s"])
    m = run.end_to_end([0.2, 0.4], [fast, slow])
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["wall_s"] == pytest.approx(0.015)
    assert m["op_p50_ms"] == pytest.approx(4.0)
    assert m["op_tail_ms"] == pytest.approx(10.0)
    assert m["peak_rss_mb"] == 30.0
    assert run.nearest_rank(list(range(1, 101)), 90) == 90
