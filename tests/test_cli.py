"""The command-line surface: text formats, JSON schemas, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from specht import GrothendieckVector, format_gram_dump, format_partition
from specht.cli import main


def run_cli(*args):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, buf.getvalue(), err.getvalue()


def _child_env():
    """The environment with the source tree of the imported package first on
    PYTHONPATH, so that a child interpreter imports the same package."""
    src = pathlib.Path(sys.modules["specht"].__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_json(*args):
    code, out, _ = run_cli(*args, "--json")
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------------------
# text output


def test_dim_specht_text():
    code, out, _ = run_cli("dim-specht", "[5,2]")
    assert code == 0
    assert out == "dim S[5,2] = 14\n"


def test_dim_specht_of_a_long_first_row_is_immediate():
    start = time.perf_counter()
    code, out, _ = run_cli("dim-specht", "[1000000]")
    assert (code, out) == (0, "dim S[1000000] = 1\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv,want",
    [
        (("a-set", "[999998,2]", "2"), "A([999998,2], m=2):\n  [999999,1]\n  [999998,2]\n"),
        (("decompose-irr", "[999998,2]", "2"), "D[999998,2] = S[999998,2] - S[999999,1]\n"),
        (
            ("decompose-std", "[999998,2]", "2", "3"),
            "S[999998,2] = D[999998,2] + D[999999,1]\n",
        ),
    ],
    ids=["a-set", "decompose-irr", "decompose-std"],
)
def test_chains_of_a_long_first_row_are_immediate(argv, want):
    start = time.perf_counter()
    code, out, _ = run_cli(*argv)
    assert (code, out) == (0, want)
    assert time.perf_counter() - start < 1


def test_dim_poly_text():
    code, out, _ = run_cli("dim-poly", "[2]")
    assert code == 0
    assert out == "dim S[n-2,2] = 1/2*n^2 - 3/2*n  (valid for n >= 4)\n"


def test_a_set_text():
    code, out, _ = run_cli("a-set", "[5,2]", "2")
    assert code == 0
    assert out == "A([5,2], m=2):\n  [6,1]\n  [5,2]\n"


def test_decompose_irr_text():
    code, out, _ = run_cli("decompose-irr", "[5,2]", "2")
    assert code == 0
    assert out == "D[5,2] = S[5,2] - S[6,1]\n"


def test_decompose_std_text():
    code, out, _ = run_cli("decompose-std", "[5,2]", "2", "2")
    assert code == 0
    assert out == "S[5,2] = D[5,2] + D[6,1]\n"


def test_dim_table_text():
    code, out, _ = run_cli("dim-table", "[2]")
    assert code == 0
    assert out.splitlines() == [
        "dim D[n-2,2] for n == m (mod p), n large:",
        "  m == 1: 1/2*n^2 - 3/2*n - 1",
        "  m == 2: 1/2*n^2 - 5/2*n + 1",
        "  otherwise: 1/2*n^2 - 3/2*n",
    ]


def test_gram_rank_text():
    code, out, _ = run_cli("gram-rank", "[2,1]", "3")
    assert code == 0
    assert out == "gram rank of [2,1] mod 3 = 1\n"


def test_prime_seq_text():
    code, out, _ = run_cli("prime-seq", "1,0,1", "3")
    assert code == 0
    assert out == "(2, 5)\n(4, 17)\n(6, 37)\n"


def test_verify_text_passes():
    code, out, _ = run_cli(
        "verify", "--mu", "[]", "--mu", "[1]", "--p", "5", "--n-min", "6", "--n-max", "9"
    )
    assert code == 0
    assert "verdict: PASS" in out


# ---------------------------------------------------------------------------
# JSON output


def test_dim_specht_json():
    assert run_json("dim-specht", "[5,2]") == {"partition": [5, 2], "dimension": 14}


def test_dim_poly_json():
    obj = run_json("dim-poly", "[2]")
    assert obj == {
        "tail": [2],
        "threshold": 4,
        "degree": 2,
        "coefficients": ["0", "-3/2", "1/2"],
        "text": "1/2*n^2 - 3/2*n",
    }


def test_a_set_json():
    obj = run_json("a-set", "[5,2]", "2")
    assert obj == {"base": [5, 2], "m": 2, "elements": [[6, 1], [5, 2]]}


def test_decompose_json_round_trips():
    obj = run_json("decompose-irr", "[5,2]", "2")
    vec = GrothendieckVector.from_json_obj(obj)
    assert str(vec) == "S[5,2] - S[6,1]"
    obj = run_json("decompose-std", "[5,2]", "2", "2")
    assert str(GrothendieckVector.from_json_obj(obj)) == "D[5,2] + D[6,1]"


def test_dim_table_json():
    obj = run_json("dim-table", "[2]")
    assert obj["tail"] == [2]
    assert [case["residue"] for case in obj["cases"]] == [1, 2]
    assert obj["cases"][1]["text"] == "1/2*n^2 - 5/2*n + 1"
    assert obj["default"]["text"] == "1/2*n^2 - 3/2*n"


def test_gram_rank_json():
    assert run_json("gram-rank", "[2,1]", "3") == {
        "partition": [2, 1],
        "p": 3,
        "rank": 1,
    }


def test_prime_seq_json():
    obj = run_json("prime-seq", "1,0,1", "2")
    assert obj == {"coefficients": [1, 0, 1], "pairs": [{"t": 2, "p": 5}, {"t": 4, "p": 17}]}


def test_verify_json():
    obj = run_json("verify", "--mu", "[]", "--p", "5", "--n-min", "6", "--n-max", "7")
    assert set(obj) == {"grid", "summary"}
    assert obj["summary"]["records"] == 2
    assert all(rec["match"] for rec in obj["grid"])


# ---------------------------------------------------------------------------
# exit codes


def test_invalid_partition_is_exit_2():
    code, _, err = run_cli("dim-specht", "[2,3]")
    assert code == 2
    assert err != ""


def test_invalid_residue_is_exit_2():
    code, _, err = run_cli("a-set", "[5,2]", "9")
    assert code == 2


def test_composite_modulus_is_exit_2():
    code, _, err = run_cli("gram-rank", "[2,1]", "6")
    assert code == 2
    assert "prime" in err.lower()


@pytest.mark.parametrize("p", ["4", "0"])
def test_verify_with_a_nonprime_is_exit_2(p):
    code, out, err = run_cli("verify", "--p", "5", "--p", p, "--n-max", "8")
    assert (code, out, err) == (2, "", f"error: {p} is not prime\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--mu", "[5]", "--p", "4", "--n-min", "3", "--n-max", "4"], "4 is not prime"),
        (["--mu", "[5]", "--p", "1", "--n-min", "3", "--n-max", "4"], "1 is not prime"),
        (["--mu", "[5]", "--p", "0", "--n-min", "3", "--n-max", "4"], "0 is not prime"),
        (["--mu", "3", "--p", "0", "--n-min", "2", "--n-max", "8"], "0 is not prime"),
        (
            ["--mu", "[5]", "--p", "2147483659", "--n-min", "3", "--n-max", "4"],
            "p=2147483659 too large for the elimination kernel",
        ),
    ],
)
def test_verify_checks_every_prime_before_the_grid(argv, err):
    # The first cells' shapes do not pad, so no oracle call checks p there.
    assert run_cli("verify", *argv) == (2, "", f"error: {err}\n")


def test_size_cap_is_exit_3():
    code, _, err = run_cli("gram-rank", "[9,8]", "5")
    assert code == 3
    assert err == "error: |[9,8]| = 17 exceeds the size cap 16\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_size_cap_below_one_is_a_usage_error(cap):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(["gram-rank", "[3]", "2", "--size-cap", cap])
    assert exc.value.code == 2
    assert f"--size-cap: must be at least 1, got {cap}" in err.getvalue()


def _fail_self_check(*args):
    raise RuntimeError("self-check failed")


def test_failed_self_check_is_exit_3(monkeypatch):
    monkeypatch.setattr("specht.primes._pollard_rho", _fail_self_check)
    # 65537 * 65539: no prime factor below 2**16, so factoring needs rho.
    result = run_cli("prime-seq", "4295229442,1", "1")
    assert result == (3, "", "error: self-check failed\n")


def test_search_limit_is_exit_3():
    code, _, err = run_cli("prime-seq", "--p-min", "3", "--search-limit", "5", "--", "-3,1", "3")
    assert code == 3


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_search_limit_below_one_is_exit_2(limit):
    code, out, err = run_cli("prime-seq", "1,0,1", "5", "--search-limit", limit)
    assert (code, out, err) == (2, "", "error: search limit must be positive\n")


def test_gram_rank_honors_size_cap_flag():
    # (16,1) has 17 boxes (beyond the default cap) but dimension only 16
    code, out, _ = run_cli("gram-rank", "[16,1]", "5", "--size-cap", "17")
    assert code == 0
    assert out == "gram rank of [16,1] mod 5 = 16\n"


def test_size_cap_env_sets_the_default(monkeypatch):
    monkeypatch.setenv("SPECHT_SIZE_CAP", "17")
    code, out, _ = run_cli("gram-rank", "[16,1]", "5")
    assert code == 0
    assert out == "gram rank of [16,1] mod 5 = 16\n"


@pytest.mark.parametrize("argv", [("gram-rank", "[2]", "5"), ("verify", "--n-max", "3")])
def test_bad_size_cap_env_is_a_usage_error(monkeypatch, argv):
    monkeypatch.setenv("SPECHT_SIZE_CAP", "abc")
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main(list(argv))
    assert exc.value.code == 2
    assert "--size-cap: invalid int value: 'abc'" in err.getvalue()


def test_bad_size_cap_env_leaves_other_commands_alone(monkeypatch):
    monkeypatch.setenv("SPECHT_SIZE_CAP", "abc")
    assert run_cli("dim-specht", "[2]") == (0, "dim S[2] = 1\n", "")


# ---------------------------------------------------------------------------
# residue tables


def test_dim_table_prints_every_degenerate_row():
    code, out, _ = run_cli("dim-table", "[3,3,3]")
    assert code == 0
    labels = [line.split(":")[0] for line in out.splitlines()[1:]]
    assert labels == ["  m == 6", "  m == 7", "  m == 8", "  otherwise"]


def test_max_residue_option_is_rejected():
    proc = subprocess.run(
        [sys.executable, "-m", "specht", "dim-table", "[3,3,3]", "--max-residue", "1"],
        capture_output=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"unrecognized arguments: --max-residue 1" in proc.stderr
    assert b"Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# dump file and determinism


def test_gram_rank_dump(tmp_path):
    target = tmp_path / "gram.txt"
    code, out, _ = run_cli("gram-rank", "[2,1]", "3", "--dump", str(target))
    assert code == 0
    assert target.read_text().splitlines() == ["2 3", "2 1", "1 2"]


@pytest.mark.parametrize("lam", [(5, 2), (4, 2, 1)], ids=format_partition)
@pytest.mark.parametrize("p", [2, 5, 7])
def test_gram_rank_dump_is_format_gram_dump(tmp_path, lam, p):
    target = tmp_path / "gram.txt"
    code, _, _ = run_cli("gram-rank", format_partition(lam), str(p), "--dump", str(target))
    assert code == 0
    assert target.read_bytes() == format_gram_dump(lam, p).encode("ascii")


def test_unwritable_dump_is_exit_2(tmp_path):
    target = tmp_path / "missing" / "gram.txt"
    code, out, err = run_cli("gram-rank", "[5,2]", "5", "--dump", str(target))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_cli_output_is_byte_deterministic():
    args = [
        sys.executable,
        "-m",
        "specht",
        "verify",
        "--mu",
        "[1]",
        "--p",
        "5",
        "--n-min",
        "6",
        "--n-max",
        "8",
        "--json",
    ]
    env = _child_env()
    first = subprocess.run(args, capture_output=True, env=env, check=True)
    second = subprocess.run(args, capture_output=True, env=env, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip() != b""


# ---------------------------------------------------------------------------
# numpy is loaded by the Gram oracle only

# The modules a bare interpreter holds are taken before the probe imports
# anything, so every module the call loads shows, json included.
_IMPORT_PROBE = """
import sys
bare = set(sys.modules)
import io
import specht.cli
code = None
if sys.argv[1:]:
    sys.stdout = sys.stderr = io.StringIO()
    code = specht.cli.main(sys.argv[1:])
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(code, *sorted(set(sys.modules) - bare))
"""

_NO_ORACLE = ("gram", "verify")
_DIMENSIONS_ONLY = ("gram", "verify", "decomposition", "parameters")
# argv, exit code, library modules it must not load.
_FORMULA_CALLS = [
    ([], None, _DIMENSIONS_ONLY),  # the import alone
    (["dim-specht", "[7,4,2]"], 0, _DIMENSIONS_ONLY),
    (["dim-poly", "[3,1]", "--json"], 0, _DIMENSIONS_ONLY),
    (["dim-table", "[2,2,1]"], 0, _NO_ORACLE),
    (["a-set", "[6,2,1]", "4"], 0, _NO_ORACLE),
    (["decompose-irr", "[7,2,1]", "5"], 0, _NO_ORACLE),
    (["decompose-std", "[6,2,1]", "4", "3"], 0, _NO_ORACLE),
    (["prime-seq", "1,0,1", "20"], 0, ("gram", "verify", "decomposition", "dimensions")),
    (["dim-specht", "[2,x]"], 2, _DIMENSIONS_ONLY),
    (["gram-rank", "[20]", "5"], 3, ("verify",)),  # over the size cap
    (["gram-rank", "[2,1]", "6"], 2, ("verify",)),  # composite modulus
    (["gram-rank", "[2,1]", "2147483659"], 2, ("verify",)),  # a prime past the kernel's limit
]


def _probe_imports(argv):
    """Exit code and the modules one CLI call in a fresh interpreter adds to
    a bare one's (tier-1 itself has every module loaded already)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        check=True,
    )
    code, *modules = proc.stdout.split()
    return None if code == "None" else int(code), set(modules)


def test_numpy_is_loaded_only_by_gram_work():
    """And a formula call loads none of the oracle's modules, nor dataclasses
    or inspect, and json only under --json."""
    for argv, code, unused in _FORMULA_CALLS:
        got, modules = _probe_imports(argv)
        loaded = {name for name in unused if f"specht.{name}" in modules}
        loaded |= modules & {"numpy", "dataclasses", "inspect"}
        assert (got, loaded, "json" in modules) == (code, set(), "--json" in argv), argv
    code, modules = _probe_imports(["gram-rank", "[2,1]", "3"])
    assert (code, "numpy" in modules, "specht.verify" in modules) == (0, True, False)


_BLAS_PROBE = """
import io, os, sys
import specht.cli
sys.stdout = io.StringIO()
code = specht.cli.main(["gram-rank", "[2,1]", "3"])
sys.stdout = sys.__stdout__
print(code, "numpy" in sys.modules, *(os.environ.get(v) for v in sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "3"}]
)
def test_cli_pins_one_blas_thread_unless_set(preset):
    names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
    env = {k: v for k, v in _child_env().items() if k not in names}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, *names],
        capture_output=True,
        text=True,
        env={**env, **preset},
        check=True,
    )
    want = ["0", "True"] + [preset.get(name, "1") for name in names]
    assert proc.stdout.split() == want


# ---------------------------------------------------------------------------
# one write to stdout per call

_VERIFY_TEXT = (
    "mu         p   n   m  formula  oracle  match  regime\n"
    "[]         5   6   1        1       1  yes    in+hyp\n"
    "[]         5   7   2        1       1  yes    in+hyp\n"
    "\nrecords: 2\nin_regime: 2\nout_of_regime: 0\nmatches: 2\nmismatches: 0\n"
    "conjecture_mismatches: 0\nerrors: 0\nverdict: PASS\n"
)
_VERIFY_RECORD = (
    '"p": 5, "n": {}, "m": {}, "k": 0, "hypothesis": true, "in_regime": true, '
    '"formula_dim": 1, "oracle_dim": 1, "match": true, "error": null}}'
)
_VERIFY_JSON = (
    '{"grid": [{"mu": [], ' + _VERIFY_RECORD.format(6, 1) + ", "
    '{"mu": [], ' + _VERIFY_RECORD.format(7, 2) + '], "summary": {"records": 2, '
    '"in_regime": 2, "out_of_regime": 0, "matches": 2, "mismatches": 0, '
    '"conjecture_mismatches": 0, "errors": 0}}\n'
)
_FAILED_VERIFY = ("verify", "--mu", "[4]", "--p", "5", "--n-min", "17", "--n-max", "17")
# argv, exit code, stdout: every subcommand in text and in JSON, then the
# calls perfbench/cli_expected.json pins.
_ONE_WRITE_CALLS = [
    (("dim-specht", "[5,2]"), 0, "dim S[5,2] = 14\n"),
    (("dim-specht", "[5,2]", "--json"), 0, '{"partition": [5, 2], "dimension": 14}\n'),
    (("dim-poly", "[2]"), 0, "dim S[n-2,2] = 1/2*n^2 - 3/2*n  (valid for n >= 4)\n"),
    (
        ("dim-poly", "[2]", "--json"),
        0,
        '{"tail": [2], "threshold": 4, "degree": 2, "coefficients": ["0", "-3/2", "1/2"], '
        '"text": "1/2*n^2 - 3/2*n"}\n',
    ),
    (("a-set", "[5,2]", "2"), 0, "A([5,2], m=2):\n  [6,1]\n  [5,2]\n"),
    (
        ("a-set", "[5,2]", "2", "--json"),
        0,
        '{"base": [5, 2], "m": 2, "elements": [[6, 1], [5, 2]]}\n',
    ),
    (("decompose-irr", "[5,2]", "2"), 0, "D[5,2] = S[5,2] - S[6,1]\n"),
    (
        ("decompose-irr", "[5,2]", "2", "--json"),
        0,
        '[{"label": "S", "partition": [5, 2], "coeff": 1}, '
        '{"label": "S", "partition": [6, 1], "coeff": -1}]\n',
    ),
    (("decompose-std", "[5,2]", "2", "2"), 0, "S[5,2] = D[5,2] + D[6,1]\n"),
    (
        ("decompose-std", "[5,2]", "2", "2", "--json"),
        0,
        '[{"label": "D", "partition": [5, 2], "coeff": 1}, '
        '{"label": "D", "partition": [6, 1], "coeff": 1}]\n',
    ),
    (
        ("dim-table", "[2]"),
        0,
        "dim D[n-2,2] for n == m (mod p), n large:\n  m == 1: 1/2*n^2 - 3/2*n - 1\n"
        "  m == 2: 1/2*n^2 - 5/2*n + 1\n  otherwise: 1/2*n^2 - 3/2*n\n",
    ),
    (
        ("dim-table", "[2]", "--json"),
        0,
        '{"tail": [2], "cases": [{"residue": 1, "degree": 2, "coefficients": '
        '["-1", "-3/2", "1/2"], "text": "1/2*n^2 - 3/2*n - 1"}, {"residue": 2, '
        '"degree": 2, "coefficients": ["1", "-5/2", "1/2"], "text": "1/2*n^2 - 5/2*n + 1"}], '
        '"default": {"degree": 2, "coefficients": ["0", "-3/2", "1/2"], '
        '"text": "1/2*n^2 - 3/2*n"}}\n',
    ),
    (("gram-rank", "[2,1]", "3"), 0, "gram rank of [2,1] mod 3 = 1\n"),
    (("gram-rank", "[2,1]", "3", "--json"), 0, '{"partition": [2, 1], "p": 3, "rank": 1}\n'),
    (("verify", "--mu", "[]", "--p", "5", "--n-min", "6", "--n-max", "7"), 0, _VERIFY_TEXT),
    (
        ("verify", "--mu", "[]", "--p", "5", "--n-min", "6", "--n-max", "7", "--json"),
        0,
        _VERIFY_JSON,
    ),
    (("prime-seq", "1,0,1", "3"), 0, "(2, 5)\n(4, 17)\n(6, 37)\n"),
    (
        ("prime-seq", "1,0,1", "3", "--json"),
        0,
        '{"coefficients": [1, 0, 1], "pairs": [{"t": 2, "p": 5}, {"t": 4, "p": 17}, '
        '{"t": 6, "p": 37}]}\n',
    ),
    (
        _FAILED_VERIFY,  # an in-window oracle error fails the run: exit 1
        1,
        "mu         p   n   m  formula  oracle  match  regime\n"
        "[4]        5   17  2     1700       -  error  in+hyp\n"
        "    error: oracle: |[13,4]| = 17 exceeds the size cap 16\n"
        "\nrecords: 1\nin_regime: 1\nout_of_regime: 0\nmatches: 0\nmismatches: 0\n"
        "conjecture_mismatches: 1\nerrors: 1\nverdict: FAIL\n",
    ),
] + [
    (tuple(call["argv"]), call["exit"], call["stdout"])
    for call in json.loads(
        (pathlib.Path(__file__).parent.parent / "perfbench" / "cli_expected.json").read_text()
    )
    if "exit" in call
]


class _WriteRecorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize(
    "argv, code, out", _ONE_WRITE_CALLS, ids=[" ".join(c[0]) for c in _ONE_WRITE_CALLS]
)
def test_each_call_writes_stdout_once(monkeypatch, argv, code, out):
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(list(argv)) == code
    # An exit-2 or exit-3 call writes nothing; any other call, one string.
    assert recorder.writes == ([out] if out else [])
