"""The package's lazy public names, the CLI's lazily bound functions, and
the README's library quick start."""

import doctest
import importlib
import pathlib
import runpy

import pytest

import specht
import specht.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
BOUNDARIES = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["BOUNDARIES"]


def test_every_public_name_is_its_home_modules_object():
    for name in specht.__all__:
        home = importlib.import_module(f"specht.{specht._HOME[name]}")
        assert getattr(specht, name) is getattr(home, name), name
        # The CLI resolves library names through the same table.
        assert getattr(specht.cli, name) is getattr(home, name), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from specht import *", namespace)
    assert set(specht.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(specht, name) for name in specht.__all__)
    assert set(specht.__all__) <= set(dir(specht))


def test_each_public_name_is_listed_once():
    names = [name for names in specht._EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == len(specht.__all__)


@pytest.mark.parametrize("module", [specht, specht.cli])
def test_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(module, "nope")


# A call that reaches each specht.cli function the tracer wraps.
_TRACED_CALLS = {
    "run_verification": ["verify", "--mu", "[1]", "--p", "5", "--n-min", "6", "--n-max", "6"],
    "irreducible_dimension_table": ["dim-table", "[2]"],
    "rim_hook_chain": ["a-set", "[5,2]", "2"],
    "specht_dimension_polynomial": ["dim-poly", "[2]"],
    "prime_parameter_sequence": ["prime-seq", "1,0,1", "3"],
}


def test_a_patched_cli_attribute_is_what_main_calls(monkeypatch):
    traced = {attr for module, attr, _ in BOUNDARIES if module == "specht.cli"}
    assert traced - {"main"} == set(_TRACED_CALLS)
    for attr, argv in _TRACED_CALLS.items():
        original = getattr(specht.cli, attr)
        calls = []

        def recorder(*args, original=original, calls=calls, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(specht.cli, attr, recorder)
        assert specht.cli.main(argv) == 0, argv
        assert len(calls) == 1, attr


def test_readme_quick_start_runs_as_a_doctest():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.failed == 0 and result.attempted == len(test.examples) > 0, "".join(report)
