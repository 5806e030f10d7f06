"""``bench/gram_layers.py`` still measures what ``gram_ranks_mod_p`` computes.

The script is run as the benchmark runs it: one child interpreter per call,
importing this checkout's ``src``.
"""

import importlib.util
import pathlib

import specht.gram as gram_mod
from specht import gram_ranks_mod_p, standard_tableaux

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_a_child_call_reports_the_ranks_and_layers_inside_its_wall_time(monkeypatch):
    spec = importlib.util.spec_from_file_location("gram_layers", ROOT / "bench" / "gram_layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    result = bench._child(str(ROOT), ((4, 2), (5, 7), 16))
    assert result["d"] == len(standard_tableaux((4, 2)))
    assert {int(p): r for p, r in result["rank"].items()} == gram_ranks_mod_p((4, 2), (5, 7))
    layers = [result[key] for key in ("tableaux_s", "assembly_s", "elimination_s")]
    assert min(layers) >= 0 and sum(layers) <= result["wall_s"]
    # kernel_calls counts every _blocked_rank call, the leftover's included.
    calls = []
    blocked_rank = gram_mod._blocked_rank

    def record(*args):
        calls.append(args[1])
        return blocked_rank(*args)

    monkeypatch.setattr(gram_mod, "_blocked_rank", record)
    gram_ranks_mod_p((4, 2), (5, 7))
    assert result["kernel_calls"] == len(calls) >= 1
