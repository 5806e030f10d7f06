"""Every library attribute that ``perfbench/tracing.py`` wraps still exists.

The tracer patches these module attributes at run time, so renaming or
dropping one breaks ``perfbench/run.py --trace 1``.  The tracer's source
(stdlib only) is run with ``runpy``, which installs no wrappers and writes
no bytecode.
"""

import importlib
import pathlib
import runpy

ROOT = pathlib.Path(__file__).resolve().parent.parent
BOUNDARIES = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["BOUNDARIES"]


def test_every_tracer_boundary_resolves():
    missing = [
        (module, attr)
        for module, attr, _layer in BOUNDARIES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert BOUNDARIES and not missing
