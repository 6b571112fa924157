"""The benchmark tracer's hooks still name functions of the package.

perfbench/traced.py swaps the names in its WRAPPED table for timing
wrappers.  A renamed or inlined function would make `--trace 1` fail or
record nothing, so every entry must resolve to the function it names.
"""

import importlib.util
from pathlib import Path

import qbaker.cli
import qbaker.histories

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _wrapped_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.WRAPPED


def test_every_traced_hook_resolves():
    modules = {"cli": qbaker.cli, "histories": qbaker.histories}
    wrapped = _wrapped_table()
    assert wrapped
    for span, targets in wrapped.items():
        layer, name = span.split(".")
        assert targets
        for module, attr in targets:
            fn = getattr(modules[module], attr, None)
            assert callable(fn), f"{span}: qbaker.{module}.{attr} is gone"
            # the span is named after the layer that defines the function
            assert (fn.__module__, fn.__name__) == (f"qbaker.{layer}", name), span
