"""The benchmark's tracer resolves layer functions by name.

`perfbench/spans.py` wraps every `layer.function` in its `TRACED` tuple;
a rename in the package would break `perfbench/run.py --trace 1` without
failing any other test.  The tuple is read from the source, not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {SPANS}")


def test_every_traced_name_resolves_to_a_callable():
    names = traced_names()
    assert len(names) >= 10
    for qual in names:
        layer, func = qual.split(".")
        module = importlib.import_module(f"iwascan.{layer}")
        assert callable(getattr(module, func, None)), qual
