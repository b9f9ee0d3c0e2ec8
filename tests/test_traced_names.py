"""The benchmark's tracer resolves layer functions by name.

`perfbench/spans.py` wraps every `layer.function` in `TRACED`, and reads and
clears the cache of each in `CACHED`: a rename or a lost cache in the package
breaks `perfbench/run.py --trace 1` and no other test.  Both are read from source.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def spans_tuple(name):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            pairs = [qual.split(".") for qual in ast.literal_eval(node.value)]
            return {f"{layer}.{func}": getattr(importlib.import_module(f"iwascan.{layer}"), func, None)
                    for layer, func in pairs}
    raise AssertionError(f"no {name} tuple in {SPANS}")


def test_every_traced_name_resolves_to_a_callable():
    traced = spans_tuple("TRACED")
    assert len(traced) >= 10
    assert not [qual for qual, fn in traced.items() if not callable(fn)]


def test_every_cached_name_has_a_cache_to_read_and_clear():
    cached = spans_tuple("CACHED")
    assert cached and not [qual for qual, fn in cached.items()
                           if not (hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"))]
