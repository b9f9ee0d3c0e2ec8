"""Every cache in the package must have a fixed size.

Pool workers live for a whole scan, so an unbounded `lru_cache` grows
with the scan instead of with one field.  Each cache names an integer
`maxsize`; `functools.cache`, a bare `@lru_cache` and `maxsize=None`
are refused.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import iwascan
from iwascan import greenberg, pell
from iwascan.arith import kronecker


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unbounded(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if _name(node.value) == "functools":
                yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (d for d in node.decorator_list if _name(d) == "lru_cache")
        elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            size = (node.args[:1] or size or [None])[0]
            if not (isinstance(size, ast.Constant) and type(size.value) is int
                    and size.value > 0):
                yield node


def test_package_caches_are_bounded():
    found = []
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in _unbounded(tree)]
    assert not found, f"unbounded caches in the package: {found}"


def test_the_check_refuses_each_unbounded_form():
    for src in ("from functools import cache",
                "import functools\n@functools.cache\ndef f(x): pass",
                "@lru_cache\ndef f(x): pass",
                "@lru_cache()\ndef f(x): pass",
                "@lru_cache(maxsize=None)\ndef f(x): pass",
                "@functools.lru_cache(None)\ndef f(x): pass"):
        assert list(_unbounded(ast.parse(src))), src
    assert not list(_unbounded(ast.parse("@lru_cache(maxsize=256)\ndef f(x): pass")))


def test_every_cache_in_the_loaded_package_has_a_fixed_size():
    # the same rule on the live functions, including the class-number tables
    sizes = {}
    for info in pkgutil.iter_modules(iwascan.__path__):
        module = importlib.import_module(f"iwascan.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                sizes[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {"qforms._sieve", "pell.fundamental_unit", "pell._principal_cycle"} <= set(sizes)
    assert all(type(size) is int and size > 0 for size in sizes.values()), sizes


def test_the_cycle_cache_holds_a_scan_block():
    """A scan block's `class_numbers` walks the principal cycle of each of its D,
    at most `_CHUNK` of them, and its fields then look their ideals up on those
    cycles: a cache that held fewer would re-walk them silently."""
    assert pell._principal_cycle.cache_info().maxsize > greenberg._CHUNK
    lo = 10**6
    Ds = {m if m % 4 == 1 else 4 * m for m in range(lo, lo + greenberg._CHUNK)
          if greenberg._real_field(m) and kronecker(m, 3) == 1}
    pell.fundamental_unit.cache_clear()
    pell._principal_cycle.cache_clear()
    greenberg._scan_block(((3,), lo, lo + greenberg._CHUNK - 1, 1))
    assert pell._principal_cycle.cache_info().misses == len(Ds) > 0
    pell._principal_cycle.cache_clear()
