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
    assert {"qforms._sieve", "qforms.class_number", "pell.fundamental_unit"} <= set(sizes)
    assert all(type(size) is int and size > 0 for size in sizes.values()), sizes
