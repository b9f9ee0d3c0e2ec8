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
from iwascan import arith, greenberg, pell, quadint, sunits


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
    assert set(sizes) == {"arith.divisors", "pell.fundamental_unit", "qforms._sieve",
                          "quadint._least_root", "quadint.hensel_sqrt", "stats._inverses",
                          "sunits.build_context"}
    assert all(type(size) is int and size > 0 for size in sizes.values()), sizes


def test_a_scan_block_walks_and_factors_each_field_once_and_reads_no_field_cache(monkeypatch):
    """A cold 100-m block walks each admissible D's half cycle once, factors each m at
    most once, leaves the caches of `fundamental_unit` and `build_context` alone, and
    builds no `QuadElem`: its units and generators stay plain ints."""
    lo, hi = 10**6, 10**6 + greenberg._CHUNK - 1
    halves, factored, elems = [], [], []
    walk, factorize, init = pell._ideal_walk, arith.factorize, quadint.QuadElem.__post_init__
    monkeypatch.setattr(pell, "_ideal_walk", lambda A, B, D, half=False:
                        (half and halves.append(D)) or walk(A, B, D, half))
    monkeypatch.setattr(arith, "factorize", lambda n: factored.append(n) or factorize(n))
    monkeypatch.setattr(quadint.QuadElem, "__post_init__", lambda x: elems.append(x) or init(x))
    caches = (pell.fundamental_unit, sunits.build_context)
    before = [cache.cache_info() for cache in caches]
    rows = greenberg._scan_block(((3,), lo, hi, 1))
    assert sorted(halves) == sorted(r.m if r.m % 4 == 1 else 4 * r.m for r in rows) and rows
    assert max(map(factored.count, range(lo, hi + 1))) == 1
    assert [cache.cache_info() for cache in caches] == before
    assert not elems, len(elems)


def test_a_cold_scan_block_finds_each_root_mod_p_once(monkeypatch):
    """Tonelli-Shanks, with its (m/p), runs once per residue class (m mod p, p) of a cold
    block, not once per row: `quadint._least_root` caches s0 by that class, at most
    sum (p-1)/2 = 133 classes for p = 3..43."""
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    quadint._least_root.cache_clear()
    calls = []
    tonelli = quadint.sqrt_mod_prime
    monkeypatch.setattr(quadint, "sqrt_mod_prime", lambda a, p: calls.append((a, p)) or tonelli(a, p))
    rows = greenberg._scan_block((primes, 10**4, 10**4 + greenberg._CHUNK - 1, 1))
    classes = {(r.m % r.p, r.p) for r in rows}
    assert sorted(calls) == sorted(classes)  # each class once
    assert quadint._least_root.cache_info().misses == len(classes) <= 133 < len(rows)
