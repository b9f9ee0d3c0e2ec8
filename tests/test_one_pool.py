"""Only `greenberg` builds process pools; only `stats` builds a thread pool.

Both scans hand fixed work items to `greenberg.map_blocks`, so the
worker-count check, the pool size and the in-order hand-out live in one
place.  No other module of the package may name `ProcessPoolExecutor`.
`ThreadPoolExecutor` may be named only in `stats`, for the one helper
thread of `random_elem_density` that bins each chunk of draws while the
next is drawn; so `map_blocks` stays the package's only worker pool.
"""

import ast
from pathlib import Path

import iwascan


def _pool_names(tree, pool):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (node for alias in node.names if alias.name.split(".")[-1] == pool)
        elif isinstance(node, ast.Name) and node.id == pool:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == pool:
            yield node


def _places_naming(pool):
    found = []
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in _pool_names(tree, pool)]
    return found


def test_only_greenberg_names_a_process_pool():
    found = _places_naming("ProcessPoolExecutor")
    assert found and all(f.startswith("greenberg.py:") for f in found), found


def test_only_stats_names_a_thread_pool():
    found = _places_naming("ThreadPoolExecutor")
    assert found and all(f.startswith("stats.py:") for f in found), found


def test_the_check_catches_a_second_pool_user():
    for pool in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
        for src in (f"from concurrent.futures import {pool}",
                    f"from concurrent.futures import {pool} as Pool",
                    f"import concurrent.futures as cf\ncf.{pool}(2)",
                    "import concurrent.futures\n"
                    f"with concurrent.futures.{pool}() as pool: pass"):
            assert list(_pool_names(ast.parse(src), pool)), src
        assert not list(_pool_names(ast.parse("from .greenberg import map_blocks"), pool))
