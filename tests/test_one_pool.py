"""Only `greenberg` builds process pools.

Both scans hand fixed work items to `greenberg.map_blocks`, so the
worker-count check, the pool size and the in-order hand-out live in one
place.  No other module of the package may name `ProcessPoolExecutor`.
"""

import ast
from pathlib import Path

import iwascan

POOL = "ProcessPoolExecutor"


def _pool_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (node for alias in node.names if alias.name.split(".")[-1] == POOL)
        elif isinstance(node, ast.Name) and node.id == POOL:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == POOL:
            yield node


def test_only_greenberg_names_a_process_pool():
    found = []
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in _pool_names(tree)]
    assert found and all(f.startswith("greenberg.py:") for f in found), found


def test_the_check_catches_a_second_pool_user():
    for src in ("from concurrent.futures import ProcessPoolExecutor",
                "from concurrent.futures import ProcessPoolExecutor as Pool",
                "import concurrent.futures as cf\ncf.ProcessPoolExecutor(2)",
                "import concurrent.futures\n"
                "with concurrent.futures.ProcessPoolExecutor() as pool: pass"):
        assert list(_pool_names(ast.parse(src))), src
    assert not list(_pool_names(ast.parse("from .greenberg import map_blocks")))
