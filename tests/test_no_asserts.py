"""Invariant checks in the package must survive `python -O`.

`assert` statements are stripped under -O, so every check in the shipped
modules is an explicit raise.
"""

import ast
from pathlib import Path

import iwascan


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
