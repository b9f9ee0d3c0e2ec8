"""Invariant checks in the package must survive `python -O`.

`assert` statements are stripped under -O, and a raised AssertionError
escapes the CLI as a traceback, so every check in the shipped modules is
an explicit raise of a catchable error such as ArithmeticError.
"""

import ast
from pathlib import Path

import iwascan


def _offenders(source: str) -> list[int]:
    """Lines of `assert` statements and of `raise AssertionError`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(node.lineno)
    return sorted(found)


def test_offenders_self_test():
    snippet = ("assert x\n"
               "raise AssertionError('bad')\n"
               "raise AssertionError\n"
               "raise ArithmeticError('fine')\n"
               "y = AssertionError\n")
    assert _offenders(snippet) == [1, 2, 3]


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}" for line in _offenders(path.read_text())]
    assert not found, f"assert statements or AssertionError raises in the package: {found}"
