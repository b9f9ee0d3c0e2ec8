"""Only `pell` knows the walk along the cycle of reduced ideals.

`pell` owns the walk's steps, the principal-cycle record and the (x, y)
coordinates of every generator.  Every other module of the package asks it
for the unit (`fundamental_unit`) or for a principal power and its
generator (`_principal_power`), and names none of the walk's helpers.
"""

import ast
from pathlib import Path

import iwascan

HELPERS = ("_ideal_walk", "_generator", "_product", "_cycle_generator",
           "_principal_cycle", "_canonical_root", "_unit_reduce")
PUBLIC = {"fundamental_unit", "_principal_power"}


def _helper_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (node for alias in node.names if alias.name.split(".")[-1] in HELPERS)
        elif isinstance(node, ast.Name) and node.id in HELPERS:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr in HELPERS:
            yield node


def _modules():
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_only_pell_names_the_walk_helpers():
    found = [f"{name}:{node.lineno}" for name, tree in _modules() for node in _helper_names(tree)]
    assert found and all(f.startswith("pell.py:") for f in found), found


def test_other_modules_take_only_the_unit_and_principal_powers_from_pell():
    taken = {name: {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "pell"
                    for alias in node.names}
             for name, tree in _modules()}
    assert taken["qforms.py"] == PUBLIC and all(names <= PUBLIC for names in taken.values()), taken


def test_the_check_catches_a_second_walk_user():
    for helper in HELPERS:
        for src in (f"from .pell import {helper}",
                    f"from iwascan.pell import fundamental_unit, {helper} as walk",
                    f"from . import pell\npell.{helper}(1, 2, 5)",
                    f"import iwascan.pell as p\nx = p.{helper}"):
            assert list(_helper_names(ast.parse(src))), src
    assert not list(_helper_names(ast.parse("from .pell import _principal_power, fundamental_unit")))
