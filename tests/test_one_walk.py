"""Only `pell` knows the walk along the cycle of reduced ideals.

`pell` owns the walk's steps, the principal-cycle record and the (x, y)
coordinates of every generator.  Every other module takes from it only the
unit, a field's record and principal powers with their generators, reads
only the record's `m`, `D` and `unit` (E, F, N(eps)), and names none of the
walk's helpers.
"""

import ast
from pathlib import Path

import iwascan
from iwascan.pell import CycleRecord

HELPERS = ("_ideal_walk", "_generator", "_product", "_cycle_generator", "_canonical_root",
           "_unit_reduce")
PUBLIC = {"fundamental_unit", "CycleRecord", "_cycle_record", "_principal_power"}
RECORD_WALK = tuple(set(CycleRecord.__dataclass_fields__) - {"m", "D", "unit"})  # B0, cs, bs


def _helper_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (node for alias in node.names if alias.name.split(".")[-1] in HELPERS)
        elif isinstance(node, ast.Name) and node.id in HELPERS:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr in HELPERS + RECORD_WALK:
            yield node


def _modules():
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_only_pell_names_the_walk_helpers():
    found = [f"{name}:{node.lineno}" for name, tree in _modules() for node in _helper_names(tree)]
    assert found and all(f.startswith("pell.py:") for f in found), found


def test_other_modules_take_only_the_unit_record_and_principal_powers_from_pell():
    taken = {name: {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "pell"
                    for alias in node.names}
             for name, tree in _modules()}
    # the package root takes its names through its export table, not an import statement
    taken["__init__.py"] |= {name for name, home in iwascan._HOME.items() if home == "pell"}
    assert set().union(*taken.values()) == PUBLIC, taken  # so every module's names <= PUBLIC


def test_the_check_catches_a_second_walk_user():
    for helper in HELPERS:
        for src in (f"from .pell import {helper}",
                    f"from iwascan.pell import fundamental_unit, {helper} as walk",
                    f"from . import pell\npell.{helper}(1, 2, 5)",
                    f"import iwascan.pell as p\nx = p.{helper}"):
            assert list(_helper_names(ast.parse(src))), src
    assert all(list(_helper_names(ast.parse(f"ctx.record.{field}"))) for field in RECORD_WALK)
    assert not list(_helper_names(ast.parse("from .pell import _cycle_record, _principal_power")))
