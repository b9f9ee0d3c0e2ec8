"""One radicand test: no entry point factors its m twice.

`sunits.real_field` decides, for every command, that m is the radicand of a
real quadratic field, and it alone refuses a discriminant past the class
number's int64 range, before m is factored.  `pell.fundamental_unit` tests
its own m, which may lie past that range, and `qforms._check_fundamental`
tests a D and returns its m; every other module takes its answer from
`real_field`, through `validate_field`, `build_context` or `admissible`.
"""

import ast
from pathlib import Path

import pytest

import iwascan
from iwascan import arith, pell, sunits
from iwascan.greenberg import check_field
from iwascan.qforms import class_number, class_order, represent
from iwascan.stats import prime_fermat_scan, random_elem_density

def _name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _squarefree_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "is_squarefree":
            yield node


def _range_refusals(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str)
                and "int64 range" in c.value for c in ast.walk(node)):
            yield node


def _modules():
    for path in sorted(Path(iwascan.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_only_sunits_pell_and_qforms_test_squarefreeness():
    found = {name for name, tree in _modules() if list(_squarefree_calls(tree))}
    assert found == {"sunits.py", "pell.py", "qforms.py"}, found


def test_only_sunits_refuses_a_discriminant_past_the_int64_range():
    found = {name for name, tree in _modules() if list(_range_refusals(tree))}
    assert found == {"sunits.py"}, found


def test_the_checks_catch_a_second_radicand_test():
    for src in ("is_squarefree(m)", "ok = m > 1 and arith.is_squarefree(m)"):
        assert list(_squarefree_calls(ast.parse(src))), src
    assert not list(_squarefree_calls(ast.parse("from .arith import is_squarefree")))
    refusal = 'raise PreconditionError(f"m={m}: the discriminant is past the int64 range")'
    assert list(_range_refusals(ast.parse(refusal)))
    assert not list(_range_refusals(ast.parse('raise ValueError("int64")')))


@pytest.mark.parametrize("call, m", [
    (lambda: check_field(30007, 3), 30007),
    (lambda: class_number(4 * 10007), 10007),
    (lambda: class_order(412, 3, 1), 103),
    (lambda: represent(412, 3, 1), 103),
    (lambda: prime_fermat_scan(103, 3, 5, 10**4, workers=1), 103),
    (lambda: random_elem_density(7, 3, 10), 7),
], ids=["check_field", "class_number", "class_order", "represent", "prime_fermat_scan",
        "random_elem_density"])
def test_a_cold_entry_point_factors_its_radicand_once(monkeypatch, call, m):
    for cache in (sunits.build_context, pell.fundamental_unit):
        cache.cache_clear()
    factored = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: factored.append(n) or factorize(n))
    call()
    assert factored.count(m) == 1, factored
