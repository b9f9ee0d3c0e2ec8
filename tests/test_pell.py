"""Fundamental units against an exhaustive Pell search and sympy."""

import numpy as np
import pytest
from sympy.solvers.diophantine.diophantine import diop_DN

from iwascan.arith import is_squarefree
from iwascan.pell import fundamental_unit
from iwascan.quadint import make_elem
from oracles import continued_fraction_sqrt

SQUAREFREE = [m for m in range(2, 300) if is_squarefree(m)]

# exhaustive search above this y-coordinate is pointless; sympy covers it
BRUTE_CAP = 2 * 10**6


def unit_xy(m):
    """Coordinates (x, y) of eps as a solution of x^2 - m y^2 = +-4 or +-1."""
    eps = fundamental_unit(m)
    if m % 4 == 1:
        # scale to the +-4 form so half-integer units compare uniformly
        return (eps.a, eps.b) if eps.den == 2 else (2 * eps.a, 2 * eps.b)
    return eps.a, eps.b


def brute_pell(m, y_max):
    """Smallest-y solution of x^2 - m y^2 = +-4 (m = 1 mod 4) or +-1.

    int64 is exact here: m * y^2 stays below 300 * (2e6)^2 ~ 1.2e15.
    """
    rhs = 4 if m % 4 == 1 else 1
    best = None
    for lo in range(1, y_max + 1, 10**6):
        y = np.arange(lo, min(lo + 10**6, y_max + 1), dtype=np.int64)
        t = m * y * y
        for target in (-rhs, rhs):  # negative norm first: smaller x wins ties
            tt = t + target
            r = np.sqrt(tt.astype(np.float64)).round().astype(np.int64)
            ok = np.nonzero(r * r == tt)[0]
            if len(ok) and (best is None or y[ok[0]] < best[1]):
                best = (int(r[ok[0]]), int(y[ok[0]]))
        if best is not None:
            return best
    return None


@pytest.mark.parametrize("m", SQUAREFREE)
def test_unit_matches_brute_force(m):
    x, y = unit_xy(m)
    if y <= BRUTE_CAP:
        assert brute_pell(m, y) == (x, y), f"smaller unit exists for m={m}"
    else:
        # unit too large for exhaustion: still prove nothing smaller exists
        assert brute_pell(m, BRUTE_CAP) is None


@pytest.mark.parametrize("m", SQUAREFREE)
def test_unit_matches_sympy(m):
    x, y = unit_xy(m)
    rhs = 4 if m % 4 == 1 else 1
    sols = []
    for target in (-rhs, rhs):
        sols += [(abs(a), abs(b)) for a, b in diop_DN(m, target) if b]
    if rhs == 4:  # non-primitive solutions come from the +-1 equation
        for target in (-1, 1):
            sols += [(2 * abs(a), 2 * abs(b)) for a, b in diop_DN(m, target) if b]
    assert sols, f"sympy found no unit for m={m}"
    assert (x, y) == min(sols, key=lambda s: (s[1], s[0]))


@pytest.mark.parametrize("m,expect", [
    (5, (1, 1, 2)),         # golden ratio (1 + sqrt 5)/2
    (7, (8, 3, 1)),
    (13, (3, 1, 2)),
    (61, (39, 5, 2)),
    (103, (227528, 22419, 1)),
    (2659, (3258468890, 63190881, 1)),
])
def test_known_units(m, expect):
    eps = fundamental_unit(m)
    assert (eps.a, eps.b, eps.den) == expect
    assert abs(eps.norm()) == 1


@pytest.mark.parametrize("m", [7, 14, 23, 103, 9949])
def test_unit_is_a_unit_and_greater_than_one(m):
    eps = fundamental_unit(m)
    assert abs(eps.norm()) == 1
    assert eps.a > 0 and eps.b > 0  # embeds to a real number > 1


@pytest.mark.parametrize("m", [2, 3, 7, 13, 19, 31, 103, 211])
def test_continued_fraction_invariants(m):
    a0, period = continued_fraction_sqrt(m)
    from math import isqrt
    assert a0 == isqrt(m)
    assert period[-1] == 2 * a0  # classical terminator of the sqrt expansion
    assert period[:-1] == period[:-1][::-1]  # palindrome body
    # unit from the CF has norm (-1)^period parity
    eps = fundamental_unit(m)
    if m % 4 != 1:
        assert eps.norm() == (-1) ** len(period)


def test_unit_rejects_bad_m():
    with pytest.raises(ValueError):
        fundamental_unit(12)  # not squarefree
    with pytest.raises(ValueError):
        fundamental_unit(1)
