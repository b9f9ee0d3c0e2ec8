"""Fundamental units against an exhaustive Pell search, sympy, the
continued-fraction unit and the full-period walk that the half walk of the
unit ideal replaced."""

import random
import tracemalloc
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from sympy.solvers.diophantine.diophantine import diop_DN

from iwascan import pell
from iwascan.arith import is_squarefree
from iwascan.pell import fundamental_unit
from oracles import cf_fundamental_unit, continued_fraction_sqrt, cycle_walk, full_period_unit

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


def cycle_length(m):
    """l, the length of the principal cycle: the oracle's steps once round it."""
    D = m if m % 4 == 1 else 4 * m
    return len(cycle_walk(1, isqrt(D) - (isqrt(D) - D) % 2, D))


def test_walk_unit_equals_the_cf_oracle_below_2e4():
    ms = [m for m in range(2, 2 * 10**4) if is_squarefree(m)]
    assert len(ms) == 12159
    for m in ms:
        assert fundamental_unit(m) == cf_fundamental_unit(m) == full_period_unit(m), m
    # both halves of the combination, and the two short periods, are all exercised
    kinds = Counter(min(cycle_length(m), 4 - cycle_length(m) % 2) for m in ms)
    assert kinds == {1: 127, 2: 508, 3: 2255, 4: 9269}


@pytest.mark.parametrize("m,l", [
    (2, 1), (5, 1), (10, 1), (13, 1), (3, 2), (6, 2), (11, 2), (21, 2),
    (17, 3), (41, 5), (58, 7), (7, 4), (19, 6), (31, 8), (103, 12)])
def test_half_walk_unit_at_each_kind_of_period(m, l):
    """l = 1 once gave eps^2 (its one step has both A and B equal to the last)."""
    assert cycle_length(m) == l
    record = pell._cycle_record(m)
    assert len(record.cs) == len(record.bs) == ((l + 1) // 2 if l % 2 else l // 2)
    assert record.eps == cf_fundamental_unit(m) == full_period_unit(m)


@pytest.mark.parametrize("magnitude,count", [(10**6, 40), (10**7, 20), (10**8, 10)])
def test_walk_unit_equals_the_cf_oracle_at_large_m(magnitude, count):
    rng = random.Random(magnitude)
    ms = [m for m in (rng.randrange(magnitude, 2 * magnitude) for _ in range(2 * count))
          if is_squarefree(m)][:count]
    assert len(ms) == count
    for m in ms:
        assert fundamental_unit(m) == cf_fundamental_unit(m) == full_period_unit(m), m


def test_unit_walk_that_does_not_close_raises(monkeypatch):
    # m = 103 has period 12: the half walk needs 6 steps, and 5 do not reach the midpoint
    monkeypatch.setattr(pell, "_MAX_WALK", 6)
    assert fundamental_unit.__wrapped__(103) == cf_fundamental_unit(103)
    monkeypatch.setattr(pell, "_MAX_WALK", 5)
    with pytest.raises(ArithmeticError, match="did not terminate"):
        fundamental_unit.__wrapped__(103)


def test_principal_cycle_records_of_a_block_are_about_16_bytes_a_step():
    """One 100-m block near 10^7, its records held in a list as a scan block does: the
    half walk's two int64 arrays and the unit, under 24 bytes a step (a dict of (c, B)
    tuples took about 240); the walk appends in place, building no list of steps on
    the way (it took 76 bytes a step of the longest walk)."""
    ms = [m for m in range(10**7, 10**7 + 100) if is_squarefree(m)]
    pell._cycle_record(ms[0])  # the first call's imports are not the records'
    tracemalloc.start()
    try:
        records = [pell._cycle_record(m) for m in ms]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lengths = [len(record.cs) for record in records]
    assert len(records) == 59
    assert sum(lengths) == 25591
    assert held < 24 * sum(lengths), held
    assert peak - held < 16 * max(lengths), (peak, held)
