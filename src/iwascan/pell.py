"""Fundamental units of real quadratic fields via continued fractions.

The expansion runs on w = sqrt(m) for m = 2, 3 (mod 4) and on
w = (1 + sqrt(m))/2 for m = 1 (mod 4), so the unit returned generates
the unit group of the *maximal* order (half-integer coordinates show up
exactly when they should, e.g. (1 + sqrt(5))/2).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import is_squarefree
from .quadint import QuadElem, make_elem

_MAX_STEPS = 10**6


@lru_cache(maxsize=4096)
def fundamental_unit(m: int) -> QuadElem:
    """The fundamental unit > 1 of the maximal order of Q(sqrt(m)).

    Computed from one full period of the continued fraction of the
    order's generator: with convergents p_i/q_i of w = [a0; a1, ...]
    and period length l (the tail is purely periodic from index 1),
    the matrix of one period fixes w, and eps = q_{l-1} * w +
    (q_l - a0 * q_{l-1}) is the fundamental automorph.
    """
    if m <= 1 or not is_squarefree(m):
        raise ValueError(f"m={m} must be a squarefree integer > 1")
    s = isqrt(m)
    if m % 4 == 1:
        P0, Q0 = 1, 2  # w = (1 + sqrt(m))/2
    else:
        P0, Q0 = 0, 1  # w = sqrt(m)

    P, Q = P0, Q0
    a0 = (P + s) // Q
    q_prev, q_cur = 0, 1  # q_{-1}, q_0
    P = a0 * Q - P
    Q = (m - P * P) // Q
    first = (P, Q)

    steps = 0
    while True:
        ai = (P + s) // Q
        q_prev, q_cur = q_cur, ai * q_cur + q_prev
        P2 = ai * Q - P
        Q2 = (m - P2 * P2) // Q
        P, Q = P2, Q2
        steps += 1
        if (P, Q) == first:
            break
        if steps > _MAX_STEPS:
            raise ArithmeticError("period did not close")

    # eps = q_{l-1} * w + (q_l - a0 * q_{l-1}) with l = steps
    c = q_cur - a0 * q_prev
    if m % 4 == 1:
        eps = make_elem(2 * c + q_prev, q_prev, 2, m)
    else:
        eps = make_elem(c, q_prev, 1, m)
    if eps.norm() not in (1, -1):
        raise ArithmeticError(f"period matrix did not give a unit for m={m}")
    return eps
