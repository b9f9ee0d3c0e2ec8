"""The walk round the cycle of reduced ideals, and the unit it yields.

D is a fundamental discriminant > 0 and m = D or D/4.  `_ideal_walk`
steps [A, (B+sqrt(D))/2] -> [|c|, (B'+sqrt(D))/2], multiplying the ideal
by c / ((B+sqrt(D))/2); the ideal is wide-principal iff the walk reaches
the unit ideal, and `_generator` rebuilds the product of those factors
from the walk's small steps (c, B').  The reduced ideals of a class form
one cycle (Cohen, GTM 138, secs. 5.7-5.8), so a walk back at its first
reduced ideal proves the class non-principal.  `fundamental_unit` is the
generator of the unit ideal's own walk, once round the principal cycle;
`qforms` walks prime-power ideals with the same two functions.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .arith import is_squarefree
from .quadint import QuadElem, make_elem

_MAX_WALK = 10**6


def _ideal_walk(A: int, B: int, D: int) -> list[tuple[int, int]] | None:
    """Steps (c_i, B_(i+1)) of [A, (B+sqrt(D))/2], at least one, until the unit
    ideal, c_i = (B_i^2-D)/(4 A_i); None once back at the first reduced ideal."""
    s, a0, b0, steps = isqrt(D), 0, 0, []
    for _ in range(_MAX_WALK):
        c = (B * B - D) // (4 * A)
        A = abs(c)
        # B' = -B (mod 2A'), normalized into the reduction window
        if A > s:
            t = (-B) % (2 * A)
            B = t - 2 * A if t > A else t
        else:
            B = s - (s + B) % (2 * A)
        steps.append((c, B))
        if A == 1:
            return steps
        if A == a0 and B == b0:
            return None
        # in the window, reduced (|sqrt(D) - 2A| < B < sqrt(D)) means this
        if not a0 and 0 < B and 2 * A - s <= B:
            a0, b0 = A, B
    raise ArithmeticError("ideal walk did not terminate")


def _generator(steps: list[tuple[int, int]], B: int) -> tuple[int, int]:
    """(x, y) with (x + y*sqrt(D))/2 the product of the factors of a walk
    from [A, (B+sqrt(D))/2] that closed with `steps`.

    P_i = gamma_i*A_i, Q_i = gamma_i*w_i, gamma_i = prod_{j<i} w_j/c_j.  As
    B_(i+1) = 2 c_i t_i - B_i, w_i*w_(i+1)/c_i = t_i*w_i - A_i: P_(i+1) =
    sign(c_i)*Q_i, so Q_(i+1) = t_i*Q_i - sign(c_(i-1))*Q_(i-1), on y alone.
    At A = 1, gamma = P and Q = gamma*w: Q's y is (x + y*B)/2.
    """
    qp, qy, c0 = 0, 1, 1  # y of Q_(i-1) and Q_i, and c_(i-1); P_0 = A has y = 0
    for c, b2 in steps:
        t = (B + b2) // (2 * c)
        qp, qy = qy, (t * qy - qp if c0 > 0 else t * qy + qp)
        c0, B = c, b2
    py = qp if c0 > 0 else -qp
    return 2 * qy - py * B, py


@lru_cache(maxsize=4096)
def fundamental_unit(m: int) -> QuadElem:
    """The fundamental unit > 1 of the maximal order of Q(sqrt(m)): the
    generator of the walk from the unit ideal [1, (B0+sqrt(D))/2], B0 the
    largest B <= sqrt(D) with B = D (mod 2), back to A = 1 (+-eps or +-eps')."""
    if m <= 1 or not is_squarefree(m):
        raise ValueError(f"m={m} must be a squarefree integer > 1")
    D = m if m % 4 == 1 else 4 * m
    B = isqrt(D) - (isqrt(D) - D) % 2
    steps = _ideal_walk(1, B, D)
    if steps is None:
        raise ArithmeticError(f"the unit ideal's walk did not close for m={m}")
    x, y = _generator(steps, B)
    eps = make_elem(abs(x), abs(y) * (2 if D % 4 == 0 else 1), 2, m)
    if eps.norm() not in (1, -1):
        raise ArithmeticError(f"the unit ideal's walk did not give a unit for m={m}")
    return eps
