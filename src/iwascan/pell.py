"""Principality: the walk along the cycle of reduced ideals, the principal
cycle, the unit, and generators of prime-power ideals.

D is a fundamental discriminant > 0 and m = D or D/4.  `_ideal_walk`
steps [A, (B+sqrt(D))/2] -> [|c|, (B'+sqrt(D))/2], multiplying the ideal
by c / ((B+sqrt(D))/2), and returns its steps as two parallel sequences,
the c and the B'; `_generator` rebuilds the product of those factors.
The walk ignores the sign of c, so principality is in the *wide* sense,
and a generator may have either norm sign.  The reduced ideals of a class
form one cycle (Cohen, GTM 138, secs. 5.7-5.8), so an ideal is principal
iff its first reduced ideal is on the principal cycle, the unit ideal's.
That cycle is a palindrome, its (l-j)-th ideal the conjugate of its j-th,
so `_cycle_record` walks the unit ideal to the midpoint only and combines
the two halves into the unit eps (Cohen, Alg. 5.7.2), as (E, F, N(eps)):
the field's record, which its caller keeps (`fundamental_unit` caches only
eps, as a `QuadElem`), in which `_cycle_generator` looks a reduced ideal
up.  `_principal_power` walks p^k = [q^k, (b_k+sqrt(D))/2], p the first
prime above a split q and b_k from `_canonical_root`, for each k in turn
to its first reduced ideal only: a miss proves p^k non-principal, and the
first hit gives p^k's generator, the walk's times the cycle ideal's, which
is unit-reduced on the record's unit and certified as returned (its norm
and support are checked), all in plain ints (A, B), the element (A + B*sqrt(m))/2.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .arith import is_squarefree, valuation
from .quadint import QuadElem, _lift_sqrt, make_elem, residues

_MAX_WALK = 10**6


def _ideal_walk(A: int, B: int, D: int, half: bool = False) -> tuple[Sequence[int], Sequence[int]]:
    """Steps c_i and B_(i+1) of [A, (B+sqrt(D))/2], c_i = (B_i^2-D)/(4 A_i), at
    least one, up to its first reduced ideal.  With half=True, from the unit
    ideal (every ideal on its cycle is reduced, and c_i = -A_(i+1) < 0), up to
    the principal cycle's midpoint: the first step with A_(i+1) = A_i (odd
    period) or else B_(i+1) = B_i (even period); there |c|, |B| <= sqrt(D), so
    the steps are int64 arrays, 16 bytes a step, and lists on other walks."""
    s = isqrt(D)
    cs, bs = (array("q"), array("q")) if half else ([], [])
    for _ in range(_MAX_WALK):
        a, b = A, B
        c = (B * B - D) // (4 * A)
        A = abs(c)
        # B' = -B (mod 2A'), normalized into the reduction window
        if A > s:
            t = (-B) % (2 * A)
            B = t - 2 * A if t > A else t
        else:
            B = s - (s + B) % (2 * A)
        cs.append(c)
        bs.append(B)
        # in the window, reduced (|sqrt(D) - 2A| < B < sqrt(D)) means this
        if (A == a or B == b) if half else (0 < B and 2 * A - s <= B):
            return cs, bs
    raise ArithmeticError("ideal walk did not terminate")


def _generator(cs: Sequence[int], bs: Sequence[int], B: int) -> tuple[int, int]:
    """(x, y) with (x + y*sqrt(D))/2 = P_n = gamma_n*A_n: the product gamma_n of
    the factors of a walk from [A_0, w_0] with steps c_i, B_(i+1) in `cs`, `bs`,
    w_i = (B_i+sqrt(D))/2 and B_0 = B, so that gamma_n [A_n, w_n] = [A_0, w_0], times A_n.

    P_i = gamma_i*A_i, Q_i = gamma_i*w_i, gamma_i = prod_{j<i} w_j/c_j.  As
    B_(i+1) = 2 c_i t_i - B_i, w_i*w_(i+1)/c_i = t_i*w_i - A_i: P_(i+1) =
    sign(c_i)*Q_i, so Q_(i+1) = t_i*Q_i - sign(c_(i-1))*Q_(i-1), on y alone.
    Q_n = P_n*w_n/A_n gives P_n's x from the y of both.  No steps give 1, the unit ideal's P_0.
    """
    qp, qy, c0 = 0, 1, 1  # y of Q_(i-1) and Q_i, and c_(i-1); P_0 = A has y = 0
    for c, b2 in zip(cs, bs):
        t = (B + b2) // (2 * c)
        qp, qy = qy, (t * qy - qp if c0 > 0 else t * qy + qp)
        c0, B = c, b2
    py = qp if c0 > 0 else -qp
    return 2 * abs(c0) * qy - py * B, py


def _product(p: tuple[int, int], q: tuple[int, int], a: int, D: int) -> tuple[int, int]:
    """p*q/a, in the coordinates (x, y) of (x + y*sqrt(D))/2; the caller knows a divides."""
    (x, y), (u, v) = p, q
    return (x * u + y * v * D) // (2 * a), (x * v + y * u) // (2 * a)


@dataclass(frozen=True)
class CycleRecord:
    """The principal cycle of Q(sqrt(m)), D = m or 4m, and its unit.  B0 is the largest
    B <= sqrt(D) with B = D (mod 2); cs, bs the half walk of the unit ideal
    [1, (B0+sqrt(D))/2], whose j-th ideal, j = 1..k, is [-cs[j-1], (bs[j-1]+sqrt(D))/2];
    unit (E, F, N(eps)), eps = (E + F*sqrt(m))/2 the fundamental unit > 1 of the maximal order."""

    m: int
    D: int
    B0: int
    cs: array
    bs: array
    unit: tuple[int, int, int]


def _cycle_record(m: int) -> CycleRecord:
    """The record of m, a squarefree integer > 1 (not checked here).  eps comes from
    the half walk of the principal cycle, period l.  l = 2k: the walk stopped at
    B_k = B_(k-1), I_k is its own conjugate, and eps = +-P_k^2/A_k.  l = 2k+1: it
    stopped at A_(k+1) = A_k, I_(k+1) = I_k', and eps = +-P_k P_(k+1)/A_k, with
    P_(k+1) = +-Q_k = +-P_k w_k/A_k.  l = 1 is the odd case with k = 0."""
    D = m if m % 4 == 1 else 4 * m
    s = isqrt(D)
    B0 = s - (s - D) % 2
    c, b = _ideal_walk(1, B0, D, half=True)
    odd = c[-1] == (c[-2] if len(c) > 1 else -1)
    k = len(c) - odd
    p = _generator(c[:k], b[:k], B0)
    a, bk = (-c[k - 1], b[k - 1]) if k else (1, B0)
    q = _product(p, (bk, 1), a, D) if odd else p
    x, y = _product(p, q, a, D)
    E, F = abs(x), abs(y) * (2 if D % 4 == 0 else 1)
    if (n := E * E - m * F * F) not in (4, -4):
        raise ArithmeticError(f"the unit ideal's half walk did not give a unit for m={m}")
    return CycleRecord(m, D, B0, c, b, (E, F, n // 4))


def _cycle_generator(rec: CycleRecord, A: int, B: int) -> tuple[int, int] | None:
    """(x, y) with (x + y*sqrt(D))/2 a generator of the reduced ideal [A, (B+sqrt(D))/2],
    or None when it is off the principal cycle, that is, not wide-principal.

    The j-th ideal I_j of the cycle is (P_j'), P_j the `_generator` of the first
    j steps, and its conjugate, the (l-j)-th, is (P_j).
    """
    if A == 1:  # the unit ideal, position 0, which the record does not hold
        return 2, 0
    c, b = rec.cs, rec.bs
    s = isqrt(rec.D)
    conj = s - (s + B) % (2 * A)  # the B of [A, (-B+sqrt(D))/2] in the window
    i = -1
    try:
        while b[i := c.index(-A, i + 1)] not in (B, conj):
            pass
    except ValueError:  # no index left
        return None
    x, y = _generator(c[: i + 1], b[: i + 1], rec.B0)
    return (x, -y) if b[i] == B else (x, y)


@lru_cache(maxsize=4096)
def fundamental_unit(m: int) -> QuadElem:
    """The fundamental unit > 1 of the maximal order of Q(sqrt(m)): its record's unit."""
    if m <= 1 or not is_squarefree(m):
        raise ValueError(f"m={m} must be a squarefree integer > 1")
    E, F, _ = _cycle_record(m).unit
    return make_elem(E, F, 2, m)


def _canonical_root(D: int, q: int, k: int, s: int) -> int:
    """b with b^2 = D (mod 4 q^k), b = -e*s (mod q^k), b = D (mod 2).

    s is the Hensel root of m = D or D/4 modulo q^K for some K >= k, and
    e*s the canonical image of sqrt(D) under the labelled embedding, so the
    ideal [q^k, (b+sqrt(D))/2] is the k-th power of the *first* prime above q.
    """
    e = 2 if D % 4 == 0 else 1
    qk = q**k
    b = (-e * s) % qk
    if (b - D) % 2:
        b += qk  # q odd, so this flips the parity
    b %= 2 * qk
    if (b * b - D) % (4 * qk):
        raise ArithmeticError("canonical root does not solve b^2 = D (mod 4q^k)")
    return b


def _unit_reduce(g: tuple[int, int], rec: CycleRecord) -> tuple[int, int]:
    """Associate of g = (A + B sqrt(m))/2 with locally least |trace| A, A > 0: times
    1/eps while |A| falls, then times eps, each trial's trace first and its B only when
    taken.  The greedy descent can stop at a local minimum, so the result may depend
    on the unit multiple of g it starts from: at m = 5 it takes (7+sqrt(5))/2 * eps^k,
    k = 1..5, to 3+2sqrt(5) (trace 6), not to (1-3sqrt(5))/2 (trace 1)."""
    (A, B), (E, F, n), m = g, rec.unit, rec.m
    for u, v in ((n * E, -n * F), (E, F)):  # 1/eps = N(eps) * eps', then eps
        while abs(A2 := (A * u + B * v * m) // 2) < abs(A):
            A, B = A2, (A * v + B * u) // 2
    return (-A, -B) if A < 0 else (A, B)


def _principal_power(rec: CycleRecord, q: int, exponents: Sequence[int],
                     s: int | None = None) -> tuple[int, tuple[int, int]] | None:
    """First k in `exponents` with p^k principal in the field of `rec`, and a generator
    alpha = (A + B*sqrt(m))/2, as (k, (A, B)).

    p is the first prime above q, an odd split prime that is not checked
    here (`qforms.represent` checks it).  alpha, reduced modulo units with
    positive trace, is certified as returned: |norm(alpha)| = q^k and
    v_p(alpha) = k, so (alpha) = p^k, or ArithmeticError.  None if no p^k is
    principal.  One root s of m mod q^K, K > max(exponents), lifted here
    unless passed, serves every k; that lift is uncached, as its callers (each tally
    prime, `class_order`, `represent`) do not repeat an (m, q, K) within a command.
    """
    D, m = rec.D, rec.m
    s = _lift_sqrt(m, q, max(exponents) + 1) if s is None else s
    for k in exponents:
        A, B = q**k, _canonical_root(D, q, k, s)
        cs, bs = _ideal_walk(A, B, D)
        # p^k = (P/|c|) [|c|, (b+sqrt(D))/2], P the walk's generator
        if (beta := _cycle_generator(rec, abs(cs[-1]), bs[-1])) is None:
            continue
        x, y = _product(_generator(cs, bs, B), beta, abs(cs[-1]), D)  # no gcd; checked below
        x, y = _unit_reduce((x, y * (2 if D % 4 == 0 else 1)), rec)
        # certify it: |norm| = q^k (so it is integral), and p^k, not p'^k, divides it
        if abs(x * x - m * y * y) != 4 * A:
            raise ArithmeticError("generator has the wrong norm")
        r1 = residues((x, y), s, A * q)[0]
        if (valuation(r1, q) if r1 else k + 1) != k:
            raise ArithmeticError("generator supports the wrong prime")
        return k, (x, y)
    return None
