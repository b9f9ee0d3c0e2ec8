"""Class numbers in real quadratic fields, and class orders and generators from `pell`.

D is a fundamental discriminant > 0 and m = D or D/4 the squarefree
radicand.  `class_numbers` evaluates the analytic class number formula
for the fields of a batch of `pell` cycle records (a scan block's) in one
numpy pass per slab of at most _SLAB terms: chi by Euler's criterion on a
(D x primes) grid and a smallest-prime-factor table, about sqrt(D) terms
per D, with the regulator of the record's exact unit.  Each D keeps its
own error bound, which must separate h from every other integer, or the batch
raises ArithmeticError, as it does up front for a D past _MAX_TERMS terms.
`class_number(D)` checks D and is a batch of one.  `_sieve(P)`, spf and the
primes <= P, is the package's one numpy prime table; the tally's sieve shares it.

`class_order` and `represent` are the public calls of `pell._principal_power`,
where principality is decided.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import ceil, erfc, exp, expm1, isqrt, log, pi, sqrt

import numpy as np

from .arith import divisors, is_prime, is_squarefree, kronecker
from .pell import CycleRecord, _cycle_record, _principal_power
from .quadint import QuadElem, make_elem


def _check_fundamental(D: int) -> int:
    """The squarefree radicand m = D or D/4 of the fundamental discriminant D."""
    if D <= 0 or isqrt(D) ** 2 == D:
        raise ValueError("discriminant must be positive and nonsquare")
    if D % 4 not in (0, 1):
        raise ValueError(f"D={D} is not a discriminant")
    m = D // 4 if D % 4 == 0 else D
    if (D % 4 == 0 and m % 4 == 1) or not is_squarefree(m):
        raise ValueError(f"D={D} is not fundamental")
    return m


# Abramowitz-Stegun 5.1.53 on 0 < x <= 1 and 5.1.56 on x >= 1 (highest degree
# first, for np.polyval).  Both leave an absolute error in E1(x) below _E1_ERR:
# 5.1.53 with these coefficients peaks at 2.2898e-7 near x = 0.0692, and 5.1.56
# bounds the error of x*e^x*E1(x) by 2e-8, of E1(x) by 2e-8*e^-x/x < 7.4e-9.
_E1_SMALL = (0.00107857, -0.00976004, 0.05519968, -0.24991055, 0.99999193,
             -0.57721566)
_E1_NUM = (1, 8.5733287401, 18.0590169730, 8.6347608925, 0.2677737343)
_E1_DEN = (1, 9.5733223454, 25.6329561486, 21.0996530827, 3.9584969228)
_E1_ERR = 2.3e-7
_MACHINE_EPS = 2.0**-52
_INT64_ROOT = isqrt(2**63 - 1)  # Euler's criterion squares residues mod q <= N


def _regulator(rec: CycleRecord) -> float:
    """log(eps) of the unit (E + F*sqrt(m))/2 > 1 of `rec`, to a relative error far below 1e-13."""
    E, F, _ = rec.unit
    if E.bit_length() > 1000:
        # eps = E - N(eps)/eps, and 1/eps^2 is below float resolution
        return log(E)
    return log((E + F * sqrt(rec.m)) / 2)


def _tail_bound(N: int, D: int) -> float:
    """Bound on the terms n > N of the series in `class_number`.

    With u = n*sqrt(pi/D), erfc(u) <= e^(-u^2)/(u*sqrt(pi)) and
    E1(u^2) <= e^(-u^2)/u^2 make the n-th term at most 2/x * e^(-x) with
    x = u^2 = pi n^2/D; the sum over n > N is then at most that bound at
    n = N+1 times the geometric series of e^(-2 pi (N+1) j/D), j >= 0.
    """
    x = pi * (N + 1) ** 2 / D
    return 2 / x * exp(-x) / -expm1(-2 * pi * (N + 1) / D)


def _series_length(D: int, R: float) -> int:
    """Least N >= 1 with _tail_bound(N, D) <= R/8 (the bound falls with N).  For
    x = pi (N+1)^2/D, N << D, the bound's log is about log(sqrt(D/pi)) - x -
    1.5 log x + sqrt(pi x/D): three Newton steps guess N, unit steps settle it."""
    L = log(8 * sqrt(D / pi) / R)
    x = max(L, 1.0)
    for _ in range(3):
        x = max(x - (x + 1.5 * log(x) - sqrt(pi * x / D) - L)
                / (1 + 1.5 / x - sqrt(pi / (D * x)) / 2), 0.01)
    N = max(1, ceil(sqrt(x * D / pi)) - 1)
    while _tail_bound(N, D) > R / 8:
        N += 1
    while N > 1 and _tail_bound(N - 1, D) <= R / 8:
        N -= 1
    return N


@lru_cache(maxsize=4)
def _sieve(P: int) -> tuple[np.ndarray, np.ndarray]:
    """spf(n), the smallest prime factor of n <= P (spf(0) = 0, spf(1) = 1), and the primes <= P."""
    spf = np.arange(P + 1)  # a prime is its own spf
    for q in range(isqrt(P), 1, -1):  # descending, so the smallest divisor is written last
        spf[q * q :: q] = q
    return spf, np.flatnonzero(spf == np.arange(P + 1))[2:]


def _chi(Ds: Sequence[int], N: int) -> np.ndarray:
    """kronecker(D, n), a row per D, n <= N: Euler's criterion on a (rows x odd primes) grid,
    D mod 8 at 2, then chi(spf n) chi(n/spf n) by dyadic blocks of n (n/spf n <= n/2)."""
    if N > _INT64_ROOT or max(Ds) > _INT64_ROOT**2:
        raise ArithmeticError(f"{N} terms at D={max(Ds)} overflow int64 in Euler's criterion")
    spf, primes = _sieve(1 << (N - 1).bit_length())  # the power of two >= N
    D = np.array(Ds, dtype=np.int64)[:, None]
    q = primes[1 : np.searchsorted(primes, N, "right")]  # the odd primes <= N
    a, r = D % q, np.ones((len(D), len(q)), dtype=np.int64)
    # r = a^((q-1)/2) by binary powering, one row of bits of (q-1)/2 = q >> 1 < N/2 per round
    for bit in (q >> 1 >> np.arange((N >> 1).bit_length())[:, None] & 1).astype(bool):
        r = np.where(bit, r * a % q, r)
        a = a * a % q
    chi = np.zeros((len(D), N + 1), dtype=np.int8)
    chi[:, 1], chi[:, 2:3] = 1, np.array((0, 1, 0, 0, 0, -1, 0, 0), np.int8)[D % 8]
    chi[:, q] = (r == 1).astype(np.int8) - (r == q - 1)
    for k in range(2, N.bit_length()):
        lo, hi = 1 << k, min(2 << k, N + 1)
        f = spf[lo:hi]
        chi[:, lo:hi] = chi.take(f, axis=1) * chi.take(np.arange(lo, hi) // f, axis=1)
    return chi


_SLAB = 1 << 16  # cells (rows x (N+1)) of one numpy pass in `class_numbers`
_MAX_TERMS = 1 << 20  # longest series `class_numbers` sums; m ~ 10^8 needs N ~ 15-30k


def class_numbers(records: Sequence[CycleRecord]) -> list[int]:
    """Wide class numbers of the fields of the cycle records `records`, in their order.

    2 h R = sum_{n >= 1} chi(n) * ((sqrt(D)/n) erfc(n sqrt(pi/D)) + E1(pi n^2/D))
    (Cohen, GTM 138, sec. 5.6), chi(n) = kronecker(D, n) and R = log(eps)
    of the record's unit, summed to the least N_D with tail bound <= R/8.
    Tail, E1 and float rounding are bounded explicitly; the batch is refused
    (ArithmeticError) unless, for every D, the bound leaves h the only
    integer within 1/2 of sum / (2R).  Rows sorted by N_D go in slabs of at
    most _SLAB cells (rows x (N+1)), one numpy pass each.
    """
    rows = []
    for i, rec in enumerate(records):
        R = _regulator(rec)
        if (N := _series_length(rec.D, R)) > _MAX_TERMS:
            raise ArithmeticError(f"D={rec.D} needs {N} terms, past the series budget {_MAX_TERMS}")
        rows.append((N, i, rec.D, R))
    rows.sort()
    hs, start = [0] * len(rows), 0
    for stop in range(1, len(rows) + 1):  # a slab's cells: its rows times its largest N
        if stop == len(rows) or (stop - start + 1) * (rows[stop][0] + 1) > _SLAB:
            for (_, i, _, _), h in zip(rows[start:stop], _slab(rows[start:stop])):
                hs[i] = h
            start = stop
    return hs


def _slab(rows: list[tuple[int, int, int, float]]) -> list[int]:
    """The wide h of each row (N, i, D, R) of `class_numbers`, N rising, in one pass."""
    Ns, _, Ds, Rs = zip(*rows)
    chi = _chi(Ds, Ns[-1])
    chi[np.arange(Ns[-1] + 1) > np.array(Ns)[:, None]] = 0  # each row stops at its own N
    cell = np.flatnonzero(chi)
    row, n = np.divmod(cell, Ns[-1] + 1)
    Df = np.array(Ds, dtype=float)
    x = (pi / Df)[row] * n * n
    small = x <= 1
    xs, xl, e1 = x[small], x[~small], np.empty_like(x)
    e1[small] = np.polyval(_E1_SMALL, xs) - np.log(xs)
    e1[~small] = np.exp(-xl) / xl * np.polyval(_E1_NUM, xl) / np.polyval(_E1_DEN, xl)
    erfcs = np.fromiter(map(erfc, (np.sqrt(pi / Df)[row] * n).tolist()), float, len(n))
    t = np.sqrt(Df)[row] / n * erfcs + e1
    totals = np.bincount(row, chi.ravel()[cell] * t, len(Ds)).tolist()
    sizes = np.bincount(row, t, len(Ds)).tolist()
    hs = []
    for N, D, R, total, size in zip(Ns, Ds, Rs, totals, sizes):
        y = total / (2 * R)
        # Float rounding, relative to the sum of |terms|: bincount's recursive
        # sum loses less than N machine epsilons, and one term at most 256
        # plus 2x (erfc and exp amplify their argument's error by about
        # x = pi n^2/D).  R's relative error carries over to y.
        rounding = (N + 2 * (pi / D) * N * N + 256) * _MACHINE_EPS * size
        err = (_tail_bound(N, D) + _E1_ERR * N + rounding) / (2 * R) + 1e-13 * abs(y)
        h = round(y)
        if not (err < 0.5 and abs(y - h) <= err and h >= 1):
            raise ArithmeticError(
                f"analytic class number not separated at D={D}: "
                f"sum/(2R) = {y!r}, error bound {err:.3g}")
        hs.append(h)
    return hs


def class_number(D: int) -> int:
    """Narrow class number of the fundamental discriminant D > 0: the wide h
    of `class_numbers` (same bound, same refusal), doubled when N(eps) = +1."""
    rec = _cycle_record(_check_fundamental(D))
    h = class_numbers((rec,))[0]
    return 2 * h if rec.unit[2] == 1 else h


def class_order(D: int, q: int, h: int) -> int:
    """Order of the first prime above split q, in the wide sense; divides h."""
    found = _principal_power(_cycle_record(_check_fundamental(D)), q, divisors(h))
    if found is None:
        raise ArithmeticError("class order does not divide the class number")
    return found[0]


def represent(D: int, q: int, k: int) -> QuadElem | None:
    """Generator of p^k, with p the first prime above q.

    q must be an odd prime split in the order and k >= 1; the caller
    passes what it already knows instead of a norm to factor.  Returns
    the generator of `_principal_power`, or None when p^k is not
    (wide-)principal.
    """
    m = _check_fundamental(D)
    if k < 1:
        raise ValueError(f"exponent k={k} must be >= 1")
    if q == 2 or not is_prime(q) or kronecker(D, q) != 1:
        raise ValueError(f"q={q} is not an odd split prime for D={D}")
    found = _principal_power(_cycle_record(m), q, (k,))
    return None if found is None else make_elem(*found[1], 2, m)
