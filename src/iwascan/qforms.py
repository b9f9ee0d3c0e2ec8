"""Class numbers, class orders and generators in real quadratic fields.

D is a fundamental discriminant > 0 and m = D or D/4 the squarefree
radicand.  `class_numbers` evaluates the analytic class number formula
for a whole batch of D (a scan block) in one numpy pass per slab of at
most _SLAB terms: chi by Euler's criterion on a (D x primes) grid and a
smallest-prime-factor table, about sqrt(D) terms per D, with the
regulator of the exact fundamental unit.  Each D keeps its own explicit
error bound, which must separate h from every other integer, or the
batch raises ArithmeticError, as it does up front for a D past _MAX_TERMS
terms.  `class_number` is a batch of one.  `_sieve(P)`, spf and the primes
<= P, is the package's one numpy prime table; the tally's presieve shares it.

Class orders and generators work in the *wide* sense (the reduction
walk runs on positive-norm ideals and ignores the sign of the leading
coefficient), because a prime-power ideal is what gets tested for
principality and a generator of either norm sign is acceptable.  The
k-th power of the first prime above a split q is the ideal
[q^k, (b_k+sqrt(D))/2], with b_k from `_canonical_root`.  `_principal_power`
walks p^d for each divisor d of h in turn with `pell._ideal_walk` to its first
reduced ideal only, and looks that ideal up on the principal cycle, the record
of the unit's half walk (`pell._cycle_generator`).  A miss proves p^d
non-principal; the first hit gives h0, and p^h0's generator is the product of
the reduction walk's generator and the cycle ideal's, both rebuilt by
`pell._generator`: one pass gives h0 and p^h0's generator.  Its norm and
support are checked on the unit-reduced generator returned, which certifies
every generator the package hands out.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import ceil, erfc, exp, expm1, isqrt, log, pi, sqrt

import numpy as np

from .arith import divisors, is_prime, is_squarefree, kronecker, valuation
from .pell import _cycle_generator, _generator, _ideal_walk, _product, fundamental_unit
from .quadint import QuadElem, hensel_sqrt, make_elem, residues


def _check_fundamental(D: int) -> None:
    if D <= 0 or isqrt(D) ** 2 == D:
        raise ValueError("discriminant must be positive and nonsquare")
    if D % 4 not in (0, 1):
        raise ValueError(f"D={D} is not a discriminant")
    m = D // 4 if D % 4 == 0 else D
    if (D % 4 == 0 and m % 4 == 1) or not is_squarefree(m):
        raise ValueError(f"D={D} is not fundamental")


# Abramowitz-Stegun 5.1.53 on 0 < x <= 1 and 5.1.56 on x >= 1 (highest degree
# first, for np.polyval).  Both leave an absolute error in E1(x) below _E1_ERR
# (5.1.56 bounds the error of x*e^x*E1(x) by 2e-8, of E1(x) by 2e-8*e^-x/x < 2e-7).
_E1_SMALL = (0.00107857, -0.00976004, 0.05519968, -0.24991055, 0.99999193,
             -0.57721566)
_E1_NUM = (1, 8.5733287401, 18.0590169730, 8.6347608925, 0.2677737343)
_E1_DEN = (1, 9.5733223454, 25.6329561486, 21.0996530827, 3.9584969228)
_E1_ERR = 2e-7
_MACHINE_EPS = 2.0**-52
_INT64_ROOT = isqrt(2**63 - 1)  # Euler's criterion squares residues mod q <= N


def _regulator(eps: QuadElem) -> float:
    """log(eps) of a unit eps > 1, to a relative error far below 1e-13."""
    if eps.a.bit_length() > 1000:
        # eps = 2a/den - N(eps)/eps, and 1/eps^2 is below float resolution
        return log(2 * eps.a) - log(eps.den)
    return log((eps.a + eps.b * sqrt(eps.m)) / eps.den)


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


def class_numbers(Ds: Sequence[int]) -> list[int]:
    """Wide class numbers of the fundamental discriminants Ds > 0, in their order.

    2 h R = sum_{n >= 1} chi(n) * ((sqrt(D)/n) erfc(n sqrt(pi/D)) + E1(pi n^2/D))
    (Cohen, GTM 138, sec. 5.6), chi(n) = kronecker(D, n) and R = log(eps)
    from the exact unit, summed to the least N_D with tail bound <= R/8.
    Tail, E1 and float rounding are bounded explicitly; the batch is refused
    (ArithmeticError) unless, for every D, the bound leaves h the only
    integer within 1/2 of sum / (2R).  Rows sorted by N_D go in slabs of at
    most _SLAB cells (rows x (N+1)), one numpy pass each.
    """
    rows = []
    for i, D in enumerate(Ds):
        _check_fundamental(D)
        R = _regulator(fundamental_unit(D // 4 if D % 4 == 0 else D))
        if (N := _series_length(D, R)) > _MAX_TERMS:
            raise ArithmeticError(f"D={D} needs {N} terms, past the series budget {_MAX_TERMS}")
        rows.append((N, i, D, R))
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


@lru_cache(maxsize=1024)
def class_number(D: int) -> int:
    """Narrow class number of the fundamental discriminant D > 0: the wide h
    of `class_numbers` (same bound, same refusal), doubled when N(eps) = +1."""
    h = class_numbers((D,))[0]
    return 2 * h if fundamental_unit(D // 4 if D % 4 == 0 else D).norm() == 1 else h


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


def class_order(D: int, q: int, h: int) -> int:
    """Order of the first prime above split q, in the wide sense; divides h."""
    _check_fundamental(D)
    found = _principal_power(D, q, divisors(h))
    if found is None:
        raise ArithmeticError("class order does not divide the class number")
    return found[0]


def _unit_reduce(x: QuadElem, m: int) -> QuadElem:
    """Associate of x with locally least |trace|: times 1/eps while |trace|
    falls, then times eps, on x = (A + B sqrt(m))/2, A the trace.  The greedy
    descent can stop at a local minimum, so the result may depend on the unit
    multiple of x it starts from: at m = 5 it takes (7+sqrt(5))/2 * eps^k,
    k = 1..5, to 3+2sqrt(5) (trace 6), not to (1-3sqrt(5))/2 (trace 1)."""
    eps = fundamental_unit(m)
    E, F, n = 2 * eps.a // eps.den, 2 * eps.b // eps.den, eps.norm()
    g = 2 * x.a // x.den, 2 * x.b // x.den
    for u in ((n * E, -n * F), (E, F)):  # 1/eps = N(eps) * eps', then eps
        while abs((g2 := _product(g, u, 1, m))[0]) < abs(g[0]):
            g = g2
    A, B = g
    return make_elem(-A, -B, 2, m) if A < 0 else make_elem(A, B, 2, m)


def _principal_power(D: int, q: int, exponents: Sequence[int],
                     s: int | None = None) -> tuple[int, QuadElem] | None:
    """First k in `exponents` with p^k principal, and a generator alpha.

    p is the first prime above q, an odd split prime that is not checked
    here (`represent` checks it).  alpha, reduced modulo units with positive
    trace, is certified as returned: |norm(alpha)| = q^k and v_p(alpha) = k,
    so (alpha) = p^k, or ArithmeticError.  None if no p^k is principal.
    One root s of m mod q^K, K > max(exponents), lifted here unless passed, serves every k.
    """
    m = D // 4 if D % 4 == 0 else D
    s = hensel_sqrt(m, q, max(exponents) + 1) if s is None else s
    for k in exponents:
        A, B = q**k, _canonical_root(D, q, k, s)
        steps = _ideal_walk(A, B, D)
        c, b = steps[-1]  # p^k = (P/|c|) [|c|, (b+sqrt(D))/2], P the walk's generator
        if (beta := _cycle_generator(D, abs(c), b)) is None:
            continue
        x, y = _product(_generator(steps, B), beta, abs(c), D)  # no gcd; checked below
        alpha = _unit_reduce(make_elem(x, y * (2 if D % 4 == 0 else 1), 2, m), m)
        # certify the generator returned: |norm| = q^k, and p^k, not p'^k, divides it
        if abs(alpha.norm()) != A:
            raise ArithmeticError("generator has the wrong norm")
        r1 = residues(alpha, s, q ** (k + 1))[0]
        if (valuation(r1, q) if r1 else k + 1) != k:
            raise ArithmeticError("generator supports the wrong prime")
        return k, alpha
    return None


def represent(D: int, q: int, k: int) -> QuadElem | None:
    """Generator of p^k, with p the first prime above q.

    q must be an odd prime split in the order and k >= 1; the caller
    passes what it already knows instead of a norm to factor.  Returns
    the generator of `_principal_power`, or None when p^k is not
    (wide-)principal.
    """
    _check_fundamental(D)
    if k < 1:
        raise ValueError(f"exponent k={k} must be >= 1")
    if q == 2 or not is_prime(q) or kronecker(D, q) != 1:
        raise ValueError(f"q={q} is not an odd split prime for D={D}")
    found = _principal_power(D, q, (k,))
    return None if found is None else found[1]
