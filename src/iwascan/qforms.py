"""Class numbers, class orders and generators in real quadratic fields.

D is a fundamental discriminant > 0 and m = D or D/4 the squarefree
radicand.  `class_number` evaluates the analytic class number formula
in one numpy pass over about sqrt(D) terms (chi by Euler's criterion on
primes and a smallest-prime-factor table) with the regulator of the exact
fundamental unit, under an explicit error bound that must separate h from
every other integer, or it raises ArithmeticError.

Class orders and generators work in the *wide* sense (the reduction
walk runs on positive-norm ideals and ignores the sign of the leading
coefficient), because a prime-power ideal is what gets tested for
principality and a generator of either norm sign is acceptable.  The
k-th power of the first prime above a split q is the ideal
[q^k, (b_k+sqrt(D))/2], with b_k from `_canonical_root`.  Each step of
`_ideal_walk` [a, (b+sqrt(D))/2] -> [|c|, (b'+sqrt(D))/2] multiplies the
ideal by c / ((b+sqrt(D))/2); the ideal is principal iff the walk
reaches the unit ideal, and the product of those factors is then its
generator (Cohen, GTM 138, ch. 5).  A walk records only its small steps
(c, b').  `_principal_power` walks p^d for each divisor d of h in turn
and rebuilds, by a gcd-free recurrence, only the generator of the first
walk that closes: one pass gives h0 and a generator of p^h0.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from math import erfc, exp, expm1, isqrt, log, pi, sqrt

import numpy as np

from .arith import divisors, is_prime, is_squarefree, kronecker, valuation
from .pell import fundamental_unit
from .quadint import QuadElem, embed, hensel_sqrt, make_elem

_MAX_WALK = 10**6


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


@lru_cache(maxsize=4)
def _sieve(P: int) -> tuple[np.ndarray, ...]:
    """spf(n), n/spf(n) for n <= P, the odd primes q <= P and bits[k] = bit k of (q-1)/2."""
    n = np.arange(P + 1)
    spf = n.copy()  # a prime is its own spf
    for q in range(isqrt(P), 1, -1):  # descending, so the smallest divisor is written last
        spf[q * q :: q] = q
    odd = np.flatnonzero(spf[3:] == n[3:]) + 3
    bits = odd >> 1 >> np.arange(P.bit_length())[:, None] & 1  # pi(P) log2(P) ~ 1.44 P
    return spf, n // np.maximum(spf, 1), odd, bits.astype(bool)


def _chi(D: int, N: int) -> np.ndarray:
    """kronecker(D, n), n <= N: Euler's criterion on odd primes, D mod 8 at 2, then
    chi(spf n) chi(n/spf n) by dyadic blocks of n, as n/spf n <= n/2 is in an earlier one."""
    if N > _INT64_ROOT or D > _INT64_ROOT**2:
        raise ArithmeticError(f"{N} terms at D={D} overflow int64 in Euler's criterion")
    spf, cof, odd, bits = _sieve(1 << (N - 1).bit_length())  # the power of two >= N
    q = odd[: np.searchsorted(odd, N, "right")]
    a, r = D % q, np.ones_like(q)
    for bit in bits[: (N >> 1).bit_length(), : len(q)]:  # (q-1)/2 < N/2
        r = np.where(bit, r * a % q, r)
        a = a * a % q
    chi = np.zeros(N + 1, dtype=np.int8)
    chi[1], chi[2:3] = 1, {1: 1, 5: -1}.get(D % 8, 0)
    chi[q] = (r == 1).astype(np.int8) - (r == q - 1)
    for k in range(2, N.bit_length()):
        lo, hi = 1 << k, min(2 << k, N + 1)
        chi[lo:hi] = chi[spf[lo:hi]] * chi[cof[lo:hi]]
    return chi


@lru_cache(maxsize=1024)
def class_number(D: int) -> int:
    """Narrow class number of the fundamental discriminant D > 0.

    The wide class number h comes from the analytic class number formula
    in its rapidly convergent form (Cohen, GTM 138, sec. 5.6),

        2 h R = sum_{n >= 1} chi(n) * ((sqrt(D)/n) erfc(n sqrt(pi/D)) + E1(pi n^2/D)),

    with chi(n) = kronecker(D, n) and R = log(eps) from the exact unit.
    The sum stops at the least N whose tail bound is below R/8; the
    tail, the E1 approximation and the float rounding are bounded
    explicitly, and the result is refused (ArithmeticError) unless that
    bound leaves h as the only integer within 1/2 of the sum / (2R).
    About sqrt(D) terms, in numpy arrays.  The narrow number is 2h when
    N(eps) = +1.
    """
    _check_fundamental(D)
    eps = fundamental_unit(D // 4 if D % 4 == 0 else D)
    R = _regulator(eps)

    # least N with _tail_bound(N, D) <= R/8 (the bound falls with N)
    lo, N = 0, 1
    while _tail_bound(N, D) > R / 8:
        lo, N = N, 2 * N
    while N - lo > 1:
        mid = (lo + N) // 2
        lo, N = (lo, mid) if _tail_bound(mid, D) <= R / 8 else (mid, N)

    chi = _chi(D, N)
    n = np.flatnonzero(chi)
    rootD, step, scale = sqrt(D), sqrt(pi / D), pi / D
    x = scale * n * n
    xs, xl = np.split(x, [np.searchsorted(x, 1, "right")])  # x rises with n
    e1 = np.concatenate((np.polyval(_E1_SMALL, xs) - np.log(xs), np.exp(-xl) / xl
                         * np.polyval(_E1_NUM, xl) / np.polyval(_E1_DEN, xl)))
    t = rootD / n * np.fromiter(map(erfc, (step * n).tolist()), float, len(n)) + e1
    total, size = float((chi[n] * t).sum()), float(t.sum())
    y = total / (2 * R)
    # Float rounding, relative to the sum of |terms|: numpy's pairwise sums
    # lose less than a recursive sum's N machine epsilons, and one term at
    # most 256 plus 2x (erfc and exp amplify their argument's error by about
    # x = pi n^2/D).  R's relative error carries over to y.
    rounding = (N + 2 * scale * N * N + 256) * _MACHINE_EPS * size
    err = (_tail_bound(N, D) + _E1_ERR * N + rounding) / (2 * R) + 1e-13 * abs(y)
    h = round(y)
    if not (err < 0.5 and abs(y - h) <= err and h >= 1):
        raise ArithmeticError(
            f"analytic class number not separated at D={D}: "
            f"sum/(2R) = {y!r}, error bound {err:.3g}")
    return 2 * h if eps.norm() == 1 else h


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


def _ideal_walk(A: int, B: int, D: int) -> list[tuple[int, int]] | None:
    """Reduction steps of [A, (B+sqrt(D))/2] down to the unit ideal.

    Step i multiplies the ideal [A_i, w_i], w_i = (B_i+sqrt(D))/2, by
    c_i / w_i with c_i = (B_i^2-D)/(4 A_i), and records (c_i, B_(i+1)).
    Returns the steps, or None when the walk closes a cycle first (ideal
    not principal in the wide sense).
    """
    s = isqrt(D)
    seen: set[tuple[int, int]] = set()
    steps: list[tuple[int, int]] = []
    while A != 1:
        if (A, B) in seen:
            return None
        if A <= s:
            seen.add((A, B))
        c = (B * B - D) // (4 * A)
        A = abs(c)
        # B' = -B (mod 2A'), normalized into the reduction window
        if A > s:
            t = (-B) % (2 * A)
            B = t - 2 * A if t > A else t
        else:
            B = s - (s + B) % (2 * A)
        steps.append((c, B))
        if len(steps) > _MAX_WALK:
            raise ArithmeticError("ideal walk did not terminate")
    return steps


def class_order(D: int, q: int, h: int) -> int:
    """Order of the first prime above split q, in the wide sense; divides h."""
    _check_fundamental(D)
    found = _principal_power(D, q, divisors(h))
    if found is None:
        raise ArithmeticError("class order does not divide the class number")
    return found[0]


def _unit_reduce(x: QuadElem, m: int) -> QuadElem:
    """Smallest |trace| representative of x modulo the fundamental unit."""
    eps = fundamental_unit(m)
    eps_inv = eps.conjugate() if eps.norm() == 1 else -eps.conjugate()

    for step in (eps_inv, eps):
        while abs((y := x * step).trace()) < abs(x.trace()):
            x = y
    if x.a < 0:
        x = -x
    return x


def _principal_power(D: int, q: int, exponents: Sequence[int],
                     s: int | None = None) -> tuple[int, QuadElem] | None:
    """First k in `exponents` with p^k principal, and a generator alpha.

    p is the first prime above q, an odd split prime that is not checked
    here (`represent` checks it).  (alpha) = p^k, |norm(alpha)| = q^k, and
    alpha is reduced modulo units with positive trace.  None if no p^k is.
    One root s of m mod q^K, K > max(exponents), lifted here unless passed, serves every k.
    """
    m = D // 4 if D % 4 == 0 else D
    s = hensel_sqrt(m, q, max(exponents) + 1) if s is None else s
    for k in exponents:
        A, B = q**k, _canonical_root(D, q, k, s)
        steps = _ideal_walk(A, B, D)
        if steps is None:
            continue
        # P_i = gamma_i*A_i and Q_i = gamma_i*w_i as (x + y*sqrt(D))/2, with
        # gamma_i = prod_{j<i} w_j/c_j.  As B_(i+1) = 2 c_i t_i - B_i,
        # w_i*w_(i+1)/c_i = t_i*w_i - A_i: P -> sign(c_i)*Q, Q -> t_i*Q - P,
        # and gamma = P once A = 1.  No gcd; make_elem refuses a non-integer.
        px, py, qx, qy = 2 * A, 0, B, 1
        for c, b2 in steps:
            t = (B + b2) // (2 * c)
            px, py, qx, qy = qx, qy, t * qx - px, t * qy - py
            if c < 0:
                px, py = -px, -py
            B = b2
        alpha = make_elem(px, py * (2 if D % 4 == 0 else 1), 2, m)
        if abs(alpha.norm()) != A:
            raise ArithmeticError("generator has the wrong norm")
        alpha = _unit_reduce(alpha, m)
        # the walk targeted the canonical prime; double-check the support
        r1 = embed(alpha, s, q, k + 1).r1
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
