"""Class numbers, class orders and generators in real quadratic fields.

D is a fundamental discriminant > 0 and m = D or D/4 the squarefree
radicand.  `class_number` evaluates the analytic class number formula
in about sqrt(D) terms with the regulator of the exact fundamental unit,
under an explicit error bound that must separate h from every other
integer, or it raises ArithmeticError.

`class_order` and `represent` work in the *wide* sense (the reduction
walk runs on positive-norm ideals and ignores the sign of the leading
coefficient), because a prime-power ideal is what gets tested for
principality and a generator of either norm sign is acceptable.  Both
rest on one mechanism, `_ideal_walk`.  The k-th power of the first
prime above a split q is the ideal [q^k, (b_k+sqrt(D))/2], with b_k from
`_canonical_root`.  Each reduction step [a, (b+sqrt(D))/2] ->
[|c|, (b'+sqrt(D))/2] multiplies the ideal by c / ((b+sqrt(D))/2); the
ideal is principal iff the walk reaches the unit ideal, and the
accumulated factor is then its generator (Cohen, GTM 138, ch. 5).
"""

from __future__ import annotations

from functools import lru_cache
from math import erfc, exp, expm1, gcd, isqrt, log, pi, sqrt

from .arith import divisors, is_prime, is_squarefree, kronecker, valuation
from .pell import fundamental_unit
from .quadint import QuadElem, embed, hensel_sqrt, make_elem

_MAX_WALK = 10**6


def _window_b(b: int, half: int, s: int) -> int:
    """Normalized b' = -b (mod 2*half) in the reduction window."""
    if half > s:
        t = (-b) % (2 * half)
        return t - 2 * half if t > half else t
    return s - ((s + b) % (2 * half))


def _check_fundamental(D: int) -> None:
    if D <= 0 or isqrt(D) ** 2 == D:
        raise ValueError("discriminant must be positive and nonsquare")
    if D % 4 not in (0, 1):
        raise ValueError(f"D={D} is not a discriminant")
    m = D // 4 if D % 4 == 0 else D
    if (D % 4 == 0 and m % 4 == 1) or not is_squarefree(m):
        raise ValueError(f"D={D} is not fundamental")


# Abramowitz-Stegun 5.1.53 on 0 < x <= 1 and 5.1.56 on x >= 1.  Both
# leave an absolute error in E1(x) below _E1_ERR (5.1.56 bounds the error
# of x*e^x*E1(x) by 2e-8, i.e. of E1(x) by 2e-8*e^-x/x < 2e-7).
_E1_SMALL = (-0.57721566, 0.99999193, -0.24991055, 0.05519968, -0.00976004,
             0.00107857)
_E1_NUM = (8.5733287401, 18.0590169730, 8.6347608925, 0.2677737343)
_E1_DEN = (9.5733223454, 25.6329561486, 21.0996530827, 3.9584969228)
_E1_ERR = 2e-7
_MACHINE_EPS = 2.0**-52


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
    About sqrt(D) terms.  The narrow number is 2h when N(eps) = +1.
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

    # chi is completely multiplicative: kronecker on primes only, the
    # rest from the smallest prime factor.  Writing q = isqrt(N)..2 in
    # descending order leaves the smallest divisor; 0 marks a prime.
    spf = [0] * (N + 1)
    for q in range(isqrt(N), 1, -1):
        spf[q * q :: q] = [q] * ((N - q * q) // q + 1)
    chi = [0] * (N + 1)
    chi[1] = 1
    a0, a1, a2, a3, a4, a5 = _E1_SMALL
    c1, c2, c3, c4 = _E1_NUM
    d1, d2, d3, d4 = _E1_DEN
    rootD, step, scale = sqrt(D), sqrt(pi / D), pi / D
    total = size = 0.0
    for n in range(1, N + 1):
        if n > 1:
            q = spf[n]
            chi[n] = chi[q] * chi[n // q] if q else kronecker(D, n)
        c = chi[n]
        if not c:
            continue
        x = scale * n * n
        if x <= 1:
            e1 = (((((a5 * x + a4) * x + a3) * x + a2) * x + a1) * x + a0) - log(x)
        else:
            e1 = (exp(-x) / x * ((((x + c1) * x + c2) * x + c3) * x + c4)
                  / ((((x + d1) * x + d2) * x + d3) * x + d4))
        t = rootD / n * erfc(step * n) + e1
        total += t if c > 0 else -t
        size += t

    y = total / (2 * R)
    # Float rounding, relative to the sum of |terms|: recursive summation
    # loses at most N machine epsilons, and one term at most 256 plus 2x
    # (erfc and exp amplify their argument's error by about x = pi n^2/D).
    # R's relative error carries over to y.
    rounding = (N + 2 * scale * N * N + 256) * _MACHINE_EPS * size
    err = (_tail_bound(N, D) + _E1_ERR * N + rounding) / (2 * R) + 1e-13 * abs(y)
    h = round(y)
    if not (err < 0.5 and abs(y - h) <= err and h >= 1):
        raise ArithmeticError(
            f"analytic class number not separated at D={D}: "
            f"sum/(2R) = {y!r}, error bound {err:.3g}")
    return 2 * h if eps.norm() == 1 else h


def _canonical_root(D: int, q: int, k: int) -> int:
    """b with b^2 = D (mod 4 q^k), b = -e*s (mod q^k), b = D (mod 2).

    e*s is the canonical image of sqrt(D) under the labelled embedding
    (s the Hensel root of m = D or D/4), so the ideal [q^k, (b+sqrt(D))/2]
    is the k-th power of the *first* prime above q.
    """
    m = D // 4 if D % 4 == 0 else D
    e = 2 if D % 4 == 0 else 1
    s = hensel_sqrt(m, q, k)
    qk = q**k
    b = (-e * s) % qk
    if (b - D) % 2:
        b += qk  # q odd, so this flips the parity
    b %= 2 * qk
    if (b * b - D) % (4 * qk):
        raise ArithmeticError("canonical root does not solve b^2 = D (mod 4q^k)")
    return b


def _ideal_walk(A: int, B: int, D: int, want_gamma: bool):
    """Walk [A, (B+sqrt(D))/2] through reduction steps to the unit ideal.

    Returns the accumulated factor (gA, gB, gC) meaning (gA + gB*sqrt(m))/gC
    with J = gamma * O once A = 1 is reached, or None when the walk closes
    a cycle first (ideal not principal in the wide sense).
    """
    m = D // 4 if D % 4 == 0 else D
    e = 2 if D % 4 == 0 else 1
    s = isqrt(D)
    gA, gB, gC = 1, 0, 1
    seen: set[tuple[int, int]] = set()
    steps = 0
    while A != 1:
        if (A, B) in seen:
            return None
        if A <= s:
            seen.add((A, B))
        c = (B * B - D) // (4 * A)
        b2 = _window_b(B, abs(c), s)
        if want_gamma:
            # gamma *= (B + sqrt(D))/2 / c, with sqrt(D) = e*sqrt(m)
            gA, gB = gA * B + gB * e * m, gA * e + gB * B
            gC *= 2 * c
            if gC < 0:
                gA, gB, gC = -gA, -gB, -gC
            g = gcd(gcd(gA, gB), gC)
            if g > 1:
                gA, gB, gC = gA // g, gB // g, gC // g
        A, B = abs(c), b2
        steps += 1
        if steps > _MAX_WALK:
            raise ArithmeticError("ideal walk did not terminate")
    return gA, gB, gC


def class_order(D: int, q: int, h: int) -> int:
    """Order of the first prime above split q, in the wide sense; divides h."""
    _check_fundamental(D)
    for d in divisors(h):
        if _ideal_walk(q**d, _canonical_root(D, q, d), D, want_gamma=False) is not None:
            return d
    raise ArithmeticError("class order does not divide the class number")


def _unit_reduce(x: QuadElem, m: int) -> QuadElem:
    """Smallest |trace| representative of x modulo the fundamental unit."""
    eps = fundamental_unit(m)
    eps_inv = eps.conjugate() if eps.norm() == 1 else -eps.conjugate()

    def height(y: QuadElem) -> int:
        return abs(y.trace())

    for step in (eps_inv, eps):
        while True:
            y = x * step
            if height(y) < height(x):
                x = y
            else:
                break
    if x.a < 0:
        x = -x
    return x


def represent(D: int, q: int, k: int) -> QuadElem | None:
    """Generator of p^k, with p the first prime above q.

    q must be an odd prime split in the order and k >= 1; the caller
    passes what it already knows instead of a norm to factor.  Returns
    alpha with |norm(alpha)| = q^k and (alpha) = p^k, reduced modulo
    units and with positive trace, or None when p^k is not
    (wide-)principal.
    """
    _check_fundamental(D)
    if k < 1:
        raise ValueError(f"exponent k={k} must be >= 1")
    if q == 2 or not is_prime(q) or kronecker(D, q) != 1:
        raise ValueError(f"q={q} is not an odd split prime for D={D}")

    m = D // 4 if D % 4 == 0 else D
    res = _ideal_walk(q**k, _canonical_root(D, q, k), D, want_gamma=True)
    if res is None:
        return None
    gA, gB, gC = res
    if gC not in (1, 2):
        raise ArithmeticError("generator is not integral")
    alpha = make_elem(gA, gB, gC, m)
    if abs(alpha.norm()) != q**k:
        raise ArithmeticError("generator has the wrong norm")
    alpha = _unit_reduce(alpha, m)

    # the walk targeted the canonical prime; double-check the support
    s = hensel_sqrt(m, q, k + 1)
    r1 = embed(alpha, s, q, k + 1).r1
    if (valuation(r1, q) if r1 else k + 1) != k:
        raise ArithmeticError("generator supports the wrong prime")
    return alpha
