"""Class numbers, class orders and generators in real quadratic orders.

Forms (a, b, c) of positive nonsquare discriminant D = b^2 - 4ac.
`class_number` counts rho-cycles of reduced forms, i.e. proper (SL2)
classes, which is the narrow class number of the order.  `class_order`
and `represent` deliberately work in the *wide* sense instead (the
reduction walk runs on positive-norm ideals and ignores the sign of the
leading coefficient), because a prime-power ideal is what gets tested
for principality and a generator of either norm sign is acceptable.

Both rest on one mechanism, `_ideal_walk`.  The k-th power of the first
prime above a split q is the ideal [q^k, (b_k+sqrt(D))/2], with b_k from
`_canonical_root`.  Each reduction step [a, (b+sqrt(D))/2] ->
[|c|, (b'+sqrt(D))/2] multiplies the ideal by c / ((b+sqrt(D))/2); the
ideal is principal iff the walk reaches the unit ideal, and the
accumulated factor is then its generator (Cohen, GTM 138, ch. 5).
"""

from __future__ import annotations

from math import gcd, isqrt

from .arith import divisors, factorize, is_prime, kronecker, valuation
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
    if D % 4 == 1:
        fac = factorize(D)
    elif D % 4 == 0:
        m = D // 4
        if m % 4 == 1:
            raise ValueError(f"D={D} is not fundamental")
        fac = factorize(m)
    else:
        raise ValueError(f"D={D} is not a discriminant")
    if any(e > 1 for e in fac.values()):
        raise ValueError(f"D={D} is not fundamental")


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced forms of discriminant D (both signs of a)."""
    s = isqrt(D)
    out = []
    for b in range(2 - (D % 2), s + 1, 2):
        n = (D - b * b) // 4  # = |a|*|c|
        lo = (max(1, s - b + 1) + 1) // 2
        hi = (s + b) // 2
        for aa in range(lo, hi + 1):
            if n % aa == 0:
                c = -(n // aa)
                out.append((aa, b, c))
                out.append((-aa, b, -c))
    return out


def class_number(D: int) -> int:
    """Form class number: number of rho-cycles of reduced forms."""
    _check_fundamental(D)
    todo = set(reduced_forms(D))
    s = isqrt(D)
    cycles = 0
    while todo:
        start = next(iter(todo))
        cycles += 1
        cur = start
        while True:
            todo.discard(cur)
            a, b, c = cur
            b2 = _window_b(b, abs(c), s)
            cur = (c, b2, (b2 * b2 - D) // (4 * c))
            if cur == start:
                break
    return cycles


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
