"""Elementary number-theoretic helpers shared by the whole package.

Everything here works on plain Python ints; nothing imports the rest of
the package, so these are safe to use from any module.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from functools import lru_cache

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# psi_k: the least strong pseudoprime to the first k bases (OEIS A014233; Jaeschke
# 1993, Jiang-Deng 2014, Sorenson-Webster 2015), so k bases prove every n < psi_k.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
           341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, on only the bases n needs."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_PSI[-1]:
        raise ValueError(f"deterministic witness set not valid for {n}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:  # the least k with n < psi_k
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    # strip the even part of n; (a/2) is 0 for even a, else +-1 via a mod 8
    t = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    # now n odd positive: Jacobi symbol with reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  valuation(0, p) raises."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Raises ValueError when a is a non-residue.  Returns a root in
    [0, p); the caller picks which of the two roots it wants.
    """
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for the sizes we use)."""
    if n <= 0:
        raise ValueError("factorize wants a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


@lru_cache(maxsize=1024)
def is_squarefree(n: int) -> bool:
    """True when no prime square divides n >= 1.

    Cached because one field's m is checked in turn by the scan filter,
    `validate_field`, `fundamental_unit` and `qforms`; it is factored once.
    """
    if n < 1:
        return False
    for p, e in factorize(n).items():
        if e > 1:
            return False
    return True


def teichmuller(p: int, k: int) -> Iterator[int]:
    """The p-1 roots of x^(p-1) = 1 (mod p^k) for odd prime p, yielded one at
    a time: the lifts a^(p^(k-1)) mod p^k of a = 1..p-1, the lift of a = a (mod p)."""
    e, mod = p ** (k - 1), p**k
    return (pow(a, e, mod) for a in range(1, p))
