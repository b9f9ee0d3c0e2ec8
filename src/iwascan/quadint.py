"""Exact arithmetic in real quadratic orders Z[sqrt(m)] / Z[(1+sqrt(m))/2].

Elements are stored as (a + b*sqrt(m)) / den with den in {1, 2}; den = 2
is only legal in the maximal order of Q(sqrt(m)) for m = 1 (mod 4), with
a and b of equal parity.  The canonical representative always has den = 1
when both coordinates are even.

For a prime p split in the field, `residues`, the package's one residue
formula, maps an element in the plain form (A, B) of (A + B*sqrt(m))/2 to
its pair of residues modulo p^N under sqrt(m) -> s and sqrt(m) -> -s, where
s is the Hensel root of `_lift_sqrt` (cached as `hensel_sqrt`).  The
labelling of the two primes above p is fixed once and for all by the choice
s = s0 (mod p) with s0 the smallest positive square root of m mod p, found
once per class (m mod p, p) by `_least_root`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import sqrt_mod_prime


@dataclass(frozen=True)
class QuadElem:
    """(a + b*sqrt(m)) / den, an element of the maximal order of Q(sqrt(m))."""

    a: int
    b: int
    den: int
    m: int

    def __post_init__(self) -> None:
        if self.den not in (1, 2):
            raise ValueError("den must be 1 or 2")
        if self.den == 2:
            if self.m % 4 != 1:
                raise ValueError("den=2 needs m = 1 (mod 4)")
            if (self.a - self.b) % 2 != 0:
                raise ValueError("den=2 needs a = b (mod 2)")

    def __repr__(self) -> str:
        core = f"{self.a} + {self.b}*sqrt({self.m})"
        return f"({core})/2" if self.den == 2 else core

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        if self.m != other.m:
            raise ValueError("mixed fields")
        a = self.a * other.a + self.b * other.b * self.m
        b = self.a * other.b + self.b * other.a
        return make_elem(a, b, self.den * other.den, self.m)

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.a, -self.b, self.den, self.m)

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.den, self.m)

    def norm(self) -> int:
        num = self.a * self.a - self.m * self.b * self.b
        q, r = divmod(num, self.den * self.den)
        if r:
            raise ArithmeticError("norm of an integral element must be an integer")
        return q

    def coords(self) -> tuple[int, int]:
        """(A, B) with self = (A + B*sqrt(m))/2, the plain form of `pell` and `fermat`."""
        return 2 * self.a // self.den, 2 * self.b // self.den

    def trace(self) -> int:
        q, r = divmod(2 * self.a, self.den)
        if r:
            raise ArithmeticError("trace of an integral element must be an integer")
        return q


def make_elem(a: int, b: int, den: int, m: int) -> QuadElem:
    """Build a QuadElem in canonical form (den=2 halved away when possible)."""
    if m <= 1:
        raise ValueError("m must be a squarefree integer > 1")
    if den == 4:
        # product of two half-integer elements; always reducible to den<=2
        if a % 2 or b % 2:
            raise ValueError("non-integral element")
        a, b, den = a // 2, b // 2, 2
    if den == 2 and a % 2 == 0 and b % 2 == 0:
        a, b, den = a // 2, b // 2, 1
    return QuadElem(a, b, den, m)


@dataclass(frozen=True)
class QuadResidue:
    """Image of an element under both embeddings into Z/p^N.

    r1 is the residue with sqrt(m) -> s, r2 the one with sqrt(m) -> -s.
    r1 * r2 = norm of the source element (mod p^N).
    """

    r1: int
    r2: int
    modulus: int


@lru_cache(maxsize=1024)
def _least_root(r: int, p: int) -> tuple[int, int]:
    """(s0, 1/(2 s0) mod p), s0 the least positive root of r mod the odd prime p, 0 < r < p:
    Tonelli-Shanks and its (r/p) run once per class (ValueError for a non-residue)."""
    s = sqrt_mod_prime(r, p)
    s = min(s, p - s)
    return s, pow(2 * s, -1, p)


def _lift_sqrt(m: int, p: int, N: int) -> int:
    """The square root s of m modulo p^N with s = s0 (mod p).

    s0 is the smallest positive root mod p, which fixes the labelling of
    the two primes above p everywhere in the package.  p must be odd and
    split (ValueError): p = 2 and p | m are refused here, an inert p by `sqrt_mod_prime`.
    Uncached: a field's first lift is never asked for again.
    """
    if p == 2 or m % p == 0:
        raise ValueError(f"p={p} does not split in Q(sqrt({m}))")
    if N < 1:
        raise ValueError("N must be >= 1")
    s, t = _least_root(m % p, p)
    mod = p**N
    for _ in range(N - 1):
        # s <- s - (s^2 - m)/(2 s0): as t = 1/(2s) mod p, each step fixes one more digit
        s = (s - (s * s - m) * t) % mod
    if (s * s - m) % mod:
        raise ArithmeticError(f"Hensel lift did not give a root of {m} mod {p}^{N}")
    return s


@lru_cache(maxsize=4096)
def hensel_sqrt(m: int, p: int, N: int) -> int:
    """`_lift_sqrt` behind a bounded cache, for the re-lifts past a context's p^N."""
    return _lift_sqrt(m, p, N)


def residues(x: tuple[int, int], s: int, mod: int) -> tuple[int, int]:
    """The residues of x = (A + B*sqrt(m))/2 mod an odd `mod` under sqrt(m) -> s and -s."""
    (A, B), half = x, (mod + 1) // 2
    bs = B * s
    return (A + bs) * half % mod, (A - bs) * half % mod
