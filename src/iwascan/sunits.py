"""Per-field context: unit, class data, and the S-unit generators above p.

`build_context` bundles everything the Fermat-quotient machinery needs
for one pair (m, p): the fundamental unit, the wide class number h, the
order h0 of the canonical prime above p in the class group, a generator
pi1 of that prime's h0-th power (norm +-p^h0), and the Hensel root s
fixing which prime is which, lifted once per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import divisors, is_prime, is_squarefree, kronecker, valuation
from .pell import fundamental_unit
from .qforms import _principal_power, class_numbers
from .quadint import QuadElem, QuadResidue, embed, hensel_sqrt


class PreconditionError(ValueError):
    """Raised when (m, p) violates the engine's standing hypotheses."""


class UsageError(ValueError):
    """Raised for a run parameter outside its range (a bad flag value)."""


@dataclass(frozen=True)
class FieldContext:
    m: int
    D: int
    p: int
    h: int           # wide class number
    eps: QuadElem
    s: int           # sqrt(m) mod p^N, in the canonical root class
    N: int           # precision exponent carried by s
    h0: int          # order of the canonical prime above p, wide sense
    pi1: QuadElem    # generator of that prime's h0-th power
    pi2: QuadElem    # its conjugate

    def embed(self, x: QuadElem, n: int | None = None) -> QuadResidue:
        """Residue pair of x mod p^(n+1) (defaults to the stored precision)."""
        prec = self.N if n is None else n + 1
        s = self.s % self.p**prec if prec <= self.N else hensel_sqrt(self.m, self.p, prec)
        return embed(x, s, self.p, prec)


def validate_prime(p: int) -> None:
    try:
        odd_prime = p != 2 and is_prime(p)
    except ValueError as exc:  # is_prime refuses past its Miller-Rabin witness range
        raise PreconditionError(f"p={p} is too large to prove prime") from exc
    if not odd_prime:
        raise PreconditionError(f"p={p} must be an odd prime")


def validate_field(m: int, p: int) -> None:
    if not (isinstance(m, int) and m > 1 and is_squarefree(m)):
        raise PreconditionError(f"m={m} must be a squarefree integer > 1")
    validate_prime(p)
    if kronecker(m, p) != 1:
        raise PreconditionError(f"p={p} is not split in Q(sqrt({m}))")


@lru_cache(maxsize=256)
def build_context(m: int, p: int, h: int | None = None) -> FieldContext:
    """Assemble the field data for (m, p), given its wide h or not; raises PreconditionError."""
    validate_field(m, p)
    D = m if m % 4 == 1 else 4 * m
    eps = fundamental_unit(m)
    h = class_numbers((D,))[0] if h is None else h
    # one lift serves the walks (up to p^(h+1)) and the context's p^N, N <= h+2
    s = hensel_sqrt(m, p, max(9, h + 2))
    found = _principal_power(D, p, divisors(h), s)
    if found is None:
        raise ArithmeticError("class order does not divide the class number")
    h0, pi1 = found
    N = max(9, h0 + 2)
    ctx = FieldContext(m=m, D=D, p=p, h=h, eps=eps, s=s % p**N, N=N, h0=h0,
                       pi1=pi1, pi2=pi1.conjugate())
    _check_context(ctx)
    return ctx


def _check_context(ctx: FieldContext) -> None:
    p, h0 = ctx.p, ctx.h0
    prod = ctx.pi1 * ctx.pi2
    if not (prod.b == 0 and abs(prod.a) == p**h0 and prod.den == 1):
        raise ArithmeticError("pi1 * pi2 is not +-p^h0")
    r = embed(ctx.pi1, ctx.s, p, ctx.N)
    if r.r1 % p**h0 or (r.r1 // p**h0) % p == 0:
        raise ArithmeticError("pi1 has the wrong valuation at the first prime")
    if r.r2 % p == 0:
        raise ArithmeticError("pi1 must be prime to the second prime")
    if ctx.h % ctx.h0 or valuation(ctx.h, p) < valuation(ctx.h0, p):
        raise ArithmeticError("h0 must divide h")
