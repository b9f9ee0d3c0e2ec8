"""Fermat-quotient valuations delta at the primes above a split odd p.

For x prime to the prime P above p, delta_P(x) + 1 is the valuation of
x^(p-1) - 1 at P (non-units get their P-part divided out first).  Two
independent routes are implemented:

* `delta_embed` reads the valuation straight off the residue of x under
  the labelled embedding mod p^(n+1);
* `delta_bezout` builds the associate x' = U1*pi1^(n+1) + U2*pi2^(n+1)*x,
  congruent to x at the first prime and to 1 at the second, and recovers
  delta from the multiplicative order of norm(x')^(p-1) mod p^(n+1),
  which is p^(n-delta).

A computation can only certify delta < n; larger values surface as a
`Capped` marker and callers retry at doubled n (up to N_CAP).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import multiplicative_order_p_power, valuation
from .quadint import QuadElem, QuadResidue
from .sunits import FieldContext

N_CAP = 64


@dataclass(frozen=True)
class Capped:
    """delta is >= n but the precision window ended there."""

    n: int

    def __repr__(self) -> str:
        return f"CAPPED({self.n})"


Delta = int | Capped


@dataclass(frozen=True)
class DeltaReport:
    delta1: Delta
    delta2: Delta | None  # None when the method only sees the first prime
    n: int
    method: str  # "EMBED" or "BEZOUT"


@dataclass(frozen=True)
class AssociateWitness:
    """The Bezout data behind one delta_bezout computation."""

    xprime: QuadResidue
    normval: int
    order: int
    U1: QuadResidue
    U2: QuadResidue


def _delta_of_residue(r: int, p: int, n: int, extra: int) -> Delta:
    """delta of one embedding residue, given r mod p^(n+1+extra)."""
    mod = p ** (n + 1)
    if r % p == 0:
        v = valuation(r, p) if r else extra + n + 1
        if v > extra:
            raise ValueError("residue precision too low for the valuation")
        r //= p**v
    y = pow(r, p - 1, mod)
    if y == 1:
        return Capped(n)
    return valuation(y - 1, p) - 1


def delta_embed(x: QuadElem, ctx: FieldContext, n: int) -> DeltaReport:
    """delta of x at both primes above p, from the embedding residues."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if x.a == 0 and x.b == 0:
        raise ValueError("delta of 0 is undefined")
    p = ctx.p
    extra = valuation(x.norm(), p) if x.norm() % p == 0 else 0
    res = ctx.embed(x, n + extra)
    d1 = _delta_of_residue(res.r1, p, n, extra)
    d2 = _delta_of_residue(res.r2, p, n, extra)
    return DeltaReport(delta1=d1, delta2=d2, n=n, method="EMBED")


def delta_exact(x: QuadElem, ctx: FieldContext, n: int = 1,
                n_cap: int = N_CAP) -> DeltaReport:
    """delta_embed with automatic doubling of n while a value is capped."""
    while True:
        rep = delta_embed(x, ctx, n)
        if not (isinstance(rep.delta1, Capped) or isinstance(rep.delta2, Capped)):
            return rep
        if n >= n_cap:
            return rep
        n = min(2 * n, n_cap)


def delta_bezout(x: QuadElem, ctx: FieldContext, n: int) -> tuple[AssociateWitness, DeltaReport]:
    """delta at the first prime via the S-unit associate of x.

    Follows the norm-residue computation exactly: U1, U2 satisfy
    U1*pi1^(n+1) + U2*pi2^(n+1) = 1 mod p^(n+1), the associate
    x' = U1*pi1^(n+1) + U2*pi2^(n+1)*x is = x at the first prime and
    = 1 at the second, and ord(norm(x')^(p-1)) = p^(n-delta).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = ctx.p
    mod = p ** (n + 1)
    t1 = ctx.embed(ctx.pi1, n).pow(n + 1)
    t2 = ctx.embed(ctx.pi2, n).pow(n + 1)
    if t1.r1 or t2.r2:
        raise ArithmeticError("pi powers must vanish mod p^(n+1)")
    U1 = QuadResidue(0, pow(t1.r2, -1, mod), mod)
    U2 = QuadResidue(pow(t2.r1, -1, mod), 0, mod)

    rx = ctx.embed(x, n)
    if rx.r1 % p == 0:
        raise ValueError("x must be prime to the first prime above p")
    a1 = U1.mul(t1)
    a2 = U2.mul(t2).mul(rx)
    xprime = QuadResidue((a1.r1 + a2.r1) % mod, (a1.r2 + a2.r2) % mod, mod)
    if xprime.r2 != 1:
        raise ArithmeticError("associate must be trivial at the second prime")
    normval = xprime.norm()
    y = pow(normval, p - 1, mod)
    order = multiplicative_order_p_power(y, p, mod)
    k = valuation(order, p) if order > 1 else 0
    delta: Delta = Capped(n) if order == 1 else n - k
    witness = AssociateWitness(xprime=xprime, normval=normval, order=order,
                               U1=U1, U2=U2)
    return witness, DeltaReport(delta1=delta, delta2=None, n=n, method="BEZOUT")


def check_product_dichotomy(x: QuadElem, ctx: FieldContext, n: int) -> str:
    """Both deltas of x agree below n, or both are >= n.

    Requires norm(x)^(p-1) = 1 mod p^(n+1); returns "equal" or "capped",
    and raises if the dichotomy fails (which would be a bug).
    """
    p, mod = ctx.p, ctx.p ** (n + 1)
    nx = x.norm()
    if nx % p == 0 or pow(nx, p - 1, mod) != 1:
        raise ValueError("norm(x)^(p-1) must be 1 mod p^(n+1)")
    rep = delta_embed(x, ctx, n)
    c1, c2 = isinstance(rep.delta1, Capped), isinstance(rep.delta2, Capped)
    if c1 and c2:
        return "capped"
    if not c1 and not c2 and rep.delta1 == rep.delta2:
        return "equal"
    raise ArithmeticError(f"dichotomy violated for {x}: {rep}")
