"""Fermat-quotient valuations delta at the primes above a split odd p.

For x prime to the prime P above p, delta_P(x) + 1 is the valuation of
x^(p-1) - 1 at P (non-units get their P-part divided out first).
`delta_embed` reads the valuation straight off the two residues of x under
the labelled embeddings (`quadint.residues`), from the context's root of m
when its p^N suffices and from a cached re-lift when it does not.  (The
tests check it against an independent route through the S-unit Bezout
associate of x.)

A computation can only certify delta < n; larger values surface as a
`Capped` marker.  `delta_exact` retries at doubled n up to N_CAP and
raises ArithmeticError for a value still capped there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import valuation
from .quadint import QuadElem, hensel_sqrt, residues
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
    delta2: Delta
    n: int


def _delta_of_residue(r: int, p: int, n: int, extra: int) -> Delta:
    """delta of one embedding residue, given r mod p^(n+1+extra) with v_p(r) <= extra."""
    v = 0
    while r % p == 0:  # r = 0 too: its valuation is past what the precision shows
        if v == extra:
            raise ValueError("residue precision too low for the valuation")
        r //= p
        v += 1
    y = pow(r, p - 1, p ** (n + 1))
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
    extra = valuation(nrm, p) if (nrm := x.norm()) % p == 0 else 0
    prec = n + 1 + extra
    s = ctx.s if prec <= ctx.N else hensel_sqrt(ctx.m, p, prec)
    r1, r2 = residues(x, s, p**prec)
    return DeltaReport(_delta_of_residue(r1, p, n, extra), _delta_of_residue(r2, p, n, extra), n)


def delta_exact(x: QuadElem, ctx: FieldContext, n: int = 1) -> DeltaReport:
    """delta_embed from min(n, N_CAP), n doubled while a value is capped, up to N_CAP."""
    n = min(n, N_CAP)  # a larger start would only lift further and cap later
    rep = delta_embed(x, ctx, n)
    while isinstance(rep.delta1, Capped) or isinstance(rep.delta2, Capped):
        if n >= N_CAP:
            raise ArithmeticError(f"delta >= {n} for m={ctx.m}, p={ctx.p}")
        n = min(2 * n, N_CAP)
        rep = delta_embed(x, ctx, n)
    return rep
