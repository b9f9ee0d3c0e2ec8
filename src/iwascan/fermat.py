"""Fermat-quotient valuations delta at the primes above a split odd p.

For x prime to the prime P above p, delta_P(x) + 1 is the valuation of
x^(p-1) - 1 at P (non-units get their P-part divided out first).
`_deltas` reads it straight off the two residues of x = (A + B*sqrt(m))/2,
plain ints, under the labelled embeddings, from the root of m when its p^N
suffices and from a cached re-lift when it does not, v_p(N(x)) passed in
once.  `delta_embed` and `delta_exact` take a `QuadElem` and a context.
(The tests check it against an independent route through the S-unit
Bezout associate of x.)  A computation can only certify delta < n; larger
values surface as a `Capped` marker.  `_deltas_exact` retries at doubled n
up to N_CAP and raises ArithmeticError for a value still capped there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import valuation
from .quadint import QuadElem, hensel_sqrt
from .sunits import FieldContext

N_CAP = 64


@dataclass(frozen=True)
class Capped:
    """delta is >= n but the precision window ended there."""

    n: int

    def __repr__(self) -> str:
        return f"CAPPED({self.n})"


Delta = int | Capped
Root = tuple[int, int, int, int]  # (m, p, s, N): s = sqrt(m) mod p^N


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
    y = pow(r, p - 1, p ** (n + 1)) - 1  # = 0 (mod p), by Fermat
    return valuation(y, p) - 1 if y else Capped(n)


def _deltas(x: tuple[int, int], e: int, root: Root, n: int) -> tuple[Delta, Delta]:
    """delta at both primes above p of x = (A + B*sqrt(m))/2, v_p(N(x)) = e, certified
    below n, from root = (m, p, s, N), s = sqrt(m) mod p^N (re-lifted when too short)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    (A, B), (m, p, s, N) = x, root
    mod = p ** (prec := n + 1 + e)
    bs = B * (s if prec <= N else hensel_sqrt(m, p, prec))
    half = (mod + 1) // 2
    return (_delta_of_residue((A + bs) * half % mod, p, n, e),
            _delta_of_residue((A - bs) * half % mod, p, n, e))


def _deltas_exact(x: tuple[int, int], e: int, root: Root, n: int) -> tuple[int, int, int]:
    """(delta1, delta2, n): `_deltas` from min(n, N_CAP), n doubled while a value is
    capped, up to N_CAP, where a value still capped raises ArithmeticError."""
    n = min(n, N_CAP)  # a larger start would only lift further and cap later
    while True:
        d1, d2 = _deltas(x, e, root, n)
        if not (isinstance(d1, Capped) or isinstance(d2, Capped)):
            return d1, d2, n
        if n >= N_CAP:
            raise ArithmeticError(f"delta >= {n} for m={root[0]}, p={root[1]}")
        n = min(2 * n, N_CAP)


def _plain(x: QuadElem, ctx: FieldContext) -> tuple[tuple[int, int], int, Root]:
    """x, v_p(N(x)) and the root of `ctx` in the plain form of `_deltas`."""
    if x.a == 0 and x.b == 0:
        raise ValueError("delta of 0 is undefined")
    p = ctx.p
    e = valuation(nrm, p) if (nrm := x.norm()) % p == 0 else 0
    return x.coords(), e, (ctx.m, p, ctx.s, ctx.N)


def delta_embed(x: QuadElem, ctx: FieldContext, n: int) -> DeltaReport:
    """delta of x at both primes above p, from the embedding residues."""
    return DeltaReport(*_deltas(*_plain(x, ctx), n), n)


def delta_exact(x: QuadElem, ctx: FieldContext, n: int = 1) -> DeltaReport:
    """delta_embed from min(n, N_CAP), n doubled while a value is capped, up to N_CAP."""
    return DeltaReport(*_deltas_exact(*_plain(x, ctx), n))
