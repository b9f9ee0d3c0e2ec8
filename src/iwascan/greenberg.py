"""Field-level vanishing test and range scans.

For a real quadratic field in which the odd prime p splits, the invariants
vanish as soon as (a) the p-part of the class number is already carried by
the class of a prime above p, and (b) the relevant S-units are not normic,
i.e. min(delta(eps), delta(pi)) = 0.  `check_field` evaluates both halves
and reports the witnessing quantities; `scan_range` repeats this over all
admissible m in an interval, for several primes at once, handing each
field's cycle record and h down.  `map_blocks` is the package's one
process pool: both scans hand it fixed work items.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from .arith import is_squarefree, kronecker, valuation
from .fermat import delta_exact
from .pell import _cycle_record
from .qforms import class_numbers
from .sunits import (FieldContext, UsageError, build_context, field_context,
                     validate_discriminant, validate_prime)


@dataclass(frozen=True)
class FieldVerdict:
    """Everything `check_field` learns about one (m, p)."""

    m: int
    p: int
    h: int
    h0: int
    v_p_h: int
    delta_eps: int
    delta_pi: int
    class_ok: bool
    normic_ok: bool
    resolved: bool
    torsion_v: int

    @property
    def z_eps(self) -> Fraction:
        return Fraction(1, self.p**self.delta_eps)

    @property
    def z_pi(self) -> Fraction:
        return Fraction(1, self.p**self.delta_pi)


def check_field(m: int, p: int, n0: int = 1) -> FieldVerdict:
    """Run the vanishing test for Q(sqrt(m)) at p.

    n0 is only the starting precision; `delta_exact` recomputes deltas that
    exceed it at doubled precision, so the verdict does not depend on n0.
    """
    return _verdict(build_context(m, p), n0)


def _verdict(ctx: FieldContext, n0: int) -> FieldVerdict:
    """The vanishing test on the field data of `ctx`, deltas started at n0."""
    rep = delta_exact(ctx.eps, ctx, n0)
    if rep.delta1 != rep.delta2:
        raise ArithmeticError(f"unit deltas differ at the two primes for m={ctx.m}, p={ctx.p}")
    delta_eps = rep.delta1
    # delta at the first prime of the conjugate generator; multiplying by
    # units can only move it when it ties delta_eps, and never below the
    # min, so min(delta_eps, delta_pi) is convention-free.
    delta_pi = delta_exact(ctx.pi2, ctx, n0).delta1

    v_p_h = valuation(ctx.h, ctx.p)
    class_ok = v_p_h == valuation(ctx.h0, ctx.p)
    normic_ok = min(delta_eps, delta_pi) == 0
    return FieldVerdict(
        m=ctx.m, p=ctx.p, h=ctx.h, h0=ctx.h0, v_p_h=v_p_h,
        delta_eps=delta_eps, delta_pi=delta_pi,
        class_ok=class_ok, normic_ok=normic_ok,
        resolved=class_ok and normic_ok,
        torsion_v=v_p_h + delta_eps,
    )


def _real_field(m: int) -> bool:
    """True when Q(sqrt(m)) is a real quadratic field of radicand m; an m whose
    discriminant is past the class number's range is refused before it is factored."""
    if m > 1:
        validate_discriminant(m)
    return m > 1 and is_squarefree(m)


def admissible(m: int, p: int) -> bool:
    """True when Q(sqrt(m)) is a real quadratic field where p splits."""
    return _real_field(m) and kronecker(m, p) == 1


_AHEAD = 4  # blocks in flight per pool worker: enough to keep each busy
_CHUNK = 100  # m-values per work item: small, so a pool balances costs rising with m


def map_blocks(fn, blocks: Iterable, workers: int) -> Iterator:
    """fn(b) for b in blocks, yielded in order: in-process at one worker or below two
    blocks, else on one pool of min(workers, usable CPUs), _AHEAD lazy blocks per worker."""
    if workers < 1:
        raise UsageError("workers must be >= 1")
    blocks = iter(blocks)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    head = list(islice(blocks, min(workers, cpus or 1)))
    if len(head) < 2:
        yield from map(fn, chain(head, blocks))
        return
    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        ahead = chain(head, islice(blocks, (_AHEAD - 1) * len(head)))
        flight = [pool.submit(fn, b) for b in ahead]
        while flight:
            flight += [pool.submit(fn, b) for b in islice(blocks, 1)]
            yield flight.pop(0).result()


def _scan_block(args: tuple[tuple[int, ...], int, int, int]) -> list[FieldVerdict]:
    # m is tested once per block, its splitting once per prime.  Each admissible m gets
    # one cycle record, which holds its unit, and h from one batch; both serve every prime.
    primes, lo, hi, n0 = args
    fields = [(m, split) for m in range(lo, hi + 1) if _real_field(m)
              if (split := [p for p in primes if kronecker(m, p) == 1])]
    records = [_cycle_record(m) for m, _ in fields]
    hs = class_numbers([record.eps for record in records])
    return [_verdict(field_context(record, p, h), n0)
            for (_, split), record, h in zip(fields, records, hs) for p in split]


@dataclass(frozen=True)
class ScanResult:
    p: int
    m_min: int
    m_max: int
    tested: int
    resolved: int
    rows: tuple[FieldVerdict, ...]


def scan_range(primes: tuple[int, ...], m_min: int, m_max: int, n0: int = 1,
               workers: int = 1) -> tuple[ScanResult, ...]:
    """Every admissible m in [m_min, m_max] at each prime: one ScanResult
    per prime, in the given order, with rows m-ascending.  The m-range is
    cut into blocks of _CHUNK values, each checked at every prime, m
    outermost, by `map_blocks` on `workers` processes."""
    if m_min > m_max:
        raise UsageError("empty range")
    if not primes or len(set(primes)) < len(primes):
        raise UsageError("need at least one prime, none repeated")
    for p in primes:  # even when no m in the range is admissible at p
        validate_prime(p)
    blocks = ((primes, lo, min(lo + _CHUNK - 1, m_max), n0)
              for lo in range(m_min, m_max + 1, _CHUNK))
    rows: dict[int, list[FieldVerdict]] = {p: [] for p in primes}
    for part in map_blocks(_scan_block, blocks, workers):
        for r in part:
            rows[r.p].append(r)
    return tuple(ScanResult(p=p, m_min=m_min, m_max=m_max, tested=len(rs),
                            resolved=sum(r.resolved for r in rs), rows=tuple(rs))
                 for p, rs in rows.items())
