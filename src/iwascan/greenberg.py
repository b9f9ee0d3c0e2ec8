"""Field-level vanishing test and range scans.

For a real quadratic field in which the odd prime p splits, the invariants
vanish as soon as (a) the p-part of the class number is already carried by
the class of a prime above p, and (b) the relevant S-units are not normic,
i.e. min(delta(eps), delta(pi)) = 0.  `check_field` evaluates both halves
and reports the witnessing quantities; `scan_range` repeats this over all
admissible m in an interval, for several primes at once, handing each
field's cycle record and h down.  A `FieldVerdict` is a named tuple of
ints and bools, so each scan row is one from the worker that makes it to
the code that reads it; `scan_parts` lets the pool workers fold each
block's rows per prime, so the CLI writes a block's CSV lines where its
rows were computed.  `map_blocks` is the package's one process pool: both
scans hand it fixed work items.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple

from .arith import kronecker, valuation
from .fermat import _deltas_exact
from .pell import CycleRecord, _cycle_record
from .qforms import class_numbers
from .sunits import UsageError, build_context, field_context, real_field, validate_prime


class FieldVerdict(NamedTuple):
    """Everything `check_field` learns about one (m, p): a scan row."""

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

    n0 is only the starting precision; `fermat` recomputes deltas that
    exceed it at doubled precision, so the verdict does not depend on n0.
    """
    ctx = build_context(m, p)
    return _verdict(ctx.record, p, ctx.h, (ctx.s, ctx.h0, ctx.pi1.coords()), n0)


def _verdict(record: CycleRecord, p: int, h: int, facts: tuple[int, int, tuple[int, int]],
             n0: int) -> FieldVerdict:
    """The vanishing test at p on the field of `record`, of wide class number h, from
    its `field_context` facts (s, h0, pi1), deltas started at n0."""
    (s, h0, (A, B)), m = facts, record.m
    root = (m, p, s, h + 2)
    delta_eps, d2, _ = _deltas_exact(record.unit[:2], 0, root, n0)
    if delta_eps != d2:
        raise ArithmeticError(f"unit deltas differ at the two primes for m={m}, p={p}")
    # delta at the first prime of pi2 = pi1', of norm +-p^h0; multiplying by
    # units can only move it when it ties delta_eps, and never below the
    # min, so min(delta_eps, delta_pi) is convention-free.
    delta_pi = _deltas_exact((A, -B), h0, root, n0)[0]

    v_p_h = valuation(h, p)
    class_ok = v_p_h == valuation(h0, p)
    normic_ok = min(delta_eps, delta_pi) == 0
    return FieldVerdict(m, p, h, h0, v_p_h, delta_eps, delta_pi, class_ok, normic_ok,
                        class_ok and normic_ok, v_p_h + delta_eps)


def admissible(m: int, p: int) -> bool:
    """True when Q(sqrt(m)) is a real quadratic field where p splits."""
    return real_field(m) and kronecker(m, p) == 1


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
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import
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
    admitted = [(m, split) for m in range(lo, hi + 1) if real_field(m)
                if (split := [p for p in primes if kronecker(m, p) == 1])]
    records = [_cycle_record(m) for m, _ in admitted]
    hs = class_numbers(records)
    return [_verdict(record, p, h, field_context(record, p, h), n0)
            for (_, split), record, h in zip(admitted, records, hs) for p in split]


def _block_parts(args: tuple[tuple[int, ...], int, int, int,
                             Callable[[list[FieldVerdict]], object]]
                 ) -> list[tuple[int, int, object]]:
    # a block's rows grouped by prime, each group counted and folded by `part` where the
    # rows were made: in the pool worker, which then ships only the folded part
    *block, part = args
    by_p: dict[int, list[FieldVerdict]] = {p: [] for p in block[0]}
    for row in _scan_block(tuple(block)):
        by_p[row.p].append(row)
    return [(len(rows), sum(row.resolved for row in rows), part(rows))
            for rows in by_p.values()]


def scan_parts(primes: tuple[int, ...], m_min: int, m_max: int,
               part: Callable[[list[FieldVerdict]], object], n0: int = 1, workers: int = 1
               ) -> list[tuple[int, int, list]]:
    """The scan of `scan_range`, each block's rows of each prime folded by `part` in the
    worker that made them: per prime, in the given order, (tested, resolved, the parts
    of its blocks in m order).  `part` takes a prime's m-ascending rows of one block;
    at two or more workers it crosses the pool, so it must be a module-level function."""
    if m_min > m_max:
        raise UsageError("empty range")
    if not primes or len(set(primes)) < len(primes):
        raise UsageError("need at least one prime, none repeated")
    for p in primes:  # even when no m in the range is admissible at p
        validate_prime(p)
    blocks = ((primes, lo, min(lo + _CHUNK - 1, m_max), n0, part)
              for lo in range(m_min, m_max + 1, _CHUNK))
    tested, resolved, parts = [0] * len(primes), [0] * len(primes), [[] for _ in primes]
    for block in map_blocks(_block_parts, blocks, workers):
        for i, (t, r, got) in enumerate(block):
            tested[i] += t
            resolved[i] += r
            parts[i].append(got)
    return list(zip(tested, resolved, parts))


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
    return tuple(ScanResult(p=p, m_min=m_min, m_max=m_max, tested=tested, resolved=resolved,
                            rows=tuple(chain.from_iterable(parts)))
                 for p, (tested, resolved, parts)
                 in zip(primes, scan_parts(primes, m_min, m_max, list, n0, workers)))
