"""Statistical surveys of Fermat-quotient valuations.

Two experiments:

* `prime_fermat_scan` tallies the common delta of a generator of a prime
  ideal above each split prime ell < bound with ell^(p-1) = 1 mod p^(n+1),
  whose expected law is P(delta = r) = (p-1)/p^(r+1).  Blocks of at most
  _SPAN candidates ell = r + j*p^(n+1), r in `arith.teichmuller(p, n+1)`,
  are made lazily, each sieved by a stride of j per prime q <=
  min(sqrt(last ell), _CAP) (from `qforms._sieve`, built in the worker),
  so a survivor below (_CAP + 1)^2 is a proven prime.  The survivors with
  kronecker(m, ell) = 1, any past that ceiling proven by `is_prime`, are
  tallied and summed as blocks finish on `greenberg.map_blocks`: memory is
  fixed in p and in the bound, and the tally does not depend on the
  worker count.
  A bound <= p^(n+1) tallies zero at once; rmax > 63 or bound > 2^63 is refused;
* `random_elem_density` samples random field elements and measures how
  often delta = 0, under a norm congruence or unconstrained.  The test on
  y = a*sqrt(m) + b reads only the residue pair (a, b) mod p^2, so while
  p^4 <= _CHUNK (p <= 19) each chunk of draws is only counted into p^4
  bins, and the p^4 pairs are classified once; the output is unchanged.
  Chunks are drawn in uint32, the same values as an int64 draw, and each
  is binned or classified on one helper thread while the next is drawn,
  so at most two chunks are alive; the thread is joined before return.
  That helper is the package's one thread pool (`map_blocks` is its one
  process pool).
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import is_prime, kronecker, teichmuller
from .fermat import Capped, _deltas
from .greenberg import map_blocks
from .pell import _principal_power
from .qforms import _sieve
from .quadint import hensel_sqrt
from .sunits import FieldContext, PreconditionError, UsageError, build_context, validate_field

NORM_CONSTRAINED = "norm"
UNCONSTRAINED = "unconstrained"

_CHUNK = 1 << 17  # draws per chunk: sets the memory per chunk and the grid
# threshold p^4 <= _CHUNK; the stream of a seed does not depend on it
_SPAN = 1 << 14  # candidates per prime-scan work item
_DRAW = 10**6  # coordinates are drawn from [0, _DRAW)
_INT64_MAX = 2**63 - 1


def _rem(x: np.ndarray, q: int | np.uint32) -> np.ndarray:
    """x mod q, in [0, q) for negative x too: numpy vectorises floor division
    by a scalar, but not the remainder."""
    return x - x // q * q


def expected_proportions(p: int, rmax: int = 5) -> tuple[Fraction, ...]:
    """Reference law P(delta = r) = (p-1)/p^(r+1), tail-summed at rmax."""
    body = tuple(Fraction(p - 1, p ** (r + 1)) for r in range(rmax))
    return body + (Fraction(1, p**rmax),)


@dataclass(frozen=True)
class StatTally:
    """One delta tally; the field order is the key order of the CLI's JSON."""

    m: int
    p: int
    n: int
    bound: int
    rmax: int
    total: int  # accepted sample count N_L
    skipped_nonprincipal: int
    counts: tuple[int, ...]  # C_0..C_rmax, last bucket cumulative

    def __post_init__(self) -> None:
        if sum(self.counts) != self.total:
            raise ValueError(f"counts sum to {sum(self.counts)}, not total={self.total}")

    @property
    def proportions(self) -> tuple[float, ...]:
        if self.total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(c / self.total for c in self.counts)

    @property
    def expected(self) -> tuple[Fraction, ...]:
        return expected_proportions(self.p, self.rmax)


_CAP = 1 << 20  # largest sieve prime, `qforms._MAX_TERMS`: the largest table `_chi` builds


@lru_cache(maxsize=8)
def _inverses(mod: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes q <= P prime to mod, from `qforms._sieve(P)`, and 1/mod mod q =
    mod^(q-2), by binary powering on one row of bits of q - 2 per round."""
    q = _sieve(P)[1]
    q = q[mod % q != 0]
    a, inv = mod % q, np.ones_like(q)  # every operand < q <= P: no product wraps in int64
    for bit in (q - 2 >> np.arange(P.bit_length())[:, None] & 1).astype(bool):
        inv = np.where(bit, inv * a % q, inv)
        a = a * a % q
    q.flags.writeable = inv.flags.writeable = False  # every caller shares the cached arrays
    return q, inv


def _survivors(r: int, mod: int, j0: int, j1: int) -> list[int]:
    """The ell = r + j*mod, j0 <= j < j1 (r prime to mod), struck by no prime q prime
    to mod with q <= min(isqrt(last ell), _CAP), apart from ell = q itself: each
    survivor below (_CAP + 1)^2 is a proven prime."""
    top = min(isqrt(r + mod * (j1 - 1)), _CAP)
    q, inv = _inverses(mod, 1 << (top - 1).bit_length())  # the power of two >= top
    k = np.searchsorted(q, top, "right")
    q, inv = q[:k], inv[:k]
    start = (-(r % q) * inv - j0 % q) % q  # q | r + j*mod iff j = j0 + start (mod q)
    if r + j0 * mod <= top:  # q itself, in its own progression, survives
        start += np.where((q % mod == r) & (q >= r + j0 * mod), q, 0)
    width = j1 - j0
    keep, small = np.ones(width, dtype=bool), q < width
    for s, step in zip(start[small].tolist(), q[small].tolist()):
        keep[s::step] = False
    once = start[~small]  # a larger q strikes at most once
    keep[once[once < width]] = False
    return (r + mod * (np.flatnonzero(keep) + j0)).tolist()


def _tally_block(item: tuple[FieldContext, int, int, int, int, int]) -> tuple[list[int], int]:
    """Tally of the split primes ell = r + j*p^(n+1), j0 <= j < j1, in the field the item
    carries (a pool worker reads no field cache), each generator (A + B*sqrt(m))/2 kept as
    plain ints (A, B) from `_principal_power` to `_deltas`."""
    ctx, n, rmax, r, j0, j1 = item
    m, p, mod = ctx.m, ctx.p, ctx.p ** (n + 1)
    counts, skipped, proven = [0] * (rmax + 1), 0, (_CAP + 1) ** 2
    for ell in _survivors(r, mod, j0, j1):
        if kronecker(m, ell) != 1 or (ell >= proven and not is_prime(ell)):
            continue
        found = _principal_power(ctx.record, ell, (1,))  # ell: a proven split prime
        if found is None:
            skipped += 1
            continue
        _, (A, B) = found  # certified: |norm| = ell, prime to p
        if pow((A * A - m * B * B) // 4, p - 1, mod) != 1:
            raise ArithmeticError(f"generator at ell={ell} misses the defining congruence")
        d1, d2 = _deltas((A, B), 0, ctx, n)
        c1, c2 = isinstance(d1, Capped), isinstance(d2, Capped)
        if c1 != c2 or not (c1 or d1 == d2):
            raise ArithmeticError(f"delta dichotomy violated at ell={ell}")
        counts[rmax if c1 else min(d1, rmax)] += 1
    return counts, skipped


def _items(ctx: FieldContext, n: int, rmax: int, bound: int) -> Iterator[tuple]:
    """Items of `prime_fermat_scan`, one residue class r at a time.  Every ell
    = r + j*p^(n+1), j >= 1, exceeds p^(n+1) > 2^(n+1): none once 2^(n+1) >= bound.
    When (p^(n+1), bound) holds fewer ell than the p-1 classes, the r of those
    ell are tested directly instead of lifting every class."""
    if n + 1 >= bound.bit_length() or (mod := ctx.p ** (n + 1)) >= bound:
        return
    residues = teichmuller(ctx.p, n + 1) if bound - mod - 1 >= ctx.p - 1 else (
        r for r in range(1, bound - mod) if pow(r, ctx.p - 1, mod) == 1)
    for r in residues:
        top = (bound - 1 - r) // mod  # ell = r + j*mod < bound exactly for j <= top
        for j0 in range(1, top + 1, _SPAN):
            yield ctx, n, rmax, r, j0, min(j0 + _SPAN, top + 1)


def prime_fermat_scan(m: int, p: int, n: int, bound: int, rmax: int = 5,
                      workers: int = 1) -> StatTally:
    """Tally generator deltas over split primes ell^(p-1) = 1 mod p^(n+1), ell < bound."""
    ctx = build_context(m, p)  # checks (m, p) first: a bad field is refused before a bad flag
    if rmax < 0:
        raise UsageError("rmax must be >= 0")
    if rmax > 63:  # rmax <= n, and a scan with 3^(n+1) < bound <= 2^63 has n <= 38
        raise UsageError("rmax must be <= 63")
    if n < rmax:
        raise UsageError("need n >= rmax to fill every bucket")
    if bound > 2**63:  # candidates are sieved in int64
        raise UsageError("bound must be <= 2^63")
    if ctx.h % p == 0:
        raise PreconditionError(f"p={p} divides h={ctx.h}; generator scan needs v_p(h)=0")
    counts, skipped = [0] * (rmax + 1), 0
    for part, skip in map_blocks(_tally_block, _items(ctx, n, rmax, bound), workers):
        counts = [a + b for a, b in zip(counts, part)]
        skipped += skip
    return StatTally(m=m, p=p, n=n, bound=bound, rmax=rmax,
                     total=sum(counts), counts=tuple(counts),
                     skipped_nonprincipal=skipped)


@dataclass(frozen=True)
class DensityTally:
    m: int
    p: int
    mode: str
    seed: int
    samples: int
    accepted: int
    hits: int

    @property
    def density(self) -> float | None:
        return None if self.accepted == 0 else self.hits / self.accepted

    @property
    def expected(self) -> Fraction:
        if self.mode == NORM_CONSTRAINED:
            return Fraction(self.p - 1, self.p)
        return Fraction(self.p**2 - 1, self.p**2)


def random_elem_density(m: int, p: int, samples: int, mode: str = NORM_CONSTRAINED,
                        seed: int = 0) -> DensityTally:
    """Sample y = a*sqrt(m) + b, a,b uniform in [0, 10^6); measure delta = 0 rates.

    NORM_CONSTRAINED keeps y with norm(y)^(p-1) = 1 mod p^2 and measures the
    common delta = 0 (expected (p-1)/p); UNCONSTRAINED keeps norm(y) prime
    to p and measures min(delta_1, delta_2) = 0 (expected (p^2-1)/p^2).
    Both tests depend on (a, b) mod p^2 only: for p^4 <= _CHUNK the draws
    are tallied per residue pair and each pair is classified once, else
    every draw is classified; both give the same counts, byte for byte.
    A negative samples or seed is refused (UsageError).
    """
    validate_field(m, p)
    if mode not in (NORM_CONSTRAINED, UNCONSTRAINED):
        raise UsageError(f"unknown mode {mode!r}")
    if samples < 0:
        raise UsageError("samples must be >= 0")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    p2 = p * p
    # residues stay below p^2 and draws below 10^6; the int64 products
    # r1*r2 and a*s must not wrap
    if max((p2 - 1) ** 2, _DRAW * p2) > _INT64_MAX:
        raise PreconditionError(f"p={p} is too large for int64 sampling (needs p^4 < 2^63)")
    s = hensel_sqrt(m, p, 1) % p2
    # for 0 <= r < p^2, r^(p-1) = 1 (mod p^2) exactly when teich[r % p] == r
    teich = np.array((-1, *teichmuller(p, 2)), dtype=np.int64)

    def classify(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(accepted, hit) masks of y = a*sqrt(m) + b; they read a, b mod p^2 only."""
        r1 = _rem(b + a * s, p2)
        r2 = _rem(b - a * s, p2)
        if mode == NORM_CONSTRAINED:
            nrm = _rem(r1 * r2, p2)
            acc = teich[_rem(nrm, p)] == nrm
            return acc, acc & (teich[_rem(r1, p)] != r1)
        acc = _rem(r1 * r2, p) != 0
        return acc, acc & ((teich[_rem(r1, p)] != r1) | (teich[_rem(r2, p)] != r2))

    grid = p2 * p2 <= _CHUNK  # p <= 19: the p^4 residue pairs fit in one chunk

    def tally(draw: np.ndarray) -> np.ndarray:
        """Counts of one chunk: per residue pair on the grid, else (accepted, hits)."""
        if grid:
            r = _rem(draw, q := np.uint32(p2))
            return np.bincount(r[:, 0] * q + r[:, 1], minlength=p2 * p2)
        acc, hit = classify(*draw.astype(np.int64).T)
        return np.array((acc.sum(), hit.sum()))

    counts = np.zeros(p2 * p2 if grid else 2, dtype=np.int64)
    rng = np.random.default_rng(seed)
    with ThreadPoolExecutor(1) as helper:  # tallies chunk i while chunk i+1 is drawn
        pending = None
        for left in range(samples, 0, -_CHUNK):
            draw = rng.integers(0, _DRAW, size=(min(_CHUNK, left), 2), dtype=np.uint32)
            if pending is not None:
                counts += pending.result()
            pending = helper.submit(tally, draw)
        if pending is not None:
            counts += pending.result()
    if grid:  # classify each residue pair (a, b) once, weighted by its count
        acc, hit = classify(*np.divmod(np.arange(p2 * p2, dtype=np.int64), p2))
        accepted, hits = int(counts[acc].sum()), int(counts[hit].sum())
    else:
        accepted, hits = (int(c) for c in counts)
    return DensityTally(m=m, p=p, mode=mode, seed=seed, samples=samples,
                        accepted=accepted, hits=hits)
