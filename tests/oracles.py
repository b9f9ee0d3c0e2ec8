"""Independent reference routes that the tests check the package against.

None of these is used by the package itself:

* `delta_bezout` recovers delta at the first prime from the S-unit
  associate x' = U1*pi1^(n+1) + U2*pi2^(n+1)*x, congruent to x at the
  first prime and to 1 at the second, through the multiplicative order of
  norm(x')^(p-1) mod p^(n+1), which is p^(n-delta).  It shares no step
  with `fermat.delta_embed` beyond the labelled embedding, and works on
  plain residue ints.
* `check_product_dichotomy` asserts that both deltas of an element whose
  norm is a local (p-1)-th root of unity agree below n, or are both >= n.
* `continued_fraction_sqrt` is the plain expansion of sqrt(m), and
  `xgcd` the extended Euclidean algorithm behind Gauss composition.
* `cf_fundamental_unit` is the former `pell.fundamental_unit`: the unit
  from one period of the continued fraction of sqrt(m) or (1+sqrt(m))/2,
  where the package now walks the unit ideal's cycle of reduced ideals.
* `cycle_walk` is the former `pell._ideal_walk`: a walk that goes on past
  its first reduced ideal until it reaches the unit ideal, or comes back
  to that first reduced ideal (None: the class is not principal).
  `full_period_unit` is the former `pell.fundamental_unit`, the generator
  of the unit ideal's walk once round the whole principal cycle, and
  `cycle_principal_power` the former `_principal_power`, which walks
  each p^k round its own cycle, where the package now stops the unit's walk
  at the cycle's midpoint and finds each p^k's reduced ideal by lookup.
  `stops_at_its_first_reduced_ideal` checks a walk's steps against
  `is_reduced_ideal`, the definition |sqrt(D) - 2A| < B < sqrt(D) in integers.
* `loop_class_number` is the former `qforms.class_number`: the same
  series, tail bound and error bound, summed term by term in a Python
  loop with chi from `kronecker` on primes and a list of smallest prime
  factors.
* `bisect_series_length` is the former search for that series' length
  N_D, by doubling then bisecting, where `qforms._series_length` now
  corrects a closed-form guess one step at a time.
* `two_walk_principal_power` is the former route to (h0, pi1): one walk
  per divisor for the class order, then a second walk of p^h0 that
  carries the generator (gA + gB*sqrt(m))/gC with a gcd on every step.
* `elem_unit_reduce` is the former `_unit_reduce`: the same greedy
  steps, one `QuadElem` product per trial.
* `per_prime_scan_block` is the former per-prime path of a scan row,
  where `greenberg._scan_block` now works on plain integers and takes
  the unit's data once per field: `per_prime_context` builds a
  `FieldContext` per prime, from a root lifted by `newton_sqrt` (a
  search for s0, no Tonelli-Shanks, then Newton steps) and the
  generator of `elem_principal_power` (the same walks, a `QuadElem`
  reduced by `elem_unit_reduce`), and `per_prime_verdict` takes both
  deltas by `elem_delta_exact` on `QuadElem` residues.
* `scan_output_after_the_scan` is the former output route of the `scan`
  command: `FieldVerdict` records from `scan_range`, serialized by
  `cli.to_csv` or `cli.to_json` in the calling process once the whole scan
  has finished, where `cli.cmd_scan` now takes each block's rows as plain
  tuples, written to CSV in the pool worker that made them.
* `candidate_primes` is the former candidate stream of
  `stats.prime_fermat_scan`: every residue class sieved in one int64
  array in the calling process, each survivor proven, then sorted.
* `mask_sieve` is the former sieve of one tally block, where
  `stats._survivors` now strides: one `cand % q` pass over the whole block
  per sieve prime q.  Its primes come from `eratosthenes`, a plain list
  sieve that shares nothing with `qforms._sieve`, the package's one prime
  table.
* `elem_tally_block` is the former `stats._tally_block`: each split
  prime's generator a `QuadElem`, its norm by `QuadElem.norm` and its
  deltas by `fermat.delta_embed` on the field's `FieldContext`, where the
  tally now keeps (A, B) as plain ints into `fermat._deltas`.  Its
  candidates come from `mask_sieve`, proven by `is_prime_all_bases`.
* `is_prime_all_bases` is the former `arith.is_prime`: Miller-Rabin on all
  13 bases, by `is_sprp`, whatever the size of n.
* `primitive_root_mod_prime_power` is the former route to the residue
  classes of that scan: powers rho^(k p^n) of a primitive root rho mod
  p^(n+1), where `arith.teichmuller` now lifts each a < p directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import erfc, exp, gcd, isqrt, log, pi, sqrt

import numpy as np

from iwascan.arith import divisors, factorize, kronecker, valuation
from iwascan.fermat import N_CAP, Capped, Delta, delta_embed
from iwascan.cli import COUNT_COLUMNS, VERDICT_COLUMNS, ScanCount, to_csv, to_json
from iwascan.greenberg import FieldVerdict, scan_range
from iwascan.pell import (CycleRecord, _canonical_root, _cycle_generator, _cycle_record,
                          _generator, _ideal_walk, _principal_power, _product,
                          fundamental_unit)
from iwascan.qforms import (_E1_DEN, _E1_ERR, _E1_NUM, _E1_SMALL, _MACHINE_EPS,
                            _check_fundamental, _regulator, _tail_bound, class_numbers)
from iwascan.quadint import QuadElem, QuadResidue, hensel_sqrt, make_elem, residues
from iwascan.sunits import FieldContext, build_context, real_field

_MAX_STEPS = 10**6


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def multiplicative_order_p_power(y: int, p: int, modulus: int) -> int:
    """Order of y in (Z/modulus)^* assuming it is a power of p.

    Used for norms of (p-1)-th powers, whose order always divides
    p^(N-1) when modulus = p^N.
    """
    y %= modulus
    order = 1
    while y != 1:
        y = pow(y, p, modulus)
        order *= p
        if order > modulus:
            raise ArithmeticError("order is not a p-power")
    return order


def continued_fraction_sqrt(m: int) -> tuple[int, list[int]]:
    """CF expansion of sqrt(m): (a0, periodic part).  m nonsquare > 1."""
    s = isqrt(m)
    if s * s == m:
        raise ValueError("m must not be a square")
    period = []
    P, Q = 0, 1
    a = s
    P, Q = a * Q - P, m - a * a
    first = (P, Q)
    while True:
        ai = (P + s) // Q
        period.append(ai)
        P2 = ai * Q - P
        Q2 = (m - P2 * P2) // Q
        P, Q = P2, Q2
        if (P, Q) == first:
            return s, period
        if len(period) > _MAX_STEPS:
            raise ArithmeticError("period did not close")


def cf_fundamental_unit(m: int) -> QuadElem:
    """The fundamental unit > 1 of the maximal order of Q(sqrt(m)), m squarefree > 1.

    With convergents p_i/q_i of w = [a0; a1, ...], w = sqrt(m) or
    (1+sqrt(m))/2 for m = 1 (mod 4), and period length l (the tail is
    purely periodic from index 1), the matrix of one period fixes w, and
    eps = q_{l-1} * w + (q_l - a0 * q_{l-1}) is the fundamental automorph.
    """
    s = isqrt(m)
    P, Q = (1, 2) if m % 4 == 1 else (0, 1)
    a0 = (P + s) // Q
    q_prev, q_cur = 0, 1  # q_{-1}, q_0
    P = a0 * Q - P
    Q = (m - P * P) // Q
    first = (P, Q)
    for _ in range(_MAX_STEPS):
        ai = (P + s) // Q
        q_prev, q_cur = q_cur, ai * q_cur + q_prev
        P = ai * Q - P
        Q = (m - P * P) // Q
        if (P, Q) == first:
            break
    else:
        raise ArithmeticError("period did not close")
    c = q_cur - a0 * q_prev
    if m % 4 == 1:
        return make_elem(2 * c + q_prev, q_prev, 2, m)
    return make_elem(c, q_prev, 1, m)


def cycle_walk(A: int, B: int, D: int) -> list[tuple[int, int]] | None:
    """Steps (c_i, B_(i+1)) of [A, (B+sqrt(D))/2], at least one, until the unit
    ideal, c_i = (B_i^2-D)/(4 A_i); None once back at the first reduced ideal."""
    s, a0, b0, steps = isqrt(D), 0, 0, []
    for _ in range(_MAX_STEPS):
        c = (B * B - D) // (4 * A)
        A = abs(c)
        if A > s:
            t = (-B) % (2 * A)
            B = t - 2 * A if t > A else t
        else:
            B = s - (s + B) % (2 * A)
        steps.append((c, B))
        if A == 1:
            return steps
        if A == a0 and B == b0:
            return None
        if not a0 and 0 < B and 2 * A - s <= B:
            a0, b0 = A, B
    raise ArithmeticError("ideal walk did not terminate")


def is_reduced_ideal(A: int, B: int, D: int) -> bool:
    """[A, (B+sqrt(D))/2] with this B is reduced: |sqrt(D) - 2A| < B < sqrt(D)."""
    return 0 < B and B * B < D and (B + 2 * A) ** 2 > D and (2 * A <= B or (2 * A - B) ** 2 < D)


def stops_at_its_first_reduced_ideal(walk: tuple[list[int], list[int]], D: int) -> bool:
    """The last ideal [|c|, (B+sqrt(D))/2] of the walk's steps (c, B) is reduced,
    and no ideal before it is."""
    reduced = [is_reduced_ideal(abs(c), B, D) for c, B in zip(*walk)]
    return reduced[-1] and not any(reduced[:-1])


def full_period_unit(m: int) -> QuadElem:
    """The generator of the walk from the unit ideal [1, (B0+sqrt(D))/2] once round
    the principal cycle, back to A = 1 (+-eps or +-eps')."""
    D = m if m % 4 == 1 else 4 * m
    B = isqrt(D) - (isqrt(D) - D) % 2
    x, y = _generator(*zip(*cycle_walk(1, B, D)), B)
    return make_elem(abs(x), abs(y) * (2 if D % 4 == 0 else 1), 2, m)


def cycle_principal_power(D: int, q: int, exponents, s: int | None = None):
    """(k, alpha) for the first k in `exponents` whose walk of p^k reaches the unit
    ideal, alpha the generator of that closing walk, unit-reduced; None if none."""
    m = D // 4 if D % 4 == 0 else D
    s = hensel_sqrt(m, q, max(exponents) + 1) if s is None else s
    for k in exponents:
        A, B = q**k, _canonical_root(D, q, k, s)
        steps = cycle_walk(A, B, D)
        if steps is None:
            continue
        x, y = _generator(*zip(*steps), B)
        alpha = make_elem(x, y * (2 if D % 4 == 0 else 1), 2, m)
        if abs(alpha.norm()) != A:
            raise ArithmeticError("generator has the wrong norm")
        return k, elem_unit_reduce(alpha, m)
    return None


@dataclass(frozen=True)
class AssociateWitness:
    """The Bezout data behind one delta_bezout computation."""

    xprime: QuadResidue
    normval: int
    order: int
    U1: QuadResidue
    U2: QuadResidue


@dataclass(frozen=True)
class BezoutDelta:
    """delta at the first prime, the only one the Bezout route sees, from precision n."""

    delta1: Delta
    n: int


def delta_bezout(x: QuadElem, ctx: FieldContext, n: int) -> tuple[AssociateWitness, BezoutDelta]:
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
    # pi1^(n+1) and pi2^(n+1) at the first and at the second prime
    e1, e2 = ctx.embed(ctx.pi1, n), ctx.embed(ctx.pi2, n)
    t1 = (pow(e1.r1, n + 1, mod), pow(e1.r2, n + 1, mod))
    t2 = (pow(e2.r1, n + 1, mod), pow(e2.r2, n + 1, mod))
    if t1[0] or t2[1]:
        raise ArithmeticError("pi powers must vanish mod p^(n+1)")
    U1 = QuadResidue(0, pow(t1[1], -1, mod), mod)
    U2 = QuadResidue(pow(t2[0], -1, mod), 0, mod)

    rx = ctx.embed(x, n)
    if rx.r1 % p == 0:
        raise ValueError("x must be prime to the first prime above p")
    # x' = U1*pi1^(n+1) + U2*pi2^(n+1)*x, one prime at a time
    xprime = QuadResidue((U1.r1 * t1[0] + U2.r1 * t2[0] * rx.r1) % mod,
                         (U1.r2 * t1[1] + U2.r2 * t2[1] * rx.r2) % mod, mod)
    if xprime.r2 != 1:
        raise ArithmeticError("associate must be trivial at the second prime")
    normval = xprime.r1 * xprime.r2 % mod
    y = pow(normval, p - 1, mod)
    order = multiplicative_order_p_power(y, p, mod)
    k = valuation(order, p) if order > 1 else 0
    delta: Delta = Capped(n) if order == 1 else n - k
    witness = AssociateWitness(xprime=xprime, normval=normval, order=order,
                               U1=U1, U2=U2)
    return witness, BezoutDelta(delta1=delta, n=n)


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


def _gamma_walk(A: int, B: int, D: int) -> tuple[int, int, int] | None:
    """Walk [A, (B+sqrt(D))/2] to the unit ideal, carrying the generator.

    Each reduction step multiplies the ideal by c / ((B+sqrt(D))/2); the
    accumulated factor (gA + gB*sqrt(m))/gC is kept in lowest terms with
    gC > 0.  None when the walk closes a cycle first.
    """
    m = D // 4 if D % 4 == 0 else D
    e = 2 if D % 4 == 0 else 1
    s = isqrt(D)
    gA, gB, gC = 1, 0, 1
    seen: set[tuple[int, int]] = set()
    for _ in range(_MAX_STEPS):
        if A == 1:
            return gA, gB, gC
        if (A, B) in seen:
            return None
        if A <= s:
            seen.add((A, B))
        c = (B * B - D) // (4 * A)
        half = abs(c)
        if half > s:
            t = (-B) % (2 * half)
            b2 = t - 2 * half if t > half else t
        else:
            b2 = s - ((s + B) % (2 * half))
        gA, gB = gA * B + gB * e * m, gA * e + gB * B
        gC *= 2 * c
        if gC < 0:
            gA, gB, gC = -gA, -gB, -gC
        g = gcd(gcd(gA, gB), gC)
        gA, gB, gC = gA // g, gB // g, gC // g
        A, B = half, b2
    raise ArithmeticError("ideal walk did not terminate")


def bisect_series_length(D: int, R: float) -> int:
    """Least N with _tail_bound(N, D) <= R/8 (the bound falls with N), by
    doubling N from 1 and then bisecting."""
    lo, N = 0, 1
    while _tail_bound(N, D) > R / 8:
        lo, N = N, 2 * N
    while N - lo > 1:
        mid = (lo + N) // 2
        lo, N = (lo, mid) if _tail_bound(mid, D) <= R / 8 else (mid, N)
    return N


def loop_class_number(D: int) -> int:
    """Narrow class number of D by the series of `qforms.class_number`, one term at a time."""
    rec = _cycle_record(_check_fundamental(D))
    R = _regulator(rec)

    N = bisect_series_length(D, R)

    # chi is completely multiplicative: kronecker on primes only, the
    # rest from the smallest prime factor.  Writing q = isqrt(N)..2 in
    # descending order leaves the smallest divisor; 0 marks a prime.
    spf = [0] * (N + 1)
    for q in range(isqrt(N), 1, -1):
        spf[q * q :: q] = [q] * ((N - q * q) // q + 1)
    chi = [0] * (N + 1)
    chi[1] = 1
    a5, a4, a3, a2, a1, a0 = _E1_SMALL
    _, c1, c2, c3, c4 = _E1_NUM
    _, d1, d2, d3, d4 = _E1_DEN
    rootD, step, scale = sqrt(D), sqrt(pi / D), pi / D
    total = size = 0.0
    for n in range(1, N + 1):
        if n > 1:
            q = spf[n]
            chi[n] = chi[q] * chi[n // q] if q else kronecker(D, n)
        c = chi[n]
        if not c:
            continue
        x = scale * n * n
        if x <= 1:
            e1 = (((((a5 * x + a4) * x + a3) * x + a2) * x + a1) * x + a0) - log(x)
        else:
            e1 = (exp(-x) / x * ((((x + c1) * x + c2) * x + c3) * x + c4)
                  / ((((x + d1) * x + d2) * x + d3) * x + d4))
        t = rootD / n * erfc(step * n) + e1
        total += t if c > 0 else -t
        size += t

    y = total / (2 * R)
    # Float rounding, relative to the sum of |terms|: recursive summation
    # loses at most N machine epsilons, and one term at most 256 plus 2x
    # (erfc and exp amplify their argument's error by about x = pi n^2/D).
    # R's relative error carries over to y.
    rounding = (N + 2 * scale * N * N + 256) * _MACHINE_EPS * size
    err = (_tail_bound(N, D) + _E1_ERR * N + rounding) / (2 * R) + 1e-13 * abs(y)
    h = round(y)
    if not (err < 0.5 and abs(y - h) <= err and h >= 1):
        raise ArithmeticError(
            f"analytic class number not separated at D={D}: "
            f"sum/(2R) = {y!r}, error bound {err:.3g}")
    return 2 * h if rec.unit[2] == 1 else h


def elem_unit_reduce(x: QuadElem, m: int) -> QuadElem:
    """Smallest |trace| representative of x modulo the fundamental unit."""
    eps = fundamental_unit(m)
    eps_inv = eps.conjugate() if eps.norm() == 1 else -eps.conjugate()

    for step in (eps_inv, eps):
        while abs((y := x * step).coords()[0]) < abs(x.coords()[0]):
            x = y
    if x.a < 0:
        x = -x
    return x


def two_walk_principal_power(D: int, q: int, h: int) -> tuple[int, QuadElem]:
    """(h0, pi1) by the class-order walk, then a generator walk of p^h0."""
    m = D // 4 if D % 4 == 0 else D
    h0 = next(d for d in divisors(h)
              if _gamma_walk(q**d, _canonical_root(D, q, d, hensel_sqrt(m, q, d)), D)
              is not None)
    gA, gB, gC = _gamma_walk(q**h0, _canonical_root(D, q, h0, hensel_sqrt(m, q, h0)), D)
    if gC not in (1, 2):
        raise ArithmeticError("generator is not integral")
    alpha = make_elem(gA, gB, gC, m)
    if abs(alpha.norm()) != q**h0:
        raise ArithmeticError("generator has the wrong norm")
    alpha = elem_unit_reduce(alpha, m)
    r1 = residues(alpha.coords(), hensel_sqrt(m, q, h0 + 1), q ** (h0 + 1))[0]
    if (valuation(r1, q) if r1 else h0 + 1) != h0:
        raise ArithmeticError("generator supports the wrong prime")
    return h0, alpha


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13, Sorenson-Webster 2015


def newton_sqrt(m: int, p: int, N: int) -> int:
    """The root of m mod p^N = s0 mod p, s0 the least positive root mod p found by search,
    lifted by Newton steps that double the precision (the former `hensel_sqrt`'s lift)."""
    s, prec = next(x for x in range(1, p) if (x * x - m) % p == 0), 1
    while prec < N:
        prec = min(2 * prec, N)
        s = (s - (s * s - m) * pow(2 * s, -1, p**prec)) % p**prec
    return s % p**N


def elem_principal_power(rec: CycleRecord, q: int, exponents, s: int) -> tuple[int, QuadElem] | None:
    """The former `pell._principal_power`: the same walks and lookups, its generator
    a `QuadElem`, reduced by `elem_unit_reduce` and certified on `residues`."""
    D, m = rec.D, rec.m
    for k in exponents:
        A, B = q**k, _canonical_root(D, q, k, s)
        cs, bs = _ideal_walk(A, B, D)
        if (beta := _cycle_generator(rec, abs(cs[-1]), bs[-1])) is None:
            continue
        x, y = _product(_generator(cs, bs, B), beta, abs(cs[-1]), D)
        alpha = elem_unit_reduce(make_elem(x, y * (2 if D % 4 == 0 else 1), 2, m), m)
        r1 = residues(alpha.coords(), s, q ** (k + 1))[0]
        if abs(alpha.norm()) != A or (valuation(r1, q) if r1 else k + 1) != k:
            raise ArithmeticError(f"generator of p^{k} not certified for m={m}, q={q}")
        return k, alpha
    return None


def elem_delta_exact(x: QuadElem, ctx: FieldContext, n: int) -> tuple[int, int]:
    """The former `fermat.delta_exact`: both deltas of x from its `residues` at the
    context's root, its norm's p-valuation taken again at each doubling of n."""
    p, n = ctx.p, min(n, N_CAP)
    while True:
        extra = valuation(nrm, p) if (nrm := x.norm()) % p == 0 else 0
        prec = n + 1 + extra
        s = ctx.s if prec <= ctx.N else newton_sqrt(ctx.m, p, prec)
        deltas = []
        for r in residues(x.coords(), s, p**prec):
            for _ in range(extra + 1):  # v_p(r) <= extra, or the precision is too low
                if r % p:
                    break
                r //= p
            else:
                raise ValueError("residue precision too low for the valuation")
            y = pow(r, p - 1, p ** (n + 1))
            deltas.append(Capped(n) if y == 1 else valuation(y - 1, p) - 1)
        if not any(isinstance(d, Capped) for d in deltas):
            return deltas[0], deltas[1]
        if n >= N_CAP:
            raise ArithmeticError(f"delta >= {n} for m={ctx.m}, p={p}")
        n = min(2 * n, N_CAP)


def per_prime_context(record: CycleRecord, p: int, h: int) -> FieldContext:
    """The former `sunits.field_context`: a `FieldContext` per prime, from a root lifted by
    `newton_sqrt` and the `QuadElem` generator of `elem_principal_power`."""
    m = record.m
    s = newton_sqrt(m, p, h + 2)
    found = elem_principal_power(record, p, divisors(h), s)
    if found is None:
        raise ArithmeticError("class order does not divide the class number")
    h0, pi1 = found
    return FieldContext(m=m, p=p, h=h, record=record, eps=fundamental_unit(m), s=s, N=h + 2,
                        h0=h0, pi1=pi1, pi2=pi1.conjugate())


def per_prime_verdict(ctx: FieldContext, n0: int = 1) -> FieldVerdict:
    """The former `greenberg._verdict`: the deltas by `elem_delta_exact` on the context's
    `QuadElem`s."""
    delta_eps, d2 = elem_delta_exact(ctx.eps, ctx, n0)
    if delta_eps != d2:
        raise ArithmeticError(f"unit deltas differ at the two primes for m={ctx.m}, p={ctx.p}")
    delta_pi = elem_delta_exact(ctx.pi2, ctx, n0)[0]
    v_p_h = valuation(ctx.h, ctx.p)
    class_ok = v_p_h == valuation(ctx.h0, ctx.p)
    normic_ok = min(delta_eps, delta_pi) == 0
    return FieldVerdict(m=ctx.m, p=ctx.p, h=ctx.h, h0=ctx.h0, v_p_h=v_p_h,
                        delta_eps=delta_eps, delta_pi=delta_pi, class_ok=class_ok,
                        normic_ok=normic_ok, resolved=class_ok and normic_ok,
                        torsion_v=v_p_h + delta_eps)


def per_prime_scan_block(args: tuple[tuple[int, ...], int, int, int]
                         ) -> list[tuple[FieldVerdict, FieldContext]]:
    """The rows of `greenberg._scan_block(args)` by the former per-prime path, from the
    same records and class numbers, each with the context it was read from."""
    primes, lo, hi, n0 = args
    fields = [(m, split) for m in range(lo, hi + 1) if real_field(m)
              if (split := [p for p in primes if kronecker(m, p) == 1])]
    records = [_cycle_record(m) for m, _ in fields]
    hs = class_numbers(records)
    ctxs = [per_prime_context(record, p, h)
            for (_, split), record, h in zip(fields, records, hs) for p in split]
    return [(per_prime_verdict(ctx, n0), ctx) for ctx in ctxs]


def scan_output_after_the_scan(primes: tuple[int, ...], m_min: int, m_max: int, fmt: str,
                               workers: int) -> str:
    """The stdout of `iwascan scan ... --format fmt --no-header` by the former route: every
    row a `FieldVerdict` from `scan_range`, serialized after the scan."""
    results = scan_range(primes, m_min, m_max, workers=workers)
    counts = [ScanCount(p=r.p, c1=r.tested, c2=r.resolved) for r in results]
    rows = [v for r in results for v in r.rows]
    if fmt == "csv":
        return to_csv(counts, COUNT_COLUMNS) + to_csv(rows, VERDICT_COLUMNS)
    if fmt == "json":
        doc = {"schema": 1, "counts": [to_json(c, COUNT_COLUMNS) for c in counts],
               "rows": [to_json(v, VERDICT_COLUMNS) for v in rows]}
        return json.dumps(doc, indent=2) + "\n"
    return "\n".join([f"m in [{m_min}, {m_max}]", "p  c1  c2  unresolved"]
                      + [f"{c.p}  {c.c1}  {c.c2}  {c.unresolved}" for c in counts]) + "\n"


def is_sprp(n: int, a: int) -> bool:
    """Odd n > 2 is a strong probable prime to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_all_bases(n: int) -> bool:
    """Deterministic for n < psi_13: trial division by the bases, then all 13."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_LIMIT:
        raise ValueError(f"deterministic witness set not valid for {n}")
    return all(is_sprp(n, a) for a in _MR_BASES)


def eratosthenes(limit: int) -> list[int]:
    """The primes below limit, by the plain sieve of Eratosthenes on a list."""
    composite = [False] * limit
    for q in range(2, isqrt(max(limit - 1, 0)) + 1):
        if not composite[q]:
            composite[q * q :: q] = [True] * len(range(q * q, limit, q))
    return [n for n in range(2, limit) if not composite[n]]


def mask_sieve(r: int, modulus: int, j0: int, j1: int) -> list[int]:
    """The ell = r + j*modulus, j0 <= j < j1, that survive a `cand % q` pass
    of every prime q < 3000 with q^2 <= the last ell, apart from ell = q."""
    cand = r + modulus * np.arange(j0, j1, dtype=np.int64)
    keep = np.ones(len(cand), dtype=bool)
    for q in eratosthenes(3000):
        if q * q > cand[-1]:
            break
        keep &= (cand % q != 0) | (cand == q)
    return cand[keep].tolist()


def candidate_primes(residues: list[int], modulus: int, bound: int) -> list[int]:
    """Primes ell = r + j*modulus, j >= 1, ell < bound, presieved then proven."""
    out: list[int] = []
    for r in residues:
        top = (bound - 1 - r) // modulus
        if top >= 1:
            out += filter(is_prime_all_bases, mask_sieve(r, modulus, 1, top + 1))
    out.sort()
    return out


def elem_tally_block(item: tuple[int, int, int, int, int, int, int]) -> tuple[list[int], int]:
    """(counts, skipped) of `stats._tally_block(item)` by the former route, a `QuadElem`
    and a `DeltaReport` per split prime ell = r + j*p^(n+1), j0 <= j < j1."""
    m, p, n, rmax, r, j0, j1 = item
    mod = p ** (n + 1)
    ctx = build_context(m, p)
    counts, skipped = [0] * (rmax + 1), 0
    for ell in filter(is_prime_all_bases, mask_sieve(r, mod, j0, j1)):
        if kronecker(m, ell) != 1:
            continue
        found = _principal_power(ctx.record, ell, (1,))
        if found is None:
            skipped += 1
            continue
        alpha = make_elem(*found[1], 2, m)
        if pow(alpha.norm(), p - 1, mod) != 1:
            raise ArithmeticError(f"generator at ell={ell} misses the defining congruence")
        rep = delta_embed(alpha, ctx, n)
        c1, c2 = isinstance(rep.delta1, Capped), isinstance(rep.delta2, Capped)
        if c1 != c2 or not (c1 or rep.delta1 == rep.delta2):
            raise ArithmeticError(f"delta dichotomy violated at ell={ell}")
        counts[rmax if c1 else min(rep.delta1, rmax)] += 1
    return counts, skipped


def primitive_root_mod_prime_power(p: int, k: int) -> int:
    """Smallest primitive root modulo p**k for odd prime p."""
    fac = factorize(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            break
        g += 1
    if k == 1:
        return g
    # g generates (Z/p)^*; it lifts to p^k unless g^(p-1) = 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g
