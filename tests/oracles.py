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
* `loop_class_number` is the former `qforms.class_number`: the same
  series, tail bound and error bound, summed term by term in a Python
  loop with chi from `kronecker` on primes and a list of smallest prime
  factors.
* `two_walk_principal_power` is the former route to (h0, pi1): one walk
  per divisor for the class order, then a second walk of p^h0 that
  carries the generator (gA + gB*sqrt(m))/gC with a gcd on every step.
* `elem_unit_reduce` is the former `qforms._unit_reduce`: the same greedy
  steps, one `QuadElem` product per trial.
* `candidate_primes` is the former candidate stream of
  `stats.prime_fermat_scan`: every residue class sieved in one int64
  array in the calling process, each survivor proven, then sorted.
* `mask_sieve` is the former sieve of one tally block, where
  `stats._survivors` now strides: one `cand % q` pass over the whole block
  per sieve prime q.
* `is_prime_all_bases` is the former `arith.is_prime`: Miller-Rabin on all
  13 bases, by `is_sprp`, whatever the size of n.
* `primitive_root_mod_prime_power` is the former route to the residue
  classes of that scan: powers rho^(k p^n) of a primitive root rho mod
  p^(n+1), where `arith.teichmuller` now lifts each a < p directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, exp, gcd, isqrt, log, pi, sqrt

import numpy as np

from iwascan.arith import divisors, factorize, kronecker, valuation
from iwascan.fermat import Capped, Delta, DeltaReport, delta_embed
from iwascan.pell import fundamental_unit
from iwascan.qforms import (_E1_DEN, _E1_ERR, _E1_NUM, _E1_SMALL, _MACHINE_EPS,
                            _canonical_root, _check_fundamental, _regulator,
                            _tail_bound)
from iwascan.quadint import QuadElem, QuadResidue, embed, hensel_sqrt, make_elem
from iwascan.stats import _small_primes
from iwascan.sunits import FieldContext

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


@dataclass(frozen=True)
class AssociateWitness:
    """The Bezout data behind one delta_bezout computation."""

    xprime: QuadResidue
    normval: int
    order: int
    U1: QuadResidue
    U2: QuadResidue


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
    return witness, DeltaReport(delta1=delta, delta2=None, n=n)


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


def loop_class_number(D: int) -> int:
    """Narrow class number of D by the series of `qforms.class_number`, one term at a time."""
    _check_fundamental(D)
    eps = fundamental_unit(D // 4 if D % 4 == 0 else D)
    R = _regulator(eps)

    # least N with _tail_bound(N, D) <= R/8 (the bound falls with N)
    lo, N = 0, 1
    while _tail_bound(N, D) > R / 8:
        lo, N = N, 2 * N
    while N - lo > 1:
        mid = (lo + N) // 2
        lo, N = (lo, mid) if _tail_bound(mid, D) <= R / 8 else (mid, N)

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
    return 2 * h if eps.norm() == 1 else h


def elem_unit_reduce(x: QuadElem, m: int) -> QuadElem:
    """Smallest |trace| representative of x modulo the fundamental unit."""
    eps = fundamental_unit(m)
    eps_inv = eps.conjugate() if eps.norm() == 1 else -eps.conjugate()

    for step in (eps_inv, eps):
        while abs((y := x * step).trace()) < abs(x.trace()):
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
    r1 = embed(alpha, hensel_sqrt(m, q, h0 + 1), q, h0 + 1).r1
    if (valuation(r1, q) if r1 else h0 + 1) != h0:
        raise ArithmeticError("generator supports the wrong prime")
    return h0, alpha


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13, Sorenson-Webster 2015


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


def mask_sieve(r: int, modulus: int, j0: int, j1: int) -> list[int]:
    """The ell = r + j*modulus, j0 <= j < j1, that survive a `cand % q` pass
    of every prime q < 3000 with q^2 <= the last ell, apart from ell = q."""
    cand = r + modulus * np.arange(j0, j1, dtype=np.int64)
    keep = np.ones(len(cand), dtype=bool)
    for q in _small_primes(3000):
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
