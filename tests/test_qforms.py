"""Class numbers, class orders and generators.

Two class-number oracles check the erfc/E1 series under test.  The
finite log-sin formula
    h * 2*log(eps) = -sum_{a=1}^{D-1} kronecker(D, a) * log(sin(pi*a/D))
shares only the regulator with it; the cycle count of reduced forms
(`cycle_class_number`) shares nothing.

The class-order oracle is Gauss composition of forms: the order of the
prime form (q, t, .) is the first d | h whose d-th power lies in a cycle
holding a form with |a| = 1, an independent route from the walk on the
prime-power ideal [q^d, (b_d+sqrt(D))/2] under test.

The numpy `class_number` is checked against the term-by-term loop it
replaced (`oracles.loop_class_number`), and its chi table against
`kronecker`; so is the batch kernel `class_numbers`, in one call, in the
blocks a scan forms and in mixed batches.  Its series length N_D is
checked against the doubling-and-bisecting search it replaced
(`oracles.bisect_series_length`).  Its error bound is
checked against exact sums (mpmath): each E1 approximation within
`_E1_ERR`, and on sampled D the tail past N_D within `_tail_bound`, and
the partial sum within that tail of h.

`class_order` and `represent` call `pell._principal_power`, which is
tested here with them, its plain (A, B) generators read as `QuadElem`s.
`pell`'s integer `_unit_reduce` is checked against the `QuadElem` version
it replaced (`oracles.elem_unit_reduce`).
The one-pass `_principal_power` is checked against the former two-walk
route (`oracles.two_walk_principal_power`), which walks p^h0 a second
time and carries the generator with a gcd on every step, also with the
walk's step budget cut to a few cycle lengths.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import count

import mpmath
import numpy as np
import pytest

from iwascan import greenberg, pell, qforms
from iwascan.arith import divisors, is_squarefree, kronecker, valuation
from iwascan.pell import fundamental_unit
from iwascan.qforms import class_number, class_order, represent
from iwascan.quadint import hensel_sqrt, make_elem
from iwascan.sunits import build_context
from oracles import (_gamma_walk, bisect_series_length, cycle_principal_power,
                     elem_unit_reduce, eratosthenes, loop_class_number,
                     stops_at_its_first_reduced_ideal, two_walk_principal_power, xgcd)


def is_fundamental(D):
    return (D % 4 == 1 and is_squarefree(D)) or (D % 16 in (8, 12) and is_squarefree(D // 4))


def fundamental_discriminants(limit):
    return [D for D in range(5, limit) if is_fundamental(D)]


def record(D):
    return pell._cycle_record(D // 4 if D % 4 == 0 else D)


def principal_power(D, q, exponents, s=None):
    """pell's `_principal_power` in the field of D, its generator as a QuadElem."""
    found = pell._principal_power(record(D), q, exponents, s)
    return found and (found[0], make_elem(*found[1], 2, D // 4 if D % 4 == 0 else D))


def records(Ds):
    return [record(D) for D in Ds]


def log_unit(m):
    """log of the fundamental unit, safe for gigantic coordinates."""
    eps = fundamental_unit(m)
    ratio = math.sqrt(float(Fraction(eps.b * eps.b * m, eps.a * eps.a)))
    return math.log(eps.a) + math.log1p(ratio) - math.log(eps.den)


def analytic_class_number(D):
    """Wide class number by the L-series; narrow needs the unit norm."""
    m = D // 4 if D % 4 == 0 else D
    total = 0.0
    for a in range(1, D):
        chi = kronecker(D, a)
        if chi:
            total -= chi * math.log(math.sin(math.pi * a / D))
    h = total / (2 * log_unit(m))
    assert abs(h - round(h)) < 1e-6, f"analytic formula drifted at D={D}"
    return round(h)


@pytest.mark.parametrize("D", fundamental_discriminants(2000))
def test_class_number_against_analytic_formula(D):
    m = D // 4 if D % 4 == 0 else D
    wide = analytic_class_number(D)
    narrow = wide * (2 if fundamental_unit(m).norm() == 1 else 1)
    assert class_number(D) == narrow


# --- cycle-count oracle: forms are (a, b, c) tuples of discriminant D ---

def reduced_forms(D):
    """All reduced forms of discriminant D (both signs of a)."""
    s = math.isqrt(D)
    out = []
    for b in range(2 - (D % 2), s + 1, 2):
        n = (D - b * b) // 4  # = |a|*|c|
        lo = (max(1, s - b + 1) + 1) // 2
        hi = (s + b) // 2
        for aa in range(lo, hi + 1):
            if n % aa == 0:
                c = -(n // aa)
                out.append((aa, b, c))
                out.append((-aa, b, -c))
    return out


def cycle_class_number(D):
    """Narrow class number: the number of rho-cycles of reduced forms."""
    todo = set(reduced_forms(D))
    cycles = 0
    while todo:
        start = cur = next(iter(todo))
        cycles += 1
        while True:
            todo.discard(cur)
            cur = rho(cur, D)
            if cur == start:
                break
    return cycles


def test_class_number_matches_cycle_count():
    Ds = fundamental_discriminants(2 * 10**4)
    assert len(Ds) == 6081
    assert [class_number(D) for D in Ds] == [cycle_class_number(D) for D in Ds]


# squarefree m spread over the window of perfbench's scan-large-m workload
LARGE_M = [m for m in range(10**6, 10**6 + 1151) if is_squarefree(m)][::44]


@pytest.mark.parametrize("m", LARGE_M)
def test_class_number_matches_cycle_count_near_a_million(m):
    D = m if m % 4 == 1 else 4 * m
    assert class_number(D) == cycle_class_number(D)


@pytest.mark.parametrize("factor", [1.05, 1.3])
def test_wrong_regulator_raises_instead_of_misrounding(monkeypatch, factor):
    """A regulator off by `factor` moves sum/(2R) to h/factor.

    The error bound must then refuse every h it cannot confirm.  No bound
    can see h/factor landing on another integer (first at h = 20 for 1.05
    and h = 13 for 1.3), so the discriminants stay below wide h = 13.
    """
    Ds = fundamental_discriminants(2000)
    narrow = {D: cycle_class_number(D) for D in Ds}
    wide = [narrow[D] // (2 if fundamental_unit(D // 4 if D % 4 == 0 else D).norm() == 1
                          else 1) for D in Ds]
    assert 3 <= max(wide) < 13  # at 1.3, plain rounding turns h = 3 into 2
    regulator = qforms._regulator
    monkeypatch.setattr(qforms, "_regulator", lambda rec: factor * regulator(rec))
    refused = 0
    for D in Ds:
        try:
            got = class_number(D)
        except ArithmeticError:
            refused += 1
            continue
        assert got == narrow[D], (D, factor)
    assert refused > len(Ds) // 4


def test_regulator_equals_mpmath_on_small_and_large_units():
    """log((E + F*sqrt(m))/2) to 30 digits, on every squarefree m < 3000 and on the 95
    units past 1000 bits of m = 10^6..10^6+1000, where `_regulator` takes log(E)."""
    small = [pell._cycle_record(m) for m in range(2, 3000) if is_squarefree(m)]
    large = [rec for m in range(10**6, 10**6 + 1001) if is_squarefree(m)
             if (rec := pell._cycle_record(m)).unit[0].bit_length() > 1000]
    assert len(large) == 95 and {rec.D == rec.m for rec in large} == {True, False}
    with mpmath.workdps(30):
        for rec in small + large:
            E, F, _ = rec.unit
            want = mpmath.log((mpmath.mpf(E) + F * mpmath.sqrt(rec.m)) / 2)
            assert abs(qforms._regulator(rec) / want - 1) <= 1e-14, rec.m


# --- loop oracle: the same series, summed one term at a time ---

def test_class_number_equals_the_loop_oracle_below_2e4():
    Ds = fundamental_discriminants(2 * 10**4)
    assert [class_number(D) for D in Ds] == [loop_class_number(D) for D in Ds]


@pytest.mark.parametrize("magnitude", [10**6, 10**7, 10**8])
def test_class_number_equals_the_loop_oracle_at_large_m(magnitude):
    rng = random.Random(magnitude)
    ms = [m for m in rng.sample(range(magnitude, 2 * magnitude), 40) if is_squarefree(m)][:16]
    Ds = [m if m % 4 == 1 else 4 * m for m in ms]
    assert [class_number(D) for D in Ds] == [loop_class_number(D) for D in Ds]


def series_lengths(Ds):
    """N_D of `class_numbers` and of the bisection oracle, and the bound's evaluations."""
    calls, bound = [0], qforms._tail_bound

    def counting(N, D):
        calls[0] += 1
        return bound(N, D)

    pairs = []
    for D in Ds:
        R = qforms._regulator(record(D))
        qforms._tail_bound = counting
        try:
            got = qforms._series_length(D, R)
        finally:
            qforms._tail_bound = bound
        pairs.append((got, bisect_series_length(D, R)))
    return pairs, calls[0]


def test_series_length_equals_the_bisection_oracle_below_2e4():
    pairs, calls = series_lengths(fundamental_discriminants(2 * 10**4))
    assert len(pairs) == 6081
    assert all(got == want for got, want in pairs)
    assert calls < 2.1 * len(pairs)  # 2 when the guess is N_D; the bisection makes about 14


def test_series_length_equals_the_bisection_oracle_off_the_regulator():
    """R from 10^-4 to 10^4: guesses off by one or more in both directions."""
    for D in (5, 8, 12, 21, 101, 1001, 10**4 + 1, 10**6 + 1, 10**12 + 1):
        for k in range(-16, 17):
            R = 10 ** (k / 4)
            assert qforms._series_length(D, R) == bisect_series_length(D, R), (D, R)


@pytest.mark.parametrize("magnitude", [10**6, 10**8])
def test_series_length_equals_the_bisection_oracle_at_large_D(magnitude):
    rng = random.Random(magnitude + 1)
    ms = [m for m in rng.sample(range(magnitude, 2 * magnitude), 400) if is_squarefree(m)]
    pairs, calls = series_lengths([m if m % 4 == 1 else 4 * m for m in ms])
    assert len(pairs) > 200
    assert all(got == want for got, want in pairs)
    assert calls < 2.1 * len(pairs)


@pytest.mark.parametrize("m", [41, 13, 7, 6, 30, 101, 3 * 7 * 11])
def test_chi_table_equals_kronecker(m):
    # D = 1 and 5 (mod 8), 4m with m = 3 (mod 4), and 8m' with m = 2m'
    D = m if m % 4 == 1 else 4 * m
    assert qforms._chi((D,), 3000)[0].tolist() == [kronecker(D, n) for n in range(3001)]
    for N in range(1, 40):  # every short table, around each dyadic block edge
        assert qforms._chi((D,), N)[0].tolist() == [kronecker(D, n) for n in range(N + 1)]


def test_the_prime_table_equals_trial_division_and_eratosthenes():
    # every table `_chi` asks for up to N = 2^16: spf by trial division, primes by the list sieve
    least = [next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
             for n in range((1 << 16) + 1)]
    for k in range(17):
        spf, primes = qforms._sieve(1 << k)
        assert spf[2:].tolist() == least[2 : (1 << k) + 1], k
        assert primes.tolist() == eratosthenes((1 << k) + 1), k


def test_a_series_past_the_term_budget_is_refused_before_any_table(monkeypatch):
    # the unit 10^8 + sqrt(m) makes N_D about 2*10^8 terms, a 2 GiB spf table
    def no_table(P):
        raise AssertionError(f"table of {P} built")

    monkeypatch.setattr(qforms, "_sieve", no_table)
    D = 10**16 + 1
    assert fundamental_unit(D).a == 10**8
    with pytest.raises(ArithmeticError, match=f"past the series budget {qforms._MAX_TERMS}$"):
        qforms.class_numbers(records([5, D]))


def test_series_past_int64_is_refused(monkeypatch):
    # Euler's criterion squares residues mod q <= N in int64: q^2 < 2^63
    monkeypatch.setattr(qforms, "_INT64_ROOT", 100)
    with pytest.raises(ArithmeticError, match="overflow int64"):
        class_number(4 * 1000003)  # N is about 1500
    with pytest.raises(ArithmeticError, match="overflow int64"):
        qforms._chi((41,), 101)  # N past the limit, D below its square
    with pytest.raises(ArithmeticError, match="overflow int64"):
        qforms._chi((4 * 1000003,), 50)  # D itself past the limit squared
    assert qforms._chi((41,), 100)[0].tolist() == [kronecker(41, n) for n in range(101)]


def test_class_number_memory_is_linear_in_the_series_length():
    # arrays over n <= N (and tables up to the power of two >= N), no N x Omega table
    per_root = {}
    for m in (1000003, 100000007):
        D = m if m % 4 == 1 else 4 * m
        fundamental_unit(m)
        qforms._sieve.cache_clear()
        tracemalloc.start()
        try:
            assert class_number(D) >= 1
            per_root[m] = tracemalloc.get_traced_memory()[1] / math.sqrt(D)
        finally:
            tracemalloc.stop()
    assert max(per_root.values()) < 100, per_root


# --- the error bound against exact arithmetic (mpmath, 30 digits) ---

def approximate_e1(x):
    """E1 as `_slab` takes it: A-S 5.1.53 on x <= 1, 5.1.56 above."""
    if x <= 1:
        return float(np.polyval(qforms._E1_SMALL, x) - np.log(x))
    return float(np.exp(-x) / x * np.polyval(qforms._E1_NUM, x) / np.polyval(qforms._E1_DEN, x))


def exact_term(D, n):
    """The n-th term of the series without chi: (sqrt(D)/n) erfc(n sqrt(pi/D)) + E1(pi n^2/D)."""
    return (mpmath.sqrt(D) / n * mpmath.erfc(n * mpmath.sqrt(mpmath.pi / D))
            + mpmath.e1(mpmath.pi * n * n / D))


@pytest.fixture(scope="module")
def sampled_series():
    """(D, R, N, h) of 12 seeded fundamental D < 10^5, N the series length."""
    rng = random.Random(5)
    Ds = [D for D in rng.sample(range(5, 10**5), 80) if is_fundamental(D)][:12]
    assert len(Ds) == 12
    Rs = [qforms._regulator(record(D)) for D in Ds]
    return [(D, R, qforms._series_length(D, R), h)
            for D, R, h in zip(Ds, Rs, qforms.class_numbers(records(Ds)))]


def test_both_e1_approximations_stay_within_their_error_bound():
    # 5.1.53 peaks at 2.29e-7 near x = 0.069, above the 2e-7 that was claimed
    xs = [k / 4000 for k in range(1, 4001)] + [1 + k / 100 for k in range(1, 5901)]
    with mpmath.workdps(30):
        errs = [abs(approximate_e1(x) - float(mpmath.e1(x))) for x in xs]
    assert max(errs) <= qforms._E1_ERR, max(zip(errs, xs))
    assert max(errs) > 0.99 * qforms._E1_ERR  # the bound is not loose either


def test_the_tail_past_the_series_length_is_within_its_bound(sampled_series):
    with mpmath.workdps(30):
        for D, R, N, _ in sampled_series:
            tail, n = mpmath.mpf(0), N + 1
            while (t := exact_term(D, n)) > 1e-17 * tail:  # terms fall as e^(-pi n^2/D)
                tail, n = tail + t, n + 1
            assert 0 < tail <= qforms._tail_bound(N, D) <= R / 8, (D, N)


def test_the_exact_partial_sum_is_within_the_tail_of_h(sampled_series):
    with mpmath.workdps(30):
        for D, R, N, h in sampled_series:
            eps = fundamental_unit(D // 4 if D % 4 == 0 else D)
            two_r = 2 * mpmath.log((eps.a + eps.b * mpmath.sqrt(eps.m)) / eps.den)
            total = mpmath.fsum(kronecker(D, n) * exact_term(D, n) for n in range(1, N + 1))
            assert abs(total / two_r - h) <= qforms._tail_bound(N, D) / (2 * R), (D, h)


# --- the batch kernel: many discriminants, one numpy pass per slab ---

def wide_loop_class_number(D):
    return loop_class_number(D) // (2 if record(D).unit[2] == 1 else 1)


@pytest.fixture(scope="module")
def wide_below_2e4():
    return {D: wide_loop_class_number(D) for D in fundamental_discriminants(2 * 10**4)}


def test_class_numbers_equal_the_loop_oracle_below_2e4_in_one_call(wide_below_2e4):
    assert len(wide_below_2e4) == 6081
    assert qforms.class_numbers(records(wide_below_2e4)) == list(wide_below_2e4.values())


def test_class_numbers_equal_the_loop_oracle_in_scan_blocks(monkeypatch, wide_below_2e4):
    """The batches `_scan_block` hands the kernel for every m < 2*10^4 at q <= 43."""
    got = {}
    kernel = qforms.class_numbers

    def recording(recs):
        hs = kernel(recs)
        got.update((rec.D, h) for rec, h in zip(recs, hs))
        return hs

    monkeypatch.setattr(greenberg, "class_numbers", recording)
    monkeypatch.setattr(greenberg, "field_context", lambda *args: None)
    monkeypatch.setattr(greenberg, "_verdict", lambda *args: None)
    for lo in range(1, 2 * 10**4, greenberg._CHUNK):
        greenberg._scan_block((SPLIT_Q, lo, lo + greenberg._CHUNK - 1, 1))
    seen = [D for D in wide_below_2e4 if D in got]
    assert len(seen) > 6000  # the rest split at no q <= 43, so no block holds them
    assert all(not any(greenberg.admissible(D // 4 if D % 4 == 0 else D, q) for q in SPLIT_Q)
               for D in wide_below_2e4 if D not in got)
    assert [got[D] for D in seen] == [wide_below_2e4[D] for D in seen]


def first_squarefree(lo, residue):
    return next(m for m in count(lo) if m % 8 == residue and is_squarefree(m))


def test_class_numbers_of_a_mixed_batch_keep_the_input_order(monkeypatch):
    # D = 1 and 5 (mod 8), 4m with m = 3 (mod 4), and 8m' with m = 2m', near 10^4 and 10^8
    ms = [first_squarefree(M, r) for M in (10**4, 10**8) for r in (1, 5, 3, 7, 2, 6)]
    Ds = [m if m % 4 == 1 else 4 * m for m in ms]
    want = [wide_loop_class_number(D) for D in Ds]
    order = list(range(len(Ds)))
    random.Random(8).shuffle(order)
    assert qforms.class_numbers(records([Ds[i] for i in order])) == [want[i] for i in order]
    assert qforms.class_numbers(records(Ds)) == want
    assert qforms.class_numbers(records(Ds[::-1])) == want[::-1]
    monkeypatch.setattr(qforms, "_SLAB", 1)  # every row a slab of its own
    assert qforms.class_numbers(records(Ds)) == want
    monkeypatch.setattr(qforms, "_SLAB", 1 << 22)  # both magnitudes in one slab
    assert qforms.class_numbers(records(Ds)) == want
    assert qforms.class_numbers([]) == []


def test_a_batch_with_one_unseparated_discriminant_is_refused(monkeypatch):
    # m = 103 has wide h = 1; a regulator 1.3 times too large puts sum/(2R) at 0.77
    Ds = fundamental_discriminants(600)
    want = qforms.class_numbers(records(Ds))
    regulator = qforms._regulator
    monkeypatch.setattr(qforms, "_regulator",
                        lambda rec: regulator(rec) * (1.3 if rec.m == 103 else 1))
    with pytest.raises(ArithmeticError, match="not separated at D=412"):
        qforms.class_numbers(records(Ds))
    rest = [(D, h) for D, h in zip(Ds, want) if D != 412]
    assert qforms.class_numbers(records(D for D, _ in rest)) == [h for _, h in rest]


def test_every_row_of_the_chi_grid_equals_kronecker():
    Ds = fundamental_discriminants(700)
    chi = qforms._chi(Ds, 500)
    assert chi.shape == (len(Ds), 501)
    for D, row in zip(Ds, chi.tolist()):
        assert row == [kronecker(D, n) for n in range(501)], D


def test_class_numbers_memory_is_set_by_the_slab_cap():
    """Both peaks stay below 100 bytes per slab cell, and the second 100 D
    add well under the ~12 MB that holding every term of a batch would."""
    ms = [m for m in range(10**6, 10**6 + 400) if is_squarefree(m)][:200]
    recs = [pell._cycle_record(m) for m in ms]
    qforms.class_numbers(recs)  # sieve tables cached: the peaks are the slabs'
    peaks = []
    for batch in (recs[:100], recs):
        tracemalloc.start()
        try:
            qforms.class_numbers(batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 100 * qforms._SLAB, peaks
    assert peaks[1] - peaks[0] < 25 * qforms._SLAB, peaks


# --- unit reduction: plain integers against the QuadElem oracle ---

def unit_reduce(x, rec):
    """pell's integer `_unit_reduce` of the QuadElem x in the field of `rec`, as a QuadElem."""
    return make_elem(*pell._unit_reduce(x.coords(), rec), 2, x.m)


def reduced_generators(Ds, primes):
    """(x, rec) for every generator x, as a QuadElem, that `_principal_power` reduces on Ds
    at their split q in primes, rec its field's record."""
    seen = []
    reduce = pell._unit_reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pell, "_unit_reduce", lambda g, rec:
                   seen.append((make_elem(*g, 2, rec.m), rec)) or reduce(g, rec))
        for D, h in zip(Ds, qforms.class_numbers(records(Ds))):
            rec = record(D)
            for q in primes:
                if kronecker(D, q) == 1:
                    pell._principal_power(rec, q, divisors(h))
    return seen


@pytest.fixture(scope="module")
def generators_below_2e4():
    """Those of D < 2*10^4 at split q <= 43."""
    return reduced_generators(fundamental_discriminants(2 * 10**4), SPLIT_Q)


@pytest.fixture(scope="module")
def generators_near_1e6():
    """Those of the benchmark's scan-large-m window (variant 0), m = 10^6..10^6+1000 at p = 3."""
    return reduced_generators([m if m % 4 == 1 else 4 * m for m in range(10**6, 10**6 + 1001)
                               if greenberg.admissible(m, 3)], (3,))


def test_unit_reduce_does_not_depend_on_the_unit_multiple(generators_below_2e4,
                                                          generators_near_1e6):
    """x*eps^k reduces to the reduction of x itself, k in [-5, 5], so a generator
    that differs from the former route's by a unit gives the same pi1.  The one
    exception is m = 5, whose unit (1+sqrt(5))/2 has trace 1: there the greedy
    |trace| descent from x*eps^k can stop at a local minimum: from
    (7+sqrt(5))/2 * eps^k, k = 1..5, at 3+2sqrt(5) (trace 6) instead of
    (1-3sqrt(5))/2 (trace 1)."""
    elsewhere = set()
    for x, rec in generators_below_2e4 + generators_near_1e6:
        eps = fundamental_unit(rec.m)
        want = unit_reduce(x, rec)
        inv = eps.conjugate() if eps.norm() == 1 else -eps.conjugate()
        y = x * inv * inv * inv * inv * inv
        for k in range(-5, 6):
            if k and unit_reduce(y, rec) != want:
                elsewhere.add((eps.m, k))
            y = y * eps
    assert len(generators_near_1e6) == 229
    assert {m for m, _ in elsewhere} == {5}, elsewhere


@pytest.mark.parametrize("q,pi1", [
    (11, (1, -3, 2)), (19, (7, -5, 2)), (29, (4, -3, 1)), (31, (1, 5, 2)),
    (41, (9, -7, 2)), (59, (13, -9, 2)), (61, (1, 7, 2)), (89, (6, -5, 1))])
def test_the_generators_at_m5_are_unchanged(q, pi1):
    """At m = 5, the known exception above, pi1 is still the former route's."""
    want = make_elem(*pi1, 5)
    assert build_context(5, q).pi1 == want
    assert principal_power(5, q, (1,)) == cycle_principal_power(5, q, (1,)) == (1, want)


def test_unit_reduce_equals_the_elem_oracle_on_every_generator(generators_below_2e4):
    assert len(generators_below_2e4) > 36000
    for x, rec in generators_below_2e4:
        assert unit_reduce(x, rec) == elem_unit_reduce(x, rec.m), x


def test_unit_reduce_equals_the_elem_oracle_on_unit_multiples(generators_below_2e4):
    # every k in [-3, 3] on a seeded sample of the reduced generators
    for x, rec in random.Random(3).sample(generators_below_2e4, 1500):
        eps, m = fundamental_unit(rec.m), rec.m
        inv = eps.conjugate() if eps.norm() == 1 else -eps.conjugate()
        y = elem_unit_reduce(x, m) * inv * inv * inv
        for k in range(-3, 4):
            assert unit_reduce(y, rec) == elem_unit_reduce(y, m), (x, k)
            y = y * eps


@pytest.mark.parametrize("D", [-8, 0, 9, 7, 20, 45, 4 * 18])
def test_non_fundamental_discriminants_are_rejected(D):
    # negative, square, 3 mod 4, 4*(1 mod 4), 9*5 and 4*18 (not squarefree)
    for call in (lambda: class_number(D), lambda: class_order(D, 3, 1),
                 lambda: represent(D, 3, 1)):
        with pytest.raises(ValueError):
            call()


# --- composition oracle ---

def is_reduced(f, D):
    a, b, _ = f
    s = math.isqrt(D)
    return 1 <= b <= s and max(1, s - b + 1) <= 2 * abs(a) <= s + b


def _into_window(b, half, D):
    """b' = b (mod 2*half) in the reduction window for a form with |a| = half."""
    s = math.isqrt(D)
    if half > s:
        t = b % (2 * half)
        return t - 2 * half if t > half else t
    return s - ((s - b) % (2 * half))


def rho(f, D):
    _, b, c = f
    b2 = _into_window(-b, abs(c), D)
    return c, b2, (b2 * b2 - D) // (4 * c)


def reduce_form(f, D):
    a, b, _ = f
    if not is_reduced(f, D):
        b = _into_window(b, abs(a), D)
        f = a, b, (b * b - D) // (4 * a)
    while not is_reduced(f, D):
        f = rho(f, D)
    return f


def principal_form(D):
    k = D % 2
    return 1, k, (k * k - D) // 4


def prime_form(D, q):
    """(q, t, .) with t from the root of m fixing the first prime above q."""
    m, e = (D // 4, 2) if D % 4 == 0 else (D, 1)
    t = (-e * hensel_sqrt(m, q, 1)) % q
    if (t - D) % 2:
        t += q
    return q, t, (t * t - D) // (4 * q)


def inverse(f):
    a, b, c = f
    return a, -b, c


def compose(f, g, D):
    """Gauss composition (Dirichlet's united forms), returned reduced."""
    f, g = reduce_form(f, D), reduce_form(g, D)
    if f[0] < 0:
        f = rho(f, D)  # neighbours in a cycle alternate the sign of a
    if g[0] < 0:
        g = rho(g, D)
    (a1, b1, _), (a2, b2, _) = f, g
    d1, u, v = xgcd(a1, a2)
    d, u2, v2 = xgcd(d1, (b1 + b2) // 2)
    a3 = a1 * a2 // (d * d)
    num = u2 * (u * a1 * b2 + v * a2 * b1) + v2 * (b1 * b2 + D) // 2
    assert num % d == 0
    b3 = (num // d) % (2 * a3)
    assert (b3 * b3 - D) % (4 * a3) == 0
    return reduce_form((a3, b3, (b3 * b3 - D) // (4 * a3)), D)


def power(f, k, D):
    if k < 0:
        return power(inverse(f), -k, D)
    result, base = reduce_form(principal_form(D), D), f
    while k:
        if k & 1:
            result = compose(result, base, D)
        k >>= 1
        if k:
            base = compose(base, base, D)
    return result


def is_wide_principal(f, D):
    """The reduced cycle of f holds a form with |a| = 1."""
    start = cur = reduce_form(f, D)
    while abs(cur[0]) != 1:
        cur = rho(cur, D)
        if cur == start:
            return False
    return True


def same_class(f, g, D):
    return is_wide_principal(compose(f, inverse(g), D), D)


def oracle_class_order(D, q, h):
    f = prime_form(D, q)
    return next(d for d in divisors(h) if is_wide_principal(power(f, d, D), D))


def wide_class_number(D):
    return qforms.class_numbers(records((D,)))[0]


SPLIT_Q = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def test_class_order_matches_composition_oracle():
    pairs = 0
    for D in fundamental_discriminants(10**4):
        h = wide_class_number(D)
        for q in SPLIT_Q:
            if kronecker(D, q) == 1:
                assert class_order(D, q, h) == oracle_class_order(D, q, h), (D, q)
                pairs += 1
    assert pairs == 18230


def test_principal_power_matches_two_walk_oracle():
    pairs = 0
    for D in fundamental_discriminants(10**4):
        h = wide_class_number(D)
        for q in SPLIT_Q:
            if kronecker(D, q) == 1:
                want = two_walk_principal_power(D, q, h)
                assert principal_power(D, q, divisors(h)) == want, (D, q)
                assert cycle_principal_power(D, q, divisors(h)) == want, (D, q)
                pairs += 1
    assert pairs == 18230


def test_walks_stop_at_their_first_reduced_ideal():
    """Every divisor walk stops at its first reduced ideal, and that ideal is on the
    principal cycle exactly when the former walk, round its whole cycle, closes."""
    pairs = closed = 0
    for D in fundamental_discriminants(4000):
        m = D // 4 if D % 4 == 0 else D
        h = wide_class_number(D)
        for q in (3, 5, 7, 11, 13):
            if kronecker(D, q) != 1:
                continue
            s = hensel_sqrt(m, q, max(divisors(h)) + 1)
            for d in divisors(h):
                A, B = q**d, pell._canonical_root(D, q, d, s)
                cs, bs = walk = pell._ideal_walk(A, B, D)
                assert stops_at_its_first_reduced_ideal(walk, D), (D, q, d)
                principal = pell._cycle_generator(record(D), abs(cs[-1]), bs[-1]) is not None
                assert principal == (_gamma_walk(A, B, D) is not None), (D, q, d)
                closed += principal
            assert principal_power(D, q, divisors(h)) == \
                two_walk_principal_power(D, q, h), (D, q)
            pairs += 1
    assert (pairs, closed) == (2599, 2981)


# the first 16 squarefree m above 10^7
NEAR_1E7 = (10000001, 10000002, 10000003, 10000005, 10000006, 10000007,
            10000009, 10000010, 10000011, 10000013, 10000014, 10000015,
            10000019, 10000021, 10000022, 10000023)


@pytest.mark.parametrize("m", NEAR_1E7)
def test_principal_power_matches_two_walk_oracle_near_1e7(m):
    D = m if m % 4 == 1 else 4 * m
    h = wide_class_number(D)
    split = [q for q in SPLIT_Q if kronecker(D, q) == 1]
    assert split
    for q in split:
        want = two_walk_principal_power(D, q, h)
        assert principal_power(D, q, divisors(h)) == want, q
        assert cycle_principal_power(D, q, divisors(h)) == want, q


def test_principal_power_matches_the_cycle_oracle_on_a_scan_window():
    """The benchmark's scan-large-m window (variant 0) at p = 3, lift passed in as
    `build_context` does; the lookup replaced these walks round whole cycles."""
    ms = [m for m in range(10**6, 10**6 + 1001) if greenberg.admissible(m, 3)]
    Ds = [m if m % 4 == 1 else 4 * m for m in ms]
    assert len(Ds) == 229
    found = []
    for m, D, h in zip(ms, Ds, qforms.class_numbers(records(Ds))):
        s = hensel_sqrt(m, 3, max(9, h + 2))
        for d in divisors(h):  # each divisor alone: misses as well as hits
            got = principal_power(D, 3, (d,), s)
            assert got == cycle_principal_power(D, 3, (d,), s), (m, d)
            found.append(got is not None)
    assert (found.count(True), found.count(False)) == (363, 307)


def test_principal_power_none_when_no_power_closes():
    # m = 10: p above 3 has order 2, so p^1 alone is not principal
    assert principal_power(40, 3, (1,)) is None
    assert principal_power(40, 3, (1, 2)) == (2, represent(40, 3, 2))


@pytest.mark.parametrize("D", [40, 60, 316, 412, 520, 1756])
def test_composition_group_laws(D):
    reps = reduced_forms(D)
    rng = random.Random(D)
    sample = rng.sample(reps, min(6, len(reps)))
    e = reduce_form(principal_form(D), D)
    for f in sample:
        assert is_wide_principal(compose(f, inverse(f), D), D)
        g = rng.choice(sample)
        left = compose(compose(f, g, D), sample[0], D)
        right = compose(f, compose(g, sample[0], D), D)
        # associativity up to equivalence: same cycle
        assert same_class(left, right, D)
        assert same_class(compose(f, e, D), f, D)


def test_power_consistency():
    D = 412
    f = prime_form(D, 3)
    assert same_class(power(f, 3, D), compose(compose(f, f, D), f, D), D)
    assert is_wide_principal(power(f, 1, D), D) == is_wide_principal(f, D)


@pytest.mark.parametrize("D,q", [(412, 3), (412, 11), (10636, 3), (120172, 3)])
def test_prime_form_is_valid(D, q):
    a, b, c = prime_form(D, q)
    assert a == q and b * b - 4 * a * c == D
    assert 0 <= b < 2 * q


def test_class_numbers_known():
    # narrow spot values: N(eps) = +1 for 103/2659/30043 doubles the wide h
    assert class_number(412) == 2       # m = 103, h = 1
    assert class_number(10636) == 6     # m = 2659, h = 3
    assert class_number(120172) == 36   # m = 30043, h = 18
    assert class_number(40) == 2        # m = 10, h = 2, N(eps) = -1


def test_class_order_30043():
    D = 120172
    assert class_order(D, 3, 18) == 9
    assert oracle_class_order(D, 3, 18) == 9


@pytest.mark.parametrize("D,q,k", [(412, 3, 1), (10636, 3, 3), (120172, 3, 9)])
def test_represent_gives_generator(D, q, k):
    alpha = represent(D, q, k)
    assert alpha is not None
    assert abs(alpha.norm()) == q**k
    assert alpha.coords()[0] > 0


def test_represent_nonprincipal_returns_none():
    # m = 10: the prime above 3 is not principal (h = 2, form class of order 2)
    assert represent(40, 3, 1) is None
    assert class_order(40, 3, 2) == 2
    assert represent(40, 3, 2) is not None


def test_represent_validates_input():
    for D, q, k in ((412, 15, 1),   # q not prime
                    (412, 3, 0),    # exponent below 1
                    (412, 2, 1),    # q even
                    (412, 5, 1)):   # kronecker(412, 5) = -1, not split
        with pytest.raises(ValueError):
            represent(D, q, k)


def test_represent_supports_canonical_prime():
    # norm sign is free, but the q-adic support must sit at the labelled prime
    from iwascan.quadint import residues
    for D, q in ((412, 3), (10636, 3), (412, 11), (120028, 3)):
        k = class_order(D, q, class_number(D))
        alpha = represent(D, q, k)
        m = D // 4 if D % 4 == 0 else D
        s = hensel_sqrt(m, q, k + 1)
        r1, r2 = residues(alpha.coords(), s, q ** (k + 1))
        assert valuation(r1, q) == k and r2 % q != 0


def test_reduced_forms_are_reduced_and_complete():
    for D in (40, 316, 412, 1304):
        reps = set(reduced_forms(D))
        assert all(is_reduced(t, D) for t in reps)
        # brute scan of the coefficient box, filtered only by the predicate
        s = math.isqrt(D)
        brute = set()
        for b in range(1, s + 1):
            for aa in range(1, s + b + 1):  # aa = |a|
                if (b * b - D) % (4 * aa):
                    continue
                for a in (aa, -aa):
                    f = (a, b, (b * b - D) // (4 * a))
                    if is_reduced(f, D):
                        brute.add(f)
        assert reps == brute
        assert len(reps) >= cycle_class_number(D) == class_number(D)
