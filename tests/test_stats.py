"""Statistics harnesses: tallies, expected laws, determinism."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from iwascan import qforms
from iwascan.arith import kronecker
from iwascan.quadint import hensel_sqrt
from iwascan.stats import (DensityTally, NORM_CONSTRAINED, StatTally,
                           UNCONSTRAINED, _teichmuller, expected_proportions,
                           prime_fermat_scan, random_elem_density)
from iwascan.sunits import PreconditionError


def test_expected_proportions_values():
    got = expected_proportions(3, 2, 5)
    assert got == (Fraction(2, 3), Fraction(2, 9), Fraction(2, 27),
                   Fraction(2, 81), Fraction(2, 243), Fraction(1, 243))
    assert expected_proportions(7, 2, 5)[0] == Fraction(6, 7)


@pytest.mark.parametrize("p,d,rmax", [(3, 2, 5), (7, 2, 4), (5, 3, 6), (11, 2, 3)])
def test_expected_proportions_sum_to_one(p, d, rmax):
    assert sum(expected_proportions(p, d, rmax)) == 1


def test_prime_scan_small_frozen():
    t = prime_fermat_scan(103, 3, 5, 10**6)
    assert t.total == 162
    assert t.counts == (107, 34, 13, 7, 1, 0)
    assert t.skipped_nonprincipal == 0
    assert sum(t.counts) == t.total
    assert abs(t.proportions[0] - 2 / 3) < 0.05


def test_prime_scan_deterministic_and_parallel():
    a = prime_fermat_scan(103, 3, 5, 10**6)
    b = prime_fermat_scan(103, 3, 5, 10**6)
    c = prime_fermat_scan(103, 3, 5, 10**6, workers=2)
    assert a == b == c


def test_prime_scan_skips_nonprincipal():
    # h(Q(sqrt 10)) = 2: half the split primes land in the other class
    t = prime_fermat_scan(10, 3, 5, 10**5)
    assert t.skipped_nonprincipal == 11
    assert t.total == 11
    assert t.counts == (8, 1, 0, 1, 1, 0)


def test_prime_scan_proves_each_prime_once(monkeypatch):
    # the candidate sieve proves every ell prime; the walk must not again
    proved = []
    is_prime = qforms.is_prime
    monkeypatch.setattr(qforms, "is_prime", lambda n: proved.append(n) or is_prime(n))
    t = prime_fermat_scan(10, 3, 5, 10**5)
    assert t.total + t.skipped_nonprincipal == 22
    assert proved == []


def test_prime_scan_empty_below_modulus():
    t = prime_fermat_scan(103, 3, 5, 3**6)
    assert t.total == 0 and all(c == 0 for c in t.counts)


def test_prime_scan_preconditions():
    with pytest.raises(PreconditionError):
        prime_fermat_scan(5, 3, 5, 10**5)  # inert
    with pytest.raises(PreconditionError):
        prime_fermat_scan(79, 3, 5, 10**5)  # 3 | h = 3
    with pytest.raises(ValueError):
        prime_fermat_scan(103, 3, 3, 10**5, rmax=5)  # n < rmax


def test_density_deterministic():
    a = random_elem_density(7, 3, 200_000, NORM_CONSTRAINED, seed=5)
    b = random_elem_density(7, 3, 200_000, NORM_CONSTRAINED, seed=5)
    assert a == b
    c = random_elem_density(7, 3, 200_000, NORM_CONSTRAINED, seed=6)
    assert c != a  # same law, different stream


def test_density_matches_expected_law():
    t = random_elem_density(7, 3, 500_000, NORM_CONSTRAINED, seed=1)
    assert abs(t.density - 2 / 3) < 0.01
    assert t.expected == Fraction(2, 3)
    u = random_elem_density(7, 3, 500_000, UNCONSTRAINED, seed=1)
    assert abs(u.density - 8 / 9) < 0.01
    assert u.expected == Fraction(8, 9)
    # acceptance windows tighten once more than 1e6 samples are kept
    assert u.accepted > t.accepted


def test_density_other_prime():
    t = random_elem_density(14, 5, 400_000, NORM_CONSTRAINED, seed=3)
    assert abs(t.density - 4 / 5) < 0.02
    u = random_elem_density(14, 5, 400_000, UNCONSTRAINED, seed=3)
    assert abs(u.density - 24 / 25) < 0.02


def test_density_zero_samples():
    t = random_elem_density(7, 3, 0, NORM_CONSTRAINED, seed=0)
    assert t.accepted == 0 and t.density is None


def test_density_validates():
    with pytest.raises(PreconditionError):
        random_elem_density(5, 3, 100)
    with pytest.raises(ValueError):
        random_elem_density(7, 3, 100, mode="bogus")
    with pytest.raises(ValueError):
        random_elem_density(7, 3, -5)


def exact_density(m, p, samples, mode, seed):
    """(accepted, hits) of `random_elem_density` redone in Python ints."""
    p2 = p * p
    s = hensel_sqrt(m, p, 1) % p2
    draw = np.random.default_rng(seed).integers(0, 10**6, size=(samples, 2), dtype=np.int64)
    accepted = hits = 0
    for a, b in draw.tolist():
        r1, r2 = (b + a * s) % p2, (b - a * s) % p2
        fermat1, fermat2 = pow(r1, p - 1, p2) != 1, pow(r2, p - 1, p2) != 1
        if mode == NORM_CONSTRAINED:
            if pow(r1 * r2, p - 1, p2) == 1:
                accepted += 1
                hits += fermat1
        elif r1 * r2 % p:
            accepted += 1
            hits += fermat1 or fermat2
    return accepted, hits


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([2, 3, 6, 7, 10, 14]),
       p=st.sampled_from([3, 5, 7, 11, 13, 17, 23, 101, 1009]),
       mode=st.sampled_from([NORM_CONSTRAINED, UNCONSTRAINED]),
       samples=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
def test_density_matches_exact_integers(m, p, mode, samples, seed):
    assume(kronecker(m, p) == 1)
    t = random_elem_density(m, p, samples, mode, seed)
    assert (t.accepted, t.hits) == exact_density(m, p, samples, mode, seed)


@pytest.mark.parametrize("mode", [NORM_CONSTRAINED, UNCONSTRAINED])
def test_density_exact_at_the_largest_int64_safe_prime(mode):
    # 55103 is the largest prime split in Q(sqrt 3) with p^4 < 2^63
    t = random_elem_density(3, 55103, 2000, mode, seed=9)
    assert (t.accepted, t.hits) == exact_density(3, 55103, 2000, mode, 9)


@pytest.mark.parametrize("p", [55117, 60013])
def test_density_refuses_primes_that_overflow_int64(p):
    # the int64 path gave (0, 0) at p = 60013 where exact ints give (1, 1)
    with pytest.raises(PreconditionError):
        random_elem_density(3, p, 20_000, NORM_CONSTRAINED, seed=0)


def test_tally_validates_totals():
    with pytest.raises(ValueError):
        StatTally(m=103, p=3, n=5, bound=10, rmax=1, total=5, counts=(1, 1),
                  skipped_nonprincipal=0)


def test_tally_validation_survives_optimize_flag():
    # `python -O` strips assert statements; the totals check must not be one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_tally_validates_totals"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_teichmuller_table_decides_the_fermat_congruence(p):
    r = np.arange(p * p, dtype=np.int64)
    got = _teichmuller(p)[r % p] == r
    assert got.tolist() == [pow(x, p - 1, p * p) == 1 for x in range(p * p)]
