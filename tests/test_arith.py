"""Integer arithmetic helpers against sympy and first principles."""

import pytest
from hypothesis import given, strategies as st
from sympy import isprime, kronecker_symbol, prime
from sympy.ntheory import n_order, sqrt_mod

from iwascan.arith import (_MR_BASES, _MR_PSI, divisors, factorize, is_prime, is_squarefree,
                           kronecker, sqrt_mod_prime, teichmuller, valuation)
from oracles import (is_prime_all_bases, is_sprp, multiplicative_order_p_power,
                     primitive_root_mod_prime_power, xgcd)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_bezout(a, b):
    g, u, v = xgcd(a, b)
    assert u * a + v * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@given(st.integers(2, 10**6), st.integers(1, 10**6))
def test_inv_mod(n, a):
    from math import gcd
    if gcd(a, n) == 1:
        assert a * pow(a, -1, n) % n == 1
    else:
        with pytest.raises(ValueError):
            pow(a, -1, n)


@given(st.integers(0, 10**7))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


def test_is_prime_large():
    # around the deterministic Miller-Rabin witness limit
    assert is_prime(10**18 + 9)
    assert not is_prime(10**18 + 7)
    n = 10**25  # past the limit; avoid the small-prime fast path
    while any(n % p == 0 for p in range(2, 50)):
        n += 1
    with pytest.raises(ValueError):
        is_prime(n)


PSI = list(enumerate(_MR_PSI, start=1))
LIMIT = _MR_PSI[-1]  # is_prime refuses n >= psi_13


@pytest.mark.parametrize("k, psi", PSI)
def test_psi_k_is_the_first_pseudoprime_to_k_bases(k, psi):
    # composite, passes the first k bases, and fails base k+1 unless psi_(k+1)
    # is the same number: a table entry shifted by one place breaks one of these
    assert _MR_BASES[:k] == tuple(prime(i) for i in range(1, k + 1))
    assert not isprime(psi)
    assert all(is_sprp(psi, a) for a in _MR_BASES[:k])
    same_next = k < len(_MR_PSI) and _MR_PSI[k] == psi
    assert is_sprp(psi, prime(k + 1)) == same_next
    assert _MR_PSI == tuple(sorted(_MR_PSI))


@pytest.mark.parametrize("k, psi", PSI)
def test_is_prime_around_each_psi_k(k, psi):
    # the tier where the first k bases stop proving: both sides of psi_k
    for n in range(psi - 1000, min(psi + 1001, LIMIT), 2):  # psi is odd
        assert is_prime(n) == isprime(n) == is_prime_all_bases(n), n
    if psi < LIMIT:
        assert is_prime(psi) is False
    else:  # psi_13 itself lies past the witness range: refused, not called prime
        with pytest.raises(ValueError):
            is_prime(psi)


@given(st.integers(0, 10**7) | st.integers(10**7, LIMIT - 1))
def test_is_prime_matches_the_all_bases_oracle(n):
    assert is_prime(n) == is_prime_all_bases(n)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_kronecker_matches_sympy(a, n):
    assert kronecker(a, n) == kronecker_symbol(a, n)


def test_kronecker_multiplicative():
    # bottom multiplicativity (n = 0 excluded: the (+-1 | 0) = 1 edge breaks it)
    for a in range(-30, 30):
        for n1 in range(-15, 15):
            for n2 in range(-15, 15):
                if n1 and n2:
                    assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)


@given(st.integers(1, 10**12), st.integers(0, 50))
def test_valuation(base, k):
    for p in (2, 3, 7):
        if base % p == 0:
            continue
        n = base * p**min(k, 30)
        assert valuation(n, p) == min(k, 30)
    with pytest.raises(ValueError):
        valuation(0, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009, 10**9 + 7])
def test_sqrt_mod_prime(p):
    hits = 0
    for a in range(1, min(p, 60)):
        if kronecker(a, p) != 1:
            continue
        r = sqrt_mod_prime(a, p)
        assert r * r % p == a
        hits += 1
    assert hits > 0


@given(st.integers(2, 10**6))
def test_factorize_and_divisors(n):
    fac = factorize(n)
    prod = 1
    for q, e in fac.items():
        assert is_prime(q) and e >= 1
        prod *= q**e
    assert prod == n
    divs = divisors(n)
    assert divs == sorted(divs) and divs[0] == 1 and divs[-1] == n
    assert all(n % d == 0 for d in divs)


@given(st.integers(1, 10**5))
def test_is_squarefree(n):
    expected = all(e == 1 for e in factorize(n).values()) if n > 1 else True
    assert is_squarefree(n) == expected


@pytest.mark.parametrize("p,k", [(3, 1), (3, 5), (5, 4), (7, 3), (11, 2), (43, 2)])
def test_primitive_root(p, k):
    g = primitive_root_mod_prime_power(p, k)
    mod = p**k
    order = (p - 1) * p ** (k - 1)
    assert n_order(g, mod) == order


ODD_PRIMES_BELOW_200 = [q for q in range(3, 200, 2) if isprime(q)]


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_200)
def test_teichmuller_equals_primitive_root_powers(p):
    # the former route: rho^(j p^(k-1)) for a primitive root rho mod p^k
    for k in range(1, 14):
        mod = p**k
        rho = primitive_root_mod_prime_power(p, k)
        old = sorted(pow(rho, j * p ** (k - 1), mod) for j in range(1, p))
        assert sorted(teichmuller(p, k)) == old, (p, k)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 7), (5, 5), (7, 4), (11, 3),
                                 (13, 3), (31, 2), (101, 2)])
def test_teichmuller_is_the_root_set_of_x_to_p_minus_1(p, k):
    mod = p**k
    lifts = tuple(teichmuller(p, k))  # a lazy stream: read it twice from a tuple
    assert sorted(lifts) == [x for x in range(mod) if pow(x, p - 1, mod) == 1]
    assert [x % p for x in lifts] == list(range(1, p))  # the lift of a is = a mod p


@pytest.mark.parametrize("p,k", [(3, 6), (5, 4), (7, 4)])
def test_multiplicative_order_p_power(p, k):
    mod = p**k
    # elements of the 1 + pZ subgroup have p-power order
    for t in range(1, k):
        y = (1 + p**t) % mod
        assert multiplicative_order_p_power(y, p, mod) == p ** (k - t)
    assert multiplicative_order_p_power(1, p, mod) == 1
    with pytest.raises(ArithmeticError):
        multiplicative_order_p_power(2, p, mod)  # order not a p-power


def test_sqrt_mod_agrees_with_sympy():
    for p in (3, 7, 19, 10007):
        for a in range(2, 40):
            if kronecker(a, p) == 1:
                r = sqrt_mod_prime(a % p, p)
                assert r in (sqrt_mod(a, p), p - sqrt_mod(a, p))
