"""Quadratic-order arithmetic: ring axioms, embeddings, Hensel roots."""

import pytest
from hypothesis import given, settings, strategies as st
from sympy.ntheory import sqrt_mod

from iwascan.arith import kronecker
from iwascan.quadint import QuadElem, QuadResidue, hensel_sqrt, make_elem, residues

SPLIT_CASES = [(m, p) for m in (7, 10, 13, 103, 2659, 30007)
               for p in (3, 5, 7, 11) if kronecker(m, p) == 1]


def coords(m):
    half = m % 4 == 1
    return st.tuples(st.integers(-10**8, 10**8), st.integers(-10**8, 10**8),
                     st.sampled_from((1, 2) if half else (1,)))


def embed(x, s, p, N):
    """x in Z/p^N x Z/p^N via sqrt(m) -> +-s: `residues` of its plain coordinates."""
    return QuadResidue(*residues(x.coords(), s, p**N), p**N)


def elem(m, t):
    a, b, den = t
    if den == 2 and (a - b) % 2:
        a += 1
    return make_elem(a, b, den, m)


@pytest.mark.parametrize("m", [7, 10, 103, 13, 30007])
@given(t1=st.data())
def test_norm_multiplicative(m, t1):
    x = elem(m, t1.draw(coords(m)))
    y = elem(m, t1.draw(coords(m)))
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@pytest.mark.parametrize("m", [7, 13, 103])
@given(t=st.data())
def test_conjugate_involution_trace_norm(m, t):
    x = elem(m, t.draw(coords(m)))
    assert x.conjugate().conjugate() == x
    assert x.trace() == 2 * x.a // x.den
    assert make_elem(2 * x.a, 0, x.den, m) == make_elem(x.trace(), 0, 1, m)
    assert x * x.conjugate() == make_elem(x.norm(), 0, 1, m)


@pytest.mark.parametrize("m,p", SPLIT_CASES)
@settings(max_examples=25)
@given(t=st.data())
def test_embed_is_ring_hom(m, p, t):
    N = 8
    s = hensel_sqrt(m, p, N)
    x = elem(m, t.draw(coords(m)))
    y = elem(m, t.draw(coords(m)))
    rx, ry, rxy = embed(x, s, p, N), embed(y, s, p, N), embed(x * y, s, p, N)
    d = max(x.den, y.den)  # x + y from coordinates over the common denominator
    x_plus_y = make_elem(x.a * (d // x.den) + y.a * (d // y.den),
                       x.b * (d // x.den) + y.b * (d // y.den), d, m)
    rsum = embed(x_plus_y, s, p, N)
    mod = p**N
    assert rxy.r1 == rx.r1 * ry.r1 % mod and rxy.r2 == rx.r2 * ry.r2 % mod
    assert rsum.r1 == (rx.r1 + ry.r1) % mod and rsum.r2 == (rx.r2 + ry.r2) % mod
    # norm through the embedding
    assert rx.r1 * rx.r2 % mod == x.norm() % mod


@pytest.mark.parametrize("m,p", SPLIT_CASES)
@given(t=st.data())
def test_embed_swaps_under_conjugation(m, p, t):
    s = hensel_sqrt(m, p, 6)
    x = elem(m, t.draw(coords(m)))
    r, rc = embed(x, s, p, 6), embed(x.conjugate(), s, p, 6)
    assert (r.r1, r.r2) == (rc.r2, rc.r1)


@pytest.mark.parametrize("m,p,N", [(103, 3, 13), (7, 3, 8), (30007, 3, 10),
                                   (2659, 3, 9), (13, 3, 8), (44853, 7, 6)])
def test_hensel_sqrt(m, p, N):
    s = hensel_sqrt(m, p, N)
    assert pow(s, 2, p**N) == m % p**N
    # sympy computes the same set of roots mod p^N
    roots = sqrt_mod(m, p**N, all_roots=True)
    assert s in roots
    # labelling: congruent to the smaller positive root mod p
    r = sqrt_mod(m, p)
    assert s % p == min(r, p - r)


def test_hensel_sqrt_rejects_inert():
    for m, p in ((5, 3), (15, 3), (7, 2)):  # inert, ramified, p = 2; at N = 1 no lift refuses
        with pytest.raises(ValueError):
            hensel_sqrt(m, p, 1)


def test_make_elem_canonicalizes():
    x = make_elem(6, 2, 4, 13)  # halves to (3 + sqrt(13))/2
    assert (x.a, x.b, x.den) == (3, 1, 2)
    y = make_elem(4, 2, 2, 13)  # both even: drops to den 1
    assert (y.a, y.b, y.den) == (2, 1, 1)
    with pytest.raises(ValueError):
        QuadElem(1, 0, 2, 7)  # den=2 needs m = 1 mod 4
    with pytest.raises(ValueError):
        QuadElem(1, 2, 2, 13)  # parity mismatch


def test_one_and_pow():
    u = QuadElem(1, 0, 1, 103)
    x = make_elem(10, -1, 1, 103)
    assert x * u == x and u * x == x
    assert (x * x) * x == x * (x * x)
    s, mod = hensel_sqrt(103, 3, 7), 3**7
    r, r5 = embed(x, s, 3, 7), embed(x * x * x * x * x, s, 3, 7)
    assert (r5.r1, r5.r2) == (pow(r.r1, 5, mod), pow(r.r2, 5, mod))
    assert embed(u, s, 3, 7) == QuadResidue(1, 1, mod)


def test_norm_asserts_integrality():
    # (1 + sqrt(13))/2 has norm (1 - 13)/4 = -3, integral as it must be
    assert make_elem(1, 1, 2, 13).norm() == -3
