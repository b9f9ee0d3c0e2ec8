"""Fermat-quotient valuations: the two computation routes must coincide."""

import random

import pytest

from iwascan.arith import kronecker
from iwascan.fermat import Capped, delta_embed, delta_exact
from iwascan.greenberg import check_field
from iwascan.quadint import make_elem
from iwascan.sunits import build_context
from oracles import check_product_dichotomy, delta_bezout

FIELDS = [(7, 3), (10, 3), (103, 3), (13, 3), (2659, 3), (30007, 3),
          (22, 7), (109, 7), (44853, 7), (14, 5), (14, 11), (201, 5)]


def random_element(rng, m, p, coprime_first=False):
    ctx = build_context(m, p)
    while True:
        x = make_elem(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), 1, m)
        if x.a == 0 and x.b == 0:
            continue
        r = ctx.embed(x)
        if coprime_first and r.r1 % p == 0:
            continue
        if not coprime_first and x.norm() % p == 0:
            continue
        return x


def test_embed_equals_bezout_on_1000_cases():
    rng = random.Random(2024)
    n = 10
    for _ in range(1000):
        m, p = rng.choice(FIELDS)
        ctx = build_context(m, p)
        x = random_element(rng, m, p, coprime_first=True)
        emb = delta_embed(x, ctx, n)
        _, bez = delta_bezout(x, ctx, n)
        assert bez.delta1 == emb.delta1, (m, p, x)


def test_bezout_witness_structure():
    ctx = build_context(103, 3)
    x = make_elem(5, 2, 1, 103)
    w, rep = delta_bezout(x, ctx, 6)
    mod = 3**7
    # the associate is congruent to x at the first prime, to 1 at the second
    assert w.xprime.r2 == 1
    assert w.xprime.r1 == ctx.embed(x, 6).r1
    assert w.normval % mod == w.xprime.r1 % mod
    # U1*pi1^(n+1) + U2*pi2^(n+1) is a partition of unity mod p^(n+1)
    e1, e2 = ctx.embed(ctx.pi1, 6), ctx.embed(ctx.pi2, 6)
    assert (w.U1.r1 * pow(e1.r1, 7, mod) + w.U2.r1 * pow(e2.r1, 7, mod)) % mod == 1
    assert (w.U1.r2 * pow(e1.r2, 7, mod) + w.U2.r2 * pow(e2.r2, 7, mod)) % mod == 1


def test_bezout_requires_coprimality():
    ctx = build_context(103, 3)
    with pytest.raises(ValueError):
        delta_bezout(ctx.pi1, ctx, 5)  # pi1 sits inside the first prime


def test_galois_symmetry_on_1000_cases():
    rng = random.Random(7)
    for _ in range(1000):
        m, p = rng.choice(FIELDS)
        ctx = build_context(m, p)
        x = random_element(rng, m, p)
        r = delta_embed(x, ctx, 8)
        rc = delta_embed(x.conjugate(), ctx, 8)
        assert (rc.delta1, rc.delta2) == (r.delta2, r.delta1)


def test_unit_deltas_agree():
    for m, p in FIELDS:
        ctx = build_context(m, p)
        rep = delta_exact(ctx.eps, ctx, 1)
        assert rep.delta1 == rep.delta2


def test_product_dichotomy():
    rng = random.Random(99)
    checked = 0
    for _ in range(4000):
        m, p = rng.choice(FIELDS)
        ctx = build_context(m, p)
        x = random_element(rng, m, p)
        nx = x.norm()
        if pow(nx, p - 1, p**3) != 1:
            continue
        assert check_product_dichotomy(x, ctx, 2) in ("equal", "capped")
        checked += 1
    assert checked > 20


def test_dichotomy_rejects_bad_norm():
    ctx = build_context(103, 3)
    x = make_elem(1, 1, 1, 103)  # norm -102, not = 1 mod 27
    with pytest.raises(ValueError):
        check_product_dichotomy(x, ctx, 2)


def test_delta_exact_doubles_until_resolved():
    ctx = build_context(103, 3)
    # delta(eps) = 1, so n=1 reports Capped(1) and delta_exact must resolve it
    low = delta_embed(ctx.eps, ctx, 1)
    assert low.delta1 == Capped(1)
    rep = delta_exact(ctx.eps, ctx, 1)
    assert rep.delta1 == 1 and rep.delta2 == 1
    assert rep.n >= 2


def test_delta_of_p_multiple():
    # elements inside a prime are handled by stripping the p-part first
    ctx = build_context(103, 3)
    x = ctx.pi2 * make_elem(5, 2, 1, 103)
    rep = delta_embed(x, ctx, 6)
    assert isinstance(rep.delta1, (int, Capped))
    assert isinstance(rep.delta2, (int, Capped))
    # scaling by p itself changes nothing: p strips out entirely
    y = x * make_elem(3, 0, 1, 103)
    rep2 = delta_embed(y, ctx, 6)
    assert (rep2.delta1, rep2.delta2) == (rep.delta1, rep.delta2)


def test_delta_rejects_zero_and_bad_n():
    ctx = build_context(103, 3)
    with pytest.raises(ValueError):
        delta_embed(make_elem(0, 0, 1, 103), ctx, 4)
    with pytest.raises(ValueError):
        delta_embed(ctx.eps, ctx, 0)


def test_torsion_valuation():
    # v_p of the torsion order is v_p(h) + delta(eps)
    assert check_field(103, 3).torsion_v == 1  # h = 1, delta = 1
    assert check_field(2659, 3).torsion_v == 3  # v_3(3) + 2


def test_known_deltas():
    ctx = build_context(103, 3)
    rep = delta_exact(ctx.eps, ctx, 1)
    assert rep.delta1 == 1
    rep_pi = delta_exact(ctx.pi2, ctx, 1)
    assert rep_pi.delta1 == 1
    ctx = build_context(12007, 3)
    assert delta_exact(ctx.eps, ctx, 1).delta1 == 2
    assert delta_exact(ctx.pi2, ctx, 1).delta1 == 6
