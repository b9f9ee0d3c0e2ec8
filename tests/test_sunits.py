"""Field context assembly: class data, S-unit generators, embeddings."""

import random

import pytest

from iwascan import greenberg, pell, qforms, quadint, stats, sunits
from iwascan.arith import divisors, is_squarefree, kronecker, valuation
from iwascan.qforms import class_number
from iwascan.quadint import make_elem
from iwascan.sunits import PreconditionError, build_context, real_field, validate_field
from oracles import loop_class_number, stops_at_its_first_reduced_ideal

CASES = [(103, 3), (7, 3), (10, 3), (13, 3), (2659, 3), (12007, 3),
         (30007, 3), (30043, 3), (44853, 7), (109, 7), (14, 11)]


@pytest.mark.parametrize("m,p", CASES)
def test_context_invariants(m, p):
    ctx = build_context(m, p)
    # pi1 * pi2 is +-p^h0 on the nose
    prod = ctx.pi1 * ctx.pi2
    assert prod.b == 0 and prod.den == 1 and abs(prod.a) == p**ctx.h0
    assert ctx.h % ctx.h0 == 0
    # narrow/wide bookkeeping
    h_narrow = class_number(ctx.record.D)
    assert h_narrow in (ctx.h, 2 * ctx.h)
    assert (h_narrow == ctx.h) == (ctx.eps.norm() == -1)
    # the labelled embedding localizes pi1 at the first prime only
    r = ctx.embed(ctx.pi1)
    assert valuation(r.r1, p) == ctx.h0 and r.r2 % p != 0


@pytest.mark.parametrize("m,p", CASES)
def test_embedding_respects_unit(m, p):
    ctx = build_context(m, p)
    r = ctx.embed(ctx.eps)
    mod = p**ctx.N
    assert r.r1 * r.r2 % mod == ctx.eps.norm() % mod
    assert r.r1 % p != 0 and r.r2 % p != 0


def test_embed_extends_precision():
    # embed(x, n) works mod p^(n+1); n + 1 > N forces a re-lift of sqrt(m)
    ctx = build_context(103, 3)
    x = make_elem(10, -1, 1, 103)
    hi = ctx.embed(x, ctx.N + 7)
    lo = ctx.embed(x, ctx.N - 1)
    assert hi.modulus == 3 ** (ctx.N + 8)
    assert lo.modulus == 3**ctx.N
    assert hi.r1 % 3**ctx.N == lo.r1 and hi.r2 % 3**ctx.N == lo.r2


def test_validate_field_errors():
    with pytest.raises(PreconditionError):
        validate_field(4, 3)  # not squarefree
    with pytest.raises(PreconditionError):
        validate_field(5, 3)  # 3 inert in Q(sqrt 5)
    with pytest.raises(PreconditionError):
        validate_field(6, 3)  # 3 ramified
    with pytest.raises(PreconditionError):
        validate_field(7, 2)  # p must be odd
    with pytest.raises(PreconditionError):
        validate_field(103, 9)  # p must be prime
    with pytest.raises(PreconditionError, match="too large to prove prime"):
        validate_field(7, 3317044064679887385962123)  # prime, past Miller-Rabin's range
    validate_field(103, 3)


def test_a_generator_is_certified_after_its_unit_reduction(monkeypatch):
    """The norm is checked on the generator returned: a unit reduction that
    broke it would reach the context's pi1 and the tally's alpha unseen."""
    ctx = build_context(103, 3)  # before the patch; the tally below reaches its own generators
    reduce = pell._unit_reduce

    def doubling(g, rec):
        A, B = reduce(g, rec)
        return 2 * A, 2 * B

    monkeypatch.setattr(pell, "_unit_reduce", doubling)
    with pytest.raises(ArithmeticError, match="wrong norm"):
        build_context.__wrapped__(103, 3)
    with pytest.raises(ArithmeticError, match="wrong norm"):
        stats._tally_block((ctx, 5, 5, 1, 1, 200))


@pytest.mark.parametrize("m,p", [(103, 3), (2659, 3), (44853, 7)])
def test_a_generator_of_the_other_prime_is_refused(monkeypatch, m, p):
    """Walks from the root -s reach the powers of the second prime above p;
    the support check on the returned generator refuses each one."""
    root = pell._canonical_root
    monkeypatch.setattr(pell, "_canonical_root", lambda D, q, k, s: root(D, q, k, -s))
    with pytest.raises(ArithmeticError, match="supports the wrong prime"):
        build_context.__wrapped__(m, p)


# (m, p): (eps, pi1, pi2) as (a, b, den), fixed before contexts stored plain ints
ELEMS = {(103, 3): ((227528, 22419, 1), (10, -1, 1), (10, 1, 1)),
         (2659, 3): ((3258468890, 63190881, 1), (103, 2, 1), (103, -2, 1)),
         (30043, 3): ((41599, 240, 1), (317, -2, 1), (317, 2, 1)),
         (53, 7): ((7, 1, 2), (5, 1, 2), (5, -1, 2))}


@pytest.mark.parametrize("m,p", ELEMS)
def test_a_context_builds_its_elements_only_when_read(monkeypatch, m, p):
    """`build_context` and `check_field` build no `QuadElem`: the context holds plain ints,
    and its eps, pi1 and pi2 are made when read, with the values stored before."""
    elems, init = [], quadint.QuadElem.__post_init__
    monkeypatch.setattr(quadint.QuadElem, "__post_init__", lambda x: elems.append(x) or init(x))
    ctx = build_context.__wrapped__(m, p)
    monkeypatch.setattr(greenberg, "build_context", build_context.__wrapped__)  # cold
    greenberg.check_field(m, p)
    assert not elems, elems
    assert [(x.a, x.b, x.den) for x in (ctx.eps, ctx.pi1, ctx.pi2)] == list(ELEMS[m, p])
    assert ctx.pi1.coords() == ctx.pi and ctx.pi2 == ctx.pi1.conjugate()


def test_context_is_cached():
    assert build_context(103, 3) is build_context(103, 3)


def test_context_values_103():
    ctx = build_context(103, 3)
    assert (ctx.h, ctx.h0, class_number(ctx.record.D)) == (1, 1, 2)
    assert (ctx.eps.a, ctx.eps.b) == (227528, 22419)
    assert abs(ctx.pi1.norm()) == 3


def test_context_values_30043():
    ctx = build_context(30043, 3)
    assert (ctx.h, ctx.h0) == (18, 9)
    assert abs(ctx.pi1.norm()) == 3**9
    # unit-reduced generator is the tiny one: 317 +- 2*sqrt(m)
    assert (abs(ctx.pi1.a), abs(ctx.pi1.b)) == (317, 2)


@pytest.mark.parametrize("m,p,h,h0", [(30043, 3, 18, 9), (103, 3, 1, 1),
                                      (10, 3, 2, 2), (2659, 3, 3, 3)])
def test_build_context_walks_each_divisor_once(monkeypatch, m, p, h, h0):
    """One walk per divisor d <= h0 of h, each only to its first reduced ideal,
    no second walk of p1^h0, and one half walk, of the unit ideal's cycle."""
    walked, halves = [], []
    walk = pell._ideal_walk

    def recording(A, B, D, half=False):
        steps = walk(A, B, D, half)
        if half:
            halves.append(A)
        else:
            walked.append(A)
            assert stops_at_its_first_reduced_ideal(steps, D), (A, B)
        return steps

    monkeypatch.setattr(pell, "_ideal_walk", recording)
    ctx = build_context.__wrapped__(m, p)
    assert (ctx.h, ctx.h0) == (h, h0)
    assert walked == [p**d for d in divisors(h) if d <= h0]
    assert halves == [1]


@pytest.mark.parametrize("m,p", CASES)
def test_build_context_lifts_sqrt_m_once(monkeypatch, m, p):
    """One lift, to p^(h+2), serves the walks and the context's p^N: `pell` lifts no
    root of its own when one is passed."""
    lifts = []
    lift = sunits._lift_sqrt

    def counting(m, p, N):
        lifts.append(N)
        return lift(m, p, N)

    monkeypatch.setattr(sunits, "_lift_sqrt", counting)  # the one lift, uncached
    monkeypatch.setattr(sunits, "hensel_sqrt", counting)
    monkeypatch.setattr(pell, "_lift_sqrt", counting)  # `_principal_power`'s own lift
    ctx = build_context.__wrapped__(m, p)
    assert lifts == [ctx.h + 2]
    assert ctx.s == lift(m, p, ctx.N)
    assert ctx == build_context(m, p)


def test_context_h_is_the_narrow_number_halved_when_the_unit_norm_is_one():
    """The wide h is decided by `class_numbers` alone; `class_number` doubles it."""
    norms = []
    for m in random.Random(17).sample(range(2, 10**5), 120):
        p = next((q for q in (3, 5, 7, 11, 13) if kronecker(m, q) == 1), None)
        if p is None or not is_squarefree(m):
            continue
        ctx = build_context(m, p)
        narrow = loop_class_number(ctx.record.D)
        assert ctx.h == narrow // (2 if ctx.eps.norm() == 1 else 1), m
        assert class_number(ctx.record.D) == narrow
        norms.append(ctx.eps.norm())
    assert len(norms) > 50 and set(norms) == {1, -1}


def test_real_field_refuses_exactly_past_the_int64_range(monkeypatch):
    # an m in range reaches the squarefree test, stubbed: factoring one near 2^63 takes seconds
    monkeypatch.setattr(sunits, "is_squarefree", lambda m: True)
    top = qforms._INT64_ROOT**2  # an odd square, so 1 (mod 4): D = m
    assert top % 4 == 1
    assert real_field(top)
    with pytest.raises(PreconditionError):
        real_field(top + 4)
    m = top // 4 - (top // 4 - 2) % 4  # 2 (mod 4): D = 4m
    assert real_field(m)
    with pytest.raises(PreconditionError):
        real_field(m + 4)
