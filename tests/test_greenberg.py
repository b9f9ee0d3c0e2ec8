"""Verdict logic: invariance properties and scan bookkeeping."""

from itertools import count

import pytest

from iwascan import fermat, qforms
from iwascan.fermat import N_CAP, Capped, DeltaReport, delta_embed, delta_exact
from iwascan.greenberg import (_AHEAD, _CHUNK, _scan_block, admissible, check_field,
                               map_blocks, scan_range)
from iwascan.sunits import PreconditionError, UsageError, build_context

WINDOW = [30001, 30007, 30010, 30013, 30019, 30022, 30031, 30034, 30043,
          30046, 30049, 30055, 30058, 30061, 30067, 30070, 30073, 30079,
          30085, 30091, 30094, 30097]


def exact_delta1(x, ctx):
    rep = delta_exact(x, ctx, 1)
    assert not isinstance(rep.delta1, Capped)
    return rep.delta1


@pytest.mark.parametrize("m", [103, 2659, 12007, 30007, 30013, 30043, 30055])
def test_normic_equals_symbol_subgroup_sweep(m):
    """min over the unit sweep of pi2 * eps^j equals min(delta_eps, delta_pi)."""
    p = 3
    ctx = build_context(m, p)
    v = check_field(m, p)
    sweep = [exact_delta1(ctx.eps, ctx)]
    x = ctx.pi2
    for _ in range(p):
        sweep.append(exact_delta1(x, ctx))
        x = x * ctx.eps
    assert min(sweep) == min(v.delta_eps, v.delta_pi)
    assert v.normic_ok == (min(sweep) == 0)


@pytest.mark.parametrize("m,p", [(103, 3), (2659, 3), (12007, 3), (30055, 3),
                                 (44853, 7), (14, 5)])
def test_normic_stable_under_generator_change(m, p):
    ctx = build_context(m, p)
    v = check_field(m, p)
    d_eps = v.delta_eps
    # eps^-1 is +-conj(eps); sign never moves a delta
    for variant in (ctx.pi2 * ctx.eps, ctx.pi2 * ctx.eps.conjugate(), -ctx.pi2):
        d = exact_delta1(variant, ctx)
        assert min(d_eps, d) == min(d_eps, v.delta_pi)
    # conjugating the generator swaps the primes but not the verdict:
    # pi1 and pi2 share their delta at the same prime since pi1*pi2 = +-p^h0
    d_pi1 = exact_delta1(ctx.pi1, ctx)
    assert d_pi1 == v.delta_pi


@pytest.mark.parametrize("m", WINDOW)
def test_verdict_independent_of_n0(m):
    assert check_field(m, 3, n0=1) == check_field(m, 3, n0=8) == check_field(m, 3, n0=10**7)


def test_admissible():
    assert admissible(7, 3) and admissible(30007, 3)
    assert not admissible(5, 3)   # inert
    assert not admissible(4, 3)   # square
    assert not admissible(12, 3)  # not squarefree
    assert not admissible(1, 3)


def test_check_field_rejects_bad_input():
    with pytest.raises(PreconditionError):
        check_field(4, 3)
    with pytest.raises(PreconditionError):
        check_field(5, 3)


def test_class_problem_field_counts_unresolved():
    # h = 9 but h0 = 3: the class of the prime above p generates too little
    v = check_field(1129, 3)
    assert (v.h, v.h0, v.v_p_h) == (9, 3, 2)
    assert not v.class_ok and v.normic_ok and not v.resolved


def test_torsion_and_z_columns():
    v = check_field(2659, 3)
    assert v.torsion_v == v.v_p_h + v.delta_eps == 3
    assert str(v.z_eps) == "1/9" and v.z_pi.denominator == 3**v.delta_pi


def test_scan_range_counts_and_order():
    [res] = scan_range((3,), 30001, 30097)
    assert [r.m for r in res.rows] == WINDOW
    assert res.tested == 22 and res.resolved == 19
    assert {r.m for r in res.rows if not r.resolved} == {30007, 30031, 30055}


def test_scan_range_workers_agree():
    seq = scan_range((3,), 2, 400, workers=1)
    par = scan_range((3,), 2, 400, workers=2)
    assert seq == par


def test_scan_range_rejects_empty():
    with pytest.raises(ValueError):
        scan_range((3,), 10, 5)


@pytest.mark.parametrize("primes", [(), (3, 5, 3)])
def test_scan_range_rejects_missing_or_repeated_primes(primes):
    with pytest.raises(ValueError):
        scan_range(primes, 2, 50)


def serial_scan(primes, m_min, m_max):
    """The plain loop: one prime at a time, every admissible m in order."""
    return {p: [check_field(m, p) for m in range(m_min, m_max + 1) if admissible(m, p)]
            for p in primes}


MULTI = (3, 5, 7, 11, 13)


@pytest.fixture(scope="module")
def serial_multi():
    return serial_scan(MULTI, 2, 1500)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_multi_prime_scan_equals_the_serial_loop(workers, serial_multi):
    got = scan_range(MULTI, 2, 1500, workers=workers)
    assert 2 * _CHUNK < 1500  # the range spans several chunks
    assert [r.p for r in got] == list(MULTI)
    for res in got:
        want = serial_multi[res.p]
        assert list(res.rows) == want
        assert (res.m_min, res.m_max) == (2, 1500)
        assert res.tested == len(want)
        assert res.resolved == sum(v.resolved for v in want)


@pytest.mark.parametrize("m_min, m_max, workers", [
    (30007, 30007, 1), (30007, 30007, 2),  # one m, admissible at p = 3
    (4, 4, 2),                             # one m, a square: nothing tested
    (30001, 30001 + _CHUNK // 3, 2),       # narrower than one chunk
    (2, 2 + 2 * _CHUNK, 8),                # more workers than chunks
])
def test_scan_range_edges(m_min, m_max, workers):
    primes = (3, 7)
    want = serial_scan(primes, m_min, m_max)
    got = scan_range(primes, m_min, m_max, workers=workers)
    assert {r.p: list(r.rows) for r in got} == want


@pytest.mark.parametrize("primes, lo", [((3, 5, 7), 10**4), ((3,), 10**6)])
def test_a_scan_block_makes_one_kernel_call_per_slab(monkeypatch, primes, lo):
    """The block's class numbers come from one batch: chi is built once per
    slab of at most _SLAB cells, never once per field."""
    slabs = []
    chi = qforms._chi

    def counting(Ds, N):
        slabs.append((len(Ds), N))
        return chi(Ds, N)

    monkeypatch.setattr(qforms, "_chi", counting)
    rows = _scan_block((primes, lo, lo + _CHUNK - 1, 1))
    fields = len({r.m for r in rows})
    assert len(rows) >= fields > 20
    assert sum(k for k, _ in slabs) == fields
    assert all(k * (N + 1) <= qforms._SLAB for k, N in slabs)
    assert len(slabs) == 1  # a 100-m block fits one slab at both magnitudes
    assert rows == [check_field(r.m, r.p) for r in rows]


def test_a_delta_capped_at_n_cap_raises(monkeypatch):
    tried = []

    def capped(x, ctx, n):
        tried.append(n)
        return DeltaReport(delta1=Capped(n), delta2=Capped(n), n=n)

    monkeypatch.setattr(fermat, "delta_embed", capped)
    with pytest.raises(ArithmeticError, match=f"^delta >= {N_CAP} for m=103, p=3$"):
        check_field(103, 3)
    assert tried == [1, 2, 4, 8, 16, 32, 64]  # doubled up to the cap, then refused


def test_scan_range_validates_each_prime_before_scanning():
    # no m in [2, 2] is admissible at 21, so only the up-front check sees it
    with pytest.raises(PreconditionError, match="p=21 must be an odd prime"):
        scan_range((3, 21), 2, 2)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_streams_in_order_with_a_bounded_lookahead(workers):
    # an endless lazy stream: the pool may draw only _AHEAD blocks per worker
    drawn = []

    def blocks():
        for i in count():
            drawn.append(i)
            yield -i

    out = map_blocks(abs, blocks(), workers)
    for i in range(40):
        assert next(out) == i
        assert len(drawn) <= i + 1 + _AHEAD * workers
    out.close()


def test_map_blocks_refuses_fewer_than_one_worker():
    with pytest.raises(UsageError):
        list(map_blocks(abs, [1, 2, 3], 0))
