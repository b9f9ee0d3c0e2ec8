"""Verdict logic: invariance properties and scan bookkeeping."""

import concurrent.futures
import os
from concurrent.futures import Future
from itertools import count
from typing import get_type_hints

import pytest

from iwascan import fermat, greenberg, qforms
from iwascan.fermat import N_CAP, Capped, delta_exact
from iwascan.greenberg import (_AHEAD, _CHUNK, FieldVerdict, _scan_block, admissible,
                               check_field, map_blocks, scan_range)
from iwascan.pell import _cycle_record
from iwascan.sunits import PreconditionError, UsageError, build_context, field_context

import oracles

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


@pytest.mark.parametrize("m_min, m_max", [(-3, 40), (0, 1), (1, 1)])
def test_scan_windows_starting_below_two_equal_the_serial_loop(monkeypatch, m_min, m_max):
    """m <= 1 gives no field; each m of a block is tested once, for all primes."""
    primes = (3, 7)
    want = serial_scan(primes, m_min, m_max)
    checked = []
    real_field = greenberg.real_field

    def counting(m):
        checked.append(m)
        return real_field(m)

    monkeypatch.setattr(greenberg, "real_field", counting)
    got = scan_range(primes, m_min, m_max, workers=1)
    assert {r.p: list(r.rows) for r in got} == want
    assert checked == list(range(m_min, m_max + 1))


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

    def capped(x, e, ctx, n):
        tried.append(n)
        return Capped(n), Capped(n)

    monkeypatch.setattr(fermat, "_deltas", capped)  # the deltas of one try, at precision n
    with pytest.raises(ArithmeticError, match=f"^delta >= {N_CAP} for m=103, p=3$"):
        check_field(103, 3)
    assert tried == [1, 2, 4, 8, 16, 32, 64]  # doubled up to the cap, then refused


PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def test_scan_rows_equal_the_per_prime_oracle(monkeypatch):
    """Every row of the plain-integer scan, and the whole `FieldContext` it is read from,
    equal the former per-prime path's, its generator a `QuadElem`, on windows fixed
    in advance: every m <= 2000
    at p = 3..43, and 200 m at 10^6 at p = 3 and 5.  The sample holds each hard case."""
    moved = []
    reduce = oracles.elem_unit_reduce
    monkeypatch.setattr(oracles, "elem_unit_reduce",
                        lambda x, m: ((y := reduce(x, m)) != x and moved.append(x)) or y)
    rows = {}
    for primes, lo, hi in ((PRIMES, 2, 2000), ((3, 5), 10**6, 10**6 + 199)):
        for a in range(lo, hi + 1, _CHUNK):
            args = (primes, a, min(a + _CHUNK - 1, hi), 1)
            got = _scan_block(args)
            want = oracles.per_prime_scan_block(args)
            assert got == [row for row, _ in want], args
            # and the root, h0 and generator of each row, not only what the row shows of them
            assert all(field_context(c.record, c.p, c.h) == c for _, c in want), args
            rows[lo] = rows.get(lo, []) + got
    small = rows[2]
    assert (len(small), len(rows[10**6])) == (7274, 96)
    assert sum(r.h0 > 1 for r in small) == 3404
    assert sum(r.delta_eps >= 2 for r in small) == 67  # both deltas take the doubling path
    assert sum(r.delta_pi >= 2 for r in small) == 82
    assert {r.p % 4 for r in small} == {1, 3}  # p = 1 (mod 4) takes Tonelli-Shanks
    assert {r.m % 4 == 1 for r in small} == {True, False}  # D = m and D = 4m
    assert any(_cycle_record(m).unit[0] % 2 for m in {r.m for r in small})  # units with den = 2
    assert moved  # generators that the unit reduction moves


def test_only_plain_tuples_cross_the_pool():
    """Each row `_scan_block` returns is a `FieldVerdict`, a named tuple whose cells are
    each exactly an int or a bool as the field says: no numpy scalar is pickled.  Every
    fifth row equals `check_field`'s verdict."""
    kinds = list(get_type_hints(FieldVerdict).values())
    assert len(kinds) == 11 and kinds.count(bool) == 3 and set(kinds) == {int, bool}
    for args in ((PRIMES, 1901, 2000, 1), ((3, 5), 10**6, 10**6 + _CHUNK - 1, 1)):
        rows = _scan_block(args)
        assert len(rows) > 20, args
        assert all(type(row) is FieldVerdict and [type(cell) for cell in row] == kinds
                   for row in rows), args
        assert all(row == check_field(row.m, row.p) for row in rows[::5]), args


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


def test_no_pool_has_more_processes_than_cpus(monkeypatch):
    # each pool worker is a forked interpreter: --workers 10^6 must not ask for 10^6 of them
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cpus = len(os.sched_getaffinity(0))
    got = scan_range((3, 7), 2, 1 + 6 * _CHUNK, workers=10**6)
    assert {r.p: list(r.rows) for r in got} == serial_scan((3, 7), 2, 1 + 6 * _CHUNK)
    assert pools == ([cpus] if cpus > 1 else [])
