"""Statistics harnesses: tallies, expected laws, determinism."""

import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sympy import isprime

from iwascan import pell, qforms, stats
from iwascan.arith import kronecker, teichmuller
from iwascan.fermat import delta_embed
from iwascan.quadint import hensel_sqrt, make_elem
from iwascan.stats import (DensityTally, NORM_CONSTRAINED, StatTally,
                           UNCONSTRAINED, expected_proportions,
                           prime_fermat_scan, random_elem_density)
from iwascan.sunits import PreconditionError, UsageError, build_context
from oracles import (candidate_primes, elem_tally_block, eratosthenes, is_prime_all_bases,
                     mask_sieve, stops_at_its_first_reduced_ideal)


def test_expected_proportions_values():
    got = expected_proportions(3, 5)
    assert got == (Fraction(2, 3), Fraction(2, 9), Fraction(2, 27),
                   Fraction(2, 81), Fraction(2, 243), Fraction(1, 243))
    assert expected_proportions(7)[0] == Fraction(6, 7)


@pytest.mark.parametrize("p,rmax", [(3, 5), (7, 4), (5, 6), (11, 3)])
def test_expected_proportions_sum_to_one(p, rmax):
    assert sum(expected_proportions(p, rmax)) == 1


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
    """Below (_CAP + 1)^2 the complete sieve proves every survivor prime: no ell goes
    to Miller-Rabin.  Past a small cap, only the survivors above its ceiling with
    (m/ell) = 1 do, each once, and the tally does not move."""
    m, p, n, bound = 44853, 7, 5, 3 * 10**7
    proved = []
    is_prime = stats.is_prime
    monkeypatch.setattr(stats, "is_prime", lambda ell: proved.append(ell) or is_prime(ell))
    want = prime_fermat_scan(m, p, n, bound)
    assert want.total > 0 and proved == []
    monkeypatch.setattr(stats, "_CAP", 50)
    assert prime_fermat_scan(m, p, n, bound) == want
    mod, ceiling = p ** (n + 1), (stats._CAP + 1) ** 2
    survivors = [ell for r in teichmuller(p, n + 1) for ell in
                 stats._survivors(r, mod, 1, (bound - 1 - r) // mod + 1)]
    assert sorted(proved) == sorted(ell for ell in survivors
                                    if ell >= ceiling and kronecker(m, ell) == 1)
    assert len(set(proved)) == len(proved) > want.total


def test_prime_scan_empty_below_modulus():
    t = prime_fermat_scan(103, 3, 5, 3**6)
    assert t.total == 0 and all(c == 0 for c in t.counts)


def test_huge_n_tallies_zero_without_lifting(monkeypatch):
    # every candidate exceeds 3^(n+1) > bound: no lift mod 3^(10^8+1) is formed
    monkeypatch.setattr(stats, "teichmuller", lambda p, k: pytest.fail("lifted"))
    t = prime_fermat_scan(103, 3, 10**8, 10**6, rmax=0)
    assert (t.total, t.skipped_nonprincipal, t.counts) == (0, 0, (0,))
    t = prime_fermat_scan(103, 3, 63, 2**63, rmax=63)  # the largest rmax allowed
    assert t.total == 0 and t.counts == (0,) * 64


def test_a_short_window_tallies_without_lifting(monkeypatch):
    # 999 candidates above 200009^2 against 200008 residue classes
    monkeypatch.setattr(stats, "teichmuller", lambda p, k: pytest.fail("lifted"))
    t = prime_fermat_scan(2, 200009, 1, 200009**2 + 1000, rmax=1)
    assert (t.total, t.skipped_nonprincipal, t.counts) == (0, 0, (0, 0))


def lifted_items(ctx, n, rmax, bound):
    """The work items of the Teichmuller lift path, whatever the window."""
    mod = ctx.p ** (n + 1)
    for r in teichmuller(ctx.p, n + 1):
        top = (bound - 1 - r) // mod
        for j0 in range(1, top + 1, stats._SPAN):
            yield ctx, n, rmax, r, j0, min(j0 + stats._SPAN, top + 1)


@pytest.mark.parametrize("bound", [181**2 + 2, 32839, 32840, 181**2 + 180])
def test_a_short_window_gives_the_lift_paths_items_and_tally(bound):
    # ell = 181^2 + 78 = 32839 is prime, split in Q(sqrt 5), and 78^180 = 1 mod 181^2
    m, p, n, rmax = 5, 181, 1, 1
    assert bound - p ** (n + 1) - 1 < p - 1  # the direct path
    ctx = build_context(m, p)
    items = list(stats._items(ctx, n, rmax, bound))
    assert sorted(items) == sorted(lifted_items(ctx, n, rmax, bound))
    t = prime_fermat_scan(m, p, n, bound, rmax=rmax)
    counts = [0] * (rmax + 1)
    for item in lifted_items(ctx, n, rmax, bound):
        counts = [a + b for a, b in zip(counts, stats._tally_block(item)[0])]
    assert t.counts == tuple(counts)
    assert t.total == (bound > 32839)


# (m, p, n, rmax, bound), fixed in advance: m = 10 and 79 have h = 2 and 3, so half and
# two thirds of their split primes are skipped; m = 13 has generators with den = 2
TALLY_SAMPLE = ((10, 3, 2, 2, 10**5), (13, 3, 2, 2, 10**5), (79, 7, 1, 1, 10**5))


def test_the_plain_tally_equals_the_former_element_route():
    """`_tally_block` keeps each generator as plain ints into `fermat._deltas`; its
    (counts, skipped) equal the former route's, a `QuadElem` and `delta_embed` per
    split prime, on every item of the sample.  As rmax = n there, the rmax bucket
    holds only capped deltas."""
    skipped = capped = 0
    for m, p, n, rmax, bound in TALLY_SAMPLE:
        for item in stats._items(build_context(m, p), n, rmax, bound):
            got = stats._tally_block(item)
            assert got == elem_tally_block(item), item
            skipped += got[1]
            capped += got[0][rmax]
    assert skipped > 0 and capped > 0  # a non-principal prime and a capped delta


def test_a_tally_block_reads_its_field_from_its_item(monkeypatch):
    """A pool worker gets its field with its work item: no block reads `build_context`,
    whose cache a forked worker would otherwise depend on."""
    items = list(stats._items(build_context(103, 3), 5, 5, 10**6))
    want = [stats._tally_block(item) for item in items]

    def refused(m, p):
        raise AssertionError("a tally block read build_context")

    monkeypatch.setattr(stats, "build_context", refused)
    assert [stats._tally_block(item) for item in items] == want
    assert sum(sum(counts) for counts, _ in want) > 0


def test_rmax_past_63_is_refused():
    with pytest.raises(UsageError, match="rmax must be <= 63"):
        prime_fermat_scan(103, 3, 100, 10**6, rmax=64)


def oracle_split_primes(m, p, n, bound):
    """The split primes the former parent-side sieve handed to the tally."""
    mod = p ** (n + 1)
    residues = [r for r in range(1, mod) if pow(r, p - 1, mod) == 1]
    return [ell for ell in candidate_primes(residues, mod, bound) if kronecker(m, ell) == 1]


def reached_primes(monkeypatch, m, p, n, bound):
    """(tally, every ell the tally walks) of a one-worker scan; each walk of an ell
    goes only to its first reduced ideal, which a lookup then tests."""
    seen = []
    power, walk = pell._principal_power, pell._ideal_walk

    def reducing(A, B, D, half=False):
        steps = walk(A, B, D, half)
        assert half or stops_at_its_first_reduced_ideal(steps, D), (A, B)
        return steps

    monkeypatch.setattr(pell, "_ideal_walk", reducing)
    monkeypatch.setattr(stats, "_principal_power",
                        lambda rec, ell, exps: seen.append(ell) or power(rec, ell, exps))
    return prime_fermat_scan(m, p, n, bound, rmax=min(n, 5)), seen


@pytest.mark.parametrize("span", [1, 7, stats._SPAN])
@pytest.mark.parametrize("m, p, n, bound", [
    (10, 3, 5, 10**5), (103, 3, 5, 3 * 10**5), (44853, 7, 5, 10**7),
    # moduli 9, 25, 27 and 125: sieve primes such as 17, 19 and 37 lie in
    # their own progression and must be kept
    (10, 3, 1, 2 * 10**4), (6, 5, 1, 2 * 10**4), (103, 3, 2, 2 * 10**4),
    (6, 5, 2, 2 * 10**4)])
def test_blocks_reach_the_oracle_primes(monkeypatch, span, m, p, n, bound):
    monkeypatch.setattr(stats, "_SPAN", span)
    t, seen = reached_primes(monkeypatch, m, p, n, bound)
    assert sorted(seen) == oracle_split_primes(m, p, n, bound)
    assert t.total + t.skipped_nonprincipal == len(seen) > 0


def test_the_sieve_primes_come_from_the_package_prime_table(monkeypatch):
    """`stats` holds no table of its own: a block's primes q <= P are `qforms._sieve(P)`'s,
    P a power of two, each with 1/mod mod q; `import iwascan.cli` builds no table."""
    assert not [name for name, v in vars(stats).items() if isinstance(v, np.ndarray)]
    stats._inverses.cache_clear()
    asked = []
    monkeypatch.setattr(stats, "_sieve", lambda P: asked.append(P) or qforms._sieve(P))
    assert prime_fermat_scan(103, 3, 5, 10**6).counts == (107, 34, 13, 7, 1, 0)
    assert asked and all(P & P - 1 == 0 and P <= stats._CAP for P in asked)
    q, inv = stats._inverses(9, 4096)
    assert q.tolist() == [x for x in eratosthenes(4097) if x != 3]
    assert (9 * inv % q == 1).all()
    code = ("import iwascan.cli; from iwascan import qforms; "
            "print(qforms._sieve.cache_info().misses)")
    env = {**os.environ, "PYTHONPATH": str(Path(stats.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.stdout.strip() == "0", run.stderr


def proven_survivors(r, mod, j0, j1):
    """`stats._survivors`, those from (_CAP + 1)^2 up proven by Miller-Rabin, as the
    tally does."""
    ceiling = (stats._CAP + 1) ** 2
    return [ell for ell in stats._survivors(r, mod, j0, j1)
            if ell < ceiling or stats.is_prime(ell)]


def oracle_block_primes(r, mod, j0, j1):
    """The former route: presieved below 3000, then Miller-Rabin on all 13 bases."""
    return list(filter(is_prime_all_bases, mask_sieve(r, mod, j0, j1)))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]), n=st.integers(0, 4), a=st.integers(1, 12),
       j0=st.integers(1, 3000), width=st.integers(1, 3000))
def test_strided_sieve_equals_the_mask_sieve(p, n, a, j0, width):
    # every block here lies below the ceiling: its survivors need no Miller-Rabin
    mod = p ** (n + 1)
    r = pow(a % (p - 1) + 1, p**n, mod)  # a Teichmuller lift, as the tally uses
    got = stats._survivors(r, mod, j0, j0 + width)
    assert got == proven_survivors(r, mod, j0, j0 + width)
    assert got == oracle_block_primes(r, mod, j0, j0 + width)


@pytest.mark.parametrize("r, mod, q", [(8, 9, 17), (1, 9, 19), (1, 9, 37), (18, 25, 43),
                                       (1, 3, 7), (1, 7, 29)])
def test_a_sieve_prime_in_its_own_progression_survives(r, mod, q):
    j1 = (q - r) // mod + q * q  # the block runs past q^2 and q*(1 + mod)
    got = stats._survivors(r, mod, 1, j1)
    assert q in got and q * (1 + mod) not in got
    assert got == oracle_block_primes(r, mod, 1, j1)


def test_a_block_just_below_2_pow_63_sieves_to_the_cap_then_proves():
    # j0*mod within 2^20 of 2^63: each start position is formed from residues < 2^20
    r, mod = 8, 9
    j0 = -(-(2**63 - 2**20) // mod)  # the least j0 with j0*mod >= 2^63 - 2^20
    j1 = j0 + 3000
    assert 2**63 - 2**20 <= j0 * mod and r + (j1 - 1) * mod < 2**63
    got = proven_survivors(r, mod, j0, j1)
    assert got == oracle_block_primes(r, mod, j0, j1) and got
    assert len(stats._survivors(r, mod, j0, j1)) > len(got)  # Miller-Rabin struck some


def test_survivors_past_a_small_cap_go_to_miller_rabin(monkeypatch):
    monkeypatch.setattr(stats, "_CAP", 50)
    r, mod, j0, j1 = 1, 9, 1, 3000  # ell runs to about 27000, past 51^2
    got = proven_survivors(r, mod, j0, j1)
    assert got == oracle_block_primes(r, mod, j0, j1)
    assert len(stats._survivors(r, mod, j0, j1)) > len(got)  # Miller-Rabin struck some


def test_blocks_stop_exactly_below_the_bound(monkeypatch):
    m, p, n = 103, 3, 5
    mod = p ** (n + 1)
    ell = oracle_split_primes(m, p, n, 10**5)[3]  # r + k*mod for some k
    for bound in (mod - 1, mod, ell, ell + 1):
        _, seen = reached_primes(monkeypatch, m, p, n, bound)
        assert sorted(seen) == oracle_split_primes(m, p, n, bound), bound
        assert (ell in seen) == (bound > ell)
        assert (seen == []) == (bound <= mod)


@pytest.mark.parametrize("span", [7, stats._SPAN])
def test_work_items_are_spans_that_tile_each_residue_class(monkeypatch, span):
    m, p, n, bound = 44853, 7, 5, 10**9
    mod = p ** (n + 1)
    items = []
    monkeypatch.setattr(stats, "_SPAN", span)
    monkeypatch.setattr(stats, "map_blocks",
                        lambda fn, blocks, workers: items.extend(blocks) or [])
    prime_fermat_scan(m, p, n, bound)
    assert all(1 <= j1 - j0 <= span for *_, j0, j1 in items)
    for r in [r for r in range(1, mod) if pow(r, p - 1, mod) == 1]:
        spans = [(j0, j1) for *_, r_, j0, j1 in items if r_ == r]
        js = [j for j0, j1 in spans for j in range(j0, j1)]
        assert js == list(range(1, (bound - 1 - r) // mod + 1)), r


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_small_blocks_on_any_worker_count_give_the_serial_tally(monkeypatch, workers):
    serial = prime_fermat_scan(103, 3, 5, 10**6)
    monkeypatch.setattr(stats, "_SPAN", 50)
    assert prime_fermat_scan(103, 3, 5, 10**6, workers=workers) == serial


def test_tally_parent_memory_stays_flat_as_p_grows():
    # the parent once held all p-1 lifts and every work item before the
    # first block ran: 10.4 MB at p = 200009 for a zero tally
    peaks = {}
    for p in (2017, 20023):  # both split in Q(sqrt 2), where h = 1
        bound = p * p + 10**5
        tracemalloc.start()
        try:
            got = prime_fermat_scan(2, p, 1, bound, rmax=1, workers=2)
            peaks[p] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == prime_fermat_scan(2, p, 1, bound, rmax=1)
    assert peaks[20023] < peaks[2017] + 2**16, peaks


def test_tally_parent_memory_stays_flat_as_the_bound_grows():
    # a bound 100 times larger streams 100 times the candidates and about 100
    # times the primes through the same blocks; the parent holds none of them
    m, p, n = 44853, 7, 5
    prime_fermat_scan(m, p, n, 3 * 10**6, workers=2)  # lazy imports before tracing
    peaks, totals = {}, {}
    for bound in (3 * 10**6, 3 * 10**8):
        tracemalloc.start()
        try:
            totals[bound] = prime_fermat_scan(m, p, n, bound, workers=2).total
            peaks[bound] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert totals[3 * 10**8] > 100 * totals[3 * 10**6] > 0, totals
    assert abs(peaks[3 * 10**8] - peaks[3 * 10**6]) < 2**15, peaks


def test_an_empty_stream_on_two_workers_tallies_zero():
    t = prime_fermat_scan(103, 3, 5, 3**6, workers=2)
    assert t.total == t.skipped_nonprincipal == 0 and t.counts == (0,) * 6


def test_bound_2_pow_63_tallies_exactly_in_int64():
    # candidates run up to 2^63 - 1; a Python-int recount finds the same two
    m, p, n = 103, 3, 35
    mod, top = p ** (n + 1), 2**63
    split = [ell for k in range(1, top // mod + 2) for ell in (k * mod - 1, k * mod + 1)
             if mod < ell < top and isprime(ell) and kronecker(m, ell) == 1]
    t = prime_fermat_scan(m, p, n, top)
    assert len(split) == 2
    assert t.total + t.skipped_nonprincipal == len(split)


def test_bounds_past_int64_are_refused():
    # the int64 candidates wrapped: bound 1e20 once tallied N_L = 0
    with pytest.raises(UsageError, match="bound must be <= 2\\^63"):
        prime_fermat_scan(103, 3, 38, 10**20)
    with pytest.raises(UsageError):
        prime_fermat_scan(103, 3, 38, 2**63 + 1)


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
       p=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 101, 1009]),
       mode=st.sampled_from([NORM_CONSTRAINED, UNCONSTRAINED]),
       samples=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
def test_density_matches_exact_integers(m, p, mode, samples, seed):
    assume(kronecker(m, p) == 1)
    t = random_elem_density(m, p, samples, mode, seed)
    assert (t.accepted, t.hits) == exact_density(m, p, samples, mode, seed)


def true_density(m, p, samples, mode, seed):
    """(accepted, hits) read off each draw y = a*sqrt(m) + b itself: its norm b^2 - m*a^2
    and the deltas of `delta_embed` at n = 1, from the context's root of m mod p^N."""
    ctx = build_context(m, p)
    draw = np.random.default_rng(seed).integers(0, 10**6, size=(samples, 2), dtype=np.int64)
    accepted = hits = 0
    for a, b in draw.tolist():
        nrm = b * b - m * a * a
        if nrm % p == 0 or mode == NORM_CONSTRAINED and pow(nrm, p - 1, p * p) != 1:
            continue
        accepted += 1
        rep = delta_embed(make_elem(b, a, 1, m), ctx, 1)
        hits += rep.delta1 == 0 if mode == NORM_CONSTRAINED else 0 in (rep.delta1, rep.delta2)
    return accepted, hits


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "random_elem_density classifies residues mod p^2 with a root of m mod p only "
    "(hensel_sqrt(m, p, 1)), so its norm and delta tests read another element than y"))
@pytest.mark.parametrize("mode", [NORM_CONSTRAINED, UNCONSTRAINED])
@pytest.mark.parametrize("m, p", [(7, 3), (13, 23)])  # residue-pair histogram, then per draw
def test_density_matches_the_deltas_of_each_draw(m, p, mode):
    t = random_elem_density(m, p, 3000, mode, seed=0)
    assert (t.accepted, t.hits) == true_density(m, p, 3000, mode, 0)


@pytest.mark.parametrize("mode", [NORM_CONSTRAINED, UNCONSTRAINED])
@pytest.mark.parametrize("p", [3, 23])  # residue-pair histogram, then per draw
def test_density_exact_across_chunks(p, mode):
    assert (p**4 <= stats._CHUNK) == (p == 3)
    samples = 2 * stats._CHUNK + 3
    t = random_elem_density(13, p, samples, mode, seed=11)  # 13: split at 3 and 23
    assert (t.accepted, t.hits) == exact_density(13, p, samples, mode, 11)


def test_bounded_uint32_draws_equal_the_int64_draws():
    # random_elem_density draws in uint32; exact_density and the pinned
    # digests rest on the int64 stream of the same seed
    g32, g64 = np.random.default_rng(2016), np.random.default_rng(2016)
    for i in range(3):
        a = g32.integers(0, 10**6, (2**17, 2), dtype=np.uint32)
        b = g64.integers(0, 10**6, (2**17, 2), dtype=np.int64)
        assert np.array_equal(a, b), (
            f"draw {i}: this numpy's bounded uint32 and int64 draws differ, so "
            "random_elem_density no longer gives the int64 stream of its seed")


@pytest.mark.parametrize("samples", [0, 1, 21 * 1009 + 17])
@pytest.mark.parametrize("mode", [NORM_CONSTRAINED, UNCONSTRAINED])
@pytest.mark.parametrize("p", [3, 7])  # at _CHUNK = 1009: residue-pair histogram, then per draw
def test_density_exact_over_many_small_chunks(monkeypatch, p, mode, samples):
    monkeypatch.setattr(stats, "_CHUNK", 1009)
    assert (p**4 <= stats._CHUNK) == (p == 3)
    before = threading.active_count()
    t = random_elem_density(22, p, samples, mode, seed=4)  # 22: split at 3 and 7
    assert (t.accepted, t.hits) == exact_density(22, p, samples, mode, 4)
    assert threading.active_count() == before


@pytest.mark.parametrize("p", [3, 7])
def test_a_failure_on_the_helper_thread_surfaces_and_the_thread_is_joined(monkeypatch, p):
    monkeypatch.setattr(stats, "_CHUNK", 1009)
    rem, threads = stats._rem, []

    def fails_on_call_20(x, q):
        threads.append(threading.current_thread())
        if len(threads) == 20:  # chunk 20 at p = 3, chunk 4 at p = 7
            raise FloatingPointError("tally failed")
        return rem(x, q)

    monkeypatch.setattr(stats, "_rem", fails_on_call_20)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="tally failed"):
        random_elem_density(22, p, 30 * 1009, NORM_CONSTRAINED, seed=4)
    assert len(threads) == 20 and threading.main_thread() not in threads
    assert threading.active_count() == before


def test_density_memory_stays_flat_as_the_samples_grow():
    # one chunk is tallied while the next is drawn: ten times the chunks
    # reach the same peak, a few chunks' worth of uint32 draws
    random_elem_density(7, 3, 10)  # lazy set-up before tracing
    peaks = {}
    for chunks in (3, 30):
        tracemalloc.start()
        try:
            random_elem_density(7, 3, chunks * stats._CHUNK, seed=0)
            peaks[chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    chunk = stats._CHUNK * 2 * 4
    assert abs(peaks[30] - peaks[3]) < chunk // 8 and peaks[30] < 5 * chunk, peaks


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
    # `python -O` strips assert statements; the totals check must not be one.
    # The child rebuilds the StatTally of test_tally_validates_totals.
    code = ("import sys\n"
            "from iwascan.stats import StatTally\n"
            "if not sys.flags.optimize: sys.exit('not running under -O')\n"
            "try:\n"
            "    StatTally(m=103, p=3, n=5, bound=10, rmax=1, total=5, counts=(1, 1),\n"
            "              skipped_nonprincipal=0)\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit('inconsistent totals were accepted')\n")
    path = (str(Path(stats.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_teichmuller_table_decides_the_fermat_congruence(p):
    # the table random_elem_density samples against: the lifts a^p mod p^2
    table = np.array((-1, *teichmuller(p, 2)), dtype=np.int64)
    assert table[1:].tolist() == [pow(a, p, p * p) for a in range(1, p)]
    r = np.arange(p * p, dtype=np.int64)
    got = table[r % p] == r
    assert got.tolist() == [pow(x, p - 1, p * p) == 1 for x in range(p * p)]
