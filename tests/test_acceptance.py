"""End-to-end acceptance gate: one pass/fail line per shipped guarantee.

Each test prints `[criterion N] <label>: PASS` (visible under `pytest -s`,
or in the captured-output block on failure) and then asserts.  The heavy
rows are the five counting scans (~10 s) and the two prime-statistics
harnesses at bound 1e10 (~30 s); everything else is seconds.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction

from iwascan.arith import is_squarefree, valuation
from iwascan.fermat import delta_embed
from iwascan.greenberg import check_field, scan_range
from iwascan.pell import fundamental_unit
from iwascan.qforms import class_number
from iwascan.quadint import make_elem
from iwascan.stats import (NORM_CONSTRAINED, UNCONSTRAINED, prime_fermat_scan,
                           random_elem_density)
from iwascan.sunits import build_context
from oracles import check_product_dichotomy, delta_bezout


def _line(num, label, ok):
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")


# --- criterion 1: resolved counts over m <= 10^4 ---------------------------

COUNTS = {3: (2279, 2042), 5: (2534, 2459), 7: (2660, 2599),
          11: (2781, 2759), 43: (2971, 2971)}


def test_criterion_1_counting_table():
    got = {res.p: (res.tested, res.resolved)
           for res in scan_range(tuple(COUNTS), 2, 10000, n0=1)}
    ok = got == COUNTS
    _line(1, "tested/resolved counts for p in {3,5,7,11,43}, m <= 10^4", ok)
    assert ok, f"expected {COUNTS}, got {got}"


# --- criterion 2: the 22-row verdict window at p = 3 ------------------------

# columns: m, h, z_pi, z_eps; z_pi is only pinned up to the unit convention
WINDOW_TABLE = [
    (30001, 1, "1", "1"), (30007, 2, "1/9", "1/3"), (30010, 8, "1", "1"),
    (30013, 1, "1/3", "1"), (30019, 4, "1", "1/3"), (30022, 4, "1/3", "1"),
    (30031, 2, "1/3", "1/3"), (30034, 2, "1", "1"), (30043, 18, "1", "1"),
    (30046, 2, "1", "1"), (30049, 1, "1", "1/3"), (30055, 2, "1/27", "1/27"),
    (30058, 4, "1", "1"), (30061, 1, "1", "1"), (30067, 2, "1", "1"),
    (30070, 4, "1", "1/3"), (30073, 4, "1", "1/27"), (30079, 2, "1", "1"),
    (30085, 2, "1/3", "1"), (30091, 1, "1", "1"), (30094, 8, "1", "1/3"),
    (30097, 1, "1", "1"),
]
UNRESOLVED_WINDOW = {30007, 30031, 30055}


def test_criterion_2_verdict_window():
    bad = []
    for m, h, z_pi_s, z_eps_s in WINDOW_TABLE:
        v = check_field(m, 3, n0=1)
        z_pi, z_eps = Fraction(z_pi_s), Fraction(z_eps_s)
        # h and z_eps are generator-free, so every row must match exactly
        if v.h != h or v.z_eps != z_eps:
            bad.append((m, "h/z_eps", v.h, v.z_eps))
        if v.resolved != (m not in UNRESOLVED_WINDOW):
            bad.append((m, "resolved", v.resolved))
        # z_pi may differ by the unit convention, but only in a way that
        # leaves min(delta_eps, delta_pi) unchanged
        d_pi_tab = valuation(z_pi.denominator, 3) if z_pi != 1 else 0
        d_eps_tab = valuation(z_eps.denominator, 3) if z_eps != 1 else 0
        if v.z_pi != z_pi and (min(v.delta_eps, v.delta_pi)
                               != min(d_eps_tab, d_pi_tab)):
            bad.append((m, "z_pi", v.z_pi))
    ok = not bad
    _line(2, "22-row window: h, z_eps, resolved exact; z_pi up to units", ok)
    assert ok, f"window mismatches: {bad}"


# --- criterion 3: named hard fields -----------------------------------------

def test_criterion_3_named_examples():
    bad = []

    ctx = build_context(2659, 3)
    if ctx.eps != make_elem(3258468890, 63190881, 1, 2659):
        bad.append(("2659 eps", ctx.eps))
    if (abs(ctx.pi1.a), abs(ctx.pi1.b), ctx.pi1.den) != (103, 2, 1):
        bad.append(("2659 pi1", ctx.pi1))
    if (ctx.h, ctx.h0) != (3, 3):
        bad.append(("2659 h/h0", ctx.h, ctx.h0))
    if check_field(2659, 3).resolved:
        bad.append(("2659 resolved", True))

    v = check_field(12007, 3)
    if v.z_eps != Fraction(1, 9) or v.resolved:
        bad.append(("12007", v.z_eps, v.resolved))

    ctx = build_context(103, 3)
    if ctx.eps != make_elem(227528, 22419, 1, 103):
        bad.append(("103 eps", ctx.eps))
    v = check_field(103, 3)
    if (v.delta_eps, v.delta_pi, v.torsion_v) != (1, 1, 1):
        bad.append(("103 deltas", v.delta_eps, v.delta_pi, v.torsion_v))

    ok = not bad
    _line(3, "named fields m = 2659, 12007, 103", ok)
    assert ok, f"named-example mismatches: {bad}"


# --- criterion 4: generator deltas over split primes ------------------------

def test_criterion_4_prime_statistics():
    t = prime_fermat_scan(103, 3, n=12, bound=10**10, rmax=5)
    props = t.proportions
    dev0 = abs(props[0] - Fraction(2, 3))
    dev1 = abs(props[1] - Fraction(2, 9))
    ok = t.total > 0 and dev0 <= Fraction(1, 100) and dev1 <= Fraction(1, 100)

    t7 = prime_fermat_scan(44853, 7, n=5, bound=10**10, rmax=5)
    dev7 = abs(t7.proportions[0] - Fraction(6, 7))
    ok = ok and t7.total > 0 and dev7 <= Fraction(1, 100)

    _line(4, "prime-generator delta law (103,3) and (44853,7) at 1e10", ok)
    assert ok, (f"(103,3): N={t.total} dev0={float(dev0):.4f} "
                f"dev1={float(dev1):.4f}; (44853,7): N={t7.total} "
                f"dev0={float(dev7):.4f}")


# --- criterion 5: random-element densities ----------------------------------

def test_criterion_5_random_densities():
    nc = random_elem_density(7, 3, samples=10**7, mode=NORM_CONSTRAINED, seed=0)
    un = random_elem_density(7, 3, samples=10**7, mode=UNCONSTRAINED, seed=0)
    ok = (nc.accepted >= 10**6 and un.accepted >= 10**6
          and abs(nc.density - 2 / 3) <= 0.005
          and abs(un.density - 8 / 9) <= 0.005)
    _line(5, "random densities 2/3 and 8/9 on 1e6+ accepted samples", ok)
    assert ok, (f"norm: {nc.accepted} accepted, density {nc.density:.5f}; "
                f"unconstrained: {un.accepted} accepted, density {un.density:.5f}")


# --- criterion 6: independent oracles ---------------------------------------

def _sympy_min_unit(m):
    """Smallest (x, y) with x^2 - m y^2 = +-4, via an external solver."""
    from sympy.solvers.diophantine.diophantine import diop_DN
    cands = []
    for rhs, scale in ((4, 1), (-4, 1), (1, 2), (-1, 2)):
        for x, y in diop_DN(m, rhs):
            if y:
                cands.append((scale * abs(int(x)), scale * abs(int(y))))
    return min(cands, key=lambda t: (t[1], t[0]))


def _brute_class_number(D):
    """Cycle count over a box-scan enumeration of the reduced forms."""
    s = math.isqrt(D)
    forms = set()
    for b in range(2 - (D % 2), s + 1, 2):
        n = (D - b * b) // 4
        for aa in range(1, n + 1):
            if n % aa == 0 and max(1, s - b + 1) <= 2 * aa <= s + b:
                forms.add((aa, b, -(n // aa)))
                forms.add((-aa, b, n // aa))
    cycles = 0
    todo = set(forms)
    while todo:
        start = cur = next(iter(todo))
        cycles += 1
        while True:
            todo.discard(cur)
            a, b, c = cur
            b2 = s - ((s + b) % (2 * abs(c)))
            cur = (c, b2, (b2 * b2 - D) // (4 * c))
            if cur == start:
                break
    return cycles


def _random_element(rng, ctx, coprime_first):
    while True:
        x = make_elem(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6),
                      1, ctx.m)
        if x.a == 0 and x.b == 0:
            continue
        if coprime_first and ctx.embed(x).r1 % ctx.p == 0:
            continue
        if not coprime_first and x.norm() % ctx.p == 0:
            continue
        return x


FIELDS = [(7, 3), (10, 3), (103, 3), (13, 3), (2659, 3), (30007, 3),
          (22, 7), (109, 7), (44853, 7), (14, 5), (14, 11), (201, 5)]


def test_criterion_6_oracle_suites():
    bad = []

    units = [m for m in range(2, 300) if is_squarefree(m)]
    for m in units:
        eps = fundamental_unit(m)
        scale = 2 // eps.den
        if (scale * eps.a, scale * eps.b) != _sympy_min_unit(m):
            bad.append(("unit", m))

    discs = [D for D in range(5, 2000)
             if (D % 4 == 1 and is_squarefree(D))
             or (D % 16 in (8, 12) and is_squarefree(D // 4))]
    for D in discs:
        if class_number(D) != _brute_class_number(D):
            bad.append(("class number", D))

    rng = random.Random(2024)
    for _ in range(1000):
        m, p = rng.choice(FIELDS)
        ctx = build_context(m, p)
        x = _random_element(rng, ctx, coprime_first=True)
        _, bez = delta_bezout(x, ctx, 10)
        if bez.delta1 != delta_embed(x, ctx, 10).delta1:
            bad.append(("bezout", m, p, x))

    rng = random.Random(7)
    for _ in range(1000):
        m, p = rng.choice(FIELDS)
        ctx = build_context(m, p)
        x = _random_element(rng, ctx, coprime_first=False)
        r, rc = delta_embed(x, ctx, 8), delta_embed(x.conjugate(), ctx, 8)
        if (rc.delta1, rc.delta2) != (r.delta2, r.delta1):
            bad.append(("galois", m, p, x))

    # the prime scan asserts the product dichotomy inline on every sample;
    # rerun a desk-size tally and pin its frozen outcome
    t = prime_fermat_scan(103, 3, 5, 10**6)
    if (t.total, t.counts) != (162, (107, 34, 13, 7, 1, 0)):
        bad.append(("dichotomy scan", t.total, t.counts))
    ctx = build_context(103, 3)
    if check_product_dichotomy(ctx.eps, ctx, 2) not in ("equal", "capped"):
        bad.append(("dichotomy unit",))

    lo = scan_range((3,), 2, 10000, n0=1)
    hi = scan_range((3,), 2, 10000, n0=8)
    if lo != hi:
        bad.append(("n0 stability",))

    ok = not bad
    _line(6, "oracles: units, class numbers, bezout, galois, dichotomy, n0", ok)
    assert ok, f"oracle mismatches: {bad[:10]}"


# --- criterion 7: byte-identical reruns --------------------------------------

def _run(*args):
    proc = subprocess.run([sys.executable, "-m", "iwascan.cli", *args],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_7_determinism():
    commands = [
        ("check", "--m", "2659", "--p", "3", "--format", "json"),
        ("scan", "--p", "3", "--min-m", "29990", "--max-m", "30100",
         "--format", "csv", "--no-header"),
        ("stats-primes", "--m", "103", "--p", "3", "--n", "5",
         "--bound", "1e6", "--format", "csv", "--no-header"),
        ("stats-random", "--m", "7", "--p", "3", "--samples", "1e6",
         "--seed", "3", "--format", "csv", "--no-header"),
    ]
    ok = all(_run(*cmd) == _run(*cmd) for cmd in commands)
    _line(7, "byte-identical reruns for every command", ok)
    assert ok
