"""Command-line front end: field checks, range scans and statistics.

Subcommands
    check        one field verdict, with unit and generator coordinates
    scan         counting table + per-field rows over an m-range
    stats-primes delta tally of split-prime generators in the residue classes
    stats-random delta densities of random elements

Formats: ``table`` (human), ``csv`` and ``json`` (schema-versioned); both
machine formats come from one column spec per record type.  Identical
flags give byte-identical data; the only run-dependent line is the
timestamped ``#`` header, off via --no-header.  Exit codes: 0 success,
2 bad arguments or an unwritable --output, 3 precondition violation,
4 internal error (any other ValueError: a defect, reported in one line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .arith import is_prime
from .greenberg import check_field, scan_range
from .stats import (NORM_CONSTRAINED, UNCONSTRAINED, prime_fermat_scan,
                    random_elem_density)
from .sunits import PreconditionError, UsageError, build_context


@dataclass(frozen=True)
class ScanCount:
    """One row of the counting table: unresolved = c1 - c2."""

    p: int
    c1: int
    c2: int

    @property
    def unresolved(self) -> int:
        return self.c1 - self.c2


# An attribute, or (CSV header, attribute); tuples spread over header0, ...
Column = str | tuple[str, str]

VERDICT_COLUMNS: tuple[Column, ...] = (
    "m", "p", "h", "h0", "v_p_h", "delta_eps", "delta_pi", "z_eps", "z_pi",
    "class_ok", "normic_ok", "resolved", "torsion_v")
COUNT_COLUMNS: tuple[Column, ...] = ("p", "c1", "c2", "unresolved")
TALLY_COLUMNS: tuple[Column, ...] = (
    "m", "p", "n", "bound", "rmax", "total",
    ("skipped", "skipped_nonprincipal"), ("c", "counts"),
    ("prop", "proportions"), ("exp", "expected"))
DENSITY_COLUMNS: tuple[Column, ...] = ("m", "p", "mode", "seed", "samples",
                                        "accepted", "hits", "density", "expected")


# ---------------------------------------------------------------- helpers

def parse_count(s: str) -> int:
    """Integer-valued sizes, allowing scientific notation like 1e10."""
    try:
        d = Decimal(s)
    except InvalidOperation as exc:
        raise argparse.ArgumentTypeError(f"not a number: {s!r}") from exc
    if not d.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {s!r}")
    if d.adjusted() >= 4300:  # int() is superlinear in the digits; 4300 is int(str)'s own limit
        raise argparse.ArgumentTypeError(f"too large: {s!r} has 4300 digits or more")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
    return int(d)


def parse_positive(s: str) -> int:
    """An int >= 1, like a worker count."""
    n = int(s)  # argparse reports a ValueError as an invalid value
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {s!r}")
    return n


def parse_prime_range(s: str) -> tuple[int, ...]:
    """"7" -> (7,); "3..43" -> all odd primes in [3, 43]."""
    if ".." in s:
        lo_s, hi_s = s.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        ps = tuple(q for q in range(max(3, lo) | 1, hi + 1, 2) if is_prime(q))
        if not ps:
            raise argparse.ArgumentTypeError(f"no odd primes in {s!r}")
        return ps
    return (int(s),)


def _coords(x) -> str:
    sign = "+" if x.b >= 0 else "-"
    core = f"{x.a} {sign} {abs(x.b)}*sqrt({x.m})"
    return core if x.den == 1 else f"({core})/2"


# -------------------------------------------------------------- serializer

def _pairs(columns: Sequence[Column]) -> list[tuple[str, str]]:
    return [(c, c) if isinstance(c, str) else c for c in columns]


def to_csv(rows: Sequence, columns: Sequence[Column]) -> str:
    """Header, then one line per record: bools as true/false, None empty."""
    pairs = _pairs(columns)
    get = attrgetter(*(attr for _, attr in pairs))
    first = get(rows[0]) if rows else (None,) * len(pairs)
    header: list[str] = []
    for (head, _), value in zip(pairs, first):
        header += ([f"{head}{i}" for i in range(len(value))]
                   if isinstance(value, tuple) else [head])
    spread = any(isinstance(value, tuple) for value in first)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        cells = get(r)
        if spread:
            cells = [x for v in cells for x in (v if isinstance(v, tuple) else (v,))]
        w.writerow([("true" if x else "false") if type(x) is bool else x
                    for x in cells])
    return buf.getvalue()


def _plain(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


def to_json(record, columns: Sequence[Column]) -> dict:
    """The dataclass fields of `record`, then its other columns in spec order."""
    names = [f.name for f in fields(record)] + [attr for _, attr in _pairs(columns)]
    return {a: _plain(getattr(record, a)) for a in dict.fromkeys(names)}


def _write(ns: argparse.Namespace, out: str | dict | list[str]) -> int:
    """Write a command's CSV text, JSON document or table lines, with the header."""
    if ns.fmt == "json":
        body = json.dumps({"schema": 1, **out}, indent=2) + "\n"
    else:
        body = out if ns.fmt == "csv" else "\n".join(out) + "\n"
        if not ns.no_header:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            body = f"# iwascan {ns.command} generated {stamp}\n" + body
    if not ns.output:
        sys.stdout.write(body)
        return 0
    try:
        with open(ns.output, "w") as fh:
            fh.write(body)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# ------------------------------------------------------------- subcommands

def cmd_check(ns: argparse.Namespace) -> str | dict | list[str]:
    v = check_field(ns.m, ns.p[0], ns.n0)
    ctx = build_context(ns.m, ns.p[0])
    if ns.fmt == "csv":
        return to_csv([v], VERDICT_COLUMNS)
    if ns.fmt == "json":
        return {"verdict": {**to_json(v, VERDICT_COLUMNS),
                            "eps": [ctx.eps.a, ctx.eps.b, ctx.eps.den],
                            "pi1": [ctx.pi1.a, ctx.pi1.b, ctx.pi1.den]}}
    return [
        f"m = {v.m}, p = {v.p}",
        f"h = {v.h}, h0 = {v.h0}, v_p(h) = {v.v_p_h}",
        f"eps = {_coords(ctx.eps)}",
        f"pi1 = {_coords(ctx.pi1)}   (norm {ctx.pi1.norm()})",
        f"delta(eps) = {v.delta_eps}, z_eps = {v.z_eps}",
        f"delta(pi)  = {v.delta_pi}, z_pi  = {v.z_pi}",
        f"class test:  {'ok' if v.class_ok else 'FAIL'}",
        f"normic test: {'ok' if v.normic_ok else 'FAIL'}",
        f"torsion valuation = {v.torsion_v}",
        "verdict: vanishing certified" if v.resolved else "verdict: unresolved",
    ]


def cmd_scan(ns: argparse.Namespace) -> str | dict | list[str]:
    results = scan_range(ns.p, ns.min_m, ns.max_m, ns.n0, ns.workers)
    counts = [ScanCount(p=r.p, c1=r.tested, c2=r.resolved) for r in results]
    rows = [v for r in results for v in r.rows]
    if ns.fmt == "csv":
        return to_csv(counts, COUNT_COLUMNS) + to_csv(rows, VERDICT_COLUMNS)
    if ns.fmt == "json":
        return {"counts": [to_json(c, COUNT_COLUMNS) for c in counts],
                "rows": [to_json(v, VERDICT_COLUMNS) for v in rows]}
    return ([f"m in [{ns.min_m}, {ns.max_m}]", "p  c1  c2  unresolved"]
            + [f"{c.p}  {c.c1}  {c.c2}  {c.unresolved}" for c in counts])


def cmd_stats_primes(ns: argparse.Namespace) -> str | dict | list[str]:
    t = prime_fermat_scan(ns.m, ns.p[0], ns.n, ns.bound, ns.rmax, ns.workers)
    if ns.fmt == "csv":
        return to_csv([t], TALLY_COLUMNS)
    if ns.fmt == "json":
        return {"tally": to_json(t, TALLY_COLUMNS)}
    lines = [f"m = {t.m}, p = {t.p}, n = {t.n}, bound = {t.bound}",
             f"N_L = {t.total}  (skipped non-principal: {t.skipped_nonprincipal})"]
    for r in range(t.rmax + 1):
        tag = f"delta = {r}" if r < t.rmax else f"delta >= {r}"
        lines.append(f"  C{r} = {t.counts[r]:<8d} {tag:<11s}"
                     f" observed {t.proportions[r]:.5f}"
                     f"  expected {float(t.expected[r]):.5f}")
    return lines


def cmd_stats_random(ns: argparse.Namespace) -> str | dict | list[str]:
    t = random_elem_density(ns.m, ns.p[0], ns.samples, ns.mode, ns.seed)
    if ns.fmt == "csv":
        return to_csv([t], DENSITY_COLUMNS)
    if ns.fmt == "json":
        return {"density": to_json(t, DENSITY_COLUMNS)}
    obs = "undefined (no accepted samples)" if t.density is None else f"{t.density:.6f}"
    return [
        f"m = {t.m}, p = {t.p}, mode = {t.mode}, seed = {t.seed}",
        f"samples = {t.samples}, accepted = {t.accepted}, hits = {t.hits}",
        f"density = {obs}  expected {float(t.expected):.6f}",
    ]


# -------------------------------------------------------------- arg parsing

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iwascan",
        description="Vanishing tests and Fermat-quotient statistics for "
                    "real quadratic fields with p split.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, run) -> None:
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", dest="fmt")
        sp.add_argument("--no-header", action="store_true",
                        help="omit the timestamped comment line")
        sp.add_argument("--output", default=None, help="write here, not stdout")

    sp = sub.add_parser("check", help="verdict for one field")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_prime_range, required=True)
    sp.add_argument("--n0", type=parse_positive, default=8)
    common(sp, cmd_check)

    sp = sub.add_parser("scan", help="counting table over an m-range")
    sp.add_argument("--p", type=parse_prime_range, required=True,
                    help="single prime or range like 3..43")
    sp.add_argument("--min-m", type=int, default=2)
    sp.add_argument("--max-m", type=int, default=10_000)
    sp.add_argument("--n0", type=parse_positive, default=1)
    sp.add_argument("--workers", type=parse_positive, default=os.cpu_count() or 1)
    common(sp, cmd_scan)

    sp = sub.add_parser("stats-primes", help="delta tally over split primes")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_prime_range, required=True)
    sp.add_argument("--n", type=parse_positive, default=12)
    sp.add_argument("--bound", type=parse_count, default=10**10)
    sp.add_argument("--rmax", type=int, default=5)
    sp.add_argument("--workers", type=parse_positive, default=os.cpu_count() or 1)
    common(sp, cmd_stats_primes)

    sp = sub.add_parser("stats-random", help="delta density of random elements")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=parse_prime_range, required=True)
    sp.add_argument("--samples", type=parse_count, default=10**6)
    sp.add_argument("--mode", choices=(NORM_CONSTRAINED, UNCONSTRAINED),
                    default=NORM_CONSTRAINED)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, cmd_stats_random)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags
        return int(exc.code or 0)
    if len(ns.p) > 1 and ns.command != "scan":
        print("error: a prime range is only valid for scan", file=sys.stderr)
        return 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # units and generators print at any size
    try:
        return _write(ns, ns.run(ns))
    except UsageError as exc:  # a flag value the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # anything else is a defect in the engine
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
