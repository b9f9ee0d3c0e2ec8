"""CLI surface: parsing, serialization round-trips, exit codes, determinism."""

import argparse
import concurrent.futures
import csv
import hashlib
import json
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields

import pytest

from iwascan import cli, fermat, greenberg, quadint
from iwascan.cli import (COUNT_COLUMNS, DENSITY_COLUMNS, TALLY_COLUMNS,
                         VERDICT_COLUMNS, ScanCount, main, parse_count,
                         parse_prime_range, to_csv)
from iwascan.fermat import N_CAP, Capped
from iwascan.greenberg import FieldVerdict, check_field
from iwascan.stats import (NORM_CONSTRAINED, DensityTally, StatTally,
                           prime_fermat_scan, random_elem_density)
from iwascan.sunits import UsageError

import oracles


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "iwascan.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _field(text):
    """A dataclass field cell: true/false, an integer, or a plain string."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return text


def _spells(text, value):
    """Whether a derived cell is the value of the record's property."""
    return text == "" if value is None else type(value)(text) == value


def read_csv(text, cls, columns):
    """Records of type `cls` from CSV written with the column spec `columns`.

    `#` lines are skipped.  A column whose header is absent must be spread
    over header0, header1, ...; the header must be exactly the spec's.  The
    record's fields, of a dataclass or a named tuple, rebuild each record; every other
    column must spell the record's property of that name, or ValueError is raised.
    """
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header, *body = csv.reader(lines)
    names = set(cls._fields) if issubclass(cls, tuple) else {f.name for f in fields(cls)}
    widths, want = {}, []  # attribute -> None (one cell) or spread width
    for col in columns:
        head, attr = (col, col) if isinstance(col, str) else col
        if head in header:
            widths[attr] = None
            want.append(head)
            continue
        width = next(k for k in range(len(header) + 1) if f"{head}{k}" not in header)
        if width == 0:
            raise ValueError(f"no column {head} in header {header}")
        widths[attr] = width
        want += [f"{head}{i}" for i in range(width)]
    if want != header:
        raise ValueError(f"header {header} does not match the spec {want}")
    out = []
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"row {row} does not match the header")
        cells = iter(row)
        texts = {a: next(cells) if k is None else [next(cells) for _ in range(k)]
                 for a, k in widths.items()}
        rec = cls(**{a: tuple(map(_field, t)) if isinstance(t, list) else _field(t)
                     for a, t in texts.items() if a in names})
        for a, t in texts.items():
            if a in names:
                continue
            value = getattr(rec, a)
            ok = (len(t) == len(value) and all(map(_spells, t, value))
                  if isinstance(t, list) else _spells(t, value))
            if not ok:
                raise ValueError(f"inconsistent column {a} in {row}")
        out.append(rec)
    return out


def test_parse_count():
    assert parse_count("123") == 123
    assert parse_count("1e10") == 10**10
    assert parse_count("2.5e3") == 2500
    with pytest.raises(Exception):
        parse_count("1.5")
    with pytest.raises(Exception):
        parse_count("ten")
    assert parse_count("9e4299") == 9 * 10**4299
    for text in ("1e4300", "-1e4300", "inf", "sNaN"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_count(text)


def test_parse_prime_range():
    assert parse_prime_range("7") == (7,)
    assert parse_prime_range("3..43") == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                          37, 41, 43)
    with pytest.raises(Exception):
        parse_prime_range("4..4")  # no odd primes inside
    with pytest.raises(Exception):
        parse_prime_range("14..16")


def test_a_wide_prime_range_is_refused_before_any_number_is_tested(monkeypatch, capsys):
    """`--p lo..hi` is parsed while argparse runs, before `main` refuses a range for
    `check`; a range wider than 10^6 exits 2 without enumerating its primes."""
    tested = []
    is_prime = cli.is_prime

    def counting(n):
        tested.append(n)
        if len(tested) > 10**5:
            pytest.fail("the range was enumerated")
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counting)
    with pytest.raises(argparse.ArgumentTypeError, match="wider than 10"):
        parse_prime_range("3..10000000000")
    assert main(["check", "--m", "7", "--p", "3..10000000000"]) == 2
    assert "wider than 10^6" in capsys.readouterr().err
    assert not tested
    monkeypatch.setattr(cli, "is_prime", lambda n: n == 1000003)  # the edge, untested
    assert parse_prime_range("3..1000003") == (1000003,)  # ends 10^6 apart: allowed
    with pytest.raises(argparse.ArgumentTypeError, match="wider than 10"):
        parse_prime_range("3..1000004")


def test_verdict_csv_round_trip():
    rows = [check_field(m, 3) for m in (103, 2659, 30007, 30043)]
    assert read_csv(to_csv(rows, VERDICT_COLUMNS), FieldVerdict, VERDICT_COLUMNS) == rows
    assert read_csv(to_csv([], VERDICT_COLUMNS), FieldVerdict, VERDICT_COLUMNS) == []


def test_counts_csv_round_trip():
    rows = [ScanCount(3, 2279, 2042), ScanCount(43, 2971, 2971)]
    assert read_csv(to_csv(rows, COUNT_COLUMNS), ScanCount, COUNT_COLUMNS) == rows


def test_tally_csv_round_trip():
    t = prime_fermat_scan(103, 3, 5, 10**6)
    assert read_csv(to_csv([t], TALLY_COLUMNS), StatTally, TALLY_COLUMNS) == [t]


def test_density_csv_round_trip():
    t = random_elem_density(7, 3, 50_000, NORM_CONSTRAINED, seed=2)
    assert read_csv(to_csv([t], DENSITY_COLUMNS), DensityTally, DENSITY_COLUMNS) == [t]
    empty = random_elem_density(7, 3, 0, NORM_CONSTRAINED, seed=2)
    assert empty.density is None
    assert read_csv(to_csv([empty], DENSITY_COLUMNS), DensityTally,
                    DENSITY_COLUMNS) == [empty]


def _tamper(text, column, cell):
    header, row = text.splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = cell
    return f"{header}\n{','.join(cells)}\n"


@pytest.mark.parametrize("record, columns, column, cell", [
    (check_field(103, 3), VERDICT_COLUMNS, "z_eps", "1/9"),
    (check_field(103, 3), VERDICT_COLUMNS, "z_pi", "1"),
    (ScanCount(3, 22, 19), COUNT_COLUMNS, "unresolved", "4"),
    (StatTally(m=103, p=3, n=5, bound=10, rmax=1, total=3,
               skipped_nonprincipal=0, counts=(2, 1)), TALLY_COLUMNS, "prop1", "0.5"),
    (StatTally(m=103, p=3, n=5, bound=10, rmax=1, total=3,
               skipped_nonprincipal=0, counts=(2, 1)), TALLY_COLUMNS, "exp0", "1/3"),
    (DensityTally(m=7, p=3, mode=NORM_CONSTRAINED, seed=0, samples=10,
                  accepted=4, hits=3), DENSITY_COLUMNS, "density", "0.7"),
    (DensityTally(m=7, p=3, mode=NORM_CONSTRAINED, seed=0, samples=10,
                  accepted=0, hits=0), DENSITY_COLUMNS, "density", "0.0"),
    (DensityTally(m=7, p=3, mode=NORM_CONSTRAINED, seed=0, samples=10,
                  accepted=4, hits=3), DENSITY_COLUMNS, "expected", "8/9"),
])
def test_csv_reader_rejects_inconsistent_columns(record, columns, column, cell):
    text = to_csv([record], columns)
    assert read_csv(text, type(record), columns) == [record]
    with pytest.raises(ValueError, match="inconsistent column"):
        read_csv(_tamper(text, column, cell), type(record), columns)


def test_csv_reader_rejects_a_foreign_header():
    text = to_csv([ScanCount(3, 22, 19)], COUNT_COLUMNS)
    with pytest.raises(ValueError, match="header"):
        read_csv(text, FieldVerdict, VERDICT_COLUMNS)
    with pytest.raises(ValueError, match="header"):
        read_csv(text.replace("c2", "c3"), ScanCount, COUNT_COLUMNS)
    with pytest.raises(ValueError, match="no column unresolved"):
        read_csv(text.replace(",unresolved", ""), ScanCount, COUNT_COLUMNS)


def test_check_command_table(capsys):
    assert main(["check", "--m", "30007", "--p", "3", "--no-header"]) == 0
    out = capsys.readouterr().out
    assert "h = 2" in out and "z_pi  = 1/9" in out and "unresolved" in out


def test_check_command_json(capsys):
    assert main(["check", "--m", "103", "--p", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["verdict"]["m"] == 103 and doc["verdict"]["z_eps"] == "1/3"
    assert doc["verdict"]["eps"] == [227528, 22419, 1]


def test_scan_command_csv(capsys):
    assert main(["scan", "--p", "3", "--min-m", "30001", "--max-m", "30097",
                 "--format", "csv", "--no-header"]) == 0
    out = capsys.readouterr().out
    counts = read_csv(out.split("m,p,")[0], ScanCount, COUNT_COLUMNS)
    assert counts == [ScanCount(3, 22, 19)]
    rows = read_csv("m,p," + out.split("m,p,", 1)[1], FieldVerdict, VERDICT_COLUMNS)
    assert len(rows) == 22 and rows[0].m == 30001


# windows fixed in advance, as (--p, --min-m, --max-m): every m <= 2000 at p = 3..43, which
# holds rows with delta >= 2 (z = 1/p^k, k >= 2); a window at p = 3; an empty window; and a
# window where p = 5 admits no m
SCAN_WINDOWS = {
    "table-2000": ("3..43", 2, 2000),
    "window-30001": ("3", 30001, 30097),
    "empty": ("3", 4, 4),
    "p5-empty": ("3..5", 7, 7),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
@pytest.mark.parametrize("window", sorted(SCAN_WINDOWS))
def test_scan_output_equals_the_after_the_scan_oracle(window, fmt, workers, capsys):
    """`scan` writes each block's CSV lines in its worker; the bytes equal the former route's,
    `FieldVerdict` rows serialized by `to_csv`/`to_json` once the scan is done."""
    p, m_min, m_max = SCAN_WINDOWS[window]
    assert main(["scan", "--p", p, "--min-m", str(m_min), "--max-m", str(m_max),
                 "--workers", str(workers), "--format", fmt, "--no-header"]) == 0
    assert capsys.readouterr().out == oracles.scan_output_after_the_scan(
        parse_prime_range(p), m_min, m_max, fmt, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_table_scan_ships_no_rows(monkeypatch, capsys, workers):
    """A table prints only the counts, so each block's part of each prime holds no row,
    in process and across the pool; the table's bytes are the former route's."""
    got = []
    scan = cli.scan_parts
    monkeypatch.setattr(cli, "scan_parts", lambda *a, **k: got.append(r := scan(*a, **k)) or r)
    assert main(["scan", "--p", "3..7", "--min-m", "2", "--max-m", "450",
                 "--workers", str(workers), "--no-header"]) == 0
    [per_p] = got
    assert [len(parts) for *_, parts in per_p] == [5, 5, 5]  # blocks of greenberg._CHUNK m
    assert all(tested > 0 for tested, _, _ in per_p)
    assert all(part is None for *_, parts in per_p for part in parts)
    assert capsys.readouterr().out == oracles.scan_output_after_the_scan(
        (3, 5, 7), 2, 450, "table", workers)


def test_the_scan_windows_hold_their_hard_cases():
    def scan(window):
        p, m_min, m_max = SCAN_WINDOWS[window]
        return greenberg.scan_range(parse_prime_range(p), m_min, m_max)

    rows = [v for r in scan("table-2000") for v in r.rows]
    assert {v.delta_eps >= 2 for v in rows} == {v.delta_pi >= 2 for v in rows} == {True, False}
    assert [r.tested for r in scan("window-30001")] == [22]
    assert [r.tested for r in scan("empty")] == [0]
    assert [r.tested for r in scan("p5-empty")] == [1, 0]


def test_a_discriminant_past_int64_is_refused_before_factoring(capsys):
    """Factoring this m takes over 20 s, and the class number could only refuse its D."""
    big = "10000000000000000051"
    for argv in (("check", "--m", big, "--p", "3"),
                 ("scan", "--p", "3", "--min-m", big, "--max-m", big),
                 ("stats-primes", "--m", big, "--p", "3", "--n", "2", "--bound", "1e3"),
                 ("stats-random", "--m", big, "--p", "3", "--samples", "10")):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 3 and "past the class number's int64 range" in err, argv
        assert elapsed < 0.5, argv


def test_a_series_past_the_term_budget_is_refused_in_one_line(capsys):
    """The unit of m = 10^16 + 1 is 10^8 + sqrt(m): its series would want ~2*10^8 terms."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["check", "--m", "10000000000000001", "--p", "5"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3 and "past the series budget" in err and err.count("\n") == 1, err
    assert elapsed < 1 and peak < 10**6, (elapsed, peak)


def test_exit_codes(capsys):
    # one real process per exit code; the other cases run cli.main in-process
    def run(*args):
        code = main(list(args))
        out, err = capsys.readouterr()
        return code, out, err

    code, _, err = run_cli("check", "--m", "4", "--p", "3")
    assert code == 3 and "squarefree" in err
    code, _, err = run("check", "--m", "5", "--p", "3")
    assert code == 3
    code, _, _ = run_cli("check", "--m", "103")
    assert code == 2  # missing --p
    code, _, _ = run("bogus-command")
    assert code == 2
    code, _, err = run("check", "--m", "103", "--p", "3..7")
    assert code == 2 and "only valid for scan" in err
    code, _, _ = run_cli("stats-random", "--m", "7", "--p", "3",
                         "--samples", "0", "--no-header")
    assert code == 0
    tally = ("stats-primes", "--m", "103", "--p", "3", "--n", "5", "--bound", "1e6")
    # flag values the library refuses are bad arguments, not preconditions
    code, _, err = run(*tally, "--rmax", "-1")
    assert code == 2 and err == "error: rmax must be >= 0\n"
    code, _, err = run(*tally, "--n", "3")
    assert code == 2 and err == "error: need n >= rmax to fill every bucket\n"
    code, _, err = run("scan", "--p", "3", "--min-m", "50", "--max-m", "10")
    assert code == 2 and err == "error: empty range\n"
    # --workers is a positive int, and only scan and stats-primes take it
    code, _, err = run(*tally, "--workers", "0")
    assert code == 2 and "argument --workers: must be >= 1" in err
    code, _, err = run("scan", "--p", "3", "--max-m", "10", "--workers", "-1")
    assert code == 2 and "argument --workers: must be >= 1" in err
    code, _, err = run("check", "--m", "103", "--p", "3", "--workers", "0")
    assert code == 2 and "unrecognized arguments: --workers 0" in err
    code, _, err = run("stats-random", "--m", "7", "--p", "3", "--samples", "0",
                       "--workers", "-3")
    assert code == 2 and "unrecognized arguments: --workers -3" in err
    code, _, err = run("stats-random", "--m", "7", "--p", "3", "--seed", "-1")
    assert code == 2 and err == "error: seed must be >= 0\n"
    code, _, err = run(*tally, "--n", "64", "--rmax", "64")
    assert code == 2 and err == "error: rmax must be <= 63\n"
    # a prime past the deterministic Miller-Rabin range is a precondition
    big = "3317044064679887385962123"
    for argv in (("check", "--m", "7", "--p", big),
                 ("scan", "--p", big, "--max-m", "10"),
                 ("stats-random", "--m", "7", "--p", big, "--samples", "0")):
        code, _, err = run(*argv)
        assert code == 3 and err == f"error: p={big} is too large to prove prime\n", argv
    # a composite p is refused whatever the m-range
    for max_m in ("2", "9"):
        code, _, err = run("scan", "--p", "21", "--min-m", "2", "--max-m", max_m)
        assert code == 3 and err == "error: p=21 must be an odd prime\n", max_m


def test_unwritable_output_is_a_bad_argument(tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli("check", "--m", "103", "--p", "3", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.exists()


def test_byte_identical_reruns():
    args = ("scan", "--p", "3", "--min-m", "2", "--max-m", "300",
            "--format", "csv", "--no-header")
    a, b = run_cli(*args), run_cli(*args)
    assert a == b and a[0] == 0

    args = ("stats-random", "--m", "7", "--p", "3", "--samples", "1e5",
            "--seed", "9", "--format", "csv", "--no-header")
    a, b = run_cli(*args), run_cli(*args)
    assert a == b and a[0] == 0


def test_header_toggle(capsys):
    assert main(["check", "--m", "103", "--p", "3"]) == 0
    with_header = capsys.readouterr().out
    assert with_header.startswith("# iwascan check generated ")
    assert main(["check", "--m", "103", "--p", "3", "--no-header"]) == 0
    assert not capsys.readouterr().out.startswith("#")


def test_output_file(tmp_path):
    target = tmp_path / "rows.csv"
    assert main(["scan", "--p", "3", "--min-m", "30001", "--max-m", "30031",
                 "--format", "csv", "--no-header", "--output", str(target)]) == 0
    rows = read_csv("m,p," + target.read_text().split("m,p,", 1)[1], FieldVerdict,
                    VERDICT_COLUMNS)
    assert [r.m for r in rows] == [30001, 30007, 30010, 30013, 30019, 30022, 30031]


def test_stats_primes_command_csv(capsys):
    assert main(["stats-primes", "--m", "103", "--p", "3", "--n", "5",
                 "--bound", "1e6", "--format", "csv", "--no-header"]) == 0
    [t] = read_csv(capsys.readouterr().out, StatTally, TALLY_COLUMNS)
    assert t.total == 162 and t.counts[0] == 107


def test_stats_random_mode_validation():
    code, _, _ = run_cli("stats-random", "--m", "7", "--p", "3",
                         "--mode", "weird")
    assert code == 2


# Every command x format, pinned by the sha256 of its stdout.  The digests
# were recorded from the hand-written per-record serializers that the
# column-spec serializer replaced; any byte of drift fails here.
GOLDEN_CASES = {
    "check-2659": ("check", "--m", "2659", "--p", "3"),
    "check-103": ("check", "--m", "103", "--p", "3"),
    "scan-one-prime": ("scan", "--p", "3", "--min-m", "30001", "--max-m", "30097",
                       "--workers", "1"),
    "scan-prime-range": ("scan", "--p", "3..11", "--min-m", "2", "--max-m", "300",
                         "--workers", "2"),
    "scan-empty": ("scan", "--p", "3", "--min-m", "4", "--max-m", "4",
                   "--workers", "1"),
    "stats-primes-rmax5": ("stats-primes", "--m", "103", "--p", "3", "--n", "5",
                           "--bound", "1e6", "--workers", "1"),
    "stats-primes-rmax3": ("stats-primes", "--m", "103", "--p", "3", "--n", "5",
                           "--bound", "1e6", "--rmax", "3", "--workers", "1"),
    "stats-random-norm": ("stats-random", "--m", "7", "--p", "3", "--samples", "1e5",
                          "--seed", "9"),
    "stats-random-empty": ("stats-random", "--m", "7", "--p", "3", "--samples", "0"),
    "stats-random-unconstrained": ("stats-random", "--m", "7", "--p", "3",
                                   "--samples", "1e5", "--mode", "unconstrained"),
}

GOLDEN_SHA256 = {
    ("check-2659", "table"): "f8b28038db3bf2e500d176f3a85324d6deeb95fddc6eb4cb7c01305926954ac8",
    ("check-2659", "csv"): "331401434a708cc1650b95efa0848934cb4edebdfed90afd964bbf07516ff038",
    ("check-2659", "json"): "8b5ea54d9e25fd4a884125c542a55466dc00123989fe3d6cac5a3c4fe9d2d741",
    ("check-103", "table"): "25d2e08cbe3a3c31d8454506dea4b96c03b06109f975209a9231a9cd7b2af0fb",
    ("check-103", "csv"): "8ecca1ec0717d91b5fcf818cb0da77c6acaca893abc1131a0721a3a7190b14f1",
    ("check-103", "json"): "dc995d6f5fe40ba622e0ae8b6e62cbf3e2d9a832c1a82f59e9f3fd6dca2a27e8",
    ("scan-one-prime", "table"): "a60bb120a1999bf17f6e17cff338b9f36dda39c1d8577956de586c950b6897bf",
    ("scan-one-prime", "csv"): "a10443332aaa3bd6e51b835dd2955ae224f2b70047d968cf2c20e766616d5794",
    ("scan-one-prime", "json"): "a24601e0b705e491dc88a56228ddfedf2bf578ea38cfdbd9c7478f352f21fbe0",
    ("scan-prime-range", "table"): "49e563d7c0488c84f064e8218cc40ae631ef5c41372e26973d2a0309655cfd29",
    ("scan-prime-range", "csv"): "307598cf7bb4ddb599c99b65da908371459a9ffd08d7cb7bf36c30ee65c5b86f",
    ("scan-prime-range", "json"): "9feab384bd6c4a8c5f967df36a78c35912f5f4160b052ddf25eaee08912279d6",
    ("scan-empty", "table"): "855d9e5a73906bb4c12a0a7c0da94f15567fc09381015afa6690b2d2514f7754",
    ("scan-empty", "csv"): "55a16300a4f127518ae67f98a0f88e40e0866e0357c053ac7459b8f1475f509a",
    ("scan-empty", "json"): "1ab593a8778c885440383ca35c10a70c17a6d17485609aeec3b7b70c127c3b70",
    ("stats-primes-rmax5", "table"): "36c56e3c878657d600b9601bc0ae7b1866935fdbf4774aae3da3c641292334a8",
    ("stats-primes-rmax5", "csv"): "d67b5b993bc0c8783681a769b8b71e72b0b53984bc15bd23d7ad98b3c633e97b",
    ("stats-primes-rmax5", "json"): "1283b8d54223941bae54e29ee5bcae99b2f91c137675f0e1763a5433f00eaf23",
    ("stats-primes-rmax3", "table"): "55f1e0bef450338b28a9e33b9c0c263b637a7f7c6489184aaaaa722a1436c69d",
    ("stats-primes-rmax3", "csv"): "839fb38c8d345784622a94a84326c99aaaa224307974c6f17212dc32369e6e49",
    ("stats-primes-rmax3", "json"): "34497878a6d73dbc1d563d3db9ea863e90a32e8359f2f1b93b5875291200cfa8",
    ("stats-random-norm", "table"): "866b2c48f1257eacaefaab0421781a97b11531c98152491bc76ae6f9cc08742c",
    ("stats-random-norm", "csv"): "58f980569eedb31abc848cd54eda86d4de3bfcf3917e010a04a989c07c9f144b",
    ("stats-random-norm", "json"): "41fcdb52e707aac0d200bc5cbce774fd619572eb1f81ded95d23d7d3942c026a",
    ("stats-random-empty", "table"): "02da80c5621218a3323ee23e603d795a765b363d83ca68515128a4fee6ffd1d4",
    ("stats-random-empty", "csv"): "f6aef4d71f9a80b9289ce6bcaa642774f3cf490f8cc40ac1b0b1e0491da03b7b",
    ("stats-random-empty", "json"): "7755a1c73ec3df1a08825592bcb6154c8d07b4d692781228eb51cfd681f2cbf2",
    ("stats-random-unconstrained", "table"): "514b03043ba1a64148ce6d8a2e12c65b47a5910960bd309c16acb7f2b0805281",
    ("stats-random-unconstrained", "csv"): "25a428e1fe385dd7850bf63dfc817fd3052b2d9641f68453a52d41cd6a35498b",
    ("stats-random-unconstrained", "json"): "2e6f84b9c99855ff6a759b9b5d97bf3906bb37fe408e578ba25d48959a5f5cd0",
}


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN_SHA256),
                         ids=[f"{c}-{f}" for c, f in sorted(GOLDEN_SHA256)])
def test_output_bytes_are_pinned(case, fmt, capsys):
    assert main([*GOLDEN_CASES[case], "--format", fmt, "--no-header"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[case, fmt]


def test_a_multi_prime_scan_builds_one_pool(monkeypatch, capsys):
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    assert main(["scan", "--p", "3..11", "--max-m", "300", "--workers", "2",
                 "--no-header"]) == 0
    assert pools == [{"max_workers": 2}]
    assert "11  82  82  0" in capsys.readouterr().out


def test_a_split_prime_tally_builds_one_pool(monkeypatch, capsys):
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    assert main(["stats-primes", "--m", "103", "--p", "3", "--n", "5", "--bound", "1e6",
                 "--workers", "2", "--no-header"]) == 0
    assert pools == [{"max_workers": 2}]
    assert "N_L = 162  (skipped non-principal: 0)" in capsys.readouterr().out


def test_a_bound_past_int64_is_refused_in_one_line(capsys):
    # the int64 candidate stream once wrapped here and printed N_L = 0
    assert main(["stats-primes", "--m", "103", "--p", "3", "--n", "38",
                 "--bound", "1e20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bound must be <= 2^63\n"


# m = 100000039 at p = 3: h = h0 = 1 and a unit of about 4400 digits,
# past Python's default 4300-digit limit on int <-> str conversion
BIG_UNIT_M = 100000039


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_units_past_4300_digits_print_exactly(fmt, capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["check", "--m", str(BIG_UNIT_M), "--p", "3", "--format", fmt,
                 "--no-header"]) == 0
    assert sys.get_int_max_str_digits() == limit  # lifted inside main only
    out, err = capsys.readouterr()
    assert err == ""
    sys.set_int_max_str_digits(0)  # to read the digits back
    try:
        if fmt == "json":
            v = json.loads(out)["verdict"]
            (a, b, den), (x, y, _) = v["eps"], v["pi1"]
        else:
            den = 1
            a, b = map(int, re.search(r"eps = (\d+) [+-] (\d+)\*sqrt", out).groups())
            x, y = map(int, re.search(r"pi1 = (\d+) [+-] (\d+)\*sqrt", out).groups())
    finally:
        sys.set_int_max_str_digits(limit)
    assert a.bit_length() > 14300  # more than 4300 decimal digits
    assert den == 1 and a * a - BIG_UNIT_M * b * b in (1, -1)
    assert x * x - BIG_UNIT_M * y * y in (3, -3)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_check_builds_its_unit_and_generator_once(monkeypatch, capsys, fmt):
    # eps and pi1 are FieldContext properties, each a new QuadElem when read
    elems, init = [], quadint.QuadElem.__post_init__
    monkeypatch.setattr(quadint.QuadElem, "__post_init__", lambda x: elems.append(x) or init(x))
    assert main(["check", "--m", "2659", "--p", "3", "--format", fmt, "--no-header"]) == 0
    assert capsys.readouterr().out
    assert len(elems) == 2, elems


def test_an_engine_value_error_is_an_internal_error(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("den=2 needs a = b (mod 2)")

    monkeypatch.setattr(cli, "check_field", broken)
    assert main(["check", "--m", "103", "--p", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: den=2 needs a = b (mod 2)\n"


def test_a_delta_capped_at_n_cap_exits_3_in_one_line(monkeypatch, capsys):
    monkeypatch.setattr(fermat, "_deltas", lambda x, e, ctx, n: (Capped(n), Capped(n)))
    assert main(["check", "--m", "103", "--p", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: delta >= {N_CAP} for m=103, p=3\n"


def test_huge_n_exits_0_with_an_empty_tally():
    # candidates ell = r + j*3^(n+1) all exceed the bound; no lift is formed
    argv = ("stats-primes", "--m", "103", "--p", "3", "--n", "100000000",
            "--rmax", "0", "--bound", "1e6", "--workers", "1", "--no-header")
    proc = subprocess.run([sys.executable, "-m", "iwascan.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "N_L = 0  (skipped non-principal: 0)" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("stats-primes", "--m", "103", "--p", "3", "--bound", "1e10000000"),
    ("stats-random", "--m", "7", "--p", "3", "--samples", "1e10000000")])
def test_a_huge_exponent_exits_2_at_once(argv):
    # int(Decimal("1e10000000")) alone ran for more than 20 s
    proc = subprocess.run([sys.executable, "-m", "iwascan.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith("has 4300 digits or more")


def test_refused_flag_values_are_usage_errors():
    refused = (
        (lambda: greenberg.scan_range((3,), 50, 10), "empty range"),
        (lambda: greenberg.scan_range((3,), 2, 10, workers=0), "workers must be >= 1"),
        (lambda: greenberg.scan_range((3, 3), 2, 10), "none repeated"),
        (lambda: prime_fermat_scan(103, 3, 5, 10**4, rmax=-1), "rmax must be >= 0"),
        (lambda: prime_fermat_scan(103, 3, 3, 10**4), "need n >= rmax"),
        (lambda: prime_fermat_scan(103, 3, 5, 10**4, workers=0), "workers must be >= 1"),
        (lambda: prime_fermat_scan(103, 3, 70, 10**4, rmax=64), "rmax must be <= 63"),
        (lambda: random_elem_density(7, 3, -1), "samples must be >= 0"),
        (lambda: random_elem_density(7, 3, 10, seed=-1), "seed must be >= 0"),
        (lambda: random_elem_density(7, 3, 10, "other"), "unknown mode"))
    for call, message in refused:
        with pytest.raises(UsageError, match=message):
            call()
    # a precision below 1 is refused by the parser; check and scan take no starting precision
    code, _, err = run_cli("stats-primes", "--m", "103", "--p", "3", "--n", "0", "--rmax", "0")
    assert code == 2 and "must be >= 1" in err
    code, _, err = run_cli("check", "--m", "103", "--p", "3", "--n0", "8")
    assert code == 2 and "unrecognized arguments: --n0" in err
