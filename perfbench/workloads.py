"""The benchmark's workloads and the gate that checks their output.

Each workload is one `iwascan` CLI command.  The benchmark seed picks one
of a fixed set of input variants, so every run's stdout can be compared
byte for byte with an output pinned from a known-good commit
(`pinned.json`, written by `pin.py`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

# tested/resolved fields for m <= 10^4, as pinned by the acceptance gate
COUNTS = {3: (2279, 2042), 5: (2534, 2459), 7: (2660, 2599),
          11: (2781, 2759), 43: (2971, 2971)}

SCAN_WINDOW = 1000  # m-values per scan-large-m window
SCAN_SHIFT = 10     # window start moves by this much per variant


@dataclass(frozen=True)
class Workload:
    """One CLI command; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    variants: int                    # distinct inputs; variant = seed % variants
    make_argv: Callable[[int], list[str]]
    item: str                        # what items_per_s counts

    def argv(self, seed: int) -> list[str]:
        return self.make_argv(seed % self.variants)


def _scan_large_m(variant: int) -> list[str]:
    lo = 1_000_000 + SCAN_SHIFT * variant
    return ["scan", "--p", "3", "--min-m", str(lo), "--max-m", str(lo + SCAN_WINDOW),
            "--workers", "1", "--format", "csv", "--no-header"]


WORKLOADS = {w.name: w for w in (
    Workload("table-small", 1,
             lambda v: ["scan", "--p", "3..43", "--max-m", "10000", "--workers", "2",
                        "--format", "csv", "--no-header"],
             "fields"),
    Workload("scan-large-m", 16, _scan_large_m, "fields"),
    # bound 3e9, not the paper's 1e10: see README.md
    Workload("split-primes", 1,
             lambda v: ["stats-primes", "--m", "44853", "--p", "7", "--n", "5",
                        "--bound", "3e9", "--workers", "2", "--format", "csv",
                        "--no-header"],
             "split primes"),
    Workload("random-elements", 16,
             lambda v: ["stats-random", "--m", "7", "--p", "3", "--samples", "5e7",
                        "--seed", str(v), "--format", "csv", "--no-header"],
             "samples"),
)}


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load_pinned() -> dict[str, dict[str, str]]:
    return json.loads(PINNED.read_text())


def _csv_sections(text: str) -> list[list[list[str]]]:
    """Split CSV output into sections, each starting at a header row."""
    sections: list[list[list[str]]] = []
    for row in csv.reader(io.StringIO(text)):
        if row and not row[0].lstrip("-").isdigit():
            sections.append([row])
        elif sections:
            sections[-1].append(row)
        else:
            raise ValueError("data row before any header")
    return sections


def _records(section: list[list[str]]) -> list[dict[str, str]]:
    header, *rows = section
    return [dict(zip(header, row)) for row in rows]


def count_items(workload: Workload, out: bytes) -> int:
    """The work one run did: fields tested, split primes tallied, or samples."""
    sections = _csv_sections(out.decode())
    first = _records(sections[0])
    if workload.item == "fields":
        return sum(int(rec["c1"]) for rec in first)
    if workload.item == "split primes":
        return int(first[0]["total"]) + int(first[0]["skipped"])
    return int(first[0]["samples"])


def check_output(workload: Workload, seed: int, out: bytes,
                 pinned: dict[str, dict[str, str]]) -> list[str]:
    """Reasons the output is wrong; empty when it matches the pinned bytes."""
    problems = []
    want = pinned.get(workload.name, {}).get(str(seed % workload.variants))
    if want is None:
        problems.append(f"no pinned digest for {workload.name} variant "
                        f"{seed % workload.variants}")
    elif digest(out) != want:
        problems.append(f"output digest {digest(out)[:16]} != pinned {want[:16]}")
    if workload.name == "table-small":
        problems += check_counts(out)
    return problems


def check_counts(out: bytes) -> list[str]:
    """The counting-table rows for p in COUNTS equal the acceptance figures."""
    try:
        rows = {int(rec["p"]): (int(rec["c1"]), int(rec["c2"]))
                for rec in _records(_csv_sections(out.decode())[0])}
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return [f"unreadable counting table: {exc!r}"]
    return [f"p={p}: counts {rows.get(p)} != {want}"
            for p, want in COUNTS.items() if rows.get(p) != want]
