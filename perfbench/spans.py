"""Per-layer spans for one in-process `iwascan` CLI command.

Usage (from the repository root, with the package importable):

    PYTHONPATH=src python3 perfbench/spans.py traced scan --p 3 --max-m 300 ...
    PYTHONPATH=src python3 perfbench/spans.py plain  scan --p 3 --max-m 300 ...

Both modes call `iwascan.cli.main(argv)` in this fresh process with stdout
captured, and print one JSON object: the wall time of the call, the
output's length and digest and, in `traced` mode, the per-layer metrics.

Tracing wraps the functions in `TRACED`.  Each wrapper is bound in place
of the original in every iwascan module that holds it, so the calls each
module makes into the layer below become spans, and so do the per-item
calls inside a module (greenberg's per-field loop calling `check_field`,
`delta_exact` retrying `delta_embed`).  The exception is `arith`: its own
internal calls (`is_squarefree` -> `factorize`) are not layer crossings and
stay unwrapped.  Time in an unwrapped helper counts as self time of the
nearest traced caller.  Nothing under `src/` is modified on disk.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from array import array
from typing import Callable, Sequence

from iwascan import cli

LAYERS = ("arith", "quadint", "pell", "qforms", "sunits", "fermat",
          "greenberg", "stats", "cli")

TRACED = ("arith.is_prime", "arith.factorize", "quadint.hensel_sqrt",
          "pell.fundamental_unit", "qforms.class_number", "qforms.class_order",
          "qforms.represent", "sunits.build_context", "fermat.delta_exact",
          "fermat.delta_embed", "greenberg.scan_range", "greenberg.check_field",
          "stats.prime_fermat_scan", "stats.random_elem_density")

CACHED = ("quadint.hensel_sqrt", "pell.fundamental_unit", "sunits.build_context")

ROOT = "cli.main"

# what a span keeps of its call, for the metrics that need it
NOTES: dict[str, Callable[[tuple, object], object]] = {
    "greenberg.scan_range": lambda args, res: args[:3],         # p, m_min, m_max
    "greenberg.check_field": lambda args, res: args[0],         # m
    "qforms.represent": lambda args, res: res is not None,      # principal?
    "stats.random_elem_density": lambda args, res: (res.samples, res.accepted),
}


class Tracer:
    """Spans in flat arrays: name code, parent index, start and end in ns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.code: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("q")
        self.end: array = array("q")
        self.notes: dict[int, object] = {}
        self.originals: dict[str, Callable] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.names.append(name)
        code = len(self.names) - 1
        note = NOTES.get(name)
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack, notes, clock = self._stack, self.notes, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper for every TRACED function wherever it is bound."""
        modules = [importlib.import_module(f"iwascan.{layer}") for layer in LAYERS]
        for qual in TRACED:
            layer, func = qual.split(".")
            home = importlib.import_module(f"iwascan.{layer}")
            orig = self.originals[qual] = getattr(home, func)
            wrapper = self.wrap(qual, orig)
            for mod in modules:
                if getattr(mod, func, None) is orig and not (mod is home and layer == "arith"):
                    self._restore.append((mod, func, orig))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, orig in reversed(self._restore):
            setattr(mod, func, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(parent: Sequence[int], start: Sequence[int],
               end: Sequence[int]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in parent]
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = []
    for idx, kids in enumerate(children):
        covered = 0
        lo = hi = None
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], start[idx]), min(end[k], end[idx])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append(end[idx] - start[idx] - covered)
    return out


def _imbalance(blocks: list[tuple[int, int]]) -> float:
    """Sum over calls of the slowest block over sum of the mean block (0 if none)."""
    slow = sum(max(pair) for pair in blocks)
    mean = sum(sum(pair) / 2 for pair in blocks)
    return slow / mean if mean else 0.0


def layer_metrics(tr: Tracer, selfs: list[int]) -> dict[str, float]:
    """The per-layer metrics of one traced run (see perfbench/README.md)."""
    names = [tr.names[c] for c in tr.code]
    calls: dict[str, int] = {n: 0 for n in tr.names}
    self_ns: dict[str, int] = {n: 0 for n in tr.names}
    incl_ns: dict[str, int] = {n: 0 for n in tr.names}
    kids: dict[int, list[int]] = {}
    for idx, name in enumerate(names):
        calls[name] += 1
        self_ns[name] += selfs[idx]
        incl_ns[name] += tr.end[idx] - tr.start[idx]
        kids.setdefault(tr.parent[idx], []).append(idx)

    def direct(idx: int, name: str) -> list[int]:
        return [k for k in kids.get(idx, ()) if names[k] == name]

    # greenberg: the two contiguous m-blocks scan_range makes at 2 workers;
    # a block runs from its first field's start to the next block's start
    scan_blocks = []
    for idx, name in enumerate(names):
        if name != "greenberg.scan_range":
            continue
        _, m_min, m_max = tr.notes[idx]
        cut_m = m_min + (m_max - m_min + 1) // 2
        later = [k for k in direct(idx, "greenberg.check_field") if tr.notes[k] >= cut_m]
        cut = tr.start[later[0]] if later else tr.end[idx]
        scan_blocks.append((cut - tr.start[idx], tr.end[idx] - cut))

    # stats: prime_fermat_scan's two contiguous halves of the prime list;
    # one prime's item is its represent call up to the next prime's
    tally_blocks, tally_represent, tally_is_prime = [], 0, 0
    for idx, name in enumerate(names):
        if name != "stats.prime_fermat_scan":
            continue
        items = direct(idx, "qforms.represent")
        tally_represent += len(items)
        tally_is_prime += len(direct(idx, "arith.is_prime"))
        if items:
            cut = tr.start[items[len(items) // 2]] if len(items) > 1 else tr.end[items[0]]
            last = max(tr.end[k] for k in kids[idx])
            tally_blocks.append((cut - tr.start[items[0]], last - cut))

    principal = sum(1 for idx, name in enumerate(names)
                    if name == "qforms.represent" and tr.notes[idx])
    doublings = sum(len(direct(idx, "fermat.delta_embed")) - 1
                    for idx, name in enumerate(names) if name == "fermat.delta_exact")
    samples = accepted = 0
    for idx, name in enumerate(names):
        if name == "stats.random_elem_density":
            samples += tr.notes[idx][0]
            accepted += tr.notes[idx][1]

    cache = {qual: tr.originals[qual].cache_info() for qual in CACHED}

    def s(name: str) -> float:
        return self_ns[name] / 1e9

    n_check = calls["greenberg.check_field"]
    return {
        "qforms.class_number.calls": calls["qforms.class_number"],
        "qforms.class_number.self_s": s("qforms.class_number"),
        "qforms.class_order.calls": calls["qforms.class_order"],
        "qforms.class_order.self_s": s("qforms.class_order"),
        "qforms.represent.calls": calls["qforms.represent"],
        "qforms.represent.self_s": s("qforms.represent"),
        "qforms.represent.principal_ratio":
            principal / calls["qforms.represent"] if calls["qforms.represent"] else 0.0,
        "arith.factorize.calls": calls["arith.factorize"],
        "arith.factorize.self_s": s("arith.factorize"),
        "arith.is_prime.calls": calls["arith.is_prime"],
        "arith.is_prime.self_s": s("arith.is_prime"),
        "stats.prime_fermat_scan.self_s": s("stats.prime_fermat_scan"),
        "stats.sieve_yield": tally_represent / tally_is_prime if tally_is_prime else 0.0,
        "fermat.delta_exact.calls": calls["fermat.delta_exact"],
        "fermat.delta_exact.self_s": s("fermat.delta_exact"),
        "fermat.delta_embed.calls": calls["fermat.delta_embed"],
        "fermat.delta_embed.self_s": s("fermat.delta_embed"),
        "fermat.precision_doublings": doublings,
        "pell.fundamental_unit.calls": calls["pell.fundamental_unit"],
        "pell.fundamental_unit.self_s": s("pell.fundamental_unit"),
        "pell.fundamental_unit.cache_hits": cache["pell.fundamental_unit"].hits,
        "sunits.build_context.calls": calls["sunits.build_context"],
        "sunits.build_context.self_s": s("sunits.build_context"),
        "sunits.build_context.cache_hits": cache["sunits.build_context"].hits,
        "quadint.hensel_sqrt.cache_hits": cache["quadint.hensel_sqrt"].hits,
        "quadint.hensel_sqrt.cache_misses": cache["quadint.hensel_sqrt"].misses,
        "greenberg.block_imbalance": _imbalance(scan_blocks),
        "stats.block_imbalance": _imbalance(tally_blocks),
        "greenberg.check_field.ms_per_call":
            incl_ns["greenberg.check_field"] / n_check / 1e6 if n_check else 0.0,
        "stats.random_elem_density.self_s": s("stats.random_elem_density"),
        "stats.accept_ratio": accepted / samples if samples else 0.0,
        "cli.self_s": s(ROOT),
    }


def layer_self_s(tr: Tracer, selfs: list[int]) -> dict[str, float]:
    """Self time summed per layer module, bottom up."""
    out = {layer: 0 for layer in LAYERS}
    for idx, c in enumerate(tr.code):
        out[tr.names[c].split(".")[0]] += selfs[idx]
    return {layer: ns / 1e9 for layer, ns in out.items()}


def run(argv: Sequence[str], traced: bool) -> tuple[dict, Tracer | None]:
    """Call iwascan.cli.main(argv) in this process; summary and the tracer."""
    buf = io.StringIO()
    tr = Tracer() if traced else None
    with contextlib.ExitStack() as stack:
        main = cli.main
        if tr is not None:
            stack.enter_context(tr)
            main = tr.wrap(ROOT, cli.main)
        stack.enter_context(contextlib.redirect_stdout(buf))
        t0 = time.perf_counter()
        code = main(list(argv))
        wall = time.perf_counter() - t0
    out = buf.getvalue().encode()
    summary = {"exit": code, "wall_s": wall, "output_bytes": len(out),
               "sha256": hashlib.sha256(out).hexdigest()}
    if tr is not None:
        selfs = self_times(tr.parent, tr.start, tr.end)
        summary["metrics"] = layer_metrics(tr, selfs)
        summary["layer_self_s"] = layer_self_s(tr, selfs)
        summary["spans"] = len(tr.code)
    return summary, tr


def main(args: Sequence[str]) -> int:
    if not args or args[0] not in ("plain", "traced"):
        print("usage: spans.py {plain|traced} <iwascan argv...>", file=sys.stderr)
        return 2
    summary, _ = run(args[1:], traced=args[0] == "traced")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
