"""Pin the expected stdout of every workload variant.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the repository root at a commit whose outputs are known to be
right.  Runs each variant's CLI command once and writes the sha256 of its
stdout to perfbench/pinned.json (other workloads' entries are kept).
"""

from __future__ import annotations

import json
import sys
import time

from run import TIME_LIMIT, child_env, cli_cmd, run_child
from workloads import PINNED, WORKLOADS, check_counts, digest


def main(names: list[str]) -> int:
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    env = child_env()
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        pinned[name] = {}
        for v in range(w.variants):
            s = run_child(cli_cmd(w.argv(v)), env, time.monotonic() + TIME_LIMIT)
            problems = check_counts(s.out) if name == "table-small" else []
            if s.exit or problems:
                print(f"{name} variant {v}: exit {s.exit} {problems}", file=sys.stderr)
                return 1
            pinned[name][str(v)] = digest(s.out)
            print(f"{name} {v} {s.wall:.2f}s {digest(s.out)[:16]}", file=sys.stderr)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
