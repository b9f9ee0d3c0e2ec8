"""Cold-process benchmark of the four `iwascan` CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is taken from `src/` of
that checkout; a directory without it is refused (exit 2, no result).

--trace 0  times the workload's CLI command in fresh processes, again and
           again until S seconds have passed, and reports the end-to-end metrics
           of BENCHMARK.json as medians: interpreter set-up, wall and CPU
           time of the process tree, peak RSS, and items per second.
--trace 1  runs the command once as timed, then twice in-process at one
           worker (plain, and traced by perfbench/spans.py), and reports
           the per-layer metrics; the three outputs must be identical.

Every output is checked byte for byte against pinned.json.  A run that
exits non-zero or mismatches counts as failed and is not re-run.  One
JSON line with the environment manifest precedes the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, check_output, count_items, digest, load_pinned

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_SCRIPT = Path(__file__).resolve().parent / "spans.py"

SETUP_SAMPLES = 8   # fresh `import iwascan.cli` timings per run
MAX_REPS = 50       # cap on repetitions, for very short commands
TIME_LIMIT = 170.0  # seconds; every child still running then is killed


@dataclass
class Sample:
    """One finished child process: exit code, timings and its output."""

    exit: int
    wall: float
    cpu: float
    rss_mb: float
    out: bytes
    err: bytes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], env: dict[str, str], deadline: float) -> Sample:
    """Run cmd in its own process group, timed from start to exit.

    CPU time and peak RSS come from wait4, so they cover the process and
    every descendant it waited for (the CLI's pool workers).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group,
                             (proc.pid,))
    killer.start()
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(proc.pid)  # leftover workers of a crashed command
    return Sample(exit=code, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024, out=out, err=b"".join(err))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "iwascan.cli", *argv]


def at_one_worker(argv: list[str]) -> list[str]:
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(workload: Workload, args: argparse.Namespace) -> dict:
    """Where and on what the numbers were taken."""
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"workload": workload.name, "seed": args.seed,
            "variant": args.seed % workload.variants, "argv": workload.argv(args.seed),
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "commit": commit, "src_sha256": src_digest(), "platform": platform.platform()}


def output_problems(workload: Workload, seed: int, s: Sample, pinned) -> list[str]:
    if s.exit:
        return [f"exit {s.exit}: {s.err.decode(errors='replace')[-300:]}"]
    return check_output(workload, seed, s.out, pinned)


def timed_runs(workload: Workload, args, env, deadline, pinned, info):
    """--trace 0: set-up samples, and the command repeated for `seconds`."""
    python = [sys.executable, "-c", "import iwascan.cli"]
    run_child(python, env, deadline)  # byte-compile once, untimed
    # half the set-up samples before the repetitions and half after, so
    # that they see the machine at two moments of the run
    setup = [run_child(python, env, deadline) for _ in range(SETUP_SAMPLES // 2)]
    argv = workload.argv(args.seed)
    good, problems = [], []
    t0 = time.monotonic()
    attempted = failed = 0
    while attempted < MAX_REPS:
        s = run_child(cli_cmd(argv), env, deadline)
        attempted += 1
        bad = output_problems(workload, args.seed, s, pinned)
        if bad:
            failed += 1
            problems += bad
        else:
            good.append(s)
        now = time.monotonic()
        if now - t0 >= args.seconds or now >= deadline:
            break
    setup += [run_child(python, env, deadline) for _ in range(SETUP_SAMPLES - len(setup))]
    failed += sum(x.exit != 0 for x in setup)
    items = count_items(workload, good[0].out) if good else 0
    reps = good or [s]
    walls = [x.wall for x in reps]
    info.update(samples={"setup": len(setup), "command": len(reps)},
                items=items, problems=problems,
                raw={"setup_s": [x.wall for x in setup], "wall_s": walls,
                     "cpu_s": [x.cpu for x in reps],
                     "peak_rss_mb": [x.rss_mb for x in reps]})
    metrics = {
        "setup_s": statistics.median(x.wall for x in setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(x.cpu for x in reps),
        "peak_rss_mb": statistics.median(x.rss_mb for x in reps),
        "items_per_s": statistics.median(items / w for w in walls),
    }
    return metrics, attempted + len(setup), failed


def traced_runs(workload: Workload, args, env, deadline, pinned, info):
    """--trace 1: timed, plain in-process and traced in-process runs."""
    argv = workload.argv(args.seed)
    timed = run_child(cli_cmd(argv), env, deadline)
    problems = output_problems(workload, args.seed, timed, pinned)
    failed = int(bool(problems))
    runs = {}
    for mode in ("plain", "traced"):
        s = run_child([sys.executable, str(SPANS_SCRIPT), mode, *at_one_worker(argv)],
                      env, deadline)
        run = json.loads(s.out.decode().splitlines()[-1]) if s.exit == 0 else None
        if run is None:
            bad = [f"{mode} run exit {s.exit}: {s.err.decode(errors='replace')[-300:]}"]
        elif run["exit"] != 0 or run["sha256"] != digest(timed.out):
            bad = [f"{mode} run at 1 worker differs from the timed run"]
        else:
            bad = []
            runs[mode] = run
        failed += bool(bad)
        problems += bad
    info.update(timed_wall_s=timed.wall, problems=problems)
    if len(runs) < 2:
        return {}, 3, failed
    plain, traced = runs["plain"], runs["traced"]
    metrics = dict(traced["metrics"])
    metrics["cli.output_bytes"] = traced["output_bytes"]
    metrics["trace_overhead"] = traced["wall_s"] / plain["wall_s"] - 1
    info.update(plain_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"],
                spans=traced["spans"], layer_self_s=traced["layer_self_s"],
                unattributed_s=traced["wall_s"] - sum(traced["layer_self_s"].values()))
    return metrics, 3, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stop the running child
    if not (SRC / "iwascan" / "cli.py").is_file():
        print(f"error: no iwascan package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT
    workload = WORKLOADS[args.workload]
    info = manifest(workload, args)
    run = traced_runs if args.trace else timed_runs
    metrics, attempted, failed = run(workload, args, child_env(), deadline,
                                     load_pinned(), info)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        info.setdefault("problems", []).append(f"metrics not measured: {missing}")
        failed = max(failed, 1)
    print(json.dumps({"manifest": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
