"""Each process starts only what its command runs.

`import iwascan` loads no submodule, so numpy loads only when a name from
one is first used.  The CLI sets ``OPENBLAS_NUM_THREADS`` to 1 before that,
unless the caller set it: the package makes no BLAS call, and OpenBLAS
would otherwise start an idle worker thread per extra CPU.  Only a scan or
tally on a process pool imports `concurrent.futures.process`.  Each check
runs in a fresh interpreter, because this one has loaded everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iwascan

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CHECK = ["check", "--m", "7", "--p", "3"]

# Prints, as the last line of stdout, the process's OS threads and its BLAS variable.
REPORT = ("import json, os\n"
          "print(json.dumps([len(os.listdir('/proc/self/task')),"
          " os.environ.get('OPENBLAS_NUM_THREADS')]))\n")

needs_threads = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and 2 usable CPUs for OpenBLAS to start a worker thread")


def _fresh(code, **env):
    """Run code in a new interpreter with no BLAS thread variable but those in env."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


RUN_MODULE = ("import runpy, sys\n"
              f"sys.argv = ['iwascan', *{CHECK!r}]\n"
              "try:\n"
              "    runpy.run_module('iwascan.cli', run_name='__main__')\n"
              "except SystemExit as exit:\n"
              "    assert exit.code == 0, exit.code\n")
CALL_MAIN = f"from iwascan.cli import main\nassert main({CHECK!r}) == 0\n"


@needs_threads
@pytest.mark.parametrize("code", [RUN_MODULE, CALL_MAIN], ids=["run-module", "main"])
def test_a_cli_process_runs_in_one_thread(code):
    assert _fresh(code + REPORT) == [1, "1"]


@needs_threads
@pytest.mark.parametrize("code", [RUN_MODULE, CALL_MAIN], ids=["run-module", "main"])
def test_a_blas_thread_count_the_caller_set_is_kept(code):
    threads, value = _fresh(code + REPORT, OPENBLAS_NUM_THREADS="2")
    assert value == "2" and threads == 2


@needs_threads
def test_a_library_process_keeps_its_environment():
    code = "import iwascan\niwascan.check_field(7, 3)\n"
    threads, value = _fresh(code + REPORT)
    assert value is None and threads >= 2


def test_importing_the_root_loads_no_numpy_and_sets_nothing():
    got = _fresh("import json, os, sys\n"
                 "before = dict(os.environ)\n"
                 "import iwascan\n"
                 "print(json.dumps([sorted(m for m in ('numpy', 'concurrent.futures.process')"
                 " if m in sys.modules), [m for m in sys.modules if m.startswith('iwascan.')],"
                 " dict(os.environ) == before]))\n")
    assert got == [[], [], True]


def test_every_exported_name_is_its_home_modules_object():
    names = _fresh("import json\nfrom iwascan import *\n"
                   "import iwascan\n"
                   "print(json.dumps(sorted(n for n in iwascan.__all__ if n in globals())))\n")
    assert names == iwascan.__all__
    for name in iwascan.__all__:
        home = importlib.import_module(f"iwascan.{iwascan._HOME[name]}")
        assert getattr(iwascan, name) is getattr(home, name), name
    assert set(iwascan.__all__) <= set(dir(iwascan))
    with pytest.raises(AttributeError, match="no_such_name"):
        iwascan.no_such_name


@pytest.mark.parametrize("argv, pooled", [
    (CHECK, False),
    (["scan", "--p", "3..7", "--max-m", "300", "--workers", "1"], False),
    (["scan", "--p", "3..7", "--max-m", "300", "--workers", "2"], True),
], ids=["check", "scan-1-worker", "scan-2-workers"])
def test_only_a_pool_imports_the_process_pool(argv, pooled):
    if pooled and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("map_blocks runs in-process on one usable CPU")
    got = _fresh("import contextlib, io, json, sys\n"
                 "from iwascan.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main({argv!r}) == 0\n"
                 "print(json.dumps('concurrent.futures.process' in sys.modules))\n")
    assert got is pooled
