"""Where the benchmark runs: the checkout root and its ``src/`` tree."""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".wlbench_tmp"
"""Run-time files (WAL, checkpoints, server summaries, spans); git-ignored."""


def require_src() -> None:
    """Put the checkout's ``src/`` first on the path, or exit with code 2.

    The benchmark always measures the program of the checkout it sits
    in, never an installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"wlbench: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every process of a seed's run uses."""
    return str(seed % 4_294_967_296)


def pin_hash_seed(seed: int) -> None:
    """Re-exec this process unless its hash seed is the seed's."""
    want = hash_seed(seed)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


CPUS = sorted(os.sched_getaffinity(0))
"""The CPUs this run may use, as it started."""


def pin_cpu(turn: int, *pids: int) -> None:
    """Run this process, every thread of ``pids``, and what they start, on
    CPU ``turn`` of ``CPUS``, cyclically.

    On a shared VM a vCPU's speed drops by up to 40 % for a second or
    more while a neighbour runs beside it on the host, and the other
    vCPU is often unaffected.  Passes take turns on each CPU so that
    every request position gets samples from both, and the best of
    passes (``workloads.best_of_passes``) is rarely a slowed sample.
    """
    cpu = {CPUS[turn % len(CPUS)]}
    for pid in (os.getpid(), *pids):
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpu)
            except ProcessLookupError:  # the thread ended meanwhile
                pass


def scratch_dir() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def status_kb(field: str) -> int:
    """A ``/proc/self/status`` memory field (``VmHWM``, ``VmRSS``) in kB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> None:
    """Restart ``VmHWM`` from the current RSS (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
