"""Shared helpers: locating the checkout, percentiles, host-speed calibration,
check bookkeeping."""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result; exit non-zero."""


def use_checkout_source() -> None:
    """Import powdb from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "powdb" / "__init__.py").is_file():
        raise BenchmarkError(f"no powdb sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import powdb

    if Path(powdb.__file__).resolve().parent != (src / "powdb").resolve():
        raise BenchmarkError(f"powdb imported from {powdb.__file__}, not from {src}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


# calibrate() on the 2-vCPU measurement host at its faster speed. Timings
# scaled by REFERENCE_S / calibrate() read as seconds at that speed.
REFERENCE_S = 0.0014


def calibrate() -> float:
    """CPU time of this thread for a fixed pure-Python loop (hashing, JSON,
    dicts), about REFERENCE_S. It uses no powdb code, so it gauges only how
    fast the host runs Python right now; thread CPU time leaves out waits
    for the GIL and for the hypervisor."""
    start = time.thread_time()
    table = {}
    for i in range(300):
        digest = hashlib.sha256(b"%d" % i).hexdigest()
        table[digest[:8]] = json.dumps({"i": i, "h": digest}, sort_keys=True)
    return time.thread_time() - start


def cpu_jiffies(cpu: int | None = None) -> list[int]:
    """CPU time counters from /proc/stat, of one CPU or summed over all:
    user, nice, system, idle, iowait, irq, softirq, steal, ..."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == label:
                return [int(x) for x in fields[1:]]
    raise BenchmarkError(f"/proc/stat has no {label} line")


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the host's CPU time between two cpu_jiffies() readings that
    the hypervisor gave to other guests."""
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / sum(spent)


class Checks:
    """Correctness checks of one run; every failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)
