"""Hashes per second of each importable nonce-search backend, plus parity.

Each backend searches the same fixed nonce window at 32 bits, which never
hits at these sizes, so both do identical work.
"""

from __future__ import annotations

import statistics
import time

from powdb import mining
from powdb._minepure import search_nonce as pure_search

from common import BenchmarkError

try:
    from powdb._minecore import search_nonce as core_search
except ImportError:
    core_search = None

PREFIX = b"12\x1f1700000000\x1fbenchmark-payload\x1f" + b"a1" * 32 + b"\x1f8\x1f"
WINDOW = 100_000
REPEATS = 3


def _rate(search) -> float:
    rates = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        hit = search(PREFIX, 32, 0, WINDOW)
        elapsed = time.perf_counter() - start
        if hit is not None:
            raise BenchmarkError("the 32-bit window unexpectedly held a hit")
        rates.append(WINDOW / elapsed)
    return statistics.median(rates)


def measure(checks) -> dict[str, float]:
    """Per-backend rates; the parity check runs when the kernel is built."""
    metrics = {
        "mining.pure.hashes_per_s": _rate(pure_search),
        "mining.compiled.hashes_per_s": 0.0,
        "mining.backend_compiled": 1.0 if mining.BACKEND == "compiled" else 0.0,
    }
    if core_search is not None:
        metrics["mining.compiled.hashes_per_s"] = _rate(core_search)
        checks.check(core_search(PREFIX, 12, 0, 1 << 20) == pure_search(PREFIX, 12, 0, 1 << 20),
                     "compiled and pure backends disagree on a 12-bit search")
    return metrics
