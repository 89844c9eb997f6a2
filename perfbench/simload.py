"""The simulator workload, sim_adversarial.

Each invocation builds one scenario from the seed and runs it a fixed number
of times back to back: `--seconds` / RUN_BUDGET_S runs, at least two, so the
report bytes of two runs with the same seed can be compared. The count
depends only on the arguments, never on how fast the host or the code is.
The simulator's reports are deterministic, so every run does the same work
in the same order. Timings are the simulator thread's CPU time, scaled to
the reference speed by a calibrate() taken once per virtual second (see
README, "Host speed"); each metric is a median over the runs.
"""

from __future__ import annotations

import hashlib
import time
from statistics import median

from powdb import sim

import backends
import spans
from common import OUT_DIR, REFERENCE_S, BenchmarkError, Checks, calibrate, percentile

CHAIN_PARAMS = {"target_block_interval_ms": 2000, "initial_difficulty": 8,
                "min_difficulty": 6, "max_difficulty": 10, "retarget_clamp": [0.5, 2.0]}
LINK = {"latency_ms": 10, "loss_rate": 0.0}
WORKLOAD = {"write_interval_ms": 2000, "read_interval_ms": 1000}
# Nominal wall time of one scenario run on the 2-vCPU measurement host
# (5-11 s seen); sets the number of runs for a given --seconds.
RUN_BUDGET_S = 8
# Harness builds per scenario run; their median is the set-up time.
SETUPS_PER_RUN = 20
# Virtual time between calibrations. A window's CPU time is scaled by the
# median calibration of the CALIBRATION_SPAN windows around it: one
# calibrate() is noisy, and the host's speed holds for seconds (a window
# takes about 30 ms).
WINDOW_MS = 1000
CALIBRATION_SPAN = 9


def scenario(workload: str, seed: int) -> dict:
    """The scenario file contents for one workload and seed: the network of
    scenarios/adversarial.json, run until the chain passes ~100 blocks; the
    seed picks which 3 of the 10 nodes are malicious and every node's key."""
    return {"node_count": 10, "seed": seed, "duration_ms": 210_000,
            "chain_params": CHAIN_PARAMS, "workload": WORKLOAD, "partitions": [],
            "malicious": {"fraction": 0.3,
                          "behavior": ["invalid_pow", "bad_prev_hash", "tampered_signature"]},
            "link": LINK}


def _harness_class():
    harness = getattr(sim, "_Harness", None)
    if harness is None:
        raise spans.TraceSetupError("powdb.sim:_Harness no longer exists")
    return harness


def _config(workload: str, seed: int) -> sim.ScenarioConfig:
    return sim.ScenarioConfig.from_json(scenario(workload, seed))


def _build_once(workload: str, seed: int) -> float:
    """Time one harness build (nodes, stores, identities) in CPU time,
    scaled to the reference speed, then discard it."""
    harness_class = _harness_class()
    config = _config(workload, seed)
    scale = REFERENCE_S / calibrate()
    start = time.thread_time()
    harness = harness_class(config)
    elapsed = time.thread_time() - start
    for core in harness.nodes:
        core.close()
        core.store.close()
    return elapsed * scale


def _digest(report: dict) -> str:
    return hashlib.sha256(sim.report_to_json_bytes(report)).hexdigest()


def _check_report(report: dict, digest: str, first_digest: str | None, checks: Checks) -> None:
    if first_digest is not None:
        checks.check(digest == first_digest,
                     f"same seed gave report {digest[:16]}, first run gave {first_digest[:16]}")
    checks.check(report["malicious_blocks_in_canonical"] == 0,
                 f"{report['malicious_blocks_in_canonical']} malicious blocks in the canonical chain")
    checks.check(report["consistency"]["final_sample_c"] == 1.0,
                 f"final sample c is {report['consistency']['final_sample_c']}, not 1.0")


def _report_facts(report: dict, digest: str) -> dict:
    latency = report["write_latency_ms"]
    return {"report_sha256": digest,
            "consistency_c": report["consistency"]["c"],
            "final_sample_c": report["consistency"]["final_sample_c"],
            "write_p50_vms": latency["p50"], "write_p95_vms": latency["p95"],
            "read_p50_vms": report["read_latency_ms"]["p50"],
            "writes_confirmed": latency["count"], "writes_unconfirmed": latency["unconfirmed"],
            "writes_submitted": report["writes"]["submitted"],
            "canonical_length": report["canonical"]["length"],
            "malicious_blocks_in_canonical": report["malicious_blocks_in_canonical"],
            "rejected_invalid_blocks": report["rejected_invalid_blocks"],
            "dropped_envelopes": report["dropped_envelopes"]}


def _operations(harness, report: dict) -> tuple[list, list]:
    """Virtual (start, end) of each confirmed client write and each client
    read, as the report counts them: a write from its submission until a
    majority of honest nodes accepted its block, a read over its modelled
    round trip. An end is capped just before the end of the scenario, so
    that every mark precedes its last event and the report is unchanged."""
    last = harness.config.duration_ms - 1
    canonical = {block["hash"] for block in report["canonical"]["blocks"]}
    majority = len(harness.honest) // 2 + 1
    writes = []
    for record in harness.writes:
        times = sorted(harness.accept_times.get(record["block_hash"], {}).values())
        if (record["status"] == "committed" and len(times) >= majority
                and record["block_hash"] in canonical):
            writes.append((record["submitted_ms"], min(times[majority - 1], last)))
    config = harness.config
    reads = [(t, t + 2 * config.link_latency_ms)
             for t in range(config.read_interval_ms, config.duration_ms, config.read_interval_ms)]
    if (len(writes), len(reads)) != (report["write_latency_ms"]["count"],
                                     report["read_latency_ms"]["count"]):
        raise BenchmarkError("client operations differ from the report's; update _operations")
    return writes, reads


class RunClock:
    """CPU-time stamps of one scenario run at marked virtual times; a
    calibration at each time in `windows`.

    The simulator is one thread, so its CPU time is its work; unlike wall
    time it leaves out the time the hypervisor runs other guests. A mark is
    an event that only reads the clock. It runs after the events
    scheduled at set-up for its time (client ticks) and before those
    scheduled during the run (deliveries, mined blocks). At a window mark it
    also runs calibrate(), between its two stamps, so the calibration is not
    timed as part of any window or operation.
    """

    def __init__(self, windows: set[int]):
        self.windows = windows
        self.before: dict[int, float] = {}
        self.after: dict[int, float] = {}
        self.scale: dict[int, float] = {}

    def mark(self, t: int) -> None:
        self.before[t] = time.thread_time()
        if t in self.windows:
            self.scale[t] = REFERENCE_S / calibrate()
        self.after[t] = time.thread_time()

    def smooth(self) -> None:
        """Give each window the median scale of the CALIBRATION_SPAN around it."""
        times = sorted(self.scale)
        raw = [self.scale[t] for t in times]
        half = CALIBRATION_SPAN // 2
        self.scale = {t: median(raw[max(0, i - half):i + half + 1]) for i, t in enumerate(times)}

    def cpu(self, start: int, end: int) -> float:
        """CPU time from the mark at `start` to the mark at `end`."""
        return self.before[end] - self.after[start]

    def scaled(self, start: int, end: int) -> float:
        """cpu(), at the reference speed measured in start's window."""
        return self.cpu(start, end) * self.scale[start - start % WINDOW_MS]


def _run_once(workload: str, seed: int, clock: RunClock, marks: set[int]) -> tuple[dict, object]:
    """One scenario run with a mark at time 0, at each virtual time in
    `marks` and after the last event; returns the report and the harness."""
    harness = _harness_class()(_config(workload, seed))
    for t in sorted(marks):
        harness.queue.at(t, lambda t=t: clock.mark(t))
    clock.mark(0)
    report = harness.run()
    clock.mark(harness.config.duration_ms + 1)
    clock.smooth()
    return report, harness


def run_count(seconds: float, trace: bool) -> int:
    """Untraced scenario runs per invocation: a function of the arguments only."""
    return 2 if trace else max(2, round(seconds / RUN_BUDGET_S))


def _op_times(clocks: list[RunClock], ops: list) -> list[float]:
    """Each operation's median scaled time over the runs, from the mark at
    its start to the mark just after its end."""
    return [median(clock.scaled(start, end + 1) for clock in clocks) for start, end in ops]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    config = _config(workload, seed)
    windows = set(range(WINDOW_MS, config.duration_ms, WINDOW_MS))
    window_bounds = [0, *sorted(windows), config.duration_ms + 1]
    marks, writes, reads = windows, [], []
    clocks, setups, digests = [], [], []
    for _ in range(run_count(seconds, trace)):
        setups.extend(_build_once(workload, seed) for _ in range(SETUPS_PER_RUN))
        clock = RunClock({0} | windows)
        report, harness = _run_once(workload, seed, clock, marks)
        clocks.append(clock)
        digest = _digest(report)
        _check_report(report, digest, digests[0] if digests else None, checks)
        digests.append(digest)
        if not writes:
            # every run of a seed repeats the first one, so its operations
            # are marked from the second run on
            writes, reads = _operations(harness, report)
            marks = windows | {t for op in writes + reads for t in (op[0], op[1] + 1)}
    cpus = [sum(clock.cpu(a, b) for a, b in zip(window_bounds, window_bounds[1:]))
            for clock in clocks]
    facts = _report_facts(report, digests[0])
    if trace:
        return _traced(workload, seed, cpus, facts, checks)

    scaled = [sum(clock.scaled(a, b) for a, b in zip(window_bounds, window_bounds[1:]))
              for clock in clocks]
    write_times = _op_times(clocks[1:], writes)
    read_times = _op_times(clocks[1:], reads)
    unconfirmed, submitted = facts["writes_unconfirmed"], facts["writes_submitted"]
    metrics = {
        "setup_s": median(setups),
        "run_s": median(scaled),
        "ok_ratio": (1 - unconfirmed / submitted) * (1 - checks.failed / checks.attempted),
        "consistency_c": facts["consistency_c"],
        "write_p50_ms": percentile(write_times, 0.50) * 1e3,
        "read_p50_ms": percentile(read_times, 0.50) * 1e3,
    }
    extra = {"write_p95_ms": percentile(write_times, 0.95) * 1e3,
             "read_p95_ms": percentile(read_times, 0.95) * 1e3}
    copies = f"median of {len(clocks) - 1} runs each"
    samples = {"setup_s": len(setups), "run_s": f"{len(clocks)} runs",
               "write_p50_ms": f"{len(writes)} writes, {copies}",
               "read_p50_ms": f"{len(reads)} reads, {copies}",
               "write_p95_ms": len(writes), "read_p95_ms": len(reads)}
    return {"metrics": metrics, "extra": extra, "samples": samples, "checks": checks,
            "attempted": len(clocks), "failed": 0,
            "facts": facts | {"runs": len(clocks), "report_sha256_per_run": digests,
                              "per_run_cpu_s": cpus, "per_run_scaled_s": scaled}}


def _traced(workload: str, seed: int, cpus: list, facts: dict, checks: Checks) -> dict:
    """One more scenario run under the tracer, compared with the untraced ones."""
    harness_class = _harness_class()
    tracer = spans.Tracer()
    spans.install(tracer, live_node=False)
    try:
        harness = harness_class(_config(workload, seed))
        start = time.thread_time()
        report = harness.run()
        traced_cpu = time.thread_time() - start
    finally:
        tracer.uninstall()
    digest = _digest(report)
    _check_report(report, digest, facts["report_sha256"], checks)

    summary = tracer.summary()
    metrics = spans.layer_metrics(summary, puts=facts["writes_submitted"])
    untraced_cpu = median(cpus)
    metrics |= {
        "simnet.events": harness.queue.processed,
        "simnet.dropped": harness.net.dropped_by_partition + harness.net.dropped_by_loss,
        "transport.threads_end": 0,
        "sim.write_p50_vms": facts["write_p50_vms"],
        "sim.write_p95_vms": facts["write_p95_vms"],
        "sim.unconfirmed_writes": facts["writes_unconfirmed"],
        "trace.overhead_s": traced_cpu - untraced_cpu,
        "trace.overhead_ratio": traced_cpu / untraced_cpu - 1,
    }
    metrics |= backends.measure(checks)
    spans.check_busy(workload, metrics)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    counts = {name: value for name, value in sorted(metrics.items())
              if not name.endswith(("_s", "_ratio", ".s", "hashes_per_s"))}
    counts_digest = hashlib.sha256(repr(counts).encode()).hexdigest()
    return {"metrics": metrics, "samples": {}, "checks": checks,
            "attempted": len(cpus) + 1, "failed": 0,
            "facts": facts | {"traced_cpu_s": traced_cpu, "untraced_cpu_s": untraced_cpu,
                              "spans_file": str(spans_path.relative_to(OUT_DIR.parent.parent)),
                              "spans_dropped": summary["counters"].get("trace.spans_dropped", 0),
                              "counts_sha256": counts_digest}}
