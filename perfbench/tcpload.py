"""The live-node workload, node_tcp.

One node runs as a child process (`launch_node.py`, which calls the normal
`powdb node run` entry point) on a file-backed store with difficulty pinned
at 8 bits. This process then holds two persistent signed connections:

- a closed-loop writer alternating raw puts with calls to one contract
  deployed during set-up;
- a closed-loop reader alternating `block` queries (at indices the writer
  got acknowledged) with `state` queries of that contract, pausing a
  random time (mean READ_THINK_S) after each reply.

After the load, every acknowledged write is read back from the chain and
the contract's counters are compared with the calls that were made. Each
phase's timings are scaled to the reference speed by calibrations taken
during the phase and by the host's steal share (Load.scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median

from powdb.contracts import contract_id_for
from powdb.wire import (QUERY, RESPONSE, TX, NodeIdentity, ProtocolError, decode_envelope,
                        deframe, frame, sign_envelope, socket_read_exact, verify_envelope)

import backends
import spans
from common import (BENCH_DIR, OUT_DIR, REFERENCE_S, ROOT, BenchmarkError, Checks, calibrate,
                    cpu_jiffies, percentile)

CONTRACT = [["add", "count", 1], ["add", "total", ["arg", 0]]]
DIFFICULTY_BITS = "8"
BATCH = 10  # consecutive acknowledged writes per run_s sample
PHASES = 8  # fresh node processes per run, each loaded for a share of the time
TIMEOUT_S = 10.0
# Mean pause of the reader between queries. The pause keeps the load below
# the CPU share this host's hypervisor grants (a saturating reader made
# latencies follow the CPU steal, 10-48% measured, instead of the node); it
# is drawn from an exponential distribution so that reads do not lock into
# one phase of the writer's cycle.
READ_THINK_S = 0.01
# The node and the load share one CPU, the lowest this process may use, so
# that they never ask for more than one CPU's worth of the host and that
# CPU's counters in /proc/stat cover all of the workload's time.
CPU = min(os.sched_getaffinity(0))
# The load's main thread runs calibrate() this often while the clients run
# (about 1.4 ms of CPU each time).
CALIBRATION_GAP_S = 0.1
NODE_DIR = OUT_DIR / "node_tcp"
REQUEST_ERRORS = (OSError, ConnectionError, ProtocolError)


class NodeProcess:
    """A node child process listening on a free loopback port."""

    def __init__(self, tag: str, trace_out=None):
        NODE_DIR.mkdir(parents=True, exist_ok=True)
        db = NODE_DIR / f"{tag}.db"
        for suffix in ("", "-journal", "-wal", "-shm"):
            db.with_name(db.name + suffix).unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "launch_node.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "node", "run", "--listen", "127.0.0.1:0", "--db", str(db),
                "--difficulty", DIFFICULTY_BITS, "--min-difficulty", DIFFICULTY_BITS,
                "--max-difficulty", DIFFICULTY_BITS]
        self.log_path = NODE_DIR / f"{tag}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log, cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.match(r"listening on (\S+):(\d+),", line)
        if match is None:
            self.stop()
            raise BenchmarkError(f"node did not start ({line!r}); see {self.log_path}")
        self.addr = (match[1], int(match[2]))

    def stop(self) -> int:
        """SIGINT, as at a terminal; the node shuts down cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Client:
    """One persistent, signed request/response connection."""

    def __init__(self, addr, name: str, seed):
        self.addr = addr
        self.identity = NodeIdentity.from_seed(
            hashlib.sha256(f"perfbench|{seed}|{name}".encode()).digest())
        self.sock = None
        self.connect()

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(self.addr, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.read_exact = socket_read_exact(self.sock)

    def request(self, kind: str, payload) -> dict:
        env = sign_envelope(kind, int(time.time() * 1000), payload, self.identity)
        self.sock.sendall(frame(env.encode()))
        while True:
            raw = deframe(self.read_exact)
            if raw is None:
                raise ConnectionError("node closed the connection")
            reply = decode_envelope(raw)
            if reply is None or not verify_envelope(reply):
                raise ConnectionError("node sent an unverifiable envelope")
            if reply.kind == RESPONSE:
                return reply.payload

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _setup(tag: str, seed: int, contract_id: str, trace_out=None):
    """Start a node; time until it has served a query, a deploy and a call."""
    start = time.perf_counter()
    node = NodeProcess(tag, trace_out)
    try:
        client = Client(node.addr, "setup", seed)
        replies = [client.request(QUERY, {"what": "stats", "params": {}}),
                   client.request(TX, {"tx": {"kind": "deploy", "contract": CONTRACT}}),
                   client.request(TX, {"tx": {"kind": "call", "contract_id": contract_id,
                                              "args": [1]}})]
        client.close()
    except BaseException:
        node.stop()
        raise
    elapsed = time.perf_counter() - start
    failed = [r for r in replies if not r.get("ok")]
    if failed:
        node.stop()
        raise BenchmarkError(f"set-up request failed: {failed[0]}")
    return node, elapsed


class Load:
    """The two closed-loop clients and what they observed."""

    def __init__(self, addr, contract_id: str, seed: str):
        self.addr, self.contract_id, self.seed = addr, contract_id, seed
        self.stop = threading.Event()
        self.acked: list[tuple[int, str, dict]] = []  # (index, hash, tx)
        self.call_args: list[int] = []
        self.write_latency: list[float] = []
        self.read_latency: list[float] = []
        self.write_errors: list[str] = []
        self.read_errors: list[str] = []
        self.batch_walls: list[float] = []
        self.reads_checked = 0
        self.reads_consistent = 0
        self.crashes: list[BaseException] = []
        self.calibrations: list[float] = []
        self.cpu_time: list[int] = []  # jiffies of the pinned CPU over the load
        self.steal = self.scale = 0.0  # set when the load ends

    def run(self, seconds: float) -> None:
        threads = [threading.Thread(target=self._guard, args=(fn,), name=fn.__name__,
                                    daemon=True)
                   for fn in (self.writer, self.reader)]
        jiffies = cpu_jiffies(CPU)
        self.began = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = self.began + seconds
        while (left := deadline - time.perf_counter()) > 0:
            self.calibrations.append(calibrate())
            time.sleep(min(CALIBRATION_GAP_S, left))
        self.cpu_time = [b - a for a, b in zip(jiffies, cpu_jiffies(CPU))]
        # The factor from this phase's wall-clock timings to the reference
        # speed: calibrate() gauges how fast the host ran Python during the
        # phase, and the steal share how much of the pinned CPU's busy time
        # it gave to other guests instead.
        user, nice, system, _idle, _iowait, irq, softirq, steal = self.cpu_time[:8]
        self.steal = steal / max(1, user + nice + system + irq + softirq + steal)
        self.scale = REFERENCE_S / median(self.calibrations) * (1 - self.steal)
        self.stop.set()
        for thread in threads:
            thread.join(timeout=2 * TIMEOUT_S + 5)
        if any(thread.is_alive() for thread in threads):
            raise BenchmarkError("a load client did not stop")
        if self.crashes:
            raise BenchmarkError(f"a load client crashed: {self.crashes[0]!r}")

    def _guard(self, fn) -> None:
        try:
            fn()
        except BaseException as exc:  # reported by run() after the join
            self.crashes.append(exc)

    def writer(self) -> None:
        rng = random.Random(f"{self.seed}:writer")
        client = Client(self.addr, "writer", self.seed)
        batch_start, in_batch, i = time.perf_counter(), 0, 0
        while not self.stop.is_set():
            if i % 2 == 0:
                tx = {"kind": "raw", "data": f"put-{self.seed}-{i}-{rng.getrandbits(64):016x}"}
            else:
                tx = {"kind": "call", "contract_id": self.contract_id,
                      "args": [rng.randrange(1, 1000)]}
            i += 1
            start = time.perf_counter()
            try:
                reply = client.request(TX, {"tx": tx})
            except REQUEST_ERRORS as exc:
                self.write_errors.append(f"{tx['kind']}: {exc!r}")
                client.connect()
                continue
            elapsed = time.perf_counter() - start
            if not reply.get("ok"):
                self.write_errors.append(f"{tx['kind']}: {reply.get('error')}")
                continue
            self.write_latency.append(elapsed)
            result = reply["result"]
            self.acked.append((result["block_index"], result["block_hash"], tx))
            if tx["kind"] == "call":
                self.call_args.append(tx["args"][0])
            in_batch += 1
            if in_batch == BATCH:
                now = time.perf_counter()
                self.batch_walls.append(now - batch_start)
                batch_start, in_batch = now, 0
        self.write_end = time.perf_counter()
        client.close()

    def reader(self) -> None:
        rng = random.Random(f"{self.seed}:reader")
        client = Client(self.addr, "reader", self.seed)
        i = 0
        while not self.stop.is_set():
            expected = None
            if i % 2 == 0 and self.acked:
                index, expected, _tx = self.acked[rng.randrange(len(self.acked))]
                payload = {"what": "block", "params": {"index": index}}
            else:
                key = ("count", "total")[(i // 2) % 2]
                payload = {"what": "state", "params": {"contract_id": self.contract_id,
                                                       "key": key}}
            i += 1
            start = time.perf_counter()
            try:
                reply = client.request(QUERY, payload)
            except REQUEST_ERRORS as exc:
                self.read_errors.append(f"{payload['what']}: {exc!r}")
                client.connect()
                continue
            elapsed = time.perf_counter() - start
            if not reply.get("ok"):
                self.read_errors.append(f"{payload['what']}: {reply.get('error')}")
                continue
            self.read_latency.append(elapsed)
            if expected is not None:
                self.reads_checked += 1
                self.reads_consistent += reply["result"]["block"]["hash"] == expected
            self.stop.wait(rng.expovariate(1 / READ_THINK_S))
        self.read_end = time.perf_counter()
        client.close()


def _verify(addr, seed: int, load: Load, checks: Checks) -> None:
    """Every acknowledged write is in the chain; the contract adds up."""
    client = Client(addr, "verify", seed)
    try:
        blocks = client.request(QUERY, {"what": "chain", "params": {}})["result"]["blocks"]
        for index, block_hash, tx in load.acked:
            block = blocks[index] if index < len(blocks) else None
            checks.check(block is not None and block["hash"] == block_hash
                         and json.loads(block["data"]) == tx,
                         f"acknowledged {tx['kind']} at block {index} is not in the chain")
        for key, want in (("count", 1 + len(load.call_args)),
                          ("total", 1 + sum(load.call_args))):
            reply = client.request(QUERY, {"what": "state", "params": {
                "contract_id": load.contract_id, "key": key}})
            got = reply.get("result", {}).get("value")
            checks.check(got == want, f"contract {key} is {got}, expected {want}")
    finally:
        client.close()


def _phase(tag: str, seed: int, seconds: float, contract_id: str, checks: Checks,
           setups: list, trace_out=None) -> Load:
    """Start a fresh node, load it, verify what it acknowledged, stop it."""
    node, elapsed = _setup(tag, seed, contract_id, trace_out)
    try:
        load = Load(node.addr, contract_id, f"{seed}:{tag}")
        load.run(seconds)
        setups.append(elapsed * load.scale)
        _verify(node.addr, seed, load, checks)
    finally:
        code = node.stop()
    checks.check(code == 0, f"node exited with code {code}; see {node.log_path}")
    if not load.batch_walls:
        raise BenchmarkError(f"fewer than {BATCH} writes were acknowledged in {seconds} s")
    return load


def _requests(loads: list) -> dict:
    """Request counts for the result line, and a few errors to show."""
    errors = [e for load in loads for e in load.write_errors + load.read_errors]
    served = sum(len(load.write_latency) + len(load.read_latency) for load in loads)
    return {"attempted": served + len(errors), "failed": len(errors),
            "facts": {"difficulty_bits": int(DIFFICULTY_BITS), "requests_ok": served,
                      "request_errors": len(errors), "first_errors": errors[:5]}}


def _end_to_end(loads: list, setups: list, checks: Checks) -> tuple[dict, dict, dict]:
    """Medians over the phases of each phase's figure, every timing scaled
    to the reference speed measured during its phase; tails and rates
    pooled over the phases."""
    writes = [x * load.scale for load in loads for x in load.write_latency]
    reads = [x * load.scale for load in loads for x in load.read_latency]
    counts = _requests(loads)
    checked = sum(load.reads_checked for load in loads)
    consistent = sum(load.reads_consistent for load in loads)
    metrics = {
        "setup_s": median(setups),
        "run_s": median(median(load.batch_walls) * load.scale for load in loads),
        "ok_ratio": 1 - (counts["failed"] + checks.failed) / (counts["attempted"] + checks.attempted),
        "consistency_c": consistent / checked if checked else 0.0,
        "write_p50_ms": median(percentile(load.write_latency, 0.50) * load.scale
                               for load in loads) * 1e3,
        "read_p50_ms": median(percentile(load.read_latency, 0.50) * load.scale
                              for load in loads) * 1e3,
    }
    extra = {
        "write_p95_ms": percentile(writes, 0.95) * 1e3,
        "write_per_s": len(writes) / sum((load.write_end - load.began) * load.scale
                                         for load in loads),
        "read_p95_ms": percentile(reads, 0.95) * 1e3,
        "read_per_s": len(reads) / sum((load.read_end - load.began) * load.scale
                                       for load in loads),
    }
    phases = len(loads)
    batches = sum(len(load.batch_walls) for load in loads)
    samples = {"setup_s": len(setups), "run_s": f"{phases} phases, {batches} batches",
               "write_p50_ms": f"{phases} phases, {len(writes)} writes",
               "read_p50_ms": f"{phases} phases, {len(reads)} reads",
               "write_p95_ms": len(writes), "read_p95_ms": len(reads),
               "write_per_s": len(writes), "read_per_s": len(reads), "consistency_c": checked}
    return metrics, extra, samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.sched_setaffinity(0, {CPU})  # the node processes inherit it
    contract_id = contract_id_for(CONTRACT)
    checks = Checks()
    if not trace:
        setups: list[float] = []
        loads = [_phase(f"load{n}", seed, seconds / PHASES, contract_id, checks, setups)
                 for n in range(PHASES)]
        metrics, extra, samples = _end_to_end(loads, setups, checks)
        counts = _requests(loads)
        counts["facts"] |= {
            "per_phase_scale": [load.scale for load in loads],
            "per_phase_steal": [load.steal for load in loads],
            "per_phase_cpu_jiffies": [load.cpu_time for load in loads],
            "per_phase_wall_s": [median(load.batch_walls) for load in loads],
            "per_phase_write_p50_ms": [percentile(load.write_latency, 0.5) * 1e3 for load in loads],
            "per_phase_read_p50_ms": [percentile(load.read_latency, 0.5) * 1e3 for load in loads]}
        return {"metrics": metrics, "extra": extra, "samples": samples,
                "checks": checks} | counts

    # traced: one node untraced, then one traced, half the time each
    untraced = _phase("untraced", seed, seconds / 2, contract_id, checks, [])
    summary_path = NODE_DIR / "trace-summary.json"
    summary_path.unlink(missing_ok=True)
    traced = _phase("traced", seed, seconds / 2, contract_id, checks, [], summary_path)
    summary = json.loads(summary_path.read_text())
    puts = 2 + len(traced.write_latency) + len(traced.write_errors)
    metrics = spans.layer_metrics(summary, puts=puts)
    untraced_run = median(untraced.batch_walls) * untraced.scale
    traced_run = median(traced.batch_walls) * traced.scale
    metrics |= {
        "transport.threads_end": summary["threads_end"],
        "simnet.events": 0, "simnet.dropped": 0,
        "sim.write_p50_vms": 0, "sim.write_p95_vms": 0, "sim.unconfirmed_writes": 0,
        "trace.overhead_s": traced_run - untraced_run,
        "trace.overhead_ratio": traced_run / untraced_run - 1,
    }
    metrics |= backends.measure(checks)
    spans.check_busy(workload, metrics)
    counts = _requests([untraced, traced])
    counts["facts"] |= {"traced_run_s": traced_run, "untraced_run_s": untraced_run,
                        "spans_file": "perfbench/out/node_tcp/trace-summary.spans.jsonl"}
    return {"metrics": metrics, "samples": {}, "checks": checks} | counts
