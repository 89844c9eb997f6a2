"""Multi-node scenario harness: partitions, adversaries, consistency metrics.

A scenario builds `node_count` full nodes over the in-memory transport,
drives a write/read workload, applies partition windows and malicious
emissions on schedule, and reports throughput, latency percentiles, fork
statistics and the consistency level (the fraction of sampled reads that
agree with the modal head across honest nodes). A client read is modelled
as one round trip over a link. Partition windows come one at a time, in
start order, and each starts before `duration_ms`, since a window's end
heals the whole network. Identical (config, seed) inputs produce
byte-identical reports.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import random
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

from powdb.chain import (
    Block,
    ChainParams,
    block_hash,
    block_to_json,
    cumulative_work,
    meets_difficulty,
)
from powdb.consensus import create_new_block, effective_bits, mine_block
from powdb.node import NodeCore, parse_tx_data
from powdb.simnet import EventQueue, MemNetwork, SimMiner
from powdb.store import BlockStore
from powdb.transport import TICK_S
# sign_envelope is not called here: malicious nodes send through their
# cores' links; the name is bound for perfbench/spans.py, which wraps it
from powdb.wire import HEADER, NEW_BLOCK, NodeIdentity, sign_envelope  # noqa: F401

MAX_NODES = 64

BEHAVIORS = ("invalid_pow", "bad_prev_hash", "tampered_signature")


class ConfigError(ValueError):
    """The scenario file is invalid; nothing was started."""


def consistency_level(n_inconsistent: int, n_total: int) -> float:
    """Fraction of reads agreeing with the mode: 1 - inconsistent/total."""
    if n_total <= 0:
        raise ValueError("consistency level is undefined for zero reads")
    if not 0 <= n_inconsistent <= n_total:
        raise ValueError("need 0 <= n_inconsistent <= n_total")
    return 1 - n_inconsistent / n_total


def percentile(values: list, q: float):
    """Nearest-rank percentile; None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def modal_head(heads: list[str]) -> tuple[str, int]:
    """Most common head, ties broken by smallest hash; plus disagree count."""
    counts: dict[str, int] = {}
    for head in heads:
        counts[head] = counts.get(head, 0) + 1
    best = max(counts.values())
    mode = min(h for h, c in counts.items() if c == best)
    return mode, sum(1 for h in heads if h != mode)


@dataclass
class PartitionWindow:
    start_ms: int
    end_ms: int
    groups: list[list[int]]

    @property
    def span(self) -> str:
        return f"[{self.start_ms}, {self.end_ms})"


# Scenario file key -> ScenarioConfig field, at the top level and per
# section. `chain_params` and partition windows use the field names of
# ChainParams and PartitionWindow. Defaults live on those classes alone.
_TOP_KEYS = {"node_count": "node_count", "seed": "seed", "duration_ms": "duration_ms"}
_SECTIONS = {
    "workload": {"write_interval_ms": "write_interval_ms",
                 "read_interval_ms": "read_interval_ms"},
    "malicious": {"fraction": "malicious_fraction", "behavior": "malicious_behaviors"},
    "link": {"latency_ms": "link_latency_ms", "loss_rate": "link_loss_rate"},
}


def _fields(cls, section: str, obj, keys: dict[str, str] | None = None) -> dict:
    """The fields of `cls` that one file section states, each checked against
    its annotation. `keys` maps file keys to field names; None means they
    are the same."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object")
    hints = typing.get_type_hints(cls)
    keys = keys or {name: name for name in hints}
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    fields = {}
    for key, value in obj.items():
        hint = hints[keys[key]]
        if not _has_type(value, hint):
            raise ConfigError(f"{section} key {key!r} has the wrong type: {value!r}")
        fields[keys[key]] = tuple(value) if typing.get_origin(hint) is tuple else value
    return fields


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; a bool is no number."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    types = (int, float) if hint is float else hint
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass
class ScenarioConfig:
    node_count: int
    duration_ms: int
    seed: int = 0
    params: ChainParams = field(default_factory=ChainParams)
    write_interval_ms: int = 2000
    read_interval_ms: int = 500
    partitions: list[PartitionWindow] = field(default_factory=list)
    malicious_fraction: float = 0.0
    malicious_behaviors: list[str] = field(default_factory=list)
    link_latency_ms: int = 10
    link_loss_rate: float = 0.0

    def validate(self) -> None:
        if not isinstance(self.node_count, int) or not 1 <= self.node_count <= MAX_NODES:
            raise ConfigError(f"node_count must be in [1, {MAX_NODES}], got {self.node_count}")
        if self.duration_ms <= 0:
            raise ConfigError("duration_ms must be positive")
        try:
            self.params.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.write_interval_ms <= 0 or self.read_interval_ms <= 0:
            raise ConfigError("workload intervals must be positive")
        for window in self.partitions:
            if window.start_ms < 0 or window.end_ms < window.start_ms:
                raise ConfigError(f"bad partition window {window.span}")
            if window.start_ms >= self.duration_ms:
                raise ConfigError(f"partition window {window.span} starts at or after "
                                  f"duration_ms {self.duration_ms}")
            members = [i for group in window.groups for i in group]
            if sorted(members) != list(range(self.node_count)):
                raise ConfigError("partition groups must be disjoint and cover all nodes")
            if any(not group for group in window.groups):
                raise ConfigError("partition groups must be non-empty")
        # one window at a time, in start order: each end heals the network
        for before, window in zip(self.partitions, self.partitions[1:]):
            if window.start_ms < before.start_ms:
                raise ConfigError(f"partition window {window.span} is listed after "
                                  f"{before.span}, which starts later")
            if window.start_ms < before.end_ms:
                raise ConfigError(f"partition window {window.span} overlaps {before.span}")
        if not 0 <= self.malicious_fraction <= 1:
            raise ConfigError("malicious fraction must be in [0, 1]")
        for behavior in self.malicious_behaviors:
            if behavior not in BEHAVIORS:
                raise ConfigError(f"unknown malicious behavior {behavior!r}")
        if self.malicious_count > 0 and not self.malicious_behaviors:
            raise ConfigError("malicious fraction set but no behavior given")
        if self.malicious_count >= self.node_count:
            raise ConfigError("at least one honest node is required")
        if self.link_latency_ms < 0 or not 0 <= self.link_loss_rate < 1:
            raise ConfigError("link latency must be >= 0 and loss rate in [0, 1)")

    @property
    def malicious_count(self) -> int:
        return int(self.malicious_fraction * self.node_count)

    @classmethod
    def from_json(cls, obj) -> "ScenarioConfig":
        """Read a scenario file; a key it omits keeps the field's default."""
        if not isinstance(obj, dict):
            raise ConfigError("scenario must be a JSON object")
        nested = {"chain_params", "partitions", *_SECTIONS}
        kwargs = _fields(cls, "scenario", {k: v for k, v in obj.items() if k not in nested},
                         _TOP_KEYS)
        for section, keys in _SECTIONS.items():
            kwargs.update(_fields(cls, section, obj.get(section, {}), keys))
        windows = obj.get("partitions", [])
        if not isinstance(windows, list):
            raise ConfigError("partitions must be a JSON list")
        try:
            kwargs["params"] = ChainParams(**_fields(ChainParams, "chain_params",
                                                     obj.get("chain_params", {})))
            kwargs["partitions"] = [PartitionWindow(**_fields(PartitionWindow,
                                                              "partition window", w))
                                    for w in windows]
            config = cls(**kwargs)
        except TypeError as exc:  # a required key is missing
            raise ConfigError(f"malformed scenario: {exc}") from exc
        config.validate()
        return config

    def to_json(self) -> dict:
        obj = {key: getattr(self, name) for key, name in _TOP_KEYS.items()}
        for section, keys in _SECTIONS.items():
            obj[section] = {key: getattr(self, name) for key, name in keys.items()}
        obj["chain_params"] = asdict(self.params)
        obj["partitions"] = [asdict(window) for window in self.partitions]
        return obj


def sim_hashrate_per_ms(params: ChainParams) -> float:
    """Virtual node hash rate, derived so the expected mining time at the
    initial difficulty is a quarter of the target block interval."""
    expected_attempts = float(1 << params.initial_difficulty)
    return expected_attempts / (params.target_block_interval_ms / 4.0)


class _Harness:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.queue = EventQueue()
        master = random.Random(config.seed)
        rng_link, rng_roles, rng_keys = (random.Random(master.randrange(2**63))
                                         for _ in range(3))
        self.net = MemNetwork(self.queue, rng_link, config.link_latency_ms,
                              config.link_loss_rate)
        self.addrs = [f"sim:{i}" for i in range(config.node_count)]
        self.nodes: list[NodeCore] = []

        count = config.malicious_count
        self.malicious = sorted(rng_roles.sample(range(config.node_count), count))
        self.honest = [i for i in range(config.node_count) if i not in self.malicious]
        self.behavior_of = {
            node: config.malicious_behaviors[slot % len(config.malicious_behaviors)]
            for slot, node in enumerate(self.malicious)
        }

        # metrics
        self.accept_times: dict[str, dict[int, int]] = {}
        self.reorgs = 0
        self.max_reorg_depth = 0
        self.samples: list[dict] = []  # one per client read, then the final one
        self.writes = []  # dicts: submitted_ms, status, block_hash
        self.malicious_emitted: set[str] = set()

        rate = sim_hashrate_per_ms(config.params)
        for i in range(config.node_count):
            identity = NodeIdentity.from_seed(hashlib.sha256(
                f"powdb-sim|{config.seed}|{i}".encode()).digest())
            core = NodeCore(
                identity=identity,
                store=BlockStore(":memory:"),
                params=config.params,
                clock=lambda: self.queue.now,
                miner=SimMiner(self.queue, rate),
                mine_enabled=True,
                random_bytes=rng_keys.randbytes,  # ephemeral link keys
                peers=self.addrs[i + 1:],  # the full mesh: each pair is dialed by its lower index
                dial=lambda addr, i=i: self.net.dial(self.nodes[i], self.addrs[i], addr),
            )
            if i in self.honest:
                core.on_chain_change = functools.partial(self._on_chain_change, i)
            self.nodes.append(core)
            self.net.listen(self.addrs[i], core)

    # -- chain changes -----------------------------------------------------

    def _on_chain_change(self, node_index: int, blocks: list[Block], reorg_depth: int) -> None:
        if reorg_depth > 0:
            self.reorgs += 1
            self.max_reorg_depth = max(self.max_reorg_depth, reorg_depth)
        for block in blocks:
            self.accept_times.setdefault(block.hash, {}).setdefault(node_index, self.queue.now)

    # -- schedule ----------------------------------------------------------

    def schedule(self) -> None:
        config = self.config
        self.queue.at(0, self._tick)  # the first dials, before any other event at 0

        write_times = range(config.write_interval_ms, config.duration_ms,
                            config.write_interval_ms)
        for seq, t in enumerate(write_times):
            self.queue.at(t, functools.partial(self._write, seq,
                                               self.honest[seq % len(self.honest)]))
        for t in range(config.read_interval_ms, config.duration_ms, config.read_interval_ms):
            self.queue.at(t, self._record_sample)  # a client read

        for window in config.partitions:
            groups = [set(self.addrs[i] for i in group) for group in window.groups]
            self.queue.at(window.start_ms, lambda g=groups: self.net.set_partition(g))
            # the nodes dial the links it cut again at their next tick
            self.queue.at(min(window.end_ms, config.duration_ms), self.net.heal)

        for node_index in self.malicious:
            emit = functools.partial(self.malicious_step, node_index, self.behavior_of[node_index])
            for t in range(config.write_interval_ms // 2 or 1, config.duration_ms,
                           config.write_interval_ms):
                self.queue.at(t, emit)

        step = int(TICK_S * 1000)
        for t in range(step, config.duration_ms, step):
            self.queue.at(t, self._tick)

    def _tick(self) -> None:
        """What a live node's loop does every TICK_S: the core's tick, which
        also dials each of its peers whose link is unset or closed."""
        for core in self.nodes:
            core.tick()

    def _write(self, seq: int, node_index: int) -> None:
        record = {"submitted_ms": self.queue.now, "status": "pending", "block_hash": None}
        self.writes.append(record)

        def reply(result: dict) -> None:
            if result.get("ok"):
                record["status"] = "committed"
                record["block_hash"] = result["result"]["block_hash"]
            else:
                record["status"] = "failed"

        self.nodes[node_index].submit_tx(
            {"kind": "raw", "data": f"w{seq}@{self.queue.now}"}, reply)

    def _record_sample(self) -> dict:
        heads = [self.nodes[i].store.chain_info()[1] for i in self.honest]
        mode, inconsistent = modal_head(heads)
        sample = {"t_ms": self.queue.now, "heads": heads, "mode_hash": mode,
                  "n_inconsistent": inconsistent, "n_nodes": len(heads)}
        self.samples.append(sample)
        return sample

    # -- adversary ---------------------------------------------------------

    def malicious_step(self, node_index: int, behavior: str) -> None:
        """Emit one protocol-violating message from `node_index` to its peers."""
        core = self.nodes[node_index]
        tip = core.store.tip()
        bits = effective_bits(core.difficulty)  # the retarget keeps it >= min_difficulty
        marker = f"MAL:{node_index}:{len(self.malicious_emitted)}"
        ts = self.queue.now // 1000

        if behavior == "invalid_pow":
            block = create_new_block(marker, tip, bits, ts)
            block = block.with_hash(block_hash(block))
            while meets_difficulty(block.hash, bits):  # make sure it really fails PoW
                block = create_new_block(block.data + ".", tip, bits, ts)
                block = block.with_hash(block_hash(block))
        elif behavior == "bad_prev_hash":
            fake_parent = hashlib.sha256(marker.encode()).hexdigest()
            block = mine_block(Block(index=tip.index + 1, timestamp=ts, data=marker,
                                     prev_hash=fake_parent, hash="", difficulty=bits, nonce=0))
        else:  # tampered_signature: a perfectly valid block in a broken envelope
            block = mine_block(create_new_block(marker, tip, bits, ts))

        self.malicious_emitted.add(block.hash)
        for link, raw in core.frames(NEW_BLOCK, {"block": block_to_json(block)},
                                     core.connected()):
            if behavior == "tampered_signature":  # flip the low bit of the tag's first byte
                raw = raw[:HEADER.size] + bytes([raw[HEADER.size] ^ 1]) + raw[HEADER.size + 1:]
            try:
                link.conn.send_message(raw)
            except ConnectionError:
                pass

    # -- run and report ------------------------------------------------------

    def run(self) -> dict:
        self.schedule()
        self.queue.run()
        # the run ends at duration_ms even when the last event comes earlier,
        # so events that only observe the run (a benchmark's marks) move nothing
        self.queue.now = max(self.queue.now, self.config.duration_ms)
        reads = len(self.samples)  # each takes its modelled round trip, request and reply
        read_ms = 2 * self.config.link_latency_ms if reads else None
        final_sample = self._record_sample()

        canonical = max((self.nodes[i].store.get_all_blocks() for i in self.honest),
                        key=lambda c: (cumulative_work(c), c[-1].hash))
        canonical_hashes = {b.hash for b in canonical}
        tx_blocks = sum(1 for b in canonical[1:] if parse_tx_data(b.data) is not None)
        mal_in_canonical = len(canonical_hashes & self.malicious_emitted)

        majority = len(self.honest) // 2 + 1
        write_latencies = []
        for record in self.writes:
            times = sorted(self.accept_times.get(record["block_hash"], {}).values())
            if (record["status"] == "committed" and len(times) >= majority
                    and record["block_hash"] in canonical_hashes):
                write_latencies.append(times[majority - 1] - record["submitted_ms"])

        dropped = sum(self.nodes[i].dropped_envelopes for i in self.honest)
        rejects_by_reason: dict[str, int] = {}
        for i in self.honest:
            for reason, count in self.nodes[i].rejects_by_reason.items():
                rejects_by_reason[reason] = rejects_by_reason.get(reason, 0) + count

        duration_s = self.config.duration_ms / 1000
        n_total_reads = sum(s["n_nodes"] for s in self.samples)
        n_inconsistent_reads = sum(s["n_inconsistent"] for s in self.samples)
        report = {
            "config": self.config.to_json(),
            "seed": self.config.seed,
            "end_ms": self.queue.now,
            "committed_tx_count": tx_blocks,
            "throughput_tx_per_s": tx_blocks / duration_s,
            "write_latency_ms": {
                "count": len(write_latencies),
                "unconfirmed": len(self.writes) - len(write_latencies),
                "p50": percentile(write_latencies, 0.50),
                "p95": percentile(write_latencies, 0.95),
                "max": max(write_latencies) if write_latencies else None,
            },
            "read_latency_ms": {"count": reads, "p50": read_ms, "p95": read_ms},
            "consistency": {
                "n_total": n_total_reads,
                "n_inconsistent": n_inconsistent_reads,
                "c": consistency_level(n_inconsistent_reads, n_total_reads),
                "final_sample_c": consistency_level(final_sample["n_inconsistent"],
                                                    final_sample["n_nodes"]),
                "samples": self.samples,
            },
            "fork_count": self.reorgs,
            "max_reorg_depth": self.max_reorg_depth,
            "rejected_invalid_blocks": sum(rejects_by_reason.values()),
            "rejects_by_reason": rejects_by_reason,
            "dropped_envelopes": dropped,
            "honest_nodes": self.honest,
            "malicious_nodes": self.malicious,
            "malicious_behavior_by_node": {str(k): v for k, v in self.behavior_of.items()},
            "malicious_blocks_emitted": len(self.malicious_emitted),
            "malicious_blocks_in_canonical": mal_in_canonical,
            "canonical": {"length": len(canonical), "tip_hash": canonical[-1].hash,
                          "work": cumulative_work(canonical),
                          "blocks": [block_to_json(b) for b in canonical]},
            "final_heads": [self.nodes[i].store.chain_info()[1]
                            for i in range(self.config.node_count)],
            "writes": {"submitted": len(self.writes),
                       "committed": sum(1 for w in self.writes if w["status"] == "committed"),
                       "failed": sum(1 for w in self.writes if w["status"] == "failed"),
                       "pending": sum(1 for w in self.writes if w["status"] == "pending")},
        }
        for core in self.nodes:
            core.close()
            core.store.close()
        return report


def run_scenario(config: ScenarioConfig) -> dict:
    """Build the network, run the schedule to quiescence, return the report."""
    return _Harness(config).run()


def report_to_json_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, indent=2).encode("utf-8") + b"\n"


def write_report(report: dict, out_path: str | Path) -> tuple[Path, Path]:
    """Write REPORT.json plus the consistency-sample CSV next to it."""
    json_path = Path(out_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_bytes(report_to_json_bytes(report))
    csv_path = json_path.with_suffix(".csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_ms", "mode_hash", "n_inconsistent", "n_nodes"])
        for sample in report["consistency"]["samples"]:
            writer.writerow([sample["t_ms"], sample["mode_hash"],
                             sample["n_inconsistent"], sample["n_nodes"]])
    return json_path, csv_path
