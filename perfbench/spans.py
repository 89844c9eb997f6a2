"""Traced runs: wrappers around calls into each powdb layer, kept as spans.

The wrappers live here, not in powdb. Each one replaces the binding the
caller actually looks up (for example `powdb.node.verify_envelope`, which
node.py imported by name), records a span (name, start, end, parent, request
id) and aggregates calls, inclusive time and self time per span name. A
layer's self time is its span time minus the time its child spans cover.

A binding that no longer exists raises TraceSetupError, and `check_busy`
fails a run in which a layer that must work on that workload recorded no
calls, so a rename never silently zeroes a metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import threading
import time

from common import BenchmarkError, percentile

MAX_SPANS = 300_000


class TraceSetupError(BenchmarkError):
    """A wrapped powdb name no longer exists."""


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # [child_seconds, span_id] per open span
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Per-thread span stacks and aggregates, merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.signed: set[bytes] = set()
        self.broadcast_blocks: set[str] = set()
        self.runtime = None  # the live node's NodeRuntime, once started

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn, *, record: bool = True, before=None, after=None):
        """A traced stand-in for `fn`; `after(state, result, args, token)`
        runs outside the timed region, `token` being what `before(args)`
        returned."""
        perf = time.perf_counter

        def traced(*args, **kwargs):
            st = self.state()
            stack = st.stack
            span_id = next(self._ids)
            parent = stack[-1][1] if stack else 0
            request = stack[0][1] if stack else span_id
            token = before(args) if before is not None else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if record:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((span_id, name, start, end, parent, request))
                    else:
                        st.add("trace.spans_dropped")
            if after is not None:
                after(st, result, args, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, bindings: list[str], make_wrapper) -> None:
        """Replace every binding with one wrapper around the function the
        first binding names; all bindings must name that same function."""
        targets = [_resolve(spec) for spec in bindings]
        original = targets[0][2]
        for spec, (_owner, _attr, value) in zip(bindings, targets):
            if value is not original:
                raise TraceSetupError(
                    f"{spec} no longer refers to {bindings[0]}; update the wrapper table")
        wrapper = make_wrapper(original)
        for owner, attr, value in targets:
            self._restore.append((owner, attr, value))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Merged aggregates of every thread, JSON-ready."""
        stats: dict[str, list] = {}
        counters: dict[str, float] = {}
        samples: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, own) in st.stats.items():
                agg = stats.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
            for name, value in st.counters.items():
                counters[name] = counters.get(name, 0) + value
            for name, values in st.samples.items():
                samples.setdefault(name, []).extend(values)
        counters["wire.sign.unique"] = len(self.signed)
        counters["wire.blocks_broadcast"] = len(self.broadcast_blocks)
        counters["trace.spans"] = len(self.spans)
        return {"stats": stats, "counters": counters, "samples": samples}

    def write_spans(self, path) -> None:
        """One JSON object per line; times are seconds since the tracer began."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "request": request,
                    "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9)}) + "\n")


def _resolve(spec: str):
    """'pkg.module:Attr.sub' -> (owner object, last attribute name, value)."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceSetupError(f"cannot import {module_name} for {spec}: {exc}") from exc
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceSetupError(f"{spec}: {part} no longer exists")
    value = getattr(owner, parts[-1], None)
    if value is None or not callable(value):
        raise TraceSetupError(f"{spec} no longer exists or is not callable")
    return owner, parts[-1], value


# -- the wrapper table -------------------------------------------------------

def _payload_digest(kind: str, payload) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(kind.encode() + b"\x1f" + body.encode()).digest()


def install(tracer: Tracer, live_node: bool) -> None:
    """Wrap every layer boundary; `live_node` adds the TCP runtime's."""

    def span(name, record=True, before=None, after=None):
        return lambda fn: tracer.wrap(name, fn, record=record, before=before, after=after)

    def after_sign(st, env, args, _token):
        digest = _payload_digest(env.kind, env.payload)
        with tracer._lock:
            tracer.signed.add(digest)
            if env.kind == "NEW_BLOCK":
                tracer.broadcast_blocks.add(env.payload["block"]["hash"])
        if env.kind == "NEW_BLOCK":
            st.add("wire.sign.new_block")

    def after_verify(st, ok, _args, _token):
        if not ok:
            st.add("wire.verify.failed")

    def after_encode(st, raw, _args, _token):
        st.add("wire.envelope_bytes", len(raw))

    def after_verify_chain(st, _err, args, _token):
        st.add("consensus.verify_chain.blocks", len(args[0]))

    def after_find_nonce(st, hit, _args, _token):
        if hit is None:
            st.add("mining.cancelled")

    def after_search(st, hit, args, _token):
        _prefix, _bits, start, count = args
        st.add("mining.attempts", count if hit is None else hit[0] - start + 1)

    def after_replace(st, _none, args, _token):
        st.add("store.replace_chain.blocks", len(args[1]))

    def before_lookup(args):
        return args[0].hits

    def after_lookup(st, _compiled, args, hits_before):
        st.add("contracts.cache_hits", args[0].hits - hits_before)

    def after_new_block(st, outcome, _args, _token):
        if outcome == "appended":
            st.add("node.handle_new_block.appended")

    def after_sync(st, outcome, args, _token):
        payload = args[2].payload if isinstance(args[2].payload, dict) else {}
        blocks = payload.get("blocks")
        st.add("node.sync.blocks", len(blocks) if isinstance(blocks, list) else 0)
        if outcome == "adopted":
            st.add("node.sync.adopted")

    def after_dedup(st, was_new, _args, _token):
        if not was_new:
            st.add("net.dedup.suppressed")

    def after_deliver(st, _none, args, _token):
        st.add("simnet.bytes", len(args[3]))

    def after_send(st, _none, args, _token):
        st.add("transport.send.bytes", len(args[1]))

    def traced_transaction(original):
        @contextlib.contextmanager
        def transaction(store):
            with original(store):
                outermost = store._txn_depth == 1
                yield
            if outermost:
                tracer.state().add("store.commits")

        return transaction

    table = [
        ("wire.sign", ["powdb.wire:sign_envelope", "powdb.node:sign_envelope",
                       "powdb.sim:sign_envelope"], span("wire.sign", after=after_sign)),
        ("wire.verify", ["powdb.wire:verify_envelope", "powdb.node:verify_envelope"],
         span("wire.verify", after=after_verify)),
        ("wire.canonical_json", ["powdb.wire:canonical_json", "powdb.node:canonical_json",
                                 "powdb.contracts:canonical_json"],
         span("wire.canonical_json", record=False)),
        ("wire.decode", ["powdb.wire:decode_envelope", "powdb.node:decode_envelope"],
         span("wire.decode")),
        ("wire.encode", ["powdb.wire:MessageEnvelope.encode"],
         span("wire.encode", record=False, after=after_encode)),
        ("chain.block_from_json", ["powdb.chain:block_from_json",
                                   "powdb.node:block_from_json"],
         span("chain.block_from_json")),
        ("chain.is_hex_hash", ["powdb.chain:is_hex_hash", "powdb.node:is_hex_hash"],
         span("chain.is_hex_hash", record=False)),
        ("chain.block_hash", ["powdb.chain:block_hash", "powdb.consensus:block_hash",
                              "powdb.sim:block_hash"],
         span("chain.block_hash", record=False)),
        ("consensus.verify_block", ["powdb.consensus:verify_block", "powdb.node:verify_block"],
         span("consensus.verify_block")),
        ("consensus.verify_chain", ["powdb.consensus:verify_chain"],
         span("consensus.verify_chain", after=after_verify_chain)),
        ("consensus.mine_block", ["powdb.consensus:mine_block", "powdb.node:mine_block",
                                  "powdb.simnet:mine_block", "powdb.sim:mine_block"],
         span("consensus.mine_block")),
        ("consensus.reject", ["powdb.node:NodeCore._count_reject"],
         span("consensus.reject", record=False)),
        ("mining.find_nonce", ["powdb.mining:find_nonce"],
         span("mining.find_nonce", after=after_find_nonce)),
        ("mining.search", ["powdb.mining:_search"],
         span("mining.search", record=False, after=after_search)),
        ("store.add_block", ["powdb.store:BlockStore.add_block"], span("store.add_block")),
        ("store.put_state", ["powdb.store:BlockStore.put_state"], span("store.put_state")),
        ("store.get_all_blocks", ["powdb.store:BlockStore.get_all_blocks"],
         span("store.get_all_blocks")),
        ("store.replace_chain", ["powdb.store:BlockStore.replace_chain"],
         span("store.replace_chain", after=after_replace)),
        ("store.transaction", ["powdb.store:BlockStore.transaction"], traced_transaction),
        ("contracts.execute", ["powdb.contracts:execute", "powdb.node:execute"],
         span("contracts.execute")),
        ("contracts.compile", ["powdb.contracts:compile_contract",
                               "powdb.node:compile_contract"],
         span("contracts.compile")),
        ("contracts.lookup", ["powdb.contracts:cached_lookup", "powdb.node:cached_lookup"],
         span("contracts.lookup", before=before_lookup, after=after_lookup)),
        ("node.on_message", ["powdb.node:NodeCore.on_message"], span("node.on_message")),
        ("node.handle_new_block", ["powdb.node:NodeCore.handle_new_block"],
         span("node.handle_new_block", after=after_new_block)),
        ("node.sync_response", ["powdb.node:NodeCore._handle_sync_response"],
         span("node.sync_response", after=after_sync)),
        ("net.dedup", ["powdb.net:RecentSet.add"],
         span("net.dedup", record=False, after=after_dedup)),
        ("simnet.deliver", ["powdb.simnet:MemNetwork.deliver"],
         span("simnet.deliver", record=False, after=after_deliver)),
    ]
    if live_node:
        table += [
            ("transport.send", ["powdb.transport:TcpConnection.send_message"],
             span("transport.send", after=after_send)),
            ("node.submit", ["powdb.node:NodeRuntime.submit"], _traced_submit(tracer)),
            ("node.runtime", ["powdb.node:NodeRuntime.start"], _capture_runtime(tracer)),
        ]
    for _label, bindings, make_wrapper in table:
        tracer.patch(bindings, make_wrapper)


def _traced_submit(tracer: Tracer):
    """Time each command's wait in the queue; run it as a root span."""

    def make(original):
        def submit(runtime, fn):
            queued = time.perf_counter()
            command = tracer.wrap("node.command", fn)

            def run():
                tracer.state().samples.setdefault("node.cmd_wait", []).append(
                    time.perf_counter() - queued)
                command()

            return original(runtime, run)

        return submit

    return make


def _capture_runtime(tracer: Tracer):
    def make(original):
        def start(runtime):
            tracer.runtime = runtime
            return original(runtime)

        return start

    return make


# -- per-layer metrics ---------------------------------------------------------

# Metrics that must be non-zero on a workload; zero means a wrapper lost
# its target or the workload stopped exercising that layer.
MUST_BE_BUSY = {
    "sim_adversarial": ["wire.sign.calls", "wire.verify.calls", "wire.verify.failed",
                        "chain.block_from_json.calls", "chain.is_hex_hash.calls",
                        "consensus.verify_chain.calls", "consensus.rejects",
                        "store.get_all_blocks.calls",
                        "node.sync.responses", "simnet.messages"],
    "node_tcp": ["wire.sign.calls", "wire.verify.calls", "mining.find_nonce.calls",
                 "mining.attempts", "store.add_block.calls", "store.commits",
                 "store.put_state.s", "contracts.execute.calls", "contracts.compile.calls",
                 "node.on_message.calls", "node.cmd_wait_s", "transport.send.calls"],
}


def layer_metrics(summary: dict, puts: int) -> dict[str, float]:
    """Derive the per-layer values of BENCHMARK.json that come from the
    tracer's summary; `puts` is the number of write requests the workload
    submitted."""
    stats, counters = summary["stats"], summary["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def count(name):
        return counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    waits = summary["samples"].get("node.cmd_wait", [])
    return {
        "wire.sign.calls": calls("wire.sign"),
        "wire.sign.s": total("wire.sign"),
        "wire.sign.unique_ratio": ratio(count("wire.sign.unique"), calls("wire.sign")),
        "wire.verify.calls": calls("wire.verify"),
        "wire.verify.s": total("wire.verify"),
        "wire.verify.failed": count("wire.verify.failed"),
        "wire.canonical_json.calls": calls("wire.canonical_json"),
        "wire.canonical_json.s": total("wire.canonical_json"),
        "wire.decode.s": total("wire.decode"),
        "wire.envelope_bytes": count("wire.envelope_bytes"),
        "wire.envelopes_per_block": ratio(count("wire.sign.new_block"),
                                          count("wire.blocks_broadcast")),
        "chain.block_from_json.calls": calls("chain.block_from_json"),
        "chain.block_from_json.s": total("chain.block_from_json"),
        "chain.is_hex_hash.calls": calls("chain.is_hex_hash"),
        "chain.is_hex_hash.s": total("chain.is_hex_hash"),
        "chain.block_hash.calls": calls("chain.block_hash"),
        "chain.block_hash.s": total("chain.block_hash"),
        "consensus.verify_block.calls": calls("consensus.verify_block"),
        "consensus.verify_block.s": total("consensus.verify_block"),
        "consensus.verify_chain.calls": calls("consensus.verify_chain"),
        "consensus.verify_chain.blocks": count("consensus.verify_chain.blocks"),
        "consensus.verify_chain.s": total("consensus.verify_chain"),
        "consensus.mine_block.s": total("consensus.mine_block"),
        "consensus.rejects": calls("consensus.reject"),
        "mining.find_nonce.calls": calls("mining.find_nonce"),
        "mining.attempts": count("mining.attempts"),
        "mining.find_nonce.s": total("mining.find_nonce"),
        "mining.hashes_per_s": ratio(count("mining.attempts"), total("mining.search")),
        "mining.cancelled_ratio": ratio(count("mining.cancelled"), calls("mining.find_nonce")),
        "store.add_block.calls": calls("store.add_block"),
        "store.add_block.s": total("store.add_block"),
        "store.commits": count("store.commits"),
        "store.commits_per_put": ratio(count("store.commits"), puts),
        "store.put_state.s": total("store.put_state"),
        "store.get_all_blocks.calls": calls("store.get_all_blocks"),
        "store.get_all_blocks.s": total("store.get_all_blocks"),
        "store.replace_chain.calls": calls("store.replace_chain"),
        "store.replace_chain.blocks": count("store.replace_chain.blocks"),
        "store.replace_chain.s": total("store.replace_chain"),
        "contracts.execute.calls": calls("contracts.execute"),
        "contracts.execute.s": total("contracts.execute"),
        "contracts.compile.calls": calls("contracts.compile"),
        "contracts.compile.s": total("contracts.compile"),
        "contracts.cache_hit_ratio": ratio(count("contracts.cache_hits"),
                                           calls("contracts.lookup")),
        "node.on_message.calls": calls("node.on_message"),
        "node.on_message.self_s": own("node.on_message"),
        "node.handle_new_block.calls": calls("node.handle_new_block"),
        "node.block_useful_ratio": ratio(count("node.handle_new_block.appended"),
                                         calls("node.handle_new_block")),
        "node.sync.responses": calls("node.sync_response"),
        "node.sync.blocks_per_response": ratio(count("node.sync.blocks"),
                                               calls("node.sync_response")),
        "node.sync.adopted_ratio": ratio(count("node.sync.adopted"),
                                         calls("node.sync_response")),
        "node.cmd_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "node.cmd_wait_p99_s": percentile(waits, 0.99) if waits else 0.0,
        "net.dedup.suppressed": count("net.dedup.suppressed"),
        "transport.send.calls": calls("transport.send"),
        "transport.send.s": total("transport.send"),
        "transport.send.bytes": count("transport.send.bytes"),
        "simnet.messages": calls("simnet.deliver"),
        "simnet.bytes": count("simnet.bytes"),
        "trace.spans": count("trace.spans"),
    }


def check_busy(workload: str, metrics: dict) -> None:
    idle = [name for name in MUST_BE_BUSY[workload] if not metrics.get(name)]
    if idle:
        raise BenchmarkError(
            f"{workload}: layers recorded no work: {', '.join(idle)}; a wrapped "
            "function was probably renamed or is no longer called")
