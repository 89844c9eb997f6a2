"""Every powdb name the traced benchmark wraps still exists.

`perfbench/spans.py` replaces module bindings by name; a rename in `src/`
would otherwise surface only when the benchmark runs. This test only reads
`perfbench/`.
"""

import importlib
import json
from pathlib import Path

import powdb.node
import powdb.wire
from powdb.chain import genesis_block
from powdb.node import NodeCore
from powdb.sim import ScenarioConfig, run_scenario, sim_hashrate_per_ms
from powdb.simnet import EventQueue, SimMiner
from powdb.store import BlockStore
from powdb.wire import NodeIdentity

from conftest import TEST_PARAMS, extend

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_traced_install_finds_every_binding_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    original = powdb.node.sign_envelope
    tracer = spans.Tracer()
    try:
        spans.install(tracer, live_node=True)
        assert powdb.node.sign_envelope is not original
    finally:
        tracer.uninstall()
    assert powdb.node.sign_envelope is original
    assert powdb.wire.sign_envelope is original


def test_traced_reorg_counts_the_dropped_tail(monkeypatch):
    """The wrapper of `BlockStore.replace_chain` reads its argument: a
    signature change that breaks it fails here, not in a traced run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    queue = EventQueue()
    core = NodeCore(identity=NodeIdentity.from_seed(b"\x07" * 32),
                    store=BlockStore(":memory:"), params=TEST_PARAMS, clock=lambda: queue.now,
                    miner=SimMiner(queue, sim_hashrate_per_ms(TEST_PARAMS)))
    chain = extend([genesis_block()], ["a", "b", "c", "d"], 4)
    assert core.adopt_if_heavier(0, chain[1:]) == "adopted"
    fork = extend(chain[:3], ["x", "y", "z"], 8)  # replaces the last two blocks
    tracer = spans.Tracer()
    try:
        spans.install(tracer, live_node=False)
        assert core.adopt_if_heavier(2, fork[3:]) == "adopted"
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["stats"]["store.replace_chain"][0] == 1
    assert summary["counters"]["store.replace_chain.blocks"] == 2
    assert core.store.get_all_blocks() == fork
    core.store.close()


def test_adversarial_scenario_leaves_no_traced_layer_idle(monkeypatch):
    """The traced benchmark's own self-check, on a short adversarial run: a
    change that stops calling a wrapped layer fails here, not only when the
    traced benchmark runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    scenario = json.loads((ROOT / "scenarios" / "adversarial.json").read_text())
    config = ScenarioConfig.from_json({**scenario, "duration_ms": 30_000})
    tracer = spans.Tracer()
    try:
        spans.install(tracer, live_node=False)
        report = run_scenario(config)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.summary(), puts=report["writes"]["submitted"])
    spans.check_busy("sim_adversarial", metrics)
