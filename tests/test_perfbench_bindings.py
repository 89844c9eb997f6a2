"""Every powdb name the traced benchmark wraps still exists.

`perfbench/spans.py` replaces module bindings by name; a rename in `src/`
would otherwise surface only when the benchmark runs. This test only reads
`perfbench/`.
"""

import importlib
from pathlib import Path

import powdb.node
import powdb.wire

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
