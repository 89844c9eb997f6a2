"""Start a powdb node through its normal entry point, optionally traced.

    python3 perfbench/launch_node.py [--trace-out FILE] -- node run ARGS...

With `--trace-out`, the layer wrappers are installed before the node starts;
when the node stops (SIGINT), the aggregates go to FILE as JSON and the
spans to FILE with the suffix `.spans.jsonl`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import use_checkout_source


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_checkout_source()
    from powdb import cli

    if trace_out is None:
        return cli.main(argv)

    import spans

    tracer = spans.Tracer()
    spans.install(tracer, live_node=True)
    try:
        return cli.main(argv)
    finally:
        summary = tracer.summary()
        runtime = tracer.runtime
        summary["threads_end"] = len(runtime.transport._threads) if runtime else None
        tracer.write_spans(trace_out.with_suffix(".spans.jsonl"))
        trace_out.write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
