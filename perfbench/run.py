#!/usr/bin/env python3
"""powdb benchmark: one command for every workload, traced or not.

    python3 perfbench/run.py --workload sim_adversarial --seed 1 --seconds 40 --trace 0

Prints every metric by name with its unit and sample count, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The full result also goes to
perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import (OUT_DIR, BenchmarkError, cpu_jiffies, load_spec, steal_share,
                    use_checkout_source)

SIM_WORKLOADS = ("sim_adversarial",)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(spec: dict, args, result: dict) -> dict:
    """Order the metrics as BENCHMARK.json lists them; refuse any drift."""
    listed = spec["per_layer" if args.trace else "end_to_end"]
    produced = result["metrics"]
    names = [m["name"] for m in listed]
    missing = [n for n in names if n not in produced]
    extra = [n for n in produced if n not in names]
    if missing or extra:
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                             f"unlisted {extra}")
    metrics = {}
    for entry in listed:
        value = float(produced[entry["name"]])
        if not math.isfinite(value):
            raise BenchmarkError(f"{entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    jiffies = cpu_jiffies()
    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise BenchmarkError(f"unknown workload {args.workload!r}; one of {workloads}")
        if args.seconds <= 0:
            raise BenchmarkError("--seconds must be positive")
        use_checkout_source()
        import simload
        import tcpload
        from powdb import mining

        module = simload if args.workload in SIM_WORKLOADS else tcpload
        result = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = _emit(spec, args, result)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checks = result["checks"]
    facts = {"mining_backend": mining.BACKEND,
             "host_steal_ratio": round(steal_share(jiffies, cpu_jiffies()), 4)} | result["facts"]
    for name, metric in metrics.items():
        count = result["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    for name, value in result.get("extra", {}).items():
        # printed and kept in the result file, but not in BENCHMARK.json's
        # end_to_end list, so no bound applies (README, "Measured but not gated")
        unit = "1/s" if name.endswith("_per_s") else "ms"
        print(f"{name} = {value:.6g} {unit}  (n={result['samples'][name]}, not gated)")
    for key, value in facts.items():
        print(f"# {key}: {value}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"# checks: {checks.attempted - checks.failed}/{checks.attempted} passed")

    line = {"correct": checks.failed == 0,
            "attempted": result["attempted"] + checks.attempted,
            "failed": result["failed"] + checks.failed,
            "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(line | {"not_gated": result.get("extra", {}),
                                         "samples": result["samples"], "facts": facts,
                                         "check_failures": checks.failures}, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
