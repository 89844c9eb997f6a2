"""Byte-identical sim reports: every shipped scenario at its file seed.

A change that alters protocol behaviour on purpose updates these digests
and says why; any other change must leave them alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from powdb.sim import ScenarioConfig, report_to_json_bytes, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REPORT_SHA256 = {
    "adversarial": "9415c5e5170eddb141dfab29cd1a78d074e8eecf55a0b32a35bc178c90eb6a1d",
    "baseline": "a39dc589d1501cd88debe5436a92dee555a2fc1c552fa8e2c83414ed39f8708f",
    "partition_long": "da2ed17bb2724d5001c17fd80b12d032b519972c1106d0895363020b7076e53b",
    "partition_medium": "21d7b09fd9470d329f2bc029eefc14324418d0d21dbdfe205a5e11fac523ee44",
    "partition_short": "0e51a8a76058456c063186176decbd2965f579ead7904bb70c1ff0cebbb4c716",
}


def test_every_shipped_scenario_has_a_digest():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_unchanged(name):
    config = ScenarioConfig.from_json(json.loads((SCENARIOS / f"{name}.json").read_text()))
    report = report_to_json_bytes(run_scenario(config))
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[name]
