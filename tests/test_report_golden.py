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
    "adversarial": "7a4daff418d46e6074b28210c2deec5f35b07dcd9ec939d4c7e6872f4d41b23c",
    "baseline": "a5e4c81da9be5e930d66525eefce1b368d8248755ef9301383e38cdd6312274d",
    "partition_long": "37ac5b3154cb084d0e587d8dc7e2437ab9e2a57d53b69c13e0f0ac6d1fbfc11c",
    "partition_medium": "cb4cfc4d9559fddf73c6e90edd3adbca98b32f810e50d260f27e3f80a316ffe1",
    "partition_short": "0e51a8a76058456c063186176decbd2965f579ead7904bb70c1ff0cebbb4c716",
}


def test_every_shipped_scenario_has_a_digest():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(REPORT_SHA256)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_unchanged(name):
    config = ScenarioConfig.from_json(json.loads((SCENARIOS / f"{name}.json").read_text()))
    report = report_to_json_bytes(run_scenario(config))
    assert hashlib.sha256(report).hexdigest() == REPORT_SHA256[name]
