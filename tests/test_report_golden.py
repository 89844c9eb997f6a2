"""Byte-identical sim reports: every shipped scenario at its file seed, and
the benchmark's sim_adversarial scenario at seeds 1-10.

A change that alters protocol behaviour on purpose updates these digests
and says why; any other change must leave them alone.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from powdb.sim import ScenarioConfig, report_to_json_bytes, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
PERFBENCH = ROOT / "perfbench"

REPORT_SHA256 = {
    "adversarial": "ebed72278d976a737d5160ab3ba1b963c3d6336a901f5a05a1a4755086c8ccb1",
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


# The benchmark's sim_adversarial report for seeds 1-10, built from the
# scenario perfbench/simload.py runs: a speed-up must leave them unchanged.
SIM_ADVERSARIAL_SHA256 = {
    1: "45074c9fa953eac3bba1eec13432e3623820332b954d95c6439b34f6f1de214a",
    2: "24be47143dfb8ef0792f619d3f617756141772b11e8f99734f919e022c0b8619",
    3: "ec1f10ff75b5c0ef5d1485c35650a89c4106314786868fa5c0b4f8722d8463c3",
    4: "0046f4f9798d01b71a4ba254191e44b3936e279d6530dbe011a09dcaa1b05a0c",
    5: "9b970698696a83eade24c26ff59870a3d4006b3e224f3d166613ae221022da68",
    6: "d9306ca0fd4de1fc0a53011522911173c69df80292310b8862a65ef501d5721a",
    7: "1c7cca5d13423b970c504d84e58ff4df39660f41780117bcfa04aa96842954f1",
    8: "5cfc1bf7a8b879c51d0a7645a8d055e4fb862ac333c4e738ca545e4b6d6d1a30",
    9: "06908f7b8a76ebf766bac699feb0e4718588ddaa9c3cbb68ac3273935b839428",
    10: "029fee9a304e53c48bad07df9628754f1976227630e53e1d6aec6f040fc23134",
}


@pytest.mark.parametrize("seed", sorted(SIM_ADVERSARIAL_SHA256))
def test_sim_adversarial_report_bytes_unchanged(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    simload = importlib.import_module("simload")
    config = ScenarioConfig.from_json(simload.scenario("sim_adversarial", seed))
    report = report_to_json_bytes(run_scenario(config))
    assert hashlib.sha256(report).hexdigest() == SIM_ADVERSARIAL_SHA256[seed]
