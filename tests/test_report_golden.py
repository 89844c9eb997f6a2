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


# The benchmark's sim_adversarial report for seeds 1-10, built from the
# scenario perfbench/simload.py runs: a speed-up must leave them unchanged.
SIM_ADVERSARIAL_SHA256 = {
    1: "07509a8a40237655e59ee15954fdb6f5702558b268478b5538140edf494bb881",
    2: "4b27e86c2907ae55ef8edc889668f7393b058ba7e3eb53f97f9e4aaa900d3882",
    3: "bf082e0f4ab83501fa2b8e4d35c855bdf429d11c4ca092f9f03c2b880d50600d",
    4: "d5e6bea3e56db86d9f8d0b1fc7097a331c9145c2a77014afeeb1cee7dd48f220",
    5: "e22fc574fa889da8640d383e2cd0ed333d264f74c363badf84d97cf74bdcbeec",
    6: "bbd9c78ab2a4d47176f7794d2b236d2cacf0ca17f19d1519f1326d4d055b46e0",
    7: "abaadaad6c90e76b29f877d51b66e05c423d6d8335204552030ae4701a372ccc",
    8: "669d594f5a5350e299c649b453bf04a33e2c4c8802aabe28365df6f764e9dbcb",
    9: "c37ac1b11dc3b3d543cccbca6c894407142fbee174d8a73de39e61bc0ca16b2d",
    10: "913e5d7577f35483f736a3e359e7cf54b3c3ccdd96373b0f2478761962c85930",
}


@pytest.mark.parametrize("seed", sorted(SIM_ADVERSARIAL_SHA256))
def test_sim_adversarial_report_bytes_unchanged(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    simload = importlib.import_module("simload")
    config = ScenarioConfig.from_json(simload.scenario("sim_adversarial", seed))
    report = report_to_json_bytes(run_scenario(config))
    assert hashlib.sha256(report).hexdigest() == SIM_ADVERSARIAL_SHA256[seed]
