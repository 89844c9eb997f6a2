"""End-to-end command line checks, run as real subprocesses."""

import json
import signal
import socket
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

COUNTER = [["add", "count", 1], ["add", "total", ["arg", 0]]]


def powdb(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "powdb.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


class NodeProc:
    def __init__(self, tmp_path, name, peers=()):
        args = [sys.executable, "-m", "powdb.cli", "node", "run",
                "--listen", "127.0.0.1:0",
                "--db", str(tmp_path / f"{name}.db"),
                "--key", str(tmp_path / f"{name}.key"),
                "--difficulty", "6", "--min-difficulty", "4",
                "--max-difficulty", "10", "--target-interval", "2000"]
        for peer in peers:
            args += ["--peer", peer]
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        assert "listening on" in line, line
        self.addr = line.split("listening on ")[1].split(",")[0].strip()

    def stop(self):
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture
def node(tmp_path):
    proc = NodeProc(tmp_path, "solo")
    yield proc
    proc.stop()


class TestSimCli:
    def test_run_writes_report_and_csv(self, tmp_path):
        out = tmp_path / "report.json"
        result = powdb("sim", "run", str(SCENARIOS / "baseline.json"),
                       "--seed", "9", "--out", str(out))
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["seed"] == 9
        assert out.with_suffix(".csv").exists()

    def test_seed_flag_is_reproducible(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        r1 = powdb("sim", "run", str(SCENARIOS / "baseline.json"),
                   "--seed", "4", "--out", str(first))
        r2 = powdb("sim", "run", str(SCENARIOS / "baseline.json"),
                   "--seed", "4", "--out", str(second))
        assert r1.returncode == 0 and r2.returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"node_count": 0, "duration_ms": 5}')
        result = powdb("sim", "run", str(bad), "--out", str(tmp_path / "r.json"))
        assert result.returncode == 2

    def test_mistyped_scenario_value_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"node_count": 3, "duration_ms": "5000"}')
        result = powdb("sim", "run", str(bad), "--out", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert "bad scenario" in result.stderr

    def test_scenario_file_not_utf8_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"node_count": \xff}')
        result = powdb("sim", "run", str(bad), "--out", str(tmp_path / "r.json"))
        assert result.returncode == 2
        assert "bad scenario file" in result.stderr

    def test_shipped_scenarios_parse(self, tmp_path):
        from powdb.sim import ScenarioConfig

        for path in sorted(SCENARIOS.glob("*.json")):
            text = json.loads(path.read_text())
            config = ScenarioConfig.from_json(text)
            # the file states every key, so writing the config back gives the file
            assert json.loads(json.dumps(config.to_json())) == text, path.name


class TestNodeAndClientCli:
    def test_put_then_stats_and_chain(self, node):
        result = powdb("client", "--node", node.addr, "put", "hello-cli")
        assert result.returncode == 0, result.stderr
        response = json.loads(result.stdout)
        assert response["ok"] is True
        index = response["result"]["block_index"]

        stats = json.loads(powdb("client", "--node", node.addr, "stats").stdout)
        assert stats["result"]["count"] == index + 1

        chain = json.loads(powdb("client", "--node", node.addr, "chain").stdout)
        assert len(chain["result"]["blocks"]) == index + 1
        assert "hello-cli" in chain["result"]["blocks"][index]["data"]

        block = json.loads(powdb("client", "--node", node.addr,
                                 "block", str(index)).stdout)
        assert block["result"]["block"]["hash"] == response["result"]["block_hash"]

    def test_deploy_call_state(self, node, tmp_path):
        source = tmp_path / "counter.json"
        source.write_text(json.dumps(COUNTER))
        deployed = json.loads(powdb("client", "--node", node.addr,
                                    "deploy", str(source)).stdout)
        assert deployed["ok"] is True

        from powdb.contracts import contract_id_for
        cid = contract_id_for(COUNTER)
        called = json.loads(powdb("client", "--node", node.addr, "call", cid,
                                  "--arg", "41").stdout)
        assert called["ok"] is True

        state = json.loads(powdb("client", "--node", node.addr,
                                 "state", cid, "total").stdout)
        assert state == {"ok": True, "what": "state", "result": {"value": 41}}

        missing = json.loads(powdb("client", "--node", node.addr,
                                   "state", cid, "nope").stdout)
        assert missing["ok"] is False and missing["error"] == "not-found"

    def test_two_nodes_replicate_via_cli(self, tmp_path):
        a = NodeProc(tmp_path, "a")
        b = NodeProc(tmp_path, "b", peers=[a.addr])
        try:
            put = json.loads(powdb("client", "--node", b.addr,
                                   "put", "replicated").stdout)
            assert put["ok"] is True
            index = put["result"]["block_index"]
            deadline = time.monotonic() + 30
            count = 0
            while time.monotonic() < deadline:
                stats = json.loads(powdb("client", "--node", a.addr, "stats").stdout)
                count = stats["result"]["count"]
                if count == index + 1:
                    break
                time.sleep(0.2)
            assert count == index + 1
        finally:
            a.stop()
            b.stop()

    def test_client_against_dead_node_exits_3(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        result = powdb("client", "--node", f"127.0.0.1:{free_port}", "stats")
        assert result.returncode == 3

    def test_busy_listen_addr_exits_3(self, tmp_path, node):
        result = powdb("node", "run", "--listen", node.addr,
                       "--db", str(tmp_path / "dup.db"))
        assert result.returncode == 3

    def test_bad_db_path_exits_4(self, tmp_path):
        result = powdb("node", "run", "--listen", "127.0.0.1:0",
                       "--db", str(tmp_path / "no" / "such" / "dir" / "x.db"))
        assert result.returncode == 4

    def test_store_of_another_layout_exits_4(self, tmp_path):
        db = tmp_path / "old.db"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.close()
        before = db.read_bytes()
        result = powdb("node", "run", "--listen", "127.0.0.1:0", "--db", str(db))
        assert result.returncode == 4
        assert "store failure" in result.stderr and "layout" in result.stderr
        assert db.read_bytes() == before

    def test_bad_difficulty_exits_2(self, tmp_path):
        result = powdb("node", "run", "--listen", "127.0.0.1:0",
                       "--db", str(tmp_path / "x.db"), "--difficulty", "40")
        assert result.returncode == 2

    @pytest.mark.parametrize("peer", ["nohost", "127.0.0.1:notaport"])
    def test_malformed_peer_exits_2(self, tmp_path, peer):
        result = powdb("node", "run", "--listen", "127.0.0.1:0",
                       "--db", str(tmp_path / "x.db"), "--peer", peer, timeout=60)
        assert result.returncode == 2
        assert "bad configuration" in result.stderr and peer in result.stderr

    @pytest.mark.parametrize("content", [None, b"[[\"add\", ", b"\xff\xfe"],
                             ids=["missing", "not_json", "not_utf8"])
    def test_unreadable_contract_file_exits_2(self, tmp_path, content):
        path = tmp_path / "contract.json"
        if content is not None:
            path.write_bytes(content)
        # the file is read before any connection, so no node is needed
        result = powdb("client", "--node", "127.0.0.1:1", "deploy", str(path), timeout=60)
        assert result.returncode == 2
        assert result.stderr.startswith("bad contract file: ")
        assert "Traceback" not in result.stderr

    def test_corrupt_key_file_exits_2(self, tmp_path):
        key = tmp_path / "bad.key"
        key.write_text("not hex at all")
        result = powdb("node", "run", "--listen", "127.0.0.1:0",
                       "--db", str(tmp_path / "x.db"), "--key", str(key))
        assert result.returncode == 2
