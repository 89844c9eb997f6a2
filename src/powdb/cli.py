"""Command line: run a node, talk to one as a client, run simulations.

Exit codes: 0 ok, 2 bad configuration, 3 network failure, 4 store failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import socket
import sys
import time
from pathlib import Path

from powdb.chain import ChainParams
from powdb.node import BadConfigError, NetworkStartupError, NodeConfig, NodeRuntime
from powdb.store import StoreError
from powdb.transport import parse_hostport
from powdb.wire import (
    EncodingError,
    NodeIdentity,
    ProtocolError,
    QUERY,
    RESPONSE,
    TX,
    decode_envelope,
    deframe,
    frame,
    sign_envelope,
    socket_read_exact,
    verify_envelope,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_NETWORK = 3
EXIT_STORE = 4


def client_request(addr: str, kind: str, payload, timeout: float = 300.0) -> dict:
    """Send one signed request and wait for the node's RESPONSE payload."""
    identity = NodeIdentity.generate()
    env = sign_envelope(kind, int(time.time() * 1000), payload, identity)
    sock = socket.create_connection(parse_hostport(addr), timeout=timeout)
    sock.settimeout(timeout)
    try:
        sock.sendall(frame(env.encode()))
        read_exact = socket_read_exact(sock)
        while True:
            raw = deframe(read_exact)
            if raw is None:
                raise ConnectionError("node closed the connection without responding")
            response = decode_envelope(raw)
            if response is None or not verify_envelope(response):
                raise ConnectionError("node sent an unverifiable envelope")
            if response.kind == RESPONSE:
                try:
                    return response.payload
                except EncodingError:
                    raise ConnectionError("node sent a payload that does not parse") from None
    finally:
        sock.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="powdb")
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run a database node")
    node_sub = node.add_subparsers(dest="node_command", required=True)
    run = node_sub.add_parser("run", help="start the node and serve until interrupted")
    run.add_argument("--listen", required=True, metavar="H:P")
    run.add_argument("--peer", action="append", default=[], metavar="H:P",
                     help="bootstrap peer, repeatable")
    run.add_argument("--db", required=True, metavar="PATH")
    run.add_argument("--difficulty", type=int, default=ChainParams.initial_difficulty,
                     help="initial proof-of-work bits")
    run.add_argument("--min-difficulty", type=int, default=ChainParams.min_difficulty)
    run.add_argument("--max-difficulty", type=int, default=ChainParams.max_difficulty)
    run.add_argument("--target-interval", type=int,
                     default=ChainParams.target_block_interval_ms, metavar="MS",
                     help="retarget goal for the time between blocks")
    run.add_argument("--key", default=None, metavar="PATH",
                     help="identity key file, generated when missing")
    run.add_argument("--no-mine", action="store_true")

    client = sub.add_parser("client", help="talk to a running node")
    client.add_argument("--node", required=True, metavar="H:P")
    client.add_argument("--timeout", type=float, default=300.0)
    client_sub = client.add_subparsers(dest="client_command", required=True)
    put = client_sub.add_parser("put", help="store a raw string in a new block")
    put.add_argument("data")
    deploy = client_sub.add_parser("deploy", help="deploy a contract source file")
    deploy.add_argument("file")
    call = client_sub.add_parser("call", help="invoke a deployed contract")
    call.add_argument("contract_id")
    call.add_argument("--arg", action="append", type=int, default=[])
    client_sub.add_parser("chain", help="fetch the whole chain")
    block = client_sub.add_parser("block", help="fetch one block")
    block.add_argument("index", type=int)
    state = client_sub.add_parser("state", help="read one contract state cell")
    state.add_argument("contract_id")
    state.add_argument("key")
    client_sub.add_parser("stats", help="node statistics")

    sim = sub.add_parser("sim", help="run a deterministic multi-node scenario")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser("run")
    sim_run.add_argument("scenario", metavar="SCENARIO.json")
    sim_run.add_argument("--seed", type=int, default=None,
                         help="overrides the scenario's seed")
    sim_run.add_argument("--out", required=True, metavar="REPORT.json")

    return parser


def _cmd_node_run(args) -> int:
    params = ChainParams(
        target_block_interval_ms=args.target_interval,
        initial_difficulty=args.difficulty,
        min_difficulty=args.min_difficulty,
        max_difficulty=args.max_difficulty,
    )
    config = NodeConfig(
        listen_addr=args.listen,
        peers=args.peer,
        db_path=args.db,
        key_path=args.key,
        params=params,
        mine_enabled=not args.no_mine,
    )
    try:
        runtime = NodeRuntime(config)
    except BadConfigError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NetworkStartupError as exc:
        print(f"network failure: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except StoreError as exc:
        print(f"store failure: {exc}", file=sys.stderr)
        return EXIT_STORE
    runtime.run_forever()
    return EXIT_OK


def _cmd_client(args) -> int:
    try:
        parse_hostport(args.node)
        if not 0 < args.timeout < math.inf:  # NaN compares false too
            raise ValueError(f"--timeout must be a positive finite number of seconds, "
                             f"got {args.timeout}")
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    command = args.client_command
    if command == "put":
        kind, payload = TX, {"tx": {"kind": "raw", "data": args.data}}
    elif command == "deploy":
        try:
            with open(args.file) as handle:
                source = json.load(handle)
        except (OSError, ValueError, RecursionError) as exc:  # undecodable, or too deep
            print(f"bad contract file: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        kind, payload = TX, {"tx": {"kind": "deploy", "contract": source}}
    elif command == "call":
        kind, payload = TX, {"tx": {"kind": "call", "contract_id": args.contract_id,
                                    "args": args.arg}}
    elif command == "chain":
        kind, payload = QUERY, {"what": "chain", "params": {}}
    elif command == "block":
        kind, payload = QUERY, {"what": "block", "params": {"index": args.index}}
    elif command == "state":
        kind, payload = QUERY, {"what": "state",
                                "params": {"contract_id": args.contract_id,
                                           "key": args.key}}
    else:  # stats
        kind, payload = QUERY, {"what": "stats", "params": {}}

    try:
        result = client_request(args.node, kind, payload, timeout=args.timeout)
    except (EncodingError, RecursionError) as exc:  # only a deployed contract can raise these
        print(f"bad contract file: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (OSError, ConnectionError, ProtocolError) as exc:
        print(f"network failure: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sim_run(args) -> int:
    # imported here, so a node or client command does not load the simulator
    from powdb.sim import ConfigError, ScenarioConfig, run_scenario, write_report
    try:
        with open(args.scenario) as handle:
            scenario = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # undecodable, or too deep
        print(f"bad scenario file: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        config = ScenarioConfig.from_json(scenario)
    except ConfigError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.seed is not None:
        config.seed = args.seed
    out = Path(args.out)
    try:  # the files write_report writes, checked before the run it would waste
        out.parent.mkdir(parents=True, exist_ok=True)
        for path in (out, out.with_suffix(".csv")):
            open(path, "a").close()
    except OSError as exc:
        print(f"bad configuration: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    report = run_scenario(config)
    json_path, csv_path = write_report(report, args.out)
    consistency = report["consistency"]["c"]
    print(f"report written to {json_path} and {csv_path}")
    print(f"committed {report['committed_tx_count']} txs, "
          f"consistency {consistency}, forks {report['fork_count']}, "
          f"invalid blocks rejected {report['rejected_invalid_blocks']}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    if args.command == "node":
        return _cmd_node_run(args)
    if args.command == "client":
        return _cmd_client(args)
    return _cmd_sim_run(args)


if __name__ == "__main__":
    sys.exit(main())
