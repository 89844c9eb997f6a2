"""Deterministic contract mini-language: compile, execute, cache.

Contracts are JSON programs so they can travel inside blocks and run
identically on every node:

    statement = ["set", key, expr] | ["add", key, expr] | ["sub", key, expr]
              | ["if", cond, [statements...], [statements...]]
    expr      = integer | ["get", key] | ["arg", i]
              | ["add"|"sub"|"mul", expr, expr]
    cond      = ["eq"|"lt", expr, expr]

A program runs only as compiled: the compile checks every node once, with
its bounds, and keeps the checked program as nested tuples of operator
strings, keys and integers, which one evaluator walks. It holds at most
STEP_BUDGET statement, condition and expression nodes, both branches of
every `if` counted; with no loops and no calls, a run evaluates each node at
most once, so nothing is counted at run time. The cyclic collector untracks
a tuple that holds only untracked items, one level of nesting a collection,
so a kept form soon costs it nothing.
All arithmetic is checked 64-bit signed; any error discards every write of
the execution. A contract is addressed by the SHA-256 of its canonical JSON.
"""

from __future__ import annotations

import hashlib
import operator
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from enum import Enum

from powdb.wire import canonical_json

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

MAX_NESTING = 32
MAX_STATEMENTS = 1024
STEP_BUDGET = 100_000
CACHE_ENTRIES = 32  # compiled forms a ContractCache keeps, least recently used dropped

_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_COND_OPS = {"eq": operator.eq, "lt": operator.lt}


class ExecReason(Enum):
    OVERFLOW = "Overflow"
    BAD_ARG_INDEX = "BadArgIndex"
    MALFORMED_SOURCE = "MalformedSource"


class ContractError(Exception):
    def __init__(self, reason: ExecReason, detail: str = "", position: str = ""):
        self.reason = reason
        self.detail = detail
        self.position = position
        where = f" at {position}" if position else ""
        super().__init__(f"{reason.value}{where}: {detail}" if detail else f"{reason.value}{where}")


class ContractNotFound(KeyError):
    """No source is available for the requested contract id."""


@dataclass(frozen=True)
class CompiledContract:
    contract_id: str  # 64-char hex, SHA-256 of the canonical source
    run: tuple  # the checked statements, as nested tuples (see _run)
    arg_count: int  # max ["arg", i] index + 1
    # the canonical source the id hashes, for a deploy to store; not cached
    source_json: bytes | None = field(default=None, repr=False, compare=False)


def contract_id_for(source) -> str:
    return hashlib.sha256(canonical_json(source)).hexdigest()


def _malformed(detail: str, position: str):
    return ContractError(ExecReason.MALFORMED_SOURCE, detail, position)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(value: int) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise ContractError(ExecReason.OVERFLOW, f"{value} outside signed 64-bit range")
    return value


class _Compiler:
    """Checks each node once and returns it as a tuple. The compile stops at
    the first node past STEP_BUDGET, so a program over the budget costs no
    more to refuse than one at it."""

    def __init__(self):
        self.max_arg = -1
        self.statement_count = 0
        self.node_count = 0

    def count_node(self, position: str) -> None:
        self.node_count += 1
        if self.node_count > STEP_BUDGET:
            raise _malformed(f"more than {STEP_BUDGET} nodes", position)

    def check_key(self, key, position: str) -> str:
        if not isinstance(key, str):
            raise _malformed(f"key must be a string, got {type(key).__name__}", position)
        if "\x1f" in key:
            raise _malformed("key must not contain the 0x1f byte", position)
        try:
            key.encode("utf-8")  # a lone surrogate, which JSON can carry, does not
        except UnicodeEncodeError:
            raise _malformed("key must be Unicode text that encodes as UTF-8", position) from None
        return key

    def expr(self, node, position: str, depth: int):
        self.count_node(position)
        if depth > MAX_NESTING:
            raise _malformed(f"nesting depth exceeds {MAX_NESTING}", position)
        if _is_int(node):
            if not INT64_MIN <= node <= INT64_MAX:
                raise _malformed(f"literal {node} outside signed 64-bit range", position)
            return node
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise _malformed("expression must be an integer or an operator list", position)
        op = node[0]
        if op == "get":
            if len(node) != 2:
                raise _malformed('["get", key] takes one key', position)
            return (op, self.check_key(node[1], position))
        if op == "arg":
            if len(node) != 2 or not _is_int(node[1]) or node[1] < 0:
                raise _malformed('["arg", i] takes one non-negative index', position)
            self.max_arg = max(self.max_arg, node[1])
            return (op, node[1])
        if op in _ARITH:
            if len(node) != 3:
                raise _malformed(f'["{op}", a, b] takes two operands', position)
            return (op, self.expr(node[1], f"{position}[1]", depth + 1),
                    self.expr(node[2], f"{position}[2]", depth + 1))
        raise _malformed(f"unknown expression operator {op!r}", position)

    def cond(self, node, position: str, depth: int):
        self.count_node(position)
        if (not isinstance(node, list) or len(node) != 3
                or not isinstance(node[0], str) or node[0] not in _COND_OPS):
            raise _malformed('condition must be ["eq"|"lt", expr, expr]', position)
        return (node[0], self.expr(node[1], f"{position}[1]", depth + 1),
                self.expr(node[2], f"{position}[2]", depth + 1))

    def statement(self, node, position: str, depth: int):
        self.count_node(position)
        self.statement_count += 1
        if self.statement_count > MAX_STATEMENTS:
            raise _malformed(f"more than {MAX_STATEMENTS} statements", position)
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise _malformed("statement must be an operator list", position)
        op = node[0]
        if op in ("set", "add", "sub"):
            if len(node) != 3:
                raise _malformed(f'["{op}", key, expr] takes a key and an expression', position)
            return (op, self.check_key(node[1], position),
                    self.expr(node[2], f"{position}[2]", depth + 1))
        if op == "if":
            if len(node) != 4:
                raise _malformed('["if", cond, then, else] takes three parts', position)
            return (op, self.cond(node[1], f"{position}[1]", depth + 1),
                    self.block(node[2], f"{position}[2]", depth + 1),
                    self.block(node[3], f"{position}[3]", depth + 1))
        raise _malformed(f"unknown statement operator {op!r}", position)

    def block(self, node, position: str, depth: int):
        if not isinstance(node, list):
            raise _malformed("statement block must be a list", position)
        return tuple(self.statement(stmt, f"{position}[{i}]", depth)
                     for i, stmt in enumerate(node))


def compile_contract(source) -> CompiledContract:
    """Check a source program, keep it as a tuple tree and derive its content
    address from its canonical JSON, which the result carries too. Raises
    ContractError(MalformedSource) with the offending position, before any
    encode."""
    compiler = _Compiler()
    run = compiler.block(source, "$", 1)
    encoded = canonical_json(source)
    return CompiledContract(hashlib.sha256(encoded).hexdigest(), run,
                            compiler.max_arg + 1, encoded)


def _value(node, ctx) -> int:
    """Evaluate a checked expression; a literal is its one non-tuple node."""
    if type(node) is not tuple:
        return node
    op = node[0]
    if op == "get":
        return ctx.read(node[1])
    if op == "arg":  # execute() has checked that every index is supplied
        return ctx.args[node[1]]
    return _checked(_ARITH[op](_value(node[1], ctx), _value(node[2], ctx)))


def _run(block, ctx) -> None:
    """Run a checked statement block; MAX_NESTING bounds the recursion."""
    for statement in block:
        op = statement[0]
        if op == "if":
            _, (compare, a, b), then, orelse = statement
            _run(then if _COND_OPS[compare](_value(a, ctx), _value(b, ctx)) else orelse, ctx)
        elif op == "set":
            ctx.writes[statement[1]] = _value(statement[2], ctx)
        else:
            key = statement[1]
            ctx.writes[key] = _checked(_ARITH[op](ctx.read(key), _value(statement[2], ctx)))


class _ExecContext:
    def __init__(self, args, read_base):
        self.args = args
        self.read_base = read_base  # committed state: key -> int | None
        self.writes: dict[str, int] = {}

    def read(self, key: str) -> int:
        if key in self.writes:
            return self.writes[key]
        value = self.read_base(key)
        return 0 if value is None else value


def execute(contract: CompiledContract, args: list[int], read_state,
            write_state) -> dict[str, int]:
    """Run the program; all writes land or none do.

    `read_state(key)` returns the committed value or None; `write_state(key,
    value)` is called once per written key only after the whole program
    succeeded. Returns the write set. Raises ContractError, leaving state
    untouched.
    """
    if len(args) < contract.arg_count:
        raise ContractError(ExecReason.BAD_ARG_INDEX,
                            f"contract needs {contract.arg_count} args, got {len(args)}")
    ctx = _ExecContext(args, read_state)
    _run(contract.run, ctx)
    for key, value in ctx.writes.items():
        write_state(key, value)
    return dict(ctx.writes)


@dataclass
class ContractCache:
    """Compiled-form cache; a hit provably skips compilation (see counters).
    It keeps the CACHE_ENTRIES forms used last; a dropped one recompiles."""

    entries: OrderedDict[str, CompiledContract] = field(default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0
    compiles: int = 0

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "compiles": self.compiles}


def cached_lookup(cache: ContractCache, contract_id: str, source_provider) -> CompiledContract:
    """Fetch the compiled form, compiling at most once per id while cached.

    `source_provider(contract_id)` returns the parsed source or None; a None
    raises ContractNotFound.
    """
    hit = cache.entries.get(contract_id)
    if hit is not None:
        cache.hits += 1
        cache.entries.move_to_end(contract_id)
        return hit
    cache.misses += 1
    source = source_provider(contract_id)
    if source is None:
        raise ContractNotFound(contract_id)
    compiled = compile_contract(source)
    if compiled.contract_id != contract_id:
        raise ContractError(ExecReason.MALFORMED_SOURCE,
                            f"source hashes to {compiled.contract_id[:16]}..., "
                            f"not the requested id")
    cache.compiles += 1
    cache.entries[contract_id] = compiled = replace(compiled, source_json=None)
    if len(cache.entries) > CACHE_ENTRIES:
        cache.entries.popitem(last=False)
    return compiled
