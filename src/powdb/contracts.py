"""Deterministic contract mini-language: compile, execute, cache.

Contracts are JSON programs so they can travel inside blocks and run
identically on every node:

    statement = ["set", key, expr] | ["add", key, expr] | ["sub", key, expr]
              | ["if", cond, [statements...], [statements...]]
    expr      = integer | ["get", key] | ["arg", i]
              | ["add"|"sub"|"mul", expr, expr]
    cond      = ["eq"|"lt", expr, expr]

A program runs only as compiled: its bounds are checked once, at compile
time, and each statement, condition and expression node costs one step of
STEP_BUDGET. All arithmetic is checked 64-bit signed; any error discards
every write of the execution. A contract is addressed by the SHA-256 of its
canonical JSON.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from powdb.wire import canonical_json

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

MAX_NESTING = 32
MAX_STATEMENTS = 1024
STEP_BUDGET = 100_000

_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_COND_OPS = {"eq": operator.eq, "lt": operator.lt}


class ExecReason(Enum):
    OVERFLOW = "Overflow"
    STEP_LIMIT = "StepLimit"
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
    run: Callable  # run(ctx): the whole program, compiled
    arg_count: int  # max ["arg", i] index + 1


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
    """Checks each node once and returns a function that ticks, then runs it."""

    def __init__(self):
        self.max_arg = -1
        self.statement_count = 0

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
        if depth > MAX_NESTING:
            raise _malformed(f"nesting depth exceeds {MAX_NESTING}", position)
        if _is_int(node):
            if not INT64_MIN <= node <= INT64_MAX:
                raise _malformed(f"literal {node} outside signed 64-bit range", position)
            def literal(ctx):
                ctx.tick()
                return node
            return literal
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise _malformed("expression must be an integer or an operator list", position)
        op = node[0]
        if op == "get":
            if len(node) != 2:
                raise _malformed('["get", key] takes one key', position)
            key = self.check_key(node[1], position)
            def get(ctx):
                ctx.tick()
                return ctx.read(key)
            return get
        if op == "arg":
            if len(node) != 2 or not _is_int(node[1]) or node[1] < 0:
                raise _malformed('["arg", i] takes one non-negative index', position)
            index = node[1]
            self.max_arg = max(self.max_arg, index)
            def arg(ctx):  # execute() has checked that every index is supplied
                ctx.tick()
                return ctx.args[index]
            return arg
        if op in _ARITH:
            if len(node) != 3:
                raise _malformed(f'["{op}", a, b] takes two operands', position)
            a = self.expr(node[1], f"{position}[1]", depth + 1)
            b = self.expr(node[2], f"{position}[2]", depth + 1)
            apply = _ARITH[op]
            def arith(ctx):
                ctx.tick()
                return _checked(apply(a(ctx), b(ctx)))
            return arith
        raise _malformed(f"unknown expression operator {op!r}", position)

    def cond(self, node, position: str, depth: int):
        if (not isinstance(node, list) or len(node) != 3
                or not isinstance(node[0], str) or node[0] not in _COND_OPS):
            raise _malformed('condition must be ["eq"|"lt", expr, expr]', position)
        a = self.expr(node[1], f"{position}[1]", depth + 1)
        b = self.expr(node[2], f"{position}[2]", depth + 1)
        compare = _COND_OPS[node[0]]
        def test(ctx):
            ctx.tick()
            return compare(a(ctx), b(ctx))
        return test

    def statement(self, node, position: str, depth: int):
        self.statement_count += 1
        if self.statement_count > MAX_STATEMENTS:
            raise _malformed(f"more than {MAX_STATEMENTS} statements", position)
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise _malformed("statement must be an operator list", position)
        op = node[0]
        if op in ("set", "add", "sub"):
            if len(node) != 3:
                raise _malformed(f'["{op}", key, expr] takes a key and an expression', position)
            key = self.check_key(node[1], position)
            value = self.expr(node[2], f"{position}[2]", depth + 1)
            if op == "set":
                def assign(ctx):
                    ctx.tick()
                    ctx.writes[key] = value(ctx)
                return assign
            apply = _ARITH[op]
            def update(ctx):
                ctx.tick()
                ctx.writes[key] = _checked(apply(ctx.read(key), value(ctx)))
            return update
        if op == "if":
            if len(node) != 4:
                raise _malformed('["if", cond, then, else] takes three parts', position)
            test = self.cond(node[1], f"{position}[1]", depth + 1)
            then = self.block(node[2], f"{position}[2]", depth + 1)
            orelse = self.block(node[3], f"{position}[3]", depth + 1)
            def branch(ctx):
                ctx.tick()
                (then if test(ctx) else orelse)(ctx)
            return branch
        raise _malformed(f"unknown statement operator {op!r}", position)

    def block(self, node, position: str, depth: int):
        if not isinstance(node, list):
            raise _malformed("statement block must be a list", position)
        statements = [self.statement(stmt, f"{position}[{i}]", depth)
                      for i, stmt in enumerate(node)]
        def run(ctx):
            for statement in statements:
                statement(ctx)
        return run


def compile_contract(source) -> CompiledContract:
    """Check a source program, compile it and derive its content address.

    Raises ContractError(MalformedSource) with the offending position.
    """
    compiler = _Compiler()
    run = compiler.block(source, "$", 1)
    return CompiledContract(contract_id_for(source), run, compiler.max_arg + 1)


class _ExecContext:
    def __init__(self, args, read_base):
        self.args = args
        self.read_base = read_base  # committed state: key -> int | None
        self.writes: dict[str, int] = {}
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > STEP_BUDGET:
            raise ContractError(ExecReason.STEP_LIMIT,
                                f"exceeded {STEP_BUDGET} evaluated nodes")

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
    contract.run(ctx)
    for key, value in ctx.writes.items():
        write_state(key, value)
    return dict(ctx.writes)


@dataclass
class ContractCache:
    """Compiled-form cache; a hit provably skips compilation (see counters)."""

    entries: dict[str, CompiledContract] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    compiles: int = 0

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "compiles": self.compiles}


def cached_lookup(cache: ContractCache, contract_id: str, source_provider) -> CompiledContract:
    """Fetch the compiled form, compiling at most once per distinct id.

    `source_provider(contract_id)` returns the parsed source or None; a None
    raises ContractNotFound.
    """
    hit = cache.entries.get(contract_id)
    if hit is not None:
        cache.hits += 1
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
    cache.entries[contract_id] = compiled
    return compiled
