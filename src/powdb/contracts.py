"""Deterministic contract mini-language: compile, execute, cache.

Contracts are JSON programs so they can travel inside blocks and run
identically on every node:

    statement = ["set", key, expr] | ["add", key, expr] | ["sub", key, expr]
              | ["if", cond, [statements...], [statements...]]
    expr      = integer | ["get", key] | ["arg", i]
              | ["add"|"sub"|"mul", expr, expr]
    cond      = ["eq"|"lt", expr, expr]

All arithmetic is checked 64-bit signed; any error discards every write of
the execution. A contract is addressed by the SHA-256 of its canonical JSON.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from enum import Enum

from powdb.wire import canonical_json

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

MAX_NESTING = 32
MAX_STATEMENTS = 1024
STEP_BUDGET = 100_000

_BIN_OPS = ("add", "sub", "mul")
_COND_OPS = ("eq", "lt")


class ExecReason(Enum):
    OVERFLOW = "Overflow"
    DEPTH_EXCEEDED = "DepthExceeded"
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
    statements: tuple  # validated program
    arg_count: int  # max ["arg", i] index + 1


def contract_id_for(source) -> str:
    return hashlib.sha256(canonical_json(source)).hexdigest()


def _malformed(detail: str, position: str):
    return ContractError(ExecReason.MALFORMED_SOURCE, detail, position)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Validator:
    def __init__(self):
        self.max_arg = -1
        self.statement_count = 0

    def check_key(self, key, position: str) -> None:
        if not isinstance(key, str):
            raise _malformed(f"key must be a string, got {type(key).__name__}", position)
        if "\x1f" in key:
            raise _malformed("key must not contain the 0x1f byte", position)

    def expr(self, node, position: str, depth: int) -> None:
        if depth > MAX_NESTING:
            raise _malformed(f"nesting depth exceeds {MAX_NESTING}", position)
        if _is_int(node):
            if not INT64_MIN <= node <= INT64_MAX:
                raise _malformed(f"literal {node} outside signed 64-bit range", position)
            return
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise _malformed("expression must be an integer or an operator list", position)
        op = node[0]
        if op == "get":
            if len(node) != 2:
                raise _malformed('["get", key] takes one key', position)
            self.check_key(node[1], position)
        elif op == "arg":
            if len(node) != 2 or not _is_int(node[1]) or node[1] < 0:
                raise _malformed('["arg", i] takes one non-negative index', position)
            self.max_arg = max(self.max_arg, node[1])
        elif op in _BIN_OPS:
            if len(node) != 3:
                raise _malformed(f'["{op}", a, b] takes two operands', position)
            self.expr(node[1], f"{position}[1]", depth + 1)
            self.expr(node[2], f"{position}[2]", depth + 1)
        else:
            raise _malformed(f"unknown expression operator {op!r}", position)

    def cond(self, node, position: str, depth: int) -> None:
        if depth > MAX_NESTING:
            raise _malformed(f"nesting depth exceeds {MAX_NESTING}", position)
        if (not isinstance(node, list) or len(node) != 3
                or node[0] not in _COND_OPS):
            raise _malformed('condition must be ["eq"|"lt", expr, expr]', position)
        self.expr(node[1], f"{position}[1]", depth + 1)
        self.expr(node[2], f"{position}[2]", depth + 1)

    def statement(self, node, position: str, depth: int) -> None:
        if depth > MAX_NESTING:
            raise _malformed(f"nesting depth exceeds {MAX_NESTING}", position)
        self.statement_count += 1
        if self.statement_count > MAX_STATEMENTS:
            raise _malformed(f"more than {MAX_STATEMENTS} statements", position)
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise _malformed("statement must be an operator list", position)
        op = node[0]
        if op in ("set", "add", "sub"):
            if len(node) != 3:
                raise _malformed(f'["{op}", key, expr] takes a key and an expression', position)
            self.check_key(node[1], position)
            self.expr(node[2], f"{position}[2]", depth + 1)
        elif op == "if":
            if len(node) != 4:
                raise _malformed('["if", cond, then, else] takes three parts', position)
            self.cond(node[1], f"{position}[1]", depth + 1)
            self.block(node[2], f"{position}[2]", depth + 1)
            self.block(node[3], f"{position}[3]", depth + 1)
        else:
            raise _malformed(f"unknown statement operator {op!r}", position)

    def block(self, node, position: str, depth: int) -> None:
        if not isinstance(node, list):
            raise _malformed("statement block must be a list", position)
        for i, stmt in enumerate(node):
            self.statement(stmt, f"{position}[{i}]", depth)


def compile_contract(source) -> CompiledContract:
    """Validate a source program and derive its content address.

    Raises ContractError(MalformedSource) with the offending position.
    """
    validator = _Validator()
    validator.block(source, "$", 1)
    return CompiledContract(
        contract_id=contract_id_for(source),
        statements=_freeze(source),
        arg_count=validator.max_arg + 1,
    )


def _freeze(node):
    if isinstance(node, list):
        return tuple(_freeze(item) for item in node)
    return node


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


def _checked(value: int) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise ContractError(ExecReason.OVERFLOW, f"{value} outside signed 64-bit range")
    return value


def _eval(node, ctx: _ExecContext, depth: int) -> int:
    ctx.tick()
    if depth > MAX_NESTING:
        raise ContractError(ExecReason.DEPTH_EXCEEDED, f"evaluation deeper than {MAX_NESTING}")
    if _is_int(node):
        return node
    op = node[0]
    if op == "get":
        return ctx.read(node[1])
    if op == "arg":
        index = node[1]
        if index >= len(ctx.args):
            raise ContractError(ExecReason.BAD_ARG_INDEX,
                                f"arg {index} with only {len(ctx.args)} supplied")
        return ctx.args[index]
    a = _eval(node[1], ctx, depth + 1)
    b = _eval(node[2], ctx, depth + 1)
    if op == "add":
        return _checked(a + b)
    if op == "sub":
        return _checked(a - b)
    return _checked(a * b)  # "mul": validation admits nothing else


def _test(cond, ctx: _ExecContext, depth: int) -> bool:
    ctx.tick()
    a = _eval(cond[1], ctx, depth + 1)
    b = _eval(cond[2], ctx, depth + 1)
    return a == b if cond[0] == "eq" else a < b


def _run_block(stmts, ctx: _ExecContext, depth: int) -> None:
    for stmt in stmts:
        ctx.tick()
        if depth > MAX_NESTING:
            raise ContractError(ExecReason.DEPTH_EXCEEDED,
                                f"execution deeper than {MAX_NESTING}")
        op = stmt[0]
        if op == "set":
            ctx.writes[stmt[1]] = _eval(stmt[2], ctx, depth + 1)
        elif op == "add":
            ctx.writes[stmt[1]] = _checked(ctx.read(stmt[1]) + _eval(stmt[2], ctx, depth + 1))
        elif op == "sub":
            ctx.writes[stmt[1]] = _checked(ctx.read(stmt[1]) - _eval(stmt[2], ctx, depth + 1))
        else:  # "if"
            branch = stmt[2] if _test(stmt[1], ctx, depth + 1) else stmt[3]
            _run_block(branch, ctx, depth + 1)


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
    _run_block(contract.statements, ctx, 1)
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
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "compiles": self.compiles}


def cached_lookup(cache: ContractCache, contract_id: str, source_provider) -> CompiledContract:
    """Fetch the compiled form, compiling at most once per distinct id.

    `source_provider(contract_id)` returns the parsed source or None; a None
    raises ContractNotFound.
    """
    with cache._lock:
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
    with cache._lock:
        cache.compiles += 1
        cache.entries[contract_id] = compiled
    return compiled
