"""Contract language: compilation, execution semantics, atomicity, cache."""

import gc
import random

import pytest

from powdb import contracts
from powdb.contracts import (
    ContractCache,
    ContractError,
    ContractNotFound,
    ExecReason,
    INT64_MAX,
    cached_lookup,
    compile_contract,
    contract_id_for,
    execute,
)

# Frozen from an independent pass: sha256 of b'[["set","x",5]]'
SET_X_5_ID = "32404b5257f038f3b014aa56ab6dcbf2367e0282b0252152db18afb2c5e587b0"


def run(source, args=(), state=None):
    """Compile + execute against a dict; returns (state, error reason)."""
    state = dict(state or {})
    contract = compile_contract(source)
    try:
        execute(contract, list(args), state.get, state.__setitem__)
        return state, None
    except ContractError as exc:
        return state, exc.reason


class TestCompile:
    def test_simple_set(self):
        compiled = compile_contract([["set", "x", 5]])
        assert compiled.arg_count == 0
        assert compiled.contract_id == SET_X_5_ID
        assert compiled.contract_id == contract_id_for([["set", "x", 5]])

    def test_arg_count_is_max_index_plus_one(self):
        compiled = compile_contract([["set", "x", ["arg", 2]]])
        assert compiled.arg_count == 3

    def test_bogus_statement(self):
        with pytest.raises(ContractError) as err:
            compile_contract([["bogus"]])
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.position == "$[0]"

    def test_position_points_into_nesting(self):
        source = [["if", ["eq", 1, 1], [["set", "ok", 1]], [["nope", "x", 1]]]]
        with pytest.raises(ContractError) as err:
            compile_contract(source)
        assert err.value.position == "$[0][3][0]"

    @pytest.mark.parametrize("source", [
        "not a list",
        [1],
        [["set", 5, 1]],
        [["set", "k\x1fey", 1]],
        [["set", "x", ["arg", -1]]],
        [["set", "x", ["get"]]],
        [["set", "x", ["div", 1, 2]]],
        [["if", ["gt", 1, 2], [], []]],
        [["if", ["eq", 1, 2], []]],
        [["set", "x", 2**63]],
        [["set", "x", True]],
        [["set", "x", ["add", 1]]],
    ])
    def test_malformed_shapes(self, source):
        with pytest.raises(ContractError) as err:
            compile_contract(source)
        assert err.value.reason is ExecReason.MALFORMED_SOURCE

    @pytest.mark.parametrize("source,position", [
        ([["set", "\ud800", 1]], "$[0]"),
        ([["add", "a\udfffb", 1]], "$[0]"),
        ([["sub", "\udc00", 1]], "$[0]"),
        ([["set", "x", ["add", 1, ["get", "\ud800"]]]], "$[0][2][2]"),
        ([["if", ["lt", ["get", "\ud800"], 1], [], []]], "$[0][1][1]"),
    ])
    def test_key_that_does_not_encode_as_utf8_is_refused(self, source, position):
        # SQLite cannot bind a lone surrogate, so a state cell could never hold it
        with pytest.raises(ContractError, match="encodes as UTF-8") as err:
            compile_contract(source)
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.position == position

    def test_nesting_depth_limit(self):
        expr = 1
        for _ in range(40):
            expr = ["add", expr, 1]
        with pytest.raises(ContractError) as err:
            compile_contract([["set", "x", expr]])
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert "depth" in err.value.detail

    def test_statement_count_limit(self):
        with pytest.raises(ContractError) as err:
            compile_contract([["set", f"k", 1]] * 1025)
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        compile_contract([["set", "k", 1]] * 1024)  # exactly at the cap is fine

    def test_set_without_expression_is_refused(self):
        with pytest.raises(ContractError) as err:
            compile_contract([["set", "x"]])
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.position == "$[0]"
        assert err.value.detail == '["set", key, expr] takes a key and an expression'

    @staticmethod
    def if_chain(depth):
        body = [["set", "x", 1]]
        for _ in range(depth):
            body = [["if", ["eq", 1, 1], body, []]]
        return body

    def test_if_chain_30_deep_compiles_and_runs(self):
        state, err = run(self.if_chain(30))
        assert (state, err) == ({"x": 1}, None)

    def test_if_chain_31_deep_is_refused_at_its_condition_operand(self):
        # the 31st if sits at depth 31, so its condition's operands sit at 33
        with pytest.raises(ContractError) as err:
            compile_contract(self.if_chain(31))
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.position == "$[0]" + "[2][0]" * 30 + "[1][1]"
        assert err.value.detail == "nesting depth exceeds 32"

    def test_equal_sources_share_id(self):
        assert (compile_contract([["add", "x", 1]]).contract_id
                == compile_contract([["add", "x", 1]]).contract_id)


class TestCollectorPause:
    """compile_contract pauses the cyclic garbage collector while it builds
    the closures and leaves it as it found it, a raise included."""

    @staticmethod
    def set_collector(enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.fixture
    def restore_gc(self):
        was = gc.isenabled()
        yield
        self.set_collector(was)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("source", [[["set", "x", 5]], [["bogus"]]], ids=["compiles", "raises"])
    def test_collector_is_left_as_found(self, restore_gc, monkeypatch, enabled, source):
        self.set_collector(enabled)
        during = []
        real_block = contracts._Compiler.block

        def watched_block(self, *args):
            during.append(gc.isenabled())
            return real_block(self, *args)

        monkeypatch.setattr(contracts._Compiler, "block", watched_block)
        try:
            compile_contract(source)
        except ContractError as err:
            assert err.reason is ExecReason.MALFORMED_SOURCE and source == [["bogus"]]
        else:
            assert source == [["set", "x", 5]]
        assert during == [False]
        assert gc.isenabled() is enabled


class TestExecute:
    def test_set_on_empty_state(self):
        state, err = run([["set", "x", 5]])
        assert err is None
        assert state == {"x": 5}

    def test_overflow_leaves_state_untouched(self):
        state, err = run([["set", "x", INT64_MAX], ["add", "x", 1]])
        assert err is ExecReason.OVERFLOW
        assert state == {}

    def test_if_branches(self):
        source = [["if", ["lt", ["arg", 0], 10], [["set", "lo", 1]], [["set", "hi", 1]]]]
        state, err = run(source, args=[3])
        assert (state, err) == ({"lo": 1}, None)
        state, err = run(source, args=[30])
        assert (state, err) == ({"hi": 1}, None)

    def test_absent_key_reads_as_zero(self):
        state, err = run([["add", "counter", 7], ["sub", "debt", 2]])
        assert err is None
        assert state == {"counter": 7, "debt": -2}

    def test_read_your_writes_within_execution(self):
        state, err = run([["set", "x", 5], ["add", "x", ["get", "x"]]])
        assert err is None
        assert state == {"x": 10}

    def test_reads_committed_state(self):
        state, err = run([["add", "x", 1]], state={"x": 41})
        assert state == {"x": 42}

    def test_arithmetic(self):
        state, err = run([["set", "v", ["mul", ["add", 3, 4], ["sub", 10, 2]]]])
        assert state == {"v": 56}

    def test_mul_overflow(self):
        state, err = run([["set", "v", ["mul", 2**40, 2**40]]], state={"keep": 1})
        assert err is ExecReason.OVERFLOW
        assert state == {"keep": 1}

    def test_bad_arg_index_at_runtime(self):
        contract = compile_contract([["set", "x", ["arg", 1]]])
        state = {}
        with pytest.raises(ContractError) as err:
            execute(contract, [5], state.get, state.__setitem__)
        assert err.value.reason is ExecReason.BAD_ARG_INDEX
        assert state == {}

    def test_step_limit(self):
        # a balanced depth-18 expression has 524,287 nodes, past STEP_BUDGET:
        # it never runs, as its compile stops at the first node past the cap
        expr = 1
        for _ in range(18):
            expr = ["add", expr, expr]
        with pytest.raises(ContractError) as err:
            compile_contract([["set", "x", expr]])
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.detail == f"more than {contracts.STEP_BUDGET} nodes"

    def test_missing_args_rejected_upfront(self):
        contract = compile_contract([["set", "x", ["arg", 3]]])
        with pytest.raises(ContractError) as err:
            execute(contract, [1, 2], {}.get, {}.__setitem__)
        assert err.value.reason is ExecReason.BAD_ARG_INDEX


def sized_expr(nodes):
    """A balanced `add` tree of exactly `nodes` nodes (an odd count), each
    leaf the literal 1."""
    if nodes == 1:
        return 1
    left = (nodes - 1) // 2 | 1
    return ["add", sized_expr(left), sized_expr(nodes - 1 - left)]


class TestSteps:
    """The node cap: each statement, condition and expression node counts
    one against STEP_BUDGET, both branches of an `if` included, so no run
    can take more steps than the budget."""

    @pytest.mark.parametrize("source, args, nodes, after", [
        ([["set", "x", 5]], [], 2, {"x": 5}),
        ([["set", "x", ["get", "y"]]], [], 2, {"x": 1}),
        ([["set", "x", ["arg", 1]]], [4, 5], 2, {"x": 5}),
        ([["set", "x", ["add", 1, 2]]], [], 4, {"x": 3}),
        ([["set", "x", ["sub", ["get", "y"], 2]]], [], 4, {"x": -1}),
        ([["set", "x", ["mul", ["arg", 0], ["add", 2, 3]]]], [4], 6, {"x": 20}),
        ([["set", "x", 1], ["set", "z", 2]], [], 4, {"x": 1, "z": 2}),
        ([["add", "x", 3]], [], 2, {"x": 3}),
        ([["sub", "x", 3], ["sub", "x", 1]], [], 4, {"x": -4}),
        ([["if", ["eq", ["get", "y"], 1], [["set", "x", 1]], [["set", "x", 2], ["set", "z", 3]]]],
         [], 10, {"x": 1}),
        ([["if", ["lt", 5, 2], [["set", "x", 1]], [["set", "x", 2], ["set", "z", 3]]]],
         [], 10, {"x": 2, "z": 3}),
    ], ids=["literal", "get", "arg", "add", "sub", "mul", "set", "add-stmt", "sub-stmt",
            "if-eq", "if-lt"])
    def test_budget_stops_one_step_short(self, monkeypatch, source, args, nodes, after):
        monkeypatch.setattr(contracts, "STEP_BUDGET", nodes - 1)
        with pytest.raises(ContractError) as err:
            compile_contract(source)
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.detail == f"more than {nodes - 1} nodes"
        monkeypatch.setattr(contracts, "STEP_BUDGET", nodes)
        assert run(source, args, state={"y": 1}) == ({"y": 1, **after}, None)

    def test_compile_stops_at_the_first_node_past_the_cap(self, monkeypatch):
        # node 8, in compile order, is the if's condition's second operand;
        # the bogus statement after it is never reached
        monkeypatch.setattr(contracts, "STEP_BUDGET", 7)
        source = [["set", "a", ["add", 1, 2]],
                  ["if", ["eq", 1, 1], [["set", "b", 1]], [["bogus"]]]]
        with pytest.raises(ContractError) as err:
            compile_contract(source)
        assert err.value.reason is ExecReason.MALFORMED_SOURCE
        assert err.value.position == "$[1][1][2]"
        assert err.value.detail == "more than 7 nodes"

    def test_program_of_exactly_step_budget_nodes_compiles_and_runs_to_its_end(self):
        # 100 statements of 1,000 nodes each, no if; one more statement is refused
        assert contracts.STEP_BUDGET == 100_000
        source = [["set", f"k{i}", sized_expr(999)] for i in range(100)]
        state, err = run(source)
        assert err is None
        assert state == {f"k{i}": 500 for i in range(100)}
        with pytest.raises(ContractError) as over:
            compile_contract(source + [["set", "over", 1]])
        assert over.value.reason is ExecReason.MALFORMED_SOURCE
        assert over.value.position == "$[100]"
        assert over.value.detail == "more than 100000 nodes"


class TestCache:
    SOURCE = [["set", "x", 5]]

    def provider(self, mapping):
        return lambda cid: mapping.get(cid)

    def test_second_lookup_hits(self):
        cache = ContractCache()
        provider = self.provider({SET_X_5_ID: self.SOURCE})
        first = cached_lookup(cache, SET_X_5_ID, provider)
        second = cached_lookup(cache, SET_X_5_ID, provider)
        assert first is second
        assert cache.counters() == {"hits": 1, "misses": 1, "compiles": 1}

    def test_distinct_ids_compile_separately(self):
        cache = ContractCache()
        other = [["set", "y", 6]]
        mapping = {SET_X_5_ID: self.SOURCE, contract_id_for(other): other}
        cached_lookup(cache, SET_X_5_ID, self.provider(mapping))
        cached_lookup(cache, contract_id_for(other), self.provider(mapping))
        assert cache.compiles == 2

    def test_hits_plus_misses_equals_lookups(self):
        cache = ContractCache()
        provider = self.provider({SET_X_5_ID: self.SOURCE})
        for _ in range(9):
            cached_lookup(cache, SET_X_5_ID, provider)
        assert cache.hits + cache.misses == 9

    def test_unknown_id_raises_not_found(self):
        cache = ContractCache()
        with pytest.raises(ContractNotFound):
            cached_lookup(cache, "f" * 64, self.provider({}))

    def test_provider_source_must_match_id(self):
        cache = ContractCache()
        with pytest.raises(ContractError):
            cached_lookup(cache, "f" * 64, self.provider({"f" * 64: self.SOURCE}))

    def test_cached_and_fresh_execution_agree(self):
        cache = ContractCache()
        source = [["add", "n", ["arg", 0]], ["if", ["lt", ["get", "n"], 10],
                                             [["set", "small", 1]], [["set", "big", 1]]]]
        cid = contract_id_for(source)
        cached = cached_lookup(cache, cid, self.provider({cid: source}))
        fresh = compile_contract(source)
        for args in ([3], [15], [0]):
            s1, s2 = {}, {}
            execute(cached, args, s1.get, s1.__setitem__)
            execute(fresh, args, s2.get, s2.__setitem__)
            assert s1 == s2


def random_contract(rng, max_statements=6):
    keys = ["a", "b", "c", "d"]

    def expr(depth):
        roll = rng.random()
        if depth >= 4 or roll < 0.35:
            return rng.choice([0, 1, -1, 7, 2**40, INT64_MAX, -(2**62), rng.randrange(-100, 100)])
        if roll < 0.5:
            return ["get", rng.choice(keys)]
        if roll < 0.6:
            return ["arg", rng.randrange(3)]
        return [rng.choice(["add", "sub", "mul"]), expr(depth + 1), expr(depth + 1)]

    def statement(depth):
        roll = rng.random()
        if depth >= 3 or roll < 0.8:
            return [rng.choice(["set", "add", "sub"]), rng.choice(keys), expr(depth)]
        return ["if", [rng.choice(["eq", "lt"]), expr(depth + 1), expr(depth + 1)],
                [statement(depth + 1) for _ in range(rng.randrange(3))],
                [statement(depth + 1) for _ in range(rng.randrange(3))]]

    return [statement(0) for _ in range(rng.randrange(1, max_statements))]


class TestDeterminismFuzz:
    def test_two_interpreter_instances_agree(self):
        rng = random.Random(20240815)
        error_count = 0
        for _ in range(300):
            source = random_contract(rng)
            args = [rng.randrange(-10**6, 10**6) for _ in range(3)]
            initial = {k: rng.randrange(-50, 50) for k in ("a", "b")}

            outcomes = []
            for _ in range(2):
                state = dict(initial)
                contract = compile_contract(source)  # independent instance
                try:
                    writes = execute(contract, args, state.get, state.__setitem__)
                    outcomes.append(("ok", state, writes))
                except ContractError as exc:
                    outcomes.append(("err", exc.reason, dict(state)))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "err":
                error_count += 1
                # atomicity: failed executions never touched the state
                assert outcomes[0][2] == initial
        assert error_count > 0  # the generator does produce overflows
