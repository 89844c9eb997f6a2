"""Module layering of `powdb`: the imports between its modules, read from
the source with `ast`, including imports inside functions, form no cycle,
and no lower layer imports the node, the simulator or the CLI. Nothing
`powdb` defines goes unread in `powdb` unless it is listed with its reason."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powdb"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}

LOWER = {"chain", "consensus", "wire", "store", "contracts", "mining", "_minepure",
         "transport", "net"}
UPPER = {"node", "sim", "simnet", "cli"}


def imported(path: Path) -> set[str]:
    """The powdb modules that `path` imports anywhere in its source."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("powdb."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = "powdb." + module if module else "powdb"
            if module == "powdb":  # from powdb import wire
                names.update(alias.name for alias in node.names)
            elif module.startswith("powdb."):
                names.add(module.split(".")[1])
    return names & MODULES.keys()


GRAPH = {name: imported(path) for name, path in MODULES.items()}


def test_every_module_is_read_with_its_imports_inside_functions():
    assert LOWER | UPPER <= MODULES.keys()
    assert "sim" in GRAPH["cli"]  # imported inside _cmd_sim_run only
    assert {"chain", "consensus", "store", "transport", "wire"} <= GRAPH["node"]


def test_no_import_cycle():
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        path.append(name)
        for other in sorted(GRAPH[name]):
            visit(other)
        path.pop()
        done.add(name)

    for name in sorted(GRAPH):
        visit(name)


def test_no_lower_layer_imports_the_node_the_simulator_or_the_cli():
    crossing = {name: sorted(GRAPH[name] & UPPER) for name in sorted(LOWER)
                if GRAPH[name] & UPPER}
    assert crossing == {}


# names that src/powdb defines and never loads, each with its reason
UNREAD_IN_SRC = {
    "consensus.retarget_raw": "test oracle",
    "consensus.replay_difficulty": "test oracle",
    "store.BlockStore.all_state": "test oracle",
    "net.RecentSet": "read only by perfbench/ (ROADMAP item 3 deletes it)",
    "mining.BACKEND": "read only by perfbench/ (ROADMAP item 3 deletes it)",
    "simnet.MemNetwork.dropped_by_loss": "read only by perfbench/ (ROADMAP item 3 deletes it)",
    "simnet.MemNetwork.dropped_by_partition":
        "read only by perfbench/ (ROADMAP item 3 deletes it)",
}


def defined(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each function, class, method, class-level
    name such as a dataclass field, module constant and `self.` attribute
    that `tree` defines, dunder names aside."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + node.name, node.name))
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend((prefix + sub.attr, sub.attr) for sub in ast.walk(node)
                             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                             and isinstance(sub.value, ast.Name) and sub.value.id == "self")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.extend((prefix + name.id, name.id) for target in targets
                             for name in ast.walk(target) if isinstance(name, ast.Name))

    visit(tree.body, module + ".")
    return [(qualified, name) for qualified, name in found if not name.startswith("__")]


def loaded(tree: ast.Module) -> set[str]:
    """Every name and attribute that `tree` reads, by name alone."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_src_reads_every_name_it_defines():
    """Everything src/powdb defines is read somewhere in src/powdb, or is
    listed in UNREAD_IN_SRC with its reason. The match is by name alone, so
    it can miss a dead name spelled like a live one (a `peer` field on
    `_Link` would pass, as `MemConnection.peer` is read), but it never flags
    a name that is read. A read through a string, as `getattr(conn,
    "reliable")`, is no read."""
    trees = {name: ast.parse(path.read_text(), filename=str(path))
             for name, path in MODULES.items()}
    reads = set().union(*map(loaded, trees.values()))
    unread = {qualified for module, tree in trees.items()
              for qualified, name in defined(module, tree) if name not in reads}
    assert sorted(unread - UNREAD_IN_SRC.keys()) == []
    assert sorted(UNREAD_IN_SRC.keys() - unread) == []  # each listed name is still unread
