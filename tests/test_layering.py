"""Module layering of `powdb`: the imports between its modules, read from
the source with `ast`, including imports inside functions, form no cycle,
and no lower layer imports the node, the simulator or the CLI."""

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
