"""The package's modules import in a declared layer order.

The certifier and the character tables are the core that a certificate
checker trusts, so they sit below the tower search: ``certify`` never
reaches ``tower``, and ``characters`` reaches none of ``certify``,
``systems`` and ``tower``.  The check reads the module-level imports of
``src/diffield/*.py`` with ``ast``.  An import inside a function would run
only when the function does, so it would be no edge; no module has one, so
the graph holds every edge.  A check on ``sys.modules`` could not show this:
importing any submodule runs ``diffield/__init__.py``, which loads them all.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diffield"

# Each module may import only modules of strictly earlier layers.
LAYERS = (
    ("record", "poly"),
    ("linalg",),
    ("ratfunc",),
    ("field",),
    ("equations", "descent"),
    ("params",),
    ("freebase",),
    ("certify", "characters", "parser"),  # below the search
    ("tower",),
    ("systems",),
    ("counterexample",),
    ("cli",),
    ("__init__",),
)


def module_imports(tree: ast.Module) -> set[str]:
    """The package modules a module's top level imports; function bodies are skipped."""
    out = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("diffield."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("diffield."))
        stack.extend(ast.iter_child_nodes(node))
    return out


def function_level_imports(tree: ast.Module) -> list[int]:
    """The lines of the import statements inside a function body."""
    return sorted({
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def import_graph() -> dict[str, set[str]]:
    return {
        path.stem: module_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def reach(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules that importing start loads, start left out."""
    seen, todo = set(), [start]
    while todo:
        for mod in graph[todo.pop()] - seen:
            seen.add(mod)
            todo.append(mod)
    return seen


def test_every_module_has_one_layer():
    declared = [m for layer in LAYERS for m in layer]
    assert sorted(declared) == sorted(import_graph())


def test_every_module_imports_only_lower_layers():
    layer = {m: i for i, mods in enumerate(LAYERS) for m in mods}
    graph = import_graph()
    assert graph["certify"] and graph["cli"]  # the reader sees the imports
    upward = sorted((m, dep) for m, deps in graph.items() for dep in deps if layer[dep] >= layer[m])
    assert upward == []


def test_the_trusted_core_reaches_no_search():
    graph = import_graph()
    assert "tower" not in reach(graph, "certify")
    assert not reach(graph, "characters") & {"certify", "systems", "tower"}
    assert {"certify", "characters", "systems", "tower"} <= reach(graph, "counterexample")


def test_a_function_level_import_is_no_edge():
    source = "from .a import x\n\ndef f():\n    from .b import y\n\nclass C:\n    from .c import z\n"
    assert module_imports(ast.parse(source)) == {"a", "c"}


def test_no_module_imports_inside_a_function():
    found = {
        path.stem: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := function_level_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_a_function_level_import_is_found():
    source = "import a\n\ndef f():\n    from .b import y\n    def g():\n        import c\n"
    assert function_level_imports(ast.parse(source)) == [4, 6]
