"""Module layers: relative imports sit at module level and form no cycle."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adt"

LATE_IMPORTS = set()


def _relative_imports():
    """``(module, imported module, inside a function)`` for every relative
    import under ``src/adt``."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        late = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for target in [node.module] if node.module else [alias.name for alias in node.names]:
                    yield path.stem, target, id(node) in late


def test_only_the_known_late_import_remains():
    late = {(module, target) for module, target, inside in _relative_imports() if inside}
    assert late == LATE_IMPORTS


def test_module_level_imports_are_acyclic():
    graph: dict = {}
    for module, target, inside in _relative_imports():
        graph.setdefault(module, set())
        if not inside:
            graph[module].add(target)
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert "skorokhod" not in graph["transport"]
