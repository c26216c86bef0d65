"""The package's internal import graph: every import that can run, also inside functions."""

import ast
from pathlib import Path

import adasize

PACKAGE_DIR = Path(adasize.__file__).parent


def _is_type_checking_guard(node: ast.AST) -> bool:
    # `if TYPE_CHECKING:` bodies never run, so their imports are not edges
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return getattr(test, "id", None) == "TYPE_CHECKING" or \
        getattr(test, "attr", None) == "TYPE_CHECKING"


def _internal_imports(path: Path, modules: set[str]) -> set[str]:
    tree = ast.parse(path.read_text())
    skipped = {id(n) for guard in ast.walk(tree) if _is_type_checking_guard(guard)
               for stmt in guard.body for n in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base != "adasize" and not base.startswith("adasize."):
                    continue
                base = base[len("adasize"):].lstrip(".")
            if base:
                found.add(base.split(".")[0])
            else:  # `from . import a, b`
                found.update(alias.name for alias in node.names)
    return found & modules


def test_internal_import_graph_is_acyclic():
    paths = {p.stem: p for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    graph = {name: _internal_imports(path, set(paths)) for name, path in paths.items()}
    done: set[str] = set()

    def visit(name: str, stack: list[str]) -> None:
        if name in stack:
            cycle = stack[stack.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, stack + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])
