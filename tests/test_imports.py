"""The package's internal import graph: every import that can run, also inside functions."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


_COMMANDS_THEN_MODULES = """
import sys
import scipy.sparse
if "scipy.sparse.linalg" in sys.modules:
    print("eager")  # this scipy imports it with scipy.sparse, whatever the package does
    sys.exit()
from adasize.cli import main
out = sys.argv[1]
assert main(["gen", "--gen", "200,8,0.5", "--out", out]) == 0
assert main(["run", "--dataset", out + "/synthetic_200x8_seed0.svm", "--m0", "32",
             "--adaptive", "--method", "svrg", "--out", out]) == 0
assert main(["compare", "--gen", "256,6,1.0", "--m0", "64", "--m-mode", "tight",
             "--out", out]) == 0
assert main(["verify", "--gen", "256,6,1.0", "--m0", "16", "--draws", "1", "--trials", "2",
             "--out", out]) == 0
print(" ".join(sys.modules))  # the last line, after the commands' own output
"""


def test_no_command_imports_scipy_sparse_linalg(tmp_path):
    # the reference solve runs the package's own conjugate gradients; scipy's
    # iterative solvers would add about 8 MB resident to every process.  Only a
    # scipy whose scipy.sparse loads its linalg submodule on first use, as 1.17
    # does, can keep that import out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _COMMANDS_THEN_MODULES, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    if done.stdout == "eager\n":
        pytest.skip("this scipy's scipy.sparse imports scipy.sparse.linalg itself")
    modules = done.stdout.splitlines()[-1].split()
    assert "adasize.bench" in modules
    assert "scipy.sparse.linalg" not in modules
