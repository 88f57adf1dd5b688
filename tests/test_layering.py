"""The package's import structure keeps the mask engine below its wrappers.

``_index.py`` works on plain ints and imports nothing from the package but
its errors; the public modules import it at the top, never inside a
function, so no import cycle needs a deferred import to break it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "atlir"


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def test_no_module_imports_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += ["%s:%d" % (path.name, inner.lineno)
                          for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_the_engine_imports_only_errors_from_the_package():
    tree = _tree(SRC / "_index.py")
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or "atlir" in node.module)}
    modules.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if "atlir" in alias.name)
    assert modules == {"errors"}


def _reads(path, name, attr):
    """The qualified name of the function around each read of ``name.attr``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.value, ast.Name) and child.value.id == name):
                found.append(".".join(scope))
            visit(child, scope)
    visit(_tree(path), ())
    return found


def test_only_the_walk_resolves_a_strategic_coalition():
    # the solvers are handed the index of the node's coalition
    reads = {path: _reads(SRC / path, "f", "coalition")
             for path in ("checker.py", "oracle.py")}
    assert reads == {"checker.py": ["Walk.sat", "Walk.sat"], "oracle.py": []}
