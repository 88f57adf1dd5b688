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


def _calls(path, name):
    """Each call of the function or method ``name``: the qualified name of
    the function around it, the tests of the ``if`` statements whose body
    holds it, and its positional arguments, all as source text."""
    found = []

    def visit(node, scope, tests):
        for field, value in ast.iter_fields(node):
            inner = tests + (ast.unparse(node.test),) if (
                isinstance(node, ast.If) and field == "body") else tests
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, scope + (child.name,), ())
                    continue
                if not isinstance(child, ast.AST):
                    continue
                if isinstance(child, ast.Call) and name in (
                        getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                    found.append((".".join(scope), inner,
                                  tuple(map(ast.unparse, child.args))))
                visit(child, scope, inner)
    visit(_tree(path), (), ())
    return found


def test_the_until_search_is_one_tree():
    # Until queries and eval_ceu enter the search directly, the filter is its
    # root frame's fixpoint, and only coalition-next splits its moves into
    # maximal subsets.
    checker = SRC / "checker.py"
    tree = _tree(checker)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_until" not in defined
    assert _calls(checker, "filter_ceu") == []
    assert sorted(scope for scope, _, _ in _calls(checker, "_ceu_search")) == [
        "_search", "eval_ceu"]
    maximal = [(scope, tests) for scope, tests, args in _calls(checker, "split_all")
               if args[1:] == ("True",)]
    assert maximal == [("_search", ("isinstance(f, CanNext)",))]


def _methods_called(nodes):
    """The names of the methods called anywhere in a list of statements."""
    return [inner.func.attr for node in nodes for inner in ast.walk(node)
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)]


def test_a_search_frame_runs_one_fixpoint_before_its_candidates():
    # One walk over the predecessor lists: from scratch at the root, from
    # the parent's counts below it.  Its moves are the frame's candidates
    # and the first round of the fixpoint, and the search asks no pre_move.
    checker = SRC / "checker.py"
    grow, = [node for node in ast.walk(_tree(checker))
             if isinstance(node, ast.FunctionDef) and node.name == "grow"]
    engine = ("counts", "enter", "reach", "pre_move")
    calls = [name for name in _methods_called(grow.body) if name in engine]
    walk, = [node for node in grow.body if isinstance(node, ast.If)
             and {"counts", "enter"} & set(_methods_called([node]))]
    assert (_methods_called(walk.body), _methods_called(walk.orelse)) == (
        ["counts"], ["enter"])
    assert calls == ["counts", "enter", "reach"]
    assert [scope for scope, _, _ in _calls(checker, "pre_move")] == ["_search"]


def test_no_move_keeps_a_successor_mask():
    # the engine counts successors; the oracle reads the rows
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "succ_mask" in path.read_text()] == []


def test_the_model_owns_the_joint_action_layout():
    # the engine takes each state's menus and the post relation from the
    # model, and finds a move id within its state's move range
    tree = _tree(SRC / "_index.py")
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "protocol"] == []
    index, = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "CoalitionIndex"]
    names = {node.name for node in index.body if isinstance(node, ast.FunctionDef)}
    names.update(node.attr for node in ast.walk(index)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and ast.unparse(node.value) == "self")
    assert names & {"post_mask", "post", "_lookup"} == set()


def test_the_loader_decodes_no_whole_document():
    # modelio reads a document with the scanner, one member or one block of
    # transition entries at a time; a whole-document decoder would bring
    # its tree back
    tree = _tree(SRC / "modelio.py")
    whole = {"load", "loads", "decode", "raw_decode"}
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in whole
             and "json" in ast.unparse(node.value).lower()]
    found += ["from %s import %s" % (node.module, alias.name)
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and "json" in (node.module or "") for alias in node.names
              if alias.name in whole]
    assert found == []


def test_the_oracle_takes_nothing_but_the_coalition_from_the_index():
    # The enumeration builds its own successor tables and closure, so a fault
    # in the engine's tables cannot make the checker and its ground truth
    # agree.  The perfect-information evaluator is another semantics: it
    # runs the engine's fixpoints.
    tree = _tree(SRC / "oracle.py")
    solvers = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in ("_enumerate", "_fixpoints")}
    uses = {}
    for name, solver in solvers.items():
        reads = {id(node.value): node.attr for node in ast.walk(solver)
                 if isinstance(node, ast.Attribute)}
        uses[name] = sorted({reads.get(id(node)) for node in ast.walk(solver)
                             if isinstance(node, ast.Name) and node.id == "idx"},
                            key=str)
    assert uses == {"_enumerate": ["gamma"], "_fixpoints": ["filter_ceu", "pre_ce"]}
