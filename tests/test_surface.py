"""Every public name of the package runs in the program or serves a test.

A top-level function or class of ``src/kslab``, or a public method of
one of its classes, must be referenced by code outside its own
definition: in ``src/kslab`` or in the benchmark's ``perfbench/*.py``.
References are identifiers that are read, attribute names, and string
literals equal to the name (the benchmark tracer names what it wraps by
exact strings).  Docstrings, comments and imports do not count, and
neither does a name bound locally: an argument, or an assignment, loop
or comprehension target of the enclosing function, lambda or
comprehension.  A name that only tests call stays only as a test
oracle, listed in ``ORACLES`` with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kslab"
PERFBENCH = ROOT / "perfbench"

ORACLES = {
    "to_json": "graph writer, round-tripped through graph_from_json",
    "is_tree_by_deletion": "the definition of a tree, against is_tree",
    "ncm_to_folding": "tree foldings of C(n) from non-crossing matchings, "
                      "the Catalan count of enumerate_tree_foldings",
    "folding_to_ncm": "the inverse of ncm_to_folding",
    "canonical_form": "isomorphism invariant, to be replaced by a true "
                      "canonical form (ROADMAP)",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)
_COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = _FUNCS + _COMPS + (ast.Lambda,)


def _docstrings(tree):
    """The string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _local_names(scope):
    """The names a function, lambda or comprehension binds locally."""
    if isinstance(scope, _COMPS):
        targets = [node for gen in scope.generators
                   for node in ast.walk(gen.target)]
        return {node.id for node in targets if isinstance(node, ast.Name)}
    a = scope.args
    params = a.posonlyargs + a.args + a.kwonlyargs + \
        [arg for arg in (a.vararg, a.kwarg) if arg is not None]
    return {arg.arg for arg in params} | \
        {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)
         and isinstance(node.ctx, ast.Store)}


def _reference(node, docstrings, bound):
    """The name ``node`` refers to, or None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in bound:
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and id(node) not in docstrings:
        return node.value
    return None


def _references(tree):
    """Each referenced name with the definitions it is written inside."""
    docstrings = _docstrings(tree)
    out = []

    def visit(node, inside, bound):
        if isinstance(node, _DEFS):
            inside = inside | {id(node)}
        if isinstance(node, _SCOPES):
            bound = bound | _local_names(node)
        name = _reference(node, docstrings, bound)
        if name is not None:
            out.append((name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, bound)

    visit(tree, frozenset(), frozenset())
    return out


def _checked_definitions(tree):
    """Top-level functions and classes, and the public methods of classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, _FUNCS)
                        and not item.name.startswith("_"))


def unreferenced_names(package=None, others=None):
    """``module.name`` of each checked definition that nothing references.

    ``package`` maps module names to the sources whose definitions are
    checked, and ``others`` lists more sources that may reference them;
    by default, ``src/kslab/*.py`` and ``perfbench/*.py``.
    """
    if package is None:
        package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
        others = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    trees = {name: ast.parse(text) for name, text in package.items()}
    references = [ref for tree in [*trees.values(), *map(ast.parse, others)]
                  for ref in _references(tree)]
    out = []
    for module, tree in trees.items():
        for node in _checked_definitions(tree):
            if not any(word == node.name and id(node) not in inside
                       for word, inside in references):
                out.append(f"{module}.{node.name}")
    return sorted(out)


SYNTHETIC = '''
TRACED = {"traced": "the tracer names it exactly"}
NOTE = "mentioned in a sentence"


def traced(): pass
def mentioned(): pass
def argument(): pass
def target(): pass
def looped(): pass
def comprehended(): pass
def recursive(): return recursive()
def imported(): pass
def called(): pass


def uses(argument, *rest):
    target = [comprehended for comprehended in rest]
    for looped in target:
        argument(looped)
    return called(target)


class Box:
    def attribute(self): pass
    def method(self): pass
    def _private(self): pass
'''


def test_checker_on_a_synthetic_source():
    others = ["from mod import imported", "def f(box): return box.attribute"]
    assert unreferenced_names({"mod": SYNTHETIC}, others) == [
        "mod.Box", "mod.argument", "mod.comprehended", "mod.imported",
        "mod.looped", "mod.mentioned", "mod.method", "mod.recursive",
        "mod.target", "mod.uses"]


def test_every_public_name_is_used_or_an_oracle():
    unused = [name for name in unreferenced_names()
              if name.split(".")[-1] not in ORACLES]
    assert unused == []


def test_every_oracle_is_still_unreferenced():
    # an oracle that the program now calls belongs off the list
    names = {name.split(".")[-1] for name in unreferenced_names()}
    assert sorted(set(ORACLES) - names) == []
