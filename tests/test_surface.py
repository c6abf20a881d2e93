"""Every public name of the package runs in the program or serves a test.

A top-level function or class of ``src/kslab``, or a public method of
one of its classes, must be referenced by code outside its own
definition: in ``src/kslab`` or in the benchmark's ``perfbench/*.py``.
References are identifiers, attribute names and the words of string
literals (the benchmark tracer names what it wraps in strings);
docstrings, comments and imports do not count.  A name that only tests
call stays only as a test oracle, listed in ``ORACLES`` with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "kslab").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))
PACKAGE = ROOT / "src" / "kslab"

ORACLES = {
    "is_sparse_tail_criterion": "second definition of sparse, tested "
                                "against is_sparse on every subset",
    "is_sparse_halfcount_criterion": "third definition of sparse, tested "
                                     "against is_sparse on every subset",
    "alpha_of": "alpha maps the non-sparse p-sets onto all (p - 1)-sets",
    "beta_of": "the inverse of alpha",
    "flag_is_valid": "the flag axioms, checked on every enumerated flag",
    "to_json": "graph writer, round-tripped through graph_from_json",
    "is_tree_by_deletion": "the definition of a tree, against is_tree",
    "ncm_to_folding": "tree foldings of C(n) from non-crossing matchings, "
                      "the Catalan count of enumerate_tree_foldings",
    "folding_to_ncm": "the inverse of ncm_to_folding",
    "canonical_form": "isomorphism invariant, to be replaced by a true "
                      "canonical form (ROADMAP)",
    "extendable_by_search": "the direct definition behind classify_bts",
    "dihedral_act": "the dihedral symmetry of R(n), a ring morphism",
    "sigma_vanishing": "sigma_k(J) = 0 in R(n) once k + |J| > 2n",
    "euler_characteristic": "chi(Y(C(n))) = C(2n, n) against the complexes",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


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


def _words(node, docstrings):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and id(node) not in docstrings:
        return re.findall(r"\w+", node.value)
    return []


def _references(tree):
    """Each referenced word with the definitions it is written inside."""
    docstrings = _docstrings(tree)
    out = []

    def visit(node, inside):
        if isinstance(node, _DEFS):
            inside = inside | {id(node)}
        out.extend((word, inside) for word in _words(node, docstrings))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
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


def unreferenced_names():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    references = [ref for tree in trees.values() for ref in _references(tree)]
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in _checked_definitions(tree):
            if not any(word == node.name and id(node) not in inside
                       for word, inside in references):
                out.append(f"{path.stem}.{node.name}")
    return sorted(out)


def test_every_public_name_is_used_or_an_oracle():
    unused = [name for name in unreferenced_names()
              if name.split(".")[-1] not in ORACLES]
    assert unused == []


def test_every_oracle_is_still_unreferenced():
    # an oracle that the program now calls belongs off the list
    names = {name.split(".")[-1] for name in unreferenced_names()}
    assert sorted(set(ORACLES) - names) == []
