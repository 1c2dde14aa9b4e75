"""The Morse-equivalence gate compares two independent enumerations: the direct
construction (lex_matching, critical_counts_direct, verify_acyclic, and the
one-walk helpers _lex_walk and _unmatched that verify's gate calls) reads the
ascending walk clique_lists, and the formula reads the descending walk.  No
function the direct side reaches in morse.py or graphs.py may use
clique_walk, clique_levels or critical_counts_formula."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
DIRECT = ("lex_matching", "critical_counts_direct", "verify_acyclic", "_lex_walk",
          "_unmatched")
FORMULA = {"clique_walk", "clique_levels", "critical_counts_formula"}


def _definitions(trees):
    """Module-level functions and classes of the trees, by name."""
    return {node.name: node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _names(node):
    """Every name or attribute node refers to: calls, and functions passed on."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _reached(defs, roots):
    """name -> the definition it was first reached from, over every definition
    in defs that roots refer to, directly or through other definitions."""
    reached = {root: None for root in roots}
    todo = list(roots)
    while todo:
        name = todo.pop()
        for ref in _names(defs[name]) & defs.keys():
            if ref not in reached:
                reached[ref] = name
                todo.append(ref)
    return reached


def _formula_uses(trees, roots):
    defs = _definitions(trees)
    reached = _reached(defs, roots)
    return reached, ["%s uses %s" % (name, ref) for name in sorted(reached)
                     for ref in sorted(_names(defs[name]) & FORMULA)]


def test_direct_morse_gates_use_no_formula_walk():
    trees = [ast.parse((SRC / name).read_text(encoding="utf-8"))
             for name in ("morse.py", "graphs.py")]
    reached, found = _formula_uses(trees, DIRECT)
    assert "clique_lists" in reached  # the walk helper is inside the guard
    assert not found


def test_formula_use_finder_sees_each_form():
    forms = ["def lex_matching(g):\n    return clique_walk(g.adj, 1, 2)\n",
             "def lex_matching(g):\n    return helper(g)\n"
             "def helper(g):\n    return graphs.clique_levels(g, 3)\n",
             "def verify_acyclic(m, g):\n    return list(map(critical_counts_formula, [g]))\n",
             "def critical_counts_direct(g, d):\n    return M(g)\n"
             "class M:\n    def __init__(self, g):\n        clique_walk(g, 1, 2)\n"]
    for src in forms:
        assert _formula_uses([ast.parse(src)], [ast.parse(src).body[0].name])[1], src
    # a walk that the direct side does not reach is not its use
    src = ("def lex_matching(g):\n    return clique_lists(g, 2)\n"
           "def clique_lists(g, top):\n    return []\n"
           "def critical_counts_formula(g, d):\n    return clique_walk(g.adj, 1, d)\n")
    reached, found = _formula_uses([ast.parse(src)], ["lex_matching"])
    assert "clique_lists" in reached and not found
