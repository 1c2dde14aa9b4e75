"""The pairs of the clique walk are checked once, in mask form: lex_matching
and verify's Morse gate build their Matching through Matching._of_walk,
whose check is _matched's.  A Matching's constructor checks nothing, so
every function in src that calls Matching calls _matched itself, on the
pairs it builds from: reaching a function that calls it is not enough.

Simplices stay masks from the walk to the acyclicity check: lex_matching,
the gate's _equiv_on_graph, critical_counts_direct and verify_acyclic reach
neither mask_tuple nor the Matching.pairs view, but in the messages of what
they raise, so tuples exist only where a caller reads them."""

import ast

from ast_uses import SRC, reached_functions, src_uses, uses

WALK_ROOTS = ("lex_matching", "_equiv_on_graph")
MASK_ROOTS = (*WALK_ROOTS, "critical_counts_direct", "verify_acyclic")
TUPLE_VIEWS = {("mask_tuple", "mask_tuple"), ("Matching", "pairs")}


def callers(found, names, top=None) -> set:
    """(top, function) of each function in found that calls one of names, or
    calls cls inside the class top."""
    return {(u.top, u.func) for u in found if u.kind == "call"
            and (u.name in names or u.name == "cls" and u.top == top)}


def test_walk_matchings_are_checked_by_masks_alone():
    found = [u for _, u in src_uses()]
    reach = {name for _, name in reached_functions(found, WALK_ROOTS)}
    assert {*WALK_ROOTS, "_of_walk", "_matched", "clique_masks"} <= reach
    builders = callers(found, {"Matching"}, "Matching")
    assert ("Matching", "_of_walk") in builders
    assert builders <= callers(found, {"_matched"})


class Unraised(ast.NodeTransformer):
    """Replaces each raise statement with pass."""

    def visit_Raise(self, node):
        return ast.copy_location(ast.Pass(), node)


def test_the_walk_and_the_acyclicity_check_reach_no_tuple():
    found = [u for path in sorted(SRC.glob("*.py"))  # every src use outside a raise
             for u in uses(Unraised().visit(ast.parse(path.read_text(encoding="utf-8"))))]
    reach = reached_functions(found, MASK_ROOTS)
    assert {(root, root) for root in MASK_ROOTS} <= reach  # no root renamed away
    assert not TUPLE_VIEWS & reach
    assert TUPLE_VIEWS <= reached_functions(found, ["dump"])  # the view is still there
