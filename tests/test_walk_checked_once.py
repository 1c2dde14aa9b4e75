"""The pairs of the clique walk are checked once, in mask form: lex_matching
and verify's Morse gate build their Matching through Matching._of_walk,
whose check is _matched's, and reach neither Matching's tuple check nor a
call of Matching, which would run that check again."""

from ast_uses import reached_functions, src_uses

WALK_ROOTS = ("lex_matching", "_equiv_on_graph")
TUPLE_CHECK = {"_validated", "_check_pairs"}


def test_walk_matchings_are_checked_by_masks_alone():
    reach = {name for _, name in reached_functions([u for _, u in src_uses()], WALK_ROOTS)}
    assert {*WALK_ROOTS, "_of_walk", "_matched", "clique_masks"} <= reach
    assert not TUPLE_CHECK & reach
