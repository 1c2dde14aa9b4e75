"""The Morse-equivalence gate compares two independent enumerations: the direct
construction (lex_matching, critical_counts_direct, verify_acyclic, and the
one-walk helpers _matched, _pairs and _unmatched that verify's gate calls)
reads graphs' ascending bitmask walk clique_masks, and the formula reads the
kernels a replicate runs, kinds.critical_counts: the count table
(_small_graph_counts over _is_critical) and clique_levels.  No function the
direct side reaches in morse.py or graphs.py may use those, clique_walk or
critical_counts_formula."""

from ast_uses import reached, src_uses

DIRECT = ("lex_matching", "critical_counts_direct", "verify_acyclic", "_matched", "_pairs",
          "_unmatched")
FORMULA = {"clique_walk", "clique_levels", "critical_counts_formula", "critical_counts",
           "_small_graph_counts", "_is_critical"}


def test_direct_morse_gates_use_no_formula_walk():
    found = [u for module, u in src_uses() if module in ("morse", "graphs")]
    reach = reached(found, DIRECT)
    assert set(DIRECT) <= reach  # no root renamed away
    assert "clique_masks" in reach  # the walk the guard is about
    assert not ["%s uses %s" % (u.top, u.name) for u in found
                if u.top in reach and u.kind == "name" and u.name in FORMULA]
