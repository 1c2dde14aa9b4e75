"""The small-graph count table has four readers: kinds.py's two table-route
functions, which turn a block of draws into count-table rows, kinds.py's
critical_counts, which gives the Morse-equivalence gate the row a replicate
of one graph gets, and oracle.exact_distribution.  No other src function
reads _small_graph_counts, so no replicate kernel keeps a table branch;
montecarlo.py only re-exports it for the benchmark's cache hook."""

from ast_uses import src_uses

TABLE = "_small_graph_counts"
READERS = {("kinds", "_graph_table_rows"), ("kinds", "_link_table_rows"),
           ("kinds", "critical_counts"), ("oracle", "exact_distribution")}
IMPORTERS = {"oracle", "montecarlo"}


def test_only_the_table_route_and_the_oracle_read_the_count_table():
    # a read is a name, an attribute, a string (as getattr takes it) or a from-import
    assert not ["%s:%d: %s" % (module, u.line, u.func) for module, u in src_uses()
                if (u.kind in ("name", "str") and u.name == TABLE
                    and (module, u.func) not in READERS)
                or (u.kind == "import" and u.name.split(".")[-1] == TABLE
                    and module not in IMPORTERS)]
