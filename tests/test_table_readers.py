"""The small-graph count table has three readers: kinds.py's two table-route
functions, which turn a block of draws into count-table rows, and
oracle.exact_distribution.  No other src function reads _small_graph_counts,
so no replicate kernel keeps a table branch; montecarlo.py only re-exports it
for the benchmark's cache hook."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cliquestats"
TABLE = "_small_graph_counts"
READERS = {("kinds.py", "_graph_table_rows"), ("kinds.py", "_link_table_rows"),
           ("oracle.py", "exact_distribution")}
IMPORTERS = {"oracle.py", "montecarlo.py"}


def _table_reads(tree):
    """(line, enclosing function or None) of each read of TABLE in tree: a
    name, an attribute, a string (as getattr takes it) or a from-import."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == TABLE
                or isinstance(node, ast.Attribute) and node.attr == TABLE
                or isinstance(node, ast.Constant) and node.value == TABLE):
            found.append((node.lineno, func))
        if isinstance(node, ast.ImportFrom) and any(a.name == TABLE for a in node.names):
            found.append((node.lineno, "import"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_table_route_and_the_oracle_read_the_count_table():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for line, func in _table_reads(ast.parse(path.read_text(encoding="utf-8"))):
            allowed = (path.name in IMPORTERS if func == "import"
                       else (path.name, func) in READERS)
            if not allowed:
                stray.append("%s:%d: %s" % (path.name, line, func))
    assert not stray


def test_table_read_finder_sees_each_form():
    src = ("from .kinds import _small_graph_counts\n"
           "def f(cfg):\n    return _small_graph_counts(cfg.kind, 5, 2, ())[0]\n"
           "g = lambda: kinds._small_graph_counts.cache_info()\n"
           "h = getattr(kinds, '_small_graph_counts')\n")
    assert _table_reads(ast.parse(src)) == [(1, "import"), (3, "f"), (4, None), (5, None)]
    # defining the table is not reading it
    assert not _table_reads(ast.parse("def _small_graph_counts(kind, n, d, t):\n    pass\n"))
