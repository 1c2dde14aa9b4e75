"""README's table of paper statements reached only by tests stays true: each
`module.name` it lists exists in that module, and no src module refers to
it outside its own definition."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliquestats"


def _table_names():
    """The (module, name) of each row of the table under README's "reached
    only by tests" paragraph, read off its first column."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = text.split("are reached only by tests", 1)[1].split("\n\n", 2)[1].splitlines()
    cells = [row.split("|")[1].strip().strip("`") for row in rows[2:]]
    return [tuple(cell.split(".")) for cell in cells]


def _references(tree, module, owner, name):
    """Line of each use of name in tree (a Name, an attribute or an import),
    outside the top-level definition of name when module is its owner."""
    return [node.lineno for top in tree.body
            if not (module == owner and getattr(top, "name", None) == name)
            for node in ast.walk(top)
            if getattr(node, "id", None) == name or getattr(node, "attr", None) == name
            or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)]


def test_table_lists_only_statements_no_src_module_reaches():
    names = _table_names()
    assert names and all(len(row) == 2 for row in names), names
    for owner, name in names:
        assert hasattr(importlib.import_module("cliquestats." + owner), name), (owner, name)
        found = ["%s:%d" % (path.name, line) for path in sorted(SRC.glob("*.py"))
                 for line in _references(ast.parse(path.read_text(encoding="utf-8")),
                                         path.stem, owner, name)]
        assert not found, (owner, name, found)


def test_reference_finder_sees_each_form():
    src = ("from .moments import link_cov_lower\n"
           "def link_cov_lower(n):\n    return link_cov_lower(n - 1)\n"
           "def f(n):\n    return mo.link_cov_lower(n) + link_cov_lower(n)\n")
    assert _references(ast.parse(src), "bounds", "moments", "link_cov_lower") == [1, 3, 5, 5]
    # in its own module, the definition and the calls inside it are not uses
    assert _references(ast.parse(src), "moments", "moments", "link_cov_lower") == [1, 5, 5]
